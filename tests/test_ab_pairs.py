"""The summary of scripts/ab_pairs.py on canned benchmark result lines."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "particle_steps_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25}]
PARENT_WALL = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.055


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines(walls, correct=True, failed=0):
    """Result lines as perfbench/run.py prints them, one per wall time; the
    throughput is 1 / wall."""
    return [{"correct": correct, "attempted": 3, "failed": failed,
             "metrics": {"wall_s": {"value": w, "unit": "s"},
                         "particle_steps_per_s": {"value": 1 / w, "unit": "1/s"}}}
            for w in walls]


def _rows(ab_pairs, change_walls):
    rows = ab_pairs.summarize(METRICS, _lines(PARENT_WALL), _lines(change_walls))
    return {row["metric"]: row for row in rows}


def test_nine_wins_of_ten_with_a_gap_above_the_iqr_meet_the_claim(ab_pairs):
    change = [w - 0.2 for w in PARENT_WALL[:9]] + [PARENT_WALL[9] + 0.01]
    rows = _rows(ab_pairs, change)
    for name in ("wall_s", "particle_steps_per_s"):  # both directions
        assert (rows[name]["wins"], rows[name]["losses"]) == (9, 1)
        assert rows[name]["claim_met"] and not rows[name]["beyond_bound"]
        assert not rows[name]["unresolved"]
    assert ab_pairs.verdict(rows["wall_s"]) == "gain: claim rule met"


def test_a_gain_below_a_tenth_of_the_bound_does_not_meet_the_claim(ab_pairs):
    # peak RSS barely spreads: with a parent IQR of 0 a 20 kB shift would
    # win every pair, but a bound of 0.1 puts the floor at 1% of the median
    spec = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]

    def row(parent_mb, change_mb):
        lines = [[{"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"peak_rss_mb": {"value": mb, "unit": "MB"}}}] * 10
                 for mb in (parent_mb, change_mb)]
        return ab_pairs.summarize(spec, *lines)[0]

    noise = row(34.93, 34.91)
    assert noise["wins"] == 10 and noise["parent"][2] - noise["parent"][0] == 0
    assert not noise["claim_met"]
    assert ab_pairs.verdict(noise) == "better, claim rule not met"
    assert row(47.15, 43.91)["claim_met"]


def test_eight_wins_of_ten_do_not_meet_the_claim(ab_pairs):
    change = [w - 0.2 for w in PARENT_WALL[:8]] + [w + 0.01 for w in PARENT_WALL[8:]]
    row = _rows(ab_pairs, change)["wall_s"]
    assert (row["wins"], row["losses"]) == (8, 2)
    assert not row["claim_met"]


def test_a_gap_inside_the_iqr_does_not_meet_the_claim(ab_pairs):
    row = _rows(ab_pairs, [w - 0.01 for w in PARENT_WALL])["wall_s"]
    assert row["wins"] == 10 and not row["claim_met"]
    assert ab_pairs.verdict(row) == "better, claim rule not met"


def test_ties_count_for_neither_side(ab_pairs):
    change = [w - 0.2 for w in PARENT_WALL[:8]] + PARENT_WALL[8:]
    row = _rows(ab_pairs, change)["wall_s"]
    assert (row["wins"], row["losses"]) == (8, 0)
    assert not row["claim_met"]


def test_a_metric_worse_beyond_its_bound_is_flagged(ab_pairs, capsys):
    rows = _rows(ab_pairs, [w * 1.3 for w in PARENT_WALL])
    assert rows["wall_s"]["beyond_bound"]  # 30% worse against a bound of 25%
    assert not rows["particle_steps_per_s"]["beyond_bound"]  # 1/1.3: 23% worse
    assert rows["wall_s"]["relative_change"] == pytest.approx(0.3)
    assert ab_pairs.verdict(rows["wall_s"]).startswith("WORSE BEYOND THE 25% BOUND")
    parent, change = _lines(PARENT_WALL), _lines([w * 1.3 for w in PARENT_WALL])
    assert not ab_pairs.report("w", parent, change, list(rows.values()))
    assert ab_pairs.report("w", parent, _lines(PARENT_WALL),
                           ab_pairs.summarize(METRICS, parent, _lines(PARENT_WALL)))


def test_a_worse_metric_with_overlapping_quartiles_is_unresolved(ab_pairs):
    row = _rows(ab_pairs, [w + 0.02 for w in PARENT_WALL])["wall_s"]
    assert row["unresolved"] and not row["beyond_bound"] and row["losses"] == 10
    assert ab_pairs.verdict(row) == "worse within bound, unresolved (quartile ranges overlap)"
    far = _rows(ab_pairs, [w + 0.2 for w in PARENT_WALL])["wall_s"]
    assert not far["unresolved"] and not far["beyond_bound"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved(ab_pairs):
    wide = [1.0 + 0.1 * i for i in range(10)]  # IQR 0.55, 38% of the median 1.45

    def row(change_walls):
        return ab_pairs.summarize(METRICS, _lines(wide), _lines(change_walls))[0]

    better = row([w - 0.01 for w in wide])  # wins every pair, but by less than the spread
    assert better["spread"] == pytest.approx(0.55 / 1.45)
    assert better["wins"] == 10 and better["unresolved"] and not better["claim_met"]
    assert ab_pairs.verdict(better) == \
        "better, claim rule not met, unresolved (parent IQR wider than the bound)"
    assert ab_pairs.verdict(row(wide)) == \
        "no change, unresolved (parent IQR wider than the bound)"
    apart = row([w / 2 for w in wide])  # every change run beats every parent run
    assert not apart["unresolved"] and apart["claim_met"]


def test_a_run_not_correct_or_failed_fails_the_report(ab_pairs, capsys):
    parent = _lines(PARENT_WALL)
    for change in (_lines(PARENT_WALL, correct=False), _lines(PARENT_WALL, failed=1)):
        assert not ab_pairs.report("w", parent, change,
                                   ab_pairs.summarize(METRICS, parent, change))


def test_unpaired_runs_are_refused(ab_pairs):
    with pytest.raises(ValueError, match="paired"):
        ab_pairs.summarize(METRICS, _lines(PARENT_WALL), _lines(PARENT_WALL[:9]))


def test_all_workloads_run_in_turn_and_any_flag_fails(ab_pairs, monkeypatch, tmp_path,
                                                      capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 5, "end_to_end": METRICS,
        "workloads": [{"name": "first"}, {"name": "second"}]}))
    calls, walls = [], {}

    def run_once(checkout, workload, seed, seconds):  # pair i's canned result line
        calls.append((checkout.name, workload, seed, seconds))
        i = sum(c[:2] == (checkout.name, workload) for c in calls) - 1
        return _lines([walls[checkout.name][workload][i]])[0]

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "all", "--seed", "19", "--pairs", "10"]
    slower = [w * 1.3 for w in PARENT_WALL]  # 30% worse against a bound of 25%
    for second, status in ((PARENT_WALL, 0), (slower, 1)):
        calls.clear()
        walls.update(parent={"first": PARENT_WALL, "second": PARENT_WALL},
                     change={"first": PARENT_WALL, "second": second})
        assert ab_pairs.main(argv) == status
        assert [c[1] for c in calls] == ["first"] * 20 + ["second"] * 20
        assert {(c[2], c[3]) for c in calls} == {(19, 5)}
        assert [c[0] for c in calls[:4]] == ["parent", "change", "change", "parent"]
        out = capsys.readouterr().out
        for workload in ("first", "second"):  # one table per workload
            assert f"{workload} parent: 10/10 invocations correct" in out
        assert ("WORSE BEYOND THE 25% BOUND" in out) == bool(status)
