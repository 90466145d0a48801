import json
import re

import pytest

from pfconv import report
from pfconv.cli import cli_dispatch
from pfconv.cox import ObservationSeries


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert cli_dispatch([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert cli_dispatch(["simulate", "--steps", "3", "--seed", "1",
                         "--out", "x.csv", "--frobnicate"]) == 1


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code = cli_dispatch(["filter", "--observations", str(tmp_path / "nope.csv"),
                         "--seed", "1", "--n", "16",
                         "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_empty_observation_file_is_runtime_error_naming_it(tmp_path, capsys):
    # a header with no rows used to fail converge on an empty max(), let
    # grid write a header-only table and filter name no file
    obs = tmp_path / "empty.csv"
    for text, message in (("", f"error: {obs}, line 1"),
                          ("t,y\n", f"error: {obs}: no observations after the header t,y\n")):
        obs.write_text(text)
        for argv in (["filter", "--seed", "1", "--n", "16",
                      "--out", str(tmp_path / "est.csv")],
                     ["grid", "--out", str(tmp_path / "g.csv")],
                     ["converge", "--replicates", "2", "--particle-counts", "8,16,32"]):
            assert cli_dispatch(argv + ["--observations", str(obs)]) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "est.csv").exists() and not (tmp_path / "g.csv").exists()


def test_simulate_writes_observation_csv(tmp_path, capsys):
    out = tmp_path / "obs.csv"
    states = tmp_path / "states.csv"
    code = cli_dispatch(["simulate", "--c", "0.5", "--eta", "0.1", "--steps", "12",
                         "--seed", "7", "--out", str(out),
                         "--states-out", str(states)])
    assert code == 0
    series = ObservationSeries.from_csv(out)
    assert len(series) == 12
    assert states.read_text().splitlines()[0] == "t,x"
    assert len(states.read_text().splitlines()) == 14  # header + x_0..x_12


def test_filter_writes_estimates_and_histogram(tmp_path, fixture_obs_path):
    out = tmp_path / "est.csv"
    svg = tmp_path / "hist.svg"
    code = cli_dispatch(["filter", "--observations", str(fixture_obs_path),
                         "--n", "400", "--seed", "3", "--phi", "exp_neg,one",
                         "--out", str(out), "--svg", str(svg),
                         "--dx", "0.05", "--x-max", "12"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("t,estimate_exp_neg,estimate_one,resampled_estimate_exp_neg,"
                        "resampled_estimate_one,ess,log_mean_weight")
    assert len(lines) == 13
    assert svg.read_text().startswith("<svg")


def test_grid_writes_per_step_csv(tmp_path, fixture_obs_path):
    out = tmp_path / "grid.csv"
    dens = tmp_path / "dens.csv"
    code = cli_dispatch(["grid", "--observations", str(fixture_obs_path),
                         "--dx", "0.05", "--x-max", "12", "--out", str(out),
                         "--density-out", str(dens)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,estimate_phi,grid_mean,grid_var"
    assert len(lines) == 13
    assert dens.read_text().splitlines()[0] == "t,x,density"


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--steps", "3", "--seed", "1", "--out", "{obs}"], "--out"),
    (["simulate", "--steps", "3", "--seed", "1", "--out", "{obs}"], "--states-out"),
    (["filter", "--observations", "{fixture}", "--n", "16", "--seed", "1"], "--out"),
    (["filter", "--observations", "{fixture}", "--n", "16", "--seed", "1",
      "--out", "{obs}", "--dx", "0.05", "--x-max", "12"], "--svg"),
    (["grid", "--observations", "{fixture}", "--dx", "0.05", "--x-max", "12"], "--out"),
    (["grid", "--observations", "{fixture}", "--dx", "0.05", "--x-max", "12",
      "--out", "{obs}"], "--density-out"),
    (["moments", "--level", "4"], "--json"),
], ids=["simulate-out", "simulate-states-out", "filter-out", "filter-svg", "grid-out",
        "grid-density-out", "moments-json"])
def test_every_output_flag_creates_missing_parent_directories(tmp_path, fixture_obs_path,
                                                              argv, flag):
    target = tmp_path / "new" / "dir" / "x.out"
    argv = [a.format(obs=tmp_path / "obs.csv", fixture=fixture_obs_path) for a in argv]
    assert cli_dispatch(argv + [flag, str(target)]) == 0
    assert target.stat().st_size > 0


def test_histogram_overlay_scales_its_y_axis_to_what_it_draws(tmp_path, fixture_obs_path):
    # the grid density peaks below x = 3, outside the drawn range
    svg = tmp_path / "hist.svg"
    assert cli_dispatch(["filter", "--observations", str(fixture_obs_path), "--n", "2000",
                         "--seed", "7", "--out", str(tmp_path / "est.csv"), "--svg", str(svg),
                         "--hist-min", "3", "--hist-max", "6"]) == 0
    text = svg.read_text()
    bar_tops = [float(y) for y in re.findall(r'<rect x="[^"]*" y="([^"]*)"', text)]
    points = re.search(r'<polyline[^>]* points="([^"]*)"', text).group(1).split()
    line_tops = [float(p.split(",")[1]) for p in points]
    height, bottom = report._H - 2 * report._MARGIN, report._H - report._MARGIN
    assert (bottom - min(bar_tops + line_tops)) / height >= 0.8


def test_moments_table_and_json(tmp_path, capsys):
    out = tmp_path / "verdicts.json"
    code = cli_dispatch(["moments", "--p", "2,4", "--alpha", "1.5,1.25",
                         "--beta", "0.5", "--level", "8", "--json", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "status" in table and "satisfied" in table
    data = json.loads(out.read_text())
    rows = {(r["p"], r["alpha"]): r for r in data["rows"]}
    assert rows[(2, 1.5)]["status"] == "satisfied"
    assert rows[(4, 1.5)]["status"] == "divergent_singularity"
    assert rows[(4, 1.5)]["bound"] is None
    assert rows[(4, 1.25)]["status"] == "satisfied"


def test_moments_tail_divergent_row_skips_quadrature(tmp_path):
    out = tmp_path / "verdicts.json"
    code = cli_dispatch(["moments", "--p", "4", "--alpha", "1.1", "--beta", "0.9",
                         "--json", str(out)])
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["status"] == "divergent_tail"
    assert row["quadrature_estimate"] is None


def test_filter_bootstrap_proposal(tmp_path, fixture_obs_path):
    out = tmp_path / "boot.csv"
    code = cli_dispatch(["filter", "--observations", str(fixture_obs_path),
                         "--proposal", "bootstrap", "--n", "200", "--seed", "2",
                         "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 13


def test_filter_estimates_track_the_grid(tmp_path, fixture_obs_path):
    # end-to-end numeric agreement between the two CLI pipelines
    out_f = tmp_path / "f.csv"
    out_g = tmp_path / "g.csv"
    assert cli_dispatch(["filter", "--observations", str(fixture_obs_path),
                         "--n", "4000", "--seed", "9", "--out", str(out_f)]) == 0
    assert cli_dispatch(["grid", "--observations", str(fixture_obs_path),
                         "--dx", "0.01", "--x-max", "15", "--out", str(out_g)]) == 0
    filt = {row.split(",")[0]: float(row.split(",")[1])
            for row in out_f.read_text().splitlines()[1:]}
    grid = {row.split(",")[0]: float(row.split(",")[1])
            for row in out_g.read_text().splitlines()[1:]}
    assert filt.keys() == grid.keys()
    for t in filt:
        assert abs(filt[t] - grid[t]) < 0.05  # ~5 Monte Carlo sigma at N=4000


def test_check_resampler_passes(capsys):
    for scheme in ("multinomial", "stratified", "systematic"):
        assert cli_dispatch(["check-resampler", "--resampler", scheme,
                             "--n", "32", "--trials", "300", "--seed", "1"]) == 0


def test_check_resampler_rejects_empty_runs(capsys):
    for flag, other in (("--n", "--trials"), ("--trials", "--n")):
        assert cli_dispatch(["check-resampler", "--resampler", "multinomial",
                             flag, "0", other, "8"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be >= 1, got 0\n"


def test_converge_with_config_and_overrides(tmp_path, fixture_obs_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"""
[study]
observations = {fixture_obs_path}
particle_counts = 8, 16, 32
replicates = 4
test_functions = exp_neg
master_seed = 5

[oracle]
dx = 0.05
x_max = 12.0
""")
    out_csv = tmp_path / "r.csv"
    out_json = tmp_path / "r.json"
    out_svg = tmp_path / "r.svg"
    code = cli_dispatch(["converge", "--config", str(cfg), "--replicates", "3",
                         "--csv", str(out_csv), "--json", str(out_json),
                         "--svg", str(out_svg), "--workers", "1"])
    assert code == 0
    assert out_csv.exists() and out_svg.exists()
    data = json.loads(out_json.read_text())
    assert data["config"]["replicates"] == 3  # flag overrode the file
    assert "slope[" in capsys.readouterr().out


def test_converge_rejects_invalid_study_parameters(tmp_path, fixture_obs_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"""
[study]
observations = {fixture_obs_path}
particle_counts = 8, 16, 32
replicates = 2

[oracle]
dx = 0.05
x_max = 12.0
""")
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    for flag, value in (("--alpha", "-1"), ("--beta", "0"), ("--master-seed", "-3")):
        code = cli_dispatch(["converge", "--config", str(cfg), flag, value,
                             "--csv", str(out_csv), "--json", str(out_json),
                             "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 2, flag
        assert "aborted" not in err and "error:" in err, err
        assert not out_csv.exists() and not out_json.exists(), flag


def test_converge_requires_config_or_observations(capsys):
    assert cli_dispatch(["converge"]) == 1


def test_converge_needs_three_particle_counts(tmp_path, fixture_obs_path, capsys):
    out_json = tmp_path / "r.json"
    code = cli_dispatch(["converge", "--observations", str(fixture_obs_path),
                         "--particle-counts", "8,16", "--replicates", "2", "--dx", "0.05",
                         "--x-max", "12", "--json", str(out_json), "--workers", "1"])
    assert code == 2
    assert "--particle-counts" in capsys.readouterr().err
    assert not out_json.exists()


def test_workers_below_one_are_runtime_errors(tmp_path, fixture_obs_path, capsys,
                                              monkeypatch):
    out_json, out_csv = tmp_path / "r.json", tmp_path / "est.csv"
    argv = ["converge", "--observations", str(fixture_obs_path),
            "--particle-counts", "8,16,32", "--replicates", "2", "--dx", "0.05",
            "--x-max", "12", "--json", str(out_json)]
    monkeypatch.delenv("PFCONV_WORKERS", raising=False)
    for workers in ("0", "-3"):
        assert cli_dispatch(argv + ["--workers", workers]) == 2
        err = capsys.readouterr().err
        assert f"--workers must be at least 1, got {workers}" in err
    monkeypatch.setenv("PFCONV_WORKERS", "0")
    for command in (argv, ["filter", "--observations", str(fixture_obs_path), "--n", "16",
                           "--seed", "1", "--out", str(out_csv)]):
        assert cli_dispatch(command) == 2
        assert "PFCONV_WORKERS must be at least 1, got '0'" in capsys.readouterr().err
    assert not out_json.exists() and not out_csv.exists()


def test_negative_seed_is_runtime_error_naming_the_seed(tmp_path, fixture_obs_path, capsys):
    for argv, seed in (
            (["filter", "--observations", str(fixture_obs_path), "--n", "16",
              "--seed", "-1", "--out", str(tmp_path / "est.csv")], "-1"),
            (["simulate", "--steps", "3", "--seed", "-2",
              "--out", str(tmp_path / "obs.csv")], "-2")):
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "seed" in err and f"got {seed}" in err


def test_grid_spacing_must_lie_inside_the_grid(tmp_path, fixture_obs_path, capsys):
    grid = ["grid", "--observations", str(fixture_obs_path), "--out", str(tmp_path / "g.csv")]
    filt = ["filter", "--observations", str(fixture_obs_path), "--n", "16", "--seed", "1",
            "--out", str(tmp_path / "est.csv"), "--svg", str(tmp_path / "hist.svg")]
    for argv in (grid, filt):
        for dx, x_max in (("0", "15"), ("-1", "15"), ("15", "15"), ("nan", "15"),
                          ("0.005", "inf")):
            assert cli_dispatch(argv + ["--dx", dx, "--x-max", x_max]) == 2
            assert "--dx" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()  # rejected before filtering


def test_grid_spacing_must_leave_ten_cells(tmp_path, fixture_obs_path, capsys):
    # --x-max 15 / --dx 2 rounds to 8 cells
    out_json = tmp_path / "r.json"
    for argv in (["converge", "--particle-counts", "8,16,32", "--replicates", "2",
                  "--json", str(out_json), "--workers", "1"],
                 ["grid", "--out", str(tmp_path / "g.csv")]):
        assert cli_dispatch(argv + ["--observations", str(fixture_obs_path),
                                    "--dx", "2", "--x-max", "15"]) == 2
        err = capsys.readouterr().err
        assert "--dx" in err and "--x-max" in err and "8 cells" in err
    assert not out_json.exists() and not (tmp_path / "g.csv").exists()


def test_histogram_flags_are_checked_before_filtering(tmp_path, fixture_obs_path, capsys):
    filt = ["filter", "--observations", str(fixture_obs_path), "--n", "16", "--seed", "1",
            "--out", str(tmp_path / "est.csv"), "--svg", str(tmp_path / "hist.svg")]
    for flags, named in ((["--hist-step", "99"], "--hist-step"),
                         (["--hist-step", "0"], "--hist-step"),
                         (["--hist-bins", "0"], "--hist-bins"),
                         (["--hist-min", "6", "--hist-max", "6"], "--hist-min"),
                         (["--hist-min", "nan"], "--hist-min")):
        assert cli_dispatch(filt + flags) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_unknown_test_function_message_lists_the_registry(tmp_path, fixture_obs_path, capsys):
    for argv in (["grid", "--phi", "bogus", "--out", str(tmp_path / "g.csv")],
                 ["converge", "--test-functions", "exp_neg,bogus", "--workers", "1"]):
        assert cli_dispatch(argv + ["--observations", str(fixture_obs_path)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown test function 'bogus'; choose from "
            "['exp_neg', 'one', 'indicator_leq(a)', 'min_cap(a)']\n")


def test_converge_flags_keep_names_order_and_choices(capsys):
    assert cli_dispatch(["converge", "--help"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^  (--[a-z-]+)", out, re.M) == [
        "--config", "--observations", "--c", "--eta", "--proposal", "--alpha", "--beta",
        "--particle-counts", "--replicates", "--test-functions", "--moments", "--resampler",
        "--master-seed", "--dx", "--x-max", "--csv", "--json", "--svg", "--workers"]
    assert "--proposal {gamma,bootstrap}" in out
    assert "--resampler {multinomial,stratified,systematic}" in out
    for bad in (["--proposal", "optimal"], ["--resampler", "residual"]):
        assert cli_dispatch(["converge", "--observations", "obs.csv"] + bad) == 1


def test_infinite_model_parameters_are_runtime_errors_naming_them(tmp_path, fixture_obs_path,
                                                                 capsys):
    # each used to run: moments printed a `satisfied` verdict with bound 0.0
    # and exited 0; grid and filter failed on a lost grid or zero weights
    out = tmp_path / "out.csv"
    obs = ["--observations", str(fixture_obs_path), "--out", str(out)]
    for argv, name in ((["moments", "--eta", "inf"], "eta"),
                       (["grid", "--eta", "inf"] + obs, "eta"),
                       (["grid", "--c", "inf"] + obs, "c"),
                       (["filter", "--eta", "inf", "--n", "64", "--seed", "1"] + obs, "eta")):
        assert cli_dispatch(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {name} must be finite and positive, got inf\n"
        assert "satisfied" not in captured.out
        assert not out.exists(), argv


@pytest.mark.parametrize("x_prev, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
def test_moments_x_prev_must_be_finite_and_nonnegative(x_prev, shown, capsys):
    # nan failed in the weights with a numpy warning, inf printed a zero
    # quadrature estimate and exited 0, and -1 did not name the flag
    assert cli_dispatch(["moments", "--x-prev", x_prev]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --x-prev must be finite and nonnegative, got {shown}\n"
    assert captured.out == ""


def test_repeated_test_function_is_runtime_error_naming_it(tmp_path, fixture_obs_path,
                                                           capsys):
    # filter used to write duplicate columns, and converge ran every cell
    # before it failed on mismatched shapes
    out = tmp_path / "est.csv"
    for argv, name in ((["filter", "--phi", "exp_neg,exp_neg", "--n", "64", "--seed", "1",
                         "--out", str(out)], "exp_neg"),
                       (["converge", "--test-functions", "min_cap(2),min_cap(2.0)",
                         "--workers", "1"], "min_cap(2)")):
        assert cli_dispatch(argv + ["--observations", str(fixture_obs_path)]) == 2, argv
        assert capsys.readouterr().err == f"error: test function {name} is given more than once\n"
        assert not out.exists()


def test_unbounded_test_function_is_runtime_error(tmp_path, fixture_obs_path, capsys):
    # min_cap(1e999) is min_cap(inf), the identity: not a bounded test function
    out = tmp_path / "est.csv"
    obs = ["--observations", str(fixture_obs_path)]
    for argv in (["filter", "--phi", "min_cap(1e999)", "--n", "64", "--seed", "1",
                  "--out", str(out)],
                 ["converge", "--test-functions", "min_cap(1e999)", "--workers", "1"]):
        assert cli_dispatch(argv + obs) == 2, argv
        assert capsys.readouterr().err == "error: min_cap must be finite and positive, got inf\n"
        assert not out.exists()
