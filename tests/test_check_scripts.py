"""How the --check modes of scripts/run_acceptance_studies.py and
scripts/make_figure_data.py report a differing file, on canned files."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(monkeypatch, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # make_figure_data imports its sibling
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def acceptance(monkeypatch):
    return _load(monkeypatch, "run_acceptance_studies")


@pytest.fixture
def figures(monkeypatch):
    return _load(monkeypatch, "make_figure_data")


def test_numbers_that_differ_are_counted_with_their_largest_relative_difference(acceptance):
    committed = "t,mse\n1,0.25\n2,1.5e-3\n3,-4\n"
    fresh = "t,mse\n1,0.25000000000000006\n2,1.5e-3\n3,-4.4\n"
    assert acceptance.describe_difference(fresh, committed) == \
        "2 of 6 numbers differ, by at most 0.091 relative"


def test_other_text_is_named_at_its_first_differing_line(acceptance):
    committed = '{"a": 1,\n "verdict": "PASS",\n "b": 2}\n'
    fresh = '{"a": 1,\n "verdict": "FAIL",\n "b": 3}\n'
    assert acceptance.describe_difference(fresh, committed) == (
        "1 of 2 numbers differ, by at most 0.33 relative; other text differs first "
        "at line 2: ' \"verdict\": \"FAIL\",', committed ' \"verdict\": \"PASS\",'")


def test_added_numbers_and_lines_and_signed_zeros(acceptance):
    assert acceptance.describe_difference("1\n2\n", "1\n") == \
        "2 numbers against 1 committed; other text differs first at line 2: '#', committed None"
    assert acceptance.describe_difference("0.0\n", "-0\n") == \
        "1 of 1 numbers differ, by at most 0 relative"
    assert acceptance.describe_difference("a\r\n", "a\n") == \
        "the same numbers and text, other bytes differ"


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_reports_check_compares_every_report_file(acceptance, tmp_path, capsys):
    # the fresh JSON echoes its own directory, which counts as "out"
    fresh, committed = tmp_path / "fresh", tmp_path / "committed"
    for label in ("mse", "l4"):
        _write(committed, {f"{label}/report.csv": "N,mse\n32,0.5\n",
                           f"{label}/report.json": '{"out": "out/x"}\n',
                           f"{label}/report.svg": '<svg width="10"/>\n'})
        _write(fresh, {f"{label}/report.csv": "N,mse\n32,0.5\n",
                       f"{label}/report.json": f'{{"out": "{fresh}/x"}}\n',
                       f"{label}/report.svg": '<svg width="10"/>\n'})
    assert acceptance.compare_reports(fresh, committed) == 0
    assert capsys.readouterr().out == ""
    _write(fresh, {"l4/report.svg": '<svg width="11"/>\n'})
    assert acceptance.compare_reports(fresh, committed) == 1
    assert capsys.readouterr().out == ("differs from the committed file: out/l4/report.svg: "
                                       "1 of 1 numbers differ, by at most 0.091 relative\n")


def test_figures_check_names_missing_and_differing_files(figures, tmp_path, capsys):
    fresh, committed = tmp_path / "fresh", tmp_path / "committed"
    _write(committed, {"grid.csv": "t,mean\n1,0.75\n", "old.csv": "1\n", "same.csv": "2\n"})
    _write(fresh, {"grid.csv": "t,mean\n1,0.7500000000000001\n", "new.csv": "1\n",
                   "same.csv": "2\n"})
    assert figures.compare_figures(fresh, committed) == 3
    assert capsys.readouterr().out.splitlines() == [
        "differs from the committed file: out/figures/grid.csv: "
        "1 of 2 numbers differ, by at most 1.5e-16 relative",
        "differs from the committed file: out/figures/new.csv: no committed file",
        "differs from the committed file: out/figures/old.csv: no fresh file",
    ]
