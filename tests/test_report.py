import json

import numpy as np
import pytest

from pfconv import ExperimentConfig
from pfconv.convergence import ConvergenceReport
from pfconv.errors import DomainError
from pfconv.report import emit_report, histogram_svg_text, rate_svg_text, \
    report_csv_text


def _tiny_report(steps=(1, 2), ns=(8, 16, 32)):
    config = ExperimentConfig(observations="obs.csv", particle_counts=ns,
                              replicates=2, test_functions=("exp_neg",))
    t_len = len(steps)
    tab = {
        "mse": [[1.0 / n] * t_len for n in ns],
        "mse_stderr": [[0.1 / n] * t_len for n in ns],
        "l4": [[1.0 / n ** 2] * t_len for n in ns],
        "l4_stderr": [[0.1 / n ** 2] * t_len for n in ns],
    }
    tables = {"normalized": {"exp_neg": tab}, "resampled": {"exp_neg": tab}}
    fits = ({"stage": "normalized", "phi": "exp_neg", "t": "mean", "moment": 2,
             "slope": -1.0, "intercept": 0.0, "r_squared": 1.0},)
    return ConvergenceReport(config=config, steps=tuple(steps),
                             truth={"exp_neg": tuple(0.5 for _ in steps)},
                             oracle_check={"dx": 0.005, "x_max": 15.0,
                                           "fine_dx": 0.0025, "max_abs_delta": 1e-6},
                             tables=tables, rate_fits=fits)


def test_csv_layout():
    text = report_csv_text(_tiny_report())
    lines = text.splitlines()
    assert lines[0] == "phi,N,t,mse,mse_stderr,l4,l4_stderr"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].startswith("exp_neg,8,1,0.125,")


def test_csv_empty_steps_is_header_only():
    report = _tiny_report(steps=())
    text = report_csv_text(report)
    assert text == "phi,N,t,mse,mse_stderr,l4,l4_stderr\n"


def test_json_roundtrip(tmp_path):
    report = _tiny_report()
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    parsed = json.loads(path.read_text())
    assert parsed == report.to_dict()
    assert parsed["schema_version"] == 1


def test_svg_structure(tmp_path):
    report = _tiny_report()
    text = rate_svg_text(report)
    # one polyline per (phi, moment) plus the two reference lines
    assert text.count("<polyline") == 1 * 2 + 2
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert "href" not in text  # self-contained
    path = tmp_path / "rates.svg"
    emit_report(report, "svg", path)
    assert path.read_text() == text


def test_histogram_svg_structure():
    edges = np.linspace(0.0, 6.0, 31)
    mass = np.full(30, 1 / 30)
    gx = np.linspace(0.0, 6.0, 200)
    gd = np.exp(-gx)
    text = histogram_svg_text(edges, mass, gx, gd, title="overlay")
    assert text.count("<rect") == 30 + 1  # bins + background
    assert text.count("<polyline") == 1
    assert "overlay" in text


def test_svgs_are_wellformed_xml():
    import xml.etree.ElementTree as ET
    ET.fromstring(rate_svg_text(_tiny_report()))
    edges = np.linspace(0.0, 6.0, 31)
    ET.fromstring(histogram_svg_text(edges, np.full(30, 1 / 30),
                                     np.linspace(0, 6, 50), np.ones(50)))


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(DomainError):
        emit_report(_tiny_report(), "pdf", tmp_path / "x.pdf")
