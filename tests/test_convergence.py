import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

import pfconv.convergence as convergence
from pfconv import CoxParams, RngStream, engine, run_filters
from pfconv import ExperimentConfig, ObservationSeries, fit_loglog_slope, \
    run_convergence_study
from pfconv.cli import build_parser
from pfconv.configfile import KEYS, apply_overrides, flag, load_config
from pfconv.convergence import _aggregate, _rate_fits
from pfconv.cores import WORKERS_ENV
from pfconv.cox import make_cox_model_and_proposal
from pfconv.errors import DomainError, InsufficientPoints, NonPositiveValue, StudyError
from pfconv.model import Proposal, make_test_function
from pfconv.report import emit_report
from pfconv.resampling import SLAB, get_scheme

from conftest import philox_key

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def small_config(fixture_obs_path, **overrides):
    base = dict(
        observations=str(fixture_obs_path),
        particle_counts=(8, 16, 32),
        replicates=4,
        test_functions=("exp_neg",),
        moments=(2, 4),
        resampler="multinomial",
        master_seed=3,
        grid_dx=0.05,
        grid_x_max=12.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_exact_inverse_n():
    fit = fit_loglog_slope([(128, 1 / 128), (512, 1 / 512), (2048, 1 / 2048)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant():
    fit = fit_loglog_slope([(100, 4.0), (400, 4.0), (1600, 4.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_exact_inverse_n_squared():
    fit = fit_loglog_slope([(128, 128.0 ** -2), (512, 512.0 ** -2), (2048, 2048.0 ** -2)])
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_fit_errors():
    with pytest.raises(InsufficientPoints):
        fit_loglog_slope([(128, 1.0), (512, 0.5)])
    with pytest.raises(InsufficientPoints):
        fit_loglog_slope([(128, 1.0), (128, 0.5), (512, 0.25)])
    with pytest.raises(NonPositiveValue):
        fit_loglog_slope([(128, 1.0), (512, 0.0), (2048, 0.25)])


def test_synthetic_error_injection_recovers_reference_slopes():
    # force per-replicate errors of exactly +/- N^(-1/2):
    # mse = 1/N (slope -1), fourth moment = 1/N^2 (slope -2)
    ns = (128, 512, 2048)
    phis = [make_test_function("one")]
    truth = np.zeros((3, 1))  # (T=3 steps, P=1)
    est = np.zeros((len(ns), 4, 3, 1))
    for i, n in enumerate(ns):
        est[i, 0::2] = n ** -0.5
        est[i, 1::2] = -(n ** -0.5)
    tables = {"normalized": _aggregate(est, truth, phis),
              "resampled": _aggregate(est, truth, phis)}
    cfg = ExperimentConfig(observations="unused.csv", particle_counts=ns,
                           replicates=4, test_functions=("one",))
    fits = _rate_fits(cfg, [1, 2, 3], tables)
    by_key = {(f["stage"], f["t"], f["moment"]): f for f in fits}
    assert by_key[("normalized", "mean", 2)]["slope"] == pytest.approx(-1.0, abs=1e-12)
    assert by_key[("normalized", "mean", 4)]["slope"] == pytest.approx(-2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# config validation and files


@pytest.mark.parametrize("bad", [{"c": float("inf")}, {"eta": float("inf")},
                                 {"c": float("nan")}, {"eta": 0.0}])
def test_bad_model_parameter_fails_before_the_oracle_runs(fixture_obs_path, monkeypatch, bad):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(convergence, "run_cox_grid_filter", oracle)
    name = next(iter(bad))
    for config in (small_config(fixture_obs_path, **bad),
                   small_config(fixture_obs_path, proposal="bootstrap", **bad)):
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive"):
            config.validate()
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive"):
            run_convergence_study(config, workers=1)


def test_config_validation(fixture_obs_path):
    small_config(fixture_obs_path).validate()
    with pytest.raises(DomainError):
        small_config(fixture_obs_path, particle_counts=(8, 32, 16)).validate()
    with pytest.raises(DomainError):
        small_config(fixture_obs_path, particle_counts=(1, 8, 16)).validate()
    with pytest.raises(DomainError, match="--particle-counts"):
        small_config(fixture_obs_path, particle_counts=(8, 16)).validate()
    with pytest.raises(DomainError):
        small_config(fixture_obs_path, replicates=1).validate()
    with pytest.raises(DomainError):
        small_config(fixture_obs_path, test_functions=()).validate()
    # estimates are keyed by the resolved name: min_cap(2.0) is min_cap(2)
    for names, message in ((("exp_neg", "exp_neg"), "exp_neg"),
                           (("min_cap(2)", "one", "min_cap(2.0)"), r"min_cap\(2\)")):
        with pytest.raises(DomainError, match=f"^test function {message} is given more "
                                              f"than once$"):
            small_config(fixture_obs_path, test_functions=names).validate()
    with pytest.raises(DomainError):
        small_config(fixture_obs_path, moments=(3,)).validate()
    with pytest.raises(DomainError):
        small_config(fixture_obs_path, resampler="residual").validate()
    with pytest.raises(DomainError):
        small_config(fixture_obs_path, proposal="optimal").validate()
    for bad in ({"alpha": -1.0}, {"alpha": 0.0}, {"beta": 0.0}, {"beta": -0.5},
                {"master_seed": -3}):
        with pytest.raises(DomainError):
            small_config(fixture_obs_path, **bad).validate()
    # the bootstrap proposal ignores alpha and beta
    small_config(fixture_obs_path, proposal="bootstrap", alpha=-1.0).validate()
    for grid in ({"grid_dx": float("nan")}, {"grid_x_max": float("inf")},
                 {"grid_x_max": float("nan")}):
        with pytest.raises(DomainError, match="--dx, --x-max"):
            small_config(fixture_obs_path, **grid).validate()
    with pytest.raises(DomainError, match="--x-max 12.0 / --dx 2.0 gives 6 cells"):
        small_config(fixture_obs_path, grid_dx=2.0).validate()


def test_config_file_roundtrip(tmp_path, fixture_obs_path):
    text = f"""
[model]
c = 0.5
eta = 0.1

[proposal]
kind = gamma
alpha = 1.25
beta = 0.5

[study]
observations = {fixture_obs_path}
particle_counts = 128, 512, 2048
replicates = 50
test_functions = exp_neg, one
moments = 2, 4
resampler = systematic
master_seed = 99

[oracle]
dx = 0.01
x_max = 15.0

[output]
csv = out/a.csv
json = out/100%/a.json
"""
    path = tmp_path / "study.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.alpha == 1.25
    assert cfg.particle_counts == (128, 512, 2048)
    assert cfg.test_functions == ("exp_neg", "one")
    assert cfg.resampler == "systematic"
    assert cfg.master_seed == 99
    assert cfg.out_csv == "out/a.csv" and cfg.out_svg is None
    assert cfg.out_json == "out/100%/a.json"  # values are taken as written

    overridden = apply_overrides(cfg, replicates=10, alpha=None)
    assert overridden.replicates == 10 and overridden.alpha == 1.25


def test_committed_study_configs_parse(fixture_obs_path):
    import pathlib
    root = pathlib.Path(fixture_obs_path).parent.parent
    for name, alpha in (("acceptance_mse.cfg", 1.5), ("acceptance_l4.cfg", 1.25)):
        cfg = load_config(root / "configs" / name)
        cfg.validate()
        assert cfg.alpha == alpha
        assert cfg.particle_counts == (128, 512, 2048, 8192)
        assert cfg.replicates == 200
        assert (root / cfg.observations).exists()


def test_config_file_requires_observations(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nc = 0.5\n")
    with pytest.raises(DomainError):
        load_config(path)
    with pytest.raises(DomainError):
        load_config(tmp_path / "missing.cfg")


def test_config_file_errors_name_file_section_and_key(tmp_path, fixture_obs_path):
    study = f"[study]\nobservations = {fixture_obs_path}\n"
    path = tmp_path / "typo.cfg"
    for text, named in ((study + "replicate = 3\n", "unknown key 'replicate' in [study]"),
                        (study + "[oracel]\ndx = 0.01\n", "unknown section [oracel]"),
                        (study + "[model]\nreplicates = 3\n", "unknown key 'replicates' in [model]"),
                        (study + "replicates = many\n", "[study] replicates: invalid literal"),
                        ("replicates = 3\n", "no section headers")):
        path.write_text(text)
        with pytest.raises(DomainError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: ") and named in str(err.value)


# field -> (its converge flag, a value other than the default)
KEY_SAMPLES = {
    "observations": ("--observations", "other.csv"),
    "c": ("--c", "0.25"),
    "eta": ("--eta", "0.2"),
    "proposal": ("--proposal", "bootstrap"),
    "alpha": ("--alpha", "1.25"),
    "beta": ("--beta", "0.75"),
    "particle_counts": ("--particle-counts", "8, 16"),
    "replicates": ("--replicates", "3"),
    "test_functions": ("--test-functions", "one, min_cap(2)"),
    "moments": ("--moments", "2"),
    "resampler": ("--resampler", "systematic"),
    "master_seed": ("--master-seed", "11"),
    "grid_dx": ("--dx", "0.01"),
    "grid_x_max": ("--x-max", "12.5"),
    "out_csv": ("--csv", "r.csv"),
    "out_json": ("--json", "r.json"),
    "out_svg": ("--svg", "r.svg"),
}


@pytest.mark.parametrize("section, key, field", [row[:3] for row in KEYS],
                         ids=[row[1] for row in KEYS])
def test_config_key_and_converge_flag_parse_alike(tmp_path, section, key, field):
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert [row[2] for row in KEYS] == fields == list(KEY_SAMPLES)
    flag_name, text = KEY_SAMPLES[field]
    assert flag(key) == flag_name
    sections = {"study": {"observations": "obs.csv"}}
    sections.setdefault(section, {})[key] = text
    path = tmp_path / "one.cfg"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                            for name, body in sections.items()))
    from_file = getattr(load_config(path), field)
    from_flag = getattr(build_parser().parse_args(["converge", flag_name, text]), field)
    assert from_file == from_flag != getattr(ExperimentConfig("obs.csv"), field)


# ---------------------------------------------------------------------------
# study runs


@pytest.fixture(scope="module")
def small_report(fixture_obs_path):
    return run_convergence_study(small_config(fixture_obs_path), workers=1)


def test_small_study_shapes(small_report):
    assert small_report.steps == tuple(range(1, 13))
    tab = small_report.tables["normalized"]["exp_neg"]
    assert len(tab["mse"]) == 3 and len(tab["mse"][0]) == 12
    assert not small_report.partial


def test_jensen_inequality(small_report):
    for stage in ("normalized", "resampled"):
        tab = small_report.tables[stage]["exp_neg"]
        mse = np.array(tab["mse"])
        l4 = np.array(tab["l4"])
        assert np.all(l4 >= mse ** 2 * (1 - 1e-12))


def test_report_roundtrip(small_report):
    data = small_report.to_dict()
    assert json.loads(json.dumps(data)) == data


def test_same_seed_reproduces_bytes(tmp_path, fixture_obs_path, small_report):
    rerun = run_convergence_study(small_config(fixture_obs_path), workers=1)
    assert rerun.to_dict() == small_report.to_dict()


def test_worker_count_does_not_change_results(tmp_path, fixture_obs_path, small_report):
    with_pool = run_convergence_study(small_config(fixture_obs_path), workers=3)
    assert with_pool.to_dict() == small_report.to_dict()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(small_report, "csv", a)
    emit_report(with_pool, "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_import_leaves_the_process_pool_unloaded():
    # only a pooled study opens a process pool, so only it pays for
    # importing multiprocessing
    code = ("import sys, pfconv, pfconv.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_oracle_runs_on_the_study_workers_and_echoes_its_spacing(fixture_obs_path,
                                                                  monkeypatch):
    # the oracle runs once per spacing on the study's calling thread, not
    # on its workers; dx 0.049 on [0, 12] rounds to 245 cells, so the
    # grid's spacing is 12 / 245
    seen = []
    oracle = convergence.run_cox_grid_filter

    def recording(params, obs, x_max, n_cells, phis):
        seen.append((n_cells, threading.get_ident()))
        return oracle(params, obs, x_max, n_cells, phis)

    monkeypatch.setattr(convergence, "run_cox_grid_filter", recording)
    report = run_convergence_study(small_config(fixture_obs_path, grid_dx=0.049), workers=2)
    assert seen == [(245, threading.get_ident()), (490, threading.get_ident())]
    assert report.oracle_check["dx"] == 12.0 / 245
    assert report.oracle_check["fine_dx"] == 12.0 / 490


def test_workers_env_cap(monkeypatch):
    import os
    cores = len(os.sched_getaffinity(0))
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert convergence.resolve_workers(None) == 1  # env caps the default
    monkeypatch.setenv(WORKERS_ENV, str(cores + 10))
    assert convergence.resolve_workers(None) == cores  # cap never raises it
    assert convergence.resolve_workers(2) == 2  # explicit argument wins
    monkeypatch.setenv(WORKERS_ENV, "abc")
    with pytest.raises(DomainError, match="PFCONV_WORKERS must be an integer, got 'abc'"):
        convergence.resolve_workers(None)
    monkeypatch.delenv(WORKERS_ENV)
    assert convergence.resolve_workers(None) == cores


def test_workers_below_one_are_rejected(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    for workers in (0, -3):
        with pytest.raises(DomainError, match=f"^--workers must be at least 1, got {workers}$"):
            convergence.resolve_workers(workers)
    for env in ("0", "-2"):
        monkeypatch.setenv(WORKERS_ENV, env)
        with pytest.raises(DomainError, match=f"^PFCONV_WORKERS must be at least 1, got '{env}'$"):
            convergence.resolve_workers(None)


def test_workers_default_counts_the_cpu_affinity_set(monkeypatch):
    # a process pinned to one core (taskset, a cpuset) gets one worker
    # however many cores the machine has
    import os
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert convergence.resolve_workers(None) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert convergence.resolve_workers(None) == 3


def test_study_cell_starts_no_thread(monkeypatch, fixture_obs_path):
    # a study spreads its cells over processes, so even a block large
    # enough for the draw thread runs on the cell's own thread
    import os

    def no_thread(*args, **kwargs):
        raise AssertionError("a study cell started a thread")

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(engine, "DRAW_THREAD_SLABS", 2)
    config = small_config(fixture_obs_path, particle_counts=(8, 16, 2 * SLAB))
    obs_rows = tuple(ObservationSeries.from_csv(fixture_obs_path))
    _, _, est_n, est_r = convergence._study_cell((config, obs_rows, 2, range(1)))
    assert est_n.shape == est_r.shape == (1, len(obs_rows), 1)


def test_study_cell_estimates_equal_the_run_filters_rows(fixture_obs_path):
    # the study and run_filters read the same engine block: replicate r of
    # a cell is the run of stream (master_seed, N-index, r), bit for bit
    config = small_config(fixture_obs_path, test_functions=("exp_neg", "min_cap(2)"))
    obs_rows = tuple(ObservationSeries.from_csv(fixture_obs_path))
    replicates = range(1, 4)
    _, block, est_n, est_r = convergence._study_cell((config, obs_rows, 1, replicates))
    assert block is replicates
    model, proposal = make_cox_model_and_proposal(
        CoxParams(config.c, config.eta), config.proposal, config.alpha, config.beta)
    runs = run_filters(model, proposal, obs_rows, config.particle_counts[1],
                       get_scheme(config.resampler),
                       [RngStream(config.master_seed, (1, r)) for r in replicates],
                       [make_test_function(name) for name in config.test_functions])
    for run, cell_n, cell_r in zip(runs, est_n, est_r, strict=True):
        assert np.array_equal(cell_n, np.column_stack(list(run.estimates.values())))
        assert np.array_equal(cell_r, np.column_stack(list(run.resampled_estimates.values())))


def test_partial_flush_on_failure(tmp_path, fixture_obs_path, monkeypatch):
    out_csv = tmp_path / "partial.csv"
    out_json = tmp_path / "partial.json"
    cfg = small_config(fixture_obs_path, out_csv=str(out_csv), out_json=str(out_json))

    # Replicates 2 and 3 of N=16 (N-index 1) share one block; replicate 3
    # fails first (t=1), but the lower failing replicate 2 (t=5) is reported.

    # the proposal streams (master_seed, N-index, r, t, 0) that fail
    fail_at = {philox_key(RngStream(cfg.master_seed, (n_idx, r, t, 0)).gen)
               for n_idx, r, t in ((1, 2, 5), (1, 3, 1))}
    real_make = convergence.make_cox_model_and_proposal

    def failing_make(*args):
        model, proposal = real_make(*args)

        def propose(x_prev, y, rng):
            if philox_key(rng) in fail_at:
                return np.zeros(len(x_prev))  # zero Gamma density: infinite weights
            return proposal.propose(x_prev, y, rng)

        return model, Proposal(propose, proposal.logdensity)

    monkeypatch.setattr(convergence, "make_cox_model_and_proposal", failing_make)
    with pytest.raises(StudyError, match=r"N=16, replicate=2: filter step t=5, row 2: "):
        run_convergence_study(cfg, workers=1)

    assert out_csv.exists() and out_json.exists()
    flushed = json.loads(out_json.read_text())
    assert flushed["partial"] is True
    # the csv keeps completed cells only: N=8 rows are all present
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "phi,N,t,mse,mse_stderr,l4,l4_stderr"
    # N=8 completed; the failed N=16 block and N=32, never started, are absent
    assert any(line.startswith("exp_neg,8,") for line in lines[1:])
    assert not any(line.startswith("exp_neg,32,") for line in lines[1:])


def test_estimates_stay_bounded(small_report):
    # |estimate - truth| <= sup + |truth| => mse <= (2 sup)^2; crude sanity
    tab = small_report.tables["normalized"]["exp_neg"]
    assert np.all(np.array(tab["mse"]) <= 4.0)
    assert np.all(np.array(tab["mse"]) >= 0.0)
