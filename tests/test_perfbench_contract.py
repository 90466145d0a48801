"""The benchmark under perfbench/ imports and patches package names.

A program change that removes or renames one of them makes every
benchmark run fail; these tests make tier-1 fail first.  They load the
benchmark's worker module as `perfbench/run.py` does (perfbench/ on
sys.path, the repository root as working directory), install and remove
the per-layer tracer, and build every workload without running it.
"""

import importlib.util
import pathlib
import sys

import pytest

from pfconv import convergence, cox, engine, gridfilter, report, resampling, rng

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = REPO_ROOT / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # sys.path is restored afterwards
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("tracing", "perfbench_worker"):
        sys.modules.pop(name, None)


def _patchable() -> dict:
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    owners = {m.__name__: vars(m)
              for m in (convergence, cox, engine, gridfilter, report, resampling)}
    owners.update(SCHEMES=resampling.SCHEMES, RngStream=vars(rng.RngStream))
    return {(owner, k): v for owner, attrs in owners.items() for k, v in attrs.items()}


def test_tracer_installs_and_uninstalls(worker, tmp_path):
    tracing = worker.tracing
    before = _patchable()
    run_filter = engine.run_filter
    hooks = tracing.Hooks()
    try:
        tracing.install(tracing.Trace(spool_dir=str(tmp_path)), hooks)
    finally:
        hooks.uninstall()
    assert engine.run_filter is run_filter
    after = _patchable()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", ["study_mse", "study_small_n", "filter_large_n",
                                  "oracle_grid"])
def test_workload_builds(worker, tmp_path, name):
    workload = worker.WORKLOADS[name](7, str(tmp_path))
    hooks = worker.tracing.Hooks()
    try:
        workload.hook(hooks)
    finally:
        hooks.uninstall()
    assert not hooks.missing
