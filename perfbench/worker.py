"""One measured run of one workload, in a fresh interpreter.

Invoked by `run.py`; prints one JSON object as its last stdout line:
set-up time, wall and CPU time of the timed calls, peak RSS, the work
done (particle-steps), the outcome of the output checks and, with
`--trace 1`, the per-layer trace.  Set-up (importing `pfconv`, parsing
the config, loading the fixture) runs before the timed region; the
output checks, including any reference oracle they need, run after it.

A fresh interpreter per measured run keeps module-level state, such as
the grid oracle's run cache, from carrying over between runs: every
measured run pays what a `pfconv` invocation pays.  The cache-hit guard
fails a run in which that cache serves a hit inside the timed region.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import pfconv  # noqa: E402
from pfconv import convergence, engine, gridfilter, report, resampling  # noqa: E402
from pfconv.configfile import load_config  # noqa: E402
from pfconv.cox import CoxParams, GammaProposal, ObservationSeries, \
    make_cox_model, make_gamma_proposal, simulate  # noqa: E402
from pfconv.model import make_test_function  # noqa: E402

import tracing  # noqa: E402

DEFAULT_SEED = 7  # the seed that reproduces the committed artifacts
REL_TOL = 1e-9  # committed-reference comparisons (today they agree exactly)
SLOPE_BAND = (-1.35, -0.70)  # t=11, p=2 mean-square slope, as the acceptance gate
LARGE_N_BOUND = 0.025  # |particle - grid| per step at N=262144 (worst rms 0.0033)
GRID_DELTA_BOUND = 1e-4  # 3000- vs 6000-cell oracle, per step
PARAMS = CoxParams(0.5, 0.1)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _mismatches(got, want, path="") -> list[str]:
    """Paths where two JSON values differ beyond REL_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys differ"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        return [] if _close(float(got), float(want)) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


class Study:
    """A convergence study as `pfconv converge` runs it, reports included."""

    def __init__(self, seed: int, scratch: str, small: bool):
        config = load_config(os.path.join("configs", "acceptance_mse.cfg"))
        changes = {"master_seed": seed}
        for fmt in ("csv", "json", "svg"):
            changes[f"out_{fmt}"] = os.path.join(scratch, f"report.{fmt}")
        if small:
            changes.update(particle_counts=(32, 64, 128, 256), replicates=400,
                           grid_dx=0.02)
        self.config = dataclasses.replace(config, **changes)
        self.obs = ObservationSeries.from_csv(self.config.observations)
        self.workers = nproc() if small else 1
        self.reference = None
        if seed == DEFAULT_SEED and not small:
            with open(os.path.join(REFERENCE, "mse_report.json")) as fh:
                self.reference = json.load(fh)
        self.points = (sum(self.config.particle_counts) * self.config.replicates
                       * len(self.obs))
        self.estimates_finite: list[bool] = []

    def hook(self, hooks: tracing.Hooks) -> None:
        """Capture whether every replicate estimate is finite (the report
        tables alone would hide NaN estimates, which they average out)."""
        def make(fn):
            def aggregate(est, *args, **kwargs):
                self.estimates_finite.append(bool(np.all(np.isfinite(est))))
                return fn(est, *args, **kwargs)
            return aggregate
        hooks.patch(convergence, "_aggregate", make)

    def run(self):
        result = convergence.run_convergence_study(self.config, workers=self.workers)
        for fmt in ("csv", "json", "svg"):
            report.emit_report(result, fmt, getattr(self.config, f"out_{fmt}"))
        return result

    def check(self, result) -> list[str]:
        with open(self.config.out_json) as fh:
            emitted = json.load(fh)
        failures = []
        if not self.estimates_finite:
            for stage in emitted["tables"].values():
                for table in stage.values():
                    if not np.all(np.isfinite(np.array(table["mse"], dtype=float))):
                        failures.append("non-finite error moments in the report")
        elif not all(self.estimates_finite):
            failures.append("non-finite replicate estimates")
        fit = next((f for f in emitted["rate_fits"]
                    if (f["stage"], f["phi"], f["t"], f["moment"])
                    == ("normalized", "exp_neg", 11, 2)), None)
        if fit is None or not SLOPE_BAND[0] < fit["slope"] < SLOPE_BAND[1]:
            failures.append(f"t=11 p=2 slope {fit and fit['slope']!r} outside {SLOPE_BAND}")
        if self.reference is not None:
            for key in ("steps", "truth", "oracle_check", "tables", "rate_fits"):
                diff = _mismatches(emitted[key], self.reference[key], key)
                failures.extend(diff[:3])
        return failures


class FilterLargeN:
    """One systematic-resampling filter run with N = 262,144."""

    N = 262_144

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.obs = ObservationSeries.from_csv(os.path.join(REFERENCE, "obs_t50.csv"))
        self.model = make_cox_model(PARAMS)
        self.proposal = make_gamma_proposal(GammaProposal(1.5, 0.5))
        self.phis = [make_test_function("exp_neg")]
        self.workers = 1
        self.points = self.N * len(self.obs)

    def hook(self, hooks: tracing.Hooks) -> None:
        pass

    def run(self):
        return engine.run_filter(self.model, self.proposal, self.obs, self.N,
                                 resampling.get_scheme("systematic"), self.seed,
                                 self.phis)

    def check(self, run) -> list[str]:
        oracle = gridfilter.run_cox_grid_filter(PARAMS, self.obs, 15.0, 3000, self.phis)
        got = run.estimate_trace("exp_neg")
        want = np.array(oracle.estimates["exp_neg"])
        err = float(np.max(np.abs(got - want)))
        print(f"check: max |particle - grid| = {err:.3g} (bound {LARGE_N_BOUND})")
        if not np.all(np.isfinite(got)) or not err <= LARGE_N_BOUND:
            return [f"max |particle - grid| = {err!r} > {LARGE_N_BOUND}"]
        return []


class OracleGrid:
    """The grid oracle at 3000 cells and at its halved-dx self-check."""

    def __init__(self, seed: int, scratch: str):
        if seed == DEFAULT_SEED:
            self.obs = ObservationSeries.from_csv(os.path.join(REFERENCE, "obs_t50.csv"))
        else:
            self.obs = simulate(PARAMS, 50, seed)[1]
        self.seed = seed
        self.phis = [make_test_function("exp_neg")]
        self.workers = 1
        self.points = (3000 + 6000) * len(self.obs)

    def hook(self, hooks: tracing.Hooks) -> None:
        pass

    def run(self):
        return tuple(gridfilter.run_cox_grid_filter(PARAMS, self.obs, 15.0, n, self.phis)
                     for n in (3000, 6000))

    def check(self, runs) -> list[str]:
        coarse, fine = runs
        got = np.array(coarse.estimates["exp_neg"])
        delta = float(np.max(np.abs(got - np.array(fine.estimates["exp_neg"]))))
        print(f"check: max |3000 - 6000 cells| = {delta:.3g} (bound {GRID_DELTA_BOUND})")
        failures = []
        if not np.all(np.isfinite(got)) or not delta <= GRID_DELTA_BOUND:
            failures.append(f"coarse-vs-fine delta {delta!r} > {GRID_DELTA_BOUND}")
        if self.seed == DEFAULT_SEED:
            with open(os.path.join(REFERENCE, "grid_t50.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row, est, mean, var in zip(rows, got, coarse.means, coarse.variances):
                want = (float(row["estimate_phi"]), float(row["grid_mean"]),
                        float(row["grid_var"]))
                if not all(map(_close, (est, mean, var), want)):
                    failures.append(f"t={row['t']}: {(est, mean, var)} != {want}")
            if len(rows) != len(got):
                failures.append(f"{len(got)} steps, reference has {len(rows)}")
        return failures


WORKLOADS = {
    "study_mse": lambda seed, scratch: Study(seed, scratch, small=False),
    "study_small_n": lambda seed, scratch: Study(seed, scratch, small=True),
    "filter_large_n": FilterLargeN,
    "oracle_grid": OracleGrid,
}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "blas_threads": blas_threads(), "cpu": cpu, "seed": seed}


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def cpu_seconds(before, after) -> float:
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not os.path.abspath(pfconv.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"pfconv imported from {pfconv.__file__}, not from {ROOT}/src")

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    trace = tracing.Trace(spool_dir=args.scratch)
    hooks = tracing.Hooks()
    if args.trace:
        tracing.install(trace, hooks)
    else:
        tracing.install_guard(trace, hooks, timed=False)
    workload.hook(hooks)

    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        hooks.uninstall()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    error = None
    try:
        output = workload.run()
    except Exception as err:  # a failed operation is counted, not fatal
        output, error = None, f"{type(err).__name__}: {err}"
    wall_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    hooks.uninstall()

    if error:
        failures = [error]
    else:
        try:
            failures = workload.check(output)
        except Exception as err:  # a check that cannot read the output fails
            failures = [f"output check raised {type(err).__name__}: {err}"]
    if trace.counts["gridfilter.cache_hits"]:
        failures.append("grid oracle cache served a hit inside the timed region")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_seconds(self0, self1) + cpu_seconds(children0, children1),
        "peak_rss_mb": max(self1.ru_maxrss, children1.ru_maxrss) / 1024.0,
        "points": workload.points,
        "failures": failures,
        "env": environment(args.seed),
    }
    if args.trace:
        trace.merge_spool()
        result["layers"] = tracing.per_layer(trace, workload.workers)
        missing = [f"{name} (not found)" for name in hooks.missing]
        expected = len(workload.config.particle_counts) * workload.config.replicates \
            if isinstance(workload, Study) and workload.workers > 1 else 0
        if trace.worker_cells < expected:
            missing.append(f"pool-worker spans of {expected - trace.worker_cells} "
                           f"of {expected} cells (engine.*, cox.*, resampling.*, "
                           f"particles.*, rng.*, convergence.cell_ms.*)")
        result["missing"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
