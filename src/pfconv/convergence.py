"""Convergence-rate experiments against the grid-filter oracle.

A study runs the particle filter at several particle counts N, with M
independent replicates each, measures per-step estimation errors against
the grid filter, and fits log2-log2 slopes of the error moments versus
N.  Mean-square errors should scale like 1/N and fourth-moment errors
like 1/N^2 whenever the weight-moment conditions hold.

Replicate (N, r) always draws from the stream labelled
(master_seed, N-index, r), so results are byte-identical no matter how
many worker processes execute the cells.  A study task runs one block of
replicates at one N as a single batched (M x N) filter, and a row's
draws do not depend on its block; a block holds up to `BLOCK_PARTICLES`
particles.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .cox import PROPOSALS, CoxParams, GammaProposal, ObservationSeries, \
    make_cox_model_and_proposal
from .cores import resolve_workers
from .engine import _run_block
from .errors import DomainError, InsufficientPoints, NonPositiveValue, PfconvError, \
    StudyError
from .gridfilter import grid_cells, run_cox_grid_filter
from .model import make_test_functions
from .report import MOMENT_TABLES, emit_report
from .resampling import SCHEMES, get_scheme
from .rng import RngStream

SCHEMA_VERSION = 1
# Particles per study task (replicates x N): the largest N in the
# committed configs, so no block outgrows the largest single replicate.
BLOCK_PARTICLES = 8192


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one convergence study."""

    observations: str
    c: float = 0.5
    eta: float = 0.1
    proposal: str = "gamma"  # one of cox.PROPOSALS
    alpha: float = 1.5
    beta: float = 0.5
    particle_counts: tuple[int, ...] = (128, 512, 2048, 8192)
    replicates: int = 200
    test_functions: tuple[str, ...] = ("exp_neg",)
    moments: tuple[int, ...] = (2, 4)
    resampler: str = "multinomial"
    master_seed: int = 1
    grid_dx: float = 0.005
    grid_x_max: float = 15.0
    out_csv: str | None = None
    out_json: str | None = None
    out_svg: str | None = None

    def validate(self) -> None:
        if len(self.particle_counts) < 3:  # fit_loglog_slope needs three points
            raise DomainError(f"a rate fit needs at least 3 particle counts "
                              f"(--particle-counts), got {len(self.particle_counts)}")
        if any(n < 2 for n in self.particle_counts):
            raise DomainError("particle counts must all be >= 2")
        if list(self.particle_counts) != sorted(set(self.particle_counts)):
            raise DomainError("particle counts must be strictly increasing")
        if self.replicates < 2:
            raise DomainError("need at least 2 replicates")
        if not self.test_functions:
            raise DomainError("need at least one test function")
        make_test_functions(self.test_functions)
        if not set(self.moments) <= set(MOMENT_TABLES) or not self.moments:
            raise DomainError(f"moments must be a nonempty subset of {set(MOMENT_TABLES)}")
        if self.resampler not in SCHEMES:
            raise DomainError(f"unknown resampler {self.resampler!r}")
        if self.proposal not in PROPOSALS:
            raise DomainError(f"unknown proposal kind {self.proposal!r}")
        CoxParams(self.c, self.eta)  # DomainError unless both are finite and positive
        if self.proposal == "gamma":
            GammaProposal(self.alpha, self.beta)  # likewise
        if self.master_seed < 0:
            raise DomainError("master seed must be >= 0")
        grid_cells(self.grid_x_max, self.grid_dx)

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists (the report's config echo)."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class RateFit:
    """Ordinary least squares on (log2 N, log2 value)."""

    slope: float
    intercept: float
    r_squared: float


def fit_loglog_slope(points) -> RateFit:
    """Fit log2(value) = intercept + slope * log2(N) by OLS.

    Requires at least three points with distinct N and strictly positive
    values.
    """
    points = list(points)
    ns = [float(n) for n, _ in points]
    vals = [float(v) for _, v in points]
    if len(points) < 3 or len(set(ns)) != len(ns):
        raise InsufficientPoints("rate fit needs >= 3 points with distinct N")
    if any(not v > 0 for v in vals):  # rejects zeros, negatives and NaN
        raise NonPositiveValue("rate fit needs strictly positive values")
    x = np.log2(ns)
    y = np.log2(vals)
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return RateFit(slope=slope, intercept=intercept, r_squared=r2)


@dataclass(frozen=True)
class ConvergenceReport:
    """Aggregated study results; `to_dict` is the JSON wire format."""

    config: ExperimentConfig
    steps: tuple[int, ...]
    truth: dict[str, tuple[float, ...]]
    oracle_check: dict
    tables: dict  # stage -> phi -> {"mse": [[t] per N], ...}
    rate_fits: tuple[dict, ...]
    partial: bool = False

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "partial": self.partial,
            "config": self.config.to_dict(),
            "steps": list(self.steps),
            "truth": {k: list(v) for k, v in self.truth.items()},
            "oracle_check": self.oracle_check,
            "tables": self.tables,
            "rate_fits": [dict(f) for f in self.rate_fits],
        }


def _study_cell(args):
    """Run one block of replicates at one N as a single batched filter.

    ``args`` is (config, obs_rows, N-index, replicates), the replicates a
    range; returns the per-step estimates of the block, shape (M, T, P).
    A failing step stops every row of the block, so when the failure
    names row r, rows 0..r-1 are rerun on their own first: a lower
    replicate that fails at a later step is the one reported.  The
    error's ``row`` indexes ``replicates``.  The estimates are views of
    the block's `engine.FilterBlock`; no per-replicate `FilterRun` is
    built.  The block runs on this thread alone: a study spreads its cells
    over processes.
    """
    config, obs_rows, n_idx, replicates = args
    model, proposal = make_cox_model_and_proposal(
        CoxParams(config.c, config.eta), config.proposal, config.alpha, config.beta)
    phis = make_test_functions(config.test_functions)
    streams = [RngStream(config.master_seed, labels=(n_idx, r)) for r in replicates]
    try:
        block = _run_block(model, proposal, obs_rows, config.particle_counts[n_idx],
                           get_scheme(config.resampler), streams, phis, workers=1)
    except PfconvError as err:
        if err.row:
            _study_cell((config, obs_rows, n_idx, replicates[:err.row]))
        raise
    return n_idx, replicates, block.estimates.swapaxes(0, 1), block.resampled.swapaxes(0, 1)


def _oracle_tables(config: ExperimentConfig, obs, phis):
    """Grid-filter truth plus a halved-dx self-consistency check, both
    run in the calling process (see `run_cox_grid_filter`)."""
    n_cells = grid_cells(config.grid_x_max, config.grid_dx)
    coarse = run_cox_grid_filter(CoxParams(config.c, config.eta), obs,
                                 config.grid_x_max, n_cells, phis)
    fine = run_cox_grid_filter(CoxParams(config.c, config.eta), obs,
                               config.grid_x_max, 2 * n_cells, phis)
    delta = max(
        abs(a - b)
        for phi in phis
        for a, b in zip(coarse.estimates[phi.name], fine.estimates[phi.name])
    )
    check = {
        "dx": config.grid_x_max / n_cells,
        "x_max": config.grid_x_max,
        "fine_dx": config.grid_x_max / (2 * n_cells),
        "max_abs_delta": delta,
    }
    return coarse, check


def _aggregate(est: np.ndarray, truth: np.ndarray, phis) -> dict:
    """est has shape (n_N, M, T, P); returns per-phi moment tables."""
    err = est - truth[None, None, :, :]
    m = est.shape[1]
    stats = {}  # table name -> (n_N, T, P), in MOMENT_TABLES' order
    for p, name in MOMENT_TABLES.items():
        ep = err ** p
        stats[name] = np.nanmean(ep, axis=1)
        stats[name + "_stderr"] = np.nanstd(ep, axis=1, ddof=1) / np.sqrt(m)
    return {phi.name: {name: tab[:, :, p_idx].tolist() for name, tab in stats.items()}
            for p_idx, phi in enumerate(phis)}


def _rate_fits(config: ExperimentConfig, steps, tables) -> list[dict]:
    fits = []
    ns = config.particle_counts
    for stage in ("normalized", "resampled"):
        for phi in config.test_functions:
            tab = tables[stage][phi]
            for p in config.moments:
                values = np.array(tab[MOMENT_TABLES[p]])  # (n_N, T)
                targets = [(t, values[:, i]) for i, t in enumerate(steps)]
                targets.append(("mean", values.mean(axis=1)))
                for t, col in targets:
                    try:
                        f = fit_loglog_slope(zip(ns, col))
                    except (InsufficientPoints, NonPositiveValue):
                        continue
                    fits.append({
                        "stage": stage, "phi": phi, "t": t, "moment": p,
                        "slope": f.slope, "intercept": f.intercept,
                        "r_squared": f.r_squared,
                    })
    return fits


def _assemble(config, steps, truth_map, check, est_n, est_r, phis, partial=False):
    truth_arr = np.array([truth_map[phi.name] for phi in phis]).T  # (T, P)
    tables = {
        "normalized": _aggregate(est_n, truth_arr, phis),
        "resampled": _aggregate(est_r, truth_arr, phis),
    }
    return ConvergenceReport(
        config=config,
        steps=tuple(steps),
        truth={k: tuple(v) for k, v in truth_map.items()},
        oracle_check=check,
        tables=tables,
        rate_fits=tuple(_rate_fits(config, steps, tables)),
        partial=partial,
    )


def run_convergence_study(config: ExperimentConfig,
                          workers: int | None = None) -> ConvergenceReport:
    """Run the full study; deterministic in config regardless of workers.

    On a task failure, whatever aggregates exist are flushed to the
    configured output paths (marked partial) before the error propagates
    with the N and the lowest failing replicate of the failed block.
    """
    config.validate()
    obs = ObservationSeries.from_csv(config.observations)
    obs_rows = tuple(obs)
    phis = make_test_functions(config.test_functions)
    oracle, check = _oracle_tables(config, obs_rows, phis)
    truth_map = {name: list(vals) for name, vals in oracle.estimates.items()}
    steps = list(oracle.steps)

    n_n, m, t_len, p_len = len(config.particle_counts), config.replicates, len(steps), len(phis)
    est_n = np.full((n_n, m, t_len, p_len), np.nan)
    est_r = np.full((n_n, m, t_len, p_len), np.nan)
    tasks = []
    for i, n in enumerate(config.particle_counts):
        size = max(1, BLOCK_PARTICLES // n)
        tasks += [(config, obs_rows, i, range(r, min(r + size, m))) for r in range(0, m, size)]

    n_workers = resolve_workers(workers)
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # on first use, not at import
    current = tasks[0]
    try:
        with ProcessPoolExecutor(n_workers) if n_workers > 1 else nullcontext() as pool:
            results = map(_study_cell, tasks) if pool is None else \
                pool.map(_study_cell, tasks, chunksize=max(1, len(tasks) // (4 * n_workers)))
            for task in tasks:  # both maps yield in task order
                current = task
                i, block, cell_n, cell_r = next(results)
                est_n[i, block], est_r[i, block] = cell_n, cell_r
    except Exception as err:
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # nan-only slices
            partial = _assemble(config, steps, truth_map, check, est_n, est_r,
                                phis, partial=True)
        for fmt, path in (("csv", config.out_csv), ("json", config.out_json)):
            if path:
                try:
                    emit_report(partial, fmt, path)
                except OSError:
                    pass
        n_failed = config.particle_counts[current[2]]
        row = getattr(err, "row", None)
        block = current[3] if row is None else current[3][row:row + 1]
        where = f"replicate={block[0]}" if len(block) == 1 \
            else f"replicates={block[0]}-{block[-1]}"
        raise StudyError(f"convergence study aborted at N={n_failed}, {where}: {err}") from err

    return _assemble(config, steps, truth_map, check, est_n, est_r, phis)
