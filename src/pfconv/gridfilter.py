"""Dense-grid Bayes filter used as the ground-truth oracle.

The one-dimensional filtering recursion is evaluated by midpoint
(Riemann-sum) integration on a fixed grid over [0, x_max]: prediction
applies the folded Gaussian transition kernel, update is a pointwise
likelihood multiply, and both steps renormalize.  With a few thousand
cells this is accurate to well below the Monte Carlo error of any
affordable particle run, which is what makes it usable as truth in the
convergence studies.

On midpoints x_i = (i + 1/2) dx the kernel splits into a Toeplitz part
f(x_i - x_j) and a Hankel part f(x_i + x_j), so prediction is one direct
convolution plus one correlation of length-(2n - 1) lag vectors with the
grid values (Kitagawa's numerical filter with that structure exploited):
O(n) memory and O(n^2) flops per step, with no kernel matrix.  Each
output row is one dot product of lags with the grid values, so the rows
split into contiguous ranges that run on threads (numpy releases the GIL
in these loops); a row's dot product, and so its bits, is the same
whatever the range or thread count.  Above `BLAS_THREADED_DOT` cells
each dot product is threaded by BLAS already, and the rows run as one
range.

Two kinds of terms are left out, and neither changes a bit of the
every-lag sums.  Lags below the smallest normal double (2^-1022) are set
to 0, because their subnormal products are slow to form.  Each such
product is below 2^-1022 of the largest cell, and every row holds its own
cell times the lag-0 weight, so on a grid whose cells all lie within
2^-900 of its largest the products vanish into their rows.  A grid with
a smaller cell (a point mass, say) keeps every lag.  The Hankel lags
decrease, so row i's terms past its last nonzero lag are exact zeros,
and the row is dotted only over the values up to there, rounded up to a
multiple of 32 terms.  OpenBLAS's ddot adds term j into the same
accumulator lane at any length up to the last multiple of 32 below it
(16 or 32 terms a pass, then a tail), so cutting only exact zeros at such
a length keeps the bits.  Above `BLAS_THREADED_DOT` cells the rows stay
whole, since BLAS splits a long dot at points that depend on its length.

The grid ends at x_max, so it is only truth when the posterior has
negligible mass near that edge: `run_cox_grid_filter` fails when the top
5% of cells hold more than 1e-9 of the filtered mass at any step.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cores import resolve_workers
from .cox import CoxParams, cox_likelihood_logdensity
from .errors import DomainError, ZeroMass, require_positive
from .model import TestFunction

_NORM_TOL = 1e-9
_TAIL_FRACTION = 0.05  # share of the grid, at its upper edge, checked for mass
_TAIL_MASS_TOL = 1e-9

# OpenBLAS threads every ddot longer than 10^4 entries over its own
# threads, so above this many cells one prediction row already keeps the
# cores busy and row ranges on more threads only oversubscribe them.
BLAS_THREADED_DOT = 10_000

_TINY = np.finfo(float).tiny
# below this share of its largest cell a grid keeps its subnormal lags
_KEEP_EVERY_LAG = 2.0 ** -900
_DOT_LANES = 32  # a cut Hankel dot's length is a multiple of this
_HANKEL_BLOCKS = 16


@dataclass(frozen=True)
class GridDensity:
    """A probability density sampled at cell midpoints of [0, x_max]."""

    x_max: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable:  # freeze a copy, never the caller's array
            values = values.copy()
            values.setflags(write=False)
        object.__setattr__(self, "values", values)
        require_positive(x_max=self.x_max)
        if values.ndim != 1 or len(values) < 10:
            raise DomainError("grid needs at least 10 cells")
        if np.any(values < 0) or np.any(~np.isfinite(values)):
            raise DomainError("grid values must be finite and nonnegative")

    @property
    def n_cells(self) -> int:
        return len(self.values)

    @property
    def dx(self) -> float:
        return self.x_max / self.n_cells

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    def mean(self) -> float:
        return float(np.sum(self.midpoints() * self.values) * self.dx)

    def variance(self) -> float:
        m = self.mean()
        return float(np.sum((self.midpoints() - m) ** 2 * self.values) * self.dx)


def _renormalized(values: np.ndarray, dx: float) -> np.ndarray:
    mass = float(np.sum(values) * dx)
    if mass <= 0 or not math.isfinite(mass):
        raise ZeroMass("grid density lost all mass")
    return values / mass


def grid_cells(x_max: float, dx: float) -> int:
    """Cell count round(x_max / dx) of the grid on [0, x_max] whose
    spacing is closest to ``dx``; the grid's own spacing is x_max over it."""
    if not 0 < dx < x_max < math.inf:  # NaN fails too
        raise DomainError(f"oracle grid needs finite 0 < dx < x_max (--dx, --x-max), "
                          f"got dx={dx!r}, x_max={x_max!r}")
    n_cells = int(round(x_max / dx))
    if n_cells < 10:
        raise DomainError(f"--x-max {x_max!r} / --dx {dx!r} gives {n_cells} cells; "
                          f"the oracle grid needs at least 10")
    return n_cells


def grid_init(prior_density: Callable[[np.ndarray], np.ndarray],
              x_max: float, n_cells: int) -> GridDensity:
    """Evaluate a prior density at cell midpoints and renormalize."""
    if n_cells < 10:
        raise DomainError("n_cells must be >= 10")
    dx = x_max / n_cells
    mids = (np.arange(n_cells) + 0.5) * dx
    values = np.asarray(prior_density(mids), dtype=float)
    return GridDensity(x_max, _renormalized(values, dx))


def _ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """At most ``parts`` contiguous, nonempty, near-equal ranges covering 0..n-1."""
    edges = [n * k // parts for k in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _lags(grid: GridDensity, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """The folded kernel's Toeplitz lags f(k dx), k = 1-n..n-1, and Hankel
    lags f(k dx), k = 1..2n-1, for increment variance ``eta``.

    Lags below the smallest normal double are 0 unless a cell of the grid
    lies below 2^-900 of its largest (see the module docstring).
    """
    n, dx = grid.n_cells, grid.dx
    scale = math.sqrt(2 * math.pi * eta)
    toe = np.exp(-(np.arange(1 - n, n) * dx) ** 2 / (2 * eta)) / scale
    han = np.exp(-(np.arange(1, 2 * n) * dx) ** 2 / (2 * eta)) / scale
    if grid.values.min() >= _KEEP_EVERY_LAG * grid.values.max():
        toe[toe < _TINY] = 0.0
        han[han < _TINY] = 0.0
    return toe, han


def _hankel_jobs(n: int, nonzero: int, parts: int) -> list[list[tuple[int, int, int]]]:
    """The live Hankel rows as about `_HANKEL_BLOCKS` row blocks (lo, hi, k),
    grouped into at most ``parts`` contiguous jobs of near-equal work.

    Only the first ``nonzero`` Hankel lags are nonzero, so row i has terms
    on values[:nonzero - i].  A block dots each of its rows with values[:k],
    k its first row's term count rounded up to a multiple of `_DOT_LANES`,
    or n once that passes the last such multiple below n.  Above
    `BLAS_THREADED_DOT` cells k is always n: BLAS splits a long dot over
    its threads at points that depend on the length.
    """
    last = n & -_DOT_LANES if n <= BLAS_THREADED_DOT else 0
    blocks = []
    for lo, hi in _ranges(min(n, nonzero), _HANKEL_BLOCKS):
        k = -(-(nonzero - lo) // _DOT_LANES) * _DOT_LANES
        blocks.append((lo, hi, n if k > last else k))
    total = sum((hi - lo) * k for lo, hi, k in blocks)
    jobs: list[list[tuple[int, int, int]]] = [[] for _ in range(parts)]
    done = 0
    for lo, hi, k in blocks:  # each block to the job its middle falls in
        work = (hi - lo) * k
        jobs[(2 * done + work) * parts // (2 * total)].append((lo, hi, k))
        done += work
    return [job for job in jobs if job]


def grid_predict(grid: GridDensity, eta: float, *,
                 pool: ThreadPoolExecutor | None = None) -> GridDensity:
    """One prediction step under the folded Gaussian transition with
    increment variance ``eta``: values' = K @ values * dx, renormalized.

    The sums are direct, not FFT-based: FFT rounding can turn the ~1e-45
    tail cells negative.  Lags below the smallest normal double are 0 and
    each Hankel row stops at a multiple of 32 terms past its last nonzero
    lag; neither changes a bit of the every-lag sums (module docstring).

    The Toeplitz rows are split into one contiguous range per thread of
    ``pool``, and the Hankel row blocks into one job of near-equal work
    per thread; one range, run inline, when ``pool`` is None or the grid
    has more than `BLAS_THREADED_DOT` cells (each row's dot product is
    threaded then).  Row i is the same dot product whatever its range or
    job, so the result has the same bits for any thread count.
    """
    require_positive(eta=eta)
    n, dx = grid.n_cells, grid.dx
    toe, han = _lags(grid, eta)
    conv, corr = np.empty(n), np.zeros(n)
    parts = 1 if pool is None or n > BLAS_THREADED_DOT else pool._max_workers
    jobs = [(np.convolve, toe, conv, [(lo, hi, n)]) for lo, hi in _ranges(n, parts)] \
        + [(np.correlate, han, corr, blocks)
           for blocks in _hankel_jobs(n, int(np.count_nonzero(han)), parts)]

    def rows(job):
        op, lags, out, blocks = job
        for lo, hi, k in blocks:
            out[lo:hi] = op(lags[lo:hi + k - 1], grid.values[:k], "valid")

    list((map if parts == 1 else pool.map)(rows, jobs))  # raises a job's error
    values = (conv + corr) * dx
    return GridDensity(grid.x_max, _renormalized(values, dx))


def _update_with_evidence(grid: GridDensity, likelihood_logdensity, y
                          ) -> tuple[GridDensity, float]:
    """Posterior grid plus the update normalizer (the evidence increment)."""
    with np.errstate(divide="ignore"):
        g = np.exp(np.asarray(likelihood_logdensity(y, grid.midpoints()), dtype=float))
    values = grid.values * g
    increment = float(np.sum(values) * grid.dx)
    if increment <= 0 or not math.isfinite(increment):
        raise ZeroMass(f"likelihood of y={y!r} annihilated the grid")
    return GridDensity(grid.x_max, values / increment), increment


def grid_update(grid: GridDensity, likelihood_logdensity, y) -> GridDensity:
    """One measurement update: multiply by the likelihood, renormalize."""
    return _update_with_evidence(grid, likelihood_logdensity, y)[0]


def grid_estimate(grid: GridDensity, phi: TestFunction) -> float:
    """Posterior expectation of a test function under the grid density."""
    return float(np.sum(phi(grid.midpoints()) * grid.values) * grid.dx)


def folded_normal_prior(x: np.ndarray) -> np.ndarray:
    """Density of |xi|, xi standard normal: 2 N(x; 0, 1) on x >= 0."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(2.0 / np.pi) * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class GridFilterRun:
    """Grid posteriors (one per observation) plus summary traces.

    ``log_evidence`` accumulates the log update normalizers, i.e. the
    grid filter's estimate of log p(y_1..y_T).
    """

    grids: tuple[GridDensity, ...]
    steps: tuple[int, ...]
    estimates: dict[str, tuple[float, ...]]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    log_evidence: float


def run_cox_grid_filter(params: CoxParams, observations,
                        x_max: float = 15.0, n_cells: int = 3000,
                        test_functions: Sequence[TestFunction] = (),
                        workers: int | None = None) -> GridFilterRun:
    """Run the grid filter over a (t, y) sequence and record posteriors.

    Prediction runs on ``resolve_workers(workers)`` threads of one pool
    that lives for this call only; the results do not depend on the
    thread count.  Raises DomainError when x_max truncates a filtered
    posterior (see the module docstring).
    """
    grid = grid_init(folded_normal_prior, x_max, n_cells)
    tail = max(1, int(n_cells * _TAIL_FRACTION))
    grids, steps, means, variances = [], [], [], []
    estimates: dict[str, list[float]] = {phi.name: [] for phi in test_functions}
    log_evidence = 0.0
    threads = resolve_workers(workers)
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        for t, y in observations:
            grid = grid_predict(grid, params.eta, pool=pool)
            grid, increment = _update_with_evidence(
                grid, lambda yy, x: cox_likelihood_logdensity(yy, x, params.c), y)
            log_evidence += math.log(increment)
            tail_mass = float(np.sum(grid.values[-tail:]) * grid.dx)
            if tail_mass > _TAIL_MASS_TOL:
                raise DomainError(f"x_max={x_max} truncates the posterior at t={t}: the "
                                  f"top {tail} cells hold mass {tail_mass:.3g}")
            grids.append(grid)
            steps.append(int(t))
            means.append(grid.mean())
            variances.append(grid.variance())
            for phi in test_functions:
                estimates[phi.name].append(grid_estimate(grid, phi))
    return GridFilterRun(
        grids=tuple(grids),
        steps=tuple(steps),
        estimates={k: tuple(v) for k, v in estimates.items()},
        means=tuple(means),
        variances=tuple(variances),
        log_evidence=log_evidence,
    )

