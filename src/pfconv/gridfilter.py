"""Dense-grid Bayes filter used as the ground-truth oracle.

The one-dimensional filtering recursion is evaluated by midpoint
(Riemann-sum) integration on a fixed grid over [0, x_max]: prediction
applies the folded Gaussian transition kernel, update is a pointwise
likelihood multiply, and both steps renormalize.  With a few thousand
cells this is accurate to well below the Monte Carlo error of any
affordable particle run, which is what makes it usable as truth in the
convergence studies.

On midpoints x_i = (i + 1/2) dx the kernel is f((i - j) dx) + f((i + j + 1) dx),
f the Gaussian density of the increment, so on the mirrored values
w = [v[::-1], v] row i is dx * sum_m f((i + n - m) dx) w_m: one banded
correlation covers the Toeplitz and the Hankel half (Kitagawa's numerical
filter with that structure exploited), with O(n) memory and no kernel
matrix.

Row i keeps the lags up to its half-width h_i, the least integer with
f(h_i dx) <= 2^-60 f(0) v_i / max(v) (at most 2n; a row with v_i = 0
keeps every lag).  Every dropped term is then below 2^-60 of the row's
own-cell term dx f(0) v_i, and every term is nonnegative, so a cell's
relative error grows by at most 2n 2^-60 (about 1e-14 at 6000 cells),
in the far tail as in the bulk.  The rows run in blocks of `_BLOCK_ROWS`
over the union of their rows' windows: on the filtered grids of a 50-step
run at eta = 0.1 and x_max = 15 that is about n^2 / 2 terms, against
2 n^2 for every lag of both halves.  A block sums its window in slices of
`_SLICE` terms, each one np.correlate of the lags with a cache-line
aligned copy of the slice's values, and adds the slices left to right.

The sums are direct, not FFT-based: an FFT's rounding error is absolute,
about 1e-15 of the largest cell, and the likelihood of a large count
lifts that noise in the tail to the grid's edge.

The grid ends at x_max, so it is only truth when the posterior has
negligible mass near that edge: `run_cox_grid_filter` fails when the top
5% of cells hold more than 1e-9 of the filtered mass at any step.

A run builds the midpoints and each test function's values on them once;
a step is one predict, one update (`grid_update`, from the likelihood on
the midpoints) and the tail check, and reads its statistics off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cox import CoxParams, cox_likelihood_logdensity
from .errors import DomainError, ZeroMass, require_positive
from .model import TestFunction

_TAIL_FRACTION = 0.05  # share of the grid, at its upper edge, checked for mass
_TAIL_MASS_TOL = 1e-9

_BAND_LOG = 60 * math.log(2)  # a dropped term is below 2^-60 of its row's own term
# rows per block.  On a 2-vCPU Xeon the 100 predicts of a 3000- and
# a 6000-cell 50-step run took 0.29 s at 64 rows, 0.25 s at 128, 0.20 s
# at 256, 0.22 s at 512 and 0.24 s at 1024: fewer rows add call
# overhead, more widen the window the rows share.
_BLOCK_ROWS = 256
# terms per dot product.  A slice's two operands (1024 values and 1279
# lags, 18 KB) stay well inside a 48 KB L1 data cache.  A block's whole
# window, 2500-3500 terms at 6000 cells (40-55 KB), sits at its edge: on
# a 2-vCPU Xeon VM a dot product cost 0.10 ns a term up to 2560 terms and
# 0.20 ns from 3000, and at 2560 terms its speed varied most between runs.
_SLICE = 1024


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


def _renormalized(values: np.ndarray, dx: float) -> tuple[np.ndarray, float]:
    """The values over their mass, frozen for `GridDensity` to keep uncopied; and the mass."""
    mass = float(np.sum(values) * dx)
    if mass <= 0 or not math.isfinite(mass):
        raise ZeroMass("grid density lost all mass")
    values = values / mass
    values.setflags(write=False)
    return values, mass


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
        raise DomainError(f"grid needs at least 10 cells, got {n_cells}")
    dx = x_max / n_cells
    mids = (np.arange(n_cells) + 0.5) * dx
    values = np.asarray(prior_density(mids), dtype=float)
    return GridDensity(x_max, _renormalized(values, dx)[0])


def _half_widths(values: np.ndarray, dx: float, eta: float) -> np.ndarray:
    """Row i's half-width h_i in cells: its terms past h_i lags are below
    2^-60 of its own-cell term (module docstring); 2n where v_i = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.log(values.max()) - np.log(values)  # inf at v_i = 0, NaN if all are
        h = np.ceil(np.sqrt(2 * eta * (_BAND_LOG + excess)) / dx)
    return np.fmin(h, 2 * len(values)).astype(np.intp)


def grid_predict(grid: GridDensity, eta: float) -> GridDensity:
    """One prediction step under the folded Gaussian transition with
    increment variance ``eta``: values' = K @ values * dx, renormalized.

    Row i sums its lags up to its half-width only, so each cell keeps a
    relative accuracy of 2n 2^-60 (module docstring).  The rows run in
    blocks of `_BLOCK_ROWS`; a block's rows share the union of their
    windows on the mirrored values, summed in slices of `_SLICE` terms.
    """
    require_positive(eta=eta)
    n, dx, v = grid.n_cells, grid.dx, grid.values
    # f(k dx), k = 1-n .. 2n-1, built in place: a temporary per operation
    # makes the heap grow and trim back every step, about 30 page faults
    # per step at 6000 cells
    lags = np.empty(3 * n - 1)
    half = lags[n - 1:]
    np.multiply(np.arange(2 * n), dx, out=half)
    np.square(half, out=half)
    np.negative(half, out=half)
    half /= 2 * eta
    np.exp(half, out=half)
    half /= math.sqrt(2 * math.pi * eta)
    lags[:n - 1] = half[n - 1:0:-1]
    mirrored = np.concatenate([v[::-1], v])  # row i's lag-0 term is at i + n
    h = _half_widths(v, dx, eta)
    centre, starts = np.arange(n) + n, np.arange(0, n, _BLOCK_ROWS)
    firsts = np.maximum(np.minimum.reduceat(centre - h, starts), 0)
    stops = np.minimum(np.maximum.reduceat(centre + h, starts) + 1, 2 * n)
    store = np.empty(_SLICE + 8)  # 8 spare doubles to start on a 64-byte line
    skip = -store.ctypes.data % 64 // 8
    kernel = store[skip:skip + _SLICE]
    values = np.zeros(n)
    for lo, first, stop in zip(starts.tolist(), firsts.tolist(), stops.tolist()):
        hi = min(lo + _BLOCK_ROWS, n)
        rows = values[lo:hi]
        for a in range(first, stop, _SLICE):  # row i, term m: lag i + n - m
            b = min(a + _SLICE, stop)
            k = kernel[:b - a]
            k[:] = mirrored[2 * n - b:2 * n - a]  # mirrored[a:b] reversed: a palindrome
            rows += np.correlate(lags[lo + 2 * n - b:hi + 2 * n - 1 - a], k, "valid")
    return GridDensity(grid.x_max, _renormalized(values * dx, dx)[0])


def grid_update(grid: GridDensity, likelihood: np.ndarray) -> tuple[GridDensity, float]:
    """One measurement update from the likelihood's values on the grid's
    midpoints: the renormalized product and its mass (the evidence increment)."""
    likelihood = np.asarray(likelihood, dtype=float)
    if likelihood.shape != grid.values.shape:
        raise DomainError(f"likelihood has shape {likelihood.shape}, not ({grid.n_cells},)")
    values, increment = _renormalized(grid.values * likelihood, grid.dx)
    return GridDensity(grid.x_max, values), increment


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


def run_cox_grid_filter(params: CoxParams, observations, x_max: float, n_cells: int,
                        test_functions: Sequence[TestFunction] = ()) -> GridFilterRun:
    """Run the grid filter over a (t, y) sequence and record posteriors,
    on the calling thread.  Raises DomainError when x_max truncates a
    filtered posterior (see the module docstring).
    """
    grid = grid_init(folded_normal_prior, x_max, n_cells)
    mids, dx = grid.midpoints(), grid.dx
    phis = [(phi.name, phi(mids)) for phi in test_functions]
    tail = max(1, int(n_cells * _TAIL_FRACTION))
    grids, steps, means, variances = [], [], [], []
    estimates: dict[str, list[float]] = {name: [] for name, _ in phis}
    log_evidence = 0.0
    for t, y in observations:
        grid = grid_predict(grid, params.eta)
        likelihood = np.exp(cox_likelihood_logdensity(y, mids, params.c))
        try:
            grid, increment = grid_update(grid, likelihood)
        except ZeroMass as exc:
            raise ZeroMass(f"likelihood of y={y!r} at t={t} annihilated the grid") from exc
        log_evidence += math.log(increment)
        tail_mass = float(np.sum(grid.values[-tail:]) * dx)
        if tail_mass > _TAIL_MASS_TOL:
            raise DomainError(f"x_max={x_max} truncates the posterior at t={t}: the "
                              f"top {tail} cells hold mass {tail_mass:.3g}")
        grids.append(grid)
        steps.append(int(t))
        means.append(float(np.sum(mids * grid.values) * dx))
        variances.append(float(np.sum((mids - means[-1]) ** 2 * grid.values) * dx))
        for name, phi_on_mids in phis:
            estimates[name].append(float(np.sum(phi_on_mids * grid.values) * dx))
    return GridFilterRun(tuple(grids), tuple(steps),
                         {k: tuple(v) for k, v in estimates.items()},
                         tuple(means), tuple(variances), log_evidence)

