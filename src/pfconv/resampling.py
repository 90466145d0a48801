"""Resampling schemes with testable unbiasedness/variance contracts.

Every scheme maps normalized weights to integer counts that sum to the
number of draws; duplication of particles is applied separately so the
count invariants stay visible to tests.  Multinomial is the reference
scheme for the convergence experiments; systematic is the usual
low-variance default.

A scheme resamples a block: ``resample(weights, n, rngs)`` takes an
(M, K) weight block and M streams, and returns (M, K) counts, row r
drawn from ``rngs[r]`` exactly as a one-row call would draw it.  The
filter engine passes the block's `rng.KeyedRows`: the rows' keys are
SeedSequence-compatible and derived per block, and the rows draw from
one generator re-keyed row by row.  A 1-D weight vector with a single
stream is the M = 1 case and gets a 1-D count vector back.  The weight
checks run once per block and name the lowest failing row in
``err.row``, as `repeat_by_counts` does for the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CountMismatch, NotNormalized, at_row

_SUM_TOL = 1e-9


def _checked(weights, n: int, rngs):
    """The weights as an (M, K) block with its row sums, and the M
    streams; whether a 1-D vector and a single stream came in.

    n is the number of draws per row; it equals K in the filter loop but
    may differ (e.g. statistical checks drawing many times from few
    categories).
    """
    weights = np.asarray(weights, dtype=float)
    one = weights.ndim == 1
    if one:
        weights, rngs = weights[None], (rngs,)
    if weights.ndim != 2 or weights.shape[1] < 1 or n < 1:
        raise NotNormalized(f"need a weight vector or block and n >= 1, "
                            f"got {weights.shape}")
    if len(rngs) != len(weights):
        raise ValueError(f"{len(rngs)} streams for {len(weights)} weight rows")
    low, total = weights.min(axis=1), weights.sum(axis=1)
    ok = (low >= 0) & (np.abs(total - 1.0) <= _SUM_TOL)  # NaN fails both
    if not ok.all():
        r = int(np.argmin(ok))
        err = NotNormalized("weights must be nonnegative") if not low[r] >= 0 \
            else NotNormalized(f"weights sum to {float(total[r])!r}")
        raise at_row(err, r)
    return weights, total, rngs, one


def _stacked(rows: list[np.ndarray], one: bool) -> np.ndarray:
    """The rows' counts as one int64 block, or its only row for 1-D input.

    The schemes draw row by row into a list, so each row's temporaries
    are gone before the next row is drawn and no count block is held
    while a row is counted.
    """
    counts = np.stack(rows).astype(np.int64, copy=False)
    return counts[0] if one else counts


def multinomial_resample(weights, n: int, rngs) -> np.ndarray:
    """Counts ~ Multinomial(n, weights), row by row."""
    weights, total, rngs, one = _checked(weights, n, rngs)
    # Renormalize exactly so numpy's pval check cannot trip on 1e-10 drift.
    pvals = weights / total[:, None]
    return _stacked([rng.gen.multinomial(n, p) for p, rng in zip(pvals, rngs)], one)


def _counts_from_positions(weights: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Count how many grid positions land in each cumulative-weight cell."""
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)  # guard float drift at the last boundary
    idx = np.searchsorted(cum, positions, side="right")
    return np.bincount(idx, minlength=len(weights))


def systematic_resample(weights, n: int, rngs) -> np.ndarray:
    """One shared uniform offset per row; count_i brackets n*w_i within one unit."""
    weights, _, rngs, one = _checked(weights, n, rngs)
    return _stacked([_counts_from_positions(w, rng.gen.random() / n + np.arange(n) / n)
                     for w, rng in zip(weights, rngs)], one)


def stratified_resample(weights, n: int, rngs) -> np.ndarray:
    """One independent uniform per stratum of width 1/n."""
    weights, _, rngs, one = _checked(weights, n, rngs)
    return _stacked([_counts_from_positions(w, (np.arange(n) + rng.gen.random(n)) / n)
                     for w, rng in zip(weights, rngs)], one)


@dataclass(frozen=True)
class ResampleScheme:
    """A named scheme; ``resample(weights, n, rngs)`` as in the module doc."""

    kind: str
    resample: Callable[[np.ndarray, int, object], np.ndarray]


SCHEMES = {
    "multinomial": ResampleScheme("multinomial", multinomial_resample),
    "stratified": ResampleScheme("stratified", stratified_resample),
    "systematic": ResampleScheme("systematic", systematic_resample),
}


def get_scheme(name: str) -> ResampleScheme:
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown resampler {name!r}; choose from {sorted(SCHEMES)}") from None


def repeat_by_counts(particles: np.ndarray, counts) -> np.ndarray:
    """Row r of the particles, particle i repeated counts[r, i] times, once
    the counts are checked: one nonnegative count per particle, each row
    summing to the row's particle count.  A 1-D particle vector is the
    one-row case.  The rows are duplicated by one `np.repeat` of the
    flattened block, which keeps every row in place because each row's
    counts sum to its length.
    """
    counts = np.asarray(counts)
    if counts.shape != particles.shape:
        raise CountMismatch(f"counts shape {counts.shape} != {particles.shape}")
    n = particles.shape[-1]
    rows = counts.reshape(-1, n)
    ok = (rows.min(axis=1) >= 0) & (rows.sum(axis=1) == n)
    if not ok.all():
        raise at_row(CountMismatch(f"counts must be nonnegative and sum to {n}"),
                     int(np.argmin(ok)))
    return np.repeat(particles.ravel(), counts.ravel()).reshape(particles.shape)
