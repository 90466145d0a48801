"""Resampling schemes with testable unbiasedness/variance contracts.

Every scheme maps normalized weights to an integer count vector that
sums to N; duplication of particles is applied separately so the count
invariants stay visible to tests.  Multinomial is the reference scheme
for the convergence experiments; systematic is the usual low-variance
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CountMismatch, NotNormalized
from .rng import RngStream

_SUM_TOL = 1e-9


def _check_weights(weights: np.ndarray, n: int) -> np.ndarray:
    """n is the number of draws; it equals len(weights) in the filter loop
    but may differ (e.g. statistical checks drawing many times from few
    categories)."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) < 1 or n < 1:
        raise NotNormalized(f"need a 1-D weight vector and n >= 1, got {weights.shape}")
    if np.any(weights < 0):
        raise NotNormalized("weights must be nonnegative")
    total = float(np.sum(weights))
    if abs(total - 1.0) > _SUM_TOL:
        raise NotNormalized(f"weights sum to {total!r}")
    return weights


def multinomial_resample(weights, n: int, rng: RngStream) -> np.ndarray:
    """Counts ~ Multinomial(n, weights)."""
    weights = _check_weights(weights, n)
    # Renormalize exactly so numpy's pval check cannot trip on 1e-10 drift.
    return rng.gen.multinomial(n, weights / np.sum(weights)).astype(np.int64)


def _counts_from_positions(weights: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Count how many grid positions land in each cumulative-weight cell."""
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)  # guard float drift at the last boundary
    idx = np.searchsorted(cum, positions, side="right")
    return np.bincount(idx, minlength=len(weights)).astype(np.int64)


def systematic_resample(weights, n: int, rng: RngStream) -> np.ndarray:
    """One shared uniform offset; count_i brackets n*w_i within one unit."""
    weights = _check_weights(weights, n)
    u = rng.gen.random() / n
    positions = u + np.arange(n) / n
    return _counts_from_positions(weights, positions)


def stratified_resample(weights, n: int, rng: RngStream) -> np.ndarray:
    """One independent uniform per stratum of width 1/n."""
    weights = _check_weights(weights, n)
    positions = (np.arange(n) + rng.gen.random(n)) / n
    return _counts_from_positions(weights, positions)


@dataclass(frozen=True)
class ResampleScheme:
    kind: str
    resample: Callable[[np.ndarray, int, RngStream], np.ndarray]


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
    """Particle i repeated counts[i] times, once the counts are checked:
    one nonnegative count per particle, summing to the particle count."""
    counts = np.asarray(counts)
    n = len(particles)
    if counts.shape != (n,):
        raise CountMismatch(f"counts shape {counts.shape} != {(n,)}")
    if np.any(counts < 0) or int(np.sum(counts)) != n:
        raise CountMismatch(f"counts must be nonnegative and sum to {n}")
    return np.repeat(particles, counts)

