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

A scheme writes every row's counts into one (M, K) count block.
Systematic and stratified draw each row's sorted positions and count
each cell as the difference of how many positions lie below its two
edges, for a group of short rows at once or slab by slab of a long
row, so besides the counts they hold one row of positions (or a group
of at most `SLAB`) and slab-sized temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CountMismatch, NotNormalized, at_row

_SUM_TOL = 1e-9
SLAB = 8192  # entries per slab: see `slabs`


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


def slabs(size: int) -> list[slice]:
    """Consecutive slices of at most `SLAB` entries that cover range(size).

    Stages that work entry by entry run slab by slab, so their
    temporaries stay small (64 KiB per float slab) whatever the block
    size; a range of at most `SLAB` entries is one slab.
    """
    return [slice(a, min(a + SLAB, size)) for a in range(0, size, SLAB)]


def multinomial_resample(weights, n: int, rngs) -> np.ndarray:
    """Counts ~ Multinomial(n, weights), row by row."""
    weights, total, rngs, one = _checked(weights, n, rngs)
    counts = np.empty(weights.shape, dtype=np.int64)
    # Renormalize exactly so numpy's pval check cannot trip on 1e-10 drift.
    # Each row's pvals sit in the row's own count slots until its draw
    # replaces them.
    pvals = np.divide(weights, total[:, None], out=counts.view(np.float64))
    for p, row, rng in zip(pvals, counts, rngs):
        row[:] = rng.gen.multinomial(n, p)
    return counts[0] if one else counts


def _counts_from_positions(weights: np.ndarray, positions: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Count how many of the sorted positions land in each cumulative-weight
    cell, row by row of a (G, K) weight block and its (G, n) positions
    (a 1-D pair is one row), into `out` when given.

    Cell i is [cum[i-1], cum[i]), except that the first cell reaches down
    to -inf and the last up to +inf: float drift can leave cum[-1] at or
    below a position of 1.0.  Count i is the difference of
    searchsorted(positions, edges, "left") at the cell's two edges.  The
    edges are summed slab by slab of the columns, each slab continuing
    from the last sum of the one before, which is the order np.cumsum
    adds them in.
    """
    w = weights.reshape(-1, weights.shape[-1])
    g, k = w.shape
    counts = np.empty(weights.shape, dtype=np.int64) if out is None else out
    rows = counts.reshape(g, k)
    carry = np.zeros(g)
    for s in slabs(k):
        edges = np.empty((g, s.stop - s.start + 1))
        edges[:, 0], edges[:, 1:] = carry, w[:, s]
        np.add.accumulate(edges, axis=1, out=edges)
        carry = edges[:, -1].copy()
        if s.start == 0:
            edges[:, 0] = -math.inf
        if s.stop == k:
            edges[:, -1] = math.inf
        below = _below(positions.reshape(g, -1), edges)
        np.subtract(below[:, 1:], below[:, :-1], out=rows[:, s])
    return counts


def _below(positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """searchsorted(positions[r], edges[r], "left") for every row r of the
    (G, n) sorted positions and (G, E) sorted edges.

    Each count starts from the guess n * edge and steps up, then down,
    one position at a time until it is exact.  A scheme puts one position
    in each stratum of width 1/n, so a guess is a step or two off and the
    whole block takes a few vectorized passes, where a binary search pays
    log2(n) mispredicted branches per edge (other sorted positions take
    more steps).
    """
    g, n = positions.shape
    flat = positions.reshape(-1)
    start = np.arange(0, g * n, n)[:, None]  # each row's first position
    stop = start + n
    below = np.clip(edges * n, 0, n).astype(np.int64)
    below += start
    while True:  # up while the next position lies below the edge
        up = flat.take(below, mode="clip") < edges
        up &= below < stop
        if not up.any():
            break
        below += up
    while True:  # down while the last counted position does not
        down = flat.take(below - 1, mode="clip") >= edges
        down &= below > start
        if not down.any():
            break
        below -= down
    below -= start
    return below


def _counts_at(positions_of, weights, n: int, rngs) -> np.ndarray:
    """Each row's counts at the n sorted positions that `positions_of(rng,
    out)` draws from the row's stream into `out`.

    Rows are counted together in groups of at most `SLAB` positions (one
    row when a row has more), each group's positions drawn row by row in
    order into one reused buffer.
    """
    weights, _, rngs, one = _checked(weights, n, rngs)
    m, k = weights.shape
    counts = np.empty((m, k), dtype=np.int64)
    g = max(1, min(m, SLAB // max(n, k + 1)))  # rows per group
    positions = np.empty((g, n))
    streams = iter(rngs)
    for a in range(0, m, g):
        group = slice(a, min(a + g, m))
        held = positions[:group.stop - a]
        for row in held:
            positions_of(next(streams), row)
        _counts_from_positions(weights[group], held, counts[group])
    return counts[0] if one else counts


def _systematic_positions(rng, out: np.ndarray) -> np.ndarray:
    """rng.gen.random() / n + j / n for every j < n = len(out)."""
    n = len(out)
    offset = rng.gen.random() / n
    for s in slabs(n):
        np.add(np.arange(s.start, s.stop, dtype=float) / n, offset, out=out[s])
    return out


def _stratified_positions(rng, out: np.ndarray) -> np.ndarray:
    """(j + u_j) / n for every j < n = len(out), u_j uniform in order."""
    n = len(out)
    for s in slabs(n):
        u = rng.gen.random(s.stop - s.start)
        u += np.arange(s.start, s.stop, dtype=float)
        np.divide(u, n, out=out[s])
    return out


def systematic_resample(weights, n: int, rngs) -> np.ndarray:
    """One shared uniform offset per row; count_i brackets n*w_i within one unit."""
    return _counts_at(_systematic_positions, weights, n, rngs)


def stratified_resample(weights, n: int, rngs) -> np.ndarray:
    """One independent uniform per stratum of width 1/n."""
    return _counts_at(_stratified_positions, weights, n, rngs)


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


def repeat_by_counts(particles: np.ndarray, counts,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Row r of the particles, particle i repeated counts[r, i] times, once
    the counts are checked: one nonnegative count per particle, each row
    summing to the row's particle count.  A 1-D particle vector is the
    one-row case.  The flattened block is repeated slab by slab into the
    C-contiguous `out` (a new array when None), which keeps every row in
    place because each row's counts sum to its length.  A slab that owns
    more than `SLAB` copies (degenerate weights) writes them in smaller
    pieces (`_repeat_into`), so no step needs a full-size temporary.
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
    out = np.empty(particles.shape) if out is None else out
    source, flat, target = particles.reshape(-1), counts.reshape(-1), out.reshape(-1)
    at = 0
    for s in slabs(len(source)):
        total = int(flat[s].sum())
        _repeat_into(target[at:at + total], source[s], flat[s])
        at += total
    return out


def _repeat_into(target: np.ndarray, source: np.ndarray, reps: np.ndarray) -> None:
    """target[:] = np.repeat(source, reps) with no temporary beyond `SLAB`
    entries: more copies than that are split at half the particles until
    they fit, or are copies of one particle, which fill their range."""
    if len(source) == 1:
        target[:] = source[0]
    elif len(target) <= SLAB:
        target[:] = np.repeat(source, reps)
    else:
        half = len(source) // 2
        split = int(reps[:half].sum())
        _repeat_into(target[:split], source[:half], reps[:half])
        _repeat_into(target[split:], source[half:], reps[half:])
