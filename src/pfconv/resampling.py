"""Resampling schemes with testable unbiasedness/variance contracts.

Every scheme maps normalized weights to integer counts that sum to the
number of draws; duplication of particles is applied separately so the
count invariants stay visible to tests.  Multinomial is the reference
scheme for the convergence experiments; systematic is the usual
low-variance default.

A scheme resamples a block: ``resample(weights, n, rngs, out=None)``
takes an (M, K) weight block and M numpy Generators, and returns (M, K)
counts, row r drawn from ``rngs[r]`` exactly as a one-row block would
draw it.  The counts go into ``out`` when it is given (an int64 array
of the weights' shape, which is returned), else into a new array.
``out`` may share the weights' memory, as the engine's does: every
scheme reads a row or slab of weights before it writes that row's or
slab's counts (multinomial divides its weights in place, and
`_count_cells` copies a slab's edges before it counts).  The filter
engine passes the block's `rng.KeyedRows`: the rows' keys are
SeedSequence-compatible and derived per block, and the rows draw from
one generator re-keyed row by row.  The weight checks run once per
block and name the lowest failing row in ``err.row``, as `check_counts`
does for the counts.

Systematic and stratified resampling are the same count at n sorted
positions per row and differ only in how the positions are drawn.  Each
cell's count is the difference of how many positions lie below its two
edges (`_count_cells`), for a group of short rows at once or slab by slab
of a long row.  A positions function draws a group's positions: position
j of a systematic row is j / n + offset, so it keeps only the row's one
offset and no row of positions; stratified holds its row of n positions
(or a group of at most `SLAB`).  One search counts the positions below
an edge e (`_below`): it guesses ceil((e - offset) * n) and steps to the
exact count only the edges whose scaled value lies within a margin of an
integer.  For systematic that margin is n * 2**-40, outside which the
guess is provably exact; for stratified it is 1, so every edge is
stepped.  With the counts over the weights (the engine's log-weight
buffer), systematic resampling of a large block allocates nothing at
full size, only slab-sized temporaries; multinomial allocates only the
count vector numpy's draw of a row returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .errors import CountMismatch, NotNormalized, at_row

_SUM_TOL = 1e-9
SLAB = 8192  # entries per slab: see `slabs`
_TIE_MARGIN = 2.0 ** -40  # per particle: see `_below`


def _checked(weights, n: int, rngs, out):
    """The (M, K) weight block as floats, its row sums, and the (M, K)
    int64 array the counts go into: ``out`` when given, else a new one.

    There is one generator per row in ``rngs``.  n is the number of draws
    per row; it equals K in the filter loop but may differ (e.g.
    statistical checks drawing many times from few categories).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] < 1 or n < 1:
        raise ValueError(f"need an (M, K) weight block with K >= 1 and n >= 1, "
                         f"got shape {weights.shape} and n = {n}")
    if len(rngs) != len(weights):
        raise ValueError(f"{len(rngs)} generators for {len(weights)} weight rows")
    if out is not None and (out.shape != weights.shape or out.dtype != np.int64):
        raise ValueError(f"counts need an int64 array of shape {weights.shape}, "
                         f"got {out.dtype} {out.shape}")
    low, total = weights.min(axis=1), weights.sum(axis=1)
    ok = (low >= 0) & (np.abs(total - 1.0) <= _SUM_TOL)  # NaN fails both
    if not ok.all():
        r = int(np.argmin(ok))
        err = NotNormalized("weights must be nonnegative") if not low[r] >= 0 \
            else NotNormalized(f"weights sum to {float(total[r])!r}")
        raise at_row(err, r)
    return weights, total, np.empty(weights.shape, dtype=np.int64) if out is None else out


def slabs(size: int) -> list[slice]:
    """Consecutive slices of at most `SLAB` entries that cover range(size).

    Stages that work entry by entry run slab by slab, so their
    temporaries stay small (64 KiB per float slab) whatever the block
    size; a range of at most `SLAB` entries is one slab.
    """
    return [slice(a, min(a + SLAB, size)) for a in range(0, size, SLAB)]


def multinomial_resample(weights, n: int, rngs, out=None) -> np.ndarray:
    """Counts ~ Multinomial(n, weights), row by row."""
    weights, total, counts = _checked(weights, n, rngs, out)
    # Renormalize exactly so numpy's pval check cannot trip on 1e-10 drift.
    # Each row's pvals sit in the row's own count slots until its draw
    # replaces them.
    pvals = np.divide(weights, total[:, None], out=counts.view(np.float64))
    for p, row, rng in zip(pvals, counts, rngs):
        row[:] = rng.multinomial(n, p)
    return counts


def _count_cells(weights: np.ndarray, at, offsets, margin: float, n: int,
                 out: np.ndarray) -> None:
    """Count into the (G, K) int64 ``out`` how many of each row's n sorted
    positions land in each cumulative-weight cell of the (G, K) weights.

    ``at``, ``offsets`` and ``margin`` give the rows' positions, as a
    positions function returns them (`_below`).  Cell i is
    [cum[i-1], cum[i]), except that the first cell reaches down to -inf
    and the last up to +inf: float drift can leave cum[-1] at or below a
    position of 1.0.  So the count below the first edge is 0 and below the
    last n.  Count i is the difference of the counts below the cell's two
    edges.  The edges are summed slab by slab of the columns, each slab
    continuing from the last sum of the one before, which is the order
    np.cumsum adds them in.
    """
    g, k = weights.shape
    carry = np.zeros(g)
    for s in slabs(k):
        edges = np.empty((g, s.stop - s.start + 1))
        edges[:, 0], edges[:, 1:] = carry, weights[:, s]
        np.add.accumulate(edges, axis=1, out=edges)
        carry = edges[:, -1].copy()
        counts = _below(at, edges, offsets, n, margin)
        if s.start == 0:
            counts[:, 0] = 0
        if s.stop == k:
            counts[:, -1] = n
        np.subtract(counts[:, 1:], counts[:, :-1], out=out[:, s])


def _below(at, edges: np.ndarray, offsets, n: int, margin: float) -> np.ndarray:
    """For every row r and edge e of the (G, E) sorted edges, the number of
    row r's n sorted positions below e: the least j in 0..n with
    at(j, r) >= e (n when there is none), as searchsorted(positions, e,
    "left") gives it.

    ``at(j, rows)`` gives the positions at the int64 indices j of the
    rows ``rows``, broadcast together; an index of -1 or n may give any
    value.  Each count starts from the guess ceil(d), clipped to [0, n],
    of the scaled edge d = fl(fl(e - o) * n), with one offset o per row
    ((G, 1), or a scalar).  `_search` steps to the exact count only the
    edges whose d lies within ``margin`` of an integer: all of them for a
    margin of 1, as one search of the whole block.

    A stratified row (offset 0) puts one position in each stratum of
    width 1/n, so its guess is a step off at most and margin 1 leaves a
    few vectorized passes, where a binary search pays log2(n) mispredicted
    branches per edge.  For the systematic positions fl(fl(j / n) + o),
    with u = 2**-53 the unit roundoff, 0 <= o <= 1/n (1 + u) and
    0 <= e <= 1 + 1e-9 (the weight check's drift):

    * position j < n errs by |fl(fl(j / n) + o) - (j / n + o)| <= 2.1 u,
      two roundings of values at most 1 + 2u;
    * the scaled edge errs by |d - (e - o) n| <= 2.1 u n, two roundings
      of values at most 1.01 n;
    * position j lies below e exactly when j < (e - o) n minus n times
      its error, a value within 4.2 u n of d.

    So when d is farther than 4.2 u n from every integer, j < d decides
    every position as the exact comparison does, and ceil(d) clipped is
    the count.  The systematic margin ``n * _TIE_MARGIN`` = 2**-40 n is
    over 2**10 times that bound, which also covers the ulp by which the
    distance test itself rounds, and it stays below 1/4 up to n = 2**38
    (a particle count of 2**30 gets 2**-10).  Edges inside the margin, a
    fraction of about 2**-39 n of them (one in eight steps of a 2**18-
    particle row has any), take the stepped search; the counts are every
    bit those of the search everywhere.
    """
    scaled = np.subtract(edges, offsets)
    scaled *= n
    guess = np.ceil(scaled, out=scaled if margin >= 1 else None)
    off = None if margin >= 1 else np.subtract(guess, scaled, out=scaled)  # ceil(d) - d
    if guess.min() < 0 or guess.max() > n:  # (read-only passes cost less)
        np.clip(guess, 0, n, out=guess)
    below = guess.astype(np.int64)
    if off is None:
        return _search(at, edges, below, n, np.arange(len(edges))[:, None])
    if off.min() <= margin or off.max() >= 1 - margin:
        rows, cols = np.nonzero((off <= margin) | (off >= 1 - margin))
        below[rows, cols] = _search(at, edges[rows, cols], below[rows, cols], n, rows)
    return below


def _search(at, edges: np.ndarray, below: np.ndarray, n: int, rows) -> np.ndarray:
    """Step each count of ``below`` (in place, and returned) at its edge of
    row ``rows`` up, then down, one position at a time until
    at(j - 1, r) < e <= at(j, r) holds, as in `_below`; edges, counts and
    rows broadcast together."""
    while True:  # up while the next position lies below the edge
        up = at(below, rows) < edges
        up &= below < n
        if not np.count_nonzero(up):
            break
        below += up
    while True:  # down while the last counted position does not
        down = at(below - 1, rows) >= edges
        down &= below > 0
        if not np.count_nonzero(down):
            break
        below -= down
    return below


def _counts_in_groups(positions, weights, n: int, rngs, out) -> np.ndarray:
    """Every row's counts, drawn and counted a group of rows at a time at
    the positions ``positions(rngs, n, rows)`` builds for a group of rows:
    the (at, offsets, margin) of `_below`.

    A group holds at most `SLAB` positions or edges (one row when a row
    has more).  ``positions`` gets the group's generators as an iterator,
    since taking a row's generator re-keys the generator the block's rows
    share (`rng.KeyedRows`): each row draws before the next row is taken.
    """
    weights, _, counts = _checked(weights, n, rngs, out)
    m, k = weights.shape
    g = max(1, min(m, SLAB // max(n, k + 1)))  # rows per group
    rows = iter(rngs)
    for a in range(0, m, g):
        b = min(a + g, m)
        _count_cells(weights[a:b], *positions(islice(rows, b - a), n, b - a), n, counts[a:b])
    return counts


def _systematic_positions(rngs, n: int, rows: int):
    """The positions rng.random() / n + j / n, j < n, of each row, given
    by that formula from the row's one offset; outside a margin of
    n * `_TIE_MARGIN` the guess of `_below` is exact."""
    offsets = np.array([rng.random() / n for rng in rngs])

    def at(j, r):
        positions = np.divide(j, n)
        positions += offsets[r]
        return positions

    return at, offsets[:, None], n * _TIE_MARGIN


def _stratified_positions(rngs, n: int, rows: int):
    """The positions (j + u_j) / n, j < n, of each row, u_j uniform in
    order, drawn row by row as each row's generator is taken; margin 1
    steps every edge."""
    positions = np.empty((rows, n))
    for rng, row in zip(rngs, positions):
        for s in slabs(n):
            u = rng.random(s.stop - s.start)
            u += np.arange(s.start, s.stop, dtype=float)
            np.divide(u, n, out=row[s])
    flat = positions.reshape(-1)
    return lambda j, r: flat.take(j + r * n, mode="clip"), 0.0, 1.0


def systematic_resample(weights, n: int, rngs, out=None) -> np.ndarray:
    """One shared uniform offset per row; count_i brackets n*w_i within one unit."""
    return _counts_in_groups(_systematic_positions, weights, n, rngs, out)


def stratified_resample(weights, n: int, rngs, out=None) -> np.ndarray:
    """One independent uniform per stratum of width 1/n."""
    return _counts_in_groups(_stratified_positions, weights, n, rngs, out)


@dataclass(frozen=True)
class ResampleScheme:
    """A named scheme; ``resample(weights, n, rngs, out=None)`` as in the
    module doc."""

    kind: str
    resample: Callable[..., np.ndarray]


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


def check_counts(counts, shape: tuple[int, ...]) -> np.ndarray:
    """The counts as an array once they are checked for particles of the
    given shape: one nonnegative count per particle, each row summing to
    the row's particle count.  The lowest failing row is ``err.row``."""
    counts = np.asarray(counts)
    if counts.shape != shape:
        raise CountMismatch(f"counts shape {counts.shape} != {shape}")
    n = shape[-1]
    rows = counts.reshape(-1, n)
    ok = (rows.min(axis=1) >= 0) & (rows.sum(axis=1) == n)
    if not ok.all():
        raise at_row(CountMismatch(f"counts must be nonnegative and sum to {n}"),
                     int(np.argmin(ok)))
    return counts


def repeat_checked(particles: np.ndarray, counts: np.ndarray,
                   out: np.ndarray | None = None,
                   written: Callable[[int], None] | None = None) -> np.ndarray:
    """Row r of the particles, particle i repeated counts[r, i] times, for
    counts that passed `check_counts` (a 1-D particle vector is one row).

    The flattened block is repeated slab by slab into the C-contiguous
    `out` (a new array when None), which keeps every row in place because
    each row's counts sum to its length; after each slab, ``written``
    (when given) gets the offset into the flattened block below which
    every entry of out is written and every particle read, so a caller
    may then overwrite the particles below it.  A slab that owns more
    than `SLAB` copies (degenerate weights) writes them in smaller pieces
    (`_repeat_into`), so no step needs a full-size temporary.
    """
    out = np.empty(particles.shape) if out is None else out
    source, flat, target = particles.reshape(-1), counts.reshape(-1), out.reshape(-1)
    at = 0
    for s in slabs(len(source)):
        total = int(flat[s].sum())
        _repeat_into(target[at:at + total], source[s], flat[s])
        at += total
        if written is not None:
            written(min(at, s.stop))
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
