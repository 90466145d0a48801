"""The particle filter engine.

A filter runs as one array pipeline over an (M, N) state: M replicate
filters of N particles each, one row per replicate, so a single filter
is the M = 1 case.  Row r has its own root stream; at step t it draws
its proposals from ``root_r.derive(t, 0)`` and then its resampling
counts from ``root_r.derive(t, 1)``, exactly as a one-row run does.  A
row's results therefore do not depend on which rows share its block.

The streams' keys are derived per block (`rng.KeyPool`): numpy's
SeedSequence fills the rows' root pools once per block.  Only the
per-step absorb, which adds each step t once per step and then each of
t's two branches (0 for propose, 1 for resample) to it, and the output hash
that turns the pools into keys are vectorized copies of SeedSequence's
code.  The block owns one bare Philox generator and re-keys it row by
row (`rng.KeyedRows`) instead of building two generators per row and
step, so every draw is the one a separately built stream would make.
The model's samplers and the resampling scheme get that generator
itself.  Each step's streams are keyed by its label t, so a block's
labels must be distinct.

One step moves every row through propose -> weight -> normalize ->
estimate -> resample; every row resamples at every step, the filter
the convergence guarantees are stated for.  Normalize is one stage
(`_normalize_rows`): it rejects a row of zero weights, shifts each row
by its maximum, and gives the row's evidence increment (the log of its
mean raw weight), its checked weight sum and its effective sample size
1 / sum(w_i^2).  Proposals and resampling counts are drawn row by row;
weighting, normalization, the estimates, the weight and count checks
and the particle duplication are evaluated once on the whole block.
Each step writes its results in place into the block's one
`FilterBlock` of (T, M) and (T, M, P) arrays: a study reads its
estimates off it, and `run_filters` returns row r as a `FilterRun` of
views.

A block allocates three (M, N) buffers once (`_Workspace`), 24 bytes a
particle, and every step writes into them.  The parents are dead once
the raw log weights are computed, so their buffer is the scratch of
normalizing and estimating until it receives the resampled particles;
the log weights are normalized in place, and the resampling counts go
over the weights, as int64, since every scheme reads a slab of weights
before it writes that slab's counts.  So a step of a large block
allocates nothing at full size with systematic resampling, whose counts
need no row of positions, and only numpy's own count vector with
multinomial.  The stages that work entry by entry (drawing, the
densities and log weights, the test functions, the duplication) run
over slabs of at most `resampling.SLAB` entries of the flattened block,
in order, and keep their temporaries slab-sized; a block of at most
that many particles is one slab.  The row sums are taken over whole
rows of the buffers, so the slabs change no bit of any result: the
model callables are pointwise and draw one state per entry, in order
(`model.StateSpaceModel`, `model.Proposal`).

A block of at least `DRAW_THREAD_SLABS` slabs draws its proposals on a
helper thread when the run may use two cores (`cores.resolve_workers`,
so ``PFCONV_WORKERS=1`` turns it off; a study passes 1, since its cells
already run in processes).  The helper draws a step ahead: once step t's
counts pass their checks, it draws step t + 1 (`_Draws`, `_draw_rows`,
row by row and slab by slab) into the proposals' buffer behind the
duplication, while the calling thread duplicates step t's proposals
into the parents' buffer and estimates after resampling.  The helper
draws each slab once the caller has published that its parents are
written and its old proposals read (`_Progress`, `repeat_checked`), and
the caller weighs step t + 1 slab by slab as the helper publishes the
slabs drawn (`_raw_log_weights`), then normalizes, estimates, counts and
duplicates as before.  Without the helper the caller draws step t + 1's
proposals when it first waits for them, at the start of the step's
weighing: the loop and the buffers are the same, and only the thread
that draws differs.

The bits do not depend on the thread.  One thread makes every draw, from
the same streams in the same order, and the block's one generator is
never used by two threads at once: the counts of step t are drawn
before step t + 1's proposals start, and step t + 1's counts after they
end.  The weights are computed entry by entry, and every row reduction
runs whole-row on the caller once the draws it needs are done.  Errors
keep the inline order too.  Within a step, the caller waits for the
helper before it raises, so a proposal error in any slab wins over a
weight error, which names the lowest particle as before.  An error the
caller meets after step t + 1's draws have started, in the duplication
or in the estimates after resampling, is step t's and wins: the caller
stops the helper at the first parents not yet written, waits for it to
end and drops its error.  The thread lives for one run.

All weight arithmetic is done in the log domain with max-shifted
summation because the shipped models produce weights spanning hundreds
of orders of magnitude (the proposal density can vanish at points where
the target does not).

The log weight of a proposed point x given its parent x' is

    log g(y | x) + (log f(x | x') - log q(x | x', y))

with the difference grouped so that a bootstrap proposal (q identical
to f) cancels exactly, bit for bit, leaving the log likelihood.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, suppress
from functools import partial, reduce
from operator import add
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .cores import resolve_workers
from .errors import DegenerateWeights, DomainError, PfconvError, WeightNotFinite, \
    at_row
from .model import Proposal, StateSpaceModel, TestFunction
from .particles import FilterRun
from .resampling import ResampleScheme, check_counts, repeat_checked, slabs
from .rng import KeyedRows, KeyPool, RngStream

# The fewest slabs a block needs before its proposals are drawn on a
# helper thread.  Below it the thread gained no wall time: on 2 vCPUs
# (numpy 2.4.6, Python 3.11), 50 Gamma/systematic steps at N = 10000
# to 65536 ran 2-10% slower with it and N = 98304 (12 slabs) 5% faster,
# inside the runs' spread; from 16 slabs (N = 131072) they ran 12-27%
# faster (medians over alternating fresh processes, each timing 4-5
# runs after a warm-up run).
DRAW_THREAD_SLABS = 16

_NORMALIZATION_RTOL = 1e-12  # how far a row's normalized weights may sum from 1


# ---------------------------------------------------------------------------
# row kernels: each works on an (M, N) block, row r being replicate r


class _Workspace(NamedTuple):
    """The three (M, N) buffers every step of a block reuses.

    ``x`` holds the parents; once the raw log weights are computed it is
    the scratch of normalizing and estimating, and then it receives the
    resampled particles.  ``proposed`` holds the proposed particles; the
    next step's are drawn into it behind the duplication, each slab once
    its old proposals are read.  ``lw`` holds the raw log weights, then
    the normalized weights, written in place, and then, as int64, the
    resampling counts.
    """

    x: np.ndarray
    proposed: np.ndarray
    lw: np.ndarray


def _draw_rows(sample: Callable, rngs, out: np.ndarray, source: str,
               ready: Callable[[int], None] | None = None,
               drawn: Callable[[int], None] | None = None) -> None:
    """Draw out[r, s] = sample(r, s, rngs[r]) slab s by slab s of each row
    r; a row's slabs draw from its generator in order, and an error,
    a draw of the wrong shape too, names its row.  Around each slab,
    ``ready`` (when given) gets the offset into the flattened block it
    ends at and returns once the parents are written up to it, and then
    ``drawn`` (when given) gets that offset, below which every entry of
    out is drawn."""
    n = out.shape[1]
    row_slabs = slabs(n)
    for r, rng in enumerate(rngs):
        try:
            for s in row_slabs:
                if ready is not None:
                    ready(r * n + s.stop)
                size = s.stop - s.start
                x = np.asarray(sample(r, s, rng), dtype=float)
                if x.shape != (size,):
                    raise DomainError(f"{source} returned shape {x.shape} for {size} particles")
                out[r, s] = x
                if drawn is not None:
                    drawn(r * n + s.stop)
        except PfconvError as err:
            raise at_row(err, r)


class _Progress:
    """How far one thread has written a block: the flat offset it
    published last, or the error that stopped it."""

    def __init__(self):
        self._changed = threading.Condition()
        self._upto = 0
        self._error: BaseException | None = None

    def publish(self, upto: int) -> None:
        with self._changed:
            self._upto = upto
            self._changed.notify()

    def stop(self, err: BaseException) -> None:
        with self._changed:
            self._error = err
            self._changed.notify()

    def wait(self, upto: int) -> None:
        """Return once the entries below flat offset upto are written; raise
        the writer's error when it stopped short of it."""
        with self._changed:
            self._changed.wait_for(lambda: self._upto >= upto or self._error is not None)
            if self._upto < upto:
                raise self._error


class _Abandoned(Exception):
    """The caller stopped before it wrote the parents of the draws."""


class _Draws:
    """One step's proposals, `_draw_rows` of ``args``, drawn from parents
    the caller writes and publishes to ``parents``.

    With a pool, its one thread draws each slab once its parents are
    written and publishes how far it has drawn; without one, the caller
    draws them all when it first waits for them.
    """

    def __init__(self, pool: ThreadPoolExecutor | None, *args):
        self.parents, self._drawn, self._args = _Progress(), _Progress(), args
        self._future = None if pool is None else pool.submit(self._run)
        self._pending = pool is None

    def _run(self) -> None:
        try:
            _draw_rows(*self._args, ready=self.parents.wait, drawn=self._drawn.publish)
        except BaseException as err:
            self._drawn.stop(err)
            raise

    def wait(self, upto: int) -> None:
        """Return once the entries below flat offset upto are drawn; raise
        the draws' error when they stopped short of it."""
        if self._pending:
            self._pending = False
            _draw_rows(*self._args)
        elif self._future is not None:
            self._drawn.wait(upto)

    def result(self) -> None:
        """Wait for the helper's draws to end; raise their error."""
        if self._future is not None:
            self._future.result()

    def abandon(self) -> None:
        """Stop the draws at the first parents not yet written and wait for
        them to end, dropping their error: the caller raises its own."""
        self.parents.stop(_Abandoned())
        if self._future is not None:
            with suppress(Exception):
                self._future.result()


def _raw_log_weights(model, proposal, x_t, x_prev, y,
                     out: np.ndarray | None = None,
                     ready: Callable[[int], None] | None = None) -> np.ndarray:
    """The raw log weights of the points x_t proposed from the parents
    x_prev (same shape), into out (a new array when None).

    They are computed and checked slab by slab along the flattened block,
    so the first non-finite weight found is the lowest one, and an (M, N)
    block reports its row.  Before each slab, ``ready`` (when given) gets
    the flat offset the slab ends at and returns once x_t is drawn up to
    it (`_Draws.wait`).
    """
    lw = np.empty(np.shape(x_t)) if out is None else out
    flat_x, flat = np.ravel(x_t), lw.reshape(-1)
    flat_prev = np.broadcast_to(x_prev, lw.shape).reshape(-1)
    for s in slabs(flat.size):
        if ready is not None:
            ready(s.stop)
        x, xp, slab = flat_x[s], flat_prev[s], flat[s]
        lq = np.asarray(proposal.logdensity(x, xp, y), dtype=float)
        lf = np.asarray(model.transition_logdensity(x, xp), dtype=float)
        lg = np.asarray(model.likelihood_logdensity(y, x), dtype=float)
        with np.errstate(invalid="ignore"):
            np.add(lg, lf - lq, out=slab)
        if slab.max() < math.inf:  # False at NaN or +inf
            continue
        i = int(np.argmax(np.isnan(slab) | np.isposinf(slab)))
        row, particle = divmod(s.start + i, lw.shape[-1])

        def value(a):
            return float(np.broadcast_to(np.asarray(a, dtype=float), slab.shape)[i])

        err = WeightNotFinite(
            f"non-finite log weight at particle {particle}: x={value(x)!r} "
            f"(log q={value(lq)!r}, log f={value(lf)!r}, log g={value(lg)!r})"
        )
        raise at_row(err, row) if lw.ndim == 2 else err
    return lw


def _checked_sums(w: np.ndarray) -> np.ndarray:
    """Each row's sum of normalized weights; raise when one is not 1."""
    total = w.sum(axis=1)
    off = ~(np.abs(total - 1.0) <= _NORMALIZATION_RTOL * np.maximum(np.abs(total), 1.0))
    if np.any(off):
        r = int(np.argmax(off))
        raise at_row(DomainError(f"normalized weights sum to {float(total[r])!r}, not 1"), r)
    return total


def _normalize_rows(lw: np.ndarray, scratch: np.ndarray):
    """Normalize each row of the raw log weights lw into its weights, in
    place; return per row the evidence increment (the log of the mean raw
    weight), the weight sum and the effective sample size 1 / sum(w_i^2).

    A row whose weights are all zero raises DegenerateWeights.  Each row
    is shifted by its maximum, which is exact in floating point for the
    dominant weights, so the normalized weights sum to 1 to within a few
    ulps even when the raw magnitudes are ~1e6.  The effective sample
    size lies in [1, N] and equals N exactly iff the row's normalized log
    weights are all equal (detected exactly so the boundary case is not
    blurred by rounding).  scratch, of lw's shape, holds the squared
    weights on return.
    """
    n = lw.shape[1]
    top = lw.max(axis=1)
    dead = top == -math.inf
    if np.any(dead):
        raise at_row(DegenerateWeights("all particles have zero weight"),
                      int(np.argmax(dead)))
    lw -= top[:, None]
    sums = np.exp(lw, out=scratch).sum(axis=1).tolist()
    evidence = [m + math.log(s / n) for m, s in zip(top.tolist(), sums)]
    lw -= np.array([math.log(s) for s in sums])[:, None]
    uniform = lw.max(axis=1) == lw.min(axis=1)
    total = _checked_sums(np.exp(lw, out=lw))
    squares = np.multiply(lw, lw, out=scratch)
    ess = np.minimum(np.maximum(1.0 / np.sum(squares, axis=1), 1.0), float(n))
    ess[uniform] = n
    return evidence, total, ess


def _estimate_rows(w, total, x: np.ndarray, phi: TestFunction,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Per row, sum(w * phi(x)) / total, with phi(x) evaluated slab by
    slab into out (a new array when None) and multiplied there by w."""
    # Same pairwise reduction for numerator and denominator, so phi == 1
    # yields exactly 1.0 and |result| never exceeds the sup-norm.
    terms = np.empty(x.shape) if out is None else out
    flat_x, flat = x.reshape(-1), terms.reshape(-1)
    for s in slabs(flat.size):
        flat[s] = phi(flat_x[s])
    terms *= w
    return np.sum(terms, axis=1) / total


class FilterBlock(NamedTuple):
    """Every step of every row of a block, written in place by `_step`.

    ``steps`` holds the T step labels.  At step i, row r has its effective
    sample size ``ess[i, r]``, its evidence increment
    ``log_mean_weight[i, r]``, and the estimates of test function p
    before and after resampling at ``estimates[i, r, p]`` and
    ``resampled[i, r, p]``.  ``clouds[i, :, r]`` holds its first K
    proposed particles, their normalized weights and its first K
    resampled particles; K is 0 unless clouds are recorded.
    """

    steps: np.ndarray  # (T,)
    ess: np.ndarray  # (T, M)
    log_mean_weight: np.ndarray  # (T, M)
    estimates: np.ndarray  # (T, M, P)
    resampled: np.ndarray  # (T, M, P)
    clouds: np.ndarray  # (T, 3, M, K)


def _step(ws: _Workspace, out: FilterBlock, i: int, model: StateSpaceModel,
          proposal: Proposal, y, resampler: ResampleScheme, resample_rngs: KeyedRows,
          test_functions: Sequence[TestFunction], resampled: tuple[float, float],
          draws: _Draws, draw_next: Callable[[], _Draws] | None) -> _Draws | None:
    """One weight/normalize/estimate/resample cycle of every row, of the
    proposals ``draws`` makes into ``ws.proposed``, written to step i of
    ``out``; return the next step's draws.

    The parents in ``ws.x`` are replaced by the resampled particles.
    ``resample_rngs`` are the rows' resample generators for this step, and
    ``resampled`` the weight of a resampled particle and its row sum.
    Once the counts pass their checks, ``draw_next`` (None at the last
    step) starts the next step's draws into ``ws.proposed``, and the
    duplication publishes how far it has written the parents and read the
    proposals.
    """
    x, proposed, lw = ws
    n = x.shape[1]
    try:
        _raw_log_weights(model, proposal, proposed, x, y, lw, draws.wait)
    finally:  # the draws end before anything is raised, and their error wins
        draws.result()
    # the parents are dead from here on: x is scratch until the duplication
    out.log_mean_weight[i], total, out.ess[i] = _normalize_rows(lw, x)
    for p, phi in enumerate(test_functions):
        out.estimates[i, :, p] = _estimate_rows(lw, total, proposed, phi, x)
    k = out.clouds.shape[-1]
    out.clouds[i, :2] = proposed[:, :k], lw[:, :k]  # before the counts go over lw

    counts = check_counts(resampler.resample(lw, n, resample_rngs, out=lw.view(np.int64)),
                          x.shape)
    following = None if draw_next is None else draw_next()
    try:
        repeat_checked(proposed, counts, x,
                       None if following is None else following.parents.publish)
        for p, phi in enumerate(test_functions):  # the counts are dead: lw is scratch
            out.resampled[i, :, p] = _estimate_rows(*resampled, x, phi, lw)
    except BaseException:
        if following is not None:
            following.abandon()
        raise
    out.clouds[i, 2] = x[:, :k]
    return following


# ---------------------------------------------------------------------------
# batched runs


def _run_block(model: StateSpaceModel, proposal: Proposal,
               observations: Iterable[tuple[int, object]], n: int,
               resampler: ResampleScheme, roots: Sequence[RngStream],
               test_functions: Sequence[TestFunction] = (),
               record_clouds: int = 0, workers: int | None = None) -> FilterBlock:
    """Every step of one filter per root stream, run as one (M, N) block
    into one `FilterBlock`, with clouds of ``record_clouds`` particles (at
    most N); a block of at least `DRAW_THREAD_SLABS` slabs draws its
    proposals on a helper thread when ``resolve_workers(workers)`` allows
    two threads.  Errors as in `run_filters`."""
    steps = [(int(t), y) for t, y in observations]
    if not steps:
        raise ValueError("observations must be nonempty")
    labels = [t for t, _ in steps]
    if min(labels) < 1:
        raise ValueError("step indices must be >= 1 (label 0 keys the prior draw)")
    if len(set(labels)) < len(labels):
        t = next(t for i, t in enumerate(labels) if t in labels[:i])
        raise ValueError(f"step index t={t} repeats (each step's streams are keyed by it)")
    if n < 1:
        raise ValueError("particle count must be >= 1")
    if not roots:
        raise ValueError("need at least one stream")
    pool = KeyPool.of(roots)
    keys = pool.absorb(0).keys()
    from numpy.random import Generator, Philox  # on first draw, not at import
    gen = Generator(Philox(key=0))  # the block's one generator, re-keyed row by row
    uniform = np.exp(np.full(n, -math.log(n)))  # the weights of a resampled row
    resampled = (uniform[0], np.sum(uniform))  # all N entries are equal
    del uniform  # not held while the block runs
    ws = _Workspace(*(np.empty((len(roots), n)) for _ in _Workspace._fields))
    _draw_rows(lambda r, s, rng: model.prior_sample(rng, s.stop - s.start),
               KeyedRows(gen, keys), ws.x, "prior_sample")
    m, p, k = len(roots), len(test_functions), max(0, min(record_clouds, n))
    out = FilterBlock(np.array(labels),
                      np.empty((len(steps), m)), np.empty((len(steps), m)),
                      np.empty((len(steps), m, p)), np.empty((len(steps), m, p)),
                      np.empty((len(steps), 3, m, k)))
    streams = []  # per step, the rows' propose and resample generators
    for t, _ in steps:
        stepped = pool.absorb(t)
        streams.append((KeyedRows(gen, stepped.absorb(0).keys()),
                        KeyedRows(gen, stepped.absorb(1).keys())))
    threaded = (resolve_workers(workers) > 1  # checks PFCONV_WORKERS at any size
                and len(slabs(ws.x.size)) >= DRAW_THREAD_SLABS)
    with ThreadPoolExecutor(1) if threaded else nullcontext() as helper:
        def draws(i: int) -> _Draws:
            """Step i's proposals from the parents in ws.x into ws.proposed."""
            y = steps[i][1]
            return _Draws(helper, lambda r, s, rng: proposal.propose(ws.x[r, s], y, rng),
                          streams[i][0], ws.proposed, "proposal")

        step_draws = draws(0)
        step_draws.parents.publish(ws.x.size)  # the prior draws are all written
        for i, (t, y) in enumerate(steps):
            draw_next = None if i + 1 == len(steps) else partial(draws, i + 1)
            try:
                step_draws = _step(ws, out, i, model, proposal, y, resampler,
                                   streams[i][1], test_functions, resampled, step_draws,
                                   draw_next)
            except PfconvError as err:
                row = "" if err.row is None else f", row {err.row}"
                raise at_row(type(err)(f"filter step t={t}{row}: {err}"),
                             err.row) from err
    return out


def run_filters(model: StateSpaceModel, proposal: Proposal,
                observations: Iterable[tuple[int, object]], n: int,
                resampler: ResampleScheme, streams: Sequence[int | RngStream],
                test_functions: Sequence[TestFunction] = (),
                record_clouds: int = 0) -> tuple[FilterRun, ...]:
    """Run one filter per root stream over a (t, y) sequence, as one block.

    ``streams[r]`` (a stream or a master seed) is row r's root stream, and
    row r's run is the run `run_filter` gives for that stream alone,
    whether or not its proposals are drawn on a second thread.  A step
    error carries the failing step in its message and, when one row
    raised it, that row in the message and in ``err.row``.
    """
    roots = [s if isinstance(s, RngStream) else RngStream(s) for s in streams]
    block = _run_block(model, proposal, observations, n, resampler, roots,
                       test_functions, record_clouds)
    for a in block:  # every row's run views these arrays, and all share steps
        a.setflags(write=False)
    names = [phi.name for phi in test_functions]
    return tuple(FilterRun(
        steps=block.steps,
        estimates={name: block.estimates[:, r, p] for p, name in enumerate(names)},
        resampled_estimates={name: block.resampled[:, r, p]
                             for p, name in enumerate(names)},
        ess=block.ess[:, r], log_mean_weight=block.log_mean_weight[:, r],
        clouds=block.clouds[:, :, r],
        # a left-to-right sum in step order: np.sum pairs, and sum() compensates
        log_evidence=reduce(add, block.log_mean_weight[:, r].tolist(), 0.0))
        for r in range(len(roots)))


def run_filter(model: StateSpaceModel, proposal: Proposal,
               observations: Iterable[tuple[int, object]], n: int,
               resampler: ResampleScheme, master_seed: int | RngStream,
               test_functions: Sequence[TestFunction] = (),
               record_clouds: int = 0) -> FilterRun:
    """Run the filter over a (t, y) sequence, resampling at every step.

    Deterministic in (master_seed, n): the same seed always yields the
    same run.  Step errors propagate with the failing step attached.
    """
    return run_filters(model, proposal, observations, n, resampler, [master_seed],
                       test_functions, record_clouds)[0]
