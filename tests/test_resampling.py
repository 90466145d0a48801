import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfconv import RngStream, get_scheme, make_test_function
from pfconv.engine import _estimate_rows
from pfconv.errors import CountMismatch, NotNormalized
from pfconv import resampling
from pfconv.resampling import check_counts, multinomial_resample, repeat_checked, \
    stratified_resample, systematic_resample
from pfconv.rng import KeyedRows, KeyPool

ALL_SCHEMES = ["multinomial", "stratified", "systematic"]


def _row(resample, w, n, stream):
    """The counts of one weight vector, resampled as a one-row block with
    the stream's generator."""
    return resample(np.asarray(w, dtype=float)[None], n, [stream.gen])[0]


def _counts_at(w, positions):
    """The counts of one weight vector at its given sorted positions
    (`resampling._count_cells`, every edge stepped from its guess)."""
    out = np.empty((1, len(w)), dtype=np.int64)
    resampling._count_cells(np.asarray(w, dtype=float)[None],
                            lambda j, rows: positions.take(j, mode="clip"), 0.0, 1.0,
                            len(positions), out)
    return out[0]


# ---------------------------------------------------------------------------
# multinomial


def test_multinomial_degenerate_weights():
    counts = _row(multinomial_resample, [1.0, 0.0, 0.0], 3, RngStream(0))
    assert counts.tolist() == [3, 0, 0]


def test_multinomial_deterministic():
    w = [0.2, 0.3, 0.5]
    a = _row(multinomial_resample, w, 3, RngStream(7))
    b = _row(multinomial_resample, w, 3, RngStream(7))
    assert np.array_equal(a, b)


def test_multinomial_mean_count_matches_binomial():
    n, trials = 10 ** 5, 1000
    w = np.array([0.5, 0.5])
    # counts[0] ~ Binomial(n, 1/2); averaging over trials shrinks sigma
    counts0 = np.array([
        _row(multinomial_resample, w, n, RngStream(1, (t,)))[0] for t in range(trials)
    ])
    sigma = math.sqrt(n * 0.25 / trials)
    assert abs(counts0.mean() - n / 2) <= 3 * sigma


# ---------------------------------------------------------------------------
# systematic


def test_systematic_exact_integer_mass_uniform():
    for seed in range(50):
        counts = _row(systematic_resample, [0.25] * 4, 4, RngStream(seed))
        assert counts.tolist() == [1, 1, 1, 1]


def test_systematic_exact_integer_mass_seven_three():
    for seed in range(50):
        counts = _row(systematic_resample, [0.7, 0.3], 10, RngStream(seed))
        assert counts.tolist() == [7, 3]


def test_systematic_fractional_mass_enumerated_offsets():
    # u sweeps a fine grid of the offset in [0, 1/n)
    w = np.array([0.55, 0.45])
    n = 10
    for k in range(97):
        u = (k + 0.5) / 97 / n
        counts = _counts_at(w, u + np.arange(n) / n)
        assert counts[0] in (5, 6)
        assert counts[0] + counts[1] == n


def test_systematic_bracketing_random_weights():
    rng = RngStream(5)
    for trial in range(300):
        w = rng.derive(trial).gen.dirichlet(np.ones(16))
        counts = _row(systematic_resample, w, 16, rng.derive(1000 + trial))
        low = np.floor(16 * w)
        high = np.ceil(16 * w)
        assert np.all(counts >= low) and np.all(counts <= high)


# ---------------------------------------------------------------------------
# stratified


def test_stratified_uniform_exact():
    counts = _row(stratified_resample, [0.125] * 8, 8, RngStream(3))
    assert counts.tolist() == [1] * 8


def test_stratified_point_mass():
    counts = _row(stratified_resample, [1.0, 0.0], 5, RngStream(3))
    assert counts.tolist() == [5, 0]


def test_stratified_counts_near_expectation():
    n, trials = 8, 10 ** 4
    w = np.array([0.4, 0.3, 0.2, 0.05, 0.03, 0.01, 0.005, 0.005])
    totals = np.zeros(n)
    for t in range(trials):
        totals += _row(stratified_resample, w, n, RngStream(2, (t,)))
    mean = totals / trials
    sigma = np.sqrt(n * w * (1 - w) / trials)  # binomial envelope
    assert np.all(np.abs(mean - n * w) <= 3 * sigma + 1e-9)


def test_stratified_counts_within_two_of_target():
    rng = RngStream(8)
    for trial in range(300):
        w = rng.derive(trial).gen.dirichlet(np.ones(12))
        counts = _row(stratified_resample, w, 12, rng.derive(9000 + trial))
        assert np.all(np.abs(counts - 12 * w) < 2)


# ---------------------------------------------------------------------------
# shared contracts


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_counts_sum_to_n(name):
    scheme = get_scheme(name)
    rng = RngStream(13)
    for trial in range(200):
        k = 1 + trial % 40
        w = rng.derive(0, trial).gen.dirichlet(np.ones(k))
        counts = _row(scheme.resample, w, k, rng.derive(1, trial))
        assert counts.sum() == k
        assert np.all(counts >= 0)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_not_normalized_rejected(name):
    scheme = get_scheme(name)
    with pytest.raises(NotNormalized):
        _row(scheme.resample, np.array([0.5, 0.6]), 2, RngStream(0))
    with pytest.raises(NotNormalized):
        _row(scheme.resample, np.array([0.7, -0.3, 0.6]), 3, RngStream(0))


def _bincount_counts(weights, positions):
    """The earlier counting, kept as the reference: each position's cell
    by searchsorted(cum, position, "right"), then one bincount."""
    cum = np.cumsum(weights)
    cum[-1] = max(cum[-1], 1.0)
    return np.bincount(np.searchsorted(cum, positions, side="right"),
                       minlength=len(weights))


BINCOUNT_POSITIONS = {  # the earlier position arrays, drawn from one generator
    "systematic": lambda gen, n: gen.random() / n + np.arange(n) / n,
    "stratified": lambda gen, n: (np.arange(n) + gen.random(n)) / n,
}
SIZES = st.integers(1, 40) | st.sampled_from([3000, 8191, 8192, 8193, 2 * 8192 + 3])
SLAB = resampling.SLAB


def _zeros_at_slab_edges(gen, m, k, n):
    # zero-weight cells on both sides of each column-slab boundary and at
    # the two outer cells, whenever a positive cell is left
    w = gen.dirichlet(np.ones(k), size=m)
    zero = [c for c in (0, SLAB - 2, SLAB - 1, SLAB, SLAB + 1, 2 * SLAB - 1, 2 * SLAB,
                        k - 1) if c < k]
    if len(set(zero)) < k:
        w[:, zero] = 0.0
    return w / w.sum(axis=1, keepdims=True)


BINCOUNT_WEIGHTS = {
    "dirichlet": lambda gen, m, k, n: gen.dirichlet(np.ones(k), size=m),
    # multiples of 1/n: with n a power of two every edge is exact, and at a
    # zero offset (`_ZERO`) the edges land exactly on positions
    "multiples": lambda gen, m, k, n: gen.multinomial(n, np.ones(k) / k, size=m) / n,
    "slab_zeros": _zeros_at_slab_edges,
}


# a generator whose every uniform is 0.0: position j is exactly j / n
_ZERO = SimpleNamespace(random=lambda size=None: 0.0 if size is None else np.zeros(size))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(0, 4), k=SIZES, n=SIZES,
       name=st.sampled_from(sorted(BINCOUNT_POSITIONS)),
       weights=st.sampled_from(sorted(BINCOUNT_WEIGHTS)), zero=st.booleans())
@example(seed=1, m=2, k=SLAB + 1, n=2 * SLAB, name="systematic", weights="multiples",
         zero=True)  # ties at every edge, in both column slabs
@example(seed=1, m=2, k=SLAB + 1, n=2 * SLAB, name="stratified", weights="multiples",
         zero=True)
@example(seed=2, m=1, k=2 * SLAB + 3, n=2 * SLAB + 3, name="systematic",
         weights="slab_zeros", zero=False)
@example(seed=3, m=2, k=3, n=5 * SLAB + 1, name="systematic", weights="dirichlet",
         zero=False)  # n >> K
@example(seed=3, m=0, k=1, n=5 * SLAB + 1, name="stratified", weights="dirichlet",
         zero=False)
@example(seed=4, m=9, k=2000, n=2000, name="systematic", weights="slab_zeros",
         zero=False)  # groups of 4, 4 and 1 rows
@example(seed=4, m=60, k=40, n=300, name="stratified", weights="multiples",
         zero=True)  # groups of 27, 27 and 6 rows
def test_counts_equal_the_bincount_counts(seed, m, k, n, name, weights, zero):
    # m = 0 is one row, as m = 1; blocks of rows are counted in groups,
    # which split a block when its rows hold more than a slab together
    w = BINCOUNT_WEIGHTS[weights](RngStream(seed, (0,)).gen, max(m, 1), k, n)
    gens = [_ZERO if zero else RngStream(seed, (1, r)).gen for r in range(len(w))]
    counts = get_scheme(name).resample(w, n, gens)
    for r, (row, row_weights) in enumerate(zip(counts, w)):
        gen = _ZERO if zero else RngStream(seed, (1, r)).gen
        positions = BINCOUNT_POSITIONS[name](gen, n)
        assert np.array_equal(row, _bincount_counts(row_weights, positions))


@pytest.mark.parametrize("name", ALL_SCHEMES)
@pytest.mark.parametrize("m, k, n", [(0, 12, 12), (0, 5, 40), (5, 12, 12), (3, 40, 300),
                                     (2, SLAB + 3, SLAB + 3)])
def test_counts_go_into_the_given_buffer(name, m, k, n):
    scheme = get_scheme(name)
    w = _weight_block(max(m, 1), k)  # m = 0: one row, as a 1-D vector's block

    def call(**out):  # fresh generators, so every call makes the same draws
        return scheme.resample(w, n, [RngStream(8, (r,)).gen for r in range(len(w))],
                               **out)

    expected = call()
    buffer = np.full(expected.shape, np.nan)  # int64 view of a float buffer,
    out = buffer.view(np.int64)               # as the engine passes it
    assert call(out=out) is out
    assert out.dtype == np.int64 and np.array_equal(out, expected)
    for wrong in (np.empty(expected.shape), np.empty(expected.shape + (1,), np.int64)):
        with pytest.raises(ValueError, match="int64 array of shape"):
            call(out=wrong)


@pytest.mark.parametrize("name", ALL_SCHEMES)
@pytest.mark.parametrize("m, k", [(1, 3001), (3, 3001), (1, 3 * SLAB + 5),
                                  (3, 3 * SLAB + 5)])
def test_counts_over_the_weights_equal_the_counts_in_a_fresh_array(name, m, k):
    # the engine writes the counts over its weights: a scheme must read
    # each row or slab of weights before it writes that row's or slab's
    # counts, here across rows and across the slabs of long rows
    scheme = get_scheme(name)
    w = _weight_block(m, k)

    def call(weights, out):  # fresh generators, so every call makes the same draws
        return scheme.resample(weights, k, [RngStream(9, (r,)).gen for r in range(m)],
                               out=out)

    expected = call(w, np.empty(w.shape, dtype=np.int64))
    shared = w.copy()
    out = shared.view(np.int64)
    assert call(shared, out) is out
    assert np.array_equal(out, expected)


def test_positions_on_the_edges_count_as_at_the_cumsum_edges():
    # a position equal to an edge counts in the cell above it, so each
    # count moves if one edge of a later slab differs from np.cumsum's
    w = RngStream(3).gen.dirichlet(np.ones(3 * 8192 + 5))
    positions = np.cumsum(w)[:-1]
    counts = _counts_at(w, positions)
    assert np.array_equal(counts, _bincount_counts(w, positions))
    assert counts.tolist() == [0] + [1] * (len(w) - 1)


def test_counts_of_uneven_positions_equal_the_bincount_counts():
    # positions far from even take more steps; fewer of them than cells
    gen = RngStream(5).gen
    w = gen.dirichlet(np.ones(5000))
    positions = np.sort(gen.random(3000) ** 4)
    assert np.array_equal(_counts_at(w, positions), _bincount_counts(w, positions))


_U_TOP = np.nextafter(1.0, 0.0)
# a generator whose every uniform is the largest double below 1
_TOP = SimpleNamespace(random=lambda size=None: _U_TOP if size is None
                       else np.full(size, _U_TOP))


def test_position_one_lands_in_the_last_cell():
    # the last position rounds to exactly 1.0 = cum[-1]: (1 + u) / 2 and u / 2 + 1 / 2
    assert _counts_at([0.5, 0.5], np.array([0.25, 1.0])).tolist() == [1, 1]
    w = np.array([[0.5, 0.5], [0.25, 0.75]])
    for name in ("systematic", "stratified"):
        scheme = get_scheme(name)
        assert scheme.resample(w[:1], 2, [_TOP]).tolist() == [[1, 1]]
        assert scheme.resample(w, 2, [_TOP, _TOP]).tolist() == [[1, 1], [0, 2]]


# systematic counts take the stepped search only near ties

TIE_SIZES = [1, 2, 7, SLAB, 3 * SLAB + 5, 2 ** 18]


def _systematic_positions(u: float, n: int) -> np.ndarray:
    """fl(fl(j / n) + u) for j < n, as the scheme computes its positions."""
    return np.divide(np.arange(n), n) + u


def _tie_edges(positions: np.ndarray, gen) -> np.ndarray:
    """Sorted edges in [0, 1]: at sampled positions, one ulp either side
    of them, 2**-43 either side (a scaled distance of n 2**-43 from an
    integer, inside the margin n 2**-40), 2**-38 either side (outside
    it), and uniform ones."""
    n = len(positions)
    p = positions if n <= 64 else positions[np.sort(gen.choice(n, 400, replace=False))]
    edges = np.concatenate([p, np.nextafter(p, -1.0), np.nextafter(p, 2.0),
                            p - 2.0 ** -43, p + 2.0 ** -43, p - 2.0 ** -38,
                            p + 2.0 ** -38, gen.random(200)])
    return np.sort(np.clip(edges, 0.0, 1.0))


@pytest.mark.parametrize("n", TIE_SIZES)
@pytest.mark.parametrize("rows", [1, 3])
def test_systematic_counts_below_tie_edges_equal_searchsorted(n, rows):
    gen = RngStream(n, (rows,)).gen
    uniforms = gen.random(rows)
    offsets = uniforms / n
    edges = np.array([_tie_edges(_systematic_positions(u, n), gen) for u in offsets])
    scaled = (edges - offsets[:, None]) * n
    assert np.any(np.abs(scaled - np.rint(scaled)) <= n * 2.0 ** -40)  # the search runs
    # the scheme's own positions, built from the uniforms of the offsets
    at, row_offsets, margin = resampling._systematic_positions(
        (SimpleNamespace(random=lambda v=v: v) for v in uniforms), n, rows)
    below = resampling._below(at, edges, row_offsets, n, margin)
    for row, row_edges, u in zip(below, edges, offsets):
        expected = np.searchsorted(_systematic_positions(u, n), row_edges, "left")
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("n", TIE_SIZES)
@pytest.mark.parametrize("m", [0, 3])  # 0: one row
def test_systematic_counts_at_tie_edges_equal_searchsorted(n, m):
    # the weights' cumulative sums land within a few ulps of positions
    rows = max(m, 1)
    offsets = [RngStream(n, (2, r)).gen.random() / n for r in range(rows)]
    gen = RngStream(n, (3,)).gen
    w = np.array([np.diff(_tie_edges(_systematic_positions(u, n), gen),
                          prepend=0.0, append=1.0) for u in offsets])
    counts = systematic_resample(w, n, [RngStream(n, (2, r)).gen for r in range(rows)])
    for row, row_weights, u in zip(counts, w, offsets):
        below = np.searchsorted(_systematic_positions(u, n), np.cumsum(row_weights)[:-1],
                                "left")
        assert np.array_equal(row, np.diff(below, prepend=0, append=n))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 32),
       name=st.sampled_from(ALL_SCHEMES))
def test_counts_contract_property(seed, k, name):
    scheme = get_scheme(name)
    w = RngStream(seed, (0,)).gen.dirichlet(np.ones(k))
    counts = _row(scheme.resample, w, k, RngStream(seed, (1,)))
    assert counts.sum() == k and np.all(counts >= 0)
    if name == "systematic":
        assert np.all(counts >= np.floor(k * w)) and np.all(counts <= np.ceil(k * w))


def test_multinomial_conditional_variance_contract():
    # Var[(resampled estimate) | weights] <= 1.5 * sup^2 / N for multinomial
    phi = make_test_function("exp_neg")
    for n in (100, 1000):
        gen = RngStream(17, (n,)).gen
        particles = gen.gamma(2.0, 1.0, n)
        w = gen.dirichlet(np.ones(n))
        vals = phi(particles)
        counts = gen.multinomial(n, w, size=10 ** 4)
        ests = counts @ vals / n
        assert ests.var(ddof=1) <= 1.5 * phi.sup_norm ** 2 / n


# ---------------------------------------------------------------------------
# duplication: repeat_checked of checked counts


def test_repeat_by_counts_all_mass_on_first():
    particles = np.array([4.0, 5.0, 6.0])
    out = repeat_checked(particles, check_counts(np.array([3, 0, 0]), particles.shape))
    assert out.tolist() == [4.0, 4.0, 4.0]


def test_repeat_by_counts_identity():
    particles = np.array([4.0, 5.0, 6.0])
    out = repeat_checked(particles, check_counts(np.array([1, 1, 1]), particles.shape))
    assert out.tolist() == [4.0, 5.0, 6.0]


def test_repeat_by_counts_estimate_is_count_average():
    # the post-resampling estimate of a filter step: uniform weights 1/N
    particles = np.array([1.0, 2.0, 4.0])
    counts = np.array([2, 0, 1])
    out = repeat_checked(particles, check_counts(counts, particles.shape))
    uniform = np.exp(np.full(3, -math.log(3)))
    phi = make_test_function("min_cap(10)")
    expected = float(counts @ phi(particles)) / 3
    value = float(_estimate_rows(uniform, np.sum(uniform), out[None], phi)[0])
    assert value == pytest.approx(expected, rel=1e-15)


def test_repeat_by_counts_errors():
    particles = np.array([1.0, 2.0])
    for counts in ([1, 1, 0], [2, 1], [3, -1]):
        with pytest.raises(CountMismatch):
            repeat_checked(particles, check_counts(np.array(counts), particles.shape))


# ---------------------------------------------------------------------------
# blocks: M rows at once


def _weight_block(m, k, seed=4):
    return np.array([RngStream(seed, (r,)).gen.dirichlet(np.ones(k)) for r in range(m)])


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_block_rows_equal_one_row_calls(name):
    scheme = get_scheme(name)
    w = _weight_block(5, 12)
    for n in (12, 30):
        block = scheme.resample(w, n, [RngStream(6, (n, r)).gen for r in range(5)])
        assert block.shape == (5, 12) and block.dtype == np.int64
        rows = [_row(scheme.resample, w[r], n, RngStream(6, (n, r))) for r in range(5)]
        assert np.array_equal(block, np.array(rows))


@pytest.mark.parametrize("name", ALL_SCHEMES)
@pytest.mark.parametrize("m, k", [(300, 32), (1, 3 * SLAB + 5)])
def test_rows_of_one_rekeyed_generator_equal_one_row_calls(name, m, k):
    # the engine hands a scheme one generator, re-keyed as each row is
    # taken (`KeyedRows`): every row must draw under its own key, also in
    # the second group of rows (300 rows of 32 are counted 248 at a time)
    # and across the slabs of a long row
    scheme = get_scheme(name)
    w = _weight_block(m, k)
    keys = KeyPool.of([RngStream(12, (r,)) for r in range(m)]).keys()
    block = scheme.resample(w, k, KeyedRows(np.random.Generator(np.random.Philox(key=0)),
                                            keys))
    for r, key in enumerate(keys):
        row = scheme.resample(w[r:r + 1], k, [np.random.Generator(np.random.Philox(key=key))])
        assert np.array_equal(block[r], row[0]), f"row {r}"


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_block_check_names_lowest_failing_row(name):
    w = _weight_block(5, 6)
    w[3] *= 1.1  # sum 1.1
    w[1, 0] = -w[1, 0]  # negative
    with pytest.raises(NotNormalized, match="nonnegative") as info:
        get_scheme(name).resample(w, 6, [RngStream(0, (r,)).gen for r in range(5)])
    assert info.value.row == 1


@pytest.mark.parametrize("name", ALL_SCHEMES)
@pytest.mark.parametrize("bad, message", [
    (math.nan, "weights must be nonnegative"),
    (-0.01, "weights must be nonnegative"),
    (0.75, "weights sum to 1.5"),
])
def test_block_check_names_a_failing_middle_row(name, bad, message):
    w = np.full((5, 4), 0.25)
    w[3, 0] = bad
    gens = [RngStream(0, (r,)).gen for r in range(5)]
    with pytest.raises(NotNormalized, match=message) as info:
        get_scheme(name).resample(w, 4, gens)
    assert info.value.row == 3
    assert get_scheme(name).resample(np.empty((0, 4)), 4, []).shape == (0, 4)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_weights_that_are_not_a_block_are_refused(name):
    # a scheme takes an (M, K) block and M generators; one weight vector is
    # the one-row block w[None]
    for w in (np.array([0.5, 0.5]), np.full((1, 1, 2), 0.5)):
        with pytest.raises(ValueError, match=r"need an \(M, K\) weight block"):
            get_scheme(name).resample(w, 2, [RngStream(0).gen])


def test_block_needs_one_stream_per_row():
    with pytest.raises(ValueError):
        multinomial_resample(_weight_block(3, 4), 4, [RngStream(0).gen, RngStream(1).gen])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.integers(1, 9),
       st.floats(0.01, 2.0), st.integers(0, 2 ** 32 - 1))
def test_repeat_by_counts_equals_np_repeat_at_any_slab(m, n, slab, alpha, seed):
    # small slabs split the block and each slab's copies into many pieces;
    # a small alpha piles a row's counts onto a few particles
    gen = np.random.default_rng(seed)
    particles = gen.random((m, n))
    counts = np.array([gen.multinomial(n, gen.dirichlet(np.full(n, alpha)))
                       for _ in range(m)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resampling, "SLAB", slab)
        out = repeat_checked(particles, check_counts(counts, particles.shape))
    expected = [np.repeat(p, c) for p, c in zip(particles, counts)]
    assert np.array_equal(out, np.array(expected))


def test_repeat_by_counts_of_degenerate_counts_needs_no_full_size_temporary():
    # every copy from one particle: the slab that owns it writes 2^18 copies
    n = 2 ** 18
    particles = np.arange(float(n))
    counts = np.zeros(n, dtype=np.int64)
    counts[5] = n
    out = np.empty(n)
    tracemalloc.start()
    try:
        repeat_checked(particles, check_counts(counts, particles.shape), out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out == 5.0).all()
    assert peak <= 8 * resampling.SLAB * 8  # a few slabs; one copy of out is 2 MiB


def test_repeat_by_counts_block_keeps_rows_in_place():
    particles = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    counts = check_counts(np.array([[0, 3, 0], [2, 0, 1]]), particles.shape)
    assert repeat_checked(particles, counts).tolist() == [[2.0, 2.0, 2.0], [4.0, 4.0, 6.0]]
    with pytest.raises(CountMismatch) as info:
        check_counts(np.array([[0, 3, 0], [2, 0, 2]]), particles.shape)
    assert info.value.row == 1
