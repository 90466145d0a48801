import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfconv import RngStream, get_scheme, make_test_function, multinomial_resample, \
    stratified_resample, systematic_resample
from pfconv.engine import _estimate_rows
from pfconv.errors import CountMismatch, NotNormalized
from pfconv.resampling import _counts_from_positions, repeat_by_counts

ALL_SCHEMES = ["multinomial", "stratified", "systematic"]


# ---------------------------------------------------------------------------
# multinomial


def test_multinomial_degenerate_weights():
    counts = multinomial_resample([1.0, 0.0, 0.0], 3, RngStream(0))
    assert counts.tolist() == [3, 0, 0]


def test_multinomial_deterministic():
    w = [0.2, 0.3, 0.5]
    a = multinomial_resample(w, 3, RngStream(7))
    b = multinomial_resample(w, 3, RngStream(7))
    assert np.array_equal(a, b)


def test_multinomial_mean_count_matches_binomial():
    n, trials = 10 ** 5, 1000
    w = np.array([0.5, 0.5])
    # counts[0] ~ Binomial(n, 1/2); averaging over trials shrinks sigma
    counts0 = np.array([
        multinomial_resample(w, n, RngStream(1, (t,)))[0] for t in range(trials)
    ])
    sigma = math.sqrt(n * 0.25 / trials)
    assert abs(counts0.mean() - n / 2) <= 3 * sigma


# ---------------------------------------------------------------------------
# systematic


def test_systematic_exact_integer_mass_uniform():
    for seed in range(50):
        counts = systematic_resample([0.25] * 4, 4, RngStream(seed))
        assert counts.tolist() == [1, 1, 1, 1]


def test_systematic_exact_integer_mass_seven_three():
    for seed in range(50):
        counts = systematic_resample([0.7, 0.3], 10, RngStream(seed))
        assert counts.tolist() == [7, 3]


def test_systematic_fractional_mass_enumerated_offsets():
    # u sweeps a fine grid of the offset in [0, 1/n)
    w = np.array([0.55, 0.45])
    n = 10
    for k in range(97):
        u = (k + 0.5) / 97 / n
        counts = _counts_from_positions(w, u + np.arange(n) / n)
        assert counts[0] in (5, 6)
        assert counts[0] + counts[1] == n


def test_systematic_bracketing_random_weights():
    rng = RngStream(5)
    for trial in range(300):
        w = rng.derive(trial).gen.dirichlet(np.ones(16))
        counts = systematic_resample(w, 16, rng.derive(1000 + trial))
        low = np.floor(16 * w)
        high = np.ceil(16 * w)
        assert np.all(counts >= low) and np.all(counts <= high)


# ---------------------------------------------------------------------------
# stratified


def test_stratified_uniform_exact():
    counts = stratified_resample([0.125] * 8, 8, RngStream(3))
    assert counts.tolist() == [1] * 8


def test_stratified_point_mass():
    counts = stratified_resample([1.0, 0.0], 5, RngStream(3))
    assert counts.tolist() == [5, 0]


def test_stratified_counts_near_expectation():
    n, trials = 8, 10 ** 4
    w = np.array([0.4, 0.3, 0.2, 0.05, 0.03, 0.01, 0.005, 0.005])
    totals = np.zeros(n)
    for t in range(trials):
        totals += stratified_resample(w, n, RngStream(2, (t,)))
    mean = totals / trials
    sigma = np.sqrt(n * w * (1 - w) / trials)  # binomial envelope
    assert np.all(np.abs(mean - n * w) <= 3 * sigma + 1e-9)


def test_stratified_counts_within_two_of_target():
    rng = RngStream(8)
    for trial in range(300):
        w = rng.derive(trial).gen.dirichlet(np.ones(12))
        counts = stratified_resample(w, 12, rng.derive(9000 + trial))
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
        counts = scheme.resample(w, k, rng.derive(1, trial))
        assert counts.sum() == k
        assert np.all(counts >= 0)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_not_normalized_rejected(name):
    scheme = get_scheme(name)
    with pytest.raises(NotNormalized):
        scheme.resample(np.array([0.5, 0.6]), 2, RngStream(0))
    with pytest.raises(NotNormalized):
        scheme.resample(np.array([0.7, -0.3, 0.6]), 3, RngStream(0))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 32),
       name=st.sampled_from(ALL_SCHEMES))
def test_counts_contract_property(seed, k, name):
    scheme = get_scheme(name)
    w = RngStream(seed, (0,)).gen.dirichlet(np.ones(k))
    counts = scheme.resample(w, k, RngStream(seed, (1,)))
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
# repeat_by_counts


def test_repeat_by_counts_all_mass_on_first():
    out = repeat_by_counts(np.array([4.0, 5.0, 6.0]), np.array([3, 0, 0]))
    assert out.tolist() == [4.0, 4.0, 4.0]


def test_repeat_by_counts_identity():
    out = repeat_by_counts(np.array([4.0, 5.0, 6.0]), np.array([1, 1, 1]))
    assert out.tolist() == [4.0, 5.0, 6.0]


def test_repeat_by_counts_estimate_is_count_average():
    # the post-resampling estimate of a filter step: uniform weights 1/N
    particles = np.array([1.0, 2.0, 4.0])
    counts = np.array([2, 0, 1])
    out = repeat_by_counts(particles, counts)
    uniform = np.exp(np.full(3, -math.log(3)))
    phi = make_test_function("min_cap(10)")
    expected = float(counts @ phi(particles)) / 3
    value = float(_estimate_rows(uniform, np.sum(uniform), out[None], phi)[0])
    assert value == pytest.approx(expected, rel=1e-15)


def test_repeat_by_counts_errors():
    particles = np.array([1.0, 2.0])
    with pytest.raises(CountMismatch):
        repeat_by_counts(particles, np.array([1, 1, 0]))
    with pytest.raises(CountMismatch):
        repeat_by_counts(particles, np.array([2, 1]))
    with pytest.raises(CountMismatch):
        repeat_by_counts(particles, np.array([3, -1]))


# ---------------------------------------------------------------------------
# blocks: M rows at once


def _weight_block(m, k, seed=4):
    return np.array([RngStream(seed, (r,)).gen.dirichlet(np.ones(k)) for r in range(m)])


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_block_rows_equal_one_row_calls(name):
    scheme = get_scheme(name)
    w = _weight_block(5, 12)
    for n in (12, 30):
        streams = [RngStream(6, (n, r)) for r in range(5)]
        block = scheme.resample(w, n, streams)
        assert block.shape == (5, 12) and block.dtype == np.int64
        rows = [scheme.resample(w[r], n, RngStream(6, (n, r))) for r in range(5)]
        assert np.array_equal(block, np.array(rows))


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_block_check_names_lowest_failing_row(name):
    w = _weight_block(5, 6)
    w[3] *= 1.1  # sum 1.1
    w[1, 0] = -w[1, 0]  # negative
    with pytest.raises(NotNormalized, match="nonnegative") as info:
        get_scheme(name).resample(w, 6, [RngStream(0, (r,)) for r in range(5)])
    assert info.value.row == 1


def test_block_needs_one_stream_per_row():
    with pytest.raises(ValueError):
        multinomial_resample(_weight_block(3, 4), 4, [RngStream(0), RngStream(1)])


def test_repeat_by_counts_block_keeps_rows_in_place():
    particles = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = repeat_by_counts(particles, np.array([[0, 3, 0], [2, 0, 1]]))
    assert out.tolist() == [[2.0, 2.0, 2.0], [4.0, 4.0, 6.0]]
    with pytest.raises(CountMismatch) as info:
        repeat_by_counts(particles, np.array([[0, 3, 0], [2, 0, 2]]))
    assert info.value.row == 1
