import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pfconv import GridDensity, grid_estimate, grid_init, grid_predict, \
    grid_update, make_test_function, run_cox_grid_filter
from pfconv.cox import CoxParams, cox_likelihood_logdensity, cox_transition_logdensity
from pfconv.errors import DomainError, ZeroMass
from pfconv import gridfilter
from pfconv.gridfilter import folded_normal_prior

EXP_NEG = make_test_function("exp_neg")
ONE = make_test_function("one")


def test_grid_init_normalizes():
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    assert np.sum(grid.values) * grid.dx == pytest.approx(1.0, abs=1e-9)
    assert grid.dx == pytest.approx(0.005)


def test_grid_init_mean_matches_folded_normal():
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    assert abs(grid.mean() - math.sqrt(2 / math.pi)) < 1e-3


def test_grid_init_mean_stable_under_refinement():
    a = grid_init(folded_normal_prior, 15.0, 3000).mean()
    b = grid_init(folded_normal_prior, 15.0, 6000).mean()
    assert abs(a - b) < 1e-5


def test_grid_init_zero_mass():
    with pytest.raises(ZeroMass):
        grid_init(lambda x: np.zeros_like(x), 15.0, 100)
    with pytest.raises(DomainError):
        grid_init(folded_normal_prior, 15.0, 5)


def test_grid_density_freezes_a_copy_of_a_writeable_input():
    values = np.ones(20)
    grid = GridDensity(2.0, values)
    values[0] = 2.0  # the caller's array stays writeable
    assert grid.values[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        grid.values[0] = 3.0
    assert GridDensity(2.0, grid.values).values is grid.values  # frozen: no copy


def test_grid_density_rejects_a_non_finite_x_max():
    for x_max in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match=f"^x_max must be finite and positive, "
                                              f"got {x_max!r}$"):
            GridDensity(x_max, np.ones(20))


def test_grid_predict_near_identity_kernel():
    grid = grid_init(folded_normal_prior, 15.0, 1500)
    out = grid_predict(grid, 1e-6)
    assert abs(out.mean() - grid.mean()) < 2 * grid.dx
    assert np.sum(out.values) * out.dx == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        grid_predict(grid, 0.0)


def test_grid_predict_point_mass_reproduces_transition_column():
    grid = grid_init(folded_normal_prior, 15.0, 1500)
    j = 120  # an arbitrary source cell
    values = np.zeros(grid.n_cells)
    values[j] = 1.0 / grid.dx
    point = GridDensity(grid.x_max, values)
    out = grid_predict(point, 0.1)
    source = point.midpoints()[j]
    expected = np.exp(cox_transition_logdensity(out.midpoints(), source, 0.1))
    expected = expected / (np.sum(expected) * grid.dx)
    assert float(np.max(np.abs(out.values - expected))) < 1e-6


def test_grid_update_constant_likelihood_is_identity():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    out = grid_update(grid, lambda y, x: np.full_like(x, -0.7), 0)
    assert np.allclose(out.values, grid.values, rtol=1e-12)


def test_grid_update_zero_count_shifts_mass_down():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    out = grid_update(grid, lambda y, x: cox_likelihood_logdensity(y, x, 0.5), 0)
    assert out.mean() < grid.mean()


def test_grid_update_composes_multiplicatively():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    l1 = lambda y, x: cox_likelihood_logdensity(1, x, 0.5)
    l2 = lambda y, x: cox_likelihood_logdensity(2, x, 0.5)
    both = lambda y, x: l1(y, x) + l2(y, x)
    two_steps = grid_update(grid_update(grid, l1, None), l2, None)
    one_step = grid_update(grid, both, None)
    assert np.allclose(two_steps.values, one_step.values, rtol=1e-12)


def test_grid_update_zero_mass_aborts():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    with pytest.raises(ZeroMass):
        grid_update(grid, lambda y, x: np.full_like(x, -math.inf), 5)


def test_grid_estimate_constant_and_closed_form():
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    assert grid_estimate(grid, ONE) == pytest.approx(1.0, abs=1e-9)
    # int_0^inf e^-x * 2 N(x;0,1) dx = 2 e^{1/2} Phi(-1)
    closed = 2 * math.exp(0.5) * 0.5 * math.erfc(1 / math.sqrt(2))
    assert grid_estimate(grid, EXP_NEG) == pytest.approx(closed, abs=1e-4)


def test_grid_estimate_stable_under_refinement():
    a = grid_estimate(grid_init(folded_normal_prior, 15.0, 1500), EXP_NEG)
    b = grid_estimate(grid_init(folded_normal_prior, 15.0, 3000), EXP_NEG)
    assert abs(a - b) < 1e-4


@pytest.mark.parametrize("eta", [0.1, 1e-6])
def test_grid_predict_matches_dense_kernel(eta):
    # reference: the n x n kernel K[i, j] = f(x_i | x_j) built from the
    # transition log-density, applied as values' = K @ values * dx
    prior = grid_init(folded_normal_prior, 15.0, 600)
    posterior = grid_update(grid_predict(prior, 0.1),
                            lambda y, x: cox_likelihood_logdensity(y, x, 0.5), 0)
    mids = prior.midpoints()
    xt, xp = np.meshgrid(mids, mids, indexing="ij")
    kernel = np.exp(cox_transition_logdensity(xt, xp, eta))
    for grid in (prior, posterior):
        dense = kernel @ grid.values * grid.dx
        dense /= np.sum(dense) * grid.dx
        out = grid_predict(grid, eta).values
        assert np.allclose(out, dense, rtol=1e-12, atol=0)


def _whole_rows_predict(grid, eta):
    """Reference: both lag sums over all n rows in one call each."""
    n, dx = grid.n_cells, grid.dx
    scale = math.sqrt(2 * math.pi * eta)
    toe = np.exp(-(np.arange(1 - n, n) * dx) ** 2 / (2 * eta)) / scale
    han = np.exp(-(np.arange(1, 2 * n) * dx) ** 2 / (2 * eta)) / scale
    values = (np.convolve(toe, grid.values, "valid")
              + np.correlate(han, grid.values, "valid")) * dx
    return values / (np.sum(values) * dx)


def _hankel_first_zero(n, x_max, eta):
    x = np.arange(1, 2 * n) * (x_max / n)
    zero = np.flatnonzero(np.exp(-x ** 2 / (2 * eta)) / math.sqrt(2 * math.pi * eta) == 0)
    return int(zero[0]) if zero.size else None


# (x_max, eta): at 0.1 about 19% of the Hankel rows are exactly zero; at
# 1e-6 all but the first few (at 10 cells all of them); at 5.0 none; at
# x_max = 30, eta = 1 the first zero lag lies past the last row
@pytest.mark.parametrize("x_max, eta", [(15.0, 0.1), (15.0, 1e-6), (15.0, 5.0), (30.0, 1.0)])
@pytest.mark.parametrize("n", [10, 11, 600, 3001])
def test_grid_predict_bits_do_not_depend_on_the_thread_count(n, x_max, eta):
    first_zero = _hankel_first_zero(n, x_max, eta)
    if eta == 5.0:
        assert first_zero is None
    elif eta == 1.0:
        assert n <= first_zero
    else:
        assert first_zero < n
    rough = 1.0 + np.sin(np.arange(n) * 1.7) ** 2  # every cell different
    # with all mass in cell 0, the last nonzero Hankel lag changes the bits
    # of its row, so skipping one row too many fails
    corner = np.zeros(n)
    corner[0] = n / x_max
    for grid in (grid_init(lambda x: folded_normal_prior(x) * rough, x_max, n),
                 GridDensity(x_max, corner)):
        inline = grid_predict(grid, eta).values
        assert np.array_equal(inline, _whole_rows_predict(grid, eta))
        for threads in (1, 2, 3, 4):
            with ThreadPoolExecutor(threads) as pool:
                assert np.array_equal(grid_predict(grid, eta, pool=pool).values, inline)


class _RowsInline(ThreadPoolExecutor):
    """A pool that fails if a grid_predict row range is sent to it."""

    def map(self, *args, **kwargs):
        raise AssertionError("prediction rows ran on the pool")


def test_grid_predict_runs_one_range_above_the_blas_threaded_size(monkeypatch):
    # above BLAS_THREADED_DOT cells BLAS threads each row's dot product, so
    # the rows run as one range on the calling thread, with the same bits
    assert gridfilter.BLAS_THREADED_DOT == 10_000
    grid = grid_init(folded_normal_prior, 15.0, 600)
    inline = grid_predict(grid, 0.1).values
    with _RowsInline(2) as pool:
        with pytest.raises(AssertionError, match="ran on the pool"):
            grid_predict(grid, 0.1, pool=pool)  # 600 cells: split
        monkeypatch.setattr(gridfilter, "BLAS_THREADED_DOT", 600)
        with pytest.raises(AssertionError, match="ran on the pool"):
            grid_predict(grid, 0.1, pool=pool)
        monkeypatch.setattr(gridfilter, "BLAS_THREADED_DOT", 599)
        assert np.array_equal(grid_predict(grid, 0.1, pool=pool).values, inline)


TINY = np.finfo(float).tiny


def _every_lag(n, x_max, eta):
    """The Toeplitz and Hankel lag vectors with no lag set to 0."""
    dx = x_max / n
    scale = math.sqrt(2 * math.pi * eta)
    toe = np.exp(-(np.arange(1 - n, n) * dx) ** 2 / (2 * eta)) / scale
    han = np.exp(-(np.arange(1, 2 * n) * dx) ** 2 / (2 * eta)) / scale
    return toe, han


@pytest.mark.parametrize("n", [3000, 6000])
def test_grid_predict_has_the_every_lag_bits_on_the_fixture_grids(fixture_obs, n):
    # the prior and every filtered grid of the committed fixture: the grids
    # the acceptance studies predict from
    run = run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, n)
    for grid in (grid_init(folded_normal_prior, 15.0, n),) + run.grids:
        expected = _whole_rows_predict(grid, 0.1)
        assert np.array_equal(grid_predict(grid, 0.1).values, expected)
        for threads in (1, 2, 3, 4):
            with ThreadPoolExecutor(threads) as pool:
                assert np.array_equal(grid_predict(grid, 0.1, pool=pool).values, expected)


def test_lags_below_tiny_are_zeroed_and_no_others():
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    every_toe, every_han = _every_lag(3000, 15.0, 0.1)
    toe, han = gridfilter._lags(grid, 0.1)
    assert np.array_equal(toe, np.where(every_toe < TINY, 0.0, every_toe))
    assert np.array_equal(han, np.where(every_han < TINY, 0.0, every_han))
    # the subnormal lags at 3000 cells: 61 on each side of the Toeplitz
    # vector, 61 of the Hankel one
    assert np.count_nonzero(every_toe) - np.count_nonzero(toe) == 122
    assert np.count_nonzero(every_han) - np.count_nonzero(han) == 61


def _steep(n, x_max, eta):
    """A grid that grows like the inverse of the lags up to e^650: its
    smallest cell is e^-750 of its largest, below 2^-900 of it, and the
    products of the largest cells with subnormal lags reach the rows of
    the small cells."""
    x = (np.arange(n) + 0.5) * (x_max / n)
    return GridDensity(x_max, np.exp(np.minimum(x * x / (2 * eta) - 100.0, 650.0)))


@pytest.mark.parametrize("n", [600, 3001])
def test_grid_with_a_cell_below_2_pow_minus_900_of_its_largest_keeps_every_lag(n):
    every = _every_lag(n, 15.0, 0.1)
    corner = np.zeros(n)
    corner[0] = n / 15.0
    steep = _steep(n, 15.0, 0.1)
    for grid in (GridDensity(15.0, corner), steep):
        assert all(np.array_equal(a, b) for a, b in zip(gridfilter._lags(grid, 0.1), every))
        expected = _whole_rows_predict(grid, 0.1)
        assert np.array_equal(grid_predict(grid, 0.1).values, expected)
        with ThreadPoolExecutor(2) as pool:
            assert np.array_equal(grid_predict(grid, 0.1, pool=pool).values, expected)
    # on the steep grid zeroing the subnormal lags would change the bits
    toe, han = (np.where(lags < TINY, 0.0, lags) for lags in every)
    zeroed = (np.convolve(toe, steep.values, "valid")
              + np.correlate(han, steep.values, "valid")) * steep.dx
    zeroed /= np.sum(zeroed) * steep.dx
    assert not np.array_equal(zeroed, _whole_rows_predict(steep, 0.1))


# n = 10: below one 32-term block, no cut; 33: one block and a one-term
# tail; 10_001: above BLAS_THREADED_DOT, where BLAS splits a dot at
# length-dependent points, so no cut
@pytest.mark.parametrize("n", [10, 33, 100, 600, 3001, 6000, 10_001])
def test_hankel_rows_are_cut_only_where_the_bits_hold(monkeypatch, n):
    # random lags and cells: every term counts, so a cut that drops a nonzero
    # term or moves one into another accumulator lane changes the bits
    rng = np.random.default_rng(n)
    grid = GridDensity(15.0, rng.uniform(0.5, 2.0, n))
    toe = rng.uniform(0.5, 2.0, 2 * n - 1)
    counts = {1, n // 2 + 3, n - 1, n + 1, 2 * n - 1} if n > 10_000 else \
        {1, 31, 32, 33, n - 1, n, n + 1, 2 * n - 1, *rng.integers(1, 2 * n, 8)}
    for nonzero in sorted(c for c in counts if c < 2 * n):
        han = np.zeros(2 * n - 1)
        han[:nonzero] = np.sort(rng.uniform(0.5, 2.0, nonzero))[::-1]
        monkeypatch.setattr(gridfilter, "_lags", lambda grid, eta: (toe.copy(), han.copy()))
        expected = (np.convolve(toe, grid.values, "valid")
                    + np.correlate(han, grid.values, "valid")) * grid.dx
        expected /= np.sum(expected) * grid.dx
        assert np.array_equal(grid_predict(grid, 0.1).values, expected), nonzero
        for threads in (2, 3) if n <= 10_000 else ():
            with ThreadPoolExecutor(threads) as pool:
                assert np.array_equal(grid_predict(grid, 0.1, pool=pool).values, expected)


def test_grid_predict_rejects_an_infinite_or_nan_eta():
    # an infinite eta used to zero every lag and fail as "lost all mass"
    grid = grid_init(folded_normal_prior, 15.0, 100)
    for eta in (math.inf, math.nan):
        with pytest.raises(DomainError, match="^eta must be finite and positive"):
            grid_predict(grid, eta)


def test_hankel_jobs_cover_the_live_rows_in_equal_work_jobs():
    n, nonzero = 3000, 2380  # the Hankel lags at eta = 0.1, x_max = 15
    for parts in (1, 2, 3, 4):
        jobs = gridfilter._hankel_jobs(n, nonzero, parts)
        blocks = [block for job in jobs for block in job]
        assert len(jobs) == parts and len(blocks) == gridfilter._HANKEL_BLOCKS
        assert [lo for lo, _, _ in blocks[1:]] == [hi for _, hi, _ in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == nonzero
        for lo, _, k in blocks:
            assert k % 32 == 0 and nonzero - lo <= k < nonzero - lo + 32
        work = [sum((hi - lo) * k for lo, hi, k in job) for job in jobs]
        assert max(work) - min(work) <= max((hi - lo) * k for lo, hi, k in blocks)


def test_run_cox_grid_filter_same_run_on_any_thread_count(fixture_obs):
    params = CoxParams(0.5, 0.1)
    one = run_cox_grid_filter(params, fixture_obs, 15.0, 1201, [EXP_NEG, ONE], workers=1)
    three = run_cox_grid_filter(params, fixture_obs, 15.0, 1201, [EXP_NEG, ONE], workers=3)
    assert len(one.grids) == len(three.grids) == len(fixture_obs)
    for a, b in zip(one.grids, three.grids):
        assert a.x_max == b.x_max and np.array_equal(a.values, b.values)
    assert (one.steps, one.estimates, one.means, one.variances, one.log_evidence) == \
        (three.steps, three.estimates, three.means, three.variances, three.log_evidence)


def test_run_cox_grid_filter_leaves_no_thread_behind(fixture_obs):
    before = threading.active_count()
    run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, 800, workers=3)
    assert threading.active_count() == before
    with pytest.raises(DomainError, match="truncates the posterior"):
        run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 4.0, 800, workers=3)
    assert threading.active_count() == before


def test_grid_predict_runs_once_per_step_on_the_calling_thread(fixture_obs, monkeypatch):
    # the benchmark's tracer wraps gridfilter.grid_predict, reads the grid
    # from its first positional argument and keeps a span stack that is
    # not thread-safe
    calls = []
    predict = gridfilter.grid_predict

    def recording(*args, **kwargs):
        calls.append((threading.get_ident(), args[0].n_cells))
        return predict(*args, **kwargs)

    monkeypatch.setattr(gridfilter, "grid_predict", recording)
    run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, 800, workers=3)
    assert calls == [(threading.get_ident(), 800)] * len(fixture_obs)


def test_run_cox_grid_filter_normalized_every_step(fixture_obs):
    run = run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, 1000, [EXP_NEG])
    for grid in run.grids:
        assert np.sum(grid.values) * grid.dx == pytest.approx(1.0, abs=1e-9)
    assert run.steps == tuple(range(1, 13))


def test_run_cox_grid_filter_rejects_truncated_posterior(fixture_obs):
    # at x_max = 4 the top 5% of cells hold ~3.4e-3 of the filtered mass
    # (at x_max = 15 they hold ~1e-35)
    with pytest.raises(DomainError, match="truncates the posterior"):
        run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 4.0, 800, [EXP_NEG])


def test_run_cox_grid_filter_memory_is_linear_in_cells(fixture_obs):
    # a dense 6000-cell kernel alone would take 8 * 6000^2 bytes = 288 MB
    tracemalloc.start()
    try:
        run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, 6000, [EXP_NEG])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_density_in_bins_accounts_mass(density_in_bins):
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    edges = np.linspace(0.0, 6.0, 31)
    mass = density_in_bins(grid, edges)
    assert mass.shape == (30,)
    expected_inside = grid.values[grid.midpoints() < 6.0].sum() * grid.dx
    assert mass.sum() == pytest.approx(expected_inside, rel=1e-9)


def test_grid_evidence_stable_across_resolutions(fixture_obs):
    params = CoxParams(0.5, 0.1)
    a = run_cox_grid_filter(params, fixture_obs, 15.0, 3000)
    b = run_cox_grid_filter(params, fixture_obs, 20.0, 4000)
    assert a.log_evidence == pytest.approx(b.log_evidence, abs=1e-8)


def test_particle_evidence_agrees_with_grid_normalizers(fixture_obs):
    # dual route: engine log evidence (mean raw weights) versus the grid
    # filter's update normalizers, unbiased in the linear domain
    import math
    from pfconv import GammaProposal, RngStream, make_cox_model, \
        make_gamma_proposal, run_filter
    from pfconv.resampling import get_scheme

    params = CoxParams(0.5, 0.1)
    truth = run_cox_grid_filter(params, fixture_obs, 15.0, 3000).log_evidence
    model = make_cox_model(params)
    proposal = make_gamma_proposal(GammaProposal(1.5, 0.5))
    reps = 16
    lz = np.array([
        run_filter(model, proposal, fixture_obs, 4000, get_scheme("multinomial"),
                   RngStream(1900 + r)).log_evidence
        for r in range(reps)
    ])
    ratio = np.exp(lz - truth)
    se = ratio.std(ddof=1) / math.sqrt(reps)
    assert abs(ratio.mean() - 1.0) <= 3 * se
