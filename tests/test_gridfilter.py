import dataclasses
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pfconv import make_test_function
from pfconv.cox import CoxParams, cox_likelihood_logdensity, cox_transition_logdensity
from pfconv.errors import DomainError, ZeroMass
from pfconv import gridfilter
from pfconv.gridfilter import GridDensity, folded_normal_prior, grid_init, grid_predict, \
    grid_update, run_cox_grid_filter

EXP_NEG = make_test_function("exp_neg")
ONE = make_test_function("one")


def _expect(grid, phi=lambda x: x):
    """E[phi(X)] under the grid density as a midpoint sum; the mean by default."""
    return float(np.sum(phi(grid.midpoints()) * grid.values) * grid.dx)


def _likelihood(y, grid, c=0.5):
    """The Cox likelihood of the count y on the grid's midpoints."""
    return np.exp(cox_likelihood_logdensity(y, grid.midpoints(), c))


def test_grid_init_normalizes():
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    assert np.sum(grid.values) * grid.dx == pytest.approx(1.0, abs=1e-9)
    assert grid.dx == pytest.approx(0.005)


def test_grid_init_mean_matches_folded_normal():
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    assert abs(_expect(grid) - math.sqrt(2 / math.pi)) < 1e-3


def test_grid_init_mean_stable_under_refinement():
    a = _expect(grid_init(folded_normal_prior, 15.0, 3000))
    b = _expect(grid_init(folded_normal_prior, 15.0, 6000))
    assert abs(a - b) < 1e-5


def test_grid_init_zero_mass():
    with pytest.raises(ZeroMass):
        grid_init(lambda x: np.zeros_like(x), 15.0, 100)
    with pytest.raises(DomainError):
        grid_init(folded_normal_prior, 15.0, 5)


@pytest.mark.parametrize("n_cells", [0, -3, 5])
def test_grid_filter_checks_the_cell_count_before_dividing_by_it(n_cells):
    with pytest.raises(DomainError, match=f"^grid needs at least 10 cells, got {n_cells}$"):
        run_cox_grid_filter(CoxParams(0.5, 0.1), [(1, 0)], 15.0, n_cells)


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
    assert abs(_expect(out) - _expect(grid)) < 2 * grid.dx
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
    out = grid_update(grid, np.full(grid.n_cells, math.exp(-0.7)))[0]
    assert np.allclose(out.values, grid.values, rtol=1e-12)


def test_grid_update_zero_count_shifts_mass_down():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    out = grid_update(grid, _likelihood(0, grid))[0]
    assert _expect(out) < _expect(grid)


def test_grid_update_composes_multiplicatively():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    mids = grid.midpoints()
    l1 = cox_likelihood_logdensity(1, mids, 0.5)
    l2 = cox_likelihood_logdensity(2, mids, 0.5)
    two_steps = grid_update(grid_update(grid, np.exp(l1))[0], np.exp(l2))[0]
    one_step = grid_update(grid, np.exp(l1 + l2))[0]
    assert np.allclose(two_steps.values, one_step.values, rtol=1e-12)


def test_grid_update_zero_mass_aborts():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    with pytest.raises(ZeroMass):
        grid_update(grid, np.zeros(grid.n_cells))


def test_grid_update_rejects_a_likelihood_of_another_shape():
    grid = grid_init(folded_normal_prior, 15.0, 500)
    for likelihood in (np.ones(499), np.ones(501), np.ones((1, 500)), 1.0):
        with pytest.raises(DomainError, match="^likelihood has shape"):
            grid_update(grid, likelihood)


def test_grid_estimate_constant_and_closed_form():
    grid = grid_init(folded_normal_prior, 15.0, 3000)
    assert _expect(grid, ONE) == pytest.approx(1.0, abs=1e-9)
    # int_0^inf e^-x * 2 N(x;0,1) dx = 2 e^{1/2} Phi(-1)
    closed = 2 * math.exp(0.5) * 0.5 * math.erfc(1 / math.sqrt(2))
    assert _expect(grid, EXP_NEG) == pytest.approx(closed, abs=1e-4)


def test_grid_estimate_stable_under_refinement():
    a = _expect(grid_init(folded_normal_prior, 15.0, 1500), EXP_NEG)
    b = _expect(grid_init(folded_normal_prior, 15.0, 3000), EXP_NEG)
    assert abs(a - b) < 1e-4


@pytest.mark.parametrize("eta", [0.1, 1e-6])
def test_grid_predict_matches_dense_kernel(eta):
    # reference: the n x n kernel K[i, j] = f(x_i | x_j) built from the
    # transition log-density, applied as values' = K @ values * dx
    prior = grid_init(folded_normal_prior, 15.0, 600)
    posterior = grid_update(grid_predict(prior, 0.1), _likelihood(0, prior))[0]
    mids = prior.midpoints()
    xt, xp = np.meshgrid(mids, mids, indexing="ij")
    kernel = np.exp(cox_transition_logdensity(xt, xp, eta))
    for grid in (prior, posterior):
        dense = kernel @ grid.values * grid.dx
        dense /= np.sum(dense) * grid.dx
        out = grid_predict(grid, eta).values
        assert np.allclose(out, dense, rtol=1e-12, atol=0)


def _every_lag_rows(grid, eta):
    """Both lag sums over all n rows and every lag, in one call each, times
    dx and not renormalized."""
    n, dx = grid.n_cells, grid.dx
    scale = math.sqrt(2 * math.pi * eta)
    toe = np.exp(-(np.arange(1 - n, n) * dx) ** 2 / (2 * eta)) / scale
    han = np.exp(-(np.arange(1, 2 * n) * dx) ** 2 / (2 * eta)) / scale
    return (np.convolve(toe, grid.values, "valid")
            + np.correlate(han, grid.values, "valid")) * dx


def _whole_rows_predict(grid, eta):
    """Reference: the every-lag rows, renormalized."""
    values = _every_lag_rows(grid, eta)
    return values / (np.sum(values) * grid.dx)


def _dense_predict(grids, eta, rows=250):
    """Reference: the kernel K[i, j] = f(x_i | x_j) built from the transition
    log-density, applied to grids of one shape as K @ values * dx and
    renormalized; built ``rows`` rows at a time, so never n x n at once."""
    mids, dx = grids[0].midpoints(), grids[0].dx
    values = np.stack([grid.values for grid in grids], axis=1)
    dense = np.concatenate([
        np.exp(cox_transition_logdensity(mids[lo:lo + rows, None], mids, eta)) @ values
        for lo in range(0, len(mids), rows)]) * dx
    return (dense / (np.sum(dense, axis=0) * dx)).T


TINY = np.finfo(float).tiny


def _assert_accurate(out, reference):
    """Every cell where the reference is a normal double agrees with it to
    1e-12 relative; subnormal cells carry no relative accuracy."""
    normal = reference >= TINY
    assert np.count_nonzero(normal) > 0
    assert np.allclose(out[normal], reference[normal], rtol=1e-12, atol=0)


# (x_max, eta): at 0.1 the band keeps a quarter to a third of the 2n^2
# terms, at 1e-6 one to four lags each side, at 5.0 nearly every term, and
# at x_max = 30, eta = 1 about half
@pytest.mark.parametrize("x_max, eta", [(15.0, 0.1), (15.0, 1e-6), (15.0, 5.0), (30.0, 1.0)])
@pytest.mark.parametrize("n", [10, 11, 600, 3001])
def test_grid_predict_bits_do_not_depend_on_the_thread_count(n, x_max, eta):
    rough = 1.0 + np.sin(np.arange(n) * 1.7) ** 2  # every cell different
    # all mass in cell 0: every other row has v_i = 0 and keeps every lag
    corner = np.zeros(n)
    corner[0] = n / x_max
    grids = (grid_init(lambda x: folded_normal_prior(x) * rough, x_max, n),
             GridDensity(x_max, corner))
    for grid, dense in zip(grids, _dense_predict(grids, eta)):
        out = grid_predict(grid, eta).values
        _assert_accurate(out, dense)
        for threads in (2, 3, 4):  # concurrent calls share no state
            with ThreadPoolExecutor(threads) as pool:
                for again in pool.map(lambda _: grid_predict(grid, eta), range(threads)):
                    assert np.array_equal(again.values, out)


@pytest.mark.parametrize("n", [3000, 6000])
def test_grid_predict_matches_the_dense_kernel_on_the_fixture_grids(fixture_obs, n):
    # the prior and every filtered grid of the committed fixture: the grids
    # the acceptance studies predict from
    run = run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, n)
    grids = (grid_init(folded_normal_prior, 15.0, n),) + run.grids
    for grid, dense in zip(grids, _dense_predict(grids, 0.1)):
        _assert_accurate(grid_predict(grid, 0.1).values, dense)


def _steep(n, x_max, eta):
    """A grid that grows like the inverse of the lags up to e^650: its
    smallest cell is e^-750 of its largest, so its small cells' rows are
    dominated by far terms from the large cells."""
    x = (np.arange(n) + 0.5) * (x_max / n)
    return GridDensity(x_max, np.exp(np.minimum(x * x / (2 * eta) - 100.0, 650.0)))


@pytest.mark.parametrize("n", [600, 3001])
def test_grid_predict_is_accurate_on_a_point_mass_and_a_steep_grid(n):
    corner = np.zeros(n)
    corner[0] = n / 15.0
    grids = (GridDensity(15.0, corner), _steep(n, 15.0, 0.1))
    for grid, dense in zip(grids, _dense_predict(grids, 0.1)):
        _assert_accurate(grid_predict(grid, 0.1).values, dense)


def _largest_cut_terms(grid, eta, rows=250):
    """Per row i, the largest Toeplitz and the largest Hankel term past its
    half-width h_i, where the band may cut: max over j of f(k dx) v_j with
    k = |i - j|, resp. k = i + j + 1, above h_i (0 where none); plus the
    number of Hankel terms past h_i."""
    n, dx, v = grid.n_cells, grid.dx, grid.values
    f = np.exp(-(np.arange(2 * n + 1) * dx) ** 2 / (2 * eta)) / math.sqrt(2 * math.pi * eta)
    h = gridfilter._half_widths(v, dx, eta)
    toe, han, cut = np.zeros(n), np.zeros(n), 0
    for lo in range(0, n, rows):
        i = np.arange(lo, min(lo + rows, n))[:, None]
        j = np.arange(n)[None, :]
        past = h[i]
        for k, out in ((np.abs(i - j), toe), (i + j + 1, han)):
            out[i[:, 0]] = np.max(np.where(k > past, f[k] * v, 0.0), axis=1)
        cut += int(np.count_nonzero(i + j + 1 > past))
    return toe, han, cut


# n <= 256: one block, its window cut at the mirrored values' top end;
# 600: three blocks, the last one short; 10_001: 40 blocks
@pytest.mark.parametrize("n", [10, 33, 100, 600, 3001, 6000, 10_001])
def test_hankel_rows_are_cut_only_where_the_bits_hold(n):
    # every term past a row's half-width is below 2^-60 of the row's own
    # term f(0) v_i, so added alone to the row's every-lag sum it leaves
    # that sum's bits unchanged; and the band's rows keep 1e-12 relative
    # accuracy against every-lag sums
    grid = GridDensity(15.0, np.random.default_rng(n).uniform(0.5, 2.0, n))
    v, dx, eta = grid.values, grid.dx, 0.1
    toe, han, cut = _largest_cut_terms(grid, eta)
    assert cut > 0
    own = v / math.sqrt(2 * math.pi * eta)  # f(0) v_i
    assert np.all(toe < 2.0 ** -60 * own) and np.all(han < 2.0 ** -60 * own)
    every = _every_lag_rows(grid, eta)
    assert np.all(own * dx <= every)
    assert np.array_equal(every + toe * dx, every) and np.array_equal(every + han * dx, every)
    _assert_accurate(grid_predict(grid, eta).values, _whole_rows_predict(grid, eta))


def test_an_outlier_count_keeps_the_every_lag_estimates(monkeypatch):
    # a count of 15 after three zero counts puts the posterior where the
    # prediction's far tail was: the band must keep that tail's relative
    # accuracy, or the update lifts its error to the grid's edge
    obs = [(1, 0), (2, 0), (3, 0), (4, 15), (5, 0)]
    params = CoxParams(0.5, 0.1)
    band = run_cox_grid_filter(params, obs, 15.0, 3000, [EXP_NEG, ONE])
    monkeypatch.setattr(gridfilter, "grid_predict", lambda grid, eta: GridDensity(
        grid.x_max, _whole_rows_predict(grid, eta)))
    every = run_cox_grid_filter(params, obs, 15.0, 3000, [EXP_NEG, ONE])
    for name in ("exp_neg", "one"):
        assert np.allclose(band.estimates[name], every.estimates[name], rtol=1e-12, atol=0)
    assert np.allclose(band.means, every.means, rtol=1e-12, atol=0)


def test_grid_predict_rejects_an_infinite_or_nan_eta():
    # an infinite eta used to zero every lag and fail as "lost all mass"
    grid = grid_init(folded_normal_prior, 15.0, 100)
    for eta in (math.inf, math.nan):
        with pytest.raises(DomainError, match="^eta must be finite and positive"):
            grid_predict(grid, eta)


def test_run_cox_grid_filter_same_run_on_any_thread_count(fixture_obs):
    # one run on the calling thread, then three at once on a pool: the
    # oracle shares no state between calls, so every run has the same bits
    params = CoxParams(0.5, 0.1)

    def run(_=None):
        return run_cox_grid_filter(params, fixture_obs, 15.0, 1201, [EXP_NEG, ONE])

    one = run()
    with ThreadPoolExecutor(3) as pool:
        three = list(pool.map(run, range(3)))
    for other in three:
        assert len(one.grids) == len(other.grids) == len(fixture_obs)
        for a, b in zip(one.grids, other.grids):
            assert a.x_max == b.x_max and np.array_equal(a.values, b.values)
        assert (one.steps, one.estimates, one.means, one.variances, one.log_evidence) == \
            (other.steps, other.estimates, other.means, other.variances, other.log_evidence)


def test_run_cox_grid_filter_leaves_no_thread_behind(fixture_obs):
    before = threading.active_count()
    run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, 800)
    assert threading.active_count() == before
    with pytest.raises(DomainError, match="truncates the posterior"):
        run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 4.0, 800)
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
    run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, 800)
    assert calls == [(threading.get_ident(), 800)] * len(fixture_obs)


def test_a_run_builds_the_midpoints_and_each_test_function_once(fixture_obs, monkeypatch):
    # the midpoints and each test function's values on them are built once
    # per run, not once (or five times) per step
    midpoints, calls = GridDensity.midpoints, []

    def counted(phi):
        return dataclasses.replace(phi, fn=lambda x: calls.append(phi.name) or phi(x))

    def counting_midpoints(grid):
        calls.append("midpoints")
        return midpoints(grid)

    monkeypatch.setattr(GridDensity, "midpoints", counting_midpoints)
    run = run_cox_grid_filter(CoxParams(0.5, 0.1), fixture_obs, 15.0, 800,
                              [counted(EXP_NEG), counted(ONE)])
    assert len(run.steps) == 12
    assert sorted(calls) == ["exp_neg", "midpoints", "one"]


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
