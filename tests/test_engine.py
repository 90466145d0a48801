import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pfconv import (
    LinearGaussianModel,
    Proposal,
    RngStream,
    Stage,
    WeightedParticleSet,
    estimate,
    filter_step,
    init_filter,
    kalman_filter,
    log_unnormalized_weight,
    make_lg_bootstrap_proposal,
    make_lg_model,
    make_test_function,
    normalize,
    propose_and_weight,
    run_filter,
    run_filters,
    simulate_lg,
)
from pfconv.errors import DegenerateWeights, StageMismatch, WeightNotFinite
from pfconv.resampling import ResampleScheme, get_scheme

ONE = make_test_function("one")
EXP_NEG = make_test_function("exp_neg")

identity_resampler = ResampleScheme(
    "identity", lambda w, n, rng: np.ones(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# init_filter


def test_init_filter_equal_weights(cox_model):
    pset = init_filter(cox_model, 4, RngStream(3))
    assert pset.stage is Stage.RESAMPLED
    assert np.all(pset.particles >= 0)
    assert np.all(pset.log_weights == -math.log(4))


def test_init_filter_deterministic(cox_model):
    a = init_filter(cox_model, 16, RngStream(5))
    b = init_filter(cox_model, 16, RngStream(5))
    assert np.array_equal(a.particles, b.particles)


def test_init_filter_prior_mean(cox_model):
    # prior is |xi| for standard normal xi: mean sqrt(2/pi), var 1 - 2/pi
    n = 10 ** 5
    pset = init_filter(cox_model, n, RngStream(11))
    target = math.sqrt(2 / math.pi)
    sigma = math.sqrt(1 - 2 / math.pi)
    assert abs(pset.particles.mean() - target) < 3 * sigma / math.sqrt(n)


def test_init_filter_rejects_zero_particles(cox_model):
    with pytest.raises(ValueError):
        init_filter(cox_model, 0, RngStream(0))


# ---------------------------------------------------------------------------
# weights


def test_bootstrap_cancellation_is_bit_exact(cox_model, bootstrap_proposal):
    prev = init_filter(cox_model, 256, RngStream(21))
    moved = propose_and_weight(prev, cox_model, bootstrap_proposal, 2, RngStream(22))
    expected = cox_model.likelihood_logdensity(2, moved.particles)
    assert np.array_equal(moved.log_weights, expected)


def test_log_weight_bootstrap_single_point(cox_model, bootstrap_proposal):
    lw = log_unnormalized_weight(cox_model, bootstrap_proposal, 0.7, 1.2, 1)
    assert lw == float(cox_model.likelihood_logdensity(1, np.array([0.7]))[0])


def test_single_weight_value_against_direct_formula(cox_model, gamma_proposal):
    # independent evaluation of g * f / q at x=0.3, x_prev=1.0, y=0
    c, eta, alpha, beta = 0.5, 0.1, 1.5, 0.5
    g = math.exp(-c * 0.3)
    f = (math.exp(-((0.3 - 1.0) ** 2) / (2 * eta))
         + math.exp(-((0.3 + 1.0) ** 2) / (2 * eta))) / math.sqrt(2 * math.pi * eta)
    q = beta ** alpha * 0.3 ** (alpha - 1) * math.exp(-beta * 0.3) / math.gamma(alpha)
    direct = g * f / q
    lw = log_unnormalized_weight(cox_model, gamma_proposal, 0.3, 1.0, 0)
    assert math.exp(lw) == pytest.approx(direct, rel=1e-12)
    assert math.exp(lw) == pytest.approx(0.4995, rel=2e-4)


def test_weight_grows_without_bound_near_origin(cox_model, gamma_proposal):
    values = [log_unnormalized_weight(cox_model, gamma_proposal, 10.0 ** -k, 1.0, 0)
              for k in range(2, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_weight_is_minus_inf_at_zero_likelihood(cox_model, bootstrap_proposal):
    # y = 3 at x = 0: the likelihood vanishes (intensity 0 cannot emit 3),
    # so the weight is zero; the bootstrap proposal has positive density at 0.
    lw = log_unnormalized_weight(cox_model, bootstrap_proposal, 0.0, 1.0, 3)
    assert lw == -math.inf


def test_weight_not_finite_when_proposal_vanishes(cox_model, gamma_proposal):
    zero_proposal = Proposal(
        propose=lambda xp, y, rng: np.zeros(len(np.atleast_1d(xp))),
        logdensity=gamma_proposal.logdensity,
    )
    prev = init_filter(cox_model, 8, RngStream(1))
    with pytest.raises(WeightNotFinite):
        propose_and_weight(prev, cox_model, zero_proposal, 0, RngStream(2))


def test_propose_requires_resampled_stage(cox_model, gamma_proposal):
    prev = init_filter(cox_model, 8, RngStream(1))
    moved = propose_and_weight(prev, cox_model, gamma_proposal, 0, RngStream(2))
    with pytest.raises(StageMismatch):
        propose_and_weight(moved, cox_model, gamma_proposal, 0, RngStream(3))


def test_conditional_expectation_matches_quadrature(cox_model, gamma_proposal):
    # For a frozen parent set, E[(unnormalized estimate of phi)] equals the
    # parent average of int f(x|x') g(y|x) phi(x) dx.
    parents = init_filter(cox_model, 50, RngStream(31))
    y, inner = 1, 4000
    tiled = np.tile(parents.particles, inner)
    rng = RngStream(32)
    draws = gamma_proposal.propose(tiled, y, rng)
    from pfconv.engine import _raw_log_weights
    lw = _raw_log_weights(cox_model, gamma_proposal, draws, tiled, y)
    vals = (np.exp(lw) * EXP_NEG(draws)).reshape(inner, 50).mean(axis=1)
    mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(inner)

    def integrand(x, xp):
        return math.exp(float(cox_model.transition_logdensity(np.array([x]), np.array([xp]))[0])
                        + float(cox_model.likelihood_logdensity(y, np.array([x]))[0])) * math.exp(-x)

    truth = np.mean([integrate.quad(integrand, 0, 40, args=(xp,), limit=200)[0]
                     for xp in parents.particles])
    assert abs(mc - truth) <= 3 * se


# ---------------------------------------------------------------------------
# normalize


def _unnormalized(particles, log_weights):
    lw = np.asarray(log_weights, dtype=float)
    finite = lw[lw > -math.inf]
    lmw = -math.inf
    if finite.size:
        m = finite.max()
        lmw = m + math.log(np.sum(np.exp(lw[lw > -math.inf] - m)) / len(lw))
    return WeightedParticleSet(particles, lw, Stage.UNNORMALIZED, log_mean_weight=lmw)


def test_normalize_simple():
    pset = _unnormalized([1.0, 2.0], [math.log(2), math.log(2)])
    out = normalize(pset)
    assert out.stage is Stage.NORMALIZED
    assert np.allclose(out.weights(), [0.5, 0.5])


def test_normalize_single_survivor():
    out = normalize(_unnormalized([1.0, 2.0, 3.0], [0.0, -math.inf, -math.inf]))
    assert out.weights().tolist() == [1.0, 0.0, 0.0]


def test_normalize_extreme_magnitudes():
    # exp(-1000) underflows, but the max-shift identity keeps the ratio
    out = normalize(_unnormalized([0.0, 1.0], [-1000.0, -1001.0]))
    expected = [1 / (1 + math.exp(-1)), math.exp(-1) / (1 + math.exp(-1))]
    assert np.allclose(out.weights(), expected, rtol=1e-12)
    assert out.weights()[0] == pytest.approx(0.7310585786300049, rel=1e-12)


def test_normalize_degenerate_raises():
    with pytest.raises(DegenerateWeights):
        normalize(_unnormalized([1.0, 2.0], [-math.inf, -math.inf]))


def test_normalize_requires_unnormalized():
    pset = WeightedParticleSet([1.0, 2.0], [-math.log(2)] * 2, Stage.RESAMPLED)
    with pytest.raises(StageMismatch):
        normalize(pset)


@settings(max_examples=200, deadline=None)
@given(lw=st.lists(st.floats(min_value=-1e6, max_value=700), min_size=1, max_size=40))
def test_normalized_weights_sum_to_one(lw):
    out = normalize(_unnormalized(np.zeros(len(lw)), lw))
    total = float(np.sum(out.weights()))
    assert math.isclose(total, 1.0, rel_tol=1e-12)
    assert np.all(out.weights() >= 0)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_equal_weights_cap():
    pset = WeightedParticleSet([1.0, 3.0], [-math.log(2)] * 2, Stage.RESAMPLED)
    assert estimate(pset, make_test_function("min_cap(10)")) == 2.0


def test_estimate_constant_is_exactly_one():
    pset = WeightedParticleSet([0.3, 5.0, 2.2], [-math.log(3)] * 3, Stage.RESAMPLED)
    assert estimate(pset, ONE) == 1.0


def test_estimate_hand_value():
    lw = np.log(np.array([0.25, 0.75]))
    pset = WeightedParticleSet([0.0, 2.0], lw, Stage.NORMALIZED)
    expected = 0.25 + 0.75 * math.exp(-2)
    assert estimate(pset, EXP_NEG) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.35150, abs=5e-6)


def test_estimate_rejects_unnormalized():
    pset = _unnormalized([1.0], [0.0])
    with pytest.raises(StageMismatch):
        estimate(pset, ONE)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 50), st.floats(-600, 10)), min_size=1, max_size=30))
def test_estimate_bounded_by_sup_norm(pairs):
    particles = np.array([p for p, _ in pairs])
    out = normalize(_unnormalized(particles, [w for _, w in pairs]))
    for name in ("one", "exp_neg", "min_cap(10)"):
        phi = make_test_function(name)
        assert abs(estimate(out, phi)) <= phi.sup_norm * (1 + 1e-12)
        assert estimate(out, ONE) == 1.0


# ---------------------------------------------------------------------------
# filter_step / run_filter


def test_filter_step_identity_resampler_keeps_constant_estimate(cox_model, gamma_proposal):
    state = init_filter(cox_model, 64, RngStream(41))
    out, report = filter_step(state, cox_model, gamma_proposal, 1,
                              identity_resampler, RngStream(42), [ONE], t=1)
    assert report.estimates["one"] == 1.0
    assert report.resampled_estimates["one"] == 1.0
    assert out.stage is Stage.RESAMPLED


def test_single_lg_step_matches_kalman():
    model = LinearGaussianModel(a=0.9, q_var=0.3, h=1.0, r_var=0.4, m0=0.0, p0=1.0)
    ssm, prop = make_lg_model(model), make_lg_bootstrap_proposal(model)
    y = 1.3
    kal = kalman_filter(model, [y])[0]
    means = []
    for rep in range(12):
        state = init_filter(ssm, 5000, RngStream(100 + rep))
        norm = normalize(propose_and_weight(state, ssm, prop, y, RngStream(200 + rep)))
        means.append(float(np.dot(norm.weights(), norm.particles)))
    means = np.array(means)
    se = means.std(ddof=1)
    assert abs(means[0] - kal.mean) <= 3 * se


def test_run_filter_deterministic(cox_model, gamma_proposal, fixture_obs):
    kw = dict(n=512, resampler=get_scheme("systematic"), master_seed=9,
              test_functions=[ONE, EXP_NEG])
    a = run_filter(cox_model, gamma_proposal, fixture_obs, **kw)
    b = run_filter(cox_model, gamma_proposal, fixture_obs, **kw)
    assert a.log_evidence == b.log_evidence
    for sa, sb in zip(a.steps, b.steps):
        assert sa.estimates == sb.estimates
        assert sa.ess == sb.ess


def test_run_filter_lg_tracks_kalman():
    model = LinearGaussianModel(a=0.95, q_var=0.2, h=1.0, r_var=0.5, m0=0.0, p0=1.0)
    _, obs = simulate_lg(model, 20, master_seed=77)
    beliefs = kalman_filter(model, [y for _, y in obs])
    ssm, prop = make_lg_model(model), make_lg_bootstrap_proposal(model)
    runs = [run_filter(ssm, prop, obs, 2000, get_scheme("multinomial"),
                       RngStream(500 + r), record_clouds=2000)
            for r in range(10)]
    mean_traces = np.array([
        [float(np.dot(s.cloud.normalized_weights, s.cloud.normalized_particles)
               / np.sum(s.cloud.normalized_weights)) for s in run.steps]
        for run in runs
    ])
    sigma = mean_traces.std(axis=0, ddof=1)
    kalman_means = np.array([b.mean for b in beliefs])
    assert np.all(np.abs(mean_traces[0] - kalman_means) <= 3 * sigma + 1e-9)


def test_bootstrap_and_gamma_agree_on_fixture(cox_model, gamma_proposal,
                                              bootstrap_proposal, fixture_obs):
    reps = 6
    n = 10 ** 4

    def traces(prop, base):
        return np.array([
            run_filter(cox_model, prop, fixture_obs, n, get_scheme("multinomial"),
                       RngStream(base + r), [EXP_NEG]).estimate_trace("exp_neg")
            for r in range(reps)
        ])

    a = traces(gamma_proposal, 9000)
    b = traces(bootstrap_proposal, 9600)
    se = np.sqrt(a.var(axis=0, ddof=1) / reps + b.var(axis=0, ddof=1) / reps)
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se)


def test_run_filter_attaches_failing_step():
    model = LinearGaussianModel(a=1.0, q_var=0.1, h=1.0, r_var=0.1, m0=0.0, p0=1.0)
    ssm, prop = make_lg_model(model), make_lg_bootstrap_proposal(model)

    calls = {"n": 0}

    def exploding_logdensity(x, xp, y):
        calls["n"] += 1
        if calls["n"] > 3:  # fail on the 4th step's weight evaluation
            return np.full(len(np.atleast_1d(x)), math.nan)
        return ssm.transition_logdensity(x, xp)

    bad = Proposal(propose=prop.propose, logdensity=exploding_logdensity)
    obs = [(t, 0.0) for t in range(1, 7)]
    with pytest.raises(WeightNotFinite, match="t=4"):
        run_filter(ssm, bad, obs, 32, get_scheme("multinomial"), 1)


@pytest.mark.parametrize("scheme, proposal, ess_threshold", [
    (scheme, proposal, None)
    for scheme in ("multinomial", "stratified", "systematic")
    for proposal in ("gamma_proposal", "bootstrap_proposal")
] + [("systematic", "bootstrap_proposal", 0.5)])
def test_run_filters_rows_equal_single_runs(request, cox_model, fixture_obs,
                                            scheme, proposal, ess_threshold):
    kw = dict(resampler=get_scheme(scheme), test_functions=[ONE, EXP_NEG],
              ess_threshold=ess_threshold)
    prop = request.getfixturevalue(proposal)
    streams = [RngStream(5, (2, r)) for r in range(5)]
    batch = run_filters(cox_model, prop, fixture_obs, 50, streams=streams, **kw)
    singles = [run_filter(cox_model, prop, fixture_obs, 50, master_seed=s, **kw)
               for s in streams]
    for a, b in zip(batch, singles):
        assert a.log_evidence == b.log_evidence
        assert (a.master_seed, a.labels) == (b.master_seed, b.labels)
        for sa, sb in zip(a.steps, b.steps):
            assert (sa.estimates, sa.resampled_estimates) == (sb.estimates, sb.resampled_estimates)
            assert (sa.ess, sa.log_mean_weight, sa.resampled) == \
                (sb.ess, sb.log_mean_weight, sb.resampled)
    if ess_threshold is not None:  # some step resamples some rows but not others
        assert any(len({run.steps[i].resampled for run in batch}) == 2
                   for i in range(len(fixture_obs)))


@pytest.mark.parametrize("proposal, error", [
    ("gamma_proposal", WeightNotFinite),  # Gamma density 0 at x = 0: NaN weights
    ("bootstrap_proposal", DegenerateWeights),  # y_3 = 1 is impossible at x = 0
])
def test_run_filters_names_failing_row_and_step(request, cox_model, fixture_obs,
                                                proposal, error):
    base = request.getfixturevalue(proposal)

    def propose(x_prev, y, rng):  # row 2 collapses to 0 at t = 3
        if rng.labels[-3:] == (2, 3, 0):
            return np.zeros(len(x_prev))
        return base.propose(x_prev, y, rng)

    streams = [RngStream(1, (r,)) for r in range(4)]
    with pytest.raises(error, match=r"filter step t=3, row 2: ") as info:
        run_filters(cox_model, Proposal(propose, base.logdensity), fixture_obs, 16,
                    get_scheme("multinomial"), streams)
    assert info.value.row == 2


def test_run_filter_memory_stays_linear(cox_model, gamma_proposal, fixture_obs):
    # N = 2^18 particles take 2 MiB per float array; a fused step that keeps
    # all of its temporaries alive peaks near 36 MiB
    for scheme in ("systematic", "multinomial"):
        tracemalloc.start()
        try:
            run_filter(cox_model, gamma_proposal, fixture_obs, 2 ** 18,
                       get_scheme(scheme), 3, [EXP_NEG])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20, f"{scheme}: peak {peak / 2 ** 20:.1f} MiB"


def test_run_filter_requires_observations(cox_model, gamma_proposal):
    with pytest.raises(ValueError):
        run_filter(cox_model, gamma_proposal, [], 16, get_scheme("multinomial"), 1)
    with pytest.raises(ValueError):
        run_filter(cox_model, gamma_proposal, [(0, 1)], 16,
                   get_scheme("multinomial"), 1)


# ---------------------------------------------------------------------------
# optional ESS-threshold mode (off by default)


def test_high_ess_threshold_equals_default_run(cox_model, gamma_proposal, fixture_obs):
    kw = dict(n=256, resampler=get_scheme("multinomial"), master_seed=4,
              test_functions=[EXP_NEG])
    default = run_filter(cox_model, gamma_proposal, fixture_obs, **kw)
    always = run_filter(cox_model, gamma_proposal, fixture_obs,
                        ess_threshold=2.0, **kw)
    assert default.log_evidence == always.log_evidence
    for a, b in zip(default.steps, always.steps):
        assert a.estimates == b.estimates and b.resampled


def test_zero_ess_threshold_never_resamples(cox_model, gamma_proposal, fixture_obs):
    run = run_filter(cox_model, gamma_proposal, fixture_obs, 512,
                     get_scheme("multinomial"), 4, [ONE, EXP_NEG], ess_threshold=0.0)
    assert all(not s.resampled for s in run.steps)
    assert all(s.estimates["one"] == 1.0 for s in run.steps)
    assert all(abs(s.estimates["exp_neg"]) <= 1.0 for s in run.steps)


def test_skip_resampling_still_tracks_the_posterior(cox_model, gamma_proposal,
                                                    fixture_obs):
    # pure importance sampling over a short horizon stays consistent with
    # the grid truth (weights have not fully degenerated after 4 steps)
    from pfconv.gridfilter import run_cox_grid_filter
    from pfconv.cox import CoxParams

    short = list(fixture_obs)[:4]
    truth = run_cox_grid_filter(CoxParams(0.5, 0.1), short, 15.0, 1500,
                                [EXP_NEG]).estimates["exp_neg"][-1]
    finals = np.array([
        run_filter(cox_model, gamma_proposal, short, 4000,
                   get_scheme("multinomial"), RngStream(700 + r), [EXP_NEG],
                   ess_threshold=0.0).steps[-1].estimates["exp_neg"]
        for r in range(8)
    ])
    se = finals.std(ddof=1) / math.sqrt(len(finals))
    assert abs(finals.mean() - truth) <= 4 * se
