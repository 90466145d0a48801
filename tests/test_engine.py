import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import logsumexp, softmax

from pfconv import (
    Proposal,
    RngStream,
    make_test_function,
    run_filter,
    run_filters,
)
from pfconv import engine, resampling
from pfconv.cores import WORKERS_ENV
from pfconv.engine import _checked_sums, _estimate_rows, _normalize_rows, _raw_log_weights
from pfconv.errors import CountMismatch, DegenerateWeights, DomainError, \
    WeightNotFinite
from lineargauss import LinearGaussianModel, kalman_filter, \
    make_lg_bootstrap_proposal, make_lg_model, simulate_lg
from pfconv.particles import FilterRun
from pfconv.resampling import ResampleScheme, get_scheme

from conftest import philox_key

ONE = make_test_function("one")
EXP_NEG = make_test_function("exp_neg")


def _ones(w, n, rngs, out=None):  # a block of weights in, a block of counts out
    counts = np.empty(w.shape, dtype=np.int64) if out is None else out
    counts[...] = 1
    return counts


identity_resampler = ResampleScheme("identity", _ones)


def _log_weight(model, proposal, x_t, x_prev, y) -> float:
    """The log importance weight at a single point, as the engine computes it."""
    return float(_raw_log_weights(model, proposal, np.array([x_t]), np.array([x_prev]), y)[0])


def _normalize(log_weights):
    """Normalize one row of raw log weights as a filter step does; returns
    the (1, N) weights and their row sum."""
    w = np.array([log_weights], dtype=float)
    _, total, _ = _normalize_rows(w, np.empty_like(w))
    return w, total


def _assert_same_runs(a, b):
    """Every field of two sequences of runs is equal, bit for bit."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for field in dataclasses.fields(FilterRun):
            x, y = getattr(ra, field.name), getattr(rb, field.name)
            if isinstance(x, dict):
                assert list(x) == list(y), field.name
                x, y = list(x.values()), list(y.values())
            assert np.array_equal(x, y), field.name


def _stream_key(seed: int, labels: tuple[int, ...]) -> tuple[int, int]:
    """The key of stream (seed, labels): a row's generator at step t is
    re-keyed to the key of its root's labels + (t, 0) to propose and
    + (t, 1) to resample."""
    return philox_key(RngStream(seed, labels).gen)


def _estimate(particles, log_weights, phi) -> float:
    w, total = _normalize(log_weights)
    return float(_estimate_rows(w, total, np.array([particles], dtype=float), phi)[0])


# ---------------------------------------------------------------------------
# weights


def test_bootstrap_cancellation_is_bit_exact(cox_model, bootstrap_proposal):
    parents = cox_model.prior_sample(RngStream(21).gen, 256)[None]
    moved = bootstrap_proposal.propose(parents[0], 2, RngStream(22).gen)[None]
    lw = _raw_log_weights(cox_model, bootstrap_proposal, moved, parents, 2)
    assert np.array_equal(lw, cox_model.likelihood_logdensity(2, moved))


def test_log_weight_bootstrap_single_point(cox_model, bootstrap_proposal):
    lw = _log_weight(cox_model, bootstrap_proposal, 0.7, 1.2, 1)
    assert lw == float(cox_model.likelihood_logdensity(1, np.array([0.7]))[0])


def test_single_weight_value_against_direct_formula(cox_model, gamma_proposal):
    # independent evaluation of g * f / q at x=0.3, x_prev=1.0, y=0
    c, eta, alpha, beta = 0.5, 0.1, 1.5, 0.5
    g = math.exp(-c * 0.3)
    f = (math.exp(-((0.3 - 1.0) ** 2) / (2 * eta))
         + math.exp(-((0.3 + 1.0) ** 2) / (2 * eta))) / math.sqrt(2 * math.pi * eta)
    q = beta ** alpha * 0.3 ** (alpha - 1) * math.exp(-beta * 0.3) / math.gamma(alpha)
    direct = g * f / q
    lw = _log_weight(cox_model, gamma_proposal, 0.3, 1.0, 0)
    assert math.exp(lw) == pytest.approx(direct, rel=1e-12)
    assert math.exp(lw) == pytest.approx(0.4995, rel=2e-4)


def test_weight_grows_without_bound_near_origin(cox_model, gamma_proposal):
    values = [_log_weight(cox_model, gamma_proposal, 10.0 ** -k, 1.0, 0)
              for k in range(2, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_weight_is_minus_inf_at_zero_likelihood(cox_model, bootstrap_proposal):
    # y = 3 at x = 0: the likelihood vanishes (intensity 0 cannot emit 3),
    # so the weight is zero; the bootstrap proposal has positive density at 0.
    lw = _log_weight(cox_model, bootstrap_proposal, 0.0, 1.0, 3)
    assert lw == -math.inf


def test_weight_not_finite_when_proposal_vanishes(cox_model, gamma_proposal):
    # every parent at 1 and every proposal at 0, where the Gamma density is 0
    ones = dataclasses.replace(cox_model, prior_sample=lambda gen, size: np.ones(size))
    zero_proposal = Proposal(
        propose=lambda xp, y, rng: np.zeros(len(np.atleast_1d(xp))),
        logdensity=gamma_proposal.logdensity,
    )
    log_f = float(cox_model.transition_logdensity(np.zeros(1), np.ones(1))[0])
    with pytest.raises(WeightNotFinite) as info:
        run_filter(ones, zero_proposal, [(1, 0)], 8, get_scheme("multinomial"), 1)
    assert str(info.value) == (  # plain floats, never np.float64(...)
        f"filter step t=1, row 0: non-finite log weight at particle 0: x=0.0 "
        f"(log q=-inf, log f={log_f!r}, log g=-0.0)")


def test_conditional_expectation_matches_quadrature(cox_model, gamma_proposal):
    # For a frozen parent set, E[(unnormalized estimate of phi)] equals the
    # parent average of int f(x|x') g(y|x) phi(x) dx.
    parents = cox_model.prior_sample(RngStream(31).gen, 50)
    y, inner = 1, 4000
    tiled = np.tile(parents, inner)
    draws = gamma_proposal.propose(tiled, y, RngStream(32).gen)
    lw = _raw_log_weights(cox_model, gamma_proposal, draws, tiled, y)
    vals = (np.exp(lw) * EXP_NEG(draws)).reshape(inner, 50).mean(axis=1)
    mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(inner)

    def integrand(x, xp):
        return math.exp(float(cox_model.transition_logdensity(np.array([x]), np.array([xp]))[0])
                        + float(cox_model.likelihood_logdensity(y, np.array([x]))[0])) * math.exp(-x)

    truth = np.mean([integrate.quad(integrand, 0, 40, args=(xp,), limit=200)[0]
                     for xp in parents])
    assert abs(mc - truth) <= 3 * se


# ---------------------------------------------------------------------------
# normalize


def test_normalize_simple():
    w, _ = _normalize([math.log(2), math.log(2)])
    assert np.allclose(w, [[0.5, 0.5]])


def test_normalize_single_survivor():
    w, _ = _normalize([0.0, -math.inf, -math.inf])
    assert w.tolist() == [[1.0, 0.0, 0.0]]


def test_normalize_extreme_magnitudes():
    # exp(-1000) underflows, but the max-shift identity keeps the ratio
    w, _ = _normalize([-1000.0, -1001.0])
    expected = [1 / (1 + math.exp(-1)), math.exp(-1) / (1 + math.exp(-1))]
    assert np.allclose(w[0], expected, rtol=1e-12)
    assert w[0, 0] == pytest.approx(0.7310585786300049, rel=1e-12)


def test_normalize_degenerate_raises():
    with pytest.raises(DegenerateWeights):
        _normalize([-math.inf, -math.inf])


def test_normalize_names_an_off_total_as_a_plain_float():
    # row 1's weights are 0.5 each and total 2
    w = np.array([[0.25] * 4, [0.5] * 4])
    with pytest.raises(DomainError) as info:
        _checked_sums(w)
    assert str(info.value) == "normalized weights sum to 2.0, not 1"
    assert info.value.row == 1


@settings(max_examples=200, deadline=None)
@given(lw=st.lists(st.floats(min_value=-1e6, max_value=700), min_size=1, max_size=40))
def test_normalized_weights_sum_to_one(lw):
    w, total = _normalize(lw)
    assert math.isclose(float(np.sum(w)), 1.0, rel_tol=1e-12)
    assert math.isclose(float(total[0]), 1.0, rel_tol=1e-12)
    assert np.all(w >= 0)
    assert np.allclose(w[0], softmax(lw), rtol=1e-12, atol=1e-300)


def test_evidence_increment_is_the_log_mean_raw_weight():
    # raw log weights spanning 1e6: the shift keeps the dominant terms exact
    raw = np.array([[5e5, 5e5 - 1.0, -5e5, 5e5 - 30.0, -math.inf]])
    evidence, _, _ = _normalize_rows(raw.copy(), np.empty_like(raw))
    assert evidence[0] == pytest.approx(logsumexp(raw[0]) - math.log(5), rel=1e-15)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_equal_weights_cap():
    assert _estimate([1.0, 3.0], [0.0, 0.0], make_test_function("min_cap(10)")) == 2.0


def test_estimate_constant_is_exactly_one():
    assert _estimate([0.3, 5.0, 2.2], [0.0] * 3, ONE) == 1.0


def test_estimate_hand_value():
    expected = 0.25 + 0.75 * math.exp(-2)
    value = _estimate([0.0, 2.0], np.log([0.25, 0.75]), EXP_NEG)
    assert value == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.35150, abs=5e-6)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 50), st.floats(-600, 10)), min_size=1, max_size=30))
def test_estimate_bounded_by_sup_norm(pairs):
    particles = [p for p, _ in pairs]
    log_weights = [w for _, w in pairs]
    for name in ("one", "exp_neg", "min_cap(10)"):
        phi = make_test_function(name)
        assert abs(_estimate(particles, log_weights, phi)) <= phi.sup_norm * (1 + 1e-12)
    assert _estimate(particles, log_weights, ONE) == 1.0


# ---------------------------------------------------------------------------
# run_filter / run_filters


def test_identity_resampler_keeps_constant_estimate(cox_model, gamma_proposal):
    run = run_filter(cox_model, gamma_proposal, [(1, 1)], 64, identity_resampler, 41,
                     [ONE], record_clouds=64)
    assert run.estimates["one"][0] == 1.0
    assert run.resampled_estimates["one"][0] == 1.0
    proposed, _, resampled = run.clouds[0]
    assert np.array_equal(resampled, proposed)


def test_single_lg_step_matches_kalman():
    model = LinearGaussianModel(a=0.9, q_var=0.3, h=1.0, r_var=0.4, m0=0.0, p0=1.0)
    ssm, prop = make_lg_model(model), make_lg_bootstrap_proposal(model)
    y = 1.3
    kal = kalman_filter(model, [y])[0]
    runs = run_filters(ssm, prop, [(1, y)], 5000, get_scheme("multinomial"),
                       [RngStream(100 + rep) for rep in range(12)], record_clouds=5000)
    means = np.array([float(np.dot(run.clouds[0, 1], run.clouds[0, 0])) for run in runs])
    se = means.std(ddof=1)
    assert abs(means[0] - kal.mean) <= 3 * se


def test_run_filter_deterministic(cox_model, gamma_proposal, fixture_obs):
    kw = dict(n=512, resampler=get_scheme("systematic"), master_seed=9,
              test_functions=[ONE, EXP_NEG], record_clouds=100)
    a = run_filter(cox_model, gamma_proposal, fixture_obs, **kw)
    b = run_filter(cox_model, gamma_proposal, fixture_obs, **kw)
    assert a.clouds.shape == (len(fixture_obs), 3, 100)
    _assert_same_runs([a], [b])
    with pytest.raises(ValueError, match="read-only"):  # the rows share steps
        a.steps[0] = 0


def test_run_filter_lg_tracks_kalman():
    model = LinearGaussianModel(a=0.95, q_var=0.2, h=1.0, r_var=0.5, m0=0.0, p0=1.0)
    _, obs = simulate_lg(model, 20, master_seed=77)
    beliefs = kalman_filter(model, [y for _, y in obs])
    ssm, prop = make_lg_model(model), make_lg_bootstrap_proposal(model)
    runs = [run_filter(ssm, prop, obs, 2000, get_scheme("multinomial"),
                       RngStream(500 + r), record_clouds=2000)
            for r in range(10)]
    mean_traces = np.array([[float(np.dot(w, x) / np.sum(w)) for x, w, _ in run.clouds]
                            for run in runs])
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


@pytest.mark.parametrize("scheme, proposal", [
    (scheme, proposal)
    for scheme in ("multinomial", "stratified", "systematic")
    for proposal in ("gamma_proposal", "bootstrap_proposal")
])
def test_run_filters_rows_equal_single_runs(request, cox_model, fixture_obs,
                                            scheme, proposal):
    kw = dict(resampler=get_scheme(scheme), test_functions=[ONE, EXP_NEG],
              record_clouds=50)
    prop = request.getfixturevalue(proposal)
    streams = [RngStream(5, (2, r)) for r in range(5)]
    batch = run_filters(cox_model, prop, fixture_obs, 50, streams=streams, **kw)
    singles = [run_filter(cox_model, prop, fixture_obs, 50, master_seed=s, **kw)
               for s in streams]
    _assert_same_runs(batch, singles)


@pytest.mark.parametrize("proposal, error", [
    ("gamma_proposal", WeightNotFinite),  # Gamma density 0 at x = 0: NaN weights
    ("bootstrap_proposal", DegenerateWeights),  # y_3 = 1 is impossible at x = 0
    ("gamma_proposal", CountMismatch),  # the resampler's row-2 counts sum to N + 1
])
def test_run_filters_names_failing_row_and_step(request, cox_model, fixture_obs,
                                                proposal, error):
    base = request.getfixturevalue(proposal)
    multinomial = get_scheme("multinomial")

    collapse = _stream_key(1, (2, 3, 0))

    def propose(x_prev, y, rng):  # row 2 collapses to 0 at t = 3
        if error is not CountMismatch and philox_key(rng) == collapse:
            return np.zeros(len(x_prev))
        return base.propose(x_prev, y, rng)

    calls = []

    def resample(w, n, rngs, out=None):  # the third call is step t = 3
        counts = multinomial.resample(w, n, rngs, out=out)
        calls.append(len(calls) + 1)
        if error is CountMismatch and calls[-1] == 3:
            counts[2, 0] += 1
        return counts

    streams = [RngStream(1, (r,)) for r in range(4)]
    with pytest.raises(error, match=r"filter step t=3, row 2: ") as info:
        run_filters(cox_model, Proposal(propose, base.logdensity), fixture_obs, 16,
                    ResampleScheme("test double", resample), streams)
    assert info.value.row == 2


def test_run_filters_builds_one_generator_per_block(monkeypatch, cox_model,
                                                    gamma_proposal, fixture_obs):
    # a bare Generator(Philox(key=0)), re-keyed row by row: no stream's
    # SeedSequence-seeded generator is built
    built, streams_built = [], []
    build, stream_build = np.random.Generator, RngStream.gen.fget

    def counting(bit_generator):
        built.append(bit_generator)
        return build(bit_generator)

    def counting_stream(stream):
        if stream._gen is None:
            streams_built.append(stream)
        return stream_build(stream)

    monkeypatch.setattr(np.random, "Generator", counting)
    monkeypatch.setattr(RngStream, "gen", property(counting_stream))
    run_filters(cox_model, gamma_proposal, fixture_obs, 8, get_scheme("multinomial"),
                [RngStream(3, (r,)) for r in range(6)])
    assert len(built) == 1
    assert streams_built == []


def test_run_block_builds_no_stream_per_row_or_step(monkeypatch, cox_model,
                                                   gamma_proposal, fixture_obs):
    # the rows draw from the block's bare generator itself, re-keyed: a
    # block builds no stream
    built = []

    class Counting(RngStream):  # every stream the rng module builds
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            built.append(cls)
            return super().__new__(cls)

    roots = [RngStream(3, (r,)) for r in range(4)]
    monkeypatch.setattr("pfconv.rng.RngStream", Counting)
    for steps in (1, 6):
        built.clear()
        engine._run_block(cox_model, gamma_proposal, list(fixture_obs)[:steps], 8,
                          get_scheme("systematic"), roots)
        assert built == []


def test_run_filter_memory_stays_linear(monkeypatch, cox_model, gamma_proposal,
                                        fixture_obs):
    # N = 2^18 particles take 2 MiB per float array.  On one core the whole
    # step runs on the calling thread and reuses three (M, N) buffers, and
    # the counts go over the log weights: about 6.4 MiB at the peak for
    # systematic, which computes its positions where it needs them,
    # 8.0 MiB for multinomial, whose numpy draw returns a fresh count
    # vector, and 8.5 MiB for stratified, which holds a row of positions.
    # A fourth buffer would add 2 MiB to each.
    import os
    import numpy.random  # noqa: F401  its first import adds 0.7 MiB: load it before tracing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for scheme, limit_mib in (("systematic", 8.0), ("multinomial", 9.0),
                              ("stratified", 9.5)):
        tracemalloc.start()
        try:
            run_filter(cox_model, gamma_proposal, list(fixture_obs)[:10], 2 ** 18,
                       get_scheme(scheme), 3, [EXP_NEG])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2 ** 20, f"{scheme}: peak {peak / 2 ** 20:.2f} MiB"


def test_run_filter_memory_with_the_draw_thread(draw_thread, cox_model, gamma_proposal,
                                                fixture_obs):
    # Three (M, N) buffers of 2 MiB each at N = 2^18: the parents are the
    # scratch of normalizing and estimating, the normalized weights and
    # then the counts go over the log weights, and the helper draws the
    # next proposals into their own buffer behind the duplication.  About
    # 6.4 MiB at the peak for systematic and 8.0 MiB for multinomial,
    # whose numpy draw returns a fresh count vector.
    import numpy.random  # noqa: F401  its first import adds 0.7 MiB: load it before tracing
    draw_thread(2)
    for scheme, limit_mib in (("systematic", 8.0), ("multinomial", 9.0)):
        prop, drew_on = _watched(gamma_proposal)
        tracemalloc.start()
        try:
            run_filter(cox_model, prop, list(fixture_obs)[:10], 2 ** 18,
                       get_scheme(scheme), 3, [EXP_NEG])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert threading.get_ident() not in drew_on  # the helper thread drew
        assert peak <= limit_mib * 2 ** 20, f"{scheme}: peak {peak / 2 ** 20:.2f} MiB"


# ---------------------------------------------------------------------------
# slabs: a block's stages work slab by slab along the flattened block


def _lg_case():
    model = LinearGaussianModel(a=0.9, q_var=0.3, h=1.0, r_var=0.4, m0=0.0, p0=1.0)
    return (make_lg_model(model), make_lg_bootstrap_proposal(model),
            simulate_lg(model, 6, master_seed=12)[1])


@pytest.mark.parametrize("m, n", [(1, 2 * 8192 + 3), (3, 3001)])
@pytest.mark.parametrize("case", [
    *((proposal, scheme) for proposal in ("gamma_proposal", "bootstrap_proposal")
      for scheme in ("multinomial", "stratified", "systematic")),
    ("linear_gaussian", "multinomial"),
])
def test_slabs_leave_every_bit_unchanged(monkeypatch, request, cox_model, fixture_obs,
                                         m, n, case):
    proposal, scheme = case
    if proposal == "linear_gaussian":
        model, prop, obs = _lg_case()
    else:
        model, prop, obs = cox_model, request.getfixturevalue(proposal), fixture_obs
    assert len(resampling.slabs(m * n)) > 1

    def runs():
        return run_filters(model, prop, obs, n, get_scheme(scheme),
                           [RngStream(4, (r,)) for r in range(m)], [ONE, EXP_NEG],
                           record_clouds=n)

    sliced = runs()
    monkeypatch.setattr(resampling, "SLAB", m * n)  # every stage in one slab
    _assert_same_runs(sliced, runs())


def test_non_finite_weight_in_a_later_slab_reports_as_in_one_slab(
        monkeypatch, cox_model, gamma_proposal, fixture_obs):
    m, n, row, particle = 3, 6000, 2, 5000  # flat index 17000: the third slab
    target = _stream_key(1, (row, 2, 0))

    def failure():
        drawn = {}

        def propose(x_prev, y, rng):  # row 2's particle 5000 lands on 0 at t = 2
            x = gamma_proposal.propose(x_prev, y, rng)
            key = philox_key(rng)
            start = drawn[key] = drawn.get(key, 0)
            drawn[key] += len(x)
            if key == target and start <= particle < start + len(x):
                x[particle - start] = 0.0  # Gamma density 0: the log weight is +inf
            return x

        with pytest.raises(WeightNotFinite) as info:
            run_filters(cox_model, Proposal(propose, gamma_proposal.logdensity),
                        fixture_obs, n, get_scheme("systematic"),
                        [RngStream(1, (r,)) for r in range(m)])
        return info.value

    sliced = failure()
    monkeypatch.setattr(resampling, "SLAB", m * n)
    whole = failure()
    assert sliced.row == whole.row == row
    assert str(sliced) == str(whole)
    assert str(sliced).startswith(
        f"filter step t=2, row {row}: non-finite log weight at particle {particle}: x=")


# ---------------------------------------------------------------------------
# the draw thread: a large block draws its proposals on a helper thread

SLAB = resampling.SLAB


@pytest.fixture
def draw_thread(monkeypatch):
    """Two cores visible and a block of two slabs enough for the helper
    thread (the thread works the same at any slab count); returns a
    setter for the cores the run may use (PFCONV_WORKERS)."""
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(engine, "DRAW_THREAD_SLABS", 2)
    return lambda workers: monkeypatch.setenv(WORKERS_ENV, str(workers))


def _watched(base: Proposal, change=None):
    """base, recording the threads that draw; change(x, key, slab), when
    given, may alter or refuse each slab a row draws at a step, the row
    and step known by the generator's key (`_stream_key`)."""
    threads, slab = set(), {}

    def propose(x_prev, y, rng):
        threads.add(threading.get_ident())
        x = base.propose(x_prev, y, rng)
        key = philox_key(rng)
        slab[key] = slab.get(key, -1) + 1
        if change is not None:
            change(x, key, slab[key])
        return x

    return Proposal(propose, base.logdensity), threads


@pytest.mark.parametrize("m, n", [(1, SLAB), (2, 2 * SLAB), (2, 3 * SLAB + 5)])
@pytest.mark.parametrize("scheme", ["multinomial", "stratified", "systematic"])
@pytest.mark.parametrize("proposal", ["gamma_proposal", "bootstrap_proposal"])
def test_draw_thread_leaves_every_bit_unchanged(request, draw_thread, cox_model,
                                                fixture_obs, m, n, scheme, proposal):
    base = request.getfixturevalue(proposal)
    runs, drew_on = {}, {}
    for workers in (1, 2):
        draw_thread(workers)
        prop, drew_on[workers] = _watched(base)
        runs[workers] = run_filters(cox_model, prop, fixture_obs, n, get_scheme(scheme),
                                    [RngStream(6, (r,)) for r in range(m)],
                                    [ONE, EXP_NEG], record_clouds=n)
    caller = threading.get_ident()
    assert drew_on[1] == {caller}  # one worker: the caller draws
    assert len(drew_on[2]) == 1 and (caller in drew_on[2]) == (m * n <= SLAB)
    _assert_same_runs(runs[1], runs[2])


def test_draw_thread_starts_at_its_slab_count(monkeypatch, cox_model, gamma_proposal,
                                              fixture_obs):
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    caller, least = threading.get_ident(), engine.DRAW_THREAD_SLABS
    for env, m, n, on_caller in ((None, 1, (least - 1) * SLAB, True),
                                 (None, 2, least // 2 * SLAB, False),
                                 ("1", 2, least // 2 * SLAB, True)):
        if env is not None:
            monkeypatch.setenv(WORKERS_ENV, env)
        prop, drew_on = _watched(gamma_proposal)
        run_filters(cox_model, prop, list(fixture_obs)[:1], n, get_scheme("systematic"),
                    [RngStream(5, (r,)) for r in range(m)])
        assert len(drew_on) == 1 and (caller in drew_on) == on_caller


def test_draw_thread_proposal_error_wins_over_an_earlier_weight_error(
        draw_thread, cox_model, gamma_proposal, fixture_obs):
    # M = 2 rows of 2 slabs: flat slab 0 is row 0's first, flat slab 3 row 1's second

    def change(x, key, slab):
        if key == _stream_key(1, (0, 2, 0)) and slab == 0:
            x[7] = 0.0  # Gamma density 0: the log weight is +inf
        if key == _stream_key(1, (1, 2, 0)) and slab == 1:
            raise DomainError("no draw")

    for workers in (1, 2):
        draw_thread(workers)
        prop, _ = _watched(gamma_proposal, change)
        with pytest.raises(DomainError) as info:
            run_filters(cox_model, prop, fixture_obs, 2 * SLAB, get_scheme("systematic"),
                        [RngStream(1, (r,)) for r in range(2)])
        assert not isinstance(info.value, WeightNotFinite)
        assert info.value.row == 1
        assert str(info.value) == "filter step t=2, row 1: no draw"


def test_draw_thread_names_the_non_finite_weight_of_the_inline_run(
        draw_thread, cox_model, gamma_proposal, fixture_obs):
    n = 3 * SLAB + 5  # row 1's particle 10 sits in flat slab 3, which spans both rows

    def change(x, key, slab):
        if key == _stream_key(2, (1, 3, 0)) and slab == 0:
            x[10] = 0.0

    errors = []
    for workers in (1, 2):
        draw_thread(workers)
        prop, _ = _watched(gamma_proposal, change)
        with pytest.raises(WeightNotFinite) as info:
            run_filters(cox_model, prop, fixture_obs, n, get_scheme("multinomial"),
                        [RngStream(2, (r,)) for r in range(2)])
        errors.append(info.value)
    assert errors[0].row == errors[1].row == 1
    assert str(errors[0]) == str(errors[1])
    assert str(errors[1]).startswith(
        "filter step t=3, row 1: non-finite log weight at particle 10: x=")


def test_draw_thread_ends_with_the_run(draw_thread, cox_model, gamma_proposal,
                                       fixture_obs):
    def change(x, key, slab):
        if key == _stream_key(3, (4, 0)) and slab == 1:  # run_filter's root has no labels
            x[0] = 0.0

    def run(prop):
        return run_filter(cox_model, prop, fixture_obs, 2 * SLAB,
                          get_scheme("systematic"), 3)

    draw_thread(2)
    before = threading.active_count()
    prop, drew_on = _watched(gamma_proposal)
    run(prop)
    assert drew_on and threading.get_ident() not in drew_on
    assert threading.active_count() == before
    prop, drew_on = _watched(gamma_proposal, change)
    with pytest.raises(WeightNotFinite, match="filter step t=4"):
        run(prop)
    assert drew_on and threading.get_ident() not in drew_on
    assert threading.active_count() == before


@pytest.mark.parametrize("scheme", ["multinomial", "systematic"])
@pytest.mark.parametrize("proposal", ["gamma_proposal", "bootstrap_proposal"])
def test_draw_thread_at_its_default_slab_count_leaves_every_bit_unchanged(
        monkeypatch, request, cox_model, fixture_obs, scheme, proposal):
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    base, n = request.getfixturevalue(proposal), engine.DRAW_THREAD_SLABS * SLAB
    runs, drew_on = {}, {}
    for workers in (1, 2):
        monkeypatch.setenv(WORKERS_ENV, str(workers))
        prop, drew_on[workers] = _watched(base)
        runs[workers] = run_filters(cox_model, prop, list(fixture_obs)[:3], n,
                                    get_scheme(scheme), [RngStream(9)], [ONE, EXP_NEG],
                                    record_clouds=n)
    caller = threading.get_ident()
    assert drew_on[1] == {caller}
    assert len(drew_on[2]) == 1 and caller not in drew_on[2]
    _assert_same_runs(runs[1], runs[2])


def _ended(seconds: float, run):
    """run() on a thread of its own, which must end within the given
    seconds: (its value, None), or (None, the exception it raised)."""
    outcome = []

    def target():
        try:
            outcome.append((run(), None))
        except Exception as err:
            outcome.append((None, err))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the run did not end"
    return outcome[0]


def test_draw_thread_bits_hold_under_frequent_thread_switches(
        draw_thread, cox_model, bootstrap_proposal, fixture_obs):
    # three rows of two slabs and a bit, drawn from their parents (bootstrap)
    # while the caller duplicates them, and the interpreter switches threads
    # every 10 us instead of every 5 ms
    runs = {}
    for workers in (1, 2):
        draw_thread(workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs[workers], err = _ended(120, lambda: run_filters(
                cox_model, bootstrap_proposal, fixture_obs, 2 * SLAB + 5,
                get_scheme("systematic"), [RngStream(8, (r,)) for r in range(3)],
                [ONE, EXP_NEG], record_clouds=SLAB))
        finally:
            sys.setswitchinterval(interval)
        assert err is None
    _assert_same_runs(runs[1], runs[2])


@pytest.mark.parametrize("stop", ["test function", "duplication"])
def test_draw_thread_pipeline_raises_the_earlier_step_error(
        monkeypatch, draw_thread, cox_model, gamma_proposal, fixture_obs, stop):
    # step t = 2 fails after its counts pass, while the proposals of t = 3,
    # drawn ahead on the helper, fail too; the duplication variant stops
    # short, so the helper waits for parents that never come
    n = 2 * SLAB  # per step: two slabs of estimates, two resampled ones

    def change(x, key, slab):
        if key == _stream_key(3, (3, 0)) and slab == 1:
            raise DomainError("no draw at t=3")

    calls = []

    def failing_phi(x):  # the fourth slab of t = 2 is its first resampled one
        calls.append(len(calls) + 1)
        if stop == "test function" and calls[-1] == 7:
            raise DomainError("phi failed at t=2")
        return np.ones_like(x)

    duplicate = engine.repeat_checked
    steps = []

    def stopping(particles, counts, out, written):
        steps.append(len(steps) + 1)
        if stop == "duplication" and steps[-1] == 2:
            def first_slab_only(upto):
                written(upto)
                raise DomainError("duplication stopped at t=2")
            return duplicate(particles, counts, out, first_slab_only)
        return duplicate(particles, counts, out, written)

    monkeypatch.setattr(engine, "repeat_checked", stopping)
    message = {"test function": "phi failed at t=2",
               "duplication": "duplication stopped at t=2"}[stop]
    for workers in (1, 2):
        draw_thread(workers)
        calls.clear()
        steps.clear()
        prop, drew_on = _watched(gamma_proposal, change)
        before = threading.active_count()
        _, err = _ended(60, lambda: run_filter(
            cox_model, prop, fixture_obs, n, get_scheme("systematic"), 3,
            [dataclasses.replace(ONE, name="failing", fn=failing_phi)]))
        assert isinstance(err, DomainError)
        assert str(err) == f"filter step t=2: {message}"
        assert threading.active_count() == before
        assert drew_on


def test_run_filter_rejects_zero_particles(cox_model, gamma_proposal, fixture_obs):
    with pytest.raises(ValueError):
        run_filter(cox_model, gamma_proposal, fixture_obs, 0, get_scheme("multinomial"), 1)


def test_run_filter_requires_observations(cox_model, gamma_proposal):
    with pytest.raises(ValueError):
        run_filter(cox_model, gamma_proposal, [], 16, get_scheme("multinomial"), 1)
    with pytest.raises(ValueError):
        run_filter(cox_model, gamma_proposal, [(0, 1)], 16,
                   get_scheme("multinomial"), 1)
    # each step's streams are keyed by its label: two steps labelled 1
    # drew the same proposals
    with pytest.raises(ValueError, match=r"^step index t=1 repeats"):
        run_filter(cox_model, gamma_proposal, [(1, 0), (2, 0), (1, 0)], 8,
                   get_scheme("multinomial"), 3, record_clouds=8)
