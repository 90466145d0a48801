import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pfconv import (
    MomentCondition,
    RngStream,
    check_cox_moment_condition,
    quadrature_weight_moment,
)
from pfconv.cox import GammaProposal, make_gamma_proposal
from pfconv.engine import _normalize_rows, _raw_log_weights
from pfconv.errors import DomainError
from pfconv.moments import MomentStatus, quadrature_refinements

C, ETA = 0.5, 0.1


def _closed_form_bound(p, alpha, beta, c, eta):
    """Independent recomputation of the envelope constant."""
    k = 2 * math.gamma(alpha) / (beta ** alpha * math.sqrt(2 * math.pi * eta))
    s = (1 - p) * alpha + p
    tail = (p - 1) * beta - p * c
    return (beta ** alpha / math.gamma(alpha)) * k ** p * math.gamma(s) / (-tail) ** s


def _quad_reference(model, proposal, x_prev, y, p, hi=80.0):
    """scipy adaptive quadrature of the same integral (independent route)."""
    def integrand(x):
        xs = np.array([x])
        lw = _raw_log_weights(model, proposal, xs, np.array([x_prev]), y)
        lq = proposal.logdensity(xs, np.array([x_prev]), y)
        val = p * lw[0] + float(np.asarray(lq)[0])
        return math.exp(val) if val > -700 else 0.0

    total = 0.0
    for a, b in ((0.0, 0.05), (0.05, 1.0), (1.0, hi)):
        total += integrate.quad(integrand, a, b, limit=400)[0]
    return total


# ---------------------------------------------------------------------------
# effective sample size


def _ess(log_weights) -> float:
    """The effective sample size a filter step gives one row of log weights."""
    lw = np.array([log_weights], dtype=float)
    _, _, ess = _normalize_rows(lw, np.empty_like(lw))
    return float(ess[0])


def test_ess_uniform():
    assert _ess(np.full(100, -math.log(100))) == 100.0


def test_ess_single_survivor():
    assert _ess([0.0, -math.inf, -math.inf]) == 1.0


def test_ess_hand_value():
    assert _ess(np.log([0.5, 0.25, 0.25])) == pytest.approx(1 / 0.375, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=-300, max_value=0), min_size=1, max_size=50))
def test_ess_range_property(lw):
    lw = np.asarray(lw)
    value = _ess(lw)
    n = len(lw)
    assert 1.0 <= value <= n
    if np.all(lw == lw[0]):
        assert value == n
    elif np.ptp(lw) > 1e-6:
        assert value < n


# ---------------------------------------------------------------------------
# closed-form verdicts


def test_verdict_satisfied_p2_reference_parameters():
    verdict = check_cox_moment_condition(MomentCondition(2, 1.5, 0.5, C, ETA))
    assert verdict.status is MomentStatus.SATISFIED
    assert verdict.singularity_exponent == pytest.approx(0.5)
    assert verdict.tail_rate == pytest.approx(-0.5)
    assert verdict.bound == pytest.approx(_closed_form_bound(2, 1.5, 0.5, C, ETA),
                                          rel=1e-12)
    assert verdict.bound == pytest.approx(40.0, rel=1e-10)


def test_verdict_divergent_singularity_p4():
    verdict = check_cox_moment_condition(MomentCondition(4, 1.5, 0.5, C, ETA))
    assert verdict.status is MomentStatus.DIVERGENT_SINGULARITY
    assert verdict.singularity_exponent == pytest.approx(-0.5)
    assert verdict.bound is None


def test_verdict_satisfied_p4_smaller_alpha():
    verdict = check_cox_moment_condition(MomentCondition(4, 1.25, 0.5, C, ETA))
    assert verdict.status is MomentStatus.SATISFIED
    assert verdict.singularity_exponent == pytest.approx(0.25)
    assert verdict.tail_rate == pytest.approx(-0.5)
    assert verdict.bound == pytest.approx(_closed_form_bound(4, 1.25, 0.5, C, ETA),
                                          rel=1e-12)


def test_verdict_divergent_tail():
    verdict = check_cox_moment_condition(MomentCondition(4, 1.1, 0.9, C, ETA))
    assert verdict.status is MomentStatus.DIVERGENT_TAIL
    assert verdict.tail_rate == pytest.approx(3 * 0.9 - 2.0)
    assert verdict.bound is None


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("name", ["alpha", "beta", "c", "eta"])
def test_condition_parameters_must_be_finite_and_positive(name, bad):
    # inf used to give a `satisfied` p = 2 verdict with bound 0.0
    args = {"alpha": 1.5, "beta": 0.5, "c": C, "eta": ETA, name: bad}
    with pytest.raises(DomainError, match=f"^{name} must be finite and positive"):
        MomentCondition(2, **args)


def test_condition_validation():
    with pytest.raises(DomainError):
        MomentCondition(3, 1.5, 0.5, C, ETA)
    with pytest.raises(DomainError):
        MomentCondition(2, -1.5, 0.5, C, ETA)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 4]),
       alpha=st.floats(0.05, 4.0), beta=st.floats(0.05, 4.0),
       c=st.floats(0.05, 4.0), eta=st.floats(0.01, 4.0))
def test_verdict_classification_iff_property(p, alpha, beta, c, eta):
    verdict = check_cox_moment_condition(MomentCondition(p, alpha, beta, c, eta))
    s = (1 - p) * alpha + p
    tail = (p - 1) * beta - p * c
    assert verdict.singularity_exponent == pytest.approx(s)
    assert verdict.tail_rate == pytest.approx(tail)
    satisfied = s > 0 and tail < 0
    assert (verdict.status is MomentStatus.SATISFIED) == satisfied
    assert (verdict.bound is not None) == satisfied
    if satisfied:
        assert verdict.bound > 0 and math.isfinite(verdict.bound)


# ---------------------------------------------------------------------------
# quadrature oracle


def test_quadrature_bootstrap_mean_weight_is_bounded_by_likelihood_sup(
        cox_model, bootstrap_proposal):
    # with q = f the weight is just g, so E[w] = int g f dx <= sup g = 1
    for y in (0, 1, 3):
        val = quadrature_weight_moment(cox_model, bootstrap_proposal, 1.0, y, 1, 10)
        ref = _quad_reference(cox_model, bootstrap_proposal, 1.0, y, 1)
        assert val <= 1.0 + 1e-9
        assert val == pytest.approx(ref, rel=2e-3)


def test_quadrature_converges_for_satisfied_case(cox_model, gamma_proposal):
    seq = quadrature_refinements(cox_model, gamma_proposal, 1.0, 0, 2, 14)
    deltas = np.diff(seq)
    assert np.all(deltas >= 0)  # refinements only ever add mass
    assert abs(seq[-1] - seq[-2]) < 1e-4
    ref = _quad_reference(cox_model, gamma_proposal, 1.0, 0, 2)
    assert seq[-1] == pytest.approx(ref, rel=2e-3)
    bound = check_cox_moment_condition(MomentCondition(2, 1.5, 0.5, C, ETA)).bound
    assert seq[-1] <= bound


def test_quadrature_diverges_for_singular_case(cox_model):
    # The integrand behaves like x^(-3/2) near zero for every parent state,
    # but the coefficient is largest at the reflecting boundary, where the
    # singular octaves dominate the smooth bulk from low levels on.
    proposal = make_gamma_proposal(GammaProposal(1.5, 0.5))
    seq = quadrature_refinements(cox_model, proposal, 0.0, 0, 4, 13)
    for level in range(6, 13):
        assert seq[level - 1] > 1.2 * seq[level - 2]
    # away from the boundary the same divergence shows in the octave masses
    far = quadrature_refinements(cox_model, proposal, 1.0, 0, 4, 13)
    octave_masses = np.diff(far)
    assert np.all(octave_masses[5:] > 1.2 * octave_masses[4:-1])


def test_quadrature_level_validation(cox_model, gamma_proposal):
    with pytest.raises(DomainError):
        quadrature_weight_moment(cox_model, gamma_proposal, 1.0, 0, 2, 0)


def test_verdict_oracle_agreement_sweep(cox_model):
    # closed-form classification versus the quadrature refinement signature
    for p in (2, 4):
        for alpha in (1.1, 1.25, 1.5, 1.9):
            for beta in (0.3, 0.5, 0.9):
                verdict = check_cox_moment_condition(
                    MomentCondition(p, alpha, beta, C, ETA))
                if verdict.tail_rate >= 0:
                    assert verdict.status is MomentStatus.DIVERGENT_TAIL or \
                        verdict.singularity_exponent <= 0
                    continue
                proposal = make_gamma_proposal(GammaProposal(alpha, beta))
                if verdict.status is MomentStatus.SATISFIED:
                    seq = quadrature_refinements(cox_model, proposal, 1.0, 0, p, 14)
                    deltas = np.diff(seq)
                    ratios = deltas[1:] / deltas[:-1]
                    # octave masses shrink geometrically (ratio ~ 2^-s < 1),
                    # so the refinement sequence is Cauchy and the limit is
                    # under the closed-form envelope
                    assert np.all(ratios[-6:] < 1.0)
                    tail_ratio = float(ratios[-1])
                    limit_upper = seq[-1] + deltas[-1] * tail_ratio / (1 - tail_ratio)
                    assert limit_upper <= verdict.bound
                else:
                    assert verdict.status is MomentStatus.DIVERGENT_SINGULARITY
                    # at the boundary state the singular mass dominates:
                    # values grow without a plateau through level 14
                    seq = quadrature_refinements(cox_model, proposal, 0.0, 0, p, 14)
                    deltas = np.diff(seq)
                    ratios = deltas[1:] / deltas[:-1]
                    assert np.all(ratios[-6:] > 1.0)
                    assert seq[-1] > 2 * seq[6]


# ---------------------------------------------------------------------------
# Monte Carlo estimate: an independent check of the quadrature


def empirical_weight_moment(model, proposal, x_prev: float, y, p: int, k: int,
                            rng: RngStream) -> tuple[float, float]:
    """Monte Carlo mean of w^p over k proposal draws, with jackknife stderr.

    For divergent moments the estimate never stabilizes: it keeps growing
    with k (compare runs at two sample sizes to flag the instability).
    """
    if k < 100:
        raise DomainError("empirical moment needs at least 100 samples")
    xp = np.full(k, float(x_prev))
    draws = np.asarray(proposal.propose(xp, y, rng.gen), dtype=float)
    lw = _raw_log_weights(model, proposal, draws, xp, y)
    wp = np.exp(p * lw)
    total = float(np.sum(wp))
    mean = total / k
    # Jackknife over leave-one-out means; for the sample mean this equals
    # the classical stderr but is written out for clarity of contract.
    loo = (total - wp) / (k - 1)
    se = math.sqrt((k - 1) / k * float(np.sum((loo - np.mean(loo)) ** 2)))
    return mean, se


def test_empirical_matches_quadrature_bootstrap(cox_model, bootstrap_proposal):
    est, se = empirical_weight_moment(cox_model, bootstrap_proposal, 1.0, 1, 1,
                                      200_000, RngStream(40))
    ref = quadrature_weight_moment(cox_model, bootstrap_proposal, 1.0, 1, 1, 12)
    assert abs(est - ref) <= 3 * se


def test_empirical_matches_quadrature_singular_weight(cox_model, gamma_proposal):
    est, se = empirical_weight_moment(cox_model, gamma_proposal, 1.0, 0, 2,
                                      10 ** 6, RngStream(41))
    ref = quadrature_weight_moment(cox_model, gamma_proposal, 1.0, 0, 2, 14)
    assert abs(est - ref) <= 3 * se


def test_empirical_divergent_moment_is_unstable(cox_model, gamma_proposal):
    # E[w^4] is infinite at alpha = 1.5: the running estimate keeps growing
    small, _ = empirical_weight_moment(cox_model, gamma_proposal, 1.0, 0, 4,
                                       10 ** 4, RngStream(42))
    large, _ = empirical_weight_moment(cox_model, gamma_proposal, 1.0, 0, 4,
                                       10 ** 6, RngStream(42))
    assert large > small


def test_empirical_requires_minimum_samples(cox_model, gamma_proposal):
    with pytest.raises(DomainError):
        empirical_weight_moment(cox_model, gamma_proposal, 1.0, 0, 2, 10, RngStream(0))


def test_empirical_jackknife_matches_classical_stderr(cox_model, bootstrap_proposal):
    est, se = empirical_weight_moment(cox_model, bootstrap_proposal, 1.0, 1, 2,
                                      1000, RngStream(43))
    # reproduce the draws and compare against std/sqrt(k)
    xp = np.full(1000, 1.0)
    draws = bootstrap_proposal.propose(xp, 1, RngStream(43).gen)
    w2 = np.exp(2 * _raw_log_weights(cox_model, bootstrap_proposal, draws, xp, 1))
    assert est == pytest.approx(w2.mean(), rel=1e-12)
    assert se == pytest.approx(w2.std(ddof=1) / math.sqrt(1000), rel=1e-9)
