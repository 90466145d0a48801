import math

import numpy as np
import pytest
from scipy import integrate, stats

from pfconv import CoxParams, GammaProposal, ObservationSeries, RngStream, \
    cox_likelihood_logdensity, cox_transition_logdensity, gamma_logdensity, \
    gamma_propose, simulate
from pfconv.cli import cli_dispatch
from pfconv.cox import cox_prior_sample, poisson_inverse_cdf
from pfconv.errors import DomainError

ETA, C = 0.1, 0.5


# ---------------------------------------------------------------------------
# transition density


def test_transition_at_origin():
    # both exponents vanish: density is 2 / sqrt(2 pi eta)
    expected = 2.0 / math.sqrt(2 * math.pi * ETA)
    assert math.exp(cox_transition_logdensity(0.0, 0.0, ETA)) == pytest.approx(
        expected, rel=1e-12)
    assert expected == pytest.approx(2.5231, abs=5e-5)


def test_transition_two_term_value():
    expected = (math.exp(0.0) + math.exp(-1.0 / (2 * ETA))) / math.sqrt(2 * math.pi * ETA)
    got = math.exp(cox_transition_logdensity(0.5, 0.5, ETA))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.2701, abs=5e-5)


@pytest.mark.parametrize("x_prev", [0.0, 0.5, 1.0, 3.0])
def test_transition_integrates_to_one(x_prev):
    val, _ = integrate.quad(
        lambda x: math.exp(cox_transition_logdensity(x, x_prev, ETA)),
        0.0, x_prev + 12.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_transition_rejects_negative_states():
    with pytest.raises(DomainError):
        cox_transition_logdensity(-0.1, 1.0, ETA)
    with pytest.raises(DomainError):
        cox_transition_logdensity(0.1, -1.0, ETA)
    with pytest.raises(DomainError):
        cox_transition_logdensity(0.1, 1.0, 0.0)


def test_transition_matches_simulator_distribution():
    # 1e5 one-step draws of the shipped sampler from x_prev = 1 against the
    # folded density on 40 bins
    from pfconv.cox import make_bootstrap_proposal
    n, x_prev = 10 ** 5, 1.0
    sampler = make_bootstrap_proposal(CoxParams(C, ETA))
    draws = sampler.propose(np.full(n, x_prev), None, RngStream(71).gen)
    edges = np.linspace(0.0, draws.max() + 1e-9, 41)
    observed, _ = np.histogram(draws, bins=edges)
    sd = math.sqrt(ETA)
    cdf = (stats.norm.cdf((edges - x_prev) / sd)
           + stats.norm.cdf((edges + x_prev) / sd) - 1.0)
    expected = n * np.diff(cdf)
    keep = expected > 5
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    pvalue = stats.chi2.sf(chi2, keep.sum() - 1)
    assert pvalue > 1e-3


# ---------------------------------------------------------------------------
# likelihood


def test_likelihood_limit_at_zero():
    assert cox_likelihood_logdensity(0, 0.0, C) == 0.0  # g = 1
    assert cox_likelihood_logdensity(1, 0.0, C) == -math.inf
    assert cox_likelihood_logdensity(3, 0.0, C) == -math.inf


def test_likelihood_poisson_pmf_value():
    got = math.exp(cox_likelihood_logdensity(2, 2.0, C))
    assert got == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)
    assert got == pytest.approx(0.18394, abs=5e-6)


def test_likelihood_bounded_by_one():
    xs = np.linspace(0.0, 50.0, 501)
    for y in range(0, 12):
        assert np.all(cox_likelihood_logdensity(y, xs, C) <= 0.0)


def test_likelihood_rejects_bad_inputs():
    with pytest.raises(DomainError):
        cox_likelihood_logdensity(1, -0.5, C)
    with pytest.raises(DomainError):
        cox_likelihood_logdensity(-1, 0.5, C)


def test_negative_state_next_to_a_nan_is_rejected():
    # a NaN entry must not hide a negative one from the sign check
    states = np.array([np.nan, -1.0])
    with pytest.raises(DomainError, match="states must be nonnegative"):
        cox_transition_logdensity(states, 1.0, ETA)
    with pytest.raises(DomainError, match="states must be nonnegative"):
        cox_transition_logdensity(1.0, states, ETA)
    with pytest.raises(DomainError, match="states must be nonnegative"):
        cox_likelihood_logdensity(1, states, C)


# ---------------------------------------------------------------------------
# prior and proposal


def test_prior_sample_moments():
    draws = cox_prior_sample(RngStream(5).gen, 10 ** 6)
    assert np.all(draws >= 0)
    n = len(draws)
    mean_target = math.sqrt(2 / math.pi)
    mean_sd = math.sqrt(1 - 2 / math.pi)
    assert abs(draws.mean() - mean_target) <= 3 * mean_sd / math.sqrt(n)
    m2 = (draws ** 2).mean()
    m2_sd = math.sqrt(2.0)  # Var[xi^2] = 2 for standard normal xi
    assert abs(m2 - 1.0) <= 3 * m2_sd / math.sqrt(n)


def test_gamma_density_value():
    prop = GammaProposal(1.5, 0.5)
    got = math.exp(gamma_logdensity(prop, 1.0))
    direct = 0.5 ** 1.5 * math.exp(-0.5) / math.gamma(1.5)
    assert got == pytest.approx(direct, rel=1e-12)
    assert got == pytest.approx(0.24197, abs=5e-6)


def test_gamma_sample_mean():
    prop = GammaProposal(1.5, 0.5)
    draws = gamma_propose(prop, RngStream(6).gen, 10 ** 6)
    sd = math.sqrt(prop.alpha) / prop.beta
    assert abs(draws.mean() - 3.0) <= 3 * sd / math.sqrt(len(draws))


def test_gamma_density_vanishes_at_origin_when_singular():
    prop = GammaProposal(1.5, 0.5)
    assert gamma_logdensity(prop, 0.0) == -math.inf
    assert gamma_logdensity(prop, -1.0) == -math.inf


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 3.0])
def test_gamma_density_of_positive_draws_has_the_masked_bits(alpha):
    # all-positive input skips the support mask; one entry off the support
    # (or NaN) masks the rest, which must keep every bit
    prop = GammaProposal(alpha, 0.5)
    x = RngStream(2).gen.gamma(alpha, 2.0, 500)
    fast = gamma_logdensity(prop, x)
    for off in (0.0, -1.0, math.nan):
        masked = gamma_logdensity(prop, np.append(x, off))
        assert np.array_equal(masked[:-1], fast) and masked[-1] == -math.inf
    assert gamma_logdensity(prop, x[0]) == fast[0]
    assert gamma_logdensity(prop, math.nan) == -math.inf


def test_gamma_rejects_bad_parameters():
    with pytest.raises(DomainError):
        GammaProposal(0.0, 0.5)
    with pytest.raises(DomainError):
        GammaProposal(1.5, -1.0)


# ---------------------------------------------------------------------------
# simulator


def test_params_validation():
    with pytest.raises(DomainError):
        CoxParams(c=0.5, eta=0.0)
    with pytest.raises(DomainError):
        CoxParams(c=0.0, eta=0.1)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0])
@pytest.mark.parametrize("make, name", [
    (lambda v: CoxParams(c=v, eta=ETA), "c"),
    (lambda v: CoxParams(c=C, eta=v), "eta"),
    (lambda v: GammaProposal(v, 0.5), "alpha"),
    (lambda v: GammaProposal(1.5, v), "beta"),
])
def test_model_and_proposal_parameters_must_be_finite_and_positive(make, name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be finite and positive, got {bad!r}$"):
        make(bad)


def test_simulate_deterministic():
    params = CoxParams(C, ETA)
    s1, o1 = simulate(params, 12, 54)
    s2, o2 = simulate(params, 12, 54)
    assert np.array_equal(s1, s2)
    assert tuple(o1) == tuple(o2)


def test_simulate_increment_variance_away_from_boundary():
    params = CoxParams(C, ETA)
    states, _ = simulate(params, 2000, 3)
    inc = np.diff(states)
    away = np.minimum(states[:-1], states[1:]) > 4 * math.sqrt(ETA)
    assert away.sum() > 500
    sample_var = inc[away].var(ddof=1)
    assert abs(sample_var - ETA) < 0.1 * ETA


def test_poisson_inversion_matches_quantile_function():
    gen = RngStream(9).gen
    for lam in (0.05, 0.7, 3.0, 12.0):
        us = gen.random(2000)
        ours = np.array([poisson_inverse_cdf(lam, u) for u in us])
        ref = stats.poisson.ppf(us, lam)
        assert np.array_equal(ours, ref)


def test_poisson_inversion_rejects_large_intensity():
    with pytest.raises(DomainError):
        poisson_inverse_cdf(30.0, 0.5)


def test_fixture_series_committed_correctly(fixture_obs):
    ys = fixture_obs.counts()
    assert len(fixture_obs) == 12
    assert ys[10] == 0  # t = 11 carries the singular zero count
    params = CoxParams(C, ETA)
    _, regenerated = simulate(params, 12, 54)
    assert tuple(regenerated) == tuple(fixture_obs)


# ---------------------------------------------------------------------------
# series and persistence


def test_observation_series_validation():
    with pytest.raises(DomainError):
        ObservationSeries(((1, 0), (3, 1)))  # gap in t
    with pytest.raises(DomainError):
        ObservationSeries(((0, 0),))  # must start at 1
    with pytest.raises(DomainError):
        ObservationSeries(((1, -2),))


def test_observation_series_csv_roundtrip(tmp_path):
    series = ObservationSeries(((1, 0), (2, 3), (3, 1)))
    path = tmp_path / "obs.csv"
    series.to_csv(path)
    assert ObservationSeries.from_csv(path) == series
    header = path.read_text().splitlines()[0]
    assert header == "t,y"
    assert path.read_bytes() == b"t,y\r\n1,0\r\n2,3\r\n3,1\r\n"  # the csv module's ends


@pytest.mark.parametrize("text, line", [("", 1), ("t,y\n1,0\n\n", 3),
                                        ("t,y\n1,0\n2\n", 3), ("t,y\n1,0.5\n", 2)])
def test_observation_csv_errors_name_file_and_line(tmp_path, text, line):
    path = tmp_path / "obs.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"obs.csv, line {line}: expected"):
        ObservationSeries.from_csv(path)


def test_states_csv_full_precision(tmp_path):
    path = tmp_path / "states.csv"
    assert cli_dispatch(["simulate", "--c", str(C), "--eta", str(ETA), "--steps", "6",
                         "--seed", "4", "--out", str(tmp_path / "obs.csv"),
                         "--states-out", str(path)]) == 0
    states, _ = simulate(CoxParams(C, ETA), 6, 4)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 1 + len(states)
    for t, (line, expected) in enumerate(zip(lines[1:], states)):
        assert line.split(",")[0] == str(t)
        assert float(line.split(",")[1]) == expected  # 17 digits round-trip
