import math

import numpy as np
import pytest

from pfconv import RngStream, run_filter
from pfconv.errors import DomainError
from lineargauss import GaussianBelief, LinearGaussianModel, kalman_filter, \
    kalman_log_evidence, kalman_step, make_lg_bootstrap_proposal, make_lg_model, \
    simulate_lg
from pfconv.resampling import get_scheme


def test_kalman_hand_computed_update():
    model = LinearGaussianModel(a=1.0, q_var=1e-300, h=1.0, r_var=1.0, m0=0.0, p0=1.0)
    out = kalman_step(GaussianBelief(0.0, 1.0), model, 2.0)
    assert out.mean == pytest.approx(1.0, abs=1e-12)
    assert out.variance == pytest.approx(0.5, abs=1e-12)


def test_kalman_uninformative_observation():
    model = LinearGaussianModel(a=0.9, q_var=0.3, h=1.0, r_var=1e12, m0=0.5, p0=1.0)
    belief = GaussianBelief(0.5, 1.0)
    out = kalman_step(belief, model, 25.0)
    assert abs(out.mean - model.a * belief.mean) < 1e-6
    predicted_var = model.a ** 2 * belief.variance + model.q_var
    assert out.variance == pytest.approx(predicted_var, rel=1e-6)


def test_kalman_update_reduces_variance():
    model = LinearGaussianModel(a=1.0, q_var=0.2, h=1.0, r_var=0.5, m0=0.0, p0=1.0)
    belief = GaussianBelief(0.0, 1.0)
    out = kalman_step(belief, model, 0.7)
    predicted_var = model.a ** 2 * belief.variance + model.q_var
    assert out.variance < predicted_var


def test_kalman_filter_runs_whole_series():
    model = LinearGaussianModel(a=0.95, q_var=0.2, h=1.0, r_var=0.5, m0=0.0, p0=1.0)
    _, obs = simulate_lg(model, 20, master_seed=5)
    beliefs = kalman_filter(model, [y for _, y in obs])
    assert len(beliefs) == 20
    assert all(b.variance > 0 for b in beliefs)
    # steady state: variance settles
    assert abs(beliefs[-1].variance - beliefs[-2].variance) < 1e-6


def test_simulate_lg_deterministic():
    model = LinearGaussianModel(a=0.9, q_var=0.1, h=1.0, r_var=0.3, m0=0.0, p0=1.0)
    xs1, obs1 = simulate_lg(model, 10, master_seed=2)
    xs2, obs2 = simulate_lg(model, 10, master_seed=2)
    assert np.array_equal(xs1, xs2)
    assert obs1 == obs2


def test_model_validation():
    ok = dict(a=1.0, q_var=1.0, h=1.0, r_var=1.0, m0=0.0, p0=1.0)
    LinearGaussianModel(**ok)
    for name in ("q_var", "r_var", "p0"):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=f"^{name} must be finite and positive, "
                                                  f"got {value!r}$"):
                LinearGaussianModel(**{**ok, name: value})
    for value in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="^variance must be finite and positive"):
            GaussianBelief(0.0, value)


def test_log_evidence_single_step_closed_form():
    model = LinearGaussianModel(a=0.8, q_var=0.3, h=2.0, r_var=0.4, m0=0.5, p0=1.5)
    y = 1.7
    pred_mean = model.h * model.a * model.m0
    pred_var = model.h ** 2 * (model.a ** 2 * model.p0 + model.q_var) + model.r_var
    expected = -0.5 * ((y - pred_mean) ** 2 / pred_var) \
        - 0.5 * math.log(2 * math.pi * pred_var)
    assert kalman_log_evidence(model, [y]) == pytest.approx(expected, rel=1e-14)


def test_log_evidence_accumulates_per_step():
    model = LinearGaussianModel(a=0.9, q_var=0.2, h=1.0, r_var=0.5, m0=0.0, p0=1.0)
    _, obs = simulate_lg(model, 6, master_seed=13)
    ys = [y for _, y in obs]
    total = kalman_log_evidence(model, ys)
    partials = [kalman_log_evidence(model, ys[:k]) for k in range(1, 7)]
    assert partials[-1] == pytest.approx(total, rel=1e-14)
    assert all(b < a for a, b in zip(partials, partials[1:]))  # log-probs shrink


def test_particle_evidence_is_unbiased_for_the_exact_value():
    # E[Z_hat] = Z for the per-step-resampling filter; test in the linear
    # domain where the estimator is exactly unbiased
    model = LinearGaussianModel(a=0.9, q_var=0.25, h=1.0, r_var=0.5, m0=0.0, p0=1.0)
    _, obs = simulate_lg(model, 15, master_seed=19)
    exact = kalman_log_evidence(model, [y for _, y in obs])
    ssm, prop = make_lg_model(model), make_lg_bootstrap_proposal(model)
    reps = 16
    lz = np.array([
        run_filter(ssm, prop, obs, 4000, get_scheme("multinomial"),
                   RngStream(900 + r)).log_evidence
        for r in range(reps)
    ])
    ratio = np.exp(lz - exact)
    se = ratio.std(ddof=1) / math.sqrt(reps)
    assert abs(ratio.mean() - 1.0) <= 3 * se
