"""Scalar linear-Gaussian model with an exact Kalman filter.

Used purely as a validation target: the particle engine run on this
model must reproduce the closed-form posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pfconv.errors import DomainError, require_positive
from pfconv.model import Proposal, StateSpaceModel
from pfconv.rng import RngStream


@dataclass(frozen=True)
class LinearGaussianModel:
    """x_t = a x_{t-1} + N(0, q_var), y_t = h x_t + N(0, r_var)."""

    a: float
    q_var: float
    h: float
    r_var: float
    m0: float
    p0: float

    def __post_init__(self):
        require_positive(q_var=self.q_var, r_var=self.r_var, p0=self.p0)


@dataclass(frozen=True)
class GaussianBelief:
    mean: float
    variance: float

    def __post_init__(self):
        require_positive(variance=self.variance)


def kalman_step(belief: GaussianBelief, model: LinearGaussianModel, y: float) -> GaussianBelief:
    """Exact conjugate predict/update for one observation."""
    m_pred = model.a * belief.mean
    p_pred = model.a ** 2 * belief.variance + model.q_var
    s = model.h ** 2 * p_pred + model.r_var
    gain = p_pred * model.h / s
    mean = m_pred + gain * (y - model.h * m_pred)
    variance = (1.0 - gain * model.h) * p_pred
    return GaussianBelief(mean, variance)


def kalman_filter(model: LinearGaussianModel, ys) -> list[GaussianBelief]:
    """Posterior beliefs after each observation, starting from the prior."""
    belief = GaussianBelief(model.m0, model.p0)
    out = []
    for y in ys:
        belief = kalman_step(belief, model, float(y))
        out.append(belief)
    return out


def kalman_log_evidence(model: LinearGaussianModel, ys) -> float:
    """Exact log marginal likelihood log p(y_1..y_T).

    Each observation contributes the predictive density
    N(y; h m_pred, h^2 p_pred + r_var); this is the closed-form value the
    particle filter's cumulative log evidence estimates.
    """
    belief = GaussianBelief(model.m0, model.p0)
    total = 0.0
    for y in ys:
        m_pred = model.a * belief.mean
        p_pred = model.a ** 2 * belief.variance + model.q_var
        s = model.h ** 2 * p_pred + model.r_var
        total += _normal_logpdf(float(y), model.h * m_pred, s)
        belief = kalman_step(belief, model, float(y))
    return total


def simulate_lg(model: LinearGaussianModel, steps: int, master_seed: int
                ) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Simulate states x_0..x_T and observations (t, y_t) for t = 1..T."""
    if steps < 1:
        raise DomainError("steps must be >= 1")
    root = RngStream(master_seed)
    xs = np.empty(steps + 1)
    xs[0] = model.m0 + math.sqrt(model.p0) * root.derive(0).gen.standard_normal()
    obs = []
    for t in range(1, steps + 1):
        gen = root.derive(t).gen
        xs[t] = model.a * xs[t - 1] + math.sqrt(model.q_var) * gen.standard_normal()
        y = model.h * xs[t] + math.sqrt(model.r_var) * gen.standard_normal()
        obs.append((t, y))
    return xs, obs


def _normal_logpdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var) - 0.5 * math.log(2 * math.pi * var)


def make_lg_model(model: LinearGaussianModel) -> StateSpaceModel:
    def prior_sample(gen, size):
        return model.m0 + math.sqrt(model.p0) * gen.standard_normal(size)

    def transition_logdensity(x, x_prev):
        return _normal_logpdf(np.asarray(x, dtype=float),
                              model.a * np.asarray(x_prev, dtype=float), model.q_var)

    def likelihood_logdensity(y, x):
        return _normal_logpdf(float(y), model.h * np.asarray(x, dtype=float), model.r_var)

    return StateSpaceModel(
        prior_sample=prior_sample,
        transition_logdensity=transition_logdensity,
        likelihood_logdensity=likelihood_logdensity,
    )


def make_lg_bootstrap_proposal(model: LinearGaussianModel) -> Proposal:
    ssm = make_lg_model(model)

    def propose(x_prev, y, gen):
        x_prev = np.asarray(x_prev, dtype=float)
        return model.a * x_prev + math.sqrt(model.q_var) * gen.standard_normal(len(x_prev))

    return Proposal(propose=propose,
                    logdensity=lambda x, xp, y: ssm.transition_logdensity(x, xp))
