"""Poisson-count observations of a reflected random-walk intensity.

The latent state is a nonnegative random walk reflected at zero,
x_t = |x_{t-1} + sqrt(eta) * eps_t|, whose one-step transition density is
the folded Gaussian kernel

    f(x | x') = (2 pi eta)^(-1/2) [exp(-(x-x')^2 / 2 eta)
                                   + exp(-(x+x')^2 / 2 eta)]

on x >= 0.  Counts are Poisson with intensity c * x_t, with the limit
convention g(y | 0) = 1 if y = 0 and 0 otherwise, which keeps the
likelihood continuous and bounded by 1 on the closed half-line.

The shipped importance distribution is a fixed Gamma(alpha, rate beta),
independent of the previous state and of the observation.  For alpha > 1
its density vanishes at 0 while transition * likelihood does not, so the
importance weight is pointwise unbounded near 0 even though its low-order
moments can stay finite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_positive
from .model import Proposal, StateSpaceModel
from .report import csv_text, write_text
from .rng import RngStream


@dataclass(frozen=True)
class CoxParams:
    """Intensity slope c (lambda = c*x) and per-step increment variance eta."""

    c: float
    eta: float

    def __post_init__(self):
        require_positive(c=self.c, eta=self.eta)


@dataclass(frozen=True)
class GammaProposal:
    """Gamma(alpha, rate beta) importance distribution.

    For alpha > 1 the density vanishes at the origin, which puts the
    weights in the singular regime (pointwise unbounded near 0).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        require_positive(alpha=self.alpha, beta=self.beta)


@dataclass(frozen=True)
class ObservationSeries:
    """Integer counts indexed by steps t = 1, 2, ..., T."""

    observations: tuple[tuple[int, int], ...]

    def __post_init__(self):
        obs = tuple((int(t), int(y)) for t, y in self.observations)
        object.__setattr__(self, "observations", obs)
        for i, (t, y) in enumerate(obs):
            if t != i + 1:
                raise DomainError(f"step indices must run 1..T; got {t} at position {i}")
            if y < 0:
                raise DomainError("counts must be nonnegative integers")

    def __iter__(self):
        return iter(self.observations)

    def __len__(self):
        return len(self.observations)

    def counts(self) -> np.ndarray:
        return np.array([y for _, y in self.observations], dtype=np.int64)

    def to_csv(self, path) -> None:
        """`t,y` rows with CRLF line ends, as the committed observation files."""
        write_text(path, csv_text(["t", "y"], self.observations, end="\r\n"))

    @classmethod
    def from_csv(cls, path) -> "ObservationSeries":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, "an empty file")
            if header != ["t", "y"]:
                raise DomainError(f"{path}, line 1: expected header t,y, got {header}")
            rows = []
            for row in reader:
                try:
                    t, y = row
                    rows.append((int(t), int(y)))
                except ValueError:
                    raise DomainError(f"{path}, line {reader.line_num}: expected "
                                      f"integers t,y, got {row}") from None
        if not rows:
            raise DomainError(f"{path}: no observations after the header t,y")
        return cls(tuple(rows))


# ---------------------------------------------------------------------------
# densities and samplers


def _negative(x: np.ndarray) -> bool:
    """Whether any entry of x is below 0; fmin skips NaNs, as x < 0 does."""
    return bool(np.fmin.reduce(x, axis=None, initial=0.0) < 0)


def cox_transition_logdensity(x, x_prev, eta: float):
    """Log of the folded Gaussian transition kernel on the half-line."""
    if not eta > 0:
        raise DomainError("eta must be positive")
    x = np.asarray(x, dtype=float)
    x_prev = np.asarray(x_prev, dtype=float)
    if _negative(x) or _negative(x_prev):
        raise DomainError("states must be nonnegative")
    # -(d ** 2) / (2 eta) for d = x - x_prev and for d = x + x_prev, in place
    # (as d ** 2 / (-2 eta): negation is exact, so the quotient is the same)
    shape = np.broadcast_shapes(x.shape, x_prev.shape)
    out = np.subtract(x, x_prev, out=np.empty(shape))
    far = np.add(x, x_prev, out=np.empty(shape))
    for d in (out, far):
        np.square(d, out=d)
        d /= -2 * eta
    np.logaddexp(out, far, out=out)
    out -= 0.5 * math.log(2 * math.pi * eta)
    return out if out.ndim else float(out)


def cox_likelihood_logdensity(y: int, x, c: float):
    """Log Poisson(c*x) pmf at count y, with the continuous limit at x = 0."""
    y = int(y)
    if y < 0:
        raise DomainError("counts must be nonnegative")
    x = np.asarray(x, dtype=float)
    if _negative(x):
        raise DomainError("states must be nonnegative")
    lam = np.multiply(x, c, out=np.empty(x.shape))
    if y == 0:
        out = np.negative(lam, out=lam)  # at x = 0 this is the limit value log 1 = 0
    else:
        with np.errstate(divide="ignore"):
            out = np.log(lam, out=np.empty(x.shape))
        out *= y
        out -= lam
        out -= math.lgamma(y + 1)
    return out if out.ndim else float(out)


def cox_prior_sample(gen: np.random.Generator, size: int) -> np.ndarray:
    """size draws of |xi| for xi standard normal (the time-zero state)."""
    return np.abs(gen.standard_normal(size))


def cox_transition_sample(x_prev, eta: float, gen: np.random.Generator) -> np.ndarray:
    """One reflected-walk step |x' + sqrt(eta) * eps| from each state x'."""
    x_prev = np.asarray(x_prev, dtype=float)
    return np.abs(x_prev + math.sqrt(eta) * gen.standard_normal(np.size(x_prev)))


def gamma_propose(prop: GammaProposal, gen: np.random.Generator, size: int) -> np.ndarray:
    """size draws from Gamma(alpha, rate beta)."""
    return gen.gamma(prop.alpha, 1.0 / prop.beta, size)


def gamma_logdensity(prop: GammaProposal, x):
    """Log Gamma density; -inf off the support (x <= 0 for alpha > 1)."""
    x = np.asarray(x, dtype=float)
    const = prop.alpha * math.log(prop.beta) - math.lgamma(prop.alpha)
    # Gamma draws are all positive and need no mask; np.min propagates a
    # NaN, so an array that holds one takes the masked path.
    outside = None if x.size and x.min() > 0 else np.asarray(~(x > 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x if outside is None else np.where(outside, 1.0, x),
                     out=np.empty(x.shape))
        out *= prop.alpha - 1
        out += const
        out -= np.multiply(x, prop.beta)
    if outside is not None:
        np.copyto(out, -math.inf, where=outside)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# engine adapters


def make_cox_model(params: CoxParams) -> StateSpaceModel:
    return StateSpaceModel(
        prior_sample=cox_prior_sample,
        transition_logdensity=lambda x, xp: cox_transition_logdensity(x, xp, params.eta),
        likelihood_logdensity=lambda y, x: cox_likelihood_logdensity(y, x, params.c),
    )


def make_gamma_proposal(prop: GammaProposal) -> Proposal:
    """State- and observation-independent Gamma proposal."""
    return Proposal(
        propose=lambda x_prev, y, gen: gamma_propose(prop, gen, size=np.size(x_prev)),
        logdensity=lambda x, x_prev, y: gamma_logdensity(prop, x),
    )


def make_bootstrap_proposal(params: CoxParams) -> Proposal:
    """Proposal identical to the transition; weights reduce to the likelihood."""
    return Proposal(
        propose=lambda x_prev, y, gen: cox_transition_sample(x_prev, params.eta, gen),
        logdensity=lambda x, xp, y: cox_transition_logdensity(x, xp, params.eta),
    )


PROPOSALS = ("gamma", "bootstrap")  # the kinds make_cox_model_and_proposal builds


def make_cox_model_and_proposal(params: CoxParams, proposal: str,
                                alpha: float, beta: float
                                ) -> tuple[StateSpaceModel, Proposal]:
    """The Cox model plus the named proposal: "bootstrap", else Gamma(alpha, beta)."""
    model = make_cox_model(params)
    if proposal == "bootstrap":
        return model, make_bootstrap_proposal(params)
    return model, make_gamma_proposal(GammaProposal(alpha, beta))


# ---------------------------------------------------------------------------
# simulator


def poisson_inverse_cdf(lam: float, u: float) -> int:
    """Poisson draw by CDF inversion of a single uniform (lam < 30)."""
    if lam < 0:
        raise DomainError("intensity must be nonnegative")
    if lam >= 30:
        raise DomainError("inversion sampler is restricted to lam < 30")
    pmf = math.exp(-lam)
    cdf = pmf
    k = 0
    while u > cdf:
        k += 1
        pmf *= lam / k
        cdf += pmf
        if k > 1000:  # unreachable for lam < 30; guards malformed input
            raise DomainError("poisson inversion failed to terminate")
    return k


def simulate(params: CoxParams, steps: int, master_seed: int
             ) -> tuple[np.ndarray, ObservationSeries]:
    """Simulate states x_0..x_T and counts y_1..y_T.

    Counts are drawn by single-uniform CDF inversion so committed
    fixtures reproduce bit-for-bit everywhere; intensities here stay far
    below the sampler's lam < 30 limit.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    root = RngStream(master_seed)
    states = np.empty(steps + 1)
    states[0] = cox_prior_sample(root.derive(0).gen, 1)[0]
    rows = []
    for t in range(1, steps + 1):
        gen = root.derive(t).gen
        states[t] = cox_transition_sample(states[t - 1:t], params.eta, gen)[0]
        y = poisson_inverse_cdf(params.c * states[t], gen.random())
        rows.append((t, y))
    return states, ObservationSeries(tuple(rows))
