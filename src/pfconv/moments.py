"""Weight-moment diagnostics.

The mean-square (p = 2) and fourth-moment (p = 4) convergence guarantees
of the filter require E[w^p | x_prev] to be uniformly bounded, where w is
the raw importance weight.  For the Poisson-intensity model with a Gamma
proposal this expectation has a closed-form envelope; this module ships
that checker plus a deterministic composite-midpoint quadrature of the
integral itself, with geometrically shrinking cells near zero (where the
weight may blow up).  The tests check the quadrature against a plain
Monte Carlo estimate with a jackknife standard error.

A point singularity at x -> 0+ appears whenever the proposal vanishes
there while transition * likelihood does not.  The moment integral
behaves like x^(s-1) near zero with s = (1-p)*alpha + p, so it converges
only for s > 0; the exponential tail converges only for
tail_rate = (p-1)*beta - p*c < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import _raw_log_weights
from .errors import DomainError, require_positive
from .model import Proposal, StateSpaceModel


# ---------------------------------------------------------------------------
# closed-form verdict for the Poisson-intensity / Gamma-proposal pair


class MomentStatus(Enum):
    SATISFIED = "satisfied"
    DIVERGENT_SINGULARITY = "divergent_singularity"
    DIVERGENT_TAIL = "divergent_tail"


@dataclass(frozen=True)
class MomentCondition:
    """Parameters of one E[w^p] boundedness question (worst case y = 0)."""

    p: int
    alpha: float
    beta: float
    c: float
    eta: float

    def __post_init__(self):
        if self.p not in (2, 4):
            raise DomainError("moment order p must be 2 or 4")
        require_positive(alpha=self.alpha, beta=self.beta, c=self.c, eta=self.eta)


@dataclass(frozen=True)
class MomentVerdict:
    status: MomentStatus
    singularity_exponent: float  # s = (1-p)*alpha + p; integrand ~ x^(s-1) near 0
    tail_rate: float             # (p-1)*beta - p*c; integrand tail ~ exp(tail_rate*x)
    bound: float | None          # closed-form C_w, present iff satisfied


def check_cox_moment_condition(cond: MomentCondition) -> MomentVerdict:
    """Classify convergence of the worst-case (y = 0) weight-moment integral.

    The raw weight obeys w(x, x') <= K * exp((beta - c) x) * x^(1 - alpha)
    uniformly in x', with K = 2 Gamma(alpha) / (beta^alpha sqrt(2 pi eta))
    (the transition kernel is bounded by 2 / sqrt(2 pi eta), attained at
    the reflecting boundary).  Integrating the p-th power against the
    Gamma proposal gives

        E[w^p | x'] <= (beta^alpha / Gamma(alpha)) * K^p
                       * Gamma(s) / (-tail_rate)^s

    which is finite exactly when s > 0 and tail_rate < 0.
    """
    p, alpha, beta, c, eta = cond.p, cond.alpha, cond.beta, cond.c, cond.eta
    s = (1 - p) * alpha + p
    tail_rate = (p - 1) * beta - p * c
    if s <= 0:
        return MomentVerdict(MomentStatus.DIVERGENT_SINGULARITY, s, tail_rate, None)
    if tail_rate >= 0:
        return MomentVerdict(MomentStatus.DIVERGENT_TAIL, s, tail_rate, None)
    k = 2.0 * math.gamma(alpha) / (beta ** alpha * math.sqrt(2 * math.pi * eta))
    bound = (beta ** alpha / math.gamma(alpha)) * k ** p \
        * math.gamma(s) / (-tail_rate) ** s
    return MomentVerdict(MomentStatus.SATISFIED, s, tail_rate, bound)


# ---------------------------------------------------------------------------
# quadrature oracle

_OCTAVE_CELLS = 48     # midpoint cells per factor-of-two interval below 1
_UNIFORM_CELLS = 4096  # midpoint cells on [1, x_hi], identical at every level
_TRUNC_REL = 1e-16     # right truncation where integrand / peak falls below this
_X_CAP = 1e4


def _log_integrand(model, proposal, x: np.ndarray, x_prev: float, y, p: int) -> np.ndarray:
    """log of w(x, x_prev)^p * q(x); -inf where the weight is zero."""
    xp = np.full_like(x, float(x_prev))
    lw = _raw_log_weights(model, proposal, x, xp, y)
    lq = np.asarray(proposal.logdensity(x, xp, y), dtype=float)
    with np.errstate(invalid="ignore"):
        out = p * lw + lq
    out[np.isnan(out)] = -math.inf  # 0 * inf corner: zero-weight point
    return out


def _truncation_point(model, proposal, x_prev: float, y, p: int) -> float:
    """Right endpoint where the integrand has decayed to 1e-16 of its peak.

    Probed on a fixed grid independent of the refinement level so that
    successive levels integrate over identical cells above the smallest
    octave.
    """
    probes = np.concatenate([
        np.geomspace(1e-6, 1.0, 200, endpoint=False),
        np.linspace(1.0, _X_CAP, 4000),
    ])
    h = _log_integrand(model, proposal, probes, x_prev, y, p)
    peak = float(np.max(h))
    if peak == -math.inf:
        return 2.0
    alive = np.nonzero(h >= peak + math.log(_TRUNC_REL))[0]
    hi = probes[min(int(alive[-1]) + 1, len(probes) - 1)]
    return float(min(max(hi, 2.0), _X_CAP))


def _midpoint_mass(model, proposal, lo: float, hi: float, cells: int,
                   x_prev: float, y, p: int) -> float:
    width = (hi - lo) / cells
    mids = lo + (np.arange(cells) + 0.5) * width
    h = _log_integrand(model, proposal, mids, x_prev, y, p)
    m = float(np.max(h))
    if m == -math.inf:
        return 0.0
    return math.exp(m) * float(np.sum(np.exp(h - m))) * width


def quadrature_refinements(model: StateSpaceModel, proposal: Proposal, x_prev: float,
                           y, p: int, max_level: int) -> np.ndarray:
    """Quadrature values at levels 1..max_level (shared cells, so the
    sequence is monotone increasing; it plateaus iff the integral exists)."""
    if max_level < 1:
        raise DomainError("refinement level must be >= 1")
    x_hi = _truncation_point(model, proposal, x_prev, y, p)
    base = _midpoint_mass(model, proposal, 1.0, x_hi, _UNIFORM_CELLS, x_prev, y, p)
    values = np.empty(max_level)
    total = base
    # Level L integrates down to 2^-L: each level adds one octave near zero.
    for level in range(1, max_level + 1):
        lo, hi = 2.0 ** (-level), 2.0 ** (-level + 1)
        total += _midpoint_mass(model, proposal, lo, hi, _OCTAVE_CELLS, x_prev, y, p)
        values[level - 1] = total
    return values


def quadrature_weight_moment(model: StateSpaceModel, proposal: Proposal, x_prev: float,
                             y, p: int, level: int) -> float:
    """Deterministic midpoint estimate of the weight-moment integral.

    The cell layout shrinks geometrically toward zero (smallest cell
    width proportional to 2^-level) because the integrand behaves like
    x^(s-1) there; uniform cells would never resolve the singularity.
    """
    return float(quadrature_refinements(model, proposal, x_prev, y, p, level)[-1])
