"""Filter run records.

`engine.run_filters` steps plain (replicates x particles) arrays,
resamples at every step and writes every step of every replicate into
one block of arrays; each replicate's `FilterRun` is a row of views into
it.  `WeightedParticleSet` and `Stage` are not used by the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

_NORMALIZATION_RTOL = 1e-12


class Stage(Enum):
    UNNORMALIZED = "unnormalized"
    NORMALIZED = "normalized"
    RESAMPLED = "resampled"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


# Unused: perfbench/tracing.py hooks it; delete with Stage after that hook (ROADMAP item 1).
@dataclass(frozen=True)
class WeightedParticleSet:
    """Particles with log weights and a pipeline stage tag.

    ``log_mean_weight`` is the log of the average raw weight and is
    defined only at stage ``UNNORMALIZED`` (it is the evidence increment
    contributed by the step).  Log weights may be ``-inf`` (zero weight)
    but never ``+inf`` or NaN.
    """

    particles: np.ndarray
    log_weights: np.ndarray
    stage: Stage
    log_mean_weight: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "particles", _frozen_array(self.particles))
        object.__setattr__(self, "log_weights", _frozen_array(self.log_weights))
        p, lw = self.particles, self.log_weights
        if p.ndim != 1 or lw.ndim != 1:
            raise DomainError("particles and log_weights must be 1-D arrays")
        if len(p) != len(lw):
            raise DomainError("particles and log_weights lengths differ")
        if len(p) == 0:
            raise DomainError("a particle set cannot be empty")
        if np.any(np.isnan(lw)) or np.any(np.isposinf(lw)):
            raise DomainError("log weights must not be NaN or +inf")
        if self.stage is Stage.UNNORMALIZED:
            if self.log_mean_weight is None:
                raise DomainError("unnormalized sets carry log_mean_weight")
        else:
            if self.log_mean_weight is not None:
                raise DomainError("log_mean_weight is defined only before normalization")
        if self.stage is Stage.NORMALIZED:
            total = float(np.sum(np.exp(lw)))
            if not math.isclose(total, 1.0, rel_tol=_NORMALIZATION_RTOL):
                raise DomainError(f"normalized weights sum to {total!r}, not 1")
        if self.stage is Stage.RESAMPLED:
            if np.any(lw != -math.log(len(p))):
                raise DomainError("resampled sets must have uniform weights 1/N")

    @property
    def n(self) -> int:
        return len(self.particles)

    def weights(self) -> np.ndarray:
        """Linear-domain weights (exp of the log weights)."""
        return np.exp(self.log_weights)


@dataclass(frozen=True)
class FilterRun:
    """One filter's pass over an observation sequence: one row of the
    engine's `engine.FilterBlock`, as read-only (T,) views in step order.

    ``steps`` holds the step labels; ``estimates`` and
    ``resampled_estimates`` the estimates of each test function, by name,
    before and after resampling; ``ess`` the effective sample size of the
    normalized weights and ``log_mean_weight`` the step's incremental log
    evidence, and ``log_evidence`` their sum in step order.  ``clouds``
    (T, 3, K) holds each step's first K proposed particles, their
    normalized weights and its first K resampled particles; K is 0 unless
    clouds were recorded.  The particle count and the root stream are the
    caller's arguments, so a run does not repeat them.
    """

    steps: np.ndarray
    estimates: dict[str, np.ndarray]
    resampled_estimates: dict[str, np.ndarray]
    ess: np.ndarray
    log_mean_weight: np.ndarray
    clouds: np.ndarray
    log_evidence: float

    def estimate_trace(self, name: str, stage: str = "normalized") -> np.ndarray:
        """Per-step estimates of one test function at one stage."""
        if stage == "normalized":
            return self.estimates[name]
        if stage == "resampled":
            return self.resampled_estimates[name]
        raise ValueError(f"unknown stage {stage!r}")
