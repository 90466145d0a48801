"""Filter run records.

`engine.run_filters` steps plain (replicates x particles) arrays,
resamples at every step and writes every step of every replicate into
one block of arrays; each replicate's `FilterRun` is a row of views into
it.  The package builds no particle-set object: `WeightedParticleSet` is
an empty name that the benchmark's tracer hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class WeightedParticleSet:
    """Nothing builds this class.  It exists only because
    perfbench/tracing.py hooks its ``__post_init__`` by name, and it goes
    with that hook when the benchmark follows the current code."""

    def __post_init__(self):
        pass


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

    def estimate_trace(self, name: str) -> np.ndarray:
        """Per-step estimates of one test function, before resampling."""
        return self.estimates[name]
