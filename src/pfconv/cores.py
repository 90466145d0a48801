"""How many cores a run may use: the study's processes and the engine's draw thread."""

from __future__ import annotations

import os

from .errors import DomainError

WORKERS_ENV = "PFCONV_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins; otherwise the cores this process may run
    on (its CPU affinity set where the platform has one, so taskset and
    cpusets count), capped by the PFCONV_WORKERS environment variable.
    A count below 1 from either is a `DomainError`."""
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise DomainError(f"--workers must be at least 1, got {workers}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise DomainError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
        if cap < 1:
            raise DomainError(f"{WORKERS_ENV} must be at least 1, got {env!r}")
        count = min(count, cap)
    return count
