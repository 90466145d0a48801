"""Abstract state-space model, importance proposal, and test functions.

All density callables work in the log domain and accept numpy arrays of
states (the shipped models are one-dimensional, so a state batch is a
1-D float array).  Log-densities may return ``-inf`` for zero density.

Samplers draw from the ``numpy.random.Generator`` they are given (the
engine passes each row's generator, `rng.KeyedRows`).  The engine calls
them slab by slab on consecutive pieces of a block (`engine`), so they
must keep this contract: a density is pointwise (entry i of its value
depends only on entry i of its state arguments), and a sampler draws
one state per entry, in order, so that drawing a states and then b
states from one generator gives the a + b states that a single call
draws.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, require_positive

Array = np.ndarray


@dataclass(frozen=True)
class StateSpaceModel:
    """A hidden Markov model given by prior, transition and likelihood.

    Attributes
    ----------
    prior_sample : callable
        ``(gen, size) -> states``; draws ``size`` independent states from
        the time-zero distribution with the generator ``gen``, one state
        per entry, in order.
    transition_logdensity : callable
        ``(x_t, x_prev) -> log density`` of the state transition,
        pointwise.
    likelihood_logdensity : callable
        ``(y_t, x_t) -> log density`` of the observation given the state,
        pointwise; the convergence guarantees need it bounded in x_t.
    """

    prior_sample: Callable[[np.random.Generator, int], Array]
    transition_logdensity: Callable[[Array, Array], Array]
    likelihood_logdensity: Callable[[object, Array], Array]


@dataclass(frozen=True)
class Proposal:
    """Importance distribution used to move particles forward.

    ``propose(x_prev, y, gen)`` draws one new state per entry of
    ``x_prev`` with the generator ``gen``, in order;
    ``logdensity(x_t, x_prev, y)`` evaluates the proposal density at the
    proposed points, pointwise (see the module doc).  The proposal must
    dominate ``transition * likelihood``: wherever that product is positive the
    proposal density must be positive as well (checked statistically on
    the shipped models, not enforced here).
    """

    propose: Callable[[Array, object, np.random.Generator], Array]
    logdensity: Callable[[Array, Array, object], Array]


@dataclass(frozen=True)
class TestFunction:
    """A bounded test function with a declared sup-norm."""

    name: str
    fn: Callable[[Array], Array] = field(repr=False)
    sup_norm: float

    def __post_init__(self):
        require_positive(sup_norm=self.sup_norm)  # the results cover bounded phi only

    def __call__(self, x: Array) -> Array:
        return self.fn(x)


def _indicator_leq(a: float) -> TestFunction:
    return TestFunction(
        name=f"indicator_leq({a:g})",
        fn=lambda x: (np.asarray(x, dtype=float) <= a).astype(float),
        sup_norm=1.0,
    )


def _min_cap(a: float) -> TestFunction:
    require_positive(min_cap=a)
    return TestFunction(
        name=f"min_cap({a:g})",
        fn=lambda x: np.minimum(np.asarray(x, dtype=float), a),
        sup_norm=a,
    )


# Closed registry of admissible test functions.  Boundedness on the
# nonnegative state domain is part of each entry's contract.
_PARAMETRIC = {"indicator_leq": _indicator_leq, "min_cap": _min_cap}
_PLAIN = {
    "one": TestFunction("one", lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0),
    "exp_neg": TestFunction("exp_neg", lambda x: np.exp(-np.asarray(x, dtype=float)), 1.0),
}

_NAME_RE = re.compile(r"^([a-z_]+)\(([-+0-9.eE]+)\)$")


def make_test_function(name: str) -> TestFunction:
    """Resolve a registry name such as ``exp_neg`` or ``min_cap(10)``."""
    name = name.strip()
    if name in _PLAIN:
        return _PLAIN[name]
    m = _NAME_RE.match(name)
    if m and m.group(1) in _PARAMETRIC:
        return _PARAMETRIC[m.group(1)](float(m.group(2)))
    raise KeyError(f"unknown test function {name!r}; choose from {registry_names()}")


def make_test_functions(names) -> list[TestFunction]:
    """Resolve each name (`make_test_function`).  Estimates are keyed by
    the resolved name, so two names that resolve to one function, such
    as ``min_cap(2)`` and ``min_cap(2.0)``, are refused."""
    phis = [make_test_function(name) for name in names]
    resolved = [phi.name for phi in phis]
    for i, name in enumerate(resolved):
        if name in resolved[:i]:
            raise DomainError(f"test function {name} is given more than once")
    return phis


def registry_names() -> list[str]:
    return sorted(_PLAIN) + [f"{k}(a)" for k in sorted(_PARAMETRIC)]
