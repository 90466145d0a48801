import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfconv import make_test_function, model
from pfconv.errors import DomainError
from pfconv.model import registry_names


def test_registry_plain_functions():
    one = make_test_function("one")
    assert one(np.array([0.0, 3.0])).tolist() == [1.0, 1.0]
    exp_neg = make_test_function("exp_neg")
    assert exp_neg(np.array([0.0])) == pytest.approx([1.0])


def test_registry_parametric_functions():
    ind = make_test_function("indicator_leq(2.0)")
    assert ind(np.array([1.0, 2.0, 2.5])).tolist() == [1.0, 1.0, 0.0]
    cap = make_test_function("min_cap(10)")
    assert cap(np.array([3.0, 12.0])).tolist() == [3.0, 10.0]
    assert cap.sup_norm == 10.0


def test_registry_rejects_unknown_names():
    with pytest.raises(KeyError):
        make_test_function("polynomial")
    with pytest.raises(KeyError):
        make_test_function("min_cap")  # missing argument


def test_registry_names_listed():
    names = registry_names()
    assert "one" in names and "exp_neg" in names


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       name=st.sampled_from(["one", "exp_neg", "indicator_leq(2.0)", "min_cap(10)"]))
def test_declared_sup_norm_holds_on_state_domain(x, name):
    phi = make_test_function(name)
    assert abs(float(phi(np.array([x]))[0])) <= phi.sup_norm


def test_test_functions_must_be_bounded():
    # min_cap(inf) would be the identity on [0, inf), outside the theory
    for name, value in (("min_cap(1e999)", "inf"), ("min_cap(0)", "0.0"),
                        ("min_cap(-2)", "-2.0")):
        with pytest.raises(DomainError, match=rf"^min_cap must be finite and positive, "
                                              rf"got {value}$"):
            make_test_function(name)
    for sup_norm in (math.inf, math.nan, 0.0):
        with pytest.raises(DomainError, match="^sup_norm must be finite and positive"):
            model.TestFunction("x", lambda x: x, sup_norm)
