"""Exact scalar and tensor container behavior."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import DIM, rat_tensor, small_rats, spd_metrics
from sscurv import MetricFrame, Tensor, ValenceError, rat
from sscurv.rat import format_rat, parse_rat
from sscurv.tensor import DOWN, UP


def test_rat_lowest_terms_positive_denominator():
    x = rat(6, -4)
    assert x.numerator == -3 and x.denominator == 2
    assert rat("10/15") == rat(2, 3)
    assert format_rat(rat(-14, 7)) == "-2"
    assert format_rat(rat(3, 9)) == "1/3"


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(1, 2.0)
    with pytest.raises(ValueError):
        parse_rat("0.5e3")


@given(st.integers(-50, 50), st.integers(1, 20), st.integers(-50, 50), st.integers(1, 20))
def test_rat_field_ops_exact(p1, q1, p2, q2):
    a, b = rat(p1, q1), rat(p2, q2)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a
    s = a + b
    assert s.denominator > 0
    from math import gcd
    assert gcd(int(s.numerator), int(s.denominator)) == 1


def test_tensor_shape_checks():
    with pytest.raises(ValenceError):
        Tensor((UP,), 3, [rat(1)] * 4)
    with pytest.raises(ValenceError):
        Tensor(("x",), 3, [rat(1)] * 3)
    t = Tensor.zeros((UP, DOWN), 3)
    with pytest.raises(ValenceError):
        t[0]
    with pytest.raises(IndexError):
        t[0, 5]


def test_indexing_keeps_its_checks():
    t = Tensor.build((UP, DOWN, DOWN), DIM, lambda a, b, c: rat(a * 9 + b * 3 + c))
    assert t[2, 1, 0] == t[[2, 1, 0]] == rat(21)
    for bad_rank in ((0, 1), (0, 1, 2, 0), 0):
        with pytest.raises(ValenceError):
            t[bad_rank]
    for bad_range in ((0, -1, 2), (0, 1, DIM), (-1, 0, 0)):
        with pytest.raises(IndexError):
            t[bad_range]

    v = Tensor.vector([rat(4), rat(5), rat(6)])
    assert v[1] == v[(1,)] == rat(5)
    with pytest.raises(IndexError):
        v[-1]
    with pytest.raises(IndexError):
        v[DIM]
    with pytest.raises(ValenceError):
        Tensor.zeros((UP, DOWN), DIM)[1]
    with pytest.raises(TypeError):
        v[1.0]
    assert Tensor((), DIM, [rat(7)])[()] == rat(7)


def test_lower_vector_identity_metric():
    metric = MetricFrame.identity(DIM)
    v = Tensor.vector([0, 0, 1])
    low = v.apply_metric(metric.g, 0)
    assert low == Tensor.covector([0, 0, 1])
    # The one contraction: psi(xi) = 1, and two vectors do not contract.
    assert low.contract_with(0, v) == Tensor((), DIM, [1])
    with pytest.raises(ValenceError):
        v.contract_with(0, v)


@given(rat_tensor((UP, DOWN)), rat_tensor((UP, DOWN)))
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(rat_tensor((DOWN, DOWN)), spd_metrics())
def test_raise_lower_round_trip(t, metric):
    for slot in (0, 1):
        up = t.apply_metric(metric.g_inv, slot)
        assert up.variance[slot] == UP
        assert up.apply_metric(metric.g, slot) == t


def test_tensor_immutable():
    t = MetricFrame.identity(DIM).g
    with pytest.raises(AttributeError):
        t.dim = 4
    with pytest.raises(TypeError):
        t.comps[0] = rat(2)


@given(st.integers(0, 4), st.integers(1, 3), st.data())
def test_serialized_tensor_nests_row_major(rank, dim, data):
    from sscurv.report import serialize_value
    comps = data.draw(st.lists(small_rats, min_size=dim ** rank, max_size=dim ** rank))
    t = Tensor((UP,) * rank, dim, [rat(str(x)) for x in comps])

    def by_index(prefix):
        if len(prefix) == rank:
            return format_rat(t[prefix])
        return [by_index(prefix + (i,)) for i in range(dim)]

    assert serialize_value(t) == by_index(())
