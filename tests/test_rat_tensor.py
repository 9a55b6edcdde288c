"""Exact scalar and tensor container behavior."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import DIM, rat_tensor, small_rats, spd_metrics
from sscurv import Tensor, ValenceError, rat, raise_lower
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


def test_trace_of_identity_is_dim():
    assert Tensor.delta(DIM).contract(0, 1).scalar() == 3


def test_psi_tensor_xi_trace_is_one():
    xi = Tensor.vector([0, 0, 1])
    psi = Tensor.covector([0, 0, 1])
    prod = xi.tensor_product(psi)  # (1,1) tensor psi x xi
    assert prod.contract(0, 1).scalar() == 1


def test_contract_requires_opposite_kinds():
    t = Tensor.zeros((UP, UP), DIM)
    with pytest.raises(ValenceError):
        t.contract(0, 1)


def test_lower_vector_identity_metric():
    from sscurv import MetricFrame
    metric = MetricFrame.identity(DIM)
    v = Tensor.vector([0, 0, 1])
    low = raise_lower(v, metric, 0, "down")
    assert low == Tensor.covector([0, 0, 1])


@given(rat_tensor((UP, DOWN)), rat_tensor((UP, DOWN)))
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(rat_tensor((UP, DOWN)), rat_tensor((UP, DOWN)), small_rats, small_rats)
def test_contraction_linear(a, b, s1, s2):
    lhs = (a.scale(rat(str(s1))) + b.scale(rat(str(s2)))).contract(0, 1)
    rhs = (a.contract(0, 1).scale(rat(str(s1)))
           + b.contract(0, 1).scale(rat(str(s2))))
    assert lhs.scalar() == rhs.scalar()


@given(rat_tensor((DOWN, DOWN)), spd_metrics())
def test_raise_lower_round_trip(t, metric):
    for slot in (0, 1):
        up = raise_lower(t, metric, slot, "up")
        assert raise_lower(up, metric, slot, "down") == t


@given(rat_tensor((DOWN, DOWN)))
def test_symmetrize(t):
    s = t.symmetrize(0, 1)
    for i in range(DIM):
        for j in range(DIM):
            assert s[i, j] == s[j, i]
            assert s[i, j] == (t[i, j] + t[j, i]) * rat(1, 2)


def test_permute_round_trip():
    t = Tensor.build((UP, DOWN, DOWN), DIM, lambda a, b, c: rat(a * 9 + b * 3 + c))
    swapped = t.permute((0, 2, 1))
    assert swapped[1, 2, 0] == t[1, 0, 2]
    assert swapped.permute((0, 2, 1)) == t


def test_tensor_immutable():
    t = Tensor.delta(DIM)
    with pytest.raises(AttributeError):
        t.dim = 4
    with pytest.raises(TypeError):
        t.comps[0] = rat(2)
