"""Geometry validation, gradients, and jet consistency."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import (DIM, c_rows_of, geometries, make_spec, oracle_inverse,
                      small_rats, tensor_to_rows)
from sscurv import (DegenerateMetricError, FrameAlgebra, GeometrySpec, MetricFrame,
                    ScalarJet, Tensor, builtin, gradient, rat, validate)
from sscurv.geometry import jet_consistency_violations
from sscurv.tensor import DOWN


def test_example1_validates():
    report = validate(builtin("example1"))
    assert report.ok
    assert report.unit_xi and not report.degenerate_xi
    assert all(c.passed for c in report.checks)


def test_abelian_validates():
    report = validate(builtin("flat"))
    assert report.ok


def test_jacobi_violation_reported_with_triple():
    # [e1,e2] = e3 together with [e1,e3] = e1 breaks the cyclic identity;
    # verified against the hand expansion in the fuzz oracle below.
    spec = make_spec("bad", {(2, 0, 1): 1, (0, 0, 2): 1})
    report = validate(spec)
    assert not report.ok
    jac = report.check("jacobi")
    assert not jac.passed
    assert "(1, 2, 3)" in jac.detail


def brute_force_jacobi(frame):
    """Every 1-based (i, j, k, l) with a nonzero cyclic sum, from the full expansion."""
    c = c_rows_of(frame)
    n = frame.dim
    found = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = sum(c[m][i][j] * c[l][m][k] + c[m][j][k] * c[l][m][i]
                            + c[m][k][i] * c[l][m][j] for m in range(n))
                    if s != 0:
                        found.append((i + 1, j + 1, k + 1, l + 1))
    return found


def test_jacobi_brute_force_agreement():
    # Engine's violation finder against a from-scratch expansion.
    spec = make_spec("bad", {(2, 0, 1): 1, (0, 0, 2): 1})
    found = brute_force_jacobi(spec.frame)
    assert found
    assert spec.frame.jacobi_violations() == found


@st.composite
def antisymmetric_frames(draw):
    """Random antisymmetric structure constants in dims 1-4, zeros common."""
    n = draw(st.integers(1, 4))
    coeff = st.one_of(st.just(Fraction(0)), small_rats)
    entries = {(k, i, j): rat(str(draw(coeff)))
               for k in range(n) for i in range(n) for j in range(i + 1, n)}
    return FrameAlgebra.from_entries(n, entries)


@given(antisymmetric_frames())
def test_jacobi_triples_match_full_expansion(frame):
    # Antisymmetric C takes the i < j < k evaluation; the expanded list must
    # equal the 81-term (dim 3) expansion entry for entry, in order.
    assert not frame.antisymmetry_violations()
    assert frame.jacobi_violations() == brute_force_jacobi(frame)


def test_jacobi_non_antisymmetric_keeps_repeated_indices():
    # C^1_11 = 1 is not antisymmetric, so the cyclic sum need not vanish on
    # repeated indices: (1, 1, 1, 1) gives 3 C^1_11 C^1_11 = 3.
    c = Tensor.build(("u", "d", "d"), DIM,
                     lambda k, i, j: rat(1) if (k, i, j) in ((0, 0, 0), (2, 0, 1)) else rat(0))
    frame = FrameAlgebra(DIM, c)
    assert frame.antisymmetry_violations()
    found = frame.jacobi_violations()
    assert (1, 1, 1, 1) in found
    assert found == brute_force_jacobi(frame)


def test_antisymmetry_violation_reported():
    bad_c = Tensor.build(("u", "d", "d"), DIM,
                         lambda k, i, j: rat(1) if (k, i, j) == (0, 0, 1) else rat(0))
    spec = GeometrySpec("bad", FrameAlgebra(DIM, bad_c),
                        MetricFrame.identity(DIM),
                        builtin("flat").distinguished)
    report = validate(spec)
    assert not report.check("antisymmetry").passed


def test_degenerate_metric_rejected():
    g = Tensor.from_rows((DOWN, DOWN), [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(DegenerateMetricError):
        MetricFrame.from_tensor(g)


def test_indefinite_metric_flagged():
    spec = make_spec("lorentz", {}, g_rows=[[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    report = validate(spec)
    assert not report.check("metric-positive-definite").passed


def test_degenerate_xi_accepted_with_warning():
    spec = make_spec("flat0", {}, xi=(0, 0, 0))
    report = validate(spec)
    assert report.ok
    assert report.degenerate_xi and not report.unit_xi


def test_gradient_examples():
    metric = MetricFrame.identity(DIM)
    zero = ScalarJet.zero(DIM)
    assert gradient(zero, metric).is_zero()

    jet = ScalarJet(Tensor.covector([1, 2, 3]), Tensor.zeros((DOWN, DOWN), DIM))
    assert gradient(jet, metric) == Tensor.vector([1, 2, 3])

    diag = MetricFrame.from_tensor(
        Tensor.from_rows((DOWN, DOWN), [[1, 0, 0], [0, 1, 0], [0, 0, 4]]))
    jet2 = ScalarJet(Tensor.covector([0, 0, 1]), Tensor.zeros((DOWN, DOWN), DIM))
    assert gradient(jet2, diag) == Tensor.vector([0, 0, rat(1, 4)])


def test_jet_consistency_on_abelian_forces_symmetric_dd():
    frame = FrameAlgebra.abelian(DIM)
    asym = ScalarJet(Tensor.covector([1, 0, 0]),
                     Tensor.from_rows((DOWN, DOWN), [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert jet_consistency_violations(asym, frame)
    sym = ScalarJet(Tensor.covector([1, 0, 0]),
                    Tensor.from_rows((DOWN, DOWN), [[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    assert not jet_consistency_violations(sym, frame)


@given(geometries())
def test_accepted_geometries_satisfy_jacobi_exactly(spec):
    # The strategy only emits frames from Jacobi-closed families; validate
    # must agree, and the independent expansion must be identically zero.
    report = validate(spec)
    assert report.check("jacobi").passed
    c = c_rows_of(spec.frame)
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                for l in range(DIM):
                    assert sum(c[m][i][j] * c[l][m][k] + c[m][j][k] * c[l][m][i]
                               + c[m][k][i] * c[l][m][j] for m in range(DIM)) == 0


@given(geometries())
def test_metric_inverse_is_exact(spec):
    rows = tensor_to_rows(spec.metric.g)
    inv = oracle_inverse(rows)
    for i in range(DIM):
        for j in range(DIM):
            assert spec.metric.g_inv[i, j] == rat(str(inv[i][j]))
