"""Geometry validation, gradients, and jet consistency."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import (DIM, assert_jacobi_list, c_rows_of, count_calls, geometries, make_spec,
                      oracle_inverse, small_rats, tensor_to_rows)
from sscurv import (DegenerateMetricError, DistinguishedField, FrameAlgebra, GeometrySpec,
                    MetricFrame, ScalarJet, Tensor, ValenceError, builtin, gradient, rat,
                    validate)
from sscurv.geometry import jet_consistency_violations
from sscurv.tensor import DOWN, UP


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
    assert not spec.frame.antisymmetry_violations()
    assert_jacobi_list(spec.frame.jacobi_violations(), found, antisymmetric=True)


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
    # Antisymmetric C takes the i < j < k evaluation: its list is the
    # n^4-term expansion restricted to i < j < k, and every ordering of
    # each entry is in the expansion.
    assert not frame.antisymmetry_violations()
    assert_jacobi_list(frame.jacobi_violations(), brute_force_jacobi(frame), antisymmetric=True)


def rat_list_structure_constants(dim, entries):
    """The Rat-list construction from_entries once had: each entry, then its mirror."""
    comps = [rat(0)] * dim ** 3
    for (k, i, j), v in entries.items():
        v = rat(v)
        comps[(k * dim + i) * dim + j] = v
        comps[(k * dim + j) * dim + i] = -v
    return Tensor((UP, DOWN, DOWN), dim, comps)


@st.composite
def structure_entries(draw):
    """Any 0-based (k, i, j) keys in dims 1-4, diagonal and mirrored pairs
    included, with values of mixed denominators given as Rat, int or string."""
    n = draw(st.integers(1, 4), label="dim")
    index = st.integers(0, n - 1)
    fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    value = st.one_of(fracs.map(rat), st.integers(-9, 9), fracs.map(str))
    return n, draw(st.dictionaries(st.tuples(index, index, index), value, max_size=12),
                   label="entries")


@given(structure_entries(), st.data())
def test_from_entries_matches_rat_list_construction(case, data):
    n, entries = case
    c = FrameAlgebra.from_entries(n, entries).c
    assert c == rat_list_structure_constants(n, entries)
    assert c.variance == (UP, DOWN, DOWN) and c.dim == n
    if entries:
        key = data.draw(st.sampled_from(sorted(entries)), label="float at")
        with pytest.raises(TypeError):
            FrameAlgebra.from_entries(n, {**entries, key: 0.5})
    with pytest.raises(ValenceError):
        FrameAlgebra.from_entries(0, {})


def test_from_entries_writes_the_mirror_second():
    c = FrameAlgebra.from_entries(2, {(0, 1, 1): rat(3), (1, 0, 1): rat(1, 2),
                                      (1, 1, 0): rat(5)}).c
    assert c[0, 1, 1] == -3
    assert c[1, 1, 0] == 5 and c[1, 0, 1] == -5 and c.den == 1


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


@pytest.mark.parametrize("entries", [{(2, 0, 1): 1, (0, 0, 2): 1}, {(0, 0, 1): -1}])
def test_validate_decides_antisymmetry_once(monkeypatch, entries):
    # One scan gives the antisymmetry check and picks the Jacobi loop; the
    # Jacobi detail is the one jacobi_violations lists first.
    spec = make_spec("g", entries)
    scans = []
    scan = FrameAlgebra.antisymmetry_violations

    def counting(frame):
        scans.append(frame)
        return scan(frame)

    monkeypatch.setattr(FrameAlgebra, "antisymmetry_violations", counting)
    report = validate(spec)
    assert len(scans) == 1
    jac = spec.frame.jacobi_violations()
    assert len(scans) == 1  # the frame kept both verdicts
    assert spec.frame.jacobi_violations() is not jac  # each caller gets its own list
    assert report.check("jacobi").passed is not bool(jac)
    if jac:
        assert f"{jac[0][:3]} (value slot l = {jac[0][3]})" in report.check("jacobi").detail


@pytest.mark.parametrize("n", range(1, 5))
def test_identity_metric_matches_elimination(n):
    metric = MetricFrame.identity(n)
    g = Tensor.build((DOWN, DOWN), n, lambda a, b: int(a == b))
    assert metric == MetricFrame.from_tensor(g)
    xi = Tensor.vector([int(a == n - 1) for a in range(n)])
    spec = GeometrySpec("identity", FrameAlgebra.from_entries(n, {}), metric,
                        DistinguishedField.from_xi(xi, metric))
    assert validate(spec).check("metric-positive-definite").passed
    with pytest.raises(ValenceError):
        MetricFrame.identity(0)


def test_validate_decides_sylvester_once_per_metric(monkeypatch):
    # The metric keeps its verdict: a second validate runs no elimination.
    import sscurv.geometry
    spec = make_spec("sylvester", {(2, 0, 1): 1}, g_rows=[[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    runs = []
    bareiss = sscurv.geometry._bareiss

    def counting(rows):
        runs.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(sscurv.geometry, "_bareiss", counting)
    for _ in range(2):
        assert validate(spec).check("metric-positive-definite").passed
    assert runs == [3]


def test_validate_decides_metric_symmetry_once_per_metric(monkeypatch):
    # The metric keeps its verdict: a second validate permutes nothing.
    spec = make_spec("symmetry", {(2, 0, 1): 1}, g_rows=[[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    permutes = count_calls(monkeypatch, Tensor, "permute")
    for _ in range(2):
        assert validate(spec).check("metric-symmetry").passed
    assert len(permutes) == 1


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
    frame = FrameAlgebra.from_entries(DIM, {})
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
