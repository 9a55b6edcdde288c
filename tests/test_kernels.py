"""The fraction-free kernels and checks against a plain Fraction reference.

levi_civita, non_metricity and curvature scale their inputs to integers over
one common denominator and divide once per component. The reference below
evaluates the defining sums directly in fractions.Fraction, densely, in any
dimension, so a wrong scale or a wrong final denominator shows as a
component mismatch.

validate, jet_consistency_violations and constant_sectional decide their
yes/no questions on integers too. The references for them are the dense
Fraction forms: a cofactor determinant for Sylvester's test, the full
81-term Jacobi loop, and R == kappa B with kappa divided out. The metric's
inverse, from the same elimination as Sylvester's test, is checked against a
Fraction Gauss-Jordan inverse.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from conftest import oracle_inverse, spd_metrics
from sscurv import (Check, Connection, ConnectionKind, CurvatureBundle, DegenerateMetricError,
                    DistinguishedField, FrameAlgebra, GeometrySpec, MetricFrame, ScalarJet, Tensor,
                    ValidationReport, constant_sectional, curvature, levi_civita,
                    non_metricity, rat, ssnmc, validate)
from sscurv.geometry import jet_consistency_violations
from sscurv.rat import Rat, common_denominator
from sscurv.tensor import DOWN, UP

# Denominators with no common factor (1/7, 3/11, ...) make the common
# denominator a true product rather than one of the inputs' denominators.
coprime_rats = st.one_of(
    st.sampled_from([Fraction(1, 7), Fraction(3, 11), Fraction(-5, 13), Fraction(2, 3)]),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 5, 7, 11])),
)


def fractions_of(t: Tensor) -> list[Fraction]:
    return [Fraction(int(x.numerator), int(x.denominator)) for x in t.comps]


def ref_levi_civita(c, g, g_inv, n):
    """Gamma^l_ij = 1/2 (-g_im C^m_jk - g_jm C^m_ik + g_km C^m_ij) g^kl."""
    out = []
    for l, i, j in product(range(n), repeat=3):
        total = Fraction(0)
        for k, m in product(range(n), repeat=2):
            koszul = (-g[i * n + m] * c[(m * n + j) * n + k]
                      - g[j * n + m] * c[(m * n + i) * n + k]
                      + g[k * n + m] * c[(m * n + i) * n + j])
            total += koszul * g_inv[k * n + l] / 2
        out.append(total)
    return out


def ref_non_metricity(gam, g, n):
    """(nabla_i g)_jk = -Gamma^m_ij g_mk - Gamma^m_ik g_jm."""
    return [-sum(gam[(m * n + i) * n + j] * g[m * n + k] + gam[(m * n + i) * n + k] * g[j * n + m]
                 for m in range(n))
            for i, j, k in product(range(n), repeat=3)]


def ref_curvature(gam, c, g_inv, n):
    """Riemann, Ricci, scalar and Ricci operator, summed densely."""
    def G(k, i, j):
        return gam[(k * n + i) * n + j]

    riemann = [sum(G(m, j, k) * G(l, i, m) - G(m, i, k) * G(l, j, m)
                   - c[(m * n + i) * n + j] * G(l, m, k) for m in range(n))
               for l, k, i, j in product(range(n), repeat=4)]
    ricci = [sum(riemann[((i * n + b) * n + i) * n + a] for i in range(n))
             for a, b in product(range(n), repeat=2)]
    scalar = sum(g_inv[a * n + b] * ricci[a * n + b] for a, b in product(range(n), repeat=2))
    ricci_op = [sum(ricci[a * n + b] * g_inv[b * n + l] for b in range(n))
                for l, a in product(range(n), repeat=2)]
    return riemann, ricci, scalar, ricci_op


def rat_tensor(variance, n, values):
    return Tensor(variance, n, [rat(str(x)) for x in values])


@st.composite
def antisymmetric_frames(draw, n):
    comps = [Fraction(0)] * n ** 3
    for k, i, j in product(range(n), repeat=3):
        if i < j:
            v = draw(coprime_rats)
            comps[(k * n + i) * n + j] = v
            comps[(k * n + j) * n + i] = -v
    return FrameAlgebra(n, rat_tensor((UP, DOWN, DOWN), n, comps))


@st.composite
def general_metrics(draw, n):
    metric = draw(spd_metrics(n, coprime_rats))
    assume(metric.g != MetricFrame.identity(n).g)
    return metric


def assert_curvature_matches(conn, frame, metric):
    n = conn.dim
    bundle = curvature(conn, frame, metric)
    riemann, ricci, scalar, ricci_op = ref_curvature(
        fractions_of(conn.gamma), fractions_of(frame.c), fractions_of(metric.g_inv), n)
    assert fractions_of(bundle.riemann) == riemann
    assert fractions_of(bundle.ricci) == ricci
    assert Fraction(int(bundle.scalar.numerator), int(bundle.scalar.denominator)) == scalar
    assert fractions_of(bundle.ricci_op) == ricci_op
    assert isinstance(bundle.scalar, Rat)
    assert all(isinstance(x, Rat) for x in bundle.riemann.comps + bundle.ricci_op.comps)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_levi_civita_ssnmc_kernels_match_reference(data):
    n = data.draw(st.integers(1, 4), label="dim")
    frame = data.draw(antisymmetric_frames(n), label="frame")
    metric = data.draw(general_metrics(n), label="metric")
    xi = rat_tensor((UP,), n, data.draw(st.lists(coprime_rats, min_size=n, max_size=n)))
    dist = DistinguishedField.from_xi(xi, metric)
    g = fractions_of(metric.g)

    lc = levi_civita(frame, metric)
    assert fractions_of(lc.gamma) == ref_levi_civita(
        fractions_of(frame.c), g, fractions_of(metric.g_inv), n)
    assert non_metricity(lc, metric).is_zero()

    hat = ssnmc(lc, dist)
    assert fractions_of(non_metricity(hat, metric)) == ref_non_metricity(
        fractions_of(hat.gamma), g, n)
    for conn in (lc, hat):
        assert_curvature_matches(conn, frame, metric)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_custom_connection_kernels_match_reference(data):
    # Arbitrary coefficients and a C that need not be antisymmetric, passed
    # straight to the kernels with no validation in between.
    n = data.draw(st.integers(1, 4), label="dim")
    gam = data.draw(st.lists(coprime_rats, min_size=n ** 3, max_size=n ** 3), label="gamma")
    c = data.draw(st.lists(coprime_rats, min_size=n ** 3, max_size=n ** 3), label="c")
    frame = FrameAlgebra(n, rat_tensor((UP, DOWN, DOWN), n, c))
    metric = data.draw(general_metrics(n), label="metric")
    conn = Connection(rat_tensor((UP, DOWN, DOWN), n, gam), ConnectionKind.CUSTOM)
    assert fractions_of(non_metricity(conn, metric)) == ref_non_metricity(
        gam, fractions_of(metric.g), n)
    assert_curvature_matches(conn, frame, metric)


def test_non_antisymmetric_structure_constants_reach_curvature():
    n = 2
    c = [Fraction(1, 7), Fraction(3, 11), Fraction(0), Fraction(-1, 2),
         Fraction(2), Fraction(0), Fraction(5, 3), Fraction(1)]
    frame = FrameAlgebra(n, rat_tensor((UP, DOWN, DOWN), n, c))
    assert frame.antisymmetry_violations()
    metric = MetricFrame.from_tensor(rat_tensor((DOWN, DOWN), n, ["2", "1/3", "1/3", "5/7"]))
    gam = [Fraction(k + 2 * i - j, 3 + k) for k, i, j in product(range(n), repeat=3)]
    conn = Connection(rat_tensor((UP, DOWN, DOWN), n, gam), ConnectionKind.CUSTOM)
    assert_curvature_matches(conn, frame, metric)


@given(st.lists(coprime_rats, max_size=12))
def test_common_denominator(values):
    values = [rat(str(v)) for v in values]
    ints, d = common_denominator(values)
    assert d == lcm(*(Fraction(str(v)).denominator for v in values))
    assert [Fraction(int(x), d) for x in ints] == [Fraction(str(v)) for v in values]


# -- hypothesis checks ------------------------------------------------------

def ref_antisymmetry(c, n):
    return [(i + 1, j + 1, k + 1) for k in range(n) for i in range(n) for j in range(i, n)
            if c[(k * n + i) * n + j] != -c[(k * n + j) * n + i]]


def ref_jacobi(c, n):
    def C(k, i, j):
        return c[(k * n + i) * n + j]
    return [(i + 1, j + 1, k + 1, l + 1) for i, j, k, l in product(range(n), repeat=4)
            if sum(C(m, i, j) * C(l, m, k) + C(m, j, k) * C(l, m, i) + C(m, k, i) * C(l, m, j)
                   for m in range(n))]


def ref_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** col * rows[0][col] * ref_det([r[:col] + r[col + 1:] for r in rows[1:]])
               for col in range(len(rows)))


def ref_positive_definite(g, n):
    return all(ref_det([g[i * n:i * n + k] for i in range(k)]) > 0 for k in range(1, n + 1))


def ref_jet(c, d, dd, n):
    return [(i + 1, j + 1) for i, j in product(range(n), repeat=2)
            if dd[i * n + j] - dd[j * n + i]
            != sum(c[(k * n + i) * n + j] * d[k] for k in range(n))]


def ref_validate(spec):
    """validate() as a dense Fraction computation, detail strings included."""
    n = spec.dim
    c, g = fractions_of(spec.frame.c), fractions_of(spec.metric.g)
    xi, psi = fractions_of(spec.distinguished.xi), fractions_of(spec.distinguished.psi)
    anti, jac = ref_antisymmetry(c, n), ref_jacobi(c, n)
    sym = all(g[i * n + j] == g[j * n + i] for i, j in product(range(n), repeat=2))
    pos = sym and ref_positive_definite(g, n)
    compat = psi == [sum(g[b * n + a] * xi[b] for b in range(n)) for a in range(n)]
    checks = [
        Check("antisymmetry", not anti,
              f"C^k_ij != -C^k_ji at (i, j, k) = {anti[0]}" if anti else ""),
        Check("jacobi", not jac, "" if not jac else
              f"Jacobi sum nonzero at (i, j, k) = {jac[0][:3]} (value slot l = {jac[0][3]})"),
        Check("metric-symmetry", sym, "" if sym else "g_ij != g_ji"),
        Check("metric-positive-definite", pos,
              "" if pos else "a leading principal minor is not positive"),
        Check("psi-xi-compatibility", compat, "" if compat else "psi_i != g_ij xi^j"),
    ]
    if spec.jet is not None:
        bad = ref_jet(c, fractions_of(spec.jet.d), fractions_of(spec.jet.dd), n)
        checks.append(Check("jet-consistency", not bad, "" if not bad else
                            f"dd_ij - dd_ji != C^k_ij d_k at (i, j) = {bad[0]}"))
    unit = sum(g[i * n + j] * xi[i] * xi[j] for i, j in product(range(n), repeat=2)) == 1
    return ValidationReport(tuple(checks), unit_xi=unit, degenerate_xi=not any(xi))


def ref_wedge_basis(g, n):
    """B[l, k, i, j] = g_jk delta^l_i - g_ik delta^l_j."""
    return [g[j * n + k] * (l == i) - g[i * n + k] * (l == j)
            for l, k, i, j in product(range(n), repeat=4)]


def ref_constant_sectional(r, g, n):
    basis = ref_wedge_basis(g, n)
    kappa = next((rr / b for rr, b in zip(r, basis) if b), Fraction(0))
    return kappa if r == [kappa * b for b in basis] else None


def as_fraction(x):
    return None if x is None else Fraction(int(x.numerator), int(x.denominator))


# Mostly zeros, so Jacobi, antisymmetry and jet consistency hold often enough.
sparse_rats = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), coprime_rats)


def metric_of(n, g):
    """A MetricFrame with no inverse: validate and constant_sectional never read it."""
    return MetricFrame(rat_tensor((DOWN, DOWN), n, g), Tensor.zeros((UP, UP), n))


@st.composite
def structure_constants(draw, n):
    """C that is antisymmetric, antisymmetric but for one entry, or arbitrary."""
    shape = draw(st.sampled_from(("antisymmetric", "one-off", "arbitrary")))
    if shape == "arbitrary":
        return draw(st.lists(sparse_rats, min_size=n ** 3, max_size=n ** 3))
    c = [Fraction(0)] * n ** 3
    for k, i, j in product(range(n), repeat=3):
        if i < j:
            v = draw(sparse_rats)
            c[(k * n + i) * n + j], c[(k * n + j) * n + i] = v, -v
    if shape == "one-off":
        c[draw(st.integers(0, n ** 3 - 1))] += draw(coprime_rats.filter(bool))
    return c


@st.composite
def any_metrics(draw, n):
    """Symmetric, non-symmetric, positive-definite, indefinite or semidefinite g."""
    shape = draw(st.sampled_from(("spd", "symmetric", "arbitrary", "semidefinite",
                                  "zero-minor")))
    if shape == "spd":
        return fractions_of(draw(spd_metrics(n, coprime_rats)).g)
    if shape == "arbitrary":
        return draw(st.lists(sparse_rats, min_size=n * n, max_size=n * n))
    if shape == "semidefinite":
        # B^T B with B of rank below n: every minor is >= 0 and some is 0.
        rank = draw(st.integers(0, n - 1))
        b = [draw(st.lists(coprime_rats, min_size=n, max_size=n)) for _ in range(rank)]
        return [sum(row[i] * row[j] for row in b) for i in range(n) for j in range(n)]
    g = [Fraction(0)] * (n * n)
    for i in range(n):
        for j in range(i, n):
            g[i * n + j] = g[j * n + i] = draw(sparse_rats)
    if shape == "zero-minor":
        # The k-th leading minor is linear in g_kk with slope the (k-1)-th;
        # solve for g_kk so that it is 0, unless the (k-1)-th already is.
        k = draw(st.integers(1, n))
        g[0] = abs(g[0]) + 1
        top = [g[i * n:i * n + k] for i in range(k)]
        top[k - 1][k - 1] = Fraction(0)
        slope = ref_det([r[:k - 1] for r in top[:k - 1]]) if k > 1 else 1
        if slope:
            g[(k - 1) * n + k - 1] = -ref_det(top) / slope
        assert not ref_positive_definite(g, n)
    return g


@st.composite
def check_specs(draw):
    n = draw(st.integers(1, 4), label="dim")
    c = draw(structure_constants(n), label="c")
    g = draw(any_metrics(n), label="g")
    xi = draw(st.one_of(st.just([Fraction(0)] * n),
                        st.lists(sparse_rats, min_size=n, max_size=n)), label="xi")
    unit_at = draw(st.integers(0, n - 1))
    if xi[unit_at] and draw(st.booleans()):
        # Shift one diagonal entry of g so that g(xi, xi) = 1 exactly.
        q = sum(g[i * n + j] * xi[i] * xi[j] for i, j in product(range(n), repeat=2))
        g[unit_at * n + unit_at] += (1 - q) / xi[unit_at] ** 2
    psi = [sum(g[b * n + a] * xi[b] for b in range(n)) for a in range(n)]
    if draw(st.booleans()):
        psi[draw(st.integers(0, n - 1))] += draw(coprime_rats.filter(bool))
    jet = None
    if draw(st.booleans()):
        d = draw(st.lists(sparse_rats, min_size=n, max_size=n))
        sym = draw(st.lists(sparse_rats, min_size=n * n, max_size=n * n))
        # dd = sym + sym^T + 1/2 C d is consistent when C is antisymmetric.
        dd = [sym[i * n + j] + sym[j * n + i]
              + sum(c[(k * n + i) * n + j] * d[k] for k in range(n)) / 2
              for i, j in product(range(n), repeat=2)]
        if draw(st.booleans()):
            dd[draw(st.integers(0, n * n - 1))] += draw(coprime_rats.filter(bool))
        jet = ScalarJet(rat_tensor((DOWN,), n, d), rat_tensor((DOWN, DOWN), n, dd))
    metric = metric_of(n, g)
    dist = DistinguishedField(rat_tensor((UP,), n, xi), rat_tensor((DOWN,), n, psi))
    return GeometrySpec("check", FrameAlgebra(n, rat_tensor((UP, DOWN, DOWN), n, c)),
                        metric, dist, jet)


@settings(max_examples=300, deadline=None)
@given(check_specs())
def test_validate_matches_fraction_reference(spec):
    n = spec.dim
    c, g = fractions_of(spec.frame.c), fractions_of(spec.metric.g)
    assert spec.frame.antisymmetry_violations() == ref_antisymmetry(c, n)
    assert spec.frame.jacobi_violations() == ref_jacobi(c, n)
    # Sylvester's test on its own reads every matrix, symmetric or not.
    assert spec.metric.is_positive_definite() == ref_positive_definite(g, n)
    if spec.jet is not None:
        assert jet_consistency_violations(spec.jet, spec.frame) == ref_jet(
            c, fractions_of(spec.jet.d), fractions_of(spec.jet.dd), n)
    assert validate(spec) == ref_validate(spec)


@pytest.mark.parametrize("g, positive", [
    ([[1, 0], [0, 0]], False),                      # last pivot 0
    ([[1, 1], [1, 1]], False),                      # singular, semidefinite
    ([[0, 0], [0, 1]], False),                      # first pivot 0
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], False),     # middle minor 0, det -1
    ([[Fraction(1, 7), 0, 0], [0, Fraction(3, 11), 0], [0, 0, 0]], False),
    ([[2, Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 5)]], True),
    ([[1, 0, 0], [0, -1, 0], [0, 0, 1]], False),
    ([[Fraction(5, 3)]], True),
    ([[0]], False),
])
def test_positive_definite_edge_cases(g, positive):
    n = len(g)
    flat = [Fraction(x) for row in g for x in row]
    assert ref_positive_definite(flat, n) is positive
    assert metric_of(n, flat).is_positive_definite() is positive


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(any_metrics))
@example([Fraction(0), Fraction(1), Fraction(1), Fraction(0)])  # a swap at step 0; g^-1 = g
def test_inverse_matches_fraction_reference(g):
    n = isqrt(len(g))
    rows, t = [g[i * n:(i + 1) * n] for i in range(n)], rat_tensor((DOWN, DOWN), n, g)
    if ref_det(rows) == 0:
        with pytest.raises(DegenerateMetricError):
            MetricFrame.from_tensor(t)
    else:
        inv = fractions_of(MetricFrame.from_tensor(t).g_inv)
        assert inv == [x for row in oracle_inverse(rows) for x in row]


@st.composite
def sectional_cases(draw):
    """A Riemann tensor that is zero, kappa B, kappa B off by one entry, or arbitrary."""
    n = draw(st.integers(1, 4), label="dim")
    g = draw(any_metrics(n), label="g")
    shape = draw(st.sampled_from(("zero", "kappa", "kappa-off", "arbitrary")), label="shape")
    if shape == "arbitrary":
        r = draw(st.lists(sparse_rats, min_size=n ** 4, max_size=n ** 4))
    else:
        kappa = Fraction(0) if shape == "zero" else draw(coprime_rats)
        r = [kappa * b for b in ref_wedge_basis(g, n)]
        if shape == "kappa-off":
            r[draw(st.integers(0, n ** 4 - 1))] += draw(coprime_rats.filter(bool))
    return n, g, r


@settings(max_examples=300, deadline=None)
@given(sectional_cases())
def test_constant_sectional_matches_fraction_reference(case):
    n, g, r = case
    zero2 = Tensor.zeros((DOWN, DOWN), n)
    bundle = CurvatureBundle(rat_tensor((UP, DOWN, DOWN, DOWN), n, r), zero2, rat(0),
                             Tensor.zeros((UP, DOWN), n))
    kappa = constant_sectional(bundle, metric_of(n, g))
    assert as_fraction(kappa) == ref_constant_sectional(r, g, n)
    assert kappa is None or isinstance(kappa, Rat)
