"""The fraction-free kernels and checks against a plain Fraction reference.

levi_civita, non_metricity, curvature and the soliton residual read their
inputs' integer numerators over one denominator each and divide once per
tensor. The reference below evaluates the defining sums directly in
fractions.Fraction, densely, in any dimension, so a wrong scale, a wrong
final denominator or a wrongly filled-in entry shows as a component
mismatch.

validate, jet_consistency_violations and constant_sectional decide their
yes/no questions on integers too. The references for them are the dense
Fraction forms: a cofactor determinant for Sylvester's test, the full
81-term Jacobi loop, and R == kappa B with kappa divided out. The metric's
inverse, from the same elimination as Sylvester's test, is checked against a
Fraction Gauss-Jordan inverse.

Each of those kernels states its sums in index notation to
tensor._index_plan, which is checked against a nested-loop reference on
random words, offsets and orderings, and whose one cache must hold every
plan of dims 1-4 at once: the kernels' and those of the slot operations
that a report and its soliton checks run.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from conftest import assert_jacobi_list, oracle_inverse, spd_metrics
from sscurv import (Check, Connection, ConnectionKind, CurvatureBundle, DegenerateMetricError,
                    DistinguishedField, FrameAlgebra, GeometrySpec, InvalidJetError, MetricFrame,
                    ProbeContext, ScalarJet, SolitonKind, SolitonProblem, Tensor,
                    ValidationReport, constant_sectional, curvature, levi_civita,
                    non_metricity, proof_step_probes, rat, residual, run_suite, ssnmc,
                    torsion, validate)
from sscurv.curvature import wedge
from sscurv.geometry import jet_consistency_violations
from sscurv.rat import Rat
from sscurv.tensor import DOWN, UP, _index_plan

# Denominators with no common factor (1/7, 3/11, ...) make the common
# denominator a true product rather than one of the inputs' denominators.
coprime_rats = st.one_of(
    st.sampled_from([Fraction(1, 7), Fraction(3, 11), Fraction(-5, 13), Fraction(2, 3)]),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 5, 7, 11])),
)


def fractions_of(t: Tensor) -> list[Fraction]:
    return [Fraction(x, t.den) for x in t.nums]


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


def ref_torsion(gam, c, n):
    """T^k_ij = Gamma^k_ij - Gamma^k_ji - C^k_ij."""
    return [gam[(k * n + i) * n + j] - gam[(k * n + j) * n + i] - c[(k * n + i) * n + j]
            for k, i, j in product(range(n), repeat=3)]


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
    for t in (bundle.riemann, bundle.ricci_op):
        assert all(type(x) is int for x in (*t.nums, t.den))
        assert isinstance(t[(0,) * t.rank], Rat)


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
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


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
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
    assert fractions_of(torsion(conn, frame)) == ref_torsion(gam, c, n)
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


@pytest.mark.parametrize("n", [1, 3, 4])
def test_non_antisymmetric_structure_constants_reach_curvature_in_any_dim(n):
    # C^m_ii != 0 and C^m_ij != -C^m_ji: the C term of R[l, k, i, j] is then
    # neither antisymmetric in (i, j) nor zero at i == j, so no entry of
    # Riemann may be filled in from another.
    c = [Fraction(m + 2 * i - j, 1 + (m + i * j) % 3) + Fraction(i == j, 5)
         for m, i, j in product(range(n), repeat=3)]
    frame = FrameAlgebra(n, rat_tensor((UP, DOWN, DOWN), n, c))
    assert frame.antisymmetry_violations()
    g = [Fraction(3 if i == j else 1, 1 + i + j) for i, j in product(range(n), repeat=2)]
    metric = MetricFrame.from_tensor(rat_tensor((DOWN, DOWN), n, g))
    gam = [Fraction(k - 2 * i + j + 1, 2 + k) for k, i, j in product(range(n), repeat=3)]
    conn = Connection(rat_tensor((UP, DOWN, DOWN), n, gam), ConnectionKind.CUSTOM)
    riemann = ref_curvature(gam, c, fractions_of(metric.g_inv), n)[0]
    assert any(riemann[((l * n + k) * n + i) * n + i]
               for l, k, i in product(range(n), repeat=3))
    assert_curvature_matches(conn, frame, metric)


@st.composite
def lie_frames(draw, n):
    """An n-dimensional Lie algebra: any antisymmetric C in dims 1 and 2, else
    R^(n-1) semidirect R, [e_a, e_n] = A^b_a e_b for a dense A, and Jacobi holds."""
    if n <= 2:
        return draw(antisymmetric_frames(n))
    comps = [Fraction(0)] * n ** 3
    last = n - 1
    for b, a in product(range(last), repeat=2):
        v = draw(coprime_rats)
        comps[(b * n + a) * n + last] = v
        comps[(b * n + last) * n + a] = -v
    return FrameAlgebra(n, rat_tensor((UP, DOWN, DOWN), n, comps))


def ref_residual(kind, lam, m, c, g, g_inv, xi, d, dd, n):
    """The soliton residual from the Levi-Civita reference, in Fractions:
    Hhat = dd - Gamma^k_ij d_k + (xi f) g, with Ric-hat and r-hat of Gamma + psi_j delta^k_i."""
    gam = ref_levi_civita(c, g, g_inv, n)
    psi = [sum(g[b * n + a] * xi[b] for b in range(n)) for a in range(n)]
    hat = [gam[(k * n + i) * n + j] + psi[j] * (k == i) for k, i, j in product(range(n), repeat=3)]
    _, ric, r, _ = ref_curvature(hat, c, g_inv, n)
    xf = sum(dk * x for dk, x in zip(d, xi))
    hess = [dd[i * n + j] - sum(gam[(k * n + i) * n + j] * d[k] for k in range(n))
            + xf * g[i * n + j] for i, j in product(range(n), repeat=2)]
    out = []
    for i, j in product(range(n), repeat=2):
        h, s, gij = hess[i * n + j], ric[i * n + j], g[i * n + j]
        if kind is SolitonKind.RICCI:
            out.append(h + s + lam * gij)
        elif kind is SolitonKind.YAMABE:
            out.append(h - (r - lam) * gij)
        elif kind is SolitonKind.EINSTEIN:
            out.append(s - r / 2 * gij + h + lam * gij)
        else:
            out.append(s - lam * gij + h - d[i] * d[j] / m)
    return out


@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(st.data())
def test_residual_matches_fraction_reference(data):
    n = data.draw(st.integers(1, 4), label="dim")
    frame = data.draw(lie_frames(n), label="frame")
    metric = data.draw(general_metrics(n), label="metric")
    xi = data.draw(st.lists(coprime_rats, min_size=n, max_size=n), label="xi")
    dist = DistinguishedField.from_xi(rat_tensor((UP,), n, xi), metric)
    spec = GeometrySpec("residual", frame, metric, dist)
    kind = data.draw(st.sampled_from(list(SolitonKind)), label="kind")
    m = None
    if kind is SolitonKind.M_QUASI:
        m = data.draw(st.integers(-5, 5).filter(bool), label="m")
    lam = data.draw(coprime_rats, label="lambda")
    # dd = sym + C d / 2 is consistent: dd_ij - dd_ji = C^k_ij d_k for antisymmetric C.
    c = fractions_of(frame.c)
    d = data.draw(st.lists(coprime_rats, min_size=n, max_size=n), label="d")
    sym = data.draw(st.lists(coprime_rats, min_size=n * n, max_size=n * n), label="sym")
    dd = [sym[i * n + j] + sym[j * n + i] + sum(c[(k * n + i) * n + j] * d[k] for k in range(n)) / 2
          for i, j in product(range(n), repeat=2)]
    if data.draw(st.booleans(), label="break the jet"):
        dd[data.draw(st.integers(0, n * n - 1))] += data.draw(coprime_rats.filter(bool))
    jet = ScalarJet(rat_tensor((DOWN,), n, d), rat_tensor((DOWN, DOWN), n, dd))
    problem = SolitonProblem(kind, rat(str(lam)), jet, m)

    bad = ref_jet(c, d, dd, n)
    if bad:
        with pytest.raises(InvalidJetError, match=rf"at \(i, j\) = \({bad[0][0]}, {bad[0][1]}\)$"):
            residual(spec, problem)
        # Refused before any kernel ran: the context built no connection.
        assert not {"lc", "hat", "lc_bundle", "hat_bundle"} & vars(ProbeContext.of(spec)).keys()
        return
    res = residual(spec, problem).residual
    assert fractions_of(res) == ref_residual(kind, lam, m, c, fractions_of(metric.g),
                                             fractions_of(metric.g_inv), xi, d, dd, n)
    assert all(type(x) is int for x in (*res.nums, res.den))


@given(st.lists(coprime_rats, min_size=1, max_size=12))
def test_common_denominator(values):
    t = Tensor((UP,), len(values), [rat(str(v)) for v in values])
    assert t.den == lcm(*(v.denominator for v in values))
    assert [Fraction(int(x), t.den) for x in t.nums] == values


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


def example_spec(n, c, g, xi):
    """A spec for an @example of the property below, with psi = g xi."""
    psi = [sum(Fraction(g[b * n + a]) * xi[b] for b in range(n)) for a in range(n)]
    return GeometrySpec("check", FrameAlgebra(n, rat_tensor((UP, DOWN, DOWN), n, c)),
                        metric_of(n, g), DistinguishedField(rat_tensor((UP,), n, xi),
                                                            rat_tensor((DOWN,), n, psi)))


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(check_specs())
# dim 1, C^1_11 = 2/3: not antisymmetric, and every gather reads one offset
@example(example_spec(1, [Fraction(2, 3)], [1], [1]))
# dim 2, C^1_12 = 1 but C^1_21 = 1/2: one broken pair
@example(example_spec(2, [0, 1, Fraction(1, 2), 0, 0, Fraction(-3, 7), Fraction(3, 7), 0],
                      [2, 0, 0, 1], [0, 1]))
def test_validate_matches_fraction_reference(spec):
    n = spec.dim
    c, g = fractions_of(spec.frame.c), fractions_of(spec.metric.g)
    anti = ref_antisymmetry(c, n)
    assert spec.frame.antisymmetry_violations() == anti
    assert_jacobi_list(spec.frame.jacobi_violations(), ref_jacobi(c, n), antisymmetric=not anti)
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
@example([Fraction(1), Fraction(0), Fraction(0), Fraction(-1)])  # last pivot -1; g^-1 = g
def test_inverse_matches_fraction_reference(g):
    n = isqrt(len(g))
    rows, t = [g[i * n:(i + 1) * n] for i in range(n)], rat_tensor((DOWN, DOWN), n, g)
    if ref_det(rows) == 0:
        with pytest.raises(DegenerateMetricError):
            MetricFrame.from_tensor(t)
    else:
        inv, ref = MetricFrame.from_tensor(t).g_inv, [x for row in oracle_inverse(rows) for x in row]
        assert fractions_of(inv) == ref
        # Canonical storage, den > 0 included, even when the last pivot is negative.
        assert inv == rat_tensor((UP, UP), n, ref)


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


# -- the index-notation planner --------------------------------------------

def ref_index_sums(n, out, terms, ordered, x, y):
    """The sums of _index_plan by nested loops: at each index of out, row-major,
    with the letters of ordered increasing, the sum over the terms and their
    summed letters of x at the x spec times y at the y spec (1 if it is None)."""
    def split(spec):
        return spec if isinstance(spec, tuple) else (0, spec)

    def read(v, spec, at):
        offset, word = split(spec)
        flat = 0
        for c in word:
            flat = flat * n + at[c]
        return v[offset + flat]

    sums = []
    for idx in product(range(n), repeat=len(out)):
        at = dict(zip(out, idx))
        if any(at[a] >= at[b] for a, b in zip(ordered, ordered[1:])):
            continue
        total = 0
        for xs, ys in terms:
            words = [split(spec)[1] for spec in (xs, ys) if spec is not None]
            summed = sorted({c for word in words for c in word} - set(out))
            for values in product(range(n), repeat=len(summed)):
                at.update(zip(summed, values))
                total += read(x, xs, at) * (1 if ys is None else read(y, ys, at))
        sums.append(total)
    return sums


@st.composite
def index_sums(draw):
    """A dimension, an out word, terms over it and an ordered word, with x and y
    long enough for every spec: x-only or x.y terms, offsets or none, repeated
    letters, and summed letters of each term's own."""
    n = draw(st.integers(1, 4), label="dim")
    out = "".join(draw(st.permutations("abc"))[:draw(st.integers(0, 3))])
    ordered = "".join(draw(st.permutations(out))[:draw(st.sampled_from([0, 2, 3]))])
    ordered = ordered if len(ordered) >= 2 else ""
    x_only = draw(st.booleans(), label="x only")
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        letters = out + "".join(draw(st.permutations("yz"))[:draw(st.integers(0, 2))])
        specs = []
        for _ in range(1 if x_only else 2):
            word = "".join(draw(st.lists(st.sampled_from(letters), max_size=4))) if letters else ""
            offset = draw(st.none() | st.integers(0, 5))
            specs.append(word if offset is None else (offset, word))
        terms.append((specs[0], None if x_only else specs[1]))

    def operand(col):
        size = max((o + n ** len(w) for o, w in
                    ((s if isinstance(s, tuple) else (0, s)) for s in (t[col] for t in terms)
                     if s is not None)), default=0)
        return tuple(draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)))

    return n, out, tuple(terms), ordered, operand(0), operand(1)


RIEMANN_TERMS = (("mjk", "lim"), ((27, "mik"), "ljm"), ((54, "mij"), "lmk"))
JACOBI_TERMS = (("mij", "lmk"), ("mjk", "lmi"), ("mki", "lmj"))


@settings(deadline=None)
@given(index_sums())
@example((3, "lkij", RIEMANN_TERMS, "ij", tuple(range(-40, 41)), tuple(range(27))))
@example((3, "ab", (("ibia", None),), "", tuple(range(81)), ()))
@example((3, "ijkl", JACOBI_TERMS, "ijk", tuple(range(-13, 14)), tuple(range(-13, 14))))
def test_index_plan_matches_reference(case):
    n, out, terms, ordered, x, y = case
    plan = _index_plan(n, out, terms, ordered)
    got = list(plan(x) if all(ys is None for _, ys in terms) else plan(x, y))
    assert got == ref_index_sums(n, out, terms, ordered, x, y)


def every_planned_sum(n):
    """Run each kernel that plans a sum once in dimension n, on objects of its own."""
    metric = MetricFrame.identity(n)
    dist = DistinguishedField.from_xi(Tensor.vector([1] + [0] * (n - 1)), metric)
    jet = ScalarJet.zero(n)
    spec = GeometrySpec("flat", FrameAlgebra(n, Tensor.zeros((UP, DOWN, DOWN), n)),
                        metric, dist, jet)
    # validate (antisymmetric Jacobi, jet), Levi-Civita with non-metricity, the
    # curvature of an antisymmetric C, the Hessian and the residual.
    residual(spec, SolitonProblem(SolitonKind.RICCI, rat(0), jet))
    # Jacobi and curvature of a C that is not antisymmetric, and wedge(g, Q).
    general = FrameAlgebra(n, Tensor.from_ints((UP, DOWN, DOWN), n, range(1, n ** 3 + 1), 1))
    general.jacobi_violations()
    curvature(Connection(general.c, ConnectionKind.CUSTOM), general, metric)
    wedge(metric.g, Tensor.delta(n))


def test_a_second_pass_over_every_kernel_builds_no_plan():
    # The planner's one cache holds every plan of dims 1-4 at once.
    for n in range(1, 5):
        every_planned_sum(n)
    first = _index_plan.cache_info()
    for n in range(1, 5):
        every_planned_sum(n)
    second = _index_plan.cache_info()
    assert second.misses == first.misses and second.hits > first.hits


def every_public_path(n):
    """A full report, and the residual and proof steps of each soliton kind, on a
    fresh geometry of dimension n: [e_1, e_n] = e_1 (abelian in dim 1), a
    non-diagonal metric, unit xi = e_1 and a consistent jet."""
    entries = {(0, 0, n - 1): rat(1)} if n > 1 else {}
    g = Tensor.build((DOWN, DOWN), n, lambda a, b: 1 if a == b == 0 else
                     rat(1, 2) if {a, b} == {1, 2} else int(a == b) * (a + 1))
    metric = MetricFrame.from_tensor(g)
    xi = Tensor.vector([int(a == 0) for a in range(n)])
    spec = GeometrySpec("solvable", FrameAlgebra.from_entries(n, entries), metric,
                        DistinguishedField.from_xi(xi, metric))
    jet = ScalarJet(Tensor.covector([int(a == n - 1) for a in range(n)]),
                    Tensor.build((DOWN, DOWN), n, lambda a, b: a + b))
    run_suite(spec, "all")
    for kind, m in ((SolitonKind.RICCI, None), (SolitonKind.YAMABE, None),
                    (SolitonKind.EINSTEIN, None), (SolitonKind.M_QUASI, 2)):
        problem = SolitonProblem(kind, rat(1), jet, m)
        residual(spec, problem)
        proof_step_probes(spec, problem)


def test_a_second_pass_over_every_public_path_builds_no_plan():
    # The slot operations plan through the same cache as the kernels; it holds
    # the plans of every report and soliton check of dims 1-4 at once.
    for n in range(1, 5):
        every_public_path(n)
    first = _index_plan.cache_info()
    for n in range(1, 5):
        every_public_path(n)
    second = _index_plan.cache_info()
    assert second.misses == first.misses and second.hits > first.hits
