"""The fraction-free kernels against a plain Fraction reference.

levi_civita, non_metricity and curvature scale their inputs to integers over
one common denominator and divide once per component. The reference below
evaluates the defining sums directly in fractions.Fraction, densely, in any
dimension, so a wrong scale or a wrong final denominator shows as a
component mismatch.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from conftest import spd_metrics
from sscurv import (Connection, ConnectionKind, DistinguishedField, FrameAlgebra,
                    MetricFrame, Tensor, curvature, levi_civita, non_metricity, rat,
                    ssnmc)
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
