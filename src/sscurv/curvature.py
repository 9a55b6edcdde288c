"""Curvature of a frame connection and the derived tensors.

Slot convention for the (1,3) curvature tensor: R[l, k, i, j] is the l-th
component of R(e_i, e_j) e_k, so the value slot comes first, then the
argument Y, then the pair (U, V). With constant coefficients

    R(e_i, e_j) e_k = (Gamma^m_jk Gamma^l_im - Gamma^m_ik Gamma^l_jm
                       - C^m_ij Gamma^l_mk) e_l.

The Ricci convention is S(V, Y) = trace of U -> R(U, V) Y; hatted
quantities are always contracted from their own curvature tensor, never
substituted from a cross-relation.

curvature() is a fraction-free integer kernel: it reads its inputs' integer
numerators and denominators (see tensor), states each sum of products in
index notation to tensor._index_plan, which plans it, and divides once per
tensor. With antisymmetric C, which the frame's kept antisymmetry verdict
decides, Riemann is summed at i < j only and the rest filled in by one
gather; any other C is summed at every (i, j). So is _wedge_sum a kernel, base + sum of
c_t wedge(a_t, Q_t) for wedge(a, Q) = a(V, Y) QU - a(U, Y) QV, the shape
behind the projective, conformal and constant-curvature forms, over one
common denominator: the terms with Q the delta are one gather of the sum of
their c_t a_t, and the others one planned sum at i < j and the same fill.
wedge(), projective(), conformal() and the B3, B8, B15 and B22 right sides
in probes are its calls; projective() and conformal() take coefficients from
the dimension n and raise UnsupportedDimensionError where they are
undefined. constant_sectional() decides R = kappa wedge(g) on the
numerators, by cross-multiplication, with wedge(g) kept once per metric,
and builds kappa as one rational.
"""

from __future__ import annotations

import functools
from itertools import combinations, product, repeat
from math import lcm
from operator import add, mul, neg
from typing import Callable, Optional

from .connection import Connection
from .errors import DegeneratePlaneError, UnsupportedDimensionError, ValenceError
from .geometry import FrameAlgebra, MetricFrame
from .rat import ZERO, Rat, rat
from .record import Record
from .tensor import DOWN, UP, Tensor, _gather, _index_plan


class CurvatureBundle(Record):
    def __init__(self, riemann: Tensor, ricci: Tensor, scalar: Rat, ricci_op: Tensor):
        fields = self.__dict__
        fields["riemann"] = riemann    # (UP, DOWN, DOWN, DOWN): R[l, k, i, j]
        fields["ricci"] = ricci        # (DOWN, DOWN): ricci[a, b] = S(e_a, e_b)
        fields["scalar"] = scalar
        fields["ricci_op"] = ricci_op  # (UP, DOWN): ricci_op[l, a] = (Q e_a)^l, g(QU, V) = S(U, V)

    @property
    def dim(self) -> int:
        return self.riemann.dim


def curvature(conn: Connection, frame: FrameAlgebra, metric: MetricFrame) -> CurvatureBundle:
    """Full curvature bundle of a connection on the frame geometry.

    Fraction-free: Gamma, C and g^-1 are read as numerators over dG, dc
    and dh. Riemann and Ricci are integer sums over dG^2 dc, the scalar and
    the Ricci operator over dG^2 dc dh, and each is divided once. With
    antisymmetric C (the frame's kept verdict) Riemann is summed at i < j
    only and filled in.
    """
    n = conn.dim
    n3 = n ** 3
    gam, d_gam = conn.gamma.nums, conn.gamma.den
    c, dc = frame.c.nums, frame.c.den
    g_inv, dh = metric.g_inv.nums, metric.g_inv.den
    antisymmetric = not frame._verdicts[0]
    # x holds dc Gamma, -dc Gamma and -dG C, so each product is over dG^2 dc.
    g_dc = gam if dc == 1 else tuple(map(mul, gam, repeat(dc)))
    x = g_dc + tuple(map(neg, g_dc)) + tuple(map(mul, c, repeat(-d_gam)))
    riemann = tuple(_index_plan(n, "lkij", (("mjk", "lim"), ((n3, "mik"), "ljm"),
                                            ((2 * n3, "mij"), "lmk")),
                                "ij" if antisymmetric else "")(x, gam))
    if antisymmetric:
        riemann = _antisymmetric_fill(n)(riemann + tuple(map(neg, riemann)) + (0,))
    # S(e_a, e_b) = R[i, b, i, a] summed over i; (Q e_a)^l = S_ab g^bl over b.
    ricci = tuple(_index_plan(n, "ab", (("ibia", None),))(riemann))
    den = d_gam * d_gam * dc
    return CurvatureBundle(
        Tensor.from_ints((UP, DOWN, DOWN, DOWN), n, riemann, den),
        Tensor.from_ints((DOWN, DOWN), n, ricci, den),
        Rat(sum(map(mul, g_inv, ricci)), den * dh),
        Tensor.from_ints((UP, DOWN), n, _index_plan(n, "la", (("ab", "bl"),))(ricci, g_inv),
                         den * dh))


@functools.lru_cache(maxsize=8)
def _antisymmetric_fill(n: int) -> Callable[[tuple], tuple]:
    """Reads a (1,3) tensor, row-major, off v + -v + (0,) for v its values at
    [l, k, i, j] with i < j, row-major: [l, k, j, i] is -[l, k, i, j] and
    [l, k, i, i] is 0."""
    at = {ij: s for s, ij in enumerate(combinations(range(n), 2))}
    p = len(at)
    half = n * n * p
    offsets = []
    for l, k, i, j in product(range(n), repeat=4):
        lk = (l * n + k) * p
        offsets.append(lk + at[i, j] if i < j else half + lk + at[j, i] if i > j else 2 * half)
    return _gather(offsets)


def sectional(bundle: CurvatureBundle, metric: MetricFrame, u: Tensor, v: Tensor) -> Rat:
    """kappa(u, v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2)."""
    if u.variance != (UP,) or v.variance != (UP,):
        raise ValenceError("sectional curvature takes two vectors")
    denom = metric.inner(u, u) * metric.inner(v, v) - metric.inner(u, v) ** 2
    if denom == 0:
        raise DegeneratePlaneError("u and v do not span a nondegenerate plane")
    # w = R(u, v)v: R[l, k, i, j] v^j, then u^i, then v^k.
    w = bundle.riemann.contract_with(3, v).contract_with(2, u).contract_with(1, v)
    return metric.inner(w, u) / denom


def wedge(a: Tensor, q: Optional[Tensor] = None) -> Tensor:
    """The (1,3) tensor a(V, Y) QU - a(U, Y) QV: a_jk q^l_i - a_ik q^l_j at [l, k, i, j].

    a is a (0,2) and q a (1,1) tensor of a's dim; q=None stands for the
    Kronecker delta. The one-term call of the wedge kernel (_wedge_sum).
    """
    if a.variance != (DOWN, DOWN):
        raise ValenceError(f"wedge needs a (0,2) tensor a, got variance {a.variance}")
    n = a.dim
    if q is not None and (q.variance != (UP, DOWN) or q.dim != n):
        raise ValenceError(f"wedge needs q a (1,1) tensor of dim {n}, "
                           f"got variance {q.variance} in dim {q.dim}")
    return _wedge_sum(None, ((1, a, q),))


def _wedge_sum(base: Optional[Tensor], terms) -> Tensor:
    """base + sum of c * wedge(a, q) over the terms (c, a, q); base None is zero.

    c is a Rat or int, a a (0,2) and q a (1,1) tensor or None (the delta),
    all of one dim, unchecked. Fraction-free: over D, the lcm of base.den and
    each c.den a.den q.den, on integer numerators. wedge is linear in a, so
    the terms with q None add up to one wedge(A) of A the sum of their c a,
    which one gather writes; the others are one planned sum at [l, k, i, j]
    for i < j and the antisymmetric fill. The parts are added and divided by
    D once.
    """
    n = terms[0][1].dim
    dens = [c.denominator * a.den * (1 if q is None else q.den) for c, a, q in terms]
    den = lcm(*dens) if base is None else lcm(base.den, *dens)
    n2 = n * n
    a_sum, x, y, wedges = None, [], [], ()
    for (c, a, q), d in zip(terms, dens):
        ca = tuple(map(mul, a.nums, repeat(c.numerator * (den // d))))
        if q is None:
            a_sum = ca if a_sum is None else tuple(map(add, a_sum, ca))
        else:
            # c a_jk q^l_i - c a_ik q^l_j, off c a and -c a in x and q in y.
            wedges += (((len(x), "jk"), (len(y), "li")), ((len(x) + n2, "ik"), (len(y), "lj")))
            x += ca
            x += map(neg, ca)
            y += q.nums
    parts = []
    if base is not None:
        scale = den // base.den
        parts.append(base.nums if scale == 1 else map(mul, base.nums, repeat(scale)))
    if a_sum is not None:
        parts.append(_delta_wedge(n)(a_sum + tuple(map(neg, a_sum)) + (0,)))
    if wedges:
        half = tuple(_index_plan(n, "lkij", wedges, "ij")(x, y))
        parts.append(_antisymmetric_fill(n)(half + tuple(map(neg, half)) + (0,)))
    out = parts[0]
    for part in parts[1:]:
        out = map(add, out, part)
    return Tensor.from_ints((UP, DOWN, DOWN, DOWN), n, out, den)


@functools.lru_cache(maxsize=8)
def _delta_wedge(n: int) -> Callable[[tuple], tuple]:
    """Reads wedge(A), row-major, off A + -A + (0,) for A's n^2 numerators:
    A_jk at [l, k, l, j], -A_ik at [l, k, i, l] and 0 elsewhere (i != j)."""
    n2 = n * n
    return _gather([j * n + k if l == i != j else n2 + i * n + k if l == j != i else 2 * n2
                    for l, k, i, j in product(range(n), repeat=4)])


def constant_sectional(bundle: CurvatureBundle, metric: MetricFrame) -> Optional[Rat]:
    """kappa if R^l_kij = kappa (g_jk delta^l_i - g_ik delta^l_j), else None.

    Fraction-free: B = wedge(g), kept on the metric, is read as numerators
    over dB, R over dR, and R = kappa B holds iff R_x B_f == R_f B_x for
    every component x, f the first nonzero entry of B. Then
    kappa = R_f dB / (B_f dR). With B = 0 (dim 1) kappa is 0 when R is.
    """
    basis = metric._wedge_basis
    b, db = basis.nums, basis.den
    r, dr = bundle.riemann.nums, bundle.riemann.den
    f = next((x for x, bx in enumerate(b) if bx), None)
    if f is None:
        return None if any(r) else ZERO
    r_f, b_f = r[f], b[f]
    if all(rx * b_f == r_f * bx for rx, bx in zip(r, b)):
        return Rat(r_f * db, b_f * dr)
    return None


def projective(bundle: CurvatureBundle) -> Tensor:
    """P = R - (1/(n-1))[S(V,Y) U - S(U,Y) V], defined for n >= 2.

    The coefficient makes it trace-free: sum_i P[i, k, i, j] = 0.
    """
    n = bundle.dim
    if n < 2:
        raise UnsupportedDimensionError(f"projective tensor needs dim >= 2, got dim {n}")
    return _wedge_sum(bundle.riemann, ((rat(-1, n - 1), bundle.ricci, None),))


def conformal(bundle: CurvatureBundle, metric: MetricFrame) -> Tensor:
    """C = R - (1/(n-2))[S(V,Y)U - S(U,Y)V + g(V,Y)QU - g(U,Y)QV]
           + (r/((n-1)(n-2)))[g(V,Y)U - g(U,Y)V], defined for n >= 3.

    The coefficients make it trace-free, sum_i C[i, k, i, j] = 0, and for a
    Levi-Civita bundle in dimension 3 it vanishes identically.
    """
    n = bundle.dim
    if n < 3:
        raise UnsupportedDimensionError(f"conformal tensor needs dim >= 3, got dim {n}")
    g, c = metric.g, rat(-1, n - 2)
    return _wedge_sum(bundle.riemann, ((bundle.scalar * rat(1, (n - 1) * (n - 2)), g, None),
                                       (c, bundle.ricci, None), (c, g, bundle.ricci_op)))
