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
numerators and denominators (see tensor), accumulates in plain ints and
divides once per tensor. So is _wedge_sum, base + sum of c_t wedge(a_t, Q_t)
for wedge(a, Q) = a(V, Y) QU - a(U, Y) QV, the shape behind the projective,
conformal and constant-curvature forms: one pass over the nonzero numerators
of each a_t and Q_t, over one common denominator. wedge(), projective(),
conformal() and the B3, B8, B15 and B22 right sides in probes are its calls;
projective() and conformal() take coefficients from the dimension n and
raise UnsupportedDimensionError where they are undefined.
constant_sectional() decides R = kappa wedge(g) on the numerators, by
cross-multiplication, and builds kappa as one rational.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from .connection import Connection
from .errors import DegeneratePlaneError, UnsupportedDimensionError, ValenceError
from .geometry import FrameAlgebra, MetricFrame
from .rat import ZERO, Rat, rat
from .record import Record
from .tensor import DOWN, UP, Tensor


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
    the Ricci operator over dG^2 dc dh, and each is divided once.
    """
    n = conn.dim
    gam, d_gam = conn.gamma.nums, conn.gamma.den
    c, dc = frame.c.nums, frame.c.den
    g_inv, dh = metric.g_inv.nums, metric.g_inv.den
    nn = n * n
    n3 = nn * n
    # Nonzero Gamma^l_pq: by_last[q] holds (l, p, value * dc), by_first[p]
    # holds (l, q, value); the dc brings the Gamma Gamma products to dG^2 dc.
    by_last = [[] for _ in range(n)]
    by_first = [[] for _ in range(n)]
    for flat, v in enumerate(gam):
        if v:
            l, p, q = flat // nn, flat // n % n, flat % n
            by_last[q].append((l, p, v * dc))
            by_first[p].append((l, q, v))

    riemann = [0] * (n3 * n)
    for flat, a in enumerate(gam):
        if not a:
            continue
        m, j, k = flat // nn, flat // n % n, flat % n
        # Gamma^m_jk Gamma^l_im enters R[l, k, i, j] and, with i and j
        # swapped, the second term of R[l, k, j, i].
        for l, i, b in by_last[m]:
            if i != j:
                prod = a * b
                riemann[l * n3 + k * nn + i * n + j] += prod
                riemann[l * n3 + k * nn + j * n + i] -= prod
    for flat, cm in enumerate(c):
        if not cm:
            continue
        m, i, j = flat // nn, flat // n % n, flat % n
        cm *= d_gam
        for l, k, b in by_first[m]:  # C^m_ij Gamma^l_mk
            riemann[l * n3 + k * nn + i * n + j] -= cm * b
    den = d_gam * d_gam * dc

    # S(e_a, e_b) = R[i, b, i, a] summed over i.
    ricci = [sum(riemann[i * n3 + b * nn + i * n + a] for i in range(n))
             for a in range(n) for b in range(n)]

    scalar = 0
    ricci_op = [0] * nn
    for a in range(n):
        for b in range(n):
            s_ab = ricci[a * n + b]
            if not s_ab:
                continue
            g_ab = g_inv[a * n + b]
            if g_ab:
                scalar += g_ab * s_ab
            for l in range(n):
                g_bl = g_inv[b * n + l]
                if g_bl:
                    ricci_op[l * n + a] += s_ab * g_bl

    return CurvatureBundle(
        Tensor.from_ints((UP, DOWN, DOWN, DOWN), n, riemann, den),
        Tensor.from_ints((DOWN, DOWN), n, ricci, den),
        Rat(scalar, den * dh),
        Tensor.from_ints((UP, DOWN), n, ricci_op, den * dh))


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
    each c.den a.den q.den, one pass over the nonzero numerators of each a
    and q adds c a_jk q^l_i at [l, k, i, j] and subtracts it at [l, k, j, i]
    (for i == j the two cancel); the integer list is divided by D once.
    """
    n = terms[0][1].dim
    nn = n * n
    n3 = nn * n
    dens = [c.denominator * a.den * (1 if q is None else q.den) for c, a, q in terms]
    if base is None:
        den = lcm(*dens)
        out = [0] * (n3 * n)
    else:
        den = lcm(base.den, *dens)
        out = list(base.nums) if den == base.den else [x * (den // base.den) for x in base.nums]
    for (c, a, q), d in zip(terms, dens):
        scale = c.numerator * (den // d)
        if not scale:
            continue
        # Nonzero q^l_i as (offset of l in the value slot, i, value).
        if q is None:
            q_terms = [(l * n3, l, scale) for l in range(n)]
        else:
            q_terms = [(flat // n * n3, flat % n, y * scale) for flat, y in enumerate(q.nums) if y]
        for flat, x in enumerate(a.nums):
            if not x:
                continue
            j, k = flat // n, flat % n
            for l3, i, y in q_terms:
                if i != j:
                    at, prod = l3 + k * nn, x * y
                    out[at + i * n + j] += prod
                    out[at + j * n + i] -= prod
    return Tensor.from_ints((UP, DOWN, DOWN, DOWN), n, out, den)


def constant_sectional(bundle: CurvatureBundle, metric: MetricFrame) -> Optional[Rat]:
    """kappa if R^l_kij = kappa (g_jk delta^l_i - g_ik delta^l_j), else None.

    Fraction-free: B = wedge(g) is read as numerators over dB, R over dR, and
    R = kappa B holds iff R_x B_f == R_f B_x for every component x, f the
    first nonzero entry of B. Then kappa = R_f dB / (B_f dR). With B = 0
    (dim 1) kappa is 0 when R is.
    """
    basis = wedge(metric.g)
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
