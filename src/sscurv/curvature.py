"""Curvature of a frame connection and the derived tensors.

Slot convention for the (1,3) curvature tensor: R[l, k, i, j] is the l-th
component of R(e_i, e_j) e_k, so the value slot comes first, then the
argument Y, then the pair (U, V). With constant coefficients

    R(e_i, e_j) e_k = (Gamma^m_jk Gamma^l_im - Gamma^m_ik Gamma^l_jm
                       - C^m_ij Gamma^l_mk) e_l.

The Ricci convention is S(V, Y) = trace of U -> R(U, V) Y; hatted
quantities are always contracted from their own curvature tensor, never
substituted from a cross-relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .connection import Connection, ConnectionKind
from .errors import DegeneratePlaneError, UnsupportedDimensionError, ValenceError
from .geometry import FrameAlgebra, MetricFrame
from .rat import ZERO, Rat, rat
from .tensor import DOWN, UP, Tensor


@dataclass(frozen=True)
class CurvatureBundle:
    riemann: Tensor    # (UP, DOWN, DOWN, DOWN): R[l, k, i, j]
    ricci: Tensor      # (DOWN, DOWN): ricci[a, b] = S(e_a, e_b)
    scalar: Rat
    ricci_op: Tensor   # (UP, DOWN): ricci_op[l, a] = (Q e_a)^l, g(QU, V) = S(U, V)
    source: ConnectionKind

    @property
    def dim(self) -> int:
        return self.riemann.dim


def curvature(conn: Connection, frame: FrameAlgebra, metric: MetricFrame) -> CurvatureBundle:
    """Full curvature bundle of a connection on the frame geometry."""
    n = conn.dim
    gam, c, g_inv = conn.gamma.comps, frame.c.comps, metric.g_inv.comps
    nn = n * n
    n3 = nn * n
    # Nonzero Gamma^l_pq: by_last[q] holds (l, p, value), by_first[p] holds (l, q, value).
    by_last = [[] for _ in range(n)]
    by_first = [[] for _ in range(n)]
    for flat, v in enumerate(gam):
        if v:
            l, p, q = flat // nn, flat // n % n, flat % n
            by_last[q].append((l, p, v))
            by_first[p].append((l, q, v))

    riemann = [ZERO] * (n3 * n)
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
        for l, k, b in by_first[m]:  # C^m_ij Gamma^l_mk
            riemann[l * n3 + k * nn + i * n + j] -= cm * b
    r = Tensor((UP, DOWN, DOWN, DOWN), n, riemann)

    # S(e_a, e_b) = R[i, b, i, a] summed over i.
    ricci = [ZERO] * nn
    for a in range(n):
        for b in range(n):
            total = ZERO
            for i in range(n):
                x = riemann[i * n3 + b * nn + i * n + a]
                if x:
                    total = total + x
            ricci[a * n + b] = total

    scalar = ZERO
    ricci_op = [ZERO] * nn
    for a in range(n):
        for b in range(n):
            s_ab = ricci[a * n + b]
            if not s_ab:
                continue
            g_ab = g_inv[a * n + b]
            if g_ab:
                scalar = scalar + g_ab * s_ab
            for l in range(n):
                g_bl = g_inv[b * n + l]
                if g_bl:
                    ricci_op[l * n + a] += s_ab * g_bl

    return CurvatureBundle(r, Tensor((DOWN, DOWN), n, ricci), scalar,
                           Tensor((UP, DOWN), n, ricci_op), conn.kind)


def sectional(bundle: CurvatureBundle, metric: MetricFrame, u: Tensor, v: Tensor) -> Rat:
    """kappa(u, v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2)."""
    if u.variance != (UP,) or v.variance != (UP,):
        raise ValenceError("sectional curvature takes two vectors")
    denom = metric.inner(u, u) * metric.inner(v, v) - metric.inner(u, v) ** 2
    if denom == 0:
        raise DegeneratePlaneError("u and v do not span a nondegenerate plane")
    n = bundle.dim
    r, g = bundle.riemann, metric.g
    num = ZERO
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    for m in range(n):
                        num = num + g[l, m] * r[l, k, i, j] * v[k] * u[i] * v[j] * u[m]
    return num / denom


def add_wedge(out: list, n: int, a, q=None) -> None:
    """Add a_jk q^l_i - a_ik q^l_j to out[l, k, i, j], flat (1,3) components.

    a holds flat (0,2) and q flat (1,1) components; q=None stands for the
    Kronecker delta, which places a_jk instead of multiplying by 0 or 1.
    Zero factors and the i = j entries, where the two terms cancel, are
    skipped.
    """
    nn = n * n
    n3 = nn * n
    for j in range(n):
        for k in range(n):
            x = a[j * n + k]
            if not x:
                continue
            for l in range(n):
                lk = l * n3 + k * nn
                if q is None:
                    if l != j:
                        out[lk + l * n + j] += x
                        out[lk + j * n + l] -= x
                    continue
                for i in range(n):
                    y = q[l * n + i]
                    if y and i != j:
                        p = x * y
                        out[lk + i * n + j] += p
                        out[lk + j * n + i] -= p


def constant_sectional(bundle: CurvatureBundle, metric: MetricFrame) -> Optional[Rat]:
    """kappa if R^l_kij = kappa (g_jk delta^l_i - g_ik delta^l_j), else None."""
    n = bundle.dim
    comps = [ZERO] * n ** 4
    add_wedge(comps, n, metric.g.comps)
    basis = Tensor((UP, DOWN, DOWN, DOWN), n, comps)
    kappa = ZERO
    for br, rr in zip(basis.comps, bundle.riemann.comps):
        if br != 0:
            kappa = rr / br
            break
    if bundle.riemann == basis.scale(kappa):
        return kappa
    return None


def _require_dim3(bundle: CurvatureBundle):
    if bundle.dim != 3:
        raise UnsupportedDimensionError(
            f"defined with the dim-3 coefficients only, got dim {bundle.dim}")


def projective(bundle: CurvatureBundle) -> Tensor:
    """P = R - (1/2)[S(V,Y) U - S(U,Y) V]."""
    _require_dim3(bundle)
    n = bundle.dim
    minus_half = rat(-1, 2)
    comps = list(bundle.riemann.comps)
    add_wedge(comps, n, [minus_half * x for x in bundle.ricci.comps])
    return Tensor((UP, DOWN, DOWN, DOWN), n, comps)


def conformal(bundle: CurvatureBundle, metric: MetricFrame) -> Tensor:
    """C = R - [S(V,Y)U - S(U,Y)V + g(V,Y)QU - g(U,Y)QV] + (r/2)[g(V,Y)U - g(U,Y)V].

    For a Levi-Civita bundle in dimension 3 this vanishes identically.
    """
    _require_dim3(bundle)
    n = bundle.dim
    g = metric.g.comps
    half_r = bundle.scalar * rat(1, 2)
    comps = list(bundle.riemann.comps)
    add_wedge(comps, n, [half_r * gx - sx for gx, sx in zip(g, bundle.ricci.comps)])
    add_wedge(comps, n, [-gx for gx in g], bundle.ricci_op.comps)
    return Tensor((UP, DOWN, DOWN, DOWN), n, comps)
