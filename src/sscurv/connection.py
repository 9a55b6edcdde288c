"""Levi-Civita and semi-symmetric non-metric connections on a frame geometry.

Coefficients follow the convention nabla_{e_i} e_j = Gamma^k_ij e_k: the
first lower index is the differentiation direction. Under homogeneity the
metric-derivative terms of the Koszul formula vanish, leaving the three
bracket terms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import SscurvError, ValenceError
from .geometry import DistinguishedField, FrameAlgebra, MetricFrame
from .rat import ZERO, rat
from .tensor import DOWN, UP, Tensor


class ConnectionKind(enum.Enum):
    LEVI_CIVITA = "levi-civita"
    SSNMC = "ssnmc"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Connection:
    gamma: Tensor  # (UP, DOWN, DOWN), gamma[k, i, j] = Gamma^k_ij
    kind: ConnectionKind

    def __post_init__(self):
        if self.gamma.variance != (UP, DOWN, DOWN):
            raise ValenceError("connection coefficients must form a (1,2) tensor")

    @property
    def dim(self) -> int:
        return self.gamma.dim


def levi_civita(frame: FrameAlgebra, metric: MetricFrame) -> Connection:
    """Koszul formula, constant-frame case.

    2 g(nabla_{e_i} e_j, e_k) = -g(e_i,[e_j,e_k]) - g(e_j,[e_i,e_k]) + g(e_k,[e_i,e_j])
    """
    n = frame.dim
    c, g, g_inv = frame.c.comps, metric.g.comps, metric.g_inv.comps
    half = rat(1, 2)
    # koszul[(i * n + j) * n + k] = 2 g(nabla_i e_j, e_k), scattered from
    # each nonzero C^m_ab: it enters the three terms at (x, a, b), (a, x, b)
    # and (a, b, x) with the factor g_xm.
    koszul = [ZERO] * n ** 3
    for m in range(n):
        for a in range(n):
            for b in range(n):
                cm = c[(m * n + a) * n + b]
                if not cm:
                    continue
                for x in range(n):
                    gxm = g[x * n + m]
                    if gxm:
                        p = gxm * cm
                        koszul[(x * n + a) * n + b] -= p
                        koszul[(a * n + x) * n + b] -= p
                        koszul[(a * n + b) * n + x] += p
    comps = [ZERO] * n ** 3
    for ij in range(n * n):
        for k in range(n):
            kz = koszul[ij * n + k]
            if kz:
                kz = half * kz
                for l in range(n):
                    gkl = g_inv[k * n + l]
                    if gkl:
                        comps[l * n * n + ij] += kz * gkl
    conn = Connection(Tensor((UP, DOWN, DOWN), n, comps), ConnectionKind.LEVI_CIVITA)
    _check_levi_civita(conn, frame, metric)
    return conn


def _check_levi_civita(conn: Connection, frame: FrameAlgebra, metric: MetricFrame):
    # Construction-time invariants: torsion-free and metric.
    if not torsion(conn, frame).is_zero():
        raise SscurvError("Levi-Civita construction produced torsion")
    if not non_metricity(conn, metric).is_zero():
        raise SscurvError("Levi-Civita construction is not metric")


def ssnmc(lc: Connection, dist: DistinguishedField) -> Connection:
    """Gammahat^k_ij = Gamma^k_ij + psi_j delta^k_i."""
    if lc.kind is not ConnectionKind.LEVI_CIVITA:
        raise SscurvError("the semi-symmetric non-metric connection extends Levi-Civita")
    n, psi = lc.dim, dist.psi.comps
    comps = list(lc.gamma.comps)
    for i in range(n):
        for j in range(n):
            if psi[j]:
                comps[(i * n + i) * n + j] += psi[j]
    return Connection(Tensor((UP, DOWN, DOWN), n, comps), ConnectionKind.SSNMC)


def torsion(conn: Connection, frame: FrameAlgebra) -> Tensor:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji - C^k_ij."""
    n, g, c = conn.dim, conn.gamma.comps, frame.c.comps
    comps = []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                ij = (k * n + i) * n + j
                t, swapped, bracket = g[ij], g[(k * n + j) * n + i], c[ij]
                if swapped:
                    t = t - swapped
                if bracket:
                    t = t - bracket
                comps.append(t)
    return Tensor((UP, DOWN, DOWN), n, comps)


def is_semi_symmetric(t: Tensor, dist: DistinguishedField) -> bool:
    """True iff T^k_ij = psi_j delta^k_i - psi_i delta^k_j componentwise."""
    return t == semi_symmetric_torsion(dist)


def semi_symmetric_torsion(dist: DistinguishedField) -> Tensor:
    """The torsion shape psi(V)U - psi(U)V as a (1,2) tensor."""
    psi = dist.psi.comps
    n = len(psi)
    comps = [ZERO] * n ** 3
    for k in range(n):
        for j in range(n):
            if psi[j]:
                comps[(k * n + k) * n + j] += psi[j]
                comps[(k * n + j) * n + k] -= psi[j]
    return Tensor((UP, DOWN, DOWN), n, comps)


def non_metricity(conn: Connection, metric: MetricFrame) -> Tensor:
    """(nabla_{e_i} g)(e_j, e_k) = -Gamma^m_ij g_mk - Gamma^m_ik g_jm."""
    n, gam, g = conn.dim, conn.gamma.comps, metric.g.comps
    comps = [ZERO] * n ** 3
    for m in range(n):
        for i in range(n):
            for j in range(n):
                a = gam[(m * n + i) * n + j]
                if not a:
                    continue
                for k in range(n):
                    b = g[m * n + k]    # Gamma^m_ij g_mk at (i, j, k)
                    if b:
                        comps[(i * n + j) * n + k] -= a * b
                    b = g[k * n + m]    # Gamma^m_ij g_km at (i, k, j)
                    if b:
                        comps[(i * n + k) * n + j] -= a * b
    return Tensor((DOWN, DOWN, DOWN), n, comps)


def is_parallel(lc: Connection, dist: DistinguishedField) -> bool:
    """True iff nabla_{e_i} xi = 0 for every i, i.e. Gamma^k_ij xi^j = 0."""
    xi = dist.xi.comps
    n, gam = lc.dim, lc.gamma.comps
    for ki in range(n * n):
        total = ZERO
        for j in range(n):
            if xi[j]:
                a = gam[ki * n + j]
                if a:
                    total = total + a * xi[j]
        if total:
            return False
    return True


def alpha_star(lc: Connection, dist: DistinguishedField) -> Tensor:
    """alpha*(e_i, e_j) = (nabla_{e_i} psi)(e_j) - psi_i psi_j.

    With constant psi components, (nabla_{e_i} psi)(e_j) = -psi(nabla_{e_i} e_j).
    """
    if lc.kind is not ConnectionKind.LEVI_CIVITA:
        raise SscurvError("alpha* is defined through the Levi-Civita connection")
    psi = dist.psi.comps
    n, gam = lc.dim, lc.gamma.comps
    nn = n * n
    comps = [-psi[i] * psi[j] for i in range(n) for j in range(n)]
    for m in range(n):
        if psi[m]:
            for ij in range(nn):
                a = gam[m * nn + ij]
                if a:
                    comps[ij] -= psi[m] * a
    return Tensor((DOWN, DOWN), n, comps)
