"""Levi-Civita and semi-symmetric non-metric connections on a frame geometry.

Coefficients follow the convention nabla_{e_i} e_j = Gamma^k_ij e_k: the
first lower index is the differentiation direction. Under homogeneity the
metric-derivative terms of the Koszul formula vanish, leaving the three
bracket terms.

levi_civita and non_metricity are fraction-free integer kernels: they read
their inputs' integer numerators and denominators (see tensor), accumulate in
plain ints and divide once per tensor. torsion and the rest are expressions
over the tensor algebra.
"""

from __future__ import annotations

import enum

from .errors import SscurvError, ValenceError
from .geometry import DistinguishedField, FrameAlgebra, MetricFrame
from .record import Record
from .tensor import DOWN, UP, Tensor


class ConnectionKind(enum.Enum):
    LEVI_CIVITA = "levi-civita"
    SSNMC = "ssnmc"
    CUSTOM = "custom"


class Connection(Record):
    def __init__(self, gamma: Tensor, kind: ConnectionKind):
        fields = self.__dict__
        fields["gamma"] = gamma  # (UP, DOWN, DOWN), gamma[k, i, j] = Gamma^k_ij
        fields["kind"] = kind
        if gamma.variance != (UP, DOWN, DOWN):
            raise ValenceError("connection coefficients must form a (1,2) tensor")

    @property
    def dim(self) -> int:
        return self.gamma.dim


def levi_civita(frame: FrameAlgebra, metric: MetricFrame) -> Connection:
    """Koszul formula, constant-frame case.

    2 g(nabla_{e_i} e_j, e_k) = -g(e_i,[e_j,e_k]) - g(e_j,[e_i,e_k]) + g(e_k,[e_i,e_j])

    Fraction-free: the scatter and the raise run on the numerators of C, g
    and g^-1, and the result is divided once, by 2 dc dg dh.
    """
    n = frame.dim
    c, dc = frame.c.nums, frame.c.den
    g, dg = metric.g.nums, metric.g.den
    g_inv, dh = metric.g_inv.nums, metric.g_inv.den
    # koszul[(i * n + j) * n + k] = 2 dc dg g(nabla_i e_j, e_k), scattered
    # from each nonzero C^m_ab: it enters the three terms at (x, a, b),
    # (a, x, b) and (a, b, x) with the factor g_xm.
    koszul = [0] * n ** 3
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
    nums = [0] * n ** 3
    for ij in range(n * n):
        for k in range(n):
            kz = koszul[ij * n + k]
            if kz:
                for l in range(n):
                    gkl = g_inv[k * n + l]
                    if gkl:
                        nums[l * n * n + ij] += kz * gkl
    gamma = Tensor.from_ints((UP, DOWN, DOWN), n, nums, 2 * dc * dg * dh)
    conn = Connection(gamma, ConnectionKind.LEVI_CIVITA)
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
    shift = Tensor.delta(lc.dim).tensor_product(dist.psi)
    return Connection(lc.gamma + shift, ConnectionKind.SSNMC)


def torsion(conn: Connection, frame: FrameAlgebra) -> Tensor:
    """T^k_ij = Gamma^k_ij - Gamma^k_ji - C^k_ij."""
    return conn.gamma - conn.gamma.permute((0, 2, 1)) - frame.c


def semi_symmetric_torsion(dist: DistinguishedField) -> Tensor:
    """The torsion shape psi(V)U - psi(U)V as a (1,2) tensor: psi_j delta^k_i - psi_i delta^k_j."""
    x = Tensor.delta(dist.psi.dim).tensor_product(dist.psi)
    return x - x.permute((0, 2, 1))


def non_metricity(conn: Connection, metric: MetricFrame) -> Tensor:
    """(nabla_{e_i} g)(e_j, e_k) = -Gamma^m_ij g_mk - Gamma^m_ik g_jm.

    Fraction-free like levi_civita: integer sums over the denominator dG dg.
    """
    n = conn.dim
    gam, d_gam = conn.gamma.nums, conn.gamma.den
    g, dg = metric.g.nums, metric.g.den
    nums = [0] * n ** 3
    for m in range(n):
        for i in range(n):
            for j in range(n):
                a = gam[(m * n + i) * n + j]
                if not a:
                    continue
                for k in range(n):
                    b = g[m * n + k]    # Gamma^m_ij g_mk at (i, j, k)
                    if b:
                        nums[(i * n + j) * n + k] -= a * b
                    b = g[k * n + m]    # Gamma^m_ij g_km at (i, k, j)
                    if b:
                        nums[(i * n + k) * n + j] -= a * b
    return Tensor.from_ints((DOWN, DOWN, DOWN), n, nums, d_gam * dg)


def is_parallel(lc: Connection, dist: DistinguishedField) -> bool:
    """True iff nabla_{e_i} xi = 0 for every i, i.e. Gamma^k_ij xi^j = 0."""
    return lc.gamma.contract_with(2, dist.xi).is_zero()


def alpha_star(lc: Connection, dist: DistinguishedField) -> Tensor:
    """alpha*(e_i, e_j) = (nabla_{e_i} psi)(e_j) - psi_i psi_j.

    With constant psi components, (nabla_{e_i} psi)(e_j) = -psi(nabla_{e_i} e_j).
    """
    if lc.kind is not ConnectionKind.LEVI_CIVITA:
        raise SscurvError("alpha* is defined through the Levi-Civita connection")
    psi = dist.psi
    return -(lc.gamma.contract_with(0, psi) + psi.tensor_product(psi))
