"""Levi-Civita and semi-symmetric non-metric connections on a frame geometry.

Coefficients follow the convention nabla_{e_i} e_j = Gamma^k_ij e_k: the
first lower index is the differentiation direction. Under homogeneity the
metric-derivative terms of the Koszul formula vanish, leaving the three
bracket terms.

levi_civita and non_metricity are fraction-free integer kernels: they read
their inputs' integer numerators and denominators (see tensor), state each
sum of products in index notation to tensor._index_plan, which plans it, and
divide once per tensor. levi_civita lowers C by g, forms the three Koszul
terms off the lowered C and its negation and raises by g^-1, a planned sum
each. torsion and the rest are expressions over the tensor algebra.
"""

from __future__ import annotations

import enum
from operator import neg

from .errors import SscurvError, ValenceError
from .geometry import DistinguishedField, FrameAlgebra, MetricFrame
from .record import Record
from .tensor import DOWN, UP, Tensor, _index_plan


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

    Fraction-free: the Koszul sums and the raise are planned sums over the
    numerators of C, g and g^-1, and the result is divided once, by 2 dc dg dh.
    """
    n = frame.dim
    n3 = n ** 3
    g, g_inv = metric.g, metric.g_inv
    # c_low_xab = g_xm C^m_ab; koszul_ijk = 2 dc dg g(nabla_i e_j, e_k)
    # = -c_low_ijk - c_low_jik + c_low_kij, read off c_low and its negation;
    # then Gamma^l_ij = koszul_ijk g^kl.
    c_low = tuple(_index_plan(n, "xab", (("xm", "mab"),))(g.nums, frame.c.nums))
    koszul = tuple(_index_plan(n, "ijk", (((n3, "ijk"), None), ((n3, "jik"), None),
                                          ("kij", None)))(c_low + tuple(map(neg, c_low))))
    gamma = Tensor.from_ints((UP, DOWN, DOWN), n,
                             _index_plan(n, "lij", (("ijk", "kl"),))(koszul, g_inv.nums),
                             2 * frame.c.den * g.den * g_inv.den)
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
    # x is -Gamma and y is g: -Gamma^m_ij g_mk - Gamma^m_ik g_jm, summed over m.
    nums = _index_plan(n, "ijk", (("mij", "mk"), ("mik", "jm")))(
        tuple(map(neg, conn.gamma.nums)), metric.g.nums)
    return Tensor.from_ints((DOWN, DOWN, DOWN), n, nums, conn.gamma.den * metric.g.den)


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
