"""Levi-Civita and semi-symmetric non-metric connections on a frame geometry.

Coefficients follow the convention nabla_{e_i} e_j = Gamma^k_ij e_k: the
first lower index is the differentiation direction. Under homogeneity the
metric-derivative terms of the Koszul formula vanish, leaving the three
bracket terms.

levi_civita and non_metricity are fraction-free integer kernels: they read
their inputs' integer numerators and denominators (see tensor), sum their
products through plans memoised per dimension (tensor._sum_plan) and divide
once per tensor. levi_civita lowers C by g, forms the three Koszul terms by
one gather and raises by g^-1, a planned sum each. torsion and the rest are
expressions over the tensor algebra.
"""

from __future__ import annotations

import enum
import functools
from itertools import product
from operator import neg

from .errors import SscurvError, ValenceError
from .geometry import DistinguishedField, FrameAlgebra, MetricFrame
from .record import Record
from .tensor import DOWN, UP, Tensor, _sum_plan


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
    g, g_inv = metric.g, metric.g_inv
    lower_sums, koszul_sums, raise_sums = _levi_civita_plan(n)
    # c_low[(x * n + a) * n + b] = g_xm C^m_ab, and koszul[(i * n + j) * n + k]
    # = 2 dc dg g(nabla_i e_j, e_k) = -c_low_ijk - c_low_jik + c_low_kij.
    c_low = tuple(lower_sums(g.nums, frame.c.nums))
    koszul = tuple(koszul_sums(c_low + tuple(map(neg, c_low))))
    gamma = Tensor.from_ints((UP, DOWN, DOWN), n, raise_sums(koszul, g_inv.nums),
                             2 * frame.c.den * g.den * g_inv.den)
    conn = Connection(gamma, ConnectionKind.LEVI_CIVITA)
    _check_levi_civita(conn, frame, metric)
    return conn


@functools.lru_cache(maxsize=8)
def _levi_civita_plan(n: int) -> tuple:
    """The sums of levi_civita in dimension n: C lowered by g at (x, a, b), the
    Koszul sums off it and its negation at (i, j, k), and the raise
    Gamma^l_ij = koszul_ijk g^kl, summed over k, at (l, i, j)."""
    n2, n3, rng = n * n, n ** 3, range(n)
    return (_sum_plan([x * n + m for x in rng for ab in range(n2) for m in rng],
                      [m * n2 + ab for x in rng for ab in range(n2) for m in rng], n),
            _sum_plan([o for i, j, k in product(rng, repeat=3)
                       for o in (n3 + (i * n + j) * n + k, n3 + (j * n + i) * n + k,
                                 (k * n + i) * n + j)], None, 3),
            _sum_plan([ij * n + k for l in rng for ij in range(n2) for k in rng],
                      [k * n + l for l in rng for ij in range(n2) for k in rng], n))


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
    nums = _non_metricity_plan(n)(tuple(map(neg, conn.gamma.nums)), metric.g.nums)
    return Tensor.from_ints((DOWN, DOWN, DOWN), n, nums, conn.gamma.den * metric.g.den)


@functools.lru_cache(maxsize=8)
def _non_metricity_plan(n: int):
    """The sum of non_metricity in dimension n at (i, j, k): over m, -Gamma^m_ij g_mk
    and -Gamma^m_ik g_jm, with x -Gamma and y g."""
    xs, ys = [], []
    for i, j, k in product(range(n), repeat=3):
        for m in range(n):
            xs += ((m * n + i) * n + j, (m * n + i) * n + k)
            ys += (m * n + k, j * n + m)
    return _sum_plan(xs, ys, 2 * n)


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
