"""Shared independent oracles and hypothesis strategies.

Oracles here are written against fractions.Fraction and straight from the
defining formulas, independent of the engine's kernels and of its rational
backend (gmpy2's mpq when installed, otherwise fractions.Fraction).
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from sscurv import (DistinguishedField, FrameAlgebra, GeometrySpec, MetricFrame,
                    Tensor, rat)
from sscurv.tensor import DOWN

DIM = 3


# -- independent oracles -------------------------------------------------

def oracle_koszul(c_rows, g_rows):
    """Solve 2 g(nabla_i e_j, .) = bracket terms by explicit linear solve.

    c_rows[k][i][j] and g_rows[i][j] are Fractions; returns gamma[k][i][j].
    """
    n = DIM
    g_inv = oracle_inverse(g_rows)
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = []
            for k in range(n):
                total = Fraction(0)
                for m in range(n):
                    total += (-g_rows[i][m] * c_rows[m][j][k]
                              - g_rows[j][m] * c_rows[m][i][k]
                              + g_rows[k][m] * c_rows[m][i][j])
                rhs.append(total / 2)
            for l in range(n):
                gamma[l][i][j] = sum(rhs[k] * g_inv[k][l] for k in range(n))
    return gamma


def oracle_inverse(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        s = a[col][col]
        a[col] = [x / s for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def oracle_curvature(gamma, c_rows):
    """R[l][k][i][j] from nested covariant derivatives of frame fields."""
    n = DIM

    def nabla(i, vec):  # vec: constant components; returns components of nabla_{e_i} vec
        return [sum(gamma[l][i][j] * vec[j] for j in range(n)) for l in range(n)]

    riem = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ek = [Fraction(int(t == k)) for t in range(n)]
                term1 = nabla(i, nabla(j, ek))
                term2 = nabla(j, nabla(i, ek))
                bracket = [c_rows[m][i][j] for m in range(n)]
                term3 = [sum(bracket[m] * gamma[l][m][kk] * ek[kk]
                             for m in range(n) for kk in range(n)) for l in range(n)]
                for l in range(n):
                    riem[l][k][i][j] = term1[l] - term2[l] - term3[l]
    return riem


def tensor_to_rows(t: Tensor):
    """Nested Fraction lists mirroring the tensor's index order."""
    def rec(prefix):
        if len(prefix) == t.rank:
            v = t[tuple(prefix)]
            return Fraction(int(v.numerator), int(v.denominator))
        return [rec(prefix + [i]) for i in range(t.dim)]
    return rec([])


def c_rows_of(frame: FrameAlgebra):
    return tensor_to_rows(frame.c)


# -- spec builders --------------------------------------------------------

def make_spec(name, entries, g_rows=None, xi=(0, 0, 1), jet=None) -> GeometrySpec:
    frame = FrameAlgebra.from_entries(DIM, {k: rat(str(v)) for k, v in entries.items()})
    if g_rows is None:
        metric = MetricFrame.identity(DIM)
    else:
        g = Tensor.from_rows((DOWN, DOWN), [[rat(str(x)) for x in row] for row in g_rows])
        metric = MetricFrame.from_tensor(g)
    xi_t = Tensor.vector([rat(str(x)) for x in xi])
    return GeometrySpec(name, frame, metric, DistinguishedField.from_xi(xi_t, metric), jet)


# -- hypothesis strategies -------------------------------------------------

small_rats = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
small_nonzero_rats = small_rats.filter(lambda x: x != 0)


@st.composite
def spd_metrics(draw):
    """Exactly positive-definite rational metric: B^T B + I."""
    b = [[draw(small_rats) for _ in range(DIM)] for _ in range(DIM)]
    rows = [[sum(b[k][i] * b[k][j] for k in range(DIM)) + Fraction(int(i == j))
             for j in range(DIM)] for i in range(DIM)]
    return MetricFrame.from_tensor(
        Tensor.from_rows((DOWN, DOWN), [[rat(str(x)) for x in r] for r in rows]))


@st.composite
def valid_frames(draw):
    """Random members of parametric families known to satisfy Jacobi."""
    family = draw(st.sampled_from(("abelian", "milnor", "solvable12", "scaled13", "heisenberg")))
    a = draw(small_rats)
    b = draw(small_rats)
    c = draw(small_rats)
    if family == "abelian":
        entries = {}
    elif family == "milnor":
        # [e2,e3] = a e1, [e3,e1] = b e2, [e1,e2] = c e3
        entries = {(0, 1, 2): a, (1, 2, 0): b, (2, 0, 1): c}
    elif family == "solvable12":
        # [e1,e2] = a e1 + b e2
        entries = {(0, 0, 1): a, (1, 0, 1): b}
    elif family == "scaled13":
        # [e1,e3] = a e1, [e2,e3] = b e2
        entries = {(0, 0, 2): a, (1, 1, 2): b}
    else:
        entries = {(2, 0, 1): a}
    return FrameAlgebra.from_entries(DIM, {k: rat(str(v)) for k, v in entries.items()})


@st.composite
def geometries(draw, identity_metric=False, unit_e3_xi=False):
    frame = draw(valid_frames())
    metric = MetricFrame.identity(DIM) if identity_metric else draw(spd_metrics())
    if unit_e3_xi:
        assert identity_metric
        xi = Tensor.vector([0, 0, 1])
    else:
        xi = Tensor.vector([rat(str(draw(small_rats))) for _ in range(DIM)])
    dist = DistinguishedField.from_xi(xi, metric)
    return GeometrySpec("hyp", frame, metric, dist)


def rat_tensor(variance):
    n_comp = DIM ** len(variance)
    return st.lists(small_rats, min_size=n_comp, max_size=n_comp).map(
        lambda xs: Tensor(variance, DIM, [rat(str(x)) for x in xs]))
