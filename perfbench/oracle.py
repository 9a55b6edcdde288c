"""Independent exact oracle for the benchmark's correctness checks.

Written with fractions.Fraction straight from the defining formulas. It
imports nothing from sscurv and shares none of its code, so a check that
compares the engine against it compares two separate derivations.

Conventions match the engine's documented ones (README of the repository):
nabla_{e_i} e_j = Gamma^k_ij e_k stored as gamma[k][i][j]; R[l][k][i][j] is
the l-th component of R(e_i, e_j) e_k; S(V, Y) = trace(U -> R(U, V) Y).
Everything here is a nested list of Fractions; dim is len(g).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def fmt(x: Fraction) -> str:
    """Canonical rational string: "p" or "p/q" in lowest terms."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def nested_str(value):
    """Nested lists of Fractions to nested lists of canonical strings."""
    if isinstance(value, list):
        return [nested_str(v) for v in value]
    return fmt(value)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    return sum(((-1) ** c * a[0][c] * det([row[:c] + row[c + 1:] for row in a[1:]])
                for c in range(n)), ZERO)


def inverse(rows):
    """Adjugate over determinant; raises ZeroDivisionError when singular."""
    n = len(rows)
    d = det(rows)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    if n == 1:
        return [[1 / d]]
    cof = [[(-1) ** (i + j) * det([r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
            for j in range(n)] for i in range(n)]
    return [[cof[j][i] / d for j in range(n)] for i in range(n)]


# -- structure --------------------------------------------------------------

def jacobi_holds(c) -> bool:
    """The cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] vanishes.

    With C antisymmetric the sum is totally antisymmetric in (i, j, k), so
    the triples i < j < k decide it.
    """
    n = len(c)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    total = sum((c[m][i][j] * c[l][m][k] + c[m][j][k] * c[l][m][i]
                                 + c[m][k][i] * c[l][m][j] for m in range(n)), ZERO)
                    if total != 0:
                        return False
    return True


def parallel_orthonormal(c, a) -> bool:
    """Whether e_a is parallel when the frame is orthonormal (g = I).

    Koszul with g = I gives 2 Gamma^k_ia = C^k_ia - C^i_ak - C^a_ik.
    """
    n = len(c)
    return all(c[k][i][a] - c[i][a][k] - c[a][i][k] == 0 for i in range(n) for k in range(n))


def lower(g, xi):
    """psi_i = g_ij xi^j."""
    return [sum((g[i][j] * xi[j] for j in range(len(xi))), ZERO) for i in range(len(xi))]


def inner(g, u, v):
    return sum((g[i][j] * u[i] * v[j] for i in range(len(u)) for j in range(len(v))), ZERO)


# -- connections ------------------------------------------------------------

def koszul(c, g):
    """Levi-Civita coefficients by solving the constant-frame Koszul system.

    g(nabla_i e_j, e_k) = 1/2 (g(e_k, [e_i, e_j]) - g(e_i, [e_j, e_k]) - g(e_j, [e_i, e_k])),
    then raise k with g^-1.
    """
    n = len(g)
    g_inv = inverse(g)

    def bracket_dot(a, b, k):  # g(e_k, [e_a, e_b])
        return sum((g[k][m] * c[m][a][b] for m in range(n)), ZERO)

    gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            low = [(bracket_dot(i, j, k) - bracket_dot(j, k, i) - bracket_dot(i, k, j)) / 2
                   for k in range(n)]
            for l in range(n):
                gamma[l][i][j] = sum((g_inv[l][k] * low[k] for k in range(n)), ZERO)
    return gamma


def ssnmc(gamma, psi):
    """Gammahat^k_ij = Gamma^k_ij + psi_j delta^k_i."""
    n = len(psi)
    return [[[gamma[k][i][j] + (psi[j] if k == i else ZERO) for j in range(n)]
             for i in range(n)] for k in range(n)]


def is_parallel(gamma, xi) -> bool:
    """nabla_{e_i} xi = Gamma^k_ij xi^j vanishes for every i."""
    n = len(xi)
    return all(sum((gamma[k][i][j] * xi[j] for j in range(n)), ZERO) == 0
               for k in range(n) for i in range(n))


# -- curvature --------------------------------------------------------------

def riemann(gamma, c):
    """R(e_i, e_j) = [A_i, A_j] - sum_m C^m_ij A_m with A_i = nabla_{e_i} on constants."""
    n = len(c)
    ops = [[[gamma[l][i][m] for m in range(n)] for l in range(n)] for i in range(n)]
    r = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ij, ji = matmul(ops[i], ops[j]), matmul(ops[j], ops[i])
            for l in range(n):
                for k in range(n):
                    r[l][k][i][j] = (ij[l][k] - ji[l][k]
                                     - sum((c[m][i][j] * ops[m][l][k] for m in range(n)), ZERO))
    return r


def ricci(r):
    """S[a][b] = sum_i R[i][b][i][a]."""
    n = len(r)
    return [[sum((r[i][b][i][a] for i in range(n)), ZERO) for b in range(n)] for a in range(n)]


def scalar(s, g_inv):
    n = len(s)
    return sum((g_inv[a][b] * s[a][b] for a in range(n) for b in range(n)), ZERO)


def ricci_operator(s, g_inv):
    """Q[l][a] with g(QU, V) = S(U, V)."""
    n = len(s)
    return [[sum((s[a][b] * g_inv[b][l] for b in range(n)), ZERO) for a in range(n)]
            for l in range(n)]


def constant_sectional(r, g):
    """kappa when R^l_kij = kappa (g_jk delta^l_i - g_ik delta^l_j), else None."""
    n = len(g)
    kappa = None
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    shape = (g[j][k] if l == i else ZERO) - (g[i][k] if l == j else ZERO)
                    if shape != 0:
                        kappa = r[l][k][i][j] / shape
                        break
                if kappa is not None:
                    break
            if kappa is not None:
                break
    kappa = ZERO if kappa is None else kappa
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    shape = (g[j][k] if l == i else ZERO) - (g[i][k] if l == j else ZERO)
                    if r[l][k][i][j] != kappa * shape:
                        return None
    return kappa


class Apparatus:
    """Everything the checks need for one geometry, computed once."""

    def __init__(self, c, g, xi):
        self.c, self.g, self.xi = c, g, xi
        self.n = len(g)
        self.g_inv = inverse(g)
        self.psi = lower(g, xi)
        self.gamma = koszul(c, g)
        self.gamma_hat = ssnmc(self.gamma, self.psi)
        self.riemann = riemann(self.gamma, c)
        self.riemann_hat = riemann(self.gamma_hat, c)
        self.ricci = ricci(self.riemann)
        self.ricci_hat = ricci(self.riemann_hat)
        self.scalar = scalar(self.ricci, self.g_inv)
        self.scalar_hat = scalar(self.ricci_hat, self.g_inv)
        self.ricci_op = ricci_operator(self.ricci, self.g_inv)
        self.ricci_op_hat = ricci_operator(self.ricci_hat, self.g_inv)
        self.unit = inner(g, xi, xi) == 1
        self.parallel = is_parallel(self.gamma, xi)

    @property
    def gated(self) -> bool:
        """Whether the unit-parallel-xi probes run on this geometry."""
        return self.unit and self.parallel


# -- solitons ---------------------------------------------------------------

def hat_hessian(app: Apparatus, d, dd):
    """Hhat_ij = dd_ij - Gamma^k_ij d_k + (xi f) g_ij."""
    n = app.n
    xf = sum((d[k] * app.xi[k] for k in range(n)), ZERO)
    return [[dd[i][j] - sum((app.gamma[k][i][j] * d[k] for k in range(n)), ZERO)
             + xf * app.g[i][j] for j in range(n)] for i in range(n)]


def soliton_residual(app: Apparatus, kind: str, lam, d, dd, m=None):
    """Residual of the soliton equation of the given kind."""
    n = app.n
    h = hat_hessian(app, d, dd)
    g, s, rh = app.g, app.ricci_hat, app.scalar_hat
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if kind == "ricci":
                v = h[i][j] + s[i][j] + lam * g[i][j]
            elif kind == "yamabe":
                v = h[i][j] - (rh - lam) * g[i][j]
            elif kind == "einstein":
                v = s[i][j] - rh / 2 * g[i][j] + h[i][j] + lam * g[i][j]
            elif kind == "mquasi":
                v = s[i][j] - lam * g[i][j] + h[i][j] - d[i] * d[j] / m
            else:
                raise ValueError(f"unknown soliton kind {kind!r}")
            out[i][j] = v
    return out


def conclusion(app: Apparatus, kind: str, lam, d, dd, m=None) -> dict:
    """The cataloged conclusion flags for a genuine soliton, by check name."""
    kappa = constant_sectional(app.riemann_hat, app.g)
    trivial = all(x == 0 for x in d) and all(x == 0 for row in dd for x in row)
    rh = app.scalar_hat
    if kind == "ricci":
        flags = {"constant-sectional-curvature": kappa is not None,
                 "potential-constant": trivial}
        flags["conclusion"] = kappa is not None and trivial
    elif kind == "yamabe":
        flags = {"constant-scalar-curvature": rh == 2, "trivial": trivial}
        flags["conclusion"] = rh == 2 or trivial
    elif kind == "einstein":
        flags = {"constant-scalar-curvature": rh == 0,
                 "constant-sectional-curvature": kappa is not None}
        flags["conclusion"] = rh == 0 or kappa is not None
    else:
        flags = {"expanding-lambda": lam == m + 2,
                 "constant-sectional-curvature": kappa is not None,
                 "side-condition-nonzero": 2 * m + rh - 2 * lam + 2 != 0}
        flags["conclusion"] = lam == m + 2 or kappa is not None
    return flags


def ricci_of_gradient(app: Apparatus, d):
    """Shat(e_a, Df) with Df^k = g^kj d_j: the C4 / Y44 / E54 left side."""
    n = app.n
    df = [sum((app.g_inv[k][j] * d[j] for j in range(n)), ZERO) for k in range(n)]
    return [sum((app.ricci_hat[a][b] * df[b] for b in range(n)), ZERO) for a in range(n)]


# -- Milnor's closed form ---------------------------------------------------

def milnor_ricci_diagonal(lams):
    """Ric(e_i) = 2 mu_j mu_k with mu_i = (l1 + l2 + l3)/2 - l_i (Milnor 1976, 4.3).

    For the orthonormal frame [e2,e3] = l1 e1, [e3,e1] = l2 e2, [e1,e2] = l3 e3.
    """
    half = sum(lams, ZERO) / 2
    mu = [half - x for x in lams]
    return [2 * mu[1] * mu[2], 2 * mu[0] * mu[2], 2 * mu[0] * mu[1]]


def push_forward(c, g, xi, b):
    """The same geometry in the frame e'_a = B^i_a e_i (columns of B).

    C'^c_ab = (B^-1)^c_k C^k_ij B^i_a B^j_b, g' = B^T g B, xi' = B^-1 xi.
    """
    n = len(g)
    b_inv = inverse(b)
    c2 = [[[sum((b_inv[cc][k] * c[k][i][j] * b[i][a] * b[j][bb]
                 for k in range(n) for i in range(n) for j in range(n)), ZERO)
            for bb in range(n)] for a in range(n)] for cc in range(n)]
    g2 = matmul(transpose(b), matmul(g, b))
    xi2 = [sum((b_inv[a][i] * xi[i] for i in range(n)), ZERO) for a in range(n)]
    return c2, g2, xi2


def congruent(m, b):
    """B^T M B: how a (0,2) tensor's components change under the frame change."""
    return matmul(transpose(b), matmul(m, b))
