"""Input geometry: frame Lie algebra, constant metric, distinguished field, jets.

Everything is homogeneous: structure constants, metric components, the
distinguished field and scalar 2-jets are constant over the frame, so frame
derivatives of stored components vanish and all identities are decidable by
exact arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DegenerateMetricError, ValenceError
from .rat import ONE, ZERO, Rat, rat
from .tensor import DOWN, UP, Tensor


def _det(rows: list[list[Rat]]) -> Rat:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    sign = ONE
    for col in range(n):
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        total = total + sign * rows[0][col] * _det(minor)
        sign = -sign
    return total


def _invert(g: Tensor) -> Tensor:
    """Exact Gauss-Jordan inverse of a rank-2 tensor; raises if singular."""
    n = g.dim
    a = [list(g.comps[i * n:(i + 1) * n]) for i in range(n)]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise DegenerateMetricError("metric is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return Tensor((UP, UP), n, [x for row in inv for x in row])


@dataclass(frozen=True)
class FrameAlgebra:
    """Frame {e_1..e_n} with constant brackets [e_i, e_j] = C^k_ij e_k."""

    dim: int
    c: Tensor  # variance (UP, DOWN, DOWN), c[k, i, j] = C^k_ij

    def __post_init__(self):
        if self.c.variance != (UP, DOWN, DOWN) or self.c.dim != self.dim:
            raise ValenceError("structure constants must be a (1,2) tensor of matching dim")

    @classmethod
    def abelian(cls, dim: int) -> "FrameAlgebra":
        return cls(dim, Tensor.zeros((UP, DOWN, DOWN), dim))

    @classmethod
    def from_entries(cls, dim: int, entries: dict[tuple[int, int, int], Rat]) -> "FrameAlgebra":
        """Build from 0-based {(k, i, j): value} with antisymmetric completion."""
        c = Tensor.zeros((UP, DOWN, DOWN), dim)
        comps = list(c.comps)
        for (k, i, j), v in entries.items():
            comps[(k * dim + i) * dim + j] = rat(v)
            comps[(k * dim + j) * dim + i] = -rat(v)
        return cls(dim, Tensor((UP, DOWN, DOWN), dim, comps))

    def antisymmetry_violations(self) -> list[tuple[int, int, int]]:
        """1-based (i, j, k) where C^k_ij != -C^k_ji."""
        n, c = self.dim, self.c.comps
        bad = []
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    x, y = c[(k * n + i) * n + j], c[(k * n + j) * n + i]
                    if (x or y) and x != -y:
                        bad.append((i + 1, j + 1, k + 1))
        return bad

    def jacobi_violations(self) -> list[tuple[int, int, int, int]]:
        """1-based (i, j, k, l) where the cyclic Jacobi sum is nonzero.

        For antisymmetric C the cyclic sum is totally antisymmetric in
        (i, j, k): it vanishes on a repeated index, and a permutation of a
        violating triple violates too. So it is evaluated for i < j < k
        only and expanded to every ordering, in the same lexicographic
        order as the full loop that any other C gets.
        """
        n, c = self.dim, self.c.comps
        rng = range(n)
        antisymmetric = all(c[(k * n + i) * n + j] == -c[(k * n + j) * n + i]
                            for k in rng for i in rng for j in range(i, n))
        if not antisymmetric:
            return [(i + 1, j + 1, k + 1, l + 1)
                    for i, j, k, l in itertools.product(rng, repeat=4)
                    if _jacobi_sum(c, n, i, j, k, l)]
        bad = {(i, j, k, l) for i, j, k in itertools.combinations(rng, 3) for l in rng
               if _jacobi_sum(c, n, i, j, k, l)}
        if not bad:
            return []
        return [(i + 1, j + 1, k + 1, l + 1)
                for i, j, k in itertools.permutations(rng, 3) for l in rng
                if (*sorted((i, j, k)), l) in bad]


def _jacobi_sum(c, n: int, i: int, j: int, k: int, l: int) -> Rat:
    """sum_m C^m_ij C^l_mk + C^m_jk C^l_mi + C^m_ki C^l_mj over flat components c."""
    total = ZERO
    cyclic = ((i * n + j, k), (j * n + k, i), (k * n + i, j))
    for m in range(n):
        low, out = m * n * n, (l * n + m) * n
        for ab, z in cyclic:
            x = c[low + ab]
            if x:
                y = c[out + z]
                if y:
                    total = total + x * y
    return total


@dataclass(frozen=True)
class MetricFrame:
    """Constant positive-definite metric with its exact cached inverse."""

    g: Tensor      # (DOWN, DOWN)
    g_inv: Tensor  # (UP, UP)

    @classmethod
    def from_tensor(cls, g: Tensor) -> "MetricFrame":
        if g.variance != (DOWN, DOWN):
            raise ValenceError("metric must be a (0,2) tensor")
        return cls(g, _invert(g))

    @classmethod
    def identity(cls, dim: int) -> "MetricFrame":
        eye = Tensor.build((DOWN, DOWN), dim, lambda a, b: ONE if a == b else ZERO)
        return cls(eye, Tensor.build((UP, UP), dim, lambda a, b: ONE if a == b else ZERO))

    @property
    def dim(self) -> int:
        return self.g.dim

    def is_symmetric(self) -> bool:
        n, g = self.dim, self.g.comps
        return all(g[i * n + j] == g[j * n + i] for i in range(n) for j in range(n))

    def is_positive_definite(self) -> bool:
        """Sylvester criterion: all leading principal minors positive."""
        n, g = self.dim, self.g.comps
        for k in range(1, n + 1):
            rows = [list(g[i * n:i * n + k]) for i in range(k)]
            if not _det(rows) > 0:
                return False
        return True

    def inner(self, u: Tensor, v: Tensor) -> Rat:
        """g(u, v) for two vectors."""
        n, g = self.dim, self.g.comps
        u, v = u.comps, v.comps
        total = ZERO
        for i in range(n):
            if u[i]:
                for j in range(n):
                    if v[j]:
                        total = total + g[i * n + j] * u[i] * v[j]
        return total


@dataclass(frozen=True)
class DistinguishedField:
    """The fixed field xi with its metric-dual 1-form psi."""

    xi: Tensor   # (UP,)
    psi: Tensor  # (DOWN,)
    is_unit: bool

    @classmethod
    def from_xi(cls, xi: Tensor, metric: MetricFrame) -> "DistinguishedField":
        if xi.variance != (UP,):
            raise ValenceError("xi must be a (1,0) tensor")
        psi = xi.apply_metric(metric.g, 0)
        return cls(xi, psi, metric.inner(xi, xi) == 1)

    @property
    def is_zero(self) -> bool:
        return self.xi.is_zero()


@dataclass(frozen=True)
class ScalarJet:
    """Scalar field known through constant first and second frame derivatives."""

    d: Tensor   # (DOWN,), d[i] = e_i f
    dd: Tensor  # (DOWN, DOWN), dd[i, j] = e_i (e_j f)

    def __post_init__(self):
        if self.d.variance != (DOWN,) or self.dd.variance != (DOWN, DOWN):
            raise ValenceError("jet needs a (0,1) first and (0,2) second derivative")
        if self.d.dim != self.dd.dim:
            raise ValenceError("jet component dimensions disagree")

    @classmethod
    def zero(cls, dim: int) -> "ScalarJet":
        return cls(Tensor.zeros((DOWN,), dim), Tensor.zeros((DOWN, DOWN), dim))

    @property
    def dim(self) -> int:
        return self.d.dim

    @property
    def is_zero(self) -> bool:
        return self.d.is_zero() and self.dd.is_zero()


def jet_consistency_violations(jet: ScalarJet, frame: FrameAlgebra) -> list[tuple[int, int]]:
    """1-based (i, j) where dd_ij - dd_ji != C^k_ij d_k."""
    n, c, d, dd = frame.dim, frame.c.comps, jet.d.comps, jet.dd.comps
    w = jet.dim
    bad = []
    for i in range(n):
        for j in range(n):
            bracket = ZERO
            for k in range(n):
                if d[k]:
                    bracket = bracket + c[(k * n + i) * n + j] * d[k]
            if dd[i * w + j] - dd[j * w + i] != bracket:
                bad.append((i + 1, j + 1))
    return bad


@dataclass(frozen=True)
class GeometrySpec:
    """A named, fully specified input geometry (optionally with a jet)."""

    name: str
    frame: FrameAlgebra
    metric: MetricFrame
    distinguished: DistinguishedField
    jet: ScalarJet | None = None

    def __post_init__(self):
        dims = {self.frame.dim, self.metric.dim, self.distinguished.xi.dim}
        if self.jet is not None:
            dims.add(self.jet.dim)
        if len(dims) != 1:
            raise ValenceError(f"component dimensions disagree: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.frame.dim


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Structural check results plus capability flags for xi."""

    checks: tuple[Check, ...]
    unit_xi: bool
    degenerate_xi: bool

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate(spec: GeometrySpec) -> ValidationReport:
    """Verify the standing structural hypotheses; failures are reported, not raised.

    Unit xi is recorded as a capability flag rather than a failure: probes
    that need it refuse to run otherwise. psi = 0 (xi = 0) is accepted too,
    flagged degenerate; it gives the useful "hatted equals unhatted" limit.
    """
    checks = []

    anti = spec.frame.antisymmetry_violations()
    checks.append(Check("antisymmetry", not anti,
                        "" if not anti else f"C^k_ij != -C^k_ji at (i, j, k) = {anti[0]}"))

    jac = spec.frame.jacobi_violations()
    checks.append(Check("jacobi", not jac,
                        "" if not jac else
                        f"Jacobi sum nonzero at (i, j, k) = {jac[0][:3]} (value slot l = {jac[0][3]})"))

    sym = spec.metric.is_symmetric()
    checks.append(Check("metric-symmetry", sym, "" if sym else "g_ij != g_ji"))

    pos = spec.metric.is_positive_definite() if sym else False
    checks.append(Check("metric-positive-definite", pos,
                        "" if pos else "a leading principal minor is not positive"))

    expected_psi = spec.distinguished.xi.apply_metric(spec.metric.g, 0)
    compat = expected_psi == spec.distinguished.psi
    checks.append(Check("psi-xi-compatibility", compat,
                        "" if compat else "psi_i != g_ij xi^j"))

    if spec.jet is not None:
        jet_bad = jet_consistency_violations(spec.jet, spec.frame)
        checks.append(Check("jet-consistency", not jet_bad,
                            "" if not jet_bad else
                            f"dd_ij - dd_ji != C^k_ij d_k at (i, j) = {jet_bad[0]}"))

    unit = spec.metric.inner(spec.distinguished.xi, spec.distinguished.xi) == 1
    return ValidationReport(tuple(checks), unit_xi=unit,
                            degenerate_xi=spec.distinguished.is_zero)


def gradient(jet: ScalarJet, metric: MetricFrame) -> Tensor:
    """Frame components of the gradient: (Df)^k = g^kj d_j."""
    return jet.d.apply_metric(metric.g_inv, 0)


def raise_lower(t: Tensor, metric: MetricFrame, slot: int, direction: str) -> Tensor:
    """Flip the variance of one slot with g ("down") or its inverse ("up")."""
    if direction == "up":
        return t.apply_metric(metric.g_inv, slot)
    if direction == "down":
        return t.apply_metric(metric.g, slot)
    raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
