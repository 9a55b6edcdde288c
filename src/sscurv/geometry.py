"""Input geometry: frame Lie algebra, constant metric, distinguished field, jets.

Everything is homogeneous: structure constants, metric components, the
distinguished field and scalar 2-jets are constant over the frame, so frame
derivatives of stored components vanish and all identities are decidable by
exact arithmetic.

The hypothesis checks are fraction-free: each input is scaled to integers
over one common denominator (rat.common_denominator) and every yes/no
question is decided in plain ints. A zero test survives positive scaling,
so antisymmetry, Jacobi and jet consistency read the scaled components;
positive-definiteness reads the pivots of Bareiss's fraction-free
elimination, which are the leading principal minors; psi = g xi and
g(xi, xi) = 1 compare cross-multiplied sums. The same elimination, run on
[d g | d I], gives the metric's exact inverse.
"""

from __future__ import annotations

import itertools

from .errors import DegenerateMetricError, ValenceError
from .rat import Rat, common_denominator, over_denominator, rat
from .record import Record
from .tensor import DOWN, UP, Tensor


def _bareiss(rows: list[list[int]]) -> tuple[bool, int]:
    """Bareiss's fraction-free Gauss-Jordan elimination, in place on n integer rows.

    Returns (all leading principal minors of the left n x n block are > 0,
    last pivot); until a row swap the k-th pivot is the k-th leading minor.
    The last pivot is 0 iff that block is singular, else the right block ends
    as it times the block's inverse times the starting one. Divisions are
    exact; only columns right of the pivot change, as no later step reads them.
    """
    n, positive, prev = len(rows), True, 1
    for k in range(n):
        if rows[k][k] <= 0:
            positive = False
            r = next((r for r in range(k, n) if rows[r][k]), None)  # r == k unless pivot 0
            if r is None:
                return False, 0
            rows[k], rows[r] = rows[r], rows[k]
        row_k = rows[k]
        pivot, cols = row_k[k], range(k + 1, len(row_k))
        if cols:
            for row in rows:
                if row is not row_k:
                    f = row[k]
                    for j in cols:
                        row[j] = (row[j] * pivot - f * row_k[j]) // prev
        prev = pivot
    return positive, prev


class FrameAlgebra(Record):
    """Frame {e_1..e_n} with constant brackets [e_i, e_j] = C^k_ij e_k."""

    def __init__(self, dim: int, c: Tensor):
        fields = self.__dict__
        fields["dim"] = dim
        fields["c"] = c  # variance (UP, DOWN, DOWN), c[k, i, j] = C^k_ij
        if c.variance != (UP, DOWN, DOWN) or c.dim != dim:
            raise ValenceError("structure constants must be a (1,2) tensor of matching dim")

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
        """1-based (i, j, k) where C^k_ij != -C^k_ji, decided on C scaled to ints."""
        n, c = self.dim, common_denominator(self.c.comps)[0]
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
        order as the full loop that any other C gets. The sums run on C
        scaled to ints, which leaves every zero test as it is.
        """
        n, c = self.dim, common_denominator(self.c.comps)[0]
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


def _jacobi_sum(c, n: int, i: int, j: int, k: int, l: int) -> int:
    """sum_m C^m_ij C^l_mk + C^m_jk C^l_mi + C^m_ki C^l_mj over flat integer components c."""
    total = 0
    cyclic = ((i * n + j, k), (j * n + k, i), (k * n + i, j))
    for m in range(n):
        low, out = m * n * n, (l * n + m) * n
        for ab, z in cyclic:
            x = c[low + ab]
            if x:
                y = c[out + z]
                if y:
                    total += x * y
    return total


class MetricFrame(Record):
    """Constant positive-definite metric with its exact cached inverse."""

    def __init__(self, g: Tensor, g_inv: Tensor):
        fields = self.__dict__
        fields["g"] = g          # (DOWN, DOWN)
        fields["g_inv"] = g_inv  # (UP, UP)

    @classmethod
    def from_tensor(cls, g: Tensor) -> "MetricFrame":
        """g^-1: the right block of [d g | d I] after _bareiss, over its last pivot;
        d is the common denominator of g."""
        if g.variance != (DOWN, DOWN):
            raise ValenceError("metric must be a (0,2) tensor")
        n, (ints, d) = g.dim, common_denominator(g.comps)
        rows = [ints[i * n:(i + 1) * n] + [0] * i + [d] + [0] * (n - 1 - i) for i in range(n)]
        det = _bareiss(rows)[1]
        if not det:
            raise DegenerateMetricError("metric is singular")
        inv = over_denominator([x for row in rows for x in row[n:]], det)
        return cls(g, Tensor((UP, UP), n, inv))

    @classmethod
    def identity(cls, dim: int) -> "MetricFrame":
        return cls.from_tensor(Tensor.build((DOWN, DOWN), dim, lambda a, b: int(a == b)))

    @property
    def dim(self) -> int:
        return self.g.dim

    def is_symmetric(self) -> bool:
        n, g = self.dim, self.g.comps
        return all(g[i * n + j] == g[j * n + i] for i in range(n) for j in range(n))

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion, read off the pivots of _bareiss on g scaled to ints."""
        n, g = self.dim, common_denominator(self.g.comps)[0]
        return _bareiss([g[i * n:(i + 1) * n] for i in range(n)])[0]

    def inner(self, u: Tensor, v: Tensor) -> Rat:
        """g(u, v) for two vectors."""
        return u.apply_metric(self.g, 0).contract_with(0, v).comps[0]


class DistinguishedField(Record):
    """The fixed field xi with its metric-dual 1-form psi."""

    def __init__(self, xi: Tensor, psi: Tensor):
        fields = self.__dict__
        fields["xi"] = xi    # (UP,)
        fields["psi"] = psi  # (DOWN,)

    @classmethod
    def from_xi(cls, xi: Tensor, metric: MetricFrame) -> "DistinguishedField":
        if xi.variance != (UP,):
            raise ValenceError("xi must be a (1,0) tensor")
        psi = xi.apply_metric(metric.g, 0)
        return cls(xi, psi)

    @property
    def is_zero(self) -> bool:
        return self.xi.is_zero()


class ScalarJet(Record):
    """Scalar field known through constant first and second frame derivatives."""

    def __init__(self, d: Tensor, dd: Tensor):
        fields = self.__dict__
        fields["d"] = d    # (DOWN,), d[i] = e_i f
        fields["dd"] = dd  # (DOWN, DOWN), dd[i, j] = e_i (e_j f)
        if d.variance != (DOWN,) or dd.variance != (DOWN, DOWN):
            raise ValenceError("jet needs a (0,1) first and (0,2) second derivative")
        if d.dim != dd.dim:
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
    """1-based (i, j) where dd_ij - dd_ji != C^k_ij d_k.

    With C = c / dc, d = e / de and dd = h / dh scaled to ints, the test is
    (h_ij - h_ji) dc de != dh sum_k c^k_ij e_k.
    """
    n = frame.dim
    if jet.dim != n:
        raise ValenceError(f"jet dimension {jet.dim} != frame dimension {n}")
    c, dc = common_denominator(frame.c.comps)
    d, de = common_denominator(jet.d.comps)
    dd, dh = common_denominator(jet.dd.comps)
    scale = dc * de
    bad = []
    for i in range(n):
        for j in range(n):
            bracket = 0
            for k in range(n):
                x = c[(k * n + i) * n + j]
                if x and d[k]:
                    bracket += x * d[k]
            if (dd[i * n + j] - dd[j * n + i]) * scale != dh * bracket:
                bad.append((i + 1, j + 1))
    return bad


class GeometrySpec(Record):
    """A named, fully specified input geometry (optionally with a jet)."""

    def __init__(self, name: str, frame: FrameAlgebra, metric: MetricFrame,
                 distinguished: DistinguishedField, jet: ScalarJet | None = None):
        fields = self.__dict__
        fields["name"] = name
        fields["frame"] = frame
        fields["metric"] = metric
        fields["distinguished"] = distinguished
        fields["jet"] = jet
        dims = {frame.dim, metric.dim, distinguished.xi.dim}
        if jet is not None:
            dims.add(jet.dim)
        if len(dims) != 1:
            raise ValenceError(f"component dimensions disagree: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.frame.dim


class Check(Record):
    def __init__(self, name: str, passed: bool, detail: str = ""):
        fields = self.__dict__
        fields["name"] = name
        fields["passed"] = passed
        fields["detail"] = detail


class ValidationReport(Record):
    """Structural check results plus capability flags for xi."""

    def __init__(self, checks: tuple[Check, ...], unit_xi: bool, degenerate_xi: bool):
        fields = self.__dict__
        fields["checks"] = checks
        fields["unit_xi"] = unit_xi
        fields["degenerate_xi"] = degenerate_xi

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> str:
        """The failed checks as "name: detail", joined by "; "."""
        return "; ".join(f"{c.name}: {c.detail}" for c in self.checks if not c.passed)

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

    g, dg = common_denominator(spec.metric.g.comps)
    xi, dx = common_denominator(spec.distinguished.xi.comps)
    compat = _is_metric_dual(spec.distinguished.psi, g, xi, dg * dx)
    checks.append(Check("psi-xi-compatibility", compat,
                        "" if compat else "psi_i != g_ij xi^j"))

    if spec.jet is not None:
        jet_bad = jet_consistency_violations(spec.jet, spec.frame)
        checks.append(Check("jet-consistency", not jet_bad,
                            "" if not jet_bad else
                            f"dd_ij - dd_ji != C^k_ij d_k at (i, j) = {jet_bad[0]}"))

    n = spec.dim
    unit = sum(g[i * n + j] * xi[i] * xi[j]
               for i in range(n) if xi[i] for j in range(n) if xi[j]) == dg * dx * dx
    return ValidationReport(tuple(checks), unit_xi=unit,
                            degenerate_xi=spec.distinguished.is_zero)


def _is_metric_dual(psi: Tensor, g: list[int], xi: list[int], scale: int) -> bool:
    """psi_a == g_ba xi^b for g and xi scaled to ints with product denominator scale."""
    n = len(xi)
    if psi.variance != (DOWN,) or psi.dim != n:
        return False
    p, dp = common_denominator(psi.comps)
    return all(p[a] * scale == dp * sum(g[b * n + a] * xi[b] for b in range(n) if xi[b])
               for a in range(n))


def gradient(jet: ScalarJet, metric: MetricFrame) -> Tensor:
    """Frame components of the gradient: (Df)^k = g^kj d_j."""
    return jet.d.apply_metric(metric.g_inv, 0)
