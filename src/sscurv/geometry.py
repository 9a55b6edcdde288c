"""Input geometry: frame Lie algebra, constant metric, distinguished field, jets.

Everything is homogeneous: structure constants, metric components, the
distinguished field and scalar 2-jets are constant over the frame, so frame
derivatives of stored components vanish and all identities are decidable by
exact arithmetic.

The hypothesis checks are fraction-free: they read each input's integer
numerators over its one denominator (see tensor) and decide every yes/no
question in plain ints. A zero test survives positive scaling, so
antisymmetry, Jacobi and jet consistency read the numerators: antisymmetry
through two gathers, Jacobi and jet consistency as sums stated in index
notation to tensor._index_plan. Positive-definiteness reads the pivots of
Bareiss's fraction-free elimination, which are the leading principal
minors; the same elimination, run on [d g | d I], gives the metric's exact
inverse. For psi = g xi and g(xi, xi) = 1, validate lowers xi once with
apply_metric and compares the result with psi and contracts it with xi.
"""

from __future__ import annotations

import functools
import itertools
from operator import add

from .errors import DegenerateMetricError, ValenceError
from .rat import Rat, rat
from .record import Record, _memo
from .tensor import DOWN, UP, Tensor, _gather, _index_plan, _packed


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
        """Build from 0-based {(k, i, j): value} with antisymmetric completion.

        Each entry writes C^k_ij = v, then C^k_ji = -v, so a later entry
        overwrites an earlier one and a diagonal entry reads -v. The values
        are packed over their lcm and written as integers.
        """
        if dim < 1:
            raise ValenceError(f"dimension must be positive, got {dim}")
        pairs = [rat(v).as_integer_ratio() for v in entries.values()]
        values, den = _packed(pairs) if pairs else ((), 1)
        nums = [0] * dim ** 3
        for (k, i, j), x in zip(entries, values):
            nums[(k * dim + i) * dim + j] = x
            nums[(k * dim + j) * dim + i] = -x
        return cls(dim, Tensor.from_ints((UP, DOWN, DOWN), dim, nums, den))

    def antisymmetry_violations(self) -> list[tuple[int, int, int]]:
        """1-based (i, j, k) where C^k_ij != -C^k_ji, decided on the numerators of C:
        the entries at i <= j plus their mirrors, summed and filtered in C. An
        antisymmetric C, as every fuzz draw is, returns after the first pass."""
        ijk, upper, lower = _triangles(self.dim)
        c = self.c.nums
        if not any(map(add, upper(c), lower(c))):
            return []
        return list(itertools.compress(ijk, map(add, upper(c), lower(c))))

    def jacobi_violations(self) -> list[tuple[int, int, int, int]]:
        """1-based (i, j, k, l) where the cyclic Jacobi sum is nonzero, in lexicographic order.

        For antisymmetric C the cyclic sum is totally antisymmetric in
        (i, j, k): it vanishes on a repeated index and a permutation changes
        at most its sign, so only the identities with i < j < k are
        independent and each violated one is listed once, with i < j < k.
        Any other C gets every (i, j, k, l). Either way the first entry is
        the lexicographically first violating ordering. The sums run on the
        numerators of C, which leaves every zero test as it is. The frame
        decides them once; each call returns a list of its own.
        """
        return list(self._verdicts[1])

    @_memo
    def _verdicts(self) -> tuple[tuple, tuple]:
        """(antisymmetry_violations(), jacobi_violations()) as tuples, decided once
        per frame and kept in its __dict__; the antisymmetry verdict picks the Jacobi plan."""
        anti = tuple(self.antisymmetry_violations())
        c = self.c.nums
        sums, labels = _jacobi_plan(self.dim, not anti)
        return anti, tuple(itertools.compress(labels, sums(c, c)))


@functools.lru_cache(maxsize=8)
def _triangles(n: int) -> tuple:
    """Each 1-based (i, j, k) with i <= j, in lexicographic (k, i, j) order, and
    the gathers of the numerators C^k_ij and C^k_ji in that order."""
    slots = [(k, i, j) for k in range(n) for i in range(n) for j in range(i, n)]
    return (tuple((i + 1, j + 1, k + 1) for k, i, j in slots),
            _gather([(k * n + i) * n + j for k, i, j in slots]),
            _gather([(k * n + j) * n + i for k, i, j in slots]))


@functools.lru_cache(maxsize=8)
def _jacobi_plan(n: int, antisymmetric: bool) -> tuple:
    """The planned Jacobi sums of the numerators of C, sum_m C^m_ij C^l_mk +
    C^m_jk C^l_mi + C^m_ki C^l_mj, and each one's 1-based (i, j, k, l), i < j < k
    if antisymmetric, in lexicographic order. Kept by shape, so a frame's
    verdict hashes two scalars, not the nested terms _index_plan is keyed by."""
    rng = range(1, n + 1)
    triples = itertools.combinations(rng, 3) if antisymmetric else itertools.product(rng, repeat=3)
    sums = _index_plan(n, "ijkl", (("mij", "lmk"), ("mjk", "lmi"), ("mki", "lmj")),
                       "ijk" if antisymmetric else "")
    return sums, tuple((*ijk, l) for ijk in triples for l in rng)


class MetricFrame(Record):
    """Constant positive-definite metric with its exact cached inverse."""

    def __init__(self, g: Tensor, g_inv: Tensor):
        fields = self.__dict__
        fields["g"] = g          # (DOWN, DOWN)
        fields["g_inv"] = g_inv  # (UP, UP)
        _check_metric(g)
        if g_inv.variance != (UP, UP) or g_inv.dim != g.dim:
            raise ValenceError("metric inverse must be a (2,0) tensor of the metric's dim")

    @classmethod
    def from_tensor(cls, g: Tensor) -> "MetricFrame":
        """g^-1: the right block of [d g | d I] after _bareiss, over its last pivot;
        d g holds the numerators of g, which must be a (0,2) tensor to be read so."""
        _check_metric(g)
        n, ints, d = g.dim, g.nums, g.den
        rows = [[*ints[i * n:(i + 1) * n], *[0] * i, d, *[0] * (n - 1 - i)] for i in range(n)]
        det = _bareiss(rows)[1]
        if not det:
            raise DegenerateMetricError("metric is singular")
        return cls(g, Tensor.from_ints((UP, UP), n, [x for row in rows for x in row[n:]], det))

    @classmethod
    def identity(cls, dim: int) -> "MetricFrame":
        """g = I, which is its own inverse."""
        ones = Tensor.delta(dim).nums  # delta checks dim
        return cls(Tensor.from_ints((DOWN, DOWN), dim, ones, 1),
                   Tensor.from_ints((UP, UP), dim, ones, 1))

    @property
    def dim(self) -> int:
        return self.g.dim

    def is_symmetric(self) -> bool:
        return self._symmetric

    @_memo
    def _symmetric(self) -> bool:
        """g == g^T, decided once per metric."""
        return self.g == self.g.permute((1, 0))

    def is_positive_definite(self) -> bool:
        return self._positive_definite

    @_memo
    def _positive_definite(self) -> bool:
        """Sylvester's criterion, read off the pivots of _bareiss on the numerators
        of g, decided once per metric."""
        n, g = self.dim, self.g.nums
        return _bareiss([list(g[i * n:(i + 1) * n]) for i in range(n)])[0]

    @_memo
    def _wedge_basis(self) -> Tensor:
        """wedge(g), the (1,3) tensor that constant_sectional compares R with,
        built once per metric."""
        from .curvature import wedge  # curvature imports this module
        return wedge(self.g)

    def inner(self, u: Tensor, v: Tensor) -> Rat:
        """g(u, v) for two vectors."""
        return u.apply_metric(self.g, 0).contract_with(0, v)[()]


def _check_metric(g: Tensor) -> None:
    if g.variance != (DOWN, DOWN):
        raise ValenceError("metric must be a (0,2) tensor")


class DistinguishedField(Record):
    """The fixed field xi with its metric-dual 1-form psi."""

    def __init__(self, xi: Tensor, psi: Tensor):
        fields = self.__dict__
        fields["xi"] = xi    # (UP,)
        fields["psi"] = psi  # (DOWN,)
        if xi.variance != (UP,) or psi.variance != (DOWN,):
            raise ValenceError("xi must be a (1,0) tensor and psi a (0,1) tensor")
        if xi.dim != psi.dim:
            raise ValenceError("xi and psi dimensions disagree")

    @classmethod
    def from_xi(cls, xi: Tensor, metric: MetricFrame) -> "DistinguishedField":
        """xi with psi = g(xi, .), its lowering by the metric."""
        return cls(xi, xi.apply_metric(metric.g, 0))

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

    With C = c / dc, d = e / de and dd = h / dh over their numerators, the
    test is (h_ij - h_ji) dc de != dh sum_k c^k_ij e_k, one planned sum.
    """
    n = frame.dim
    if jet.dim != n:
        raise ValenceError(f"jet dimension {jet.dim} != frame dimension {n}")
    s, dh = frame.c.den * jet.d.den, jet.dd.den
    # x is h and c, y is (s, -s, -dh e): h_ij s - h_ji s - sum_k c^k_ij (dh e_k).
    sums = _index_plan(n, "ij", (("ij", (0, "")), ("ji", (1, "")), ((n * n, "kij"), (2, "k"))))
    y = (s, -s, *[-dh * x for x in jet.d.nums])
    return list(itertools.compress(itertools.product(range(1, n + 1), repeat=2),
                                   sums(jet.dd.nums + frame.c.nums, y)))


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

    Unit xi is recorded as a capability flag rather than a failure:
    ProbeContext.unmet reads it to decide whether a geometry is in the
    paper's class. psi = 0 (xi = 0) is accepted too, flagged degenerate; it
    gives the useful "hatted equals unhatted" limit. The frame decides
    antisymmetry and Jacobi once and keeps both verdicts, so a frame that
    jacobi_violations already filtered is not scanned again.
    """
    checks = []

    anti, jac = spec.frame._verdicts
    checks.append(Check("antisymmetry", not anti,
                        "" if not anti else f"C^k_ij != -C^k_ji at (i, j, k) = {anti[0]}"))

    checks.append(Check("jacobi", not jac,
                        "" if not jac else
                        f"Jacobi sum nonzero at (i, j, k) = {jac[0][:3]} (value slot l = {jac[0][3]})"))

    sym = spec.metric.is_symmetric()
    checks.append(Check("metric-symmetry", sym, "" if sym else "g_ij != g_ji"))

    pos = spec.metric.is_positive_definite() if sym else False
    checks.append(Check("metric-positive-definite", pos,
                        "" if pos else "a leading principal minor is not positive"))

    xi = spec.distinguished.xi
    lowered = xi.apply_metric(spec.metric.g, 0)
    compat = spec.distinguished.psi == lowered
    checks.append(Check("psi-xi-compatibility", compat,
                        "" if compat else "psi_i != g_ij xi^j"))

    if spec.jet is not None:
        jet_bad = jet_consistency_violations(spec.jet, spec.frame)
        checks.append(Check("jet-consistency", not jet_bad,
                            "" if not jet_bad else
                            f"dd_ij - dd_ji != C^k_ij d_k at (i, j) = {jet_bad[0]}"))

    unit = lowered.contract_with(0, xi)[()] == 1
    return ValidationReport(tuple(checks), unit_xi=unit,
                            degenerate_xi=spec.distinguished.is_zero)


def gradient(jet: ScalarJet, metric: MetricFrame) -> Tensor:
    """Frame components of the gradient: (Df)^k = g^kj d_j."""
    return jet.d.apply_metric(metric.g_inv, 0)
