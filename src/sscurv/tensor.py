"""Dense valence-indexed tensor components over a frame, with exact entries.

Slots carry their own variance marker (UP or DOWN) and keep their position
through raising and lowering, so a raise/lower round trip is the identity
by construction. Storage is a flat row-major tuple and stays dense: at
dim <= 4 a dense layout beats any sparse scheme. The engine loops read that
tuple by flat offset and skip every product with a zero factor, since frame
geometries are mostly zeros; `t[idx]` stays the checked accessor.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

from .errors import ValenceError
from .rat import ONE, ZERO, Rat, rat

UP = "u"
DOWN = "d"


def _as_rat(x):
    return x if isinstance(x, Rat) else rat(x)


class Tensor:
    """Immutable dense array of exact rationals indexed by frame indices."""

    __slots__ = ("variance", "dim", "comps")

    def __init__(self, variance: Iterable[str], dim: int, comps: Sequence):
        variance = tuple(variance)
        if any(v not in (UP, DOWN) for v in variance):
            raise ValenceError(f"bad variance marks {variance!r}")
        if dim < 1:
            raise ValenceError(f"dimension must be positive, got {dim}")
        comps = tuple(_as_rat(c) for c in comps)
        if len(comps) != dim ** len(variance):
            raise ValenceError(
                f"component count {len(comps)} != {dim}^{len(variance)}"
            )
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, variance: Iterable[str], dim: int) -> "Tensor":
        variance = tuple(variance)
        return cls(variance, dim, (ZERO,) * dim ** len(variance))

    @classmethod
    def build(cls, variance: Iterable[str], dim: int, fn: Callable[..., object]) -> "Tensor":
        """Componentwise constructor: fn(*indices) -> Rat-like."""
        variance = tuple(variance)
        comps = [fn(*idx) for idx in itertools.product(range(dim), repeat=len(variance))]
        return cls(variance, dim, comps)

    @classmethod
    def delta(cls, dim: int) -> "Tensor":
        """Identity (1,1) tensor."""
        return cls.build((UP, DOWN), dim, lambda a, b: ONE if a == b else ZERO)

    @classmethod
    def vector(cls, comps: Sequence) -> "Tensor":
        return cls((UP,), len(tuple(comps)), comps)

    @classmethod
    def covector(cls, comps: Sequence) -> "Tensor":
        return cls((DOWN,), len(tuple(comps)), comps)

    @classmethod
    def from_rows(cls, variance: Iterable[str], rows: Sequence) -> "Tensor":
        """Build a rank-2 tensor from a square nested sequence."""
        rows = [list(r) for r in rows]
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValenceError("rank-2 tensor rows must form a square array")
        return cls(variance, dim, [c for r in rows for c in r])

    # -- indexing ------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def valence(self) -> tuple[int, int]:
        """(contravariant count, covariant count)."""
        p = sum(1 for v in self.variance if v == UP)
        return p, len(self.variance) - p

    def _flat(self, idx: tuple[int, ...]) -> int:
        flat = 0
        for i in idx:
            flat = flat * self.dim + i
        return flat

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        idx = tuple(idx)
        if len(idx) != self.rank:
            raise ValenceError(f"expected {self.rank} indices, got {len(idx)}")
        for i in idx:
            if not 0 <= i < self.dim:
                raise IndexError(f"index {i} out of range 0..{self.dim - 1}")
        return self.comps[self._flat(idx)]

    def indices(self):
        return itertools.product(range(self.dim), repeat=self.rank)

    def scalar(self) -> Rat:
        if self.rank != 0:
            raise ValenceError(f"rank-{self.rank} tensor is not a scalar")
        return self.comps[0]

    # -- algebra -------------------------------------------------------

    def _check_same_shape(self, other: "Tensor"):
        if not isinstance(other, Tensor):
            raise ValenceError(f"expected Tensor, got {type(other).__name__}")
        if self.variance != other.variance or self.dim != other.dim:
            raise ValenceError(
                f"shape mismatch: {self.variance}/{self.dim} vs {other.variance}/{other.dim}"
            )

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.variance, self.dim,
                      [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.variance, self.dim,
                      [a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self) -> "Tensor":
        return Tensor(self.variance, self.dim, [-a for a in self.comps])

    def scale(self, factor) -> "Tensor":
        f = _as_rat(factor)
        return Tensor(self.variance, self.dim, [f * a for a in self.comps])

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor)
                and self.variance == other.variance
                and self.dim == other.dim
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.variance, self.dim, self.comps))

    def __repr__(self):
        return f"Tensor({self.variance}, dim={self.dim}, {list(map(str, self.comps))})"

    def is_zero(self) -> bool:
        return not any(self.comps)

    def max_abs(self) -> Rat:
        return max((abs(c) for c in self.comps), default=ZERO)

    # -- slot operations -----------------------------------------------

    def _check_slot(self, slot: int, want: str | None = None):
        if not 0 <= slot < self.rank:
            raise ValenceError(f"slot {slot} out of range for rank {self.rank}")
        if want is not None and self.variance[slot] != want:
            kind = "contravariant" if want == UP else "covariant"
            raise ValenceError(f"slot {slot} is not {kind}")

    def contract(self, upper_slot: int, lower_slot: int) -> "Tensor":
        """Trace one contravariant slot against one covariant slot."""
        self._check_slot(upper_slot, UP)
        self._check_slot(lower_slot, DOWN)
        if upper_slot == lower_slot:
            raise ValenceError("cannot contract a slot with itself")
        keep = [s for s in range(self.rank) if s not in (upper_slot, lower_slot)]
        variance = tuple(self.variance[s] for s in keep)
        dim = self.dim
        comps = []
        for out_idx in itertools.product(range(dim), repeat=len(keep)):
            full = [0] * self.rank
            for pos, s in enumerate(keep):
                full[s] = out_idx[pos]
            total = ZERO
            for m in range(dim):
                full[upper_slot] = m
                full[lower_slot] = m
                total = total + self.comps[self._flat(tuple(full))]
            comps.append(total)
        return Tensor(variance, dim, comps)

    def tensor_product(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim:
            raise ValenceError("tensor product requires equal dimensions")
        comps = [a * b for a in self.comps for b in other.comps]
        return Tensor(self.variance + other.variance, self.dim, comps)

    def permute(self, order: Sequence[int]) -> "Tensor":
        """Reorder slots; order[k] names the source slot for output slot k."""
        order = tuple(order)
        if sorted(order) != list(range(self.rank)):
            raise ValenceError(f"bad slot permutation {order!r}")
        variance = tuple(self.variance[s] for s in order)
        comps = []
        for idx in itertools.product(range(self.dim), repeat=self.rank):
            src = [0] * self.rank
            for k, s in enumerate(order):
                src[s] = idx[k]
            comps.append(self.comps[self._flat(tuple(src))])
        return Tensor(variance, self.dim, comps)

    def symmetrize(self, slot_a: int, slot_b: int) -> "Tensor":
        self._check_slot(slot_a)
        self._check_slot(slot_b)
        if self.variance[slot_a] != self.variance[slot_b]:
            raise ValenceError("can only symmetrize slots of equal variance")
        order = list(range(self.rank))
        order[slot_a], order[slot_b] = order[slot_b], order[slot_a]
        return (self + self.permute(order)).scale(rat(1, 2))

    def contract_with(self, slot: int, one: "Tensor") -> "Tensor":
        """Contract a slot against a rank-1 tensor of opposite variance."""
        self._check_slot(slot)
        if one.rank != 1 or one.dim != self.dim:
            raise ValenceError("contract_with expects a rank-1 tensor of equal dim")
        if one.variance[0] == self.variance[slot]:
            raise ValenceError("contract_with requires opposite variance")
        variance = self.variance[:slot] + self.variance[slot + 1:]
        dim, src, vec = self.dim, self.comps, one.comps
        # Flat offset = outer * block + m * stride + inner, m the contracted index.
        stride = dim ** (self.rank - 1 - slot)
        block = stride * dim
        terms = [(m * stride, v) for m, v in enumerate(vec) if v]
        comps = []
        for outer in range(0, len(src), block):
            for base in range(outer, outer + stride):
                total = ZERO
                for off, v in terms:
                    a = src[base + off]
                    if a:
                        total = total + a * v
                comps.append(total)
        return Tensor(variance, dim, comps)

    def apply_metric(self, matrix: "Tensor", slot: int) -> "Tensor":
        """Flip one slot's variance in place by contracting with g or g-inverse.

        matrix must be rank 2 with both slots DOWN (lowers an UP slot) or
        both UP (raises a DOWN slot); its first slot is the contracted one.
        """
        if matrix.rank != 2 or matrix.dim != self.dim:
            raise ValenceError("metric must be a rank-2 tensor of equal dim")
        if matrix.variance == (DOWN, DOWN):
            self._check_slot(slot, UP)
            new_mark = DOWN
        elif matrix.variance == (UP, UP):
            self._check_slot(slot, DOWN)
            new_mark = UP
        else:
            raise ValenceError("metric slots must share variance")
        variance = list(self.variance)
        variance[slot] = new_mark
        dim, src, g = self.dim, self.comps, matrix.comps
        # Flat offset = outer * block + b * stride + inner, b the contracted index.
        stride = dim ** (self.rank - 1 - slot)
        block = stride * dim
        comps = []
        for outer in range(0, len(src), block):
            for a in range(dim):
                for base in range(outer, outer + stride):
                    total = ZERO
                    for b in range(dim):
                        x = src[base + b * stride]
                        if x:
                            m = g[b * dim + a]
                            if m:
                                total = total + x * m
                    comps.append(total)
        return Tensor(tuple(variance), dim, comps)
