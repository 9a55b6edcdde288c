"""Dense valence-indexed tensor components over a frame, with exact entries.

Slots carry their own variance marker (UP or DOWN) and keep their position
through raising and lowering, so a raise/lower round trip is the identity
by construction. Storage stays dense: at dim <= 4 a dense layout beats any
sparse scheme.

This module alone decides how a component is stored. A tensor holds integer
numerators over one positive denominator, the components being
nums[i] / den in row-major order, in canonical form: gcd(den, *nums) == 1,
so den is the lcm of the reduced denominators and equal tensors have equal
storage (== and hash read it directly). The integer kernels (Levi-Civita,
torsion, non-metricity, curvature, validate's checks, the metric inverse)
read nums and den, accumulate in plain ints and return through
Tensor.from_ints, the one trusted constructor, which divides out the gcd
and makes den positive; the fraction-free division of Bareiss (Math. Comp.
22, 1968) is done once per tensor. +, -, negation, scale, tensor_product,
contract_with (the one contraction: a slot against a vector or covector)
and apply_metric run on the integers too. comps, the tuple of reduced
Rats, is built on first read and kept; `t[idx]` is its checked accessor.
copy and pickle rebuild a Tensor through from_ints.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import ValenceError
from .rat import ZERO, Rat, rat

UP = "u"
DOWN = "d"

_setattr = object.__setattr__  # Tensor blocks its own __setattr__


def _as_rat(x):
    return x if isinstance(x, Rat) else rat(x)


def _checked_shape(variance: Iterable[str], dim: int) -> tuple:
    variance = tuple(variance)
    if not {UP, DOWN}.issuperset(variance):
        raise ValenceError(f"bad variance marks {variance!r}")
    if dim < 1:
        raise ValenceError(f"dimension must be positive, got {dim}")
    return variance


class Tensor:
    """Immutable dense array of exact rationals indexed by frame indices."""

    __slots__ = ("variance", "dim", "nums", "den", "_comps")

    def __init__(self, variance: Iterable[str], dim: int, comps: Sequence):
        variance = _checked_shape(variance, dim)
        comps = tuple(map(_as_rat, comps))
        if len(comps) != dim ** len(variance):
            raise ValenceError(
                f"component count {len(comps)} != {dim}^{len(variance)}"
            )
        nums, dens = zip(*[c.as_integer_ratio() for c in comps])
        den = lcm(*dens)
        if den != 1:
            nums = tuple(p * (den // q) for p, q in zip(nums, dens))
        self._set(variance, dim, nums, den, comps)

    def _set(self, variance, dim, nums, den, comps):
        _setattr(self, "variance", variance)
        _setattr(self, "dim", dim)
        _setattr(self, "nums", nums)
        _setattr(self, "den", den)
        _setattr(self, "_comps", comps)

    @classmethod
    def from_ints(cls, variance: tuple, dim: int, nums: Iterable[int], den: int) -> "Tensor":
        """The tensor with components nums[i] / den, for den != 0.

        Trusted: variance, dim and the component count are not checked.
        """
        nums = tuple(nums)
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
        t = cls.__new__(cls)
        t._set(variance, dim, nums, den, None)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __reduce__(self):
        # Restoring slot state would go through the blocked __setattr__.
        return Tensor.from_ints, (self.variance, self.dim, self.nums, self.den)

    @property
    def comps(self) -> tuple:
        """The components as reduced Rats, flat in row-major order."""
        comps = self._comps
        if comps is None:
            den = self.den
            comps = tuple(Rat(x, den) if x else ZERO for x in self.nums)
            _setattr(self, "_comps", comps)
        return comps

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, variance: Iterable[str], dim: int) -> "Tensor":
        variance = _checked_shape(variance, dim)
        return cls.from_ints(variance, dim, (0,) * dim ** len(variance), 1)

    @classmethod
    def build(cls, variance: Iterable[str], dim: int, fn: Callable[..., object]) -> "Tensor":
        """Componentwise constructor: fn(*indices) -> Rat-like."""
        variance = tuple(variance)
        comps = [fn(*idx) for idx in itertools.product(range(dim), repeat=len(variance))]
        return cls(variance, dim, comps)

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

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        idx = tuple(idx)
        if len(idx) != self.rank:
            raise ValenceError(f"expected {self.rank} indices, got {len(idx)}")
        flat = 0
        for i in idx:
            if not 0 <= i < self.dim:
                raise IndexError(f"index {i} out of range 0..{self.dim - 1}")
            flat = flat * self.dim + i
        return self.comps[flat]

    # -- algebra -------------------------------------------------------

    def _check_same_shape(self, other: "Tensor"):
        if not isinstance(other, Tensor):
            raise ValenceError(f"expected Tensor, got {type(other).__name__}")
        if self.variance != other.variance or self.dim != other.dim:
            raise ValenceError(
                f"shape mismatch: {self.variance}/{self.dim} vs {other.variance}/{other.dim}"
            )

    def _combine(self, other: "Tensor", sign: int) -> "Tensor":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return Tensor.from_ints(self.variance, self.dim,
                                [x * a + y * b for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, -1)

    def __neg__(self) -> "Tensor":
        return Tensor.from_ints(self.variance, self.dim, [-x for x in self.nums], self.den)

    def scale(self, factor) -> "Tensor":
        f = _as_rat(factor)
        return Tensor.from_ints(self.variance, self.dim,
                                [f.numerator * x for x in self.nums], f.denominator * self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor)
                and self.variance == other.variance
                and self.dim == other.dim
                and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.variance, self.dim, self.den, self.nums))

    def __repr__(self):
        return f"Tensor({self.variance}, dim={self.dim}, {list(map(str, self.comps))})"

    def is_zero(self) -> bool:
        return not any(self.nums)

    def max_abs(self) -> Rat:
        return Rat(max(abs(x) for x in self.nums), self.den)

    # -- slot operations -----------------------------------------------

    def _check_slot(self, slot: int, want: str | None = None):
        if not 0 <= slot < self.rank:
            raise ValenceError(f"slot {slot} out of range for rank {self.rank}")
        if want is not None and self.variance[slot] != want:
            kind = "contravariant" if want == UP else "covariant"
            raise ValenceError(f"slot {slot} is not {kind}")

    def tensor_product(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim:
            raise ValenceError("tensor product requires equal dimensions")
        nums = [a * b for a in self.nums for b in other.nums]
        return Tensor.from_ints(self.variance + other.variance, self.dim, nums,
                                self.den * other.den)

    def contract_with(self, slot: int, one: "Tensor") -> "Tensor":
        """Contract a slot against a rank-1 tensor of opposite variance."""
        self._check_slot(slot)
        if one.rank != 1 or one.dim != self.dim:
            raise ValenceError("contract_with expects a rank-1 tensor of equal dim")
        if one.variance[0] == self.variance[slot]:
            raise ValenceError("contract_with requires opposite variance")
        variance = self.variance[:slot] + self.variance[slot + 1:]
        dim, src = self.dim, self.nums
        # Flat offset = outer * block + m * stride + inner, m the contracted index.
        stride = dim ** (self.rank - 1 - slot)
        block = stride * dim
        terms = [(m * stride, v) for m, v in enumerate(one.nums) if v]
        nums = [sum(src[base + off] * v for off, v in terms)
                for outer in range(0, len(src), block)
                for base in range(outer, outer + stride)]
        return Tensor.from_ints(variance, dim, nums, self.den * one.den)

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
        dim, src, g = self.dim, self.nums, matrix.nums
        # Flat offset = outer * block + b * stride + inner, b the contracted index.
        stride = dim ** (self.rank - 1 - slot)
        block = stride * dim
        nums = [sum(src[base + b * stride] * g[b * dim + a] for b in range(dim))
                for outer in range(0, len(src), block)
                for a in range(dim)
                for base in range(outer, outer + stride)]
        return Tensor.from_ints(tuple(variance), dim, nums, self.den * matrix.den)
