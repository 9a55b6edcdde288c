"""Dense valence-indexed tensor components over a frame, with exact entries.

Slots carry their own variance marker (UP or DOWN) and keep their position
through raising and lowering, so a raise/lower round trip is the identity
by construction. Storage stays dense: at dim <= 4 a dense layout beats any
sparse scheme.

This module alone decides how a component is stored. A tensor holds integer
numerators over one positive denominator, the components being
nums[i] / den in row-major order, in canonical form: gcd(den, *nums) == 1,
so den is the lcm of the reduced denominators and equal tensors have equal
storage (== and hash read it directly). Outside this module only the
integer kernels read nums by position, each because it measurably beats the
same sum written over the operations below. Most of them are sums of
products stated in index notation to _index_plan, which alone works out
their row-major offsets: levi_civita and non_metricity, curvature and the
wedge kernel, the soliton Hessian and residual, and the Jacobi and jet
consistency checks. The others are constant_sectional; in geometry the
Bareiss elimination (metric inverse and Sylvester's test), the structure
constants of FrameAlgebra.from_entries and the antisymmetry check (through
_gather pairs memoised per dimension); and the fuzzer's draw, which writes
its numerators over the pool's lcm. They accumulate in plain ints and
return through Tensor.from_ints, the one trusted constructor, which divides
out the gcd and makes den positive; the fraction-free division of Bareiss
(Math. Comp. 22, 1968) is done once per tensor. Nothing else reads nums by
position: torsion, metric symmetry and validate's psi-xi and unit-xi checks
are expressions over the operations below, and the report writers read
through strings() and t[idx].

_packed alone puts rationals, as (p, q) pairs, over the lcm of their q:
Tensor() packs its Rats, and the loaders (geomio), from_entries and the
fuzz pool pack theirs.

A plan is the function of x and y, tuples of numerators (often several
tensors' numerators, scaled to one denominator, laid end to end), that
returns one sum of products x[a] * y[b] per output index. A kernel states
it as Riemann is stated, _index_plan(n, "lkij", (("mjk", "lim"), ...),
"ij"): the output's index letters, a term per product of two operands'
index words, summed over the letters the output lacks, and the letters
that run strictly increasing. _index_plan turns that into two _gathers
and a group width, so the gathers, the products and the grouped sums run
in C, and keeps every plan in one bounded lru_cache. Its result is an
iterator of the sums, or, where each output index has one x[a] and no y
factor, the tuple the gather returns.

Every other derived tensor is an expression over the operations here, all
of which run on the integers: +, -, negation, scale, tensor_product,
contract_with, permute and apply_metric, with Tensor.delta the (1,1)
Kronecker delta. contract_with is the one contraction: a slot of self
against slot 0, of opposite variance, of any tensor, the result's slots being
self's remaining slots followed by the other's (permute the other first to
contract one of its later slots). permute reorders slots
(result slot s is source slot order[s]). apply_metric contracts a slot with
g or g^-1 and leaves the flipped slot where it was.

Their per-component loops run in C: +, - (over equal denominators),
negation, scale and from_ints's reduction map operator functions, which
take any integer type, over the numerators. The three slot operations are
planned sums, with slot s read by the letter chr(s): permute is the x-only
sum with no summed letter, so its plan is one operator.itemgetter;
contract_with is one term whose contracted letter both words share; and
apply_metric is that term with the metric's free letter written in the
flipped slot's place. In this module only _index_plan and t[idx] work out
a row-major offset.

The integers are the only representation. `t[idx]` is the checked read of
one component as a Rat (t[()] for a rank-0 result), and strings() writes
the canonical row-major strings straight from the integers in one call to
rat.format_rats. copy and pickle rebuild a Tensor through from_ints.
"""

from __future__ import annotations

import functools
from itertools import chain, compress, product, repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, lt, mul, neg, sub
from typing import Callable, Iterable, Sequence

from .errors import ValenceError
from .rat import Rat, format_rats, rat

UP = "u"
DOWN = "d"

_setattr = object.__setattr__  # Tensor blocks its own __setattr__


def _checked_shape(variance: Iterable[str], dim: int) -> tuple:
    variance = tuple(variance)
    if not {UP, DOWN}.issuperset(variance):
        raise ValenceError(f"bad variance marks {variance!r}")
    if dim < 1:
        raise ValenceError(f"dimension must be positive, got {dim}")
    return variance


class Tensor:
    """Immutable dense array of exact rationals indexed by frame indices."""

    __slots__ = ("variance", "dim", "nums", "den")

    def __init__(self, variance: Iterable[str], dim: int, comps: Sequence):
        variance = _checked_shape(variance, dim)
        pairs = [rat(c).as_integer_ratio() for c in comps]
        if len(pairs) != dim ** len(variance):
            raise ValenceError(
                f"component count {len(pairs)} != {dim}^{len(variance)}"
            )
        self._set(variance, dim, *_packed(pairs))  # lowest-terms pairs pack canonically

    def _set(self, variance, dim, nums, den):
        _setattr(self, "variance", variance)
        _setattr(self, "dim", dim)
        _setattr(self, "nums", nums)
        _setattr(self, "den", den)

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
            nums = tuple(map(floordiv, nums, repeat(g)))
            den //= g
        t = cls.__new__(cls)
        _setattr(t, "variance", variance)
        _setattr(t, "dim", dim)
        _setattr(t, "nums", nums)
        _setattr(t, "den", den)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __reduce__(self):
        # Restoring slot state would go through the blocked __setattr__.
        return Tensor.from_ints, (self.variance, self.dim, self.nums, self.den)

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, variance: Iterable[str], dim: int) -> "Tensor":
        variance = _checked_shape(variance, dim)
        return cls.from_ints(variance, dim, (0,) * dim ** len(variance), 1)

    @classmethod
    def build(cls, variance: Iterable[str], dim: int, fn: Callable[..., object]) -> "Tensor":
        """Componentwise constructor: fn(*indices) -> Rat-like."""
        variance = tuple(variance)
        comps = [fn(*idx) for idx in product(range(dim), repeat=len(variance))]
        return cls(variance, dim, comps)

    @classmethod
    def vector(cls, comps: Iterable) -> "Tensor":
        comps = tuple(comps)
        return cls((UP,), len(comps), comps)

    @classmethod
    def covector(cls, comps: Iterable) -> "Tensor":
        comps = tuple(comps)
        return cls((DOWN,), len(comps), comps)

    @classmethod
    def delta(cls, dim: int) -> "Tensor":
        """The (1,1) Kronecker delta."""
        variance = _checked_shape((UP, DOWN), dim)
        return cls.from_ints(variance, dim, [int(a == b) for a in range(dim) for b in range(dim)], 1)

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
        return Rat(self.nums[flat], self.den)

    def strings(self) -> list[str]:
        """The canonical strings of the components, flat in row-major order."""
        return format_rats(self.nums, self.den)

    # -- algebra -------------------------------------------------------

    def _check_same_shape(self, other: "Tensor"):
        _check_tensor(other)
        if self.variance != other.variance or self.dim != other.dim:
            raise ValenceError(
                f"shape mismatch: {self.variance}/{self.dim} vs {other.variance}/{other.dim}"
            )

    def _combine(self, other: "Tensor", sign: int) -> "Tensor":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_same_shape(other)
        den = self.den
        if den == other.den:
            nums = map(add if sign > 0 else sub, self.nums, other.nums)
        else:
            den = lcm(den, other.den)
            a, b = den // self.den, sign * (den // other.den)
            nums = [x * a + y * b for x, y in zip(self.nums, other.nums)]
        return Tensor.from_ints(self.variance, self.dim, nums, den)

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, 1)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, -1)

    def __neg__(self) -> "Tensor":
        return Tensor.from_ints(self.variance, self.dim, map(neg, self.nums), self.den)

    def scale(self, factor) -> "Tensor":
        f = rat(factor)
        p, nums = f.numerator, self.nums
        if p != 1:
            nums = map(mul, nums, repeat(p))
        return Tensor.from_ints(self.variance, self.dim, nums, f.denominator * self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Tensor)
                and self.variance == other.variance
                and self.dim == other.dim
                and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.variance, self.dim, self.den, self.nums))

    def __repr__(self):
        return f"Tensor({self.variance}, dim={self.dim}, {self.strings()})"

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
        _check_tensor(other)
        if self.dim != other.dim:
            raise ValenceError("tensor product requires equal dimensions")
        nums = [a * b for a in self.nums for b in other.nums]
        return Tensor.from_ints(self.variance + other.variance, self.dim, nums,
                                self.den * other.den)

    def contract_with(self, slot: int, other: "Tensor") -> "Tensor":
        """Contract self's slot against other's slot 0, of opposite variance.

        The result's slots are self's remaining slots followed by other's.
        """
        self._check_slot(slot)
        _check_tensor(other)
        other._check_slot(0)
        if other.dim != self.dim:
            raise ValenceError("contract_with requires equal dimensions")
        if other.variance[0] == self.variance[slot]:
            raise ValenceError("contract_with requires opposite variance")
        rank = self.rank
        letters = _word(range(rank + other.rank - 1))  # self's, then other's free ones
        x, free = letters[:rank], letters[rank:]
        sums = _index_plan(self.dim, x[:slot] + x[slot + 1:] + free, ((x, x[slot] + free),))
        variance = self.variance[:slot] + self.variance[slot + 1:]
        return Tensor.from_ints(variance + other.variance[1:], self.dim,
                                sums(self.nums, other.nums), self.den * other.den)

    def permute(self, order: Sequence[int]) -> "Tensor":
        """Reorder the slots: slot s of the result is slot order[s] of self."""
        order, identity = tuple(order), tuple(range(self.rank))
        if tuple(sorted(order)) != identity:
            raise ValenceError(f"{order!r} is not a permutation of the {self.rank} slots")
        if order == identity:
            return self
        t = Tensor.__new__(Tensor)  # reordered numerators are still canonical
        t._set(tuple(self.variance[s] for s in order), self.dim,
               _index_plan(self.dim, _word(order), ((_word(identity), None),))(self.nums),
               self.den)
        return t

    def apply_metric(self, matrix: "Tensor", slot: int) -> "Tensor":
        """Flip one slot's variance in place by contracting with g or g-inverse.

        matrix must be rank 2 with both slots DOWN (lowers an UP slot) or
        both UP (raises a DOWN slot); its first slot is the contracted one,
        and its second takes the flipped slot's place in one planned sum.
        """
        _check_tensor(matrix)
        if matrix.rank != 2 or matrix.dim != self.dim:
            raise ValenceError("metric must be a rank-2 tensor of equal dim")
        if matrix.variance == (DOWN, DOWN):
            self._check_slot(slot, UP)
        elif matrix.variance == (UP, UP):
            self._check_slot(slot, DOWN)
        else:
            raise ValenceError("metric slots must share variance")
        rank = self.rank
        x, flipped = _word(range(rank)), chr(rank)
        sums = _index_plan(self.dim, x[:slot] + flipped + x[slot + 1:], ((x, x[slot] + flipped),))
        variance = self.variance[:slot] + matrix.variance[1:] + self.variance[slot + 1:]
        return Tensor.from_ints(variance, self.dim, sums(self.nums, matrix.nums),
                                self.den * matrix.den)


def _packed(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """(nums, den) of the components p / q, one (p, q) with q > 0 per component:
    den is the lcm of the q and nums the numerators over it. Canonical when
    every pair is in lowest terms; Tensor.from_ints reduces any other."""
    nums, dens = zip(*pairs)
    den = lcm(*dens)
    if den != 1:
        nums = tuple(map(mul, nums, map(floordiv, repeat(den), dens)))
    return nums, den


def _check_tensor(other):
    if not isinstance(other, Tensor):
        raise ValenceError(f"expected Tensor, got {type(other).__name__}")


def _word(slots: Iterable[int]) -> str:
    """The index word of the slots, slot s read by the letter chr(s), so the
    words of any rank below chr's bound of 0x110000 have distinct letters."""
    return "".join(map(chr, slots))


def _gather(offsets: list) -> Callable[[tuple], tuple]:
    """The function reading a tuple's entries at offsets, as a tuple."""
    if len(offsets) == 1:  # itemgetter of one offset returns the entry itself
        return itemgetter(slice(offsets[0], offsets[0] + 1))
    return itemgetter(*offsets)


@functools.lru_cache(maxsize=256)
def _index_plan(n: int, out: str, terms: tuple, ordered: str = "") -> Callable[..., Iterable[int]]:
    """The planned sum `terms` in dimension n: the function of (x, y) whose
    result, an iterable, holds for each index of `out`, row-major, the sum of
    x[a] * y[b] over the terms and over every value of each term's summed
    letters, the ones `out` lacks.

    A term is an (x spec, y spec) pair. A spec is a word of index letters, its
    offset read row-major in dimension n, or (offset, word) for an operand at
    that offset of a concatenated x or y; a letter repeated in one word reads
    a diagonal. With every y spec None the sums are of x[a] alone and y is not
    read. The letters of `ordered`, all in `out`, run strictly increasing: only
    those indices are summed. The gathers, the products, the grouping and the
    sums run in C. The result is an iterator, except where each index of out
    has one x[a] and no y: then the plan is the gather itself and returns a
    tuple, so a permute is one itemgetter call.
    """
    rng = range(n)
    keep = repeat(True)  # whether each index of out, row-major, is summed
    if ordered:
        values = list(zip(*product(rng, repeat=len(out))))  # per letter of out
        keep = list(map(all, zip(*[map(lt, values[out.index(a)], values[out.index(b)])
                                   for a, b in zip(ordered, ordered[1:])])))
    runs, width = ([], []), 0  # per operand, per term: its offsets at each index of out
    for term in terms:
        specs = [(col, spec if type(spec) is tuple else (0, spec))
                 for col, spec in zip(runs, term) if spec is not None]
        summed = "".join(dict.fromkeys(c for _, (_, word) in specs for c in word if c not in out))
        for col, (offset, word) in specs:
            # At each index of out + summed, row-major: offset plus each
            # letter's value times its stride in word, built from the last letter.
            strides = dict.fromkeys(out + summed, 0)
            for p, c in enumerate(reversed(word)):
                strides[c] += n ** p
            offsets = [offset]
            for s in reversed(strides.values()):
                offsets = [o + t for t in range(0, n * s, s) for o in offsets] if s else offsets * n
            col.append(zip(*[iter(offsets)] * n ** len(summed)))
        width += n ** len(summed)
    xs, ys = (list(chain.from_iterable(chain.from_iterable(compress(zip(*col), keep))))
              for col in runs)
    if not xs:
        return lambda x, y=None: iter(())
    gx = _gather(xs)
    if not ys and width == 1:  # one x[a] per index of out: the gather itself
        return gx
    gy = _gather(ys) if ys else None

    def sums(x, y=None):
        products = iter(gx(x) if gy is None else map(mul, gx(x), gy(y)))
        return map(sum, zip(*[products] * width))
    return sums
