"""Exact rational scalars, the only number type in the engine core.

Backed by gmpy2.mpq when it is installed, otherwise by fractions.Fraction.
Both store lowest terms with a positive denominator, so every identity
check is an exact equality and both give the same report bytes. The engine
uses bool, +, -, * and == on them; tensor, which stores components as
integers over one denominator, also reads .as_integer_ratio(), .numerator
and .denominator and builds one component at a time as Rat(p, q). mpq has
all of these, but the tests only exercise the fractions backend: gmpy2 is
an optional extra (pip install sscurv[gmpy2]) and its path is untested.

One pattern, _RAT_RE, decides every rational literal the engine reads, and
read_rat_pair alone applies it: it reads a literal, or a bare int, to its
integers (p, q) as written, so a loader can put a whole array over one
denominator (tensor packs it) without building a Rat per entry; parse_rat
is Rat of that pair. read_int reads each decimal integer, the digits of a
literal and every integer of a JSON file alike. format_rats is the one
writer of canonical rational strings: a tensor's numerators over its
denominator in one call, and through format_rat a single scalar by the same
rule. Reader and writer stay exact past CPython's limit on int/str
conversion (sys.get_int_max_str_digits) by going through decimal, which has
no such limit, for numbers that long only; the interpreter's setting is
left as it is.
"""

from __future__ import annotations

import re
from decimal import Decimal  # fractions imports it too, so this costs no start-up time
from math import gcd
from typing import Sequence, Union

try:
    from gmpy2 import mpq as Rat

    RAT_BACKEND = "gmpy2"
except ImportError:  # gmpy2 is not installed everywhere; Fraction is always there
    from fractions import Fraction as Rat

    RAT_BACKEND = "fractions"

RatLike = Union["Rat", int, str]

ZERO = Rat(0)
ONE = Rat(1)


def rat(value: RatLike = 0, den: int | None = None) -> Rat:
    """Build an exact rational from an int, a "p/q" string, or another Rat.

    A Rat (of exactly that type) comes back unchanged; rebuilding it would
    cost a conversion through the numbers.Rational protocol. A string goes
    through parse_rat, so it is read as the interchange format reads it.
    Floats are rejected: the engine admits no rounding anywhere.
    """
    if type(value) is Rat and den is None:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; rationals must be exact")
    if den is not None:
        if isinstance(den, float):
            raise TypeError(f"refusing float denominator {den!r}")
        return Rat(value, den)
    if isinstance(value, str):
        return parse_rat(value)
    return Rat(value)


def format_rats(nums: Sequence[int], den: int) -> list[str]:
    """The canonical strings of p / den for each integer p (den > 0).

    The one writer of rationals: "p" when the quotient is an integer, else
    the lowest-terms "p/q". One call covers a whole tensor's numerators.
    """
    try:
        if den == 1:
            return list(map(str, nums))
        return [str(p // den) if (g := gcd(p, den)) == den else f"{p // g}/{den // g}"
                for p in nums]
    except ValueError:  # a number past the int/str digit limit: write it all through decimal
        return [_digits(p // den) if (g := gcd(p, den)) == den
                else f"{_digits(p // g)}/{_digits(den // g)}" for p in nums]


def _digits(p: int) -> str:
    """str(p), for an int of any length."""
    return format(Decimal(int(p)), "f")


def format_rat(x) -> str:
    """The canonical string of one Rat or int, by the rule of format_rats."""
    return format_rats((x.numerator,), x.denominator)[0]


_RAT_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def read_int(digits: str) -> int:
    """int(digits) for a decimal integer of any length: int first, and decimal,
    which has no int/str digit limit, only for a number past it."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def read_rat_pair(value) -> tuple[int, int] | None:
    """(p, q) of a "p" or "p/q" literal as written, q > 0 and not reduced, or
    (value, 1) of a bare int; None for a bool or any other type, a text the
    pattern refuses, or q = 0."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, str):
        return None
    m = _RAT_RE.match(value.strip())
    if m is None:
        return None
    p, q = m.groups()
    q = read_int(q) if q else 1
    return (read_int(p), q) if q else None


def parse_rat(text: str) -> Rat:
    """Parse "p" or "p/q", q unsigned and nonzero. Raises ValueError otherwise.

    The pattern, not the backend, decides: decimal and exponent forms, a
    signed q and non-ASCII digits are refused even where a backend parses
    them; the interchange format carries integers and quotients only.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected rational string, got {type(text).__name__}")
    pair = read_rat_pair(text)
    if pair is None:
        raise ValueError(f"not a rational literal: {text.strip()!r}")
    return Rat(*pair)
