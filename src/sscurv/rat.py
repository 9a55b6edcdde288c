"""Exact rational scalars, the only number type in the engine core.

Backed by gmpy2.mpq when it is installed, otherwise by fractions.Fraction.
Both store lowest terms with a positive denominator, so every identity
check is an exact equality and both give the same report bytes. The engine
kernels use bool, +, -, * and == on them, and the fraction-free kernels also
read .numerator and .denominator and build results as Rat(p, q). mpq has all
of these, but the tests only exercise the fractions backend: gmpy2 is an
optional extra (pip install sscurv[gmpy2]) and its path is untested.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Iterable, Union

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

    Floats are rejected: the engine admits no rounding anywhere.
    """
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; rationals must be exact")
    if den is not None:
        if isinstance(den, float):
            raise TypeError(f"refusing float denominator {den!r}")
        return Rat(value, den)
    return Rat(value)


def common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Integers ints and one positive d with values[i] == ints[i] / d.

    d is the least common multiple of the denominators. The fraction-free
    kernels scale their inputs with this once, accumulate in plain ints and
    divide once per output component (over_denominator), in the spirit of
    Bareiss's fraction-free elimination (Math. Comp. 22, 1968).
    """
    values = list(values)
    d = 1
    for v in values:
        q = v.denominator
        if d % q:
            d = lcm(d, q)
    return [v.numerator * (d // v.denominator) if v else 0 for v in values], d


def over_denominator(ints: Iterable[int], d: int) -> list:
    """[x / d for x in ints] as reduced rationals; zeros are the shared ZERO."""
    return [Rat(x, d) if x else ZERO for x in ints]


def format_rat(x) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RAT_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")


def parse_rat(text: str) -> Rat:
    """Parse "p" or "p/q". Raises ValueError on anything else.

    Decimal and exponent forms are refused even when a backend could parse
    them; the interchange format carries integers and quotients only.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected rational string, got {type(text).__name__}")
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
