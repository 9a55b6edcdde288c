"""Exact rational scalars, the only number type in the engine core.

Backed by gmpy2.mpq when it is installed, otherwise by fractions.Fraction.
Both store lowest terms with a positive denominator, so every identity
check is an exact equality and both give the same report bytes. The engine
kernels use only bool, +, -, * and == on them, which both types provide.
"""

from __future__ import annotations

import re
from typing import Union

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
