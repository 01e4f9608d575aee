"""Extremal BPS invariants of twist knots, certified integral.

The two framing regimes (p <= -1 and p >= 2) carry different sign
patterns and binomial families; p in {0, 1} is outside the family and
rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .arith import certified_int, divisors, moebius


def _validate(p: int, r: int) -> None:
    if p in (0, 1):
        raise ValueError("twist parameter p must satisfy p <= -1 or p >= 2")
    if r < 1:
        raise ValueError("twist order r must be >= 1")


def b_minus(p: int, r: int) -> int:
    """Bottom extremal invariant b^-_{K_p, r}."""
    _validate(p, r)
    total = 0
    for d in divisors(r):
        mu = moebius(r // d)
        if not mu:
            continue
        if p <= -1:
            total += mu * comb(3 * d - 1, d - 1)
        else:
            total += mu * (-1) ** ((d + 1) % 2) * comb(2 * d - 1, d - 1)
    return certified_int(Fraction(-total, r * r), f"b_minus(p={p}, r={r})")


def b_plus(p: int, r: int) -> int:
    """Top extremal invariant b^+_{K_p, r}."""
    _validate(p, r)
    total = 0
    for d in divisors(r):
        mu = moebius(r // d)
        if not mu:
            continue
        if p <= -1:
            total += mu * comb((2 * abs(p) + 1) * d - 1, d - 1)
        else:
            total += mu * (-1) ** (d % 2) * comb((2 * p + 2) * d - 1, d - 1)
    return certified_int(Fraction(total, r * r), f"b_plus(p={p}, r={r})")
