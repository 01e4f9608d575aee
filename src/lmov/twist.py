"""Extremal BPS invariants of twist knots, certified integral.

Both extremal invariants are numerical DT invariants of a loop quiver up
to sign (Kucharski-Reineke-Stosic-Sulkowski, arXiv:1707.02991), so each
is a sign and a loop count on ``arith.loop_quiver_dt``.  The two framing
regimes (p <= -1 and p >= 2) map to different loop counts; p in {0, 1}
is outside the family and rejected.
"""

from __future__ import annotations

from .arith import loop_quiver_dt


def _validate(p: int, r: int) -> None:
    if p in (0, 1):
        raise ValueError("twist parameter p must satisfy p <= -1 or p >= 2")
    if r < 1:
        raise ValueError("twist order r must be >= 1")


def b_minus(p: int, r: int) -> int:
    """Bottom extremal invariant b^-_{K_p, r}: -DT(3, r) for p <= -1 and
    (-1)^r DT(2, r) for p >= 2."""
    _validate(p, r)
    if p <= -1:
        return -loop_quiver_dt(3, r)
    return (-1) ** (r % 2) * loop_quiver_dt(2, r)


def b_plus(p: int, r: int) -> int:
    """Top extremal invariant b^+_{K_p, r}: DT(2|p|+1, r) for p <= -1 and
    (-1)^r DT(2p+2, r) for p >= 2."""
    _validate(p, r)
    if p <= -1:
        return loop_quiver_dt(-2 * p + 1, r)
    return (-1) ** (r % 2) * loop_quiver_dt(2 * p + 2, r)
