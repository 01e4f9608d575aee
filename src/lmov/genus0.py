"""Genus-zero framed-unknot invariants: disc, annulus, multi-hole.

The disc and annulus tables come with two independent routes:

* closed combinatorial formulas (``disc_c``, ``annulus_top_closed_form``);
* the mirror-curve series Y = X (1-Y)^tau (1 - a(1-Y)), expanded with the
  generic functional-equation solver and log machinery.

Single-cover invariants are recovered by Moebius inversion over common
divisors and certified integral where the underlying statement is a
theorem; elsewhere the tables carry an integrality flag instead.

Index conventions (fixed here once and used by the CLI and tests):
the annulus coefficient table is indexed by the raw a-exponent l of the
X-kernel log, 0 <= l <= m1+m2.  The closed-form / certified-integral
slice sits at l = m1 + m2 (the top a-degree; equivalently charge
Q = (m1+m2)/2 after restoring x = (-1)^tau a^(1/2) X).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import Report, TheoremViolation, binomial_ext, certified_int, divisors, moebius
from .partitions import Partition, parts_gcd, scale_down
from .qa import ExactDivisionError, LaurentQA, exact_div
from .series import CoeffRing, Series1, Series2, series2_log, series_log, solve_functional


# ---------------------------------------------------------------------------
# disc (one hole, genus 0)
# ---------------------------------------------------------------------------

def disc_c(m: int, l: int, tau: int) -> Fraction:
    """Multi-cover disc coefficient c_{m,l}(tau)."""
    if m < 1:
        raise ValueError("disc_c needs m >= 1")
    if not 0 <= l <= m:
        raise ValueError("disc_c needs 0 <= l <= m")
    sign = -((-1) ** ((m * tau + m + l) % 2))
    return Fraction(
        sign * binomial_ext(m, l) * binomial_ext(m * tau + l - 1, m - 1), m * m
    )


def disc_n(m: int, l: int, tau: int) -> int:
    """Single-cover disc invariant n_{m,l}(tau), certified integral."""
    if m < 1:
        raise ValueError("disc_n needs m >= 1")
    if not 0 <= l <= m:
        raise ValueError("disc_n needs 0 <= l <= m")
    g = gcd(m, l)  # gcd(m, 0) = m, so l = 0 sums over all divisors of m
    total = Fraction(0)
    for d in divisors(g):
        mu = moebius(d)
        if mu:
            total += Fraction(mu, d * d) * disc_c(m // d, l // d, tau)
    return certified_int(total, f"n_({m},{l})(tau={tau})")


_A = LaurentQA.monomial(v=2)  # the variable a
_LRING = CoeffRing(zero=LaurentQA.zero(), one=LaurentQA.one())


def _mirror_phi(tau: int, order: int):
    """phi(Y) = (1-Y)^tau * (1 - a(1-Y)) acting on truncated series."""

    def phi(y: Series1) -> Series1:
        one = Series1.constant(_LRING, order)
        s = one - y  # 1 - Y
        p = s.pow_int(tau)
        return p * (one - s.mul_coeff(_A))

    return phi


@lru_cache(maxsize=None)
def mirror_series(tau: int, order: int) -> Series1:
    """Y(X) solving Y = X (1-Y)^tau (1 - a(1-Y)), truncated at ``order``."""
    return solve_functional(_mirror_phi(tau, order), _LRING, order)


def disc_series_check(tau: int, max_m: int) -> Report:
    """Check the mirror-curve series route against -c_{m,l} for m <= max_m.

    Expands log(1 - Y(X)), integrates termwise (X^m coefficient divided
    by m), restores x = (-1)^tau a^(1/2) X, and compares the coefficient
    of x^m a^(l - m/2) with -c_{m,l}(tau) for all 0 <= l <= m.
    """
    if max_m < 1:
        raise ValueError("disc_series_check needs max_m >= 1")
    rep = Report("disc-series", {"tau": tau, "max_m": max_m})
    y = mirror_series(tau, max_m)
    one = Series1.constant(_LRING, max_m)
    logy = series_log(one - y)
    for m in range(1, max_m + 1):
        coeff = logy.coeff(m).scale(Fraction(1, m))
        # x-coordinates: multiply by (-1)^(m*tau); a-exponent l is raw v/2
        sign = (-1) ** ((m * tau) % 2)
        for l in range(0, m + 1):
            got = Fraction(coeff.coeff(0, 2 * l)) * sign
            want = -disc_c(m, l, tau)
            if got != want:
                rep.failures.append({"m": m, "l": l, "got": got, "want": want})
        extra = [
            (u, v)
            for (u, v), _ in coeff.items()
            if u != 0 or v < 0 or v > 2 * m or v % 2
        ]
        if extra:
            rep.failures.append({"m": m, "unexpected_support": extra})
    return rep


# ---------------------------------------------------------------------------
# annulus (two holes, genus 0)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _annulus_log(tau: int, order: int) -> Series2:
    """log of the normalized Bergmann kernel (Y(X2)-Y(X1))/(X2-X1)/(1-a)."""
    y = mirror_series(tau, order + 1)
    b1 = y.coeff(1)  # equals 1 - a
    kern: dict = {}
    level = {}
    for n in range(order + 1):
        try:
            level[n] = exact_div(y.coeff(n + 1), b1)
        except ExactDivisionError as e:
            raise TheoremViolation(
                f"Y_{n + 1} of the mirror curve not divisible by 1 - a "
                f"(tau={tau}, order={order}, n={n})"
            ) from e
    for i in range(order + 1):
        for j in range(order + 1 - i):
            kern[(i, j)] = level[i + j]
    return series2_log(Series2(_LRING, order, kern))


def annulus_c(m1: int, m2: int, tau: int, order: int | None = None) -> dict:
    """Annulus multi-cover coefficients {l: c_{(m1,m2),l}} from the kernel log.

    l runs over raw a-exponents, 0 <= l <= m1+m2.  ``order`` caps the
    kernel truncation; m1+m2 beyond it is rejected.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("annulus_c needs m1, m2 >= 1")
    n = m1 + m2
    if order is None:
        order = n
    if n > order:
        raise ValueError(f"m1+m2 = {n} exceeds configured truncation {order}")
    logk = _annulus_log(tau, order)
    coeff = logk.coeff(m1, m2)
    out: dict = {}
    for (u, v), c in coeff.items():
        if u != 0 or v % 2:
            raise TheoremViolation(
                "annulus kernel coefficient is not an a-polynomial "
                f"(tau={tau}, m1={m1}, m2={m2})"
            )
        out[v // 2] = Fraction(c)
    return out


def annulus_top_closed_form(m1: int, m2: int, tau: int) -> Fraction:
    """Closed form for the top slice l = m1+m2 of c_{(m1,m2)}."""
    return Fraction(
        binomial_ext(m1 * tau + m1 - 1, m1) * binomial_ext(m2 * tau + m2, m2),
        m1 + m2,
    )


def annulus_n(m1: int, m2: int, l: int, tau: int, order: int | None = None):
    """Single-cover annulus invariant n_{(m1,m2),l}(tau).

    Returns (value, certified) where ``certified`` marks the top slice
    l = m1+m2, whose integrality is a theorem and is enforced.
    """
    if l < 0:
        raise ValueError("annulus_n needs l >= 0")
    g = gcd(gcd(m1, m2), l)
    total = Fraction(0)
    for d in divisors(g):
        mu = moebius(d)
        if not mu:
            continue
        sign = (-1) ** (((m1 + m2) * tau // d) % 2)
        cmap = annulus_c(m1 // d, m2 // d, tau, order)
        total += Fraction(mu, d) * sign * cmap.get(l // d, Fraction(0))
    certified = l == m1 + m2
    if certified:
        return certified_int(total, f"n_(({m1},{m2}),{l})(tau={tau})"), True
    return total, Fraction(total).denominator == 1


# ---------------------------------------------------------------------------
# multi-hole (>= 3 holes, genus 0, top charge)
# ---------------------------------------------------------------------------

def multihole_K(mu: Partition, tau: int) -> int:
    """Top-charge multi-cover invariant for a partition with >= 3 parts."""
    if len(mu) < 3:
        raise ValueError("multihole_K needs l(mu) >= 3")
    size = sum(mu)
    length = len(mu)
    out = (-1) ** ((size * tau) % 2) * (tau * (tau + 1)) ** (length - 1)
    for p in mu:
        out *= binomial_ext(p * (tau + 1) - 1, p - 1)
    out *= size ** (length - 3)
    return out


def multihole_n(mu: Partition, tau: int) -> int:
    """Single-cover multi-hole invariant via Moebius inversion over d | mu.

    The divisor weight d^(l-3) matches the genus-0 multiple-cover sum
    K = (-1)^l sum_d d^(l-3) n(mu/d), making the two exact inverses.
    """
    if len(mu) < 3:
        raise ValueError("multihole_n needs l(mu) >= 3")
    length = len(mu)
    total = 0
    for d in divisors(parts_gcd(mu)):
        m = moebius(d)
        if not m:
            continue
        scaled = scale_down(mu, d)
        total += m * d ** (length - 3) * multihole_K(scaled, tau)
    return (-1) ** (length % 2) * total


def multihole_cover_check(mu: Partition, tau: int) -> bool:
    """Round trip: K recovered from n through the genus-0 cover sum."""
    length = len(mu)
    acc = 0
    for d in divisors(parts_gcd(mu)):
        scaled = scale_down(mu, d)
        acc += d ** (length - 3) * multihole_n(scaled, tau)
    return multihole_K(mu, tau) == (-1) ** (length % 2) * acc
