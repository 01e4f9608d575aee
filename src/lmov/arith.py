"""Number-theoretic and combinatorial primitives.

Everything is exact integer arithmetic; trial division is plenty at the
scales the invariant tables need (n well below 10^6).  This module is the
leaf of the package: it imports nothing from lmov, so every layer above
can share ``TheoremViolation``, ``certified_div`` and ``div_one_minus``,
the exact division by 1 - x^k behind every geometric factor of the row
kernels.  A refused division is ``None``, as ``div_one_minus`` returns
it; each caller decides whether that is a ``TheoremViolation`` or a
failure record.
"""

from __future__ import annotations

from fractions import Fraction  # at import: see ROADMAP on perfbench's request clock
from functools import cache
from itertools import accumulate
from math import comb, isqrt


class TheoremViolation(AssertionError):
    """A certified-integral quantity came out non-integral.

    Raised only for statements proved in the underlying theory; reaching
    this is a bug in the implementation, never expected data.
    """


def ratio_text(num: int, den: int) -> str:
    """num/den (den > 0, not dividing num) in lowest terms, the sign on the
    numerator: the text of a failed division."""
    return str(Fraction(num, den))


def certified_div(num: int, den: int, what: str, *args) -> int:
    """num / den (den > 0) by one divmod; a remainder is a TheoremViolation
    naming ``what.format(*args)``, formatted only then."""
    q, r = divmod(num, den)
    if r:
        raise TheoremViolation(f"{what.format(*args)} is not an integer: {ratio_text(num, den)}")
    return q


def div_one_minus(row: list, k: int) -> list | None:
    """The quotient of the dense row (consumed) by 1 - x^k (k >= 1), of
    length len(row) - k, or None when the division leaves a remainder.

    The quotient h has h[e] = row[e] + h[e - k]: one running sum over each
    residue class mod k.  Summed to the end, the row's last k entries are
    the remainder, which must be zero."""
    for r in range(k):
        row[r::k] = accumulate(row[r::k])
    cut = max(len(row) - k, 0)
    if any(row[cut:]):
        return None
    del row[cut:]
    return row


@cache
def moebius(n: int) -> int:
    """Moebius function; n must be a positive integer."""
    if n < 1:
        raise ValueError("moebius is defined for positive integers")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        else:
            p += 1 if p == 2 else 2
    if n > 1:
        out = -out
    return out


@cache
def divisors(n: int) -> tuple[int, ...]:
    """Ascending tuple of the positive divisors of n (n >= 1)."""
    if n < 1:
        raise ValueError("divisors is defined for positive integers")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return tuple(small + large[::-1])


def binomial_ext(n: int, k: int) -> int:
    """Binomial coefficient extended to every integer n via the falling
    factorial n(n-1)...(n-k+1)/k!: ``math.comb`` for n >= 0, and for n < 0
    the reflection (-1)^k * binomial(k-n-1, k)."""
    if k < 0:
        raise ValueError("binomial_ext needs k >= 0")
    if n >= 0:
        return comb(n, k)
    c = comb(k - n - 1, k)
    return -c if k & 1 else c


def loop_quiver_dt(m: int, n: int) -> int:
    """Numerical DT invariant of the m-loop quiver in dimension n, certified
    integral: Reineke's (1/n^2) sum_{d|n} mu(n/d) (-1)^((m-1)(n-d))
    C(md-1, d-1) (arXiv:1102.3978)."""
    total = 0
    for d in divisors(n):
        mu = moebius(n // d)
        if mu:
            total += mu * (-1) ** ((m - 1) * (n - d) % 2) * comb(m * d - 1, d - 1)
    return certified_div(total, n * n, "DT of the {}-loop quiver at n={}", m, n)


def qbinomial_step(row: list, a: int, j: int, n: int) -> list:
    """The dense row (1 - q^a) / (1 - q^j), one step of a q-binomial product
    recurrence that gives [n, j]; a remainder is a TheoremViolation."""
    p = row + [0] * a
    p[a:] = [x - y for x, y in zip(p[a:], row)]
    out = div_one_minus(p, j)
    if out is None:
        raise TheoremViolation(f"[{n}, {j}] is not a polynomial")
    return out


def gaussian_binomial(m: int, r: int) -> list[int]:
    """q-binomial coefficient as a dense list of coefficients of q^0..q^d.

    Computed by the product recurrence
    [m, j] = [m, j-1] (1 - q^(m-j+1)) / (1 - q^j) for j = 1..min(r, m-r):
    each step is one multiply by 1 - q^a and one ``div_one_minus`` by
    1 - q^j (``qbinomial_step``), so [m, 0] = [m, m] = [1] costs nothing.
    """
    if r < 0 or m < 0:
        raise ValueError("gaussian_binomial needs m, r >= 0")
    if r > m:
        raise ValueError("gaussian_binomial needs r <= m")
    out = [1]
    for j in range(1, min(r, m - r) + 1):
        out = qbinomial_step(out, m - j + 1, j, m)
    return out
