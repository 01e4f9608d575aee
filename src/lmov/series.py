"""One-variable truncated formal power series over an exact coefficient ring.

Coefficients can be any value supporting ``+``, ``-``, ``*``, ``scale``
(multiplication by an exact rational), ``is_zero`` and -- where the
plethystic operations are used -- ``adams``.  LaurentQA from
:mod:`lmov.qa` qualifies.  So does PochFrac for ``series_log``,
``series_exp`` and ``plethystic_log``, which only add, multiply, scale
and take Adams operations: slot n of every series they build holds a
value of x-degree n, so the sums they form are always over one (q;q)_n.

``Series1`` stores a dense coefficient list up to a fixed order N and
carries no arithmetic of its own: the log, exp and plethystic maps below
read its coefficients and never look beyond N.  There is no bivariate
series; the annulus kernel is a one-variable series after a substitution,
and ``lmov.genus0`` runs the ``series_log`` recurrence on its int rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .arith import divisors, moebius


@dataclass(frozen=True)
class CoeffRing:
    """Zero and one of the coefficient ring, for seeding folds."""

    zero: Any
    one: Any


class Series1:
    """Power series in one variable, truncated at degree ``order``."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: CoeffRing, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs or [])
        cs = cs[: order + 1]
        cs += [ring.zero] * (order + 1 - len(cs))
        self.ring = ring
        self.order = order
        self.coeffs = cs

    def coeff(self, n: int):
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        return (
            isinstance(other, Series1)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )


def series_log(s: Series1) -> Series1:
    """log of a series with constant term exactly one, truncated alike.

    D_n = n L_n obeys D_n = n S_n - sum_{k<n} D_k S_(n-k) (x S' = S x L'):
    O(N^2) ring products, on integers whenever S has integer coefficients."""
    if s.coeffs[0] != s.ring.one:
        raise ValueError("series_log needs constant term 1")
    d = [s.ring.zero]
    for n in range(1, s.order + 1):
        acc = s.ring.zero
        for k in range(1, n):
            if not d[k].is_zero() and not s.coeffs[n - k].is_zero():
                acc = acc + d[k] * s.coeffs[n - k]
        d.append(s.coeffs[n].scale(n) + acc.scale(-1))
    logs = [c.scale(Fraction(1, n)) for n, c in enumerate(d) if n]
    return Series1(s.ring, s.order, [s.ring.zero] + logs)


def series_exp(s: Series1) -> Series1:
    """exp of a series with zero constant term, truncated alike.

    n E_n = sum_{k<=n} D_k E_(n-k), D_k = k S_k (x E' = x S' E): O(N^2)
    ring products."""
    if not s.coeffs[0].is_zero():
        raise ValueError("series_exp needs zero constant term")
    d = [c.scale(k) for k, c in enumerate(s.coeffs)]
    out = [s.ring.one]
    for n in range(1, s.order + 1):
        acc = s.ring.zero
        for k in range(1, n + 1):
            if not d[k].is_zero() and not out[n - k].is_zero():
                acc = acc + d[k] * out[n - k]
        out.append(acc.scale(Fraction(1, n)))
    return Series1(s.ring, s.order, out)


def plethystic_log(z: Series1) -> list:
    """Degree-graded plethystic logarithm of a series with Z(0) = 1.

    Returns [f_1, ..., f_N] with
    Z = exp( sum_{m>=1} sum_{d>=1} (1/d) adams_d(f_m) x^(d*m) ),
    computed as f_m = sum_{d|m} (moebius(d)/d) adams_d(F_{m/d}) from the
    ordinary logarithm F.
    """
    logz = series_log(z)
    n = z.order
    out = []
    for m in range(1, n + 1):
        acc = z.ring.zero
        for d in divisors(m):
            mu = moebius(d)
            if mu:
                acc = acc + logz.coeffs[m // d].adams(d).scale(Fraction(mu, d))
        out.append(acc)
    return out


def plethystic_exp(fs: list, ring: CoeffRing, order: int) -> Series1:
    """Inverse of plethystic_log: rebuild Z from [f_1, ..., f_M]."""
    acc = [ring.zero for _ in range(order + 1)]
    for m, fm in enumerate(fs, start=1):
        if m > order:
            break
        for d in range(1, order // m + 1):
            acc[d * m] = acc[d * m] + fm.adams(d).scale(Fraction(1, d))
    return series_exp(Series1(ring, order, acc))
