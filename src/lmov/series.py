"""One-variable truncated formal power series over an exact coefficient ring.

Coefficients can be any value supporting ``+``, ``-``, ``*``, ``scale``
(multiplication by an exact rational), ``is_zero`` and -- where the
plethystic operations are used -- ``adams``.  LaurentQA from
:mod:`lmov.qa` qualifies.  So does PochFrac, since these maps only add,
multiply, scale and take Adams operations: slot n of every series they
build holds a value of x-degree n, so the sums they form are always over
one (q;q)_n.

A log is carried as its levels D_n = n [x^n] log S, the coefficients of
x d/dx log S: they have integer weights, so a reader divides once, where
it reads its table; the 1/n of ``series_dexp`` is the one rational step.

``Series1`` stores a dense coefficient list up to a fixed order N and
carries no arithmetic of its own: the maps below read its coefficients
and never look beyond N.  There is no bivariate series; the annulus
kernel is a one-variable series after a substitution, and
``lmov.genus0`` runs the ``series_dlog`` recurrence on its int rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple

from .arith import divisors, moebius


class CoeffRing(NamedTuple):
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


def series_dlog(s: Series1) -> Series1:
    """Levels D_n = n [x^n] log S of a series with constant term exactly one.

    D_n = n S_n - sum_{k<n} D_k S_(n-k) (x S' = S D): O(N^2) ring
    products, on integers whenever S has integer coefficients."""
    if s.coeffs[0] != s.ring.one:
        raise ValueError("series_dlog needs constant term 1")
    d = [s.ring.zero]
    for n in range(1, s.order + 1):
        acc = s.ring.zero
        for k in range(1, n):
            if not d[k].is_zero() and not s.coeffs[n - k].is_zero():
                acc = acc + d[k] * s.coeffs[n - k]
        d.append(s.coeffs[n].scale(n) + acc.scale(-1))
    return Series1(s.ring, s.order, d)


def series_dexp(d: Series1) -> Series1:
    """Inverse of ``series_dlog``: E with E_0 = 1 from D with D_0 = 0.

    n E_n = sum_{k<=n} D_k E_(n-k) (x E' = D E): O(N^2) ring products."""
    if not d.coeffs[0].is_zero():
        raise ValueError("series_dexp needs zero constant term")
    out = [d.ring.one]
    for n in range(1, d.order + 1):
        acc = d.ring.zero
        for k in range(1, n + 1):
            if not d.coeffs[k].is_zero() and not out[n - k].is_zero():
                acc = acc + d.coeffs[k] * out[n - k]
        out.append(acc.scale(Fraction(1, n)))
    return Series1(d.ring, d.order, out)


def plethystic_dlog(z: Series1) -> list:
    """Degree-graded plethystic logarithm of a series with Z(0) = 1, as levels.

    Returns [g_1, ..., g_N], g_m = m f_m, where
    Z = exp( sum_{m>=1} sum_{d>=1} (1/d) adams_d(f_m) x^(d*m) ), computed
    as g_m = sum_{d|m} moebius(d) adams_d(D_{m/d}) from ``series_dlog``.
    """
    dz = series_dlog(z)
    out = []
    for m in range(1, z.order + 1):
        acc = z.ring.zero
        for d in divisors(m):
            mu = moebius(d)
            if mu:
                acc = acc + dz.coeffs[m // d].adams(d).scale(mu)
        out.append(acc)
    return out


def plethystic_dexp(gs: list, ring: CoeffRing, order: int) -> Series1:
    """Inverse of plethystic_dlog, through D_n = sum_{dm=n} adams_d(g_m)."""
    acc = [ring.zero for _ in range(order + 1)]
    for m, gm in enumerate(gs[:order], start=1):
        for d in range(1, order // m + 1):
            acc[d * m] = acc[d * m] + gm.adams(d)
    return series_dexp(Series1(ring, order, acc))
