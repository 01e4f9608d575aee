"""One-variable truncated formal power series as plain coefficient lists.

A series is the list of its coefficients up to a fixed order N: slot n
holds the coefficient of x^n, and the maps below never look beyond N.
Coefficients can be any value supporting ``==``, truthiness, the class
methods ``zero``, ``one`` and ``dot`` (the sum of c a b over (c, a, b)
triples, c an int: every map builds each level as one ``dot``, and none
adds with ``+``), ``adams`` for the plethystic maps, and ``div`` (exact
division by an int, None on a remainder) for ``series_dexp``.  LaurentQA
from :mod:`lmov.qa` qualifies; so do PochFrac and, for a-free series,
PochRow (one packed sum per level) for the other maps, as slot n of each
list they build has x-degree n, so each ``dot`` is over one (q;q)_n.

A log is carried as its levels D_n = n [x^n] log S, the coefficients of
x d/dx log S: they have integer weights, so a reader divides once, where
it reads its table.  Each map takes one step: ``series_dlog`` from a
series to its levels and ``series_dexp`` back; ``plethystic_dlog`` from
levels to the plethystic levels g_m = m f_m and ``plethystic_dexp`` back.
``gwdt.ooguri_vafa`` and ``gwdt.dt_extract`` read their tables from the
``plethystic_dlog`` of their levels, through one extractor, and
``ooguri_vafa`` holds ``plethystic_dexp`` of the rebuilt g_m to the same
levels; ``lmov.verify`` round-trips each pair.  Only ``series_dexp``
divides, by n at level n, and returns None on a remainder;
``lmov.genus0`` runs the ``series_dlog`` recurrence on its int rows.
"""

from __future__ import annotations

from .arith import divisors, moebius


def series_dlog(s: list) -> list:
    """Levels D_n = n [x^n] log S of a series with constant term exactly one.

    D_n = n S_n - sum_{k<n} D_k S_(n-k) (x S' = S D): one ``dot`` per
    level, on integers whenever S has integer coefficients."""
    ring = type(s[0])
    one = ring.one()
    if s[0] != one:
        raise ValueError("series_dlog needs constant term 1")
    d = [ring.zero()]
    for n in range(1, len(s)):
        d.append(ring.dot([(n, s[n], one)] + [(-1, d[k], s[n - k]) for k in range(1, n)]))
    return d


def series_dexp(d: list) -> list | None:
    """Inverse of ``series_dlog``: E with E_0 = 1 from D with D_0 = 0, or
    None when some E_n is not integral.

    n E_n = sum_{k<=n} D_k E_(n-k) (x E' = D E): one ``dot`` and one
    ``div`` by n per level, whose None ends the map."""
    if d[0]:
        raise ValueError("series_dexp needs zero constant term")
    ring = type(d[0])
    out = [ring.one()]
    for n in range(1, len(d)):
        out.append(ring.dot([(1, d[k], out[n - k]) for k in range(1, n + 1)]).div(n))
        if out[-1] is None:
            return None
    return out


def plethystic_dlog(levels: list) -> list:
    """The levels D_0..D_N of Z = exp( sum_{m,d>=1} (1/d) adams_d(f_m) x^(dm) )
    to [g_1, ..., g_N], g_m = m f_m = sum_{d|m} moebius(d) adams_d(D_{m/d}):
    one ``dot`` per level."""
    ring = type(levels[0])
    one = ring.one()
    return [ring.dot([(moebius(d), levels[m // d].adams(d), one)
                      for d in divisors(m) if moebius(d)])
            for m in range(1, len(levels))]


def plethystic_dexp(gs: list) -> list:
    """Inverse of plethystic_dlog on [g_1, ..., g_N], N >= 1: the levels
    D_n = sum_{dm=n} adams_d(g_m), with D_0 = 0, one ``dot`` per level."""
    ring = type(gs[0])
    one = ring.one()
    return [ring.zero()] + [ring.dot([(1, gs[m - 1].adams(n // m), one) for m in divisors(n)])
                            for n in range(1, len(gs) + 1)]
