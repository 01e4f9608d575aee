"""The slow reference: generic rational functions of q with a gcd normal form.

``RationalQ`` (a gcd-reduced num/den pair on the q^(1/2) lattice) and
``RationalQA`` (an a-graded map to RationalQ) never assume a denominator.
The tests check the library's known-denominator coefficients
(``lmov.qa.PochFrac``), and the pipelines built on them, against them:
``as_rational`` converts a PochFrac, and below it are the colored-row
oracles (``unknot_row``, ``framed_row``, ``cal_z``, ``g_m``) and the OV,
DT and general-partition pipelines computed over RationalQ / RationalQA.

The ``LaurentQA`` product is checked against ``laurent_mul``, the
schoolbook convolution of dense 2-D coefficient grids, which shares no
code or data structure with the library's dict loop.  The library's
integer fast paths are checked against the slow routines they replaced,
kept here verbatim: the colored sum over all p(m) partitions
(``cal_z_cleared``, on the quantum ratios {k n}/{n} of ``quantum_ratio``),
the q-Pascal ``gaussian_binomial``, the dict-loop ``to_z_basis`` (which
raises its own ``ZBasisError`` where the library returns None) and the
top-down half-list ``z2_rewrite`` on its binomial table
``z2_power_dense``, the geometric-sum multiply ``times_geometric`` by one
``dense_div`` (the long division by any divisor, which also checks
``arith.div_one_minus``), the list-row ``colored_sum`` and ``annulus_log``
recurrences that the packed rows replaced, on the running-sum multiply
``geometric_row``, the one-hole chain on LaurentQA (the double-loop
``cal_z_closed_form``, ``g_m_cleared``, and ``z2_g_m``, one general
``exact_div`` by ``_cleared_divisor``) and the power-sum
``series_log`` / ``series_exp``, built on the sum, product and scale of
coefficient lists (``series_add``, ``series_mul``, ...; a LaurentQA
coefficient sums through ``helpers.lsum``), with the plethystic log
``plethystic_log`` on its Fraction weights moebius(d)/d, against the
library's integral levels m f_m.  The genus-zero closed forms
are checked against the generic machinery they replaced: the fixed-point
solver ``solve_functional`` (with the series power, inverse and shift it
needs) behind ``mirror_series``, the general-divisor ``exact_div`` that
divided its coefficients by 1 - a (and that checks the library's
``exact_div`` by factors 1 - q^i), and the bivariate ``Series2`` (which
carries its ring's zero) with its ``series2_log``, the annulus kernel log before the substitution
X2 = t X1.  The twist-knot invariants are checked against their binomial
sums (``b_minus``, ``b_plus``) from before ``arith.loop_quiver_dt``.
The genus-zero Moebius sums, one integer numerator and one exact divmod
in the library, are checked against the sums of Fractions they replaced
(``disc_n``, ``annulus_n``, with ``certified_int``, and the Fraction maps
``disc_c`` and ``annulus_c``; ``disc_c`` reads ``genus0.binomial_ext``, so
that a test that patches it reaches both sums), the packed disc-series
oracle against its LaurentQA form (``disc_series_check``, levels by
``series_dlog``), and the library's ``math.comb``
``binomial_ext`` against the falling factorial.  The row numerator ``_row_numerator`` behind
``unknot_row`` gives ``recursion_pair``, the full-row sides of the framed
row recursion that the library reduced to their 2-term core.
The general-partition log coefficient ``f_mu`` is the sum over the
multiset decompositions of mu that ``_multiset_decompositions`` enumerates,
the expansion the library's sub-multiset recurrence replaced.  Its
``cal_z_partition`` is the double character sum over (lam, sigma) of
``_phi``, with 1/z_sigma weights, that the library's hook-content sum over
lam replaced; ``cal_z_sigma_sum`` is the same sum on numerators over
(q;q)_|nu|, fast enough to sweep every |nu| <= 6.
The command-line scan ``lmov.cli.parse_args`` is checked against the
argparse parser it replaced, ``argparse_parser``, built as before with
its validators ``_int_in`` and ``_out_path``.
The one-pass ``lmov.io`` writers are checked against the stdlib
serialisers they replaced: ``json_bytes``, ``json.dumps(...,
sort_keys=True, indent=2)`` of a copy with every tuple turned into a
list (``_jsonify``), and ``table_bytes``, whose
CSV lines each merge the head, the row and one entry into a dict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Callable, Mapping

from helpers import a_row, a_slices, lsum, poch_frac, quantum_int_a, quantum_prod
from lmov import cli, genus0
from lmov.arith import TheoremViolation, div_one_minus, divisors, moebius
from lmov.genus0 import _annulus_column
from lmov.partitions import (
    Partition,
    kappa,
    mn_character,
    parts_gcd,
    partitions_of,
    scale_down,
    z_factor,
)
from lmov.qa import LaurentQA, PochFrac, PochRow, one_minus_q_prod, quantum_int
from lmov.series import series_dlog


class NotDivisible(ArithmeticError):
    """A reference division was not exact.  The library returns None there;
    the oracle raises, so that a caller that expects a quotient fails loudly."""


class ZBasisError(ValueError):
    """Input is not a polynomial in z^2 over a^(1/2)-monomials.  The library's
    ``to_z_basis`` returns None there; the oracle raises, with the reason."""


Rat = int | Fraction


def _norm_c(c):
    # canonical scalar: collapse integral Fractions to int
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


# ---------------------------------------------------------------------------
# the slow routines behind the integer fast paths
# ---------------------------------------------------------------------------


def _grid(f: LaurentQA):
    """f as a dense list of u-rows of v-coefficients, from (u0, v0)."""
    us = [u for (u, _), _ in f.items()]
    vs = [v for (_, v), _ in f.items()]
    u0, v0 = min(us), min(vs)
    grid = [[0] * (max(vs) - v0 + 1) for _ in range(max(us) - u0 + 1)]
    for (u, v), c in f.items():
        grid[u - u0][v - v0] = c
    return grid, u0, v0


def laurent_mul(f: LaurentQA, g: LaurentQA) -> LaurentQA:
    """f * g by the schoolbook convolution of their dense 2-D coefficient
    grids: every pair of grid cells, zero or not, adds its product into
    the cell at the sum of their offsets."""
    if not f or not g:
        return LaurentQA.zero()
    fg, fu, fv = _grid(f)
    gg, gu, gv = _grid(g)
    width = len(fg[0]) + len(gg[0]) - 1
    out = [[0] * width for _ in range(len(fg) + len(gg) - 1)]
    for i, frow in enumerate(fg):
        for j, c in enumerate(frow):
            for k, grow in enumerate(gg):
                orow = out[i + k]
                for l, e in enumerate(grow):
                    orow[j + l] += c * e
    return LaurentQA(
        {(fu + gu + i, fv + gv + j): c for i, row in enumerate(out) for j, c in enumerate(row)}
    )


def quantum_ratio(k: int, n: int) -> LaurentQA:
    """{k*n}/{n} as a Laurent polynomial, valid for every integer k, n.

    For n != 0 this is sign(k) * sum_{j<|k|} q^(n(|k|-1-2j)/2); at n = 0 it
    is the algebraic limit, the constant k.  Vanishes when k = 0.
    """
    if k == 0:
        return LaurentQA.zero()
    s = 1
    if k < 0:
        k, s = -k, -1
    if n == 0:
        return LaurentQA.monomial(c=s * k)
    return LaurentQA._make({(n * (k - 1 - 2 * j), 0): s for j in range(k)})


def _slice_to_dense(sl: dict) -> tuple:
    # {u: c} as (lo, dense list from q^(lo/2))
    lo = min(sl)
    dense = [0] * (max(sl) - lo + 1)
    for u, c in sl.items():
        dense[u - lo] = c
    return lo, dense


def dense_div(f_lo: int, f: list, g_lo: int, g: list):
    """Exact Laurent division of dense q-slices by any nonzero divisor, by
    long division on Fractions from the top; (lo, coeffs) or None.  f is
    consumed; the quotient's integral coefficients are ints."""
    while f and not f[-1]:
        f.pop()
    while f and not f[0]:
        f.pop(0)
        f_lo += 1
    if not f:
        return 0, []
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return None
    q = [0] * (len(f) - dg)
    r = list(f)
    glead = Fraction(g[-1])
    for i in range(len(f) - 1 - dg, -1, -1):
        c = r[i + dg]
        if not c:
            continue
        t = Fraction(c) / glead
        q[i] = _norm_c(t)
        for j, gc in enumerate(g):
            r[i + j] -= t * gc
    if any(r[:dg]):
        return None
    return f_lo - g_lo, q


def times_geometric(row: list, step: int, count: int) -> tuple:
    """The dense row times 1 + x^step + ... + x^(step (count - 1)), as
    ``dense_div`` returns it: the row times 1 - x^(step count), divided
    exactly by 1 - x^step."""
    f = row + [0] * (step * count)
    f[step * count :] = [x - y for x, y in zip(f[step * count :], row)]
    return dense_div(0, f, 0, [1] + [0] * (step - 1) + [-1])


def geometric_row(row: list, step: int, count: int) -> list:
    """The dense row times 1 + x^step + ... + x^(step (count - 1)), of
    length len(row) + step (count - 1): the row times 1 - x^(step count),
    divided exactly by 1 - x^step (``div_one_minus``)."""
    f = row + [0] * (step * count)
    f[step * count :] = [x - y for x, y in zip(f[step * count :], row)]
    return div_one_minus(f, step)


def colored_sum(m: int, tau: int) -> LaurentQA:
    """``lmov.onehole.colored_sum`` on list rows: the exp recurrence
    E_n = sum_k f_k (n-1)!/(n-k)! E_(n-k) on one int list per a-slice, each
    row of E_(n-k) times {m tau k}/{k} by ``geometric_row``."""
    length = m * abs(tau)
    e = [{0: [1]}]
    for n in range(1, m + 1):
        acc: dict = {}
        zero = [0] * ((length - 1) * n + 1)
        falling = 1 if tau > 0 else -1  # sign(tau) (n-1)!/(n-k)!
        for k in range(1, n + 1):
            for v, row in e[n - k].items():
                h = geometric_row(row, k, length)
                for w, c in ((v + k, falling), (v - k, -falling)):
                    acc[w] = [x + c * y for x, y in zip(acc.get(w, zero), h)]
            falling *= n - k
        e.append(acc)
    fact, sign, out = factorial(m), (-1) ** ((m * tau) % 2), {}
    for v, row in e[m].items():
        for i, c in enumerate(row):
            quo, rem = divmod(sign * c, fact)
            out[(-(length - 1) * m + 2 * i, v)] = Fraction(sign * c, fact) if rem else quo
    return LaurentQA(out)


def annulus_log(tau: int, order: int) -> list:
    """``lmov.genus0._annulus_log`` on list rows: D_n = n S_n - sum_(0<k<n)
    D_k S_(n-k), one int t-list per a-exponent, each row of D_k times
    1 + ... + t^(n-k) by ``geometric_row``."""
    kern = [genus0.kernel_level(tau, n) for n in range(order + 1)]
    d: list = [{}]
    for n in range(1, order + 1):
        acc = {l: [n * c] * (n + 1) for l, c in enumerate(kern[n]) if c}
        zero = [0] * (n + 1)
        for k in range(1, n):
            w = n - k
            for l, row in d[k].items():
                h = geometric_row(row, 1, w + 1)
                for i, c in enumerate(kern[w]):
                    if c:
                        acc[l + i] = [x - c * y for x, y in zip(acc.get(l + i, zero), h)]
        d.append(acc)
    return d


@lru_cache(maxsize=None)
def z2_power_dense(k: int) -> tuple:
    # (z^2)^k = (q^(1/2) - q^(-1/2))^(2k): entry e is its coefficient of q^(+-e)
    return tuple((-1) ** (k + e) * comb(2 * k, k + e) for e in range(k + 1))


def z2_rewrite(h: list) -> list:
    """The pairs (g, c) with sum c (z^2)^g the palindrome whose coefficients
    of q^0, q^1, ... are h (consumed).  Top-down: the coefficient c of q^g
    is the entry of (z^2)^g, and c (z^2)^g is subtracted; what remains stays
    palindromic, so the half list carries it exactly."""
    out = []
    for g in range(len(h) - 1, -1, -1):
        c = h[g]
        if c:
            out.append((g, c))
            h[: g + 1] = [x - c * z for x, z in zip(h, z2_power_dense(g))]
    return out


def gaussian_binomial(m: int, r: int) -> list[int]:
    """q-binomial coefficient as a dense list of coefficients of q^0..q^d.

    Computed by the q-Pascal recurrence, which keeps every intermediate
    value a polynomial with nonnegative integer coefficients.
    """
    if r < 0 or m < 0:
        raise ValueError("gaussian_binomial needs m, r >= 0")
    if r > m:
        raise ValueError("gaussian_binomial needs r <= m")
    r = min(r, m - r)
    # row[j] holds binom(i, j)_q while i runs 0..m
    row: list[list[int]] = [[1]] + [[] for _ in range(r)]
    for i in range(1, m + 1):
        for j in range(min(i, r), 0, -1):
            if j == i:
                row[j] = [1]
                continue
            # binom(i,j)_q = binom(i-1,j-1)_q + q^j * binom(i-1,j)_q
            a = row[j - 1]
            b = row[j]
            out = [0] * max(len(a), len(b) + j)
            for t, c in enumerate(a):
                out[t] += c
            for t, c in enumerate(b):
                out[t + j] += c
            row[j] = out
    return row[r] if row[r] else [1]


def to_z_basis(f: LaurentQA) -> dict:
    """Rewrite each a-slice of f as an exact polynomial in z^2 = q - 2 + 1/q.

    Extraction is top-down by leading q-exponent.  Fails (ZBasisError) if a
    slice has odd half-exponents or is not palindromic under q <-> 1/q; the
    tolerance is exact zero.
    """
    table: dict = {}
    for v, sl in a_slices(f).items():
        for u, c in sl.items():
            if u % 2:
                raise ZBasisError(f"half-odd q-exponent u={u} in a-slice v={v}")
            if sl.get(-u, 0) != c:
                raise ZBasisError(f"a-slice v={v} is not symmetric under q <-> 1/q")
        work = dict(sl)
        while work:
            top = max(work)
            if top < 0:
                raise ZBasisError(f"a-slice v={v}: asymmetric remainder")
            g = top // 2
            c = work[top]
            table[(g, v)] = c
            for i in range(2 * g + 1):  # (z^2)^g has (-1)^i C(2g, i) at q^(g - i)
                u = top - 2 * i
                s = work.get(u, 0) - c * (-1) ** i * comb(2 * g, i)
                if s:
                    work[u] = _norm_c(s)
                elif u in work:
                    del work[u]
    return table


def series_constant(cls, order: int, c=None) -> list:
    """The series c (one by default) over the coefficient class ``cls``."""
    return [cls.one() if c is None else c] + [cls.zero()] * order


def _add(a, b, c=1):
    # a + c b over any coefficient ring; LaurentQA sums only by ``lsum``
    return lsum((1, a), (c, b)) if isinstance(a, LaurentQA) else a + b.scale(c)


def series_add(s: list, other: list) -> list:
    return [_add(a, b) for a, b in zip(s, other)]


def series_sub(s: list, other: list) -> list:
    return [_add(a, b, -1) for a, b in zip(s, other)]


def series_mul(s: list, other: list) -> list:
    n = min(len(s), len(other))
    out = [type(s[0]).zero()] * n
    for i, a in enumerate(s[:n]):
        if not a:
            continue
        for j in range(n - i):
            b = other[j]
            if b:
                out[i + j] = _add(out[i + j], a * b)
    return out


def series_scale(s: list, c) -> list:
    return [x.scale(c) for x in s]


def series_is_zero(s: list) -> bool:
    return not any(s)


def series_log(s: list) -> list:
    """log of a series with constant term exactly one, truncated alike."""
    cls = type(s[0])
    if s[0] != cls.one():
        raise ValueError("series_log needs constant term 1")
    n = len(s) - 1
    u = [cls.zero()] + s[1:]
    out = [cls.zero()] * (n + 1)
    power = series_constant(cls, n)
    for k in range(1, n + 1):
        power = series_mul(power, u)
        if series_is_zero(power):
            break
        out = series_add(out, series_scale(power, Fraction((-1) ** (k + 1), k)))
    return out


def series_exp(s: list) -> list:
    """exp of a series with zero constant term, truncated alike."""
    if s[0]:
        raise ValueError("series_exp needs zero constant term")
    n = len(s) - 1
    out = series_constant(type(s[0]), n)
    power = series_constant(type(s[0]), n)
    for k in range(1, n + 1):
        power = series_mul(power, s)
        if series_is_zero(power):
            break
        out = series_add(out, series_scale(power, Fraction(1, factorial(k))))
    return out


def plethystic_log(z: list) -> list:
    """[f_1, ..., f_N] with Z = exp(sum_m sum_d (1/d) adams_d(f_m) x^(dm)),
    by f_m = sum_{d|m} (moebius(d)/d) adams_d(L_{m/d}) from the power-sum
    ``series_log``; ``lmov.series.plethystic_dlog`` returns m f_m."""
    logz = series_log(z)
    out = []
    for m in range(1, len(z)):
        acc = type(z[0]).zero()
        for d in divisors(m):
            if moebius(d):
                acc = _add(acc, logz[m // d].adams(d), Fraction(moebius(d), d))
        out.append(acc)
    return out


def series_mul_coeff(s: list, c) -> list:
    """Multiply every coefficient by a fixed ring element."""
    return [x * c for x in s]


def series_shift(s: list, k: int) -> list:
    """Multiply by x^k."""
    if k < 0:
        raise ValueError("shift needs k >= 0")
    return [type(s[0]).zero()] * k + s[: len(s) - k]


def series_pow_int(s: list, n: int) -> list:
    if n < 0:
        return series_pow_int(series_inverse(s), -n)
    out = series_constant(type(s[0]), len(s) - 1)
    base = s
    while n:
        if n & 1:
            out = series_mul(out, base)
        n >>= 1
        if n:
            base = series_mul(base, base)
    return out


def series_inverse(s: list) -> list:
    """Reciprocal of a series with invertible (one) constant term."""
    c0 = s[0]
    if not c0:
        raise ValueError("series has no reciprocal: zero constant term")
    zero, one = type(c0).zero(), type(c0).one()
    if c0 != one:
        raise ValueError("inverse implemented for unit constant term only")
    n = len(s) - 1
    inv = [zero] * (n + 1)
    inv[0] = one
    for k in range(1, n + 1):
        acc = zero
        for i in range(1, k + 1):
            if s[i]:
                acc = _add(acc, s[i] * inv[k - i])
        inv[k] = acc.scale(-1)
    return inv


def solve_functional(phi: Callable[[list], list], cls, order: int) -> list:
    """Unique series solution Y(X) of Y = X * phi(Y) with phi(0) invertible,
    over the coefficient class ``cls``.

    Fixed-point iteration Y <- X*phi(Y): coefficients of degree <= k are
    frozen after k rounds, so ``order`` rounds suffice.
    """
    y = [cls.zero()] * (order + 1)
    if not phi(y)[0]:
        raise ValueError("phi(0) must be invertible (nonzero constant term)")
    for _ in range(order):
        y = series_shift(phi(y), 1)
    return y


class Series2:
    """Power series in two variables truncated at total degree ``order``,
    over the coefficient ring whose zero is ``zero``.

    Coefficients are stored sparsely on the triangle i + j <= order.
    """

    __slots__ = ("zero", "order", "coeffs")

    def __init__(self, zero, order: int, coeffs: dict | None = None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.zero = zero
        self.order = order
        self.coeffs = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i + j <= order and c:
                    self.coeffs[(i, j)] = c

    def coeff(self, i: int, j: int):
        if i + j > self.order:
            raise IndexError(f"({i},{j}) beyond total degree {self.order}")
        return self.coeffs.get((i, j), self.zero)


def series2_log(s: Series2) -> Series2:
    """log of a bivariate series with constant term one.

    Solves R * S = dS/dX2 for R = d(log S)/dX2 degree by degree, then
    integrates in X2.  Terms independent of X2 (j = 0) are not recovered;
    they are irrelevant for kernel coefficients with both indices >= 1.
    """
    n = s.order
    if s.coeff(0, 0) != type(s.zero).one():
        raise ValueError("series2_log needs constant term 1")
    # ds = dS/dX2: coefficient (i, j) of ds is (j+1) * S[(i, j+1)]
    ds: dict = {}
    for (i, j), c in s.coeffs.items():
        if j >= 1 and i + j - 1 <= n - 1:
            ds[(i, j - 1)] = c.scale(Fraction(j))
    # back-substitution in order of total degree
    r: dict = {}
    for deg in range(0, n):
        for i in range(deg + 1):
            j = deg - i
            acc = ds.get((i, j), s.zero)
            # subtract sum over nonconstant terms of S
            for (i1, j1), c in s.coeffs.items():
                if i1 == 0 and j1 == 0:
                    continue
                i2, j2 = i - i1, j - j1
                if i2 < 0 or j2 < 0:
                    continue
                rc = r.get((i2, j2))
                if rc is not None:
                    acc = _add(acc, c * rc, -1)
            if acc:
                r[(i, j)] = acc
    out: dict = {}
    for (i, j), c in r.items():
        out[(i, j + 1)] = c.scale(Fraction(1, j + 1))
    return Series2(s.zero, n, out)


def series2_mul(s: Series2, other: Series2) -> Series2:
    n = min(s.order, other.order)
    out: dict = {}
    for (i1, j1), a in s.coeffs.items():
        for (i2, j2), b in other.coeffs.items():
            if i1 + i2 + j1 + j2 > n:
                continue
            k = (i1 + i2, j1 + j2)
            cur = out.get(k)
            p = a * b
            out[k] = p if cur is None else _add(cur, p)
    return Series2(s.zero, n, out)


def series2_add(s: Series2, other: Series2) -> Series2:
    n = min(s.order, other.order)
    out = dict(s.coeffs)
    for k, c in other.coeffs.items():
        cur = out.get(k)
        out[k] = c if cur is None else _add(cur, c)
    return Series2(s.zero, n, out)


def series2_scale(s: Series2, c) -> Series2:
    return Series2(s.zero, s.order, {k: x.scale(c) for k, x in s.coeffs.items()})


def exact_div(f: LaurentQA, g: LaurentQA) -> LaurentQA:
    """Return h with f = g * h exactly for any divisor, a-powers included;
    raise NotDivisible otherwise."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return LaurentQA.zero()
    # general divisor: leading-term elimination under lex order on (u, v).
    # If f = g*h the lowest exponents add, which bounds the quotient support
    # from below and makes the loop terminate on non-multiples as well.
    u_lo = min(u for u, _ in f._c) - min(u for u, _ in g._c)
    v_lo = min(v for _, v in f._c) - min(v for _, v in g._c)
    gl = max(g._c)
    glc = Fraction(g._c[gl])
    rem = dict(f._c)
    quo: dict = {}
    while rem:
        lt = max(rem)
        tkey = (lt[0] - gl[0], lt[1] - gl[1])
        if tkey[0] < u_lo or tkey[1] < v_lo:
            raise NotDivisible("not divisible")
        tc = _norm_c(Fraction(rem.pop(lt)) / glc)
        quo[tkey] = quo.get(tkey, 0) + tc
        for (u, v), gc in g._c.items():
            if (u, v) == gl:
                continue
            k = (tkey[0] + u, tkey[1] + v)
            s = rem.get(k, 0) - tc * gc
            if s:
                rem[k] = _norm_c(s)
            elif k in rem:
                del rem[k]
    return LaurentQA({k: c for k, c in quo.items()})


_A = LaurentQA.monomial(v=2)  # the variable a


def _mirror_phi(tau: int, order: int):
    """phi(Y) = (1-Y)^tau * (1 - a(1-Y)) acting on truncated series."""

    def phi(y: list) -> list:
        one = series_constant(LaurentQA, order)
        s = series_sub(one, y)  # 1 - Y
        p = series_pow_int(s, tau)
        return series_mul(p, series_sub(one, series_mul_coeff(s, _A)))

    return phi


@lru_cache(maxsize=None)
def mirror_series(tau: int, order: int) -> list:
    """Y(X) solving Y = X (1-Y)^tau (1 - a(1-Y)), truncated at ``order``,
    by fixed-point iteration."""
    return solve_functional(_mirror_phi(tau, order), LaurentQA, order)


def kernel_level(tau: int, n: int, order: int) -> LaurentQA:
    """Y_(n+1)/(1-a) from the fixed-point series, by the general division."""
    y = mirror_series(tau, order)
    return exact_div(y[n + 1], y[1])  # Y_1 = 1 - a


_ONE_MINUS_A = LaurentQA({(0, 0): 1, (0, 2): -1})


def disc_series_check(tau: int, max_m: int) -> list:
    """``genus0.disc_series_check`` on LaurentQA levels: 1 - Y(X) rebuilt
    from the a-rows of ``genus0.kernel_level`` as LaurentQA coefficients,
    its levels taken by ``series_dlog``, each compared coefficient by
    coefficient with the negated closed-form numerator; the list of
    failure records."""
    if max_m < 1:
        raise ValueError("disc_series_check needs max_m >= 1")
    failures = []
    one_minus_y = [LaurentQA.one()] + [
        (_ONE_MINUS_A * a_row(genus0.kernel_level(tau, n))).scale(-1) for n in range(max_m)
    ]
    dlogy = series_dlog(one_minus_y)
    for m in range(1, max_m + 1):
        level = dict(dlogy[m].items())
        # x-coordinates: multiply by (-1)^(m*tau); a-exponent l is raw v/2
        sign = (-1) ** ((m * tau) % 2)
        for l in range(0, m + 1):
            got = sign * level.get((0, 2 * l), 0)
            want = -(disc_c(m, l, tau) * m * m)
            if got != want:
                failures.append({"m": m, "l": l, "got": got, "want": int(want)})
    return failures


def certified_int(x: Fraction | int, what: str) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise TheoremViolation(f"{what} is not an integer: {f}")
    return int(f)


def binomial_ext(n: int, k: int) -> int:
    """Binomial coefficient extended to every integer n via the falling
    factorial n(n-1)...(n-k+1)/k!; for n < 0 this equals
    (-1)^k * binomial(-n+k-1, k)."""
    if k < 0:
        raise ValueError("binomial_ext needs k >= 0")
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def disc_c(m: int, l: int, tau: int) -> Fraction:
    """Multi-cover disc coefficient c_{m,l}(tau)."""
    if m < 1:
        raise ValueError("disc_c needs m >= 1")
    if not 0 <= l <= m:
        raise ValueError("disc_c needs 0 <= l <= m")
    # m^2 c_{m,l}, a signed product of two binomials; through genus0's
    # binomial_ext, so that a test that patches it reaches this sum too
    sign = -1 if (m * tau + m + l) % 2 == 0 else 1
    num = sign * genus0.binomial_ext(m, l) * genus0.binomial_ext(m * tau + l - 1, m - 1)
    return Fraction(num, m * m)


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


def annulus_c(m1: int, m2: int, tau: int, order: int) -> dict:
    """Annulus multi-cover coefficients {l: c_{(m1,m2),l}} from the kernel log.

    l runs over raw a-exponents, 0 <= l <= m1+m2.  ``order`` caps the
    kernel truncation; m1+m2 beyond it is rejected.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("annulus_c needs m1, m2 >= 1")
    return {l: Fraction(c, m1 + m2) for l, c in _annulus_column(m1, m2, tau, order).items()}


def annulus_n(m1: int, m2: int, l: int, tau: int, order: int):
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


def b_minus(p: int, r: int) -> int:
    """Bottom extremal twist-knot invariant by its binomial sum."""
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
    """Top extremal twist-knot invariant by its binomial sum."""
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


@lru_cache(maxsize=None)
def cal_z_cleared(m: int, tau: int) -> LaurentQA:
    """Denominator-cleared partition sum: {m}{m tau} Z_m for tau != 0,
    and its degenerate substitute {m}^2 Z_m = {m}_a at tau = 0."""
    if m < 1:
        raise ValueError("cal_z_cleared needs m >= 1")
    if tau == 0:
        return quantum_int_a(m)
    terms = []
    for nu in partitions_of(m):
        term = LaurentQA.one()
        for p in nu:
            term = term * quantum_ratio(m * tau, p) * quantum_int_a(p)
        terms.append((Fraction(1, z_factor(nu)), term))
    return lsum(*terms).scale((-1) ** ((m * tau) % 2))


@lru_cache(maxsize=None)
def cal_z_closed_form(m: int, tau: int) -> LaurentQA:
    """The q-binomial closed form of ``lmov.onehole._cleared_rows``, each
    product of two q-binomials by the double loop over their terms."""
    if tau == 0:
        return quantum_int_a(m)
    mt = m * abs(tau)
    out: dict = {}
    for j in range(min(m, mt) + 1):  # each j fills its own a-slice
        k = m - j
        bj, bk = gaussian_binomial(mt, j), gaussian_binomial(mt + k - 1, k)
        prod = [0] * (len(bj) + len(bk) - 1)
        for dj, cj in enumerate(bj):
            for dk, ck in enumerate(bk):
                prod[dj + dk] += cj * ck
        u0, v = j * (j - 1) - (mt - 1) * m, (k - j) * (1 if tau > 0 else -1)
        sign = (-1) ** ((j + mt) % 2)
        out.update({(u0 + 2 * e, v): sign * c for e, c in enumerate(prod) if c})
    return LaurentQA(out)


def _cleared_divisor(m: int, tau: int) -> LaurentQA:
    # {m}{m tau}/{1}^2, with {m}^2/{1}^2 at tau = 0
    first = quantum_ratio(m, 1)
    second = quantum_ratio(m, 1) if tau == 0 else quantum_ratio(m * tau, 1)
    return first * second


def g_m_cleared(m: int, tau: int) -> LaurentQA:
    """{m}{m tau} g_m as a Laurent polynomial ({m}^2 g_m at tau = 0)."""
    return lsum(*((moebius(d), cal_z_closed_form(m // d, tau).adams(d))
                  for d in divisors(m) if moebius(d)))


def z2_g_m(m: int, tau: int) -> LaurentQA:
    """z^2 g_m by the general exact division of the whole Laurent
    polynomial by {m}{m tau}/{1}^2."""
    return exact_div(g_m_cleared(m, tau), _cleared_divisor(m, tau))


# ---------------------------------------------------------------------------
# dense univariate helpers (internal, used by RationalQ)
# ---------------------------------------------------------------------------

def _pt(coeffs) -> tuple:
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _p_add(a, b):
    n = max(len(a), len(b))
    return _pt(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _p_neg(a):
    return tuple(-x for x in a)


def _p_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _pt(out)


def _p_divmod(a, b):
    """Polynomial divmod over exact rationals (b != 0)."""
    if not b:
        raise ZeroDivisionError
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _pt(a)
    r = list(a)
    lead = Fraction(b[-1])
    q = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db]
        if not c:
            continue
        t = Fraction(c) / lead
        q[i] = t
        for j, y in enumerate(b):
            r[i + j] -= t * y
    return _pt(q), _pt(r)


def _int_primitive(a):
    """Scale a rational coefficient list to primitive integers (positive lead)."""
    if not a:
        return ()
    den = 1
    for c in a:
        d = Fraction(c).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(c) * den) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists, deg a >= deg b >= 0."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) - 1 >= db and any(r):
        top = r[-1]
        if not top:
            r.pop()
            continue
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for j, y in enumerate(b):
            r[shift + j] -= top * y
        r = list(_pt(r))
    return _pt(r)


def _p_gcd(a, b):
    """Monic gcd via a primitive integer remainder sequence."""
    a = _int_primitive(a)
    b = _int_primitive(b)
    if not a:
        base = b
    elif not b:
        base = a
    else:
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _int_primitive(_pseudo_rem(a, b))
            a, b = b, r
        base = a
    if not base:
        return ()
    lead = Fraction(base[-1])
    return tuple(_norm_c(Fraction(c) / lead) for c in base)


def _p_stretch(a, d):
    if not a:
        return ()
    out = [0] * ((len(a) - 1) * d + 1)
    for i, c in enumerate(a):
        out[i * d] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# RationalQ
# ---------------------------------------------------------------------------

class RationalQ:
    """Rational function of q on the q^(1/2) exponent lattice.

    Value = q^(off/2) * num(s) / den(s) with s = q^(1/2).  Canonical form:
    den is a monic polynomial in s with nonzero constant term, num has
    nonzero constant term (the monomial shift lives in ``off``), and
    gcd(num, den) = 1.  Equality is structural.
    """

    __slots__ = ("off", "num", "den")

    def __init__(self, num=(1,), den=(1,), off=0, _normalized=False):
        if _normalized:
            self.num, self.den, self.off = _pt(num), _pt(den), off
            if not self.num:
                self.den, self.off = (1,), 0
            return
        num = _pt(num)
        den = _pt(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        i = 0
        while i < len(num) and not num[i]:
            i += 1
        j = 0
        while j < len(den) and not den[j]:
            j += 1
        num = num[i:]
        den = den[j:]
        off += i - j
        if not num:
            self.num, self.den, self.off = (), (1,), 0
            return
        g = _p_gcd(num, den)
        if len(g) > 1:
            num, _ = _p_divmod(num, g)
            den, _ = _p_divmod(den, g)
        lead = Fraction(den[-1])
        self.num = tuple(_norm_c(Fraction(c) / lead) for c in num)
        self.den = tuple(_norm_c(Fraction(c) / lead) for c in den)
        self.off = off

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> RationalQ:
        return cls((), (1,), 0, _normalized=True)

    @classmethod
    def one(cls) -> RationalQ:
        return cls((1,), (1,), 0, _normalized=True)

    @classmethod
    def monomial(cls, u: int, c: Rat = 1) -> RationalQ:
        c = _norm_c(c)
        if not c:
            return cls.zero()
        return cls((c,), (1,), u, _normalized=True)

    @classmethod
    def from_laurent(cls, f: LaurentQA) -> RationalQ:
        sl = a_slices(f)
        if not sl:
            return cls.zero()
        if set(sl) != {0}:
            raise ValueError("LaurentQA has a-dependence; use RationalQA")
        lo, dense = _slice_to_dense(sl[0])
        return cls(tuple(dense), (1,), lo, _normalized=True)

    # -- inspection ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_laurent(self) -> bool:
        return self.den == (1,)

    def to_laurent(self) -> LaurentQA:
        if not self.is_laurent():
            raise NotDivisible("denominator is nontrivial")
        return LaurentQA(
            {(self.off + i, 0): c for i, c in enumerate(self.num) if c}
        )

    def __eq__(self, other):
        return (
            isinstance(other, RationalQ)
            and self.off == other.off
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.off, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        off = min(self.off, other.off)
        a = (0,) * (self.off - off) + self.num
        b = (0,) * (other.off - off) + other.num
        num = _p_add(_p_mul(a, other.den), _p_mul(b, self.den))
        den = _p_mul(self.den, other.den)
        return RationalQ(num, den, off)

    def __neg__(self):
        return RationalQ(_p_neg(self.num), self.den, self.off, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        if not self or not other:
            return RationalQ.zero()
        return RationalQ(
            _p_mul(self.num, other.num),
            _p_mul(self.den, other.den),
            self.off + other.off,
        )

    def __truediv__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero RationalQ")
        if not self:
            return RationalQ.zero()
        return RationalQ(
            _p_mul(self.num, other.den),
            _p_mul(self.den, other.num),
            self.off - other.off,
        )

    def scale(self, c: Rat) -> RationalQ:
        c = _norm_c(c)
        if not c:
            return RationalQ.zero()
        return RationalQ(
            tuple(_norm_c(x * c) for x in self.num),
            self.den,
            self.off,
            _normalized=True,
        )

    def adams(self, d: int) -> RationalQ:
        """Substitute q -> q^d; canonical form is preserved by stretching."""
        if d < 1:
            raise ValueError("adams operation needs d >= 1")
        if d == 1:
            return self
        return RationalQ(
            _p_stretch(self.num, d),
            _p_stretch(self.den, d),
            self.off * d,
            _normalized=True,
        )

    def __repr__(self):
        if not self:
            return "0"
        n = LaurentQA({(self.off + i, 0): c for i, c in enumerate(self.num) if c})
        if self.is_laurent():
            return repr(n)
        d = LaurentQA({(i, 0): c for i, c in enumerate(self.den) if c})
        return f"({n!r}) / ({d!r})"


ONE_MINUS_Q = RationalQ((1, 0, -1), (1,), 0, _normalized=True)  # 1 - q


def one_minus_q_pow(i: int) -> RationalQ:
    """1 - q^i as a RationalQ (i >= 1)."""
    c = [1] + [0] * (2 * i - 1) + [-1]
    return RationalQ(tuple(c), (1,), 0, _normalized=True)


# ---------------------------------------------------------------------------
# RationalQA
# ---------------------------------------------------------------------------

class RationalQA:
    """Finitely supported map a-exponent v -> RationalQ; no zero entries."""

    __slots__ = ("_m",)

    def __init__(self, m: Mapping | None = None):
        self._m = {v: r for v, r in (m or {}).items() if r}

    @classmethod
    def zero(cls) -> RationalQA:
        return cls({})

    @classmethod
    def one(cls) -> RationalQA:
        return cls({0: RationalQ.one()})

    @classmethod
    def from_laurent(cls, f: LaurentQA) -> RationalQA:
        out = {}
        for v, sl in a_slices(f).items():
            lo, dense = _slice_to_dense(sl)
            out[v] = RationalQ(tuple(dense), (1,), lo, _normalized=True)
        return cls(out)

    def items(self):
        return iter(self._m.items())

    def slice(self, v: int) -> RationalQ:
        return self._m.get(v, RationalQ.zero())

    def top_a(self) -> tuple:
        """(v, coefficient) at the highest a-exponent."""
        if not self._m:
            return 0, RationalQ.zero()
        v = max(self._m)
        return v, self._m[v]

    def __bool__(self) -> bool:
        return bool(self._m)

    def __eq__(self, other):
        return isinstance(other, RationalQA) and self._m == other._m

    def __add__(self, other):
        if not isinstance(other, RationalQA):
            return NotImplemented
        m = dict(self._m)
        for v, r in other._m.items():
            s = m.get(v)
            s = r if s is None else s + r
            if not s:
                m.pop(v, None)
            else:
                m[v] = s
        return RationalQA(m)

    def __neg__(self):
        return RationalQA({v: -r for v, r in self._m.items()})

    def __sub__(self, other):
        if not isinstance(other, RationalQA):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalQA):
            return NotImplemented
        m: dict = {}
        for v1, r1 in self._m.items():
            for v2, r2 in other._m.items():
                v = v1 + v2
                p = r1 * r2
                s = m.get(v)
                s = p if s is None else s + p
                if not s:
                    m.pop(v, None)
                else:
                    m[v] = s
        return RationalQA(m)

    def scale(self, c: Rat) -> RationalQA:
        if not c:
            return RationalQA.zero()
        return RationalQA({v: r.scale(c) for v, r in self._m.items()})

    def mul_rational(self, r: RationalQ) -> RationalQA:
        if not r:
            return RationalQA.zero()
        return RationalQA({v: x * r for v, x in self._m.items()})

    def div_rational(self, r: RationalQ) -> RationalQA:
        return RationalQA({v: x / r for v, x in self._m.items()})

    def adams(self, d: int) -> RationalQA:
        if d < 1:
            raise ValueError("adams operation needs d >= 1")
        if d == 1:
            return self
        return RationalQA({v * d: r.adams(d) for v, r in self._m.items()})

    def as_laurent(self) -> LaurentQA | None:
        """Collapse to LaurentQA if every slice has trivial denominator."""
        out: dict = {}
        for v, r in self._m.items():
            if not r.is_laurent():
                return None
            for i, c in enumerate(r.num):
                if c:
                    out[(r.off + i, v)] = c
        return LaurentQA._make(out)

    def __repr__(self):
        if not self._m:
            return "0"
        return " + ".join(f"a^({v}/2)*[{self._m[v]!r}]" for v in sorted(self._m))


def as_rational(f: PochFrac | PochRow) -> RationalQA:
    """num / (q;q)_n as an a-graded rational function."""
    if isinstance(f, PochRow):
        f = poch_frac(f)
    den = RationalQ.from_laurent(one_minus_q_prod(range(1, f.n + 1)))
    return RationalQA.from_laurent(f.num).div_rational(den)


# ---------------------------------------------------------------------------
# colored rows and the one-hole generating functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _row_numerator(n: int) -> LaurentQA:
    # product over i of (a^(1/2) q^((i-1)/2) - a^(-1/2) q^(-(i-1)/2))
    if n == 0:
        return LaurentQA.one()
    prev = _row_numerator(n - 1)
    i = n - 1
    factor = LaurentQA({(i, 1): 1, (-i, -1): -1})
    return prev * factor


def recursion_pair(n: int) -> tuple:
    """The full-row sides of the framed row recursion at step n, before it
    was reduced to its 2-term core: (q^(n+1) - 1) R_(n+1) and
    hook_n R_n {n+1}."""
    lead = LaurentQA({(2 * (n + 1), 0): 1, (0, 0): -1})
    hook = LaurentQA({(2 * n + 1, 1): 1, (1, -1): -1})
    return lead * _row_numerator(n + 1), hook * (_row_numerator(n) * quantum_int(n + 1))


@lru_cache(maxsize=None)
def _row_denominator(n: int) -> LaurentQA:
    # product over i of (q^(i/2) - q^(-i/2))
    return quantum_prod(range(1, n + 1))


def unknot_row(n: int) -> RationalQA:
    """Row-colored invariant W_n(q, a); W_0 = 1."""
    if n < 0:
        raise ValueError("unknot_row needs n >= 0")
    num = RationalQA.from_laurent(_row_numerator(n))
    den = RationalQ.from_laurent(_row_denominator(n))
    return num.div_rational(den)


def framed_row(n: int, tau: int) -> RationalQA:
    """Framed row invariant (-1)^(n tau) q^(n(n-1) tau / 2) W_n."""
    sign = (-1) ** ((n * tau) % 2)
    twist = RationalQ.monomial(n * (n - 1) * tau, sign)
    return unknot_row(n).mul_rational(twist)


def cal_z(m: int, tau: int) -> RationalQA:
    """Z_m(q, a) as an a-graded rational function of q."""
    cleared = cal_z_cleared(m, tau)
    div = _cleared_divisor(m, tau) * quantum_int(1) * quantum_int(1)
    return RationalQA.from_laurent(cleared).div_rational(RationalQ.from_laurent(div))


def g_m(m: int, tau: int) -> RationalQA:
    """g_m(q, a) = sum over d | m of moebius(d) Z_{m/d}(q^d, a^d)."""
    total = RationalQA.zero()
    for d in divisors(m):
        mu = moebius(d)
        if mu:
            total = total + cal_z(m // d, tau).adams(d).scale(mu)
    return total


# ---------------------------------------------------------------------------
# the reduced series, OV and DT over RationalQ
# ---------------------------------------------------------------------------


def _q_factorial_den(n: int) -> RationalQ:
    """(1-q)(1-q^2)...(1-q^n) as a RationalQ (n >= 0)."""
    out = RationalQ.one()
    for i in range(1, n + 1):
        out = out * one_minus_q_pow(i)
    return out


def h_top(n: int, tau: int) -> RationalQ:
    """Top-charge row coefficient
    (-1)^(n(tau-1)) q^(n(n-1)tau/2 + n^2/2) / prod_{i<=n}(1-q^i)."""
    if n < 0:
        raise ValueError("h_top needs n >= 0")
    sign = (-1) ** ((n * (tau - 1)) % 2)
    num = RationalQ.monomial(n * (n - 1) * tau + n * n, sign)
    return num / _q_factorial_den(n)


def z_tau_series(tau: int, order: int) -> list:
    """Reduced partition function sum_n H_n(q) x^n truncated at x^order."""
    return [h_top(n, tau) for n in range(order + 1)]


def coha_series(loops: int, order: int) -> list:
    """Hilbert-Poincare series of the loop quiver:
    sum_n q^(-(m-1) n(n-1)/2) / prod_{i<=n}(1-q^i) t^n."""
    if loops < 1:
        raise ValueError("coha_series needs loops >= 1")
    coeffs = []
    for n in range(order + 1):
        num = RationalQ.monomial(-(loops - 1) * n * (n - 1), 1)
        coeffs.append(num / _q_factorial_den(n))
    return coeffs


def _laurent_from_rational(r: RationalQ, what: str) -> dict:
    """u -> coefficient of the Laurent polynomial r, or raise."""
    if not r.is_laurent():
        raise ValueError(f"{what} is not a Laurent polynomial: {r!r}")
    return {r.off + i: c for i, c in enumerate(r.num) if c}


def ov_rows(tau: int, max_m: int) -> dict:
    """N_{m,k}(tau) from the plethystic log over RationalQ, or raise."""
    fs = plethystic_log(z_tau_series(tau, max_m))
    rows = {}
    for m in range(1, max_m + 1):
        coeffs = _laurent_from_rational(fs[m - 1] * ONE_MINUS_Q, f"(1-q) f_{m}")
        rows[m] = {u - 1: -Fraction(c) for u, c in coeffs.items()}
    return rows


def dt_rows(loops: int, max_n: int) -> dict:
    """c_{n,k} of the loop quiver from the plethystic log over RationalQ."""
    p = coha_series(loops, max_n)
    twist = (-1) ** ((loops - 1) % 2)
    ls = plethystic_log([c.scale(twist ** n) for n, c in enumerate(p)])
    rows = {}
    for n in range(1, max_n + 1):
        coeffs = _laurent_from_rational(ls[n - 1] * ONE_MINUS_Q, f"(1-q) L_{n}")
        sign = (-1) ** ((loops - 1) * n)
        rows[n] = {-u // 2: sign * Fraction(c) for u, c in coeffs.items()}
    return rows


# ---------------------------------------------------------------------------
# the general-partition pipeline over RationalQA
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _phi(nu: Partition, sigma: Partition, tau: int) -> LaurentQA:
    # sum over lam of chi_lam(nu) chi_lam(sigma) q^(kappa_lam tau / 2)
    d: dict = {}
    for lam in partitions_of(sum(nu)):
        c = mn_character(lam, nu) * mn_character(lam, sigma)
        if c:
            u = kappa(lam) * tau
            d[(u, 0)] = d.get((u, 0), 0) + c
    return LaurentQA(d)


@lru_cache(maxsize=None)
def cal_z_partition(nu: Partition, tau: int) -> RationalQA:
    """Character-transformed colored invariant for cycle type nu."""
    total = RationalQA.zero()
    size = sum(nu)
    for sigma in partitions_of(size):
        phi = _phi(nu, sigma, tau)
        if not phi:
            continue
        num = phi
        for s in sigma:
            num = num * quantum_int_a(s)
        den = quantum_prod(sigma)
        term = RationalQA.from_laurent(num).div_rational(
            RationalQ.from_laurent(den)
        )
        total = total + term.scale(Fraction(1, z_factor(sigma)))
    return total.scale((-1) ** ((size * tau) % 2))


@lru_cache(maxsize=None)
def cal_z_sigma_sum(nu: Partition, tau: int) -> PochFrac:
    """``cal_z_partition``'s sum over sigma on numerators over (q;q)_|nu|,
    from 1/{sigma} = (-1)^l(sigma) q^(|sigma|/2) / prod_i (1 - q^(sigma_i))."""
    n = sum(nu)
    terms = []
    for sigma in partitions_of(n):
        num = _phi(nu, sigma, tau)
        if not num:
            continue
        for s in sigma:
            num = num * quantum_int_a(s)
        cofactor = exact_div(one_minus_q_prod(range(1, n + 1)), one_minus_q_prod(sigma))
        weight = Fraction((-1) ** len(sigma), z_factor(sigma))
        terms.append((weight, (num * cofactor).shift(du=n)))
    return PochFrac(lsum(*terms).scale((-1) ** ((n * tau) % 2)), n)


def _multiset_decompositions(mu: Partition):
    """Unordered decompositions of mu into nonempty sub-partitions.

    Yields (blocks, ordered_count) with blocks a sorted tuple of partitions
    whose multiset union is mu and ordered_count the number of ordered
    tuples realizing that block multiset.
    """

    def splits(parts: tuple):
        # all ways to split a sorted multiset of ints into (first-anchored
        # nonempty block, rest)
        if not parts:
            yield ()
            return
        first, rest = parts[0], parts[1:]
        seen = set()
        for mask in range(1 << len(rest)):
            block = (first,) + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            block = tuple(sorted(block, reverse=True))
            remaining = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
            key = (block, remaining)
            if key in seen:
                continue
            seen.add(key)
            for tail in splits(remaining):
                yield (block,) + tail

    seen_blocks = set()
    for blocks in splits(tuple(sorted(mu, reverse=True))):
        canon = tuple(sorted(blocks))
        if canon in seen_blocks:
            continue
        seen_blocks.add(canon)
        n = len(canon)
        mult: dict = {}
        for b in canon:
            mult[b] = mult.get(b, 0) + 1
        count = factorial(n)
        for a in mult.values():
            count //= factorial(a)
        yield canon, count


def f_mu(mu: Partition, tau: int) -> RationalQA:
    """Connected (log) coefficient of the partition-sum expansion at mu."""
    if not mu:
        raise ValueError("f_mu needs a nonempty partition")
    total = RationalQA.zero()
    for blocks, count in _multiset_decompositions(mu):
        n = len(blocks)
        term = RationalQA.one()
        for b in blocks:
            term = term * cal_z_partition(b, tau).scale(Fraction(1, z_factor(b)))
        total = total + term.scale(Fraction((-1) ** (n - 1) * count, n))
    return total


def g_mu_target(mu: Partition, tau: int) -> RationalQA:
    """z^2 z_mu g-hat_mu, g-hat_mu = sum_d (moebius(d)/d) adams_d(F_{mu/d} / {mu/d})."""
    ghat = RationalQA.zero()
    for d in divisors(parts_gcd(mu)):
        mo = moebius(d)
        if not mo:
            continue
        scaled = scale_down(mu, d)
        fhat = f_mu(scaled, tau).div_rational(
            RationalQ.from_laurent(quantum_prod(scaled))
        )
        ghat = ghat + fhat.adams(d).scale(Fraction(mo, d))
    z2 = RationalQ.from_laurent(quantum_int(1) * quantum_int(1))
    return ghat.mul_rational(z2).scale(z_factor(mu))


# ---------------------------------------------------------------------------
# the stdlib serialisers behind lmov.io
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def json_bytes(obj) -> bytes:
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def table_bytes(fmt: str, head: dict, rows: list, columns: list) -> bytes:
    """One table as JSON, or as CSV with one merged dict per line."""
    if fmt == "json":
        return json_bytes({**head, "rows": rows})
    fields = [c.partition("=") for c in columns]
    lines = [[name for name, _, _ in fields]]
    for row in rows:
        for entry in row.get("entries", ({},)):
            cell = {**head, **row, **entry}
            lines.append([cell[key or name] for name, _, key in fields])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for line in lines:
        writer.writerow([" ".join(map(str, v)) if isinstance(v, tuple) else v for v in line])
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# the argparse parser behind lmov.cli.parse_args
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved here
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(cli.EXIT_USAGE)


def _int_in(lo: int | None = None, hi: int | None = None):
    """argparse type: an int in [lo, hi]; a bound of None is open."""

    def parse(text: str) -> int:
        n = int(text)
        if lo is not None and n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        if hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in its own messages
    return parse


def _out_path(path: str) -> str:
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"no directory to write {path!r} into")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_out_path, default=None, help="output path (default stdout)")


def _add_table_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)


def argparse_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lmov", description=cli.__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    positive = _int_in(lo=1)

    p = sub.add_parser("disc", help="genus-0 one-hole integer table n_{m,l}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-m", type=positive, default=12)
    _add_table_output(p)

    p = sub.add_parser("annulus", help="genus-0 two-hole table n_{(m1,m2),l}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-total", type=_int_in(lo=2), default=8, help="bound on m1+m2")
    _add_table_output(p)

    p = sub.add_parser("multihole", help="genus-0 top-charge table, >= 3 holes")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-size", type=_int_in(lo=3), default=8, help="bound on |mu|")
    _add_table_output(p)

    p = sub.add_parser("onehole", help="all-genus one-hole tables n_{m,g,Q}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-m", type=positive, default=6)
    p.add_argument(
        "--half-format",
        choices=("doubled", "fraction"),
        default="doubled",
        help="serialize Q as two_q integers or explicit halves like 3/2",
    )
    _add_table_output(p)

    p = sub.add_parser("ov", help="Ooguri-Vafa integer table N_{m,k}")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--max-m", type=positive, default=8)
    _add_table_output(p)

    p = sub.add_parser("dt", help="quantum DT invariants of the loop quiver")
    p.add_argument("--loops", type=positive, required=True)
    p.add_argument("--max-n", type=positive, default=6)
    _add_table_output(p)

    p = sub.add_parser("twist", help="twist-knot extremal invariants")
    p.add_argument("--p-min", type=int, default=-6)
    p.add_argument("--p-max", type=int, default=6)
    p.add_argument("--max-r", type=positive, default=20)
    _add_table_output(p)

    p = sub.add_parser("gwdt-check", help="reduced series vs loop-quiver series")
    p.add_argument("--tau", type=_int_in(hi=-1), required=True, help="must be <= -1")
    p.add_argument("--order", type=_int_in(lo=0), default=12)
    _add_out(p)

    p = sub.add_parser("verify-all", help="run every property suite")
    p.add_argument("--quick", action="store_true", help="reduced bounds")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    return top
