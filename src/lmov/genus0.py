"""Genus-zero framed-unknot invariants: disc, annulus, multi-hole.

The disc and annulus tables come with two independent routes:

* closed combinatorial formulas (``_disc_numerator_rows``, the integers
  m^2 c_{m,l}, and ``annulus_top_numerator`` for the top slice of the
  annulus, an integer (m1+m2) c);
* the mirror-curve series Y = X (1-Y)^tau (1 - a(1-Y)), whose X-expansion
  Lagrange inversion gives in closed form, each level one int a-row
  (``kernel_level``), followed by ``series_dlog``'s recurrence for the
  integral log levels, run on packed ints.  The disc oracle
  (``disc_series_check``) packs each level of 1 - Y as one int a-row, so
  it certifies the whole route, Lagrange levels and then log, against the
  closed form.  The annulus kernel, a series in X1 and X2, is one in X1
  alone after X2 = t X1; its log runs on one packed int t-row per
  a-exponent (``_annulus_log``), from which ``_annulus_column`` reads the
  integers (m1+m2) c_{(m1,m2),l}.

Single-cover invariants are Moebius sums over common divisors, each one
integer numerator over m^2 (disc) or m1+m2 (annulus), certified by one exact
``divmod`` at every charge: integrality is a theorem there.  ``disc_rows``
builds each disc numerator row once per (m, tau) and adds row m/d into row
m at stride d; ``annulus_row`` adds column (m1/d, m2/d) into row (m1, m2)
at stride d.  Multi-hole values are memoised, so the cover check computes
each once.

Index conventions (fixed here once and used by the CLI and tests):
the annulus coefficient table is indexed by the raw a-exponent l of the
X-kernel log, 0 <= l <= m1+m2.  The closed-form slice sits at
l = m1 + m2 (the top a-degree; equivalently charge Q = (m1+m2)/2 after
restoring x = (-1)^tau a^(1/2) X).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd

from .arith import binomial_ext, certified_div, divisors, moebius
from .partitions import Partition, parts_gcd, scale_down
from .qa import _pack, _packed_geometric, _unpack, _width


# ---------------------------------------------------------------------------
# disc (one hole, genus 0)
# ---------------------------------------------------------------------------

def _disc_numerator_rows(tau: int, max_m: int) -> list:
    """[[], row_1, ..., row_max_m]: row m holds the integers m^2 c_{m,l}(tau),
    l = 0..m, each a signed product of two binomials."""
    rows = [[]]
    for m in range(1, max_m + 1):
        sign = -1 if (m * tau + m) % 2 == 0 else 1  # (-1)^(m tau + m + l + 1) at l = 0
        rows.append([(sign if l % 2 == 0 else -sign) * binomial_ext(m, l)
                     * binomial_ext(m * tau + l - 1, m - 1) for l in range(m + 1)])
    return rows


def disc_rows(tau: int, max_m: int) -> list:
    """Single-cover disc invariants for m = 1..max_m, row m-1 being
    [n_{m,0}, ..., n_{m,m}]: m^2 n_{m,l} = sum_{d | gcd(m,l)} mu(d)
    (m/d)^2 c_{m/d,l/d}, one strided add of the numerator row m/d per d | m,
    certified divisible by m^2; the first remainder, in the order m, l, is a
    TheoremViolation."""
    nums, rows = _disc_numerator_rows(tau, max_m), []
    for m in range(1, max_m + 1):
        total = nums[m][:]
        for d in divisors(m)[1:]:
            mu = moebius(d)
            if mu:
                total[::d] = [t + mu * c for t, c in zip(total[::d], nums[m // d])]
        sq = m * m
        if any(t % sq for t in total):
            for l, t in enumerate(total):
                certified_div(t, sq, "n_({},{})(tau={})", m, l, tau)
        rows.append([t // sq for t in total])
    return rows


def _dlog_width(norm: list) -> int:
    """Byte width of the packed levels D_n, n < len(norm), of
    ``series_dlog``'s recurrence, given norm[n] >= |S_n|_1: the l1 norm is
    submultiplicative, so |D_n|_1 <= n |S_n|_1 + sum_(0<k<n) |D_k|_1
    |S_(n-k)|_1, and ``_width`` keeps each bound below 2^(8 width - 1)."""
    bound = [0]
    for n in range(1, len(norm)):
        bound.append(n * norm[n] + sum(bound[k] * norm[n - k] for k in range(1, n)))
    return _width(max(bound))


def _lagrange_numerator(tau: int, n: int) -> list:
    """N Y_N / (1-a), N = n+1, as integer a-coefficients (index = a-power).

    Lagrange inversion of Y = X (1-Y)^tau (1 - a(1-Y)) gives
    N Y_N = sum_{k<N} C(N,k) a^k (1-a)^(N-k) (-1)^(N-1-k) C(N tau, N-1-k);
    every term keeps at least one factor 1-a, which is taken out here.
    """
    out = [0] * (n + 1)
    for k in range(n + 1):
        m = n - k  # the power of 1-a left in term k
        c = (-1) ** m * comb(n + 1, k) * binomial_ext((n + 1) * tau, m)
        if c:
            for j in range(m + 1):
                out[k + j] += (-1) ** j * comb(m, j) * c
    return out


@lru_cache(maxsize=None)
def kernel_level(tau: int, n: int) -> list:
    """Y_(n+1) / (1-a) for the mirror curve Y = X (1-Y)^tau (1 - a(1-Y)), as
    its int a-row [c_0, ..., c_n], index = a-power; read-only.

    Certifies the exact division of the Lagrange sum by N = n+1; a nonzero
    remainder is a TheoremViolation."""
    what = "N Y_N of the mirror curve over N = {} (tau={}, n={})"
    return [certified_div(c, n + 1, what, n + 1, tau, n) for c in _lagrange_numerator(tau, n)]


def disc_series_check(tau: int, max_m: int) -> list:
    """Check the mirror-curve route, Lagrange levels and then log, against
    the disc closed form, on integers, for m <= max_m; return the failure
    records, empty when the two agree.

    Each level S_n = -(1 - a) kernel_level(tau, n - 1) of 1 - Y(X) is one
    int a-row, packed (``_pack``) at the width of ``_dlog_width``; the
    levels D_m = m [X^m] log(1 - Y) follow ``series_dlog``'s recurrence, one
    big-int product a term, and each is read back once (``_unpack``).  With
    x = (-1)^tau a^(1/2) X restored, (-1)^(m tau) D_m at a^(l - m/2) must be
    -m^2 c_{m,l}(tau) for 0 <= l <= m.  ``series.series_dlog`` itself is
    held by the infrastructure round trips and the OV and DT suites.
    """
    if max_m < 1:
        raise ValueError("disc_series_check needs max_m >= 1")
    failures = []
    rows = [[0]]
    for n in range(1, max_m + 1):
        kern = kernel_level(tau, n - 1)
        rows.append([b - c for b, c in zip([0] + kern, kern + [0])])  # (a - 1) K
    width = _dlog_width([sum(map(abs, row)) for row in rows])
    s, d = [_pack(row, width) for row in rows], [0]
    nums = _disc_numerator_rows(tau, max_m)
    for m in range(1, max_m + 1):
        d.append(m * s[m] - sum(d[k] * s[m - k] for k in range(1, m)))
        sign = (-1) ** ((m * tau) % 2)  # x-coordinates
        for l, c in enumerate(_unpack(d[m], width, m + 1)):
            if sign * c != -nums[m][l]:
                failures.append({"m": m, "l": l, "got": sign * c, "want": -nums[m][l]})
    return failures


# ---------------------------------------------------------------------------
# annulus (two holes, genus 0)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _annulus_log(tau: int, order: int) -> list:
    """n times the X^n coefficient of the log of the normalized Bergmann
    kernel (Y(X2)-Y(X1))/(X2-X1)/(1-a), after the substitution X2 = t X1,
    for n <= order: level n maps an a-exponent l to its t-row, the
    coefficients of t^0 .. t^n.

    The kernel is sum_n kernel_level(tau, n) (X1^n + X1^(n-1) X2 + ... +
    X2^n), so its X^n coefficient is S_n = kernel_level(tau, n) (1 + t +
    ... + t^n).  X1^i X2^j -> X^(i+j) t^j is an injective ring homomorphism
    that keeps total degree, so it commutes with the truncation and with
    log: the log's X1^i X2^j coefficient is entry j of level i+j, divided
    by i+j, exactly.  The levels D_n follow ``series_dlog``'s recurrence
    D_n = n S_n - sum_(0<k<n) D_k S_(n-k), which stays integral.  Each
    t-row is packed, as its value at t = 2^(8 width): a row of D_k times
    1 + ... + t^(n-k) is one multiply (``_packed_geometric``), before the
    a-coefficients of kernel_level(tau, n-k) move it.  Packing is a ring
    map, so this is exact; unpacking a level (``_unpack``) needs its
    coefficients below 2^(8 width - 1), and ``_dlog_width`` sets the width
    from |S_n|_1 = (n+1) |kernel_level(tau, n)|_1.
    """
    kern = [[(i, c) for i, c in enumerate(kernel_level(tau, n)) if c]
            for n in range(order + 1)]
    width = _dlog_width([(n + 1) * sum(abs(c) for _, c in kern[n]) for n in range(order + 1)])
    geometric = [_packed_geometric(width, 1, count) for count in range(order + 2)]
    packed, d = [{}], [{}]
    for n in range(1, order + 1):
        acc = {l: n * c * geometric[n + 1] for l, c in kern[n]}
        for k in range(1, n):
            for l, row in packed[k].items():
                h = row * geometric[n - k + 1]
                for i, c in kern[n - k]:
                    acc[l + i] = acc.get(l + i, 0) - c * h
        packed.append(acc)
        d.append({l: _unpack(row, width, n + 1) for l, row in acc.items()})
    return d


@lru_cache(maxsize=None)
def _annulus_column(m1: int, m2: int, tau: int, order: int) -> dict:
    """{l: (m1+m2) c_{(m1,m2),l}}, integers read off the kernel log once per
    column, for the annulus suite's top slice and ``annulus_row``; read-only."""
    n = m1 + m2
    if n > order:
        raise ValueError(f"m1+m2 = {n} exceeds configured truncation {order}")
    return {l: row[m2] for l, row in _annulus_log(tau, order)[n].items() if row[m2]}


def annulus_top_numerator(m1: int, m2: int, tau: int) -> int:
    """(m1+m2) c_{(m1,m2),m1+m2}, the top slice of the annulus coefficient
    times m1+m2, in closed form: an integer."""
    return binomial_ext(m1 * tau + m1 - 1, m1) * binomial_ext(m2 * tau + m2, m2)


def annulus_row(m1: int, m2: int, tau: int, order: int) -> list:
    """Single-cover annulus invariants [n_{(m1,m2),0}, ..., n_{(m1,m2),m1+m2}]:
    (m1+m2) n_{(m1,m2),l} = sum_{d | gcd(m1,m2,l)} s_d mu(d) (m1+m2)/d
    c_{(m1/d,m2/d),l/d}, s_d = (-1)^floor((m1+m2) tau/d), one strided add of
    column (m1/d, m2/d) per d | gcd(m1, m2), certified divisible by m1+m2;
    the first remainder, in l order, is a TheoremViolation."""
    if m1 < 1 or m2 < 1:
        raise ValueError("annulus_row needs m1, m2 >= 1")
    n = m1 + m2
    total = [0] * (n + 1)
    for d in divisors(gcd(m1, m2)):
        mu = moebius(d)
        if mu:
            sign = -mu if (n * tau // d) % 2 else mu
            for l, c in _annulus_column(m1 // d, m2 // d, tau, order).items():
                total[d * l] += sign * c
    return [certified_div(t, n, "n_(({},{}),{})(tau={})", m1, m2, l, tau)
            for l, t in enumerate(total)]


# ---------------------------------------------------------------------------
# multi-hole (>= 3 holes, genus 0, top charge)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 12)
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


@lru_cache(maxsize=1 << 12)
def multihole_n(mu: Partition, tau: int) -> int:
    """Single-cover multi-hole invariant via Moebius inversion over d | mu.

    The divisor weight d^(l-3) matches the genus-0 multiple-cover sum
    K = (-1)^l sum_d d^(l-3) n(mu/d), making the two exact inverses.
    """
    if len(mu) < 3:
        raise ValueError("multihole_n needs l(mu) >= 3")
    if min(mu) < 1:
        raise ValueError("multihole_n needs parts >= 1")
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
