"""Reduced open-string partition function, Ooguri-Vafa and
Donaldson-Thomas extraction, and the GW/DT series identity.

Everything here is a-free: the x^n coefficient of every series is a
PochRow, one dense int row in steps of q over the known denominator
(q;q)_n.  Each level of a series map is one packed big-int sum, and "is a
Laurent polynomial" is an exact division of a row by known factors
1 - q^i (``arith.div_one_minus``), never a numeric truncation.

Ooguri-Vafa route: the log levels of the reduced series Z_tau(q, x) =
sum H_n(q) x^n, taken once, feed the plethystic logarithm, carried as its
integral levels m f_m (``series.plethystic_dlog``); each level must
collapse to (Laurent polynomial)/(1-q), and the integer table N_{m,k} is
the numerator at q^((k+1)/2) divided by m, one divmod per entry.  The
product-form reconstruction prod (1 - q^((k+1)/2 + l) x^m)^N_{m,k} over
l >= 0 is verified exactly: each geometric tower over l is one level g_m
over (q;q)_m, and ``series.plethystic_dexp`` of the g_m must give back
the same levels, numerators over (q;q)_n, which implies agreement to
every finite q-order.

Donaldson-Thomas route: the same extraction, ``_bps_levels``, applied to
the log levels of the loop-quiver Hilbert-Poincare series P_m(q, t) with
t twisted by (-1)^(m-1); the extracted c_{n,k} must be nonnegative
integers with finite support.  Each route keeps its own index map and
sign, and decides what a failure means: OV records it, DT raises.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import TheoremViolation, div_one_minus, ratio_text
from .qa import PochRow, _one_minus_q_row
from .series import plethystic_dexp, plethystic_dlog, series_dlog


def h_top(n: int, tau: int) -> PochRow:
    """Top-charge row coefficient
    (-1)^(n(tau-1)) q^(n(n-1)tau/2 + n^2/2) / prod_{i<=n}(1-q^i)."""
    if n < 0:
        raise ValueError("h_top needs n >= 0")
    sign = (-1) ** ((n * (tau - 1)) % 2)
    return PochRow(n * (n - 1) * tau + n * n, [sign], n)


def z_tau_series(tau: int, order: int) -> list:
    """Reduced partition function sum_n H_n(q) x^n truncated at x^order."""
    return [h_top(n, tau) for n in range(order + 1)]


def coha_series(loops: int, order: int) -> list:
    """Hilbert-Poincare series of the loop quiver:
    sum_n q^(-(m-1) n(n-1)/2) / prod_{i<=n}(1-q^i) t^n."""
    if loops < 1:
        raise ValueError("coha_series needs loops >= 1")
    return [PochRow(-(loops - 1) * n * (n - 1), [1], n) for n in range(order + 1)]


# ---------------------------------------------------------------------------
# Ooguri-Vafa extraction
# ---------------------------------------------------------------------------


class OVTable(NamedTuple):
    """Integer table N_{m,k}(tau) with finite k-support per m."""

    tau: int
    max_m: int
    rows: dict  # m -> {k: N}
    failures: list  # failure records; empty when every check held


def _bps_levels(levels: list):
    """The plethystic levels g_m = m f_m of the series whose ``series_dlog``
    is ``levels``, each read through (1-q) g_m, its row divided by 1 - q^i
    for 2 <= i <= m: the pairs (g_m, terms), where terms lists (u, c, c / m)
    over the terms c q^(u/2) of (1-q) g_m in ascending u, the quotient None
    where m leaves a remainder, and terms is None where a division does."""
    for m, g in enumerate(plethystic_dlog(levels), start=1):
        row = g.row[:]  # (1-q) g_m: the numerator over (q;q)_m / (1-q)
        for i in range(2, m + 1):
            if (row := div_one_minus(row, i)) is None:
                break
        yield g, None if row is None else [(g.lo + 2 * e, c, None if c % m else c // m)
                                           for e, c in enumerate(row) if c]


def ooguri_vafa(tau: int, max_m: int) -> OVTable:
    """Extract N_{m,k}(tau) = -[q^((k+1)/2)] ((1-q) m f_m) / m, one divmod per
    entry, for m <= max_m from the reduced series, and check the product form.
    Integrality and finite support are conjecture-level checks: failures
    land in ``failures`` instead of raising.  The entries carry their sign;
    a negative entry is data, not a failure.
    """
    if max_m < 1:
        raise ValueError("ooguri_vafa needs max_m >= 1")
    failures: list = []
    levels = series_dlog(z_tau_series(tau, max_m))
    rows: dict = {}
    for m, (g, terms) in enumerate(_bps_levels(levels), start=1):
        rows[m] = {}
        if terms is None:
            reason = f"(1-q) f_{m} is not a Laurent polynomial: {m} f_{m} = {g!r}"
            failures.append({"m": m, "reason": reason})
            continue
        for u, c, n in terms:
            k = u - 1  # exponent q^(u/2) = q^((k+1)/2)
            if n is None:
                failures.append({"m": m, "k": k, "reason": f"non-integer {ratio_text(-c, m)}"})
            else:
                rows[m][k] = -n
    table = OVTable(tau, max_m, rows, failures)
    if ov_reconstruction_residue(table, levels) is not None:
        failures.append({"reason": "product reconstruction mismatch"})
    return table


def ov_reconstruction_residue(table: OVTable, levels: list):
    """None if prod_{m,k,l>=0} (1 - q^((k+1)/2+l) x^m)^N_{m,k} rebuilds the
    reduced series whose ``series_dlog`` is ``levels``, else the first bad n.

    Summed over l, the factors at level m have the plethystic level
    g_m = -m sum_k N_{m,k} q^((k+1)/2) / (1-q), a numerator over (q;q)_m;
    ``plethystic_dexp`` of the g_m is compared with ``levels``.  Exp is
    triangular with leading weight 1 (E_n is D_n / n plus terms in D_k,
    k < n): the first level that differs is the first coefficient that does.

    Level n lies in q^(n/2) Z[q, 1/q], as H_n does (n(n-1) tau + n^2 = n
    mod 2), and so do the g_m below n and their Adams maps: an N_{m,k} with
    k + 1 - m odd is a term of D_m that level m lacks, and ends the rows.
    """
    gs = []
    for m in range(1, table.max_m + 1):
        tower = {k + 1: -m * nmk for k, nmk in table.rows[m].items() if nmk}
        if any((u - m) % 2 for u in tower):
            break
        lo = min(tower, default=m)
        row = [tower.get(u, 0) for u in range(lo, max(tower, default=m) + 1, 2)]
        over = PochRow(0, _one_minus_q_row(range(2, m + 1)), m)  # 1/(1-q) over (q;q)_m
        gs.append(PochRow.dot([(1, PochRow(lo, row, 0), over)]))
    bad = len(gs) + 1 if len(gs) < table.max_m else None
    return next((n for n, d in enumerate(plethystic_dexp(gs) if gs else ()) if d != levels[n]), bad)


# ---------------------------------------------------------------------------
# Donaldson-Thomas extraction
# ---------------------------------------------------------------------------


class DTTable(NamedTuple):
    """Nonnegative integer table c_{n,k} for the m-loop quiver."""

    loops: int
    max_n: int
    rows: dict  # n -> {k: c}


def dt_extract(loops: int, max_n: int) -> DTTable:
    """Quantum DT invariants of the loop quiver, certified nonnegative.

    Substitutes t -> (-1)^(loops-1) t in the Hilbert-Poincare series,
    takes the plethystic log, demands (1-q) L_n be Laurent, and reads
    c_{n,k} = (-1)^((loops-1) n) [q^(-k)] ((1-q) n L_n) / n for k >= 0,
    one divmod per entry.
    """
    if max_n < 1:
        raise ValueError("dt_extract needs max_n >= 1")
    p = coha_series(loops, max_n)
    twist = (-1) ** ((loops - 1) % 2)
    levels = series_dlog([c.scale(twist ** (n % 2)) if twist < 0 else c for n, c in enumerate(p)])
    rows: dict = {}
    for n, (_, terms) in enumerate(_bps_levels(levels), start=1):
        if terms is None:
            raise TheoremViolation(
                f"(1-q) L_{n} is not a Laurent polynomial (loops={loops}, max_n={max_n})"
            )
        sign = (-1) ** (((loops - 1) * n) % 2)
        rows[n] = {}
        for u, c, val in terms:
            if u % 2:
                raise TheoremViolation(f"half-integer q-power in DT level {n} (loops={loops})")
            k = -u // 2
            if val is None:
                raise TheoremViolation(
                    f"non-integer DT entry c_({n},{k}) = {ratio_text(sign * c, n)}"
                )
            rows[n][k] = val = sign * val
            if k < 0 or val < 0:
                raise TheoremViolation(f"DT entry outside the certified cone: c_({n},{k}) = {val}")
    return DTTable(loops, max_n, rows)


# ---------------------------------------------------------------------------
# the GW/DT identity and the OV/DT dictionary
# ---------------------------------------------------------------------------


def gwdt_check(tau: int, order: int) -> list:
    """Exact equality Z_tau(q, x) = P_{-tau}(q, (-1)^(tau-1) x q^(1/2))
    coefficient by coefficient up to x^order, for tau <= -1; returns the
    failure records {"n": n}, one per coefficient that differs."""
    if tau > -1:
        raise ValueError("gwdt_check needs tau <= -1")
    z = z_tau_series(tau, order)
    p = coha_series(-tau, order)
    failures = []
    for n in range(order + 1):
        sign = (-1) ** ((n * (tau - 1)) % 2)  # p[n] times sign q^(n/2)
        if z[n] != PochRow(p[n].lo + n, p[n].scale(sign).row, p[n].n):
            failures.append({"n": n})
    return failures


def ov_dt_shift_check(ov: OVTable, max_n: int) -> list:
    """Empirical dictionary between the two integer tables for tau <= -1:

    N_{n, n-2k-1}(tau) = -(-1)^((tau-1) n) c_{n,k} of the (-tau)-loop
    quiver, the index shift coming from matching q^(n/2 + l - k) factors
    against q^((k'+1)/2 + l).  Reads the rows n <= max_n of ``ov``; the
    failure records name each row that differs.
    """
    tau = ov.tau
    if tau > -1:
        raise ValueError("ov_dt_shift_check needs tau <= -1")
    if max_n > ov.max_m:
        raise ValueError("ov_dt_shift_check needs max_n <= the table's max_m")
    dt = dt_extract(-tau, max_n)
    failures = []
    for n in range(1, max_n + 1):
        mapped = {}
        sign = -((-1) ** (((tau - 1) * n) % 2))
        for k, c in dt.rows[n].items():
            val = sign * c
            if val:
                mapped[n - 2 * k - 1] = val
        if mapped != ov.rows[n]:
            failures.append({"n": n, "dt_mapped": mapped, "ov": ov.rows[n]})
    return failures
