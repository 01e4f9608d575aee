"""Property suites behind ``lmov verify-all`` and the acceptance tests.

Each suite returns a Report of its failure records; a failure in any
suite is what the CLI maps to exit status 2.  Below the suites a check
returns a plain list of failure records, and a refused division is None,
so this is the one place that builds a Report.  Bounds are parameters so
the same code runs the quick CLI sweep and the full acceptance sweep.
``run_all`` runs the whole sweep, for the CLI and for any other caller;
its table names each suite and records the bounds it ran at.
"""

from __future__ import annotations

import random
import time
from math import factorial

from . import genus0, gwdt, onehole, twist
from .arith import TheoremViolation
from .partitions import mn_character, partitions_of, permutation_count, z_factor
from .qa import Z_SQUARED, LaurentQA, PochRow, to_z_basis
from .series import plethystic_dexp, plethystic_dlog, series_dexp, series_dlog


class Report:
    """Outcome of one suite; empty ``failures`` means success.  ``run_all``
    sets the suite's ``name``, the bounds it ran at (``params``) and the
    wall time it measured (``seconds``)."""

    __slots__ = ("failures", "name", "params", "seconds")

    def __init__(self, failures: list | None = None):
        self.failures = [] if failures is None else failures
        self.name, self.params, self.seconds = "", {}, 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def check_disc_integrality(max_m: int, tau_range: range) -> Report:
    """Every n_{m,l}(tau), m <= max_m, certified an integer: one
    ``genus0.disc_rows`` table per tau, whose first remainder raises."""
    for tau in tau_range:
        genus0.disc_rows(tau, max_m)
    return Report()


def check_disc_oracle(max_m: int, tau_range: range) -> Report:
    rep = Report()
    for tau in tau_range:
        rep.failures.extend({"tau": tau, **f} for f in genus0.disc_series_check(tau, max_m))
    return rep


def check_annulus(max_total: int, tau_range: range) -> Report:
    """The top slice l = m1+m2 of every kernel-log column against its
    closed form, both as the integer (m1+m2) c; every single-cover row
    ``genus0.annulus_row``, certified at every charge; the quadratic
    special value n_(1,1) = tau(tau+1)/2."""
    rep = Report()
    for tau in tau_range:
        for m1 in range(1, max_total):
            for m2 in range(1, max_total + 1 - m1):
                top = genus0._annulus_column(m1, m2, tau, max_total).get(m1 + m2, 0)
                want = genus0.annulus_top_numerator(m1, m2, tau)
                if top != want:
                    rep.failures.append(
                        {"tau": tau, "m1": m1, "m2": m2, "got": top, "want": want}
                    )
                genus0.annulus_row(m1, m2, tau, max_total)
        v = genus0.annulus_row(1, 1, tau, max_total)[2]
        if v != tau * (tau + 1) // 2:
            rep.failures.append({"tau": tau, "n_(1,1)": v})
    return rep


def check_multihole(max_size: int, tau_range: range) -> Report:
    rep = Report()
    for tau in tau_range:
        for size in range(3, max_size + 1):
            for mu in partitions_of(size):
                if len(mu) >= 3 and not genus0.multihole_cover_check(mu, tau):
                    rep.failures.append({"tau": tau, "mu": mu})
    return rep


def check_recursion(max_n: int, tau_range: range) -> Report:
    """The framed row recursion for n < max_n: its tau-free core once per n
    (``onehole.verify_recursion``), and per framing the top a-slice run from
    H_0 = 1 by ``onehole.row_top_step``, each H_n for n <= max_n equal to
    the closed form ``gwdt.h_top(n, tau)`` that the OV extraction reads."""
    rep = Report(onehole.verify_recursion(max_n))
    for tau in tau_range:
        h = PochRow.one()
        for n in range(max_n + 1):
            if h != gwdt.h_top(n, tau):
                rep.failures.append({"tau": tau, "n": n, "reason": "top slice != gwdt.h_top"})
            h = onehole.row_top_step(h, n, tau)
    return rep


def check_onehole_chain(max_m: int, tau_range: range) -> Report:
    """The cleared sum against, at tau != 0, its colored-sum definition;
    exact divisibility, q-symmetry and z^2 membership, the m = 1 table.
    The zero-remainder checks of ``arith.div_one_minus`` under
    ``qbinomial_step`` and ``_z2_rows`` certify integrality.  A cell that
    violates a theorem is recorded with its message, and the sweep goes
    on to the next cell."""
    rep = Report()
    for tau in tau_range:
        for m in range(1, max_m + 1):
            if tau and not onehole.closed_form_is_colored_sum(m, tau):
                rep.failures.append({"tau": tau, "m": m, "reason": "closed form != colored sum"})
            try:
                table = onehole.lmov_one_hole(m, tau)  # division, z-basis
            except TheoremViolation as e:
                rep.failures.append({"tau": tau, "m": m, "violation": str(e)})
                continue
            if m == 1:
                s = (-1) ** (tau % 2)
                if table != {(0, 1): s, (0, -1): -s}:
                    rep.failures.append({"tau": tau, "reason": "m=1 table wrong"})
    return rep


def check_gaussian_form(max_m: int, tau_range: range) -> Report:
    if min(tau_range, default=1) < 1:
        raise ValueError("gaussian closed form needs tau >= 1")
    rep = Report()
    for tau in tau_range:
        for m in range(1, max_m + 1):
            if not onehole.closed_form_is_colored_sum(m, tau):
                rep.failures.append({"tau": tau, "m": m})
    return rep


def _genus_zero_matches(mu: tuple, tau: int, table, order: int) -> bool:
    # the g = 0 entry at two_q = 2l - |mu|, times (-1)^l(mu), against the
    # genus-zero closed forms of the mirror-curve side
    size, sign = sum(mu), (-1) ** (len(mu) % 2)
    got = [sign * table.get((0, 2 * l - size), 0) for l in range(size + 1)]
    if len(mu) == 1:
        return got == genus0.disc_rows(tau, size)[-1] and table == onehole.lmov_one_hole(size, tau)
    if len(mu) == 2:
        return got == genus0.annulus_row(*mu, tau, order)
    return got[size] == genus0.multihole_n(mu, tau)


def check_general_partition(max_size: int, tau_range: range) -> Report:
    """Conjecture-level sweep: integral tables for every partition, and the
    genus-zero dictionary: the g = 0 row, signed by (-1)^l(mu), is row
    |mu| of ``disc_rows`` for one part (and the table is ``lmov_one_hole``'s),
    ``annulus_row`` for two, ``multihole_n`` at the top
    charge for three or more."""
    rep = Report()
    for tau in tau_range:
        for size in range(1, max_size + 1):
            for mu in partitions_of(size):
                r = onehole.g_mu_general(mu, tau)
                rep.failures.extend({"tau": tau, **f} for f in r.failures)
                if r.table is not None and not _genus_zero_matches(mu, tau, r.table, max_size):
                    rep.failures.append({"tau": tau, "mu": mu, "reason": "g = 0 != genus zero"})
    return rep


def check_gwdt_identity(order: int, tau_range: range) -> Report:
    rep = Report()
    for tau in tau_range:
        rep.failures.extend({"tau": tau, **f} for f in gwdt.gwdt_check(tau, order))
    return rep


def check_dt(max_loops: int, max_n: int) -> Report:
    rep = Report()
    for loops in range(1, max_loops + 1):
        table = gwdt.dt_extract(loops, max_n)  # raises on any violation
        if table.rows[1] != {0: 1}:
            rep.failures.append({"loops": loops, "reason": "c_(1,0) != 1"})
    return rep


def check_ov(max_m: int, tau_range: range) -> Report:
    rep = Report()
    for tau in tau_range:
        table = gwdt.ooguri_vafa(tau, max_m)
        rep.failures.extend({"tau": tau, **f} for f in table.failures)
        want = {0: (-1) ** (tau % 2)}
        if table.rows[1] != want:
            rep.failures.append({"tau": tau, "N_1": table.rows[1], "want": want})
        if tau <= -1:
            shifted = gwdt.ov_dt_shift_check(table, min(max_m, 6))
            rep.failures.extend({"tau": tau, **f} for f in shifted)
    return rep


def check_twist(p_values: list, max_r: int) -> Report:
    for p in p_values:
        for r in range(1, max_r + 1):
            twist.b_minus(p, r)
            twist.b_plus(p, r)
    return Report()


def check_infrastructure(max_n: int, samples: int, seed: int) -> Report:
    """Character orthogonality, z-basis round trip, a random series' levels
    through the plethystic log and exp and back to the series by the exp;
    an exp that leaves a remainder is a mismatch."""
    rep = Report()
    # first and second orthogonality, times n! (n!/z_mu is the class size)
    for n in range(1, max_n + 1):
        parts, nfact = partitions_of(n), factorial(n)
        weight = {mu: nfact // z_factor(mu) for mu in parts}
        for lam in parts:
            for lam2 in parts:
                s = sum(
                    mn_character(lam, mu) * mn_character(lam2, mu) * weight[mu]
                    for mu in parts
                )
                if s != (nfact if lam == lam2 else 0):
                    rep.failures.append({"orthogonality": (lam, lam2)})
        for mu in parts:
            for nu in parts:
                s = sum(
                    mn_character(lam, mu) * mn_character(lam, nu) * weight[mu]
                    for lam in parts
                )
                if s != (nfact if mu == nu else 0):
                    rep.failures.append({"second-orthogonality": (mu, nu)})
        for mu in parts:
            if z_factor(mu) * permutation_count(mu) != nfact:
                rep.failures.append({"z-count": mu})
    # z-basis round trip: random entries n at (g, v), expanded once as
    # f = sum n (z^2)^g a^(v/2), symmetric under q <-> 1/q
    rng = random.Random(seed)
    z2_powers = [LaurentQA.one()]
    for _ in range(4):
        z2_powers.append(z2_powers[-1] * Z_SQUARED)
    for _ in range(samples):
        entries: dict = {}
        for _ in range(rng.randint(1, 6)):
            g, v, c = rng.randint(0, 4), rng.randint(-3, 3), rng.randint(-9, 9)
            entries[(g, v)] = entries.get((g, v), 0) + c
        entries = {k: c for k, c in entries.items() if c}
        f = LaurentQA.dot((c, z2_powers[g], LaurentQA.monomial(0, v))
                          for (g, v), c in entries.items())
        if to_z_basis(f) != entries:
            rep.failures.append({"z-roundtrip": repr(f)})
    # log-level round trips at order 12 over LaurentQA coefficients
    order = 12
    coeffs = [LaurentQA.one()]
    for n in range(1, order + 1):
        d = {}
        for _ in range(3):
            d[(rng.randint(-4, 4), rng.randint(-2, 2) * 2)] = rng.randint(-5, 5)
        coeffs.append(LaurentQA(d))
    levels = series_dlog(coeffs)
    if plethystic_dexp(plethystic_dlog(levels)) != levels:
        rep.failures.append({"plethystic-roundtrip": "mismatch"})
    if series_dexp(levels) != coeffs:  # a refused exp is None
        rep.failures.append({"log-exp-roundtrip": "mismatch"})
    return rep


QUICK = {
    "disc": dict(max_m=12, tau_range=range(-3, 4)),
    "disc_oracle": dict(max_m=6, tau_range=range(-2, 3)),
    "annulus": dict(max_total=8, tau_range=range(-3, 4)),
    "multihole": dict(max_size=6, tau_range=range(-2, 3)),
    "recursion": dict(max_n=20, tau_range=range(-2, 3)),
    "onehole": dict(max_m=4, tau_range=range(-2, 3)),
    "gaussian": dict(max_m=4, tau_range=range(1, 3)),
    "general": dict(max_size=3, tau_range=range(-1, 2)),
    "gwdt": dict(order=8, tau_range=range(-3, 0)),
    "dt": dict(max_loops=3, max_n=4),
    "ov": dict(max_m=5, tau_range=range(-2, 3)),
    "twist": dict(p_values=[-3, -2, -1, 2, 3], max_r=12),
    "infra": dict(max_n=5, samples=40),
}

FULL = {
    "disc": dict(max_m=40, tau_range=range(-8, 9)),
    "disc_oracle": dict(max_m=12, tau_range=range(-4, 5)),
    "annulus": dict(max_total=16, tau_range=range(-6, 7)),
    "multihole": dict(max_size=10, tau_range=range(-5, 6)),
    "recursion": dict(max_n=50, tau_range=range(-5, 6)),
    "onehole": dict(max_m=8, tau_range=range(-5, 6)),
    "gaussian": dict(max_m=8, tau_range=range(1, 5)),
    "general": dict(max_size=5, tau_range=range(-3, 4)),
    "gwdt": dict(order=12, tau_range=range(-5, 0)),
    "dt": dict(max_loops=5, max_n=6),
    "ov": dict(max_m=8, tau_range=range(-5, 6)),
    "twist": dict(p_values=[-6, -5, -4, -3, -2, -1, 2, 3, 4, 5, 6], max_r=40),
    "infra": dict(max_n=7, samples=200),
}


def run_all(bounds: dict, seed: int = 0):
    """Run every suite in a fixed order; yields one Report per suite, with
    its name from the table below, the bounds it ran at (ranges as lists)
    in ``params`` and its wall time in ``seconds``.  A TheoremViolation
    fails only the suite that raised it: its report carries the message,
    and the later suites still run."""
    suites = [
        ("disc-integrality", check_disc_integrality, bounds["disc"]),
        ("disc-series-oracle", check_disc_oracle, bounds["disc_oracle"]),
        ("annulus", check_annulus, bounds["annulus"]),
        ("multihole", check_multihole, bounds["multihole"]),
        ("row-recursion", check_recursion, bounds["recursion"]),
        ("one-hole-chain", check_onehole_chain, bounds["onehole"]),
        ("gaussian-closed-form", check_gaussian_form, bounds["gaussian"]),
        ("general-partition", check_general_partition, bounds["general"]),
        ("gwdt-identity", check_gwdt_identity, bounds["gwdt"]),
        ("dt-extraction", check_dt, bounds["dt"]),
        ("ov-extraction", check_ov, bounds["ov"]),
        ("twist-integrality", check_twist, bounds["twist"]),
        ("infrastructure", check_infrastructure, dict(bounds["infra"], seed=seed)),
    ]
    for name, check, params in suites:
        ran_at = {k: list(v) if isinstance(v, range) else v for k, v in params.items()}
        start = time.perf_counter()
        try:
            rep = check(**params)
        except TheoremViolation as e:
            rep = Report([{"violation": str(e)}])
        rep.name, rep.params, rep.seconds = name, ran_at, time.perf_counter() - start
        yield rep
