import json
from fractions import Fraction

import pytest

from helpers import cli_output, lsum
from lmov import gwdt
from lmov.arith import TheoremViolation, binomial_ext, loop_quiver_dt
from lmov.genus0 import disc_rows
from lmov.gwdt import (
    DTTable,
    OVTable,
    coha_series,
    dt_extract,
    gwdt_check,
    h_top,
    ooguri_vafa,
    ov_dt_shift_check,
    ov_reconstruction_residue,
    z_tau_series,
)
from lmov.arith import div_one_minus
from lmov.qa import LaurentQA, PochRow
from lmov.series import plethystic_dexp, plethystic_dlog, series_dlog
from lmov.twist import b_minus, b_plus
from reference import RationalQ, as_rational, dt_rows, framed_row, one_minus_q_pow, ov_rows


def _rational(f: PochRow) -> RationalQ:
    return as_rational(f).slice(0)


# --- building blocks ----------------------------------------------------------


def test_h_top_base_values():
    for tau in (-3, 0, 2):
        assert h_top(0, tau) == PochRow.one()
        want = RationalQ.monomial(1, (-1) ** ((tau - 1) % 2)) / one_minus_q_pow(1)
        assert _rational(h_top(1, tau)) == want


def test_h_top_tau0_quadratic():
    want = RationalQ.monomial(4) / (one_minus_q_pow(1) * one_minus_q_pow(2))
    assert _rational(h_top(2, 0)) == want


def test_h_top_equals_framed_row_top_slice():
    for tau in (-2, 0, 1, 3):
        for n in range(0, 6):
            v, top = framed_row(n, tau).top_a()
            assert v == n
            assert top == _rational(h_top(n, tau)), (n, tau)


def test_z_tau_series_shape():
    z = z_tau_series(1, 5)
    assert z[0] == PochRow.one()
    assert z[1] == h_top(1, 1)


def test_coha_series_values():
    p = coha_series(3, 4)
    assert p[0] == PochRow.one()
    assert _rational(p[1]) == RationalQ.one() / one_minus_q_pow(1)
    # loops = 1: no numerator twist
    p1 = coha_series(1, 4)
    for n in range(1, 5):
        den = RationalQ.one()
        for i in range(1, n + 1):
            den = den * one_minus_q_pow(i)
        assert _rational(p1[n]) == RationalQ.one() / den


# --- GW/DT identity -------------------------------------------------------------


def test_gwdt_identity():
    for tau in range(-5, 0):
        assert gwdt_check(tau, 12) == [], tau
    with pytest.raises(ValueError):
        gwdt_check(0, 6)


def test_gwdt_n1_slice():
    # H_1 = (-1)^(tau-1) q^(1/2)/(1-q) matches the substituted 1/(1-q) term
    for tau in (-4, -1):
        sub = RationalQ.monomial(1, (-1) ** ((tau - 1) % 2))
        assert _rational(h_top(1, tau)) == (RationalQ.one() / one_minus_q_pow(1)) * sub


def _twisted_coha(loops, order):
    # t -> (-1)^(loops-1) t, as dt_extract substitutes it
    return [c.scale((-1) ** ((loops - 1) * n)) for n, c in enumerate(coha_series(loops, order))]


def test_plethystic_dlog_levels_have_integer_numerators():
    # m f_m, unlike f_m, is an integer numerator over (q;q)_m at every level
    series = [z_tau_series(tau, 8) for tau in range(-5, 6)]
    series += [_twisted_coha(loops, 8) for loops in range(1, 6)]
    for z in series:
        for m, g in enumerate(plethystic_dlog(series_dlog(z)), start=1):
            assert all(type(c) is int for c in g.row), m


@pytest.mark.parametrize(
    "z", [z_tau_series(tau, 8) for tau in range(-3, 4)]
    + [_twisted_coha(loops, 8) for loops in range(1, 6)],
    ids=[f"tau={tau}" for tau in range(-3, 4)] + [f"loops={loops}" for loops in range(1, 6)],
)
def test_plethystic_round_trip_on_poch_levels(z):
    levels = series_dlog(z)
    assert plethystic_dexp(plethystic_dlog(levels)) == levels


def test_ooguri_vafa_takes_the_log_once(monkeypatch):
    # the table and the product-form check read the same levels
    calls = []

    def counted(s):
        calls.append(len(s))
        return series_dlog(s)

    monkeypatch.setattr("lmov.series.series_dlog", counted)
    monkeypatch.setattr(gwdt, "series_dlog", counted)
    for tau in (-2, 1):
        calls.clear()
        assert ooguri_vafa(tau, 5).failures == []
        assert calls == [6], tau


def test_non_integer_level_entries_keep_their_failure_text(monkeypatch):
    # one coefficient of (1-q) m f_m off by one is no longer divisible by m = 2:
    # -2 q becomes -q at tau = 1, and 2 q^-1 becomes 3 q^-1 for two loops
    real = gwdt.div_one_minus

    def off_by_one(row, k):
        out = real(row, k)
        if k == 2:  # level 2, the one level of these requests that divides
            assert out in ([-2], [2])
            out[0] += 1
        return out

    monkeypatch.setattr(gwdt, "div_one_minus", off_by_one)
    assert ooguri_vafa(1, 2).failures == [
        {"m": 2, "k": 1, "reason": "non-integer 1/2"},
        {"reason": "product reconstruction mismatch"},
    ]
    with pytest.raises(TheoremViolation, match=r"^non-integer DT entry c_\(2,1\) = 3/2$"):
        dt_extract(2, 2)


@pytest.mark.parametrize("extra, message", [
    # q^(1/2): an odd u, divisible by 2
    (LaurentQA.monomial(1, c=2), r"half-integer q-power in DT level 2 \(loops=2\)"),
    # q^1 and q^0: k = -1, and a negative entry at k = 0
    (LaurentQA.monomial(2, c=2), r"DT entry outside the certified cone: c_\(2,-1\) = 1"),
    (LaurentQA.monomial(0, c=-2), r"DT entry outside the certified cone: c_\(2,0\) = -1"),
    # an odd u that also leaves a remainder: the odd u is named first
    (LaurentQA.monomial(1, c=3), r"half-integer q-power in DT level 2 \(loops=2\)"),
    # a remainder at q^-2 below an odd u at q^(1/2): the entries are read in
    # ascending u, so the remainder is named first
    (LaurentQA({(-4, 0): 1, (1, 0): 2}), r"non-integer DT entry c_\(2,2\) = 1/2"),
])
def test_dt_failures_keep_their_text_and_order(monkeypatch, extra, message):
    # dt_extract(2, 2) with ``extra`` added to (1-q) 2 L_2, which is 2 q^-1:
    # a row in steps of q holds one parity, so ``extra`` joins the level's
    # terms, each read as (u, c, c / 2) in ascending u
    real = gwdt._bps_levels
    level = plethystic_dlog(series_dlog(_twisted_coha(2, 2)))[1]
    assert (level.lo, div_one_minus(level.row[:], 2)) == (-2, [2])

    def patched(levels):
        for n, (g, terms) in enumerate(real(levels), start=1):
            if n == 2:
                assert terms == [(-2, 2, 1)]
                total = dict(lsum((1, LaurentQA.monomial(-2, c=2)), (1, extra)).items())
                terms = [(u, c, None if c % 2 else c // 2) for (u, _), c in sorted(total.items())]
            yield g, terms

    monkeypatch.setattr(gwdt, "_bps_levels", patched)
    with pytest.raises(TheoremViolation, match=f"^{message}$"):
        dt_extract(2, 2)


def test_levels_that_do_not_clear_keep_their_failure_text(monkeypatch):
    # (q;q)_3 / (1-q) divides the numerator of each level 3, and no longer
    # does once 1 is added to its lowest coefficient (a row in steps of q
    # holds no q^0 beside the q^(1/2) powers of f_3): (1-q) f_3 and (1-q) L_3
    # are not Laurent
    real = gwdt.div_one_minus
    numerators = []

    def broken(row, k):
        if k == 2:
            numerators.append(row[:])
        elif k == 3:  # level 3, the one level of these requests with this factor:
            row = numerators[-1]  # its numerator, last divided by 1 - q^2
            row[0] += 1
            if (row := real(row, 2)) is None:
                return None
        return real(row, k)

    monkeypatch.setattr(gwdt, "div_one_minus", broken)
    table = ooguri_vafa(1, 3)
    level = plethystic_dlog(series_dlog(z_tau_series(1, 3)))[2]
    assert table.rows[3] == {} and table.rows[2]
    assert table.failures == [
        {"m": 3, "reason": f"(1-q) f_3 is not a Laurent polynomial: 3 f_3 = {level!r}"},
        {"reason": "product reconstruction mismatch"},
    ]
    with pytest.raises(TheoremViolation,
                       match=r"^\(1-q\) L_3 is not a Laurent polynomial \(loops=2, max_n=3\)$"):
        dt_extract(2, 3)


# --- against the RationalQ reference ---------------------------------------------


# past the FULL bounds (tau -5..5 at m <= 8, loops <= 5 at n <= 6): each
# packed level sits at its own width, which grows with the level


@pytest.mark.parametrize("tau", range(-5, 6))
def test_ov_matches_reference(tau):
    table = ooguri_vafa(tau, 12)
    assert table.failures == []
    assert table.rows == ov_rows(tau, 12)


@pytest.mark.parametrize("loops", range(1, 7))
def test_dt_matches_reference(loops):
    assert dt_extract(loops, 10).rows == dt_rows(loops, 10)


# --- Ooguri-Vafa -----------------------------------------------------------------


def test_ov_first_level():
    for tau in range(-4, 5):
        table = ooguri_vafa(tau, 3)
        assert table.rows[1] == {0: (-1) ** (tau % 2)}, tau


def test_ov_tau_minus1_collapses():
    # Z_{-1} is a single Euler tower: only N_{1,0} = -1 survives
    table = ooguri_vafa(-1, 6)
    assert table.failures == []
    assert table.rows[1] == {0: -1}
    for m in range(2, 7):
        assert table.rows[m] == {}


def test_ov_integrality_and_reconstruction_sweep():
    for tau in (-3, 0, 2):
        table = ooguri_vafa(tau, 6)
        assert table.failures == [], tau
        assert ov_reconstruction_residue(table, series_dlog(z_tau_series(tau, 6))) is None


@pytest.mark.parametrize("tau", [-3, -1, 0, 2])
def test_ov_reconstruction_residue_names_the_first_bad_level(tau):
    # one N_{m,k} off by one changes the log level m and no level below it
    table = ooguri_vafa(tau, 8)
    levels = series_dlog(z_tau_series(tau, 8))
    assert ov_reconstruction_residue(table, levels) is None
    for m in (2, 3, 5, 8):
        k = min(table.rows[m], default=0)
        rows = dict(table.rows)
        rows[m] = dict(rows[m])
        rows[m][k] = rows[m].get(k, 0) + 1
        assert ov_reconstruction_residue(table._replace(rows=rows), levels) == m, (tau, m, k)


def test_ov_reconstruction_residue_names_an_entry_off_the_level_lattice():
    # level m of Z_tau holds the powers q^(m/2 + j) alone: an entry N_{m,k}
    # with k + 1 - m odd (here at m = 1, and at m = 3 below a bad m = 2) is
    # a term that no level has, and the first level that differs is named
    table = ooguri_vafa(2, 4)
    levels = series_dlog(z_tau_series(2, 4))
    rows = {m: dict(r) for m, r in table.rows.items()}
    rows[1][1] = 5
    assert ov_reconstruction_residue(table._replace(rows=rows), levels) == 1
    rows = {m: dict(r) for m, r in table.rows.items()}
    rows[3][min(rows[3]) + 1] = 1
    assert ov_reconstruction_residue(table._replace(rows=rows), levels) == 3
    rows[2][min(rows[2])] += 1
    assert ov_reconstruction_residue(table._replace(rows=rows), levels) == 2


def test_ov_negative_entries_are_not_failures():
    table = ooguri_vafa(-1, 2)
    assert any(v < 0 for row in table.rows.values() for v in row.values())
    assert table.failures == []


def test_ov_json_shape():
    obj = json.loads(cli_output("ov", "--tau", "1", "--max-m", "2"))
    assert obj["tau"] == 1
    assert obj["rows"][0] == {"m": 1, "entries": [{"k": 0, "N": -1}]}
    table = ooguri_vafa(1, 2)
    assert obj["rows"] == [
        {"m": m, "entries": [{"k": k, "N": n} for k, n in sorted(table.rows[m].items())]}
        for m in (1, 2)
    ]


# --- Donaldson-Thomas -------------------------------------------------------------


def test_dt_first_level_and_m1():
    for loops in (1, 2, 3, 4):
        t = dt_extract(loops, 4)
        assert t.rows[1] == {0: 1}
    t1 = dt_extract(1, 4)
    for n in range(2, 5):
        assert t1.rows[n] == {}, n


def test_dt_loops2_regression():
    # pinned values for the two-loop quiver
    t = dt_extract(2, 4)
    assert t.rows == {1: {0: 1}, 2: {1: 1}, 3: {3: 1}, 4: {6: 1, 4: 1}}


def test_dt_nonnegative_and_finite():
    for loops in (2, 3, 4):
        t = dt_extract(loops, 5)
        for n, entries in t.rows.items():
            assert all(k >= 0 and c > 0 for k, c in entries.items())
            assert len(entries) < 64


def test_dt_json_shape():
    obj = json.loads(cli_output("dt", "--loops", "2", "--max-n", "2"))
    assert obj["loops"] == 2
    assert obj["rows"] == [
        {"n": 1, "entries": [{"k": 0, "c": 1}]},
        {"n": 2, "entries": [{"k": 1, "c": 1}]},
    ]
    csv = cli_output("dt", "--loops", "2", "--max-n", "2", "--format", "csv")
    assert csv.splitlines() == ["loops,n,k,c", "2,1,0,1", "2,2,1,1"]


def test_dt_at_q1_matches_extremal_and_disc():
    # summed over k at q = 1, the DT tables of the 1- to 5-loop quivers are
    # Reineke's numerical DT invariants; those of the 3-, 5- and 2-loop
    # quivers are the twist-knot extremal invariants and the disc invariants
    def at_q1(loops):
        rows = dt_extract(loops, 6).rows
        return [sum(rows[n].values()) for n in range(1, 7)]

    ns = range(1, 7)
    for loops in range(1, 6):
        assert at_q1(loops) == [loop_quiver_dt(loops, n) for n in ns], loops
    assert at_q1(3) == [1, 1, 3, 10, 40, 171]
    assert at_q1(3) == [b_plus(-1, n) for n in ns] == [-b_minus(-1, n) for n in ns]
    disc = {tau: disc_rows(tau, 6) for tau in (-3, -2, -1)}
    assert at_q1(3) == [row[-1] for row in disc[-3]] == [row[0] for row in disc[-2]]
    assert at_q1(5) == [1, 2, 10, 60, 425, 3296] == [b_plus(-2, n) for n in ns]
    assert at_q1(2) == [1, 1, 1, 2, 5, 13]
    assert at_q1(2) == [(-1) ** n * b_minus(2, n) for n in ns]
    assert at_q1(2) == [(-1) ** n * row[0] for n, row in zip(ns, disc[-1])]


# --- OV/DT dictionary ---------------------------------------------------------------


def test_ov_dt_shift():
    for tau in (-1, -2, -3, -4):
        assert ov_dt_shift_check(ooguri_vafa(tau, 5), 5) == [], tau
    with pytest.raises(ValueError, match="max_n <= the table's max_m"):
        ov_dt_shift_check(ooguri_vafa(-2, 4), 5)
    with pytest.raises(ValueError, match="tau <= -1"):
        ov_dt_shift_check(ooguri_vafa(1, 4), 4)


# --- literal windowed product expansions ---------------------------------------------
# The library's reconstruction check is an exact rational-function identity;
# these tests additionally expand the triple products literally (binomial
# factors, geometric towers term by term) inside a truncated q-window and
# compare against the windowed series, pinning the exponent-lattice
# semantics (the l >= 0 tower and the half-integer offsets).


UMAX = 40  # window: keep q^(u/2) for u <= UMAX


def _win_trim(d, umax=UMAX):
    return {u: c for u, c in d.items() if c and u <= umax}


def _win_mul(a, b, umax):
    out = {}
    for u1, c1 in a.items():
        for u2, c2 in b.items():
            u = u1 + u2
            if u <= umax:
                out[u] = out.get(u, 0) + c1 * c2
    return _win_trim(out, umax)


def _win_rational(f: PochRow):
    # expand num/den upward to the window using the den linear recurrence
    r = _rational(f)
    if not r:
        return {}
    den = r.den
    num = {r.off + i: Fraction(c) for i, c in enumerate(r.num) if c}
    lo = min(num)
    span = UMAX - lo
    inv = [Fraction(0)] * (span + 1)
    inv[0] = Fraction(1, 1) / Fraction(den[0])
    for k in range(1, span + 1):
        s = Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            s += Fraction(den[i]) * inv[k - i]
        inv[k] = -s / Fraction(den[0])
    out = {}
    for u, c in num.items():
        for k, ic in enumerate(inv):
            if ic and u + k <= UMAX:
                out[u + k] = out.get(u + k, 0) + c * ic
    return _win_trim(out)


def _product_expand(factors, x_order):
    # factors: iterable of (m, exponent_u, E) meaning (1 - q^(u/2) x^m)^E.
    # Terms above UMAX can drop back into the window through later factors
    # with negative exponents, so intermediates carry a buffer covering the
    # most negative total contribution the remaining picks could add.
    neg = -min((e for _, e, _ in factors if e < 0), default=0)
    work = UMAX + neg * x_order
    acc = [dict() for _ in range(x_order + 1)]
    acc[0] = {0: Fraction(1)}
    for m, e_u, big_e in factors:
        block = [dict() for _ in range(x_order + 1)]
        for j in range(0, x_order // m + 1):
            c = Fraction(binomial_ext(big_e, j) * (-1) ** (j % 2))
            if c and j * e_u <= work:
                block[j * m] = {j * e_u: c}
        new = [dict() for _ in range(x_order + 1)]
        for i in range(x_order + 1):
            if not acc[i]:
                continue
            for j in range(0, x_order + 1 - i, 1):
                if block[j]:
                    w = _win_mul(acc[i], block[j], work)
                    tgt = new[i + j]
                    for u, c in w.items():
                        tgt[u] = tgt.get(u, 0) + c
        acc = [_win_trim(d, work) for d in new]
    return [_win_trim(d) for d in acc]


def _ov_literal_product(table: OVTable, x_order, l_max):
    factors = []
    for m in sorted(table.rows):
        if m > x_order:
            continue
        for k, nmk in sorted(table.rows[m].items()):
            for l in range(0, l_max + 1):
                factors.append((m, (k + 1) + 2 * l, nmk))
    return _product_expand(factors, x_order)


@pytest.mark.parametrize("tau", [-2, 0, 1])
def test_ov_literal_product_window(tau):
    x_order = 3
    table = ooguri_vafa(tau, x_order)
    got = _ov_literal_product(table, x_order, l_max=40)
    stable = _ov_literal_product(table, x_order, l_max=50)
    assert got == stable  # window saturated: deeper towers do not reach it
    z = z_tau_series(tau, x_order)
    for n in range(x_order + 1):
        assert got[n] == _win_rational(z[n]), (tau, n)


def _dt_literal_product(table: DTTable, t_order, l_max):
    factors = []
    for n in sorted(table.rows):
        if n > t_order:
            continue
        sign = (-1) ** (((table.loops - 1) * n) % 2)
        for k, c in sorted(table.rows[n].items()):
            for l in range(0, l_max + 1):
                factors.append((n, 2 * (l - k), -sign * c))
    return _product_expand(factors, t_order)


@pytest.mark.parametrize("loops", [1, 2, 3])
def test_dt_literal_product_window(loops):
    t_order = 4
    table = dt_extract(loops, t_order)
    got = _dt_literal_product(table, t_order, l_max=40)
    stable = _dt_literal_product(table, t_order, l_max=50)
    assert got == stable
    p = coha_series(loops, t_order)
    sign = (-1) ** ((loops - 1) % 2)
    for n in range(t_order + 1):
        target = p[n].scale(sign ** (n % 2))
        assert got[n] == _win_rational(target), (loops, n)
