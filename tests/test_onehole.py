import json
from fractions import Fraction
from math import comb, factorial

import pytest

import reference
from helpers import (
    cal_z_cleared,
    clear_lmov_caches,
    cli_output,
    colored_sum,
    laurent,
    lsum,
    m_matrix,
    pack,
    quantum_int_a,
    quantum_prod,
    series_division,
    z2_g_m,
)
from lmov.arith import TheoremViolation, qbinomial_step
from lmov.genus0 import disc_rows
from lmov import arith, genus0, onehole, verify
from lmov.onehole import (
    cal_z_partition,
    closed_form_is_colored_sum,
    dlog_mu,
    g_mu_general,
    lmov_one_hole,
    verify_recursion,
)
from lmov.partitions import partitions_of, z_factor
from lmov.qa import LaurentQA, PochFrac, PochRow, _pack, quantum_int, to_z_basis
from reference import (
    RationalQ,
    RationalQA,
    as_rational,
    cal_z,
    framed_row,
    g_m,
    quantum_ratio,
    unknot_row,
)


# --- colored rows -------------------------------------------------------------


def test_unknot_row_base_cases():
    assert unknot_row(0) == RationalQA.one()
    w1 = unknot_row(1)
    want = RationalQA.from_laurent(quantum_int_a(1)).div_rational(
        RationalQ.from_laurent(quantum_int(1))
    )
    assert w1 == want


def test_framed_row_examples():
    for n in (0, 1, 2, 3):
        assert framed_row(n, 0) == unknot_row(n)
    for tau in (-2, 1, 3):
        sign = (-1) ** (tau % 2)
        assert framed_row(1, tau) == unknot_row(1).scale(sign)


def test_recursion_via_full_rational_arithmetic():
    # the identity with honest rational-function arithmetic at small n
    for tau in (-2, 0, 1):
        h = framed_row(0, tau)
        sign = (-1) ** (tau % 2)
        for n in range(0, 8):
            h_next = framed_row(n + 1, tau)
            lead = RationalQA.from_laurent(
                LaurentQA({(2 * (n + 1), 0): sign, (0, 0): -sign})
            )
            hook = RationalQA.from_laurent(
                LaurentQA(
                    {(2 * n + 1 + 2 * n * tau, 1): 1, (1 + 2 * n * tau, -1): -1}
                )
            )
            assert not (lead * h_next - hook * h), (n, tau)
            h = h_next


def test_verify_recursion_reports_pass():
    assert verify_recursion(30) == []
    assert verify.check_recursion(30, range(-5, 6)).ok


def _extra_term(r):
    u, v = max(k for k, _ in r.items())
    return lsum((1, r), (1, LaurentQA.monomial(u + 1, v)))


@pytest.mark.parametrize(
    "corrupt",
    [lambda r: r.scale(-1), lambda r: r.shift(du=2), _extra_term],
    ids=["sign-flipped", "shifted", "extra-term"],
)
def test_verify_recursion_reports_every_broken_step(monkeypatch, corrupt):
    real = onehole._recursion_pair
    monkeypatch.setattr(onehole, "_recursion_pair", lambda n: (real(n)[0], corrupt(real(n)[1])))
    assert verify_recursion(6) == [{"n": n} for n in range(6)]
    rep = verify.check_recursion(6, range(-2, 4))
    assert rep.failures == [{"n": n} for n in range(6)]


def _unsigned_step(h, n, tau):
    # the top-slice step without its (-1)^tau
    return PochRow(h.lo + 2 * n * tau + 2 * n + 1, h.scale(-1).row, n + 1)


def _overtwisted_step(h, n, tau):
    # the top-slice step with q^(n (tau + 1)) for q^(n tau)
    return PochRow(h.lo + 2 * n * (tau + 1) + 2 * n + 1, h.scale(-((-1) ** (tau % 2))).row, n + 1)


@pytest.mark.parametrize(
    "step, failing_taus",
    [(_unsigned_step, {-3, -1, 1, 3}), (_overtwisted_step, set(range(-3, 4)))],
    ids=["sign-dropped", "overtwisted"],
)
def test_check_recursion_catches_a_broken_framing_factor(monkeypatch, step, failing_taus):
    monkeypatch.setattr(onehole, "row_top_step", step)
    rep = verify.check_recursion(8, range(-3, 4))
    assert {f["tau"] for f in rep.failures} == failing_taus
    assert all(f["reason"] == "top slice != gwdt.h_top" for f in rep.failures)


def test_recursion_pair_is_the_full_row_pair_over_the_row_numerator():
    # the 2-term core times R_n is the full-row pair it was reduced from
    for n in range(13):
        p, r = onehole._recursion_pair(n)
        row = reference._row_numerator(n)
        assert reference.recursion_pair(n) == (p * row, r * row), n


# --- Z_m and g_m ---------------------------------------------------------------


def test_cal_z_m1_closed_form():
    # Z_1 = (-1)^tau {1}_a / {1}^2
    for tau in (-3, -1, 0, 2):
        want = RationalQA.from_laurent(
            quantum_int_a(1).scale((-1) ** (tau % 2))
        ).div_rational(RationalQ.from_laurent(quantum_int(1) * quantum_int(1)))
        assert cal_z(1, tau) == want


def test_cal_z_tau_zero_degeneration():
    # Z_m(tau=0) = {m}_a / {m}^2
    for m in (1, 2, 3, 4):
        want = RationalQA.from_laurent(quantum_int_a(m)).div_rational(
            RationalQ.from_laurent(quantum_int(m) * quantum_int(m))
        )
        assert cal_z(m, 0) == want


def test_cleared_rows_q_binomial_chains_match_q_pascal(monkeypatch):
    # every [mt, j] and [mt + k - 1, k] that the two running chains of
    # _cleared_rows build, against the q-Pascal reference
    built = []

    def step(row, a, j, n):
        out = qbinomial_step(row, a, j, n)
        built.append((n, j, out))
        return out

    monkeypatch.setattr(onehole, "qbinomial_step", step)
    onehole._cleared_rows.cache_clear()
    try:
        for tau in range(-6, 7):
            for m in range(1, 11):
                built.clear()
                onehole._cleared_rows(m, tau)
                mt = m * abs(tau)
                want = {(mt, j) for j in range(1, m + 1)}
                want |= {(mt + k - 1, k) for k in range(1, m + 1)}
                assert {(n, j) for n, j, _ in built} == (want if tau else set()), (m, tau)
                for n, j, out in built:
                    assert out == reference.gaussian_binomial(n, j), (n, j)
    finally:
        onehole._cleared_rows.cache_clear()


def test_cleared_rows_q_binomial_remainder_is_a_violation(monkeypatch):
    monkeypatch.setattr(arith, "div_one_minus", lambda row, k: None)
    onehole._cleared_rows.cache_clear()
    try:
        with pytest.raises(TheoremViolation, match=r"\[6, 1\] is not a polynomial"):
            onehole._cleared_rows(3, 2)
    finally:
        onehole._cleared_rows.cache_clear()


def test_cal_z_cleared_is_integral():
    for tau in range(-4, 5):
        for m in range(1, 7):
            assert all(type(c) is int for _, c in cal_z_cleared(m, tau).items()), (m, tau)


def test_cal_z_cleared_consistent_with_cal_z():
    # the closed form over its divisor is Z_m as the reference partition sum
    for tau in (-2, 1, 3):
        for m in (1, 2, 3):
            div = quantum_ratio(m, 1) * (
                quantum_ratio(m, 1) if tau == 0 else quantum_ratio(m * tau, 1)
            )
            div = div * quantum_int(1) * quantum_int(1)
            back = RationalQA.from_laurent(cal_z_cleared(m, tau)).div_rational(
                RationalQ.from_laurent(div)
            )
            assert back == cal_z(m, tau), (m, tau)


def test_cal_z_gaussian_cross_check():
    # the domain edges: tau = 0 is the degenerate {m}_a, where the colored
    # sum is not defined; the grids below cross-check every tau != 0
    for m in (1, 2, 3):
        assert cal_z_cleared(m, 0) == quantum_int_a(m)
    with pytest.raises(ValueError):
        colored_sum(2, 0)
    for m in (0, -1):
        with pytest.raises(ValueError, match="colored_sum needs m >= 1"):
            colored_sum(m, 1)
    with pytest.raises(ValueError):
        cal_z_cleared(0, 1)


@pytest.mark.parametrize("tau", range(-5, 6))
def test_closed_form_matches_partition_sum(tau):
    for m in range(1, 9):
        assert cal_z_cleared(m, tau) == reference.cal_z_cleared(m, tau), (m, tau)


@pytest.mark.parametrize("tau", [t for t in range(-5, 6) if t])
def test_colored_sum_matches_partition_sum(tau):
    for m in range(1, 9):
        assert colored_sum(m, tau) == reference.cal_z_cleared(m, tau), (m, tau)


@pytest.mark.parametrize("tau", [t for t in range(-5, 6) if t])
def test_packed_colored_sum_matches_the_list_rows(tau):
    # at every FULL cell; the l1 bound |E_m|_1 <= m! C(2L + m - 1, m),
    # L = m |tau|, holds, and the width it sets holds the largest
    # coefficient of E_m = m! [x^m]
    for m in range(1, 9):
        width, _ = onehole.colored_sum(m, tau)
        want = reference.colored_sum(m, tau)
        assert colored_sum(m, tau) == want, (m, tau)
        coeffs = [factorial(m) * abs(c) for _, c in want.items()]
        assert sum(coeffs) <= factorial(m) * comb(2 * m * abs(tau) + m - 1, m)
        assert max(coeffs) < 2 ** (8 * width - 1), (m, tau)


def test_onehole_chain_reports_colored_sum_mismatch(monkeypatch):
    # f_k scaled by k breaks the colored sum's integrality from m = 2 on,
    # while the closed form and the divisor {m}{m tau}/{1}^2 (parts k = 1)
    # are untouched: E_m is no multiple of m!, dividing it refuses (None),
    # a division that keeps Fractions gives the reference's Fractions, and
    # the chain names the cells without raising
    real, real_row = onehole._packed_geometric, reference.geometric_row
    monkeypatch.setattr(onehole, "_packed_geometric", lambda w, k, n: k * real(w, k, n))
    monkeypatch.setattr(reference, "geometric_row",
                        lambda row, k, n: [k * c for c in real_row(row, k, n)])
    for tau in (1, 2):
        for m in (1, 2, 3):
            # the scaled sums stay inside the slot bound: E_m is m! times
            # the list rows' Fractions, not unpacked carries
            width, _ = onehole.colored_sum(m, tau)
            want = reference.colored_sum(m, tau)
            if all(Fraction(c).denominator == 1 for _, c in want.items()):
                assert colored_sum(m, tau) == want
                assert closed_form_is_colored_sum(m, tau)
            else:
                assert colored_sum(m, tau) is None
                with series_division(keep_fractions=True):
                    assert colored_sum(m, tau) == want
                assert not closed_form_is_colored_sum(m, tau)
            top = max(abs(factorial(m) * c) for _, c in want.items())
            assert top < 2 ** (8 * width - 1), (m, tau)
    assert colored_sum(1, 2) == cal_z_cleared(1, 2)
    assert colored_sum(2, 2) is None
    rep = verify.check_gaussian_form(3, range(1, 3))
    assert [(f["tau"], f["m"]) for f in rep.failures] == [(1, 2), (1, 3), (2, 2), (2, 3)]
    rep = verify.check_onehole_chain(3, range(1, 3))
    cells = [(f["tau"], f["m"]) for f in rep.failures]
    assert cells == [(1, 2), (1, 3), (2, 2), (2, 3)]
    assert {f["reason"] for f in rep.failures} == {"closed form != colored sum"}


def test_gaussian_form_refuses_its_tau_range_before_the_first_cell(monkeypatch):
    # tau 2 and 1 come before 0 in the range, but none of them is certified
    calls, real = [], onehole.colored_sum
    monkeypatch.setattr(onehole, "colored_sum", lambda m, t: calls.append((m, t)) or real(m, t))
    with pytest.raises(ValueError, match=r"^gaussian closed form needs tau >= 1$"):
        verify.check_gaussian_form(2, range(2, -1, -1))
    assert calls == []
    assert verify.check_gaussian_form(2, range(2, 0, -1)).ok
    assert calls == [(1, 2), (2, 2), (1, 1), (2, 1)]


@pytest.mark.parametrize("tau", [t for t in range(-6, 7) if t])
def test_packed_certificate_matches_the_dict_comparison(tau):
    # the closed form against the definition as LaurentQA dicts, both from
    # the list-row references: the double-loop closed form and the list-row
    # colored sum, E_m divided by (-1)^(m tau) m!
    for m in range(1, 10):
        want = reference.cal_z_closed_form(m, tau) == reference.colored_sum(m, tau)
        assert closed_form_is_colored_sum(m, tau) == want, (m, tau)
        assert want, (m, tau)


def _mutants(m: int, tau: int) -> dict:
    """Cleared rows that the packed certificate must refuse, by name."""
    rows = onehole._cleared_rows(m, tau)
    width, _ = onehole.colored_sum(m, tau)
    v = max(rows)
    u0, row = rows[v]
    half = 1 << (8 * width - 1)
    big = -(-half // factorial(m))  # the least entry with |c| m! >= 2^(8 width - 1)
    # same value at x = 2^(8 width) as the true row: only the range of
    # qa._pack tells them apart
    alias = [row[0] + (1 << 8 * width), row[1] - 1] + row[2:]
    return {
        "entry + 1": {**rows, v: (u0, [row[0] + 1] + row[1:])},
        "entry - 1": {**rows, v: (u0, row[:-1] + [row[-1] - 1])},
        "shifted up a q-step": {**rows, v: (u0 + 2, row)},
        "shifted down a q-step": {**rows, v: (u0 - 2, row)},
        "half a q-step off": {**rows, v: (u0 + 1, row)},
        "slice dropped": {w: r for w, r in rows.items() if w != v},
        "extra slice": {**rows, v + 2 * m + 2: (u0, row)},
        "mixed signs": {**rows, v: (u0, [-row[0]] + row[1:])},
        "entry at the width bound": {**rows, v: (u0, row[:-1] + [big])},
        "entry past the width bound": {**rows, v: (u0, row[:-1] + [-2 * big])},
        "alias of the true row": {**rows, v: (u0, alias)},
    }


@pytest.mark.parametrize("m, tau", [(2, 1), (3, -2), (5, 3), (8, -4)])
def test_packed_certificate_refuses_every_mutant(m, tau, monkeypatch):
    assert closed_form_is_colored_sum(m, tau)
    for name, rows in _mutants(m, tau).items():
        assert laurent(rows) != cal_z_cleared(m, tau), name
        monkeypatch.setattr(onehole, "_cleared_rows", lambda m_, t_, rows=rows: rows)
        assert closed_form_is_colored_sum(m, tau) is False, name
        monkeypatch.undo()
    assert closed_form_is_colored_sum(m, tau)


def test_alias_row_packs_to_the_true_row():
    # the alias mutant is refused by qa._pack's None alone: scaled by -5!, its
    # first entry is past the top of a signed slot
    rows, (width, _) = onehole._cleared_rows(5, 3), onehole.colored_sum(5, 3)
    v = max(rows)
    _, alias = _mutants(5, 3)["alias of the true row"][v]
    assert pack(alias, width) == pack(rows[v][1], width)
    assert max(alias) * factorial(5) >= 2 ** (8 * width - 1)
    assert _pack([-factorial(5) * c for c in alias], width) is None


def test_colored_sum_suites_build_no_laurent(monkeypatch):
    # the packed certificate compares ints: neither suite builds a LaurentQA
    clear_lmov_caches()
    built = []
    init, make = LaurentQA.__init__, LaurentQA._make.__func__
    monkeypatch.setattr(LaurentQA, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    monkeypatch.setattr(LaurentQA, "_make", classmethod(lambda cls, d: built.append(d) or make(cls, d)))
    onehole_rep = verify.check_onehole_chain(**verify.FULL["onehole"])
    gaussian_rep = verify.check_gaussian_form(**verify.FULL["gaussian"])
    monkeypatch.undo()
    assert onehole_rep.ok and gaussian_rep.ok
    assert built == []


def test_g_m_prime_case():
    # m prime: g_m = Z_m(q, a) - Z_1(q^m, a^m)
    for m in (2, 3, 5):
        for tau in (-1, 2):
            want = cal_z(m, tau) + cal_z(1, tau).adams(m).scale(-1)
            assert g_m(m, tau) == want


@pytest.mark.parametrize("tau", range(-6, 7))
def test_row_chain_matches_the_laurent_chain(tau):
    # the rows against the LaurentQA chain they replaced: the double-loop
    # closed form, its Moebius/Adams sum, one exact_div by {m}{m tau}/{1}^2
    # and to_z_basis
    for m in range(1, 10):
        assert cal_z_cleared(m, tau) == reference.cal_z_closed_form(m, tau), (m, tau)
        want = reference.z2_g_m(m, tau)
        assert z2_g_m(m, tau) == want, (m, tau)
        assert lmov_one_hole(m, tau) == to_z_basis(want), (m, tau)


def test_row_chain_refuses_a_dividend_off_by_one(monkeypatch):
    # f + q^k is not divisible by a divisor of positive degree
    real = onehole._cleared_rows

    def corrupt(m, tau):
        rows = dict(real(m, tau))
        if (m, tau) == (3, 2):
            u0, row = rows[1]
            rows[1] = (u0, [row[0] + 1] + row[1:])
        return rows

    monkeypatch.setattr(onehole, "_cleared_rows", corrupt)
    assert lmov_one_hole(2, 2) == to_z_basis(reference.z2_g_m(2, 2))
    with pytest.raises(TheoremViolation, match="not divisible"):
        lmov_one_hole(3, 2)


@pytest.mark.parametrize(
    "rows",
    [{1: (-2, [1, 0, 2])}, {1: (0, [1, 0, 1])}, {-1: (-1, [1, 1])}],
    ids=["not-a-palindrome", "off-centre", "odd-exponents"],
)
def test_one_hole_table_refuses_rows_outside_z2(monkeypatch, rows):
    monkeypatch.setattr(onehole, "_z2_rows", lambda m, tau: rows)
    with pytest.raises(TheoremViolation, match="outside"):
        lmov_one_hole(2, 1)


def test_onehole_chain_divides_once_per_cell(monkeypatch):
    real, cells = onehole._z2_rows, []

    def counted(m, tau):
        cells.append((m, tau))
        return real(m, tau)

    monkeypatch.setattr(onehole, "_z2_rows", counted)
    assert verify.check_onehole_chain(4, range(-2, 3)).ok
    assert sorted(cells) == sorted((m, tau) for m in range(1, 5) for tau in range(-2, 3))


def test_z2_g1_value():
    for tau in (-2, 0, 1, 3):
        assert z2_g_m(1, tau) == quantum_int_a(1).scale((-1) ** (tau % 2))


def test_z2_g2_tau1_value():
    assert z2_g_m(2, 1) == LaurentQA({(0, 2): 1, (0, 0): -1})  # a - 1


def test_z2_g_m_mirror_symmetric():
    for tau in (-3, 0, 2):
        for m in (1, 2, 3, 4):
            f = z2_g_m(m, tau)
            assert f == LaurentQA({(-u, v): c for (u, v), c in f.items()})  # q -> 1/q


def test_lmov_one_hole_m1_table():
    for tau in range(-4, 5):
        s = (-1) ** (tau % 2)
        assert lmov_one_hole(1, tau) == {(0, 1): s, (0, -1): -s}


def test_lmov_one_hole_charge_bound():
    # max |Q| = m/2, i.e. |two_q| <= m; finitely many (g, Q)
    for tau in (-2, 1):
        for m in range(1, 6):
            entries = lmov_one_hole(m, tau)
            assert entries
            assert all(abs(v) <= m for _, v in entries)
            assert all(g >= 0 for g, _ in entries)


def test_lmov_one_hole_tau_zero_vanishing():
    # only m = 1 survives at tau = 0
    assert lmov_one_hole(1, 0) == {(0, 1): 1, (0, -1): -1}
    for m in (2, 3, 4, 5):
        assert lmov_one_hole(m, 0) == {}


def test_disc_onehole_sign_dictionary():
    # genus-0 slice agrees with the disc table up to a uniform sign flip
    for tau in range(-3, 4):
        for m in range(1, 6):
            disc = {2 * l - m: n for l, n in enumerate(disc_rows(tau, m)[m - 1])}
            disc = {k: v for k, v in disc.items() if v}
            one = {
                v: n for (g, v), n in lmov_one_hole(m, tau).items() if g == 0
            }
            assert disc == {k: -v for k, v in one.items()}, (m, tau)


def test_one_hole_json_shape():
    obj = json.loads(cli_output("onehole", "--tau", "1", "--max-m", "2"))
    assert obj["rows"][1]["m"] == 2 and obj["rows"][1]["tau"] == 1
    assert obj["rows"][1]["entries"] == [
        {"g": 0, "two_q": 0, "n": -1},
        {"g": 0, "two_q": 2, "n": 1},
    ]
    assert lmov_one_hole(2, 1) == {(0, 0): -1, (0, 2): 1}


# --- M matrix -------------------------------------------------------------------


def test_m_matrix_single_box():
    assert m_matrix((1,), (1,)) == LaurentQA({(-1, 0): 1, (1, 0): -1})


def test_m_matrix_symmetric():
    for n in (2, 3, 4):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert m_matrix(lam, mu) == m_matrix(mu, lam)


def test_m_matrix_size_two_table():
    # direct character table of S_2: chi_(2) = (1, 1), chi_(1,1) = (1, -1)
    # on classes ((1,1), (2)) with z-factors (2, 2)
    neg1 = quantum_int(1).scale(-1)
    neg2 = quantum_int(2).scale(-1)
    m22 = lsum((Fraction(1, 2), neg1 * neg1), (Fraction(1, 2), neg2))
    m2_11 = lsum((Fraction(1, 2), neg1 * neg1), (Fraction(-1, 2), neg2))
    assert m_matrix((2,), (2,)) == m22
    assert m_matrix((2,), (1, 1)) == m2_11
    assert m_matrix((1, 1), (1, 1)) == m22
    with pytest.raises(ValueError):
        m_matrix((2,), (1,))


# --- general partitions ----------------------------------------------------------


def test_multiset_decompositions_of_221():
    decs = {blocks: count for blocks, count in reference._multiset_decompositions((2, 2, 1))}
    assert decs[((2, 2, 1),)] == 1
    # the four ordered pairs: {(2),(2,1)} and {(1),(2,2)}, both orders each
    assert decs[tuple(sorted([(2,), (2, 1)]))] == 2
    assert decs[tuple(sorted([(1,), (2, 2)]))] == 2
    assert decs[tuple(sorted([(1,), (2,), (2,)]))] == 3
    assert len(decs) == 4
    total_ordered_pairs = sum(c for b, c in decs.items() if len(b) == 2)
    assert total_ordered_pairs == 4


def test_f_mu_single_part_reduces_to_cal_z():
    for m in (1, 2, 3):
        for tau in (-1, 0, 2):
            want = cal_z_partition((m,), tau).scale(Fraction(z_factor((m,)), m))
            assert dlog_mu((m,), tau) == want.scale(m)


def test_g_mu_general_single_row_matches_one_hole():
    for m in (1, 2, 3, 4, 5):
        for tau in (-2, 0, 1):
            r = g_mu_general((m,), tau)
            assert r.failures == []
            assert r.table is not None
            assert r.table == lmov_one_hole(m, tau), (m, tau)


def test_g_mu_general_two_rows_frozen_values():
    r = g_mu_general((1, 1), 1)
    assert r.failures == []
    assert r.table == {(0, 2): 1, (0, 0): -1}
    r0 = g_mu_general((1, 1), 0)
    assert r0.failures == []
    assert r0.table == {}


def test_general_partition_matches_reference():
    # PochFrac pipeline against the same pipeline over RationalQA, whose
    # f_mu sums over the multiset decompositions of mu; |mu| = 5 at one
    # tau only, where the reference is quickest
    for tau in (-2, 0, 1):
        for size in range(1, 6 if tau == 1 else 5):
            for mu in partitions_of(size):
                assert as_rational(cal_z_partition(mu, tau)) == reference.cal_z_partition(
                    mu, tau
                ), (mu, tau)
                assert as_rational(dlog_mu(mu, tau)) == reference.f_mu(mu, tau).scale(
                    z_factor(mu)
                ).scale(sum(mu)), (mu, tau)
                want = reference.g_mu_target(mu, tau).as_laurent()
                assert want is not None
                # the z^2 rewrite is injective, so equal tables mean equal targets
                table = g_mu_general(mu, tau).table
                assert table is not None and table == to_z_basis(want), (mu, tau)


def test_g_mu_general_integral_sweep():
    for tau in (-1, 0, 1):
        for size in (1, 2, 3, 4):
            for mu in partitions_of(size):
                r = g_mu_general(mu, tau)
                assert r.failures == [], (mu, tau)
                assert r.table is not None and all(type(c) is int for c in r.table.values())


def test_cal_z_partition_matches_sigma_sum_reference():
    # the hook-content sum over lam against the double character sum over
    # (lam, sigma) with 1/z_sigma weights, both over (q;q)_|nu|; the
    # RationalQA reference, too slow for this sweep, is tied to the library
    # up to |nu| = 5 by test_general_partition_matches_reference
    for tau in range(-3, 4):
        for size in range(1, 7):
            for nu in partitions_of(size):
                assert cal_z_partition(nu, tau) == reference.cal_z_sigma_sum(nu, tau), (nu, tau)


def test_quantum_dim_of_a_row_is_the_unknot_row():
    for n in range(1, 7):
        assert as_rational(PochFrac(onehole._quantum_dim((n,)), n)) == unknot_row(n), n


def test_dlog_mu_numerators_are_integers():
    for tau in range(-3, 4):
        for size in range(1, 7):
            for mu in partitions_of(size):
                coeffs = [c for _, c in dlog_mu(mu, tau).num.items()]
                assert all(type(c) is int for c in coeffs), (mu, tau)


def test_g_mu_general_rejects_parts_below_one():
    for mu in [(0,), (2, 0), (1, -1)]:
        with pytest.raises(ValueError, match="g_mu_general needs parts >= 1"):
            g_mu_general(mu, 1)


def test_hook_quotient_failure_fails_only_general_partition(monkeypatch):
    # (q;q)_3 + 1 over the hook product of a partition of 3 leaves a
    # remainder, so every W_lam with |lam| = 3 breaks the q-hook-length formula
    real = onehole.exact_div
    q3 = onehole.one_minus_q_prod(range(1, 4))

    def broken(f, g):
        return real(lsum((1, f), (1, LaurentQA.one())) if f == q3 else f, g)

    monkeypatch.setattr(onehole, "exact_div", broken)
    for cached in (onehole._quantum_dim, cal_z_partition, dlog_mu):
        cached.cache_clear()
    try:
        with pytest.raises(TheoremViolation, match=r"\(lam=\(3,\)\)"):
            cal_z_partition((2, 1), 1)
        reports = list(verify.run_all(verify.QUICK))
        assert len(reports) == 13
        assert [r.name for r in reports if not r.ok] == ["general-partition"]
        failed = next(r for r in reports if not r.ok)
        assert failed.failures == [
            {"violation": "(q;q)_n / prod (1 - q^h) is not a polynomial (lam=(3,))"}
        ]
    finally:
        for cached in (onehole._quantum_dim, cal_z_partition, dlog_mu):
            cached.cache_clear()


def test_general_denominator_failure_is_recorded(monkeypatch):
    # z^2 num + 1 leaves a remainder under the factors 1 - q^i of
    # {mu} (q;q)_|mu|, so mu = (2, 1) has no target and no table
    real = onehole.exact_div

    def broken(f, exponents):
        exponents = tuple(exponents)
        one_more = lsum((1, f), (1, LaurentQA.one()))
        return real(one_more if exponents == (2, 1, 1, 2, 3) else f, exponents)

    monkeypatch.setattr(onehole, "exact_div", broken)
    r = g_mu_general((2, 1), 1)
    assert r.table is None
    assert r.failures == [{"mu": (2, 1), "reason": "denominator did not clear"}]
    assert verify.check_general_partition(3, range(1, 2)).failures == [
        {"tau": 1, "mu": (2, 1), "reason": "denominator did not clear"}
    ]


def test_non_integer_general_entries_are_recorded(monkeypatch):
    # one more q^(-|mu|) on an a-slice of z^2 num / ({mu} (q;q)_|mu|) lands
    # on q^0 of that slice of the target, which stays palindromic, but the
    # division by +-|mu| then leaves a remainder there
    mu, tau = (1, 1), 1
    size, v = sum(mu), min(v for _, v in g_mu_general(mu, tau).table)
    real = onehole.exact_div

    def bumped(f, exponents):
        exponents = tuple(exponents)
        out = real(f, exponents)
        bump = LaurentQA({(-size, v): 1})
        return lsum((1, out), (1, bump)) if exponents == mu + (1, 2) else out

    monkeypatch.setattr(onehole, "exact_div", bumped)
    r = g_mu_general(mu, tau)
    assert r.failures == [{"mu": mu, "reason": "non-integer entries"}]
    assert r.table is None


def test_a_target_off_the_z2_basis_is_recorded(monkeypatch):
    # |mu| more at q^(1 - |mu|) on an a-slice of z^2 num / ({mu} (q;q)_|mu|)
    # lands on q^1 of that slice of the target: the division by +-|mu| is
    # exact, but the slice is no palindrome, so it has no z^2 rewrite
    mu, tau = (1, 1), 1
    size, v = sum(mu), min(v for _, v in g_mu_general(mu, tau).table)
    real = onehole.exact_div

    def bumped(f, exponents):
        exponents = tuple(exponents)
        out = real(f, exponents)
        bump = LaurentQA({(2 - size, v): size})
        return lsum((1, out), (1, bump)) if exponents == mu + (1, 2) else out

    monkeypatch.setattr(onehole, "exact_div", bumped)
    r = g_mu_general(mu, tau)
    reason = "target not in Z[z^2, a^(+-1/2)]"
    assert r.failures == [{"mu": mu, "reason": reason}]
    assert r.table is None
    assert verify.check_general_partition(2, range(1, 2)).failures == [
        {"tau": 1, "mu": mu, "reason": reason}
    ]


@pytest.mark.parametrize(
    "name, lengths", [("disc_rows", {1}), ("annulus_row", {2}), ("multihole_n", {3, 4})]
)
def test_general_partition_checks_the_genus_zero_dictionary(monkeypatch, name, lengths):
    # one genus-zero closed form off by one fails the partitions it serves
    real = getattr(genus0, name)

    def off(*args):
        out = real(*args)
        if name == "disc_rows":
            return [[n + 1 for n in row] for row in out]
        return [n + 1 for n in out] if name == "annulus_row" else out + 1

    monkeypatch.setattr(genus0, name, off)
    failures = verify.check_general_partition(4, range(-1, 2)).failures
    assert {len(f["mu"]) for f in failures} == lengths
    assert {f["reason"] for f in failures} == {"g = 0 != genus zero"}


def test_partition_sum_generating_identity():
    # sum over |lam| = m of k^l(lam) {lam}_(y^2) / z_lam equals the t^m
    # coefficient of ((1 - t/y)/(1 - t y))^k; drives the cyclotomic
    # divisibility argument behind the one-hole chain
    order = 6
    pad = [LaurentQA.zero()] * (order - 1)
    y = LaurentQA.monomial(u=1)
    y_inv = LaurentQA.monomial(u=-1)
    for k in (1, 2, 3, 4):
        ratio = reference.series_mul(
            [LaurentQA.one(), y_inv.scale(-1)] + pad,
            reference.series_inverse([LaurentQA.one(), y.scale(-1)] + pad),
        )
        rhs = reference.series_pow_int(ratio, k)
        for m in range(0, order + 1):
            lhs = lsum(*((Fraction(k ** len(lam), z_factor(lam)), quantum_prod(lam))
                         for lam in partitions_of(m)))
            assert lhs == rhs[m], (k, m)
