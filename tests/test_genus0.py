import json
from fractions import Fraction
from math import gcd

import pytest

import reference
from helpers import a_row, clear_lmov_caches, cli_output, unpack_widths
from lmov import genus0, verify
from lmov.arith import TheoremViolation, binomial_ext, divisors, moebius
from lmov.cli import EXIT_THEOREM, main
from lmov.genus0 import (
    _annulus_column,
    annulus_row,
    annulus_top_numerator,
    disc_rows,
    disc_series_check,
    kernel_level,
    multihole_K,
    multihole_cover_check,
    multihole_n,
)
from lmov.partitions import partitions_of
from lmov.qa import LaurentQA
from reference import annulus_c, disc_c


# --- disc -------------------------------------------------------------------


def test_disc_c_examples():
    for tau in range(-4, 5):
        assert disc_c(1, 0, tau) == (-1) ** (tau % 2)
    for m in (1, 2, 3, 5):
        assert disc_c(m, m, 0) == Fraction(-1, m * m)
    assert disc_c(2, 1, 1) == 1


def test_disc_c_domain():
    with pytest.raises(ValueError):
        disc_c(0, 0, 1)
    with pytest.raises(ValueError):
        disc_c(2, 3, 1)


def test_disc_n_examples():
    for tau in range(-3, 4):
        assert disc_rows(tau, 1) == [[(-1) ** (tau % 2), -((-1) ** (tau % 2))]]
    assert disc_rows(0, 2)[1][2] == 0
    assert disc_rows(1, 2)[1][1] == 1
    assert disc_rows(1, 0) == []


def test_disc_n_matches_fraction_sum_reference():
    # one integer numerator over m^2 against the sum of Fractions mu(d)/d^2 c
    for tau in range(-12, 13):
        rows = disc_rows(tau, 60)
        assert [len(row) for row in rows] == list(range(2, 62)), tau
        for m, row in enumerate(rows, 1):
            assert row == [reference.disc_n(m, l, tau) for l in range(m + 1)], (m, tau)


def test_disc_n_off_by_one_binomial_is_a_violation(monkeypatch, capsys):
    # C(2, 1) off by one, in both of its factors: n_(2,1)(tau=1) = 3*3/4
    real = genus0.binomial_ext
    monkeypatch.setattr(
        genus0, "binomial_ext", lambda n, k: real(n, k) + ((n, k) == (2, 1))
    )
    clear_lmov_caches()
    with pytest.raises(TheoremViolation) as want:
        reference.disc_n(2, 1, 1)
    assert str(want.value) == "n_(2,1)(tau=1) is not an integer: 9/4"
    with pytest.raises(TheoremViolation) as got:
        disc_rows(1, 2)
    assert str(got.value) == str(want.value)
    try:
        assert main(["verify-all", "--quick"]) == EXIT_THEOREM
    finally:  # the sweep's mirror-curve levels and multi-hole values saw it too
        clear_lmov_caches()
    assert capsys.readouterr().out.splitlines()[0].startswith("FAIL  disc-integrality  [")


def test_disc_rows_raise_at_the_first_bad_cell(monkeypatch):
    # a remainder in several cells: the message names the first in the
    # order m, l, the cell the per-cell sum raised at
    real = genus0._disc_numerator_rows

    def bumped(tau, max_m):
        rows = real(tau, max_m)
        for m, l in [(5, 4), (3, 2), (3, 1), (7, 0)]:
            if m <= max_m:
                rows[m][l] += 1
        return rows

    monkeypatch.setattr(genus0, "_disc_numerator_rows", bumped)
    with pytest.raises(TheoremViolation, match=r"^n_\(3,1\)\(tau=2\) is not an integer: "):
        disc_rows(2, 8)
    assert len(disc_rows(2, 2)) == 2


def test_disc_n_moebius_inverts():
    # c_{m,l} = sum over d of n_{m/d,l/d}/d^2 recovers the multi-cover side
    for tau in (-2, 1, 3):
        rows = disc_rows(tau, 8)
        for m in range(1, 9):
            for l in range(0, m + 1):
                total = Fraction(0)
                for d in divisors(gcd(m, l) if l else m):
                    total += Fraction(rows[m // d - 1][l // d], d * d)
                assert total == disc_c(m, l, tau), (m, l, tau)


def test_kernel_level_matches_fixed_point_series():
    # the Lagrange closed form against the fixed-point solution of the mirror
    # curve, divided by Y_1 = 1 - a through the general division
    order = 17
    for tau in range(-6, 7):
        for n in range(order):
            got = kernel_level(tau, n)
            assert a_row(got) == reference.kernel_level(tau, n, order), (tau, n)
            assert len(got) == n + 1 and all(type(c) is int for c in got)


def test_disc_series_oracle_small():
    for tau in (0, -1, 3):
        failures = disc_series_check(tau, 6)
        assert failures == [], failures[:3]


@pytest.mark.parametrize("tau", range(-8, 9))
def test_packed_disc_oracle_matches_the_laurent_oracle(tau):
    for max_m in (1, 2, 5, 16):
        got, want = disc_series_check(tau, max_m), reference.disc_series_check(tau, max_m)
        assert got == want == []


@pytest.mark.parametrize("bump", [lambda n: 1, lambda n: n + 1])
def test_packed_disc_oracle_matches_the_laurent_oracle_on_a_broken_kernel(monkeypatch, bump):
    # one Lagrange coefficient of level n = 3 off: by 1, N = 4 does not
    # divide it and both routes raise the same violation; by N, it
    # divides, and both report the same cells
    real = genus0._lagrange_numerator

    def off(tau, n):
        out = real(tau, n)
        if n == 3:
            out[1] += bump(n)
        return out

    monkeypatch.setattr(genus0, "_lagrange_numerator", off)
    try:
        for tau in (-3, -2, 0, 1, 4):
            for max_m in (3, 4, 9):
                genus0.kernel_level.cache_clear()
                try:
                    got = disc_series_check(tau, max_m)
                except TheoremViolation as e:
                    got = str(e)
                genus0.kernel_level.cache_clear()
                try:
                    want = reference.disc_series_check(tau, max_m)
                except TheoremViolation as e:
                    want = str(e)
                assert got == want, (tau, max_m)
                assert bool(got) == (max_m >= 4), (tau, max_m)
    finally:
        genus0.kernel_level.cache_clear()


def test_disc_table_shape():
    argv = ["disc", "--tau", "-2", "--max-m", "4"]
    rows = json.loads(cli_output(*argv))["rows"]
    assert [(r["m"], r["l"]) for r in rows] == [(m, l) for m in range(1, 5) for l in range(m + 1)]
    want = disc_rows(-2, 4)
    assert all(r["n"] == want[r["m"] - 1][r["l"]] and r["integral"] for r in rows)
    header, *lines = cli_output(*argv, "--format", "csv").splitlines()
    assert header == "m,l,tau,value,integral"
    assert lines == [f"{r['m']},{r['l']},-2,{r['n']},True" for r in rows]


# --- annulus ------------------------------------------------------------------


def test_annulus_c_small_values():
    # hand-expanded kernel logs for the mirror curve
    assert annulus_c(1, 1, 1, order=2) == {1: Fraction(-1), 2: Fraction(1)}
    assert annulus_c(1, 2, 1, order=3) == {
        1: Fraction(1),
        2: Fraction(-3),
        3: Fraction(2),
    }
    assert annulus_c(1, 1, -1, order=2) == {0: Fraction(1), 1: Fraction(-1)}


def test_annulus_log_matches_bivariate_reference():
    # the one-variable log after X2 = t X1 against the bivariate log of the
    # kernel sum_(i,j) kernel_level(tau, i + j) X1^i X2^j, at every (m1, m2, l)
    order = 12
    for tau in range(-6, 7):
        kern = {
            (i, j): a_row(kernel_level(tau, i + j))
            for i in range(order + 1)
            for j in range(order + 1 - i)
        }
        want = reference.series2_log(reference.Series2(LaurentQA.zero(), order, kern))
        for m1 in range(1, order):
            for m2 in range(1, order + 1 - m1):
                coeff = want.coeff(m1, m2)
                assert all(u == 0 and v % 2 == 0 for (u, v), _ in coeff.items())
                want_c = {v // 2: Fraction(c) for (_, v), c in coeff.items()}
                assert annulus_c(m1, m2, tau, order=order) == want_c, (tau, m1, m2)


@pytest.mark.parametrize("tau", range(-6, 7))
def test_packed_annulus_log_matches_the_list_rows(tau, monkeypatch):
    # at the FULL order; the docstring's l1 recursion bounds every level,
    # and the width it sets holds the largest coefficient of every level
    widths = unpack_widths(monkeypatch, genus0)
    genus0._annulus_log.cache_clear()
    want = reference.annulus_log(tau, 16)
    assert genus0._annulus_log(tau, 16) == want
    norm = [(n + 1) * sum(map(abs, kernel_level(tau, n))) for n in range(17)]
    bound = [0]
    for n in range(1, 17):
        bound.append(n * norm[n] + sum(bound[k] * norm[n - k] for k in range(1, n)))
        coeffs = [abs(c) for row in want[n].values() for c in row]
        assert sum(coeffs) <= bound[n], n
        assert max(coeffs) < 2 ** (8 * min(widths) - 1), n


def test_annulus_top_slice_matches_closed_form():
    for tau in range(-4, 5):
        for m1 in range(1, 7):
            for m2 in range(1, 8 - m1):
                got = annulus_c(m1, m2, tau, order=7).get(m1 + m2, Fraction(0))
                want = annulus_top_numerator(m1, m2, tau)
                assert got == Fraction(want, m1 + m2), (m1, m2, tau)
                assert _annulus_column(m1, m2, tau, 7).get(m1 + m2, 0) == want


def test_annulus_symmetry():
    for tau in (-2, 0, 3):
        for m1 in range(1, 5):
            for m2 in range(1, 6 - m1):
                a = annulus_c(m1, m2, tau, order=5)
                b = annulus_c(m2, m1, tau, order=5)
                assert a == b


def test_annulus_row_values():
    for tau in range(-6, 7):
        assert annulus_row(1, 1, tau, 2)[2] == tau * (tau + 1) // 2
    assert annulus_row(1, 1, 1, 2)[2] == 1
    assert annulus_row(2, 2, 1, order=4)[4] == 4


def test_annulus_row_matches_fraction_sum_reference():
    # one integer numerator over m1+m2 against the sum of Fractions mu(d)/d c,
    # whole rows: every charge is an int, equal to the reference's Fraction
    for tau in range(-6, 7):
        for m1 in range(1, 12):
            for m2 in range(1, 13 - m1):
                got = annulus_row(m1, m2, tau, order=12)
                want = [reference.annulus_n(m1, m2, l, tau, order=12)[0]
                        for l in range(m1 + m2 + 1)]
                assert got == want, (m1, m2, tau)
                assert all(type(n) is int for n in got), (m1, m2, tau)


@pytest.fixture
def off_by_one_at_tau_2(monkeypatch):
    # a kernel-log column off by one below the top slice at tau = 2: 1 more
    # than a multiple of m1+m2 where the true column has none
    real = genus0._annulus_column

    def off_by_one(m1, m2, tau, order):
        col = dict(real(m1, m2, tau, order))
        if tau == 2:
            col[1] = col.get(1, 0) + 1
        return col

    monkeypatch.setattr(genus0, "_annulus_column", off_by_one)


def test_annulus_row_remainder_below_the_top_is_a_violation(off_by_one_at_tau_2):
    # the first remainder in l order, its ratio 1/3 off the reference's value
    want = [reference.annulus_n(1, 2, l, 2, 3)[0] for l in range(4)]
    with pytest.raises(TheoremViolation) as e:
        annulus_row(1, 2, 2, 3)
    assert str(e.value) == f"n_((1,2),1)(tau=2) is not an integer: {want[1] + Fraction(1, 3)}"
    assert annulus_row(1, 2, 1, 3) == [reference.annulus_n(1, 2, l, 1, 3)[0] for l in range(4)]


def test_annulus_row_remainder_exits_2_and_fails_the_annulus_suite(off_by_one_at_tau_2, capsys):
    assert main(["annulus", "--tau", "2", "--max-total", "3"]) == EXIT_THEOREM
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("theorem violation: n_((1,1),1)(tau=2) is not an integer: ")
    # QUICK's general-partition sweep stops at tau = 1: it reads no bumped row
    reports = list(verify.run_all(verify.QUICK))
    assert [r.name for r in reports if not r.ok] == ["annulus"]
    assert reports[2].failures[0]["violation"].startswith("n_((1,1),1)(tau=2)")


def test_annulus_row_rejects_bad_arguments():
    for m1, m2 in [(0, 0), (0, 2), (2, 0)]:
        with pytest.raises(ValueError, match="annulus_row needs"):
            annulus_row(m1, m2, 1, m1 + m2)


def test_annulus_row_closed_form_regression():
    # single-cover top-slice closed form with the inversion-consistent sign
    def closed(m1, m2, tau):
        tot = Fraction(0)
        for d in divisors(gcd(m1, m2)):
            mu = moebius(d)
            if not mu:
                continue
            s = (-1) ** (((m1 + m2) * tau // d) % 2)
            tot += Fraction(
                mu
                * s
                * binomial_ext((m1 * tau + m1) // d - 1, m1 // d)
                * binomial_ext((m2 * tau + m2) // d, m2 // d),
                m1 + m2,
            )
        return tot

    for tau in range(-4, 5):
        for m1 in range(1, 7):
            for m2 in range(1, 8 - m1):
                v = annulus_row(m1, m2, tau, order=7)[m1 + m2]
                assert Fraction(v) == closed(m1, m2, tau), (m1, m2, tau)


def test_annulus_truncation_guard():
    with pytest.raises(ValueError):
        annulus_c(3, 3, 1, order=4)


def test_annulus_table_shape():
    argv = ["annulus", "--tau", "1", "--max-total", "4"]
    rows = json.loads(cli_output(*argv))["rows"]
    assert all(r["integral"] for r in rows)
    header, *lines = cli_output(*argv, "--format", "csv").splitlines()
    assert header == "m1,m2,l,tau,value,integral"
    assert len(lines) == len(rows)


# --- multihole ----------------------------------------------------------------


def test_multihole_K_examples():
    assert multihole_K((1, 1, 1), 1) == -4
    for tau in range(-3, 4):
        assert multihole_K((1, 1, 1), tau) == (-1) ** (tau % 2) * (
            tau * (tau + 1)
        ) ** 2
        assert multihole_K((2, 1, 1), 0) == 0
    with pytest.raises(ValueError):
        multihole_K((2, 1), 1)


def test_multihole_n_rejects_parts_below_one():
    for mu in [(0, 0, 0), (2, 1, 0), (1, 1, -1)]:
        with pytest.raises(ValueError, match="multihole_n needs parts >= 1"):
            multihole_n(mu, 1)


def test_multihole_n_examples():
    assert multihole_n((1, 1, 1), 1) == 4
    # gcd of parts 1: single Moebius term
    for tau in (-2, 2):
        assert multihole_n((2, 1, 1), tau) == -multihole_K((2, 1, 1), tau)
    # two-term Moebius sum
    assert multihole_n((2, 2, 2), 1) == -(multihole_K((2, 2, 2), 1) - multihole_K((1, 1, 1), 1))


def test_multihole_cover_consistency():
    for tau in (-3, 0, 2):
        for size in range(3, 9):
            for mu in partitions_of(size):
                if len(mu) >= 3:
                    assert multihole_cover_check(mu, tau), (mu, tau)


def test_the_genus_zero_suites_compute_each_value_once(monkeypatch):
    # at the FULL disc range, one numerator (two binomials) per cell, and
    # at the FULL multihole range one K and one n per (mu, tau)
    calls, real = [], genus0.binomial_ext
    monkeypatch.setattr(genus0, "binomial_ext", lambda n, k: calls.append(n) or real(n, k))
    disc = verify.FULL["disc"]
    assert verify.check_disc_integrality(**disc).ok
    assert len(calls) == 2 * 14_620 == 2 * len(disc["tau_range"]) * sum(
        m + 1 for m in range(1, disc["max_m"] + 1))
    clear_lmov_caches()
    try:
        bounds = verify.FULL["multihole"]
        assert verify.check_multihole(**bounds).ok
        cells = sum(len(mu) >= 3 for size in range(3, bounds["max_size"] + 1)
                    for mu in partitions_of(size)) * len(bounds["tau_range"])
        for cached in (genus0.multihole_K, genus0.multihole_n):
            info = cached.cache_info()
            assert info.misses == info.currsize == cells == 1_133, cached
    finally:
        clear_lmov_caches()


def test_multihole_table():
    argv = ["multihole", "--tau", "1", "--max-size", "5"]
    rows = json.loads(cli_output(*argv))["rows"]
    assert all(len(r["mu"]) >= 3 for r in rows)
    assert all(r["n"] == multihole_n(tuple(r["mu"]), 1) for r in rows)
    header, *lines = cli_output(*argv, "--format", "csv").splitlines()
    assert header == "mu,tau,value,integral"
    assert lines == [f"{' '.join(map(str, r['mu']))},1,{r['n']},True" for r in rows]


# --- p-adic structure behind the integrality proofs -----------------------------
# The divisibility patterns that make the Moebius sums collapse to integers,
# checked directly on the binomial pairs.


def _disc_pair(m, l, tau):
    return binomial_ext(m, l) * binomial_ext(m * tau + l - 1, m - 1)


def test_disc_binomial_pair_congruence_odd_p():
    # p^(2a) divides the d vs p*d summand difference (odd primes)
    for p in (3, 5):
        for alpha in (1, 2):
            for a in (1, 2):
                if a % p == 0:
                    continue
                m = p**alpha * a
                for beta in (1, 2):
                    for b in (1, 2):
                        if b % p == 0:
                            continue
                        l = p**beta * b
                        if l > m:
                            continue
                        for tau in (-2, 0, 1, 3):
                            diff = _disc_pair(m, l, tau) - _disc_pair(
                                m // p, l // p, tau
                            )
                            assert diff % p ** (2 * alpha) == 0, (p, m, l, tau)
                # beta = 0: the scaled term is absent and the pair itself divides
                for b in (1, 2):
                    if b % p == 0:
                        continue
                    l = b
                    if l > m:
                        continue
                    for tau in (-1, 2):
                        assert _disc_pair(m, l, tau) % p ** (2 * alpha) == 0


def test_disc_binomial_pair_congruence_p2():
    # signed variant at p = 2
    def signed(m, l, tau):
        return (-1) ** ((m * tau + m + l) % 2) * _disc_pair(m, l, tau)

    for alpha in (1, 2):
        for a in (1, 3):
            m = 2**alpha * a
            for beta in (1, 2):
                for b in (1, 3):
                    l = 2**beta * b
                    if l > m:
                        continue
                    for tau in (-2, -1, 0, 1, 2):
                        half_sign = (-1) ** (((m * tau + m + l) // 2) % 2)
                        diff = signed(m, l, tau) - half_sign * _disc_pair(
                            m // 2, l // 2, tau
                        )
                        assert diff % 2 ** (2 * alpha) == 0, (m, l, tau)


def test_annulus_binomial_valuation_bound():
    # p^(alpha-beta) divides binom(a*tau+a-1, a) * binom(b*tau+b, b)
    # whenever p^beta || gcd(a, b) and p^alpha | a + b
    def val(n, p):
        v = 0
        while n and n % p == 0:
            n //= p
            v += 1
        return v

    for p in (2, 3, 5):
        for a in range(1, 28):
            for b in range(1, 28):
                alpha = val(a + b, p)
                beta = min(val(a, p), val(b, p))
                if alpha <= beta:
                    continue
                for tau in (-3, 1, 2):
                    prod = binomial_ext(a * tau + a - 1, a) * binomial_ext(
                        b * tau + b, b
                    )
                    assert prod % p ** (alpha - beta) == 0, (p, a, b, tau)
