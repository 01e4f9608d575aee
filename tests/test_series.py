from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import lsum, quantum_int_a, series_division, series_x
from lmov import gwdt, onehole
from lmov.qa import LaurentQA, PochFrac, one_minus_q_prod, quantum_int
from lmov.series import plethystic_dexp, plethystic_dlog, series_dexp, series_dlog
from reference import Series2, series2_log

small_coeff = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
    st.integers(-5, 5),
    max_size=3,
).map(LaurentQA)


def geometric(order):
    # 1/(1-x)
    return [LaurentQA.one()] * (order + 1)


def test_series_mul_and_inverse():
    g = geometric(8)
    one_minus_x = [LaurentQA.one(), LaurentQA.one().scale(-1)] + [LaurentQA.zero()] * 7
    assert reference.series_mul(g, one_minus_x) == reference.series_constant(LaurentQA, 8)
    assert reference.series_inverse(one_minus_x) == g


def test_series_log_examples():
    # log 1 = 0
    assert reference.series_is_zero(series_dlog(reference.series_constant(LaurentQA, 6)))
    # log(1/(1-x)) = sum x^n / n
    lg = series_dlog(geometric(7))
    for n in range(1, 8):
        assert lg[n] == LaurentQA.one().scale(Fraction(1, n)).scale(n)
    with pytest.raises(ValueError):
        series_dlog([LaurentQA.zero()] * 4)


def test_series_exp_log_inverse_on_example():
    # exp(x) = sum x^n / n! is not integral: the library refuses it, and
    # with a division that keeps Fractions log undoes exp
    x = series_x(LaurentQA, 9)
    assert series_dexp(x) is None
    with series_division(keep_fractions=True):
        assert series_dlog(series_dexp(x)) == x


@given(st.lists(small_coeff, min_size=1, max_size=6))
def test_series_exp_log_roundtrip(tail):
    s = [LaurentQA.one()] + tail
    assert series_dexp(series_dlog(s)) == s


@given(st.lists(small_coeff, min_size=1, max_size=6), st.booleans())
def test_series_log_exp_match_power_sums(tail, poch):
    # the derivative recurrences against the O(N^3) power sums, over LaurentQA
    # and over PochFrac coefficients (slot n of degree n), whose power sums run
    # on their rational values; the exps need not be integral, so they run
    # with a division that keeps Fractions
    cls = PochFrac if poch else LaurentQA
    value = reference.as_rational if poch else (lambda c: c)
    if poch:
        tail = [PochFrac(c, n) for n, c in enumerate(tail, start=1)]
    s = [cls.one()] + tail
    want = [c.scale(n) for n, c in enumerate(reference.series_log([value(c) for c in s]))]
    assert [value(c) for c in series_dlog(s)] == want
    s0 = [cls.zero()] + tail
    d0 = [c.scale(n) for n, c in enumerate(s0)]
    want = reference.series_exp([value(c) for c in s0])
    with series_division(keep_fractions=True):
        assert [value(c) for c in series_dexp(d0)] == want
    # the library's own division gives the same exp where it is integral,
    # and refuses it where it is not
    if poch:
        return
    if all(Fraction(x).denominator == 1 for c in want for _, x in c.items()):
        assert series_dexp(d0) == want
    else:
        assert series_dexp(d0) is None


def test_series_dexp_of_the_power_sums_is_the_unknot_row():
    # exp(sum_k p_k x^k / k), p_k = {k}_a / {k}, is the tau = 0 reduced series
    # sum_n H_n x^n, H_n = R_n / prod_(i<=n) {i}: its levels are D_k = p_k.
    # As numerators over (q;q)_k and (q;q)_n, 1/{k} is -q^(k/2) prod_(i<k) (1 - q^i)
    # and 1 / prod_(i<=n) {i} is (-1)^n q^(n(n+1)/4).  n <= 18 keeps it under 1 s
    order = 18
    p = [PochFrac.zero()] + [
        PochFrac((quantum_int_a(k) * one_minus_q_prod(range(1, k))).shift(du=k).scale(-1), k)
        for k in range(1, order + 1)
    ]
    with series_division(keep_fractions=False):
        e = series_dexp(p)
    for n in range(order + 1):
        row = reference._row_numerator(n).shift(du=n * (n + 1) // 2).scale((-1) ** n)
        assert e[n] == PochFrac(row, n), n
    for n in range(6):
        assert reference.as_rational(e[n]) == reference.unknot_row(n), n


def test_the_level_recurrences_sum_in_one_dot_each():
    # series_dlog, series_dexp, plethystic_dlog and plethystic_dexp over both
    # rings, dlog_mu, g_mu_general's Moebius sum and the OV and DT extractions
    # take each sum as one dot, whose products land in one dict: neither
    # LaurentQA nor PochFrac has a + (test_layering pins that), so these runs
    # hold the results
    laurent = [LaurentQA.one()] + [LaurentQA({(k, 0): 1, (-k, 2): k - 3}) for k in range(1, 9)]
    poch = [PochFrac.one()] + [PochFrac(LaurentQA({(k, 0): 2, (0, 2): -1}), k)
                               for k in range(1, 9)]
    onehole.dlog_mu.cache_clear()
    onehole.cal_z_partition.cache_clear()
    with series_division(keep_fractions=True):
        round_trips = [series_dexp(series_dlog(s)) for s in (laurent, poch)]
    levels = [series_dlog(s) for s in (laurent, poch)]
    plethystic_trips = [plethystic_dexp(plethystic_dlog(d)) for d in levels]
    level = onehole.dlog_mu((2, 1, 1), 2)
    general = onehole.g_mu_general((2, 2), -1)
    ov = gwdt.ooguri_vafa(-2, 6)
    gwdt.dt_extract(2, 6)  # raises on any failure
    assert round_trips == [laurent, poch] and plethystic_trips == levels
    # G_mu = |mu| z_mu f_mu, with z_mu = 4 at mu = (2, 1, 1)
    assert reference.as_rational(level) == reference.f_mu((2, 1, 1), 2).scale(4 * 4)
    assert general.failures == [] and ov.failures == []
    assert gwdt.ov_dt_shift_check(ov, 6) == []


def test_solve_functional_identity_phi():
    y = reference.solve_functional(lambda s: reference.series_constant(LaurentQA, 6), LaurentQA, 6)
    assert y == series_x(LaurentQA, 6)


def test_solve_functional_rejects_zero_phi0():
    with pytest.raises(ValueError):
        reference.solve_functional(lambda s: [LaurentQA.zero()] * 5, LaurentQA, 4)


def test_solve_functional_residual_is_zero():
    # phi(Y) = 1 + Y + 3 Y^2 with Laurent scalars
    def phi(y):
        one = reference.series_constant(LaurentQA, 10)
        return reference.series_add(
            reference.series_add(one, y), reference.series_scale(reference.series_mul(y, y), 3)
        )

    y = reference.solve_functional(phi, LaurentQA, 10)
    x = series_x(LaurentQA, 10)
    residual = reference.series_sub(y, reference.series_mul(x, phi(y)))
    assert reference.series_is_zero(residual)
    # first coefficient is phi(0)
    assert y[1] == LaurentQA.one()


def test_solve_functional_mirror_first_coefficient():
    # phi(Y) = (1-Y)^tau (1 - a(1-Y)): X-coefficient is 1 - a
    for tau in (-2, 0, 1, 3):
        y = reference.mirror_series(tau, 4)
        assert y[1] == LaurentQA({(0, 0): 1, (0, 2): -1}), tau


def test_plethystic_log_free_particle():
    # Z = 1/(1-x): f_1 = 1, f_m = 0 for m >= 2
    fs = plethystic_dlog(series_dlog(geometric(8)))
    assert fs[0] == LaurentQA.one()
    assert not any(fs[1:])


def test_plethystic_log_pure_exponential():
    # Z = exp(sum_d x^d/d * c(q^d)) has f_1 = c, f_m = 0 otherwise
    c = lsum((1, quantum_int(2)), (3, LaurentQA.monomial(v=2)))
    order = 6
    acc = [LaurentQA.zero() for _ in range(order + 1)]
    for d in range(1, order + 1):
        acc[d] = c.adams(d).scale(Fraction(1, d)).scale(d)
    fs = plethystic_dlog(series_dlog(series_dexp(acc)))
    assert fs[0] == c
    assert not any(fs[1:])


def test_plethystic_log_degree_two_formula():
    # f_2 = Z_2 - Z_1^2/2 - adams_2(Z_1)/2
    z1 = quantum_int_a(1)
    z2 = quantum_int(2) * LaurentQA.monomial(v=-2)
    fs = plethystic_dlog(series_dlog([LaurentQA.one(), z1, z2]))
    want = lsum((1, z2), (Fraction(-1, 2), z1 * z1), (Fraction(-1, 2), z1.adams(2)))
    assert fs[1] == want.scale(2)


@given(st.lists(small_coeff, min_size=1, max_size=5))
def test_plethystic_roundtrip(tail):
    z = [LaurentQA.one()] + tail
    d = series_dlog(z)
    assert plethystic_dexp(plethystic_dlog(d)) == d


def test_plethystic_log_rejects_bad_constant():
    with pytest.raises(ValueError):
        plethystic_dlog(series_dlog([LaurentQA.monomial(c=2)] + [LaurentQA.zero()] * 3))


def test_series2_log_matches_univariate_diagonal():
    # S(X1, X2) = 1/(1-X1) * 1/(1-X2): log coefficients at (i,j>=1) vanish
    n = 6
    coeffs = {(i, j): LaurentQA.one() for i in range(n + 1) for j in range(n + 1 - i)}
    lg = series2_log(Series2(LaurentQA.zero(), n, coeffs))
    # product splits, so mixed coefficients of the log vanish
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            assert not lg.coeff(i, j), (i, j)
    # pure X2 powers reproduce sum X2^j / j
    for j in range(1, n + 1):
        assert lg.coeff(0, j) == LaurentQA.one().scale(Fraction(1, j))


def test_series2_log_against_brute_force():
    # compare with the alternating-sum log on a small random-ish series
    n = 5
    base = {
        (0, 0): LaurentQA.one(),
        (1, 0): quantum_int(1),
        (0, 1): quantum_int(1),
        (1, 1): LaurentQA.monomial(v=2),
        (2, 0): LaurentQA.monomial(c=-2),
        (0, 2): LaurentQA.monomial(u=2),
    }
    s = Series2(LaurentQA.zero(), n, base)
    lg = series2_log(s)
    # brute force: log(1+u) = sum (-1)^(k+1) u^k / k
    u = Series2(LaurentQA.zero(), n, {k: v for k, v in base.items() if k != (0, 0)})
    acc = Series2(LaurentQA.zero(), n, {})
    power = Series2(LaurentQA.zero(), n, {(0, 0): LaurentQA.one()})
    for k in range(1, n + 1):
        power = reference.series2_mul(power, u)
        term = reference.series2_scale(power, Fraction((-1) ** (k + 1), k))
        acc = reference.series2_add(acc, term)
    for i in range(n + 1):
        for j in range(1, n + 1 - i):
            assert lg.coeff(i, j) == acc.coeff(i, j), (i, j)
