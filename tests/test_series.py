from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import quantum_int_a, series_x
from lmov.qa import LaurentQA, PochFrac, one_minus_q_prod, quantum_int
from lmov.series import (
    CoeffRing,
    Series1,
    plethystic_dexp,
    plethystic_dlog,
    series_dexp,
    series_dlog,
)
from reference import Series2, series2_log

LRING = CoeffRing(zero=LaurentQA.zero(), one=LaurentQA.one())

small_coeff = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
    st.integers(-5, 5),
    max_size=3,
).map(LaurentQA)


def series_from(coeffs, order):
    return Series1(LRING, order, coeffs)


def geometric(order):
    # 1/(1-x)
    return Series1(LRING, order, [LaurentQA.one()] * (order + 1))


def test_series_mul_and_inverse():
    g = geometric(8)
    one_minus_x = Series1(LRING, 8, [LaurentQA.one(), LaurentQA.one().scale(-1)])
    assert reference.series_mul(g, one_minus_x).coeffs == reference.series_constant(LRING, 8).coeffs
    assert reference.series_inverse(one_minus_x).coeffs == g.coeffs


def test_series_log_examples():
    # log 1 = 0
    assert reference.series_is_zero(series_dlog(reference.series_constant(LRING, 6)))
    # log(1/(1-x)) = sum x^n / n
    lg = series_dlog(geometric(7))
    for n in range(1, 8):
        assert lg.coeff(n) == LaurentQA.one().scale(Fraction(1, n)).scale(n)
    with pytest.raises(ValueError):
        series_dlog(Series1(LRING, 3, [LaurentQA.zero()]))


def test_series_exp_log_inverse_on_example():
    x = series_x(LRING, 9)
    assert series_dlog(series_dexp(x)).coeffs == x.coeffs


@given(st.lists(small_coeff, min_size=1, max_size=6))
def test_series_exp_log_roundtrip(tail):
    order = len(tail)
    s = Series1(LRING, order, [LaurentQA.one()] + tail)
    assert series_dexp(series_dlog(s)).coeffs == s.coeffs


@given(st.lists(small_coeff, min_size=1, max_size=6), st.booleans())
def test_series_log_exp_match_power_sums(tail, poch):
    # the derivative recurrences against the O(N^3) power sums, over LaurentQA
    # and over PochFrac coefficients (slot n of degree n)
    order = len(tail)
    if poch:
        ring = CoeffRing(zero=PochFrac.zero(), one=PochFrac.one())
        tail = [PochFrac(c, n) for n, c in enumerate(tail, start=1)]
    else:
        ring = LRING
    s = Series1(ring, order, [ring.one] + tail)
    want = [c.scale(n) for n, c in enumerate(reference.series_log(s).coeffs)]
    assert series_dlog(s).coeffs == want
    s0 = Series1(ring, order, [ring.zero] + tail)
    d0 = Series1(ring, order, [c.scale(n) for n, c in enumerate(s0.coeffs)])
    assert series_dexp(d0) == reference.series_exp(s0)


def test_series_dexp_of_the_power_sums_is_the_unknot_row():
    # exp(sum_k p_k x^k / k), p_k = {k}_a / {k}, is the tau = 0 reduced series
    # sum_n H_n x^n, H_n = R_n / prod_(i<=n) {i}: its levels are D_k = p_k.
    # As numerators over (q;q)_k and (q;q)_n, 1/{k} is -q^(k/2) prod_(i<k) (1 - q^i)
    # and 1 / prod_(i<=n) {i} is (-1)^n q^(n(n+1)/4).  n <= 18 keeps it under 1 s
    ring = CoeffRing(zero=PochFrac.zero(), one=PochFrac.one())
    order = 18
    p = [ring.zero] + [
        PochFrac((quantum_int_a(k) * one_minus_q_prod(range(1, k))).shift(du=k).scale(-1), k)
        for k in range(1, order + 1)
    ]
    e = series_dexp(Series1(ring, order, p))
    for n in range(order + 1):
        row = reference._row_numerator(n).shift(du=n * (n + 1) // 2).scale((-1) ** n)
        assert e.coeff(n) == PochFrac(row, n), n
    for n in range(6):
        assert reference.as_rational(e.coeff(n)) == reference.unknot_row(n), n


def test_solve_functional_identity_phi():
    y = reference.solve_functional(lambda s: reference.series_constant(LRING, 6), LRING, 6)
    assert y.coeffs == series_x(LRING, 6).coeffs


def test_solve_functional_rejects_zero_phi0():
    with pytest.raises(ValueError):
        reference.solve_functional(lambda s: Series1(LRING, 4), LRING, 4)


def test_solve_functional_residual_is_zero():
    # phi(Y) = 1 + Y + 3 Y^2 with Laurent scalars
    def phi(y):
        one = reference.series_constant(LRING, 10)
        return reference.series_add(
            reference.series_add(one, y), reference.series_scale(reference.series_mul(y, y), 3)
        )

    y = reference.solve_functional(phi, LRING, 10)
    x = series_x(LRING, 10)
    residual = reference.series_sub(y, reference.series_mul(x, phi(y)))
    assert reference.series_is_zero(residual)
    # first coefficient is phi(0)
    assert y.coeff(1) == LaurentQA.one()


def test_solve_functional_mirror_first_coefficient():
    # phi(Y) = (1-Y)^tau (1 - a(1-Y)): X-coefficient is 1 - a
    for tau in (-2, 0, 1, 3):
        y = reference.mirror_series(tau, 4)
        assert y.coeff(1) == LaurentQA({(0, 0): 1, (0, 2): -1}), tau


def test_plethystic_log_free_particle():
    # Z = 1/(1-x): f_1 = 1, f_m = 0 for m >= 2
    fs = plethystic_dlog(geometric(8))
    assert fs[0] == LaurentQA.one()
    assert all(f.is_zero() for f in fs[1:])


def test_plethystic_log_pure_exponential():
    # Z = exp(sum_d x^d/d * c(q^d)) has f_1 = c, f_m = 0 otherwise
    c = quantum_int(2) + LaurentQA.monomial(v=2, c=3)
    order = 6
    acc = [LaurentQA.zero() for _ in range(order + 1)]
    for d in range(1, order + 1):
        acc[d] = c.adams(d).scale(Fraction(1, d)).scale(d)
    z = series_dexp(Series1(LRING, order, acc))
    fs = plethystic_dlog(z)
    assert fs[0] == c
    assert all(f.is_zero() for f in fs[1:])


def test_plethystic_log_degree_two_formula():
    # f_2 = Z_2 - Z_1^2/2 - adams_2(Z_1)/2
    z1 = quantum_int_a(1)
    z2 = quantum_int(2) * LaurentQA.monomial(v=-2)
    z = Series1(LRING, 2, [LaurentQA.one(), z1, z2])
    fs = plethystic_dlog(z)
    want = z2 - (z1 * z1).scale(Fraction(1, 2)) - z1.adams(2).scale(Fraction(1, 2))
    assert fs[1] == want.scale(2)


@given(st.lists(small_coeff, min_size=1, max_size=5))
def test_plethystic_roundtrip(tail):
    order = len(tail)
    z = Series1(LRING, order, [LaurentQA.one()] + tail)
    fs = plethystic_dlog(z)
    assert plethystic_dexp(fs, LRING, order).coeffs == z.coeffs


def test_plethystic_log_rejects_bad_constant():
    s = Series1(LRING, 3, [LaurentQA.monomial(c=2)])
    with pytest.raises(ValueError):
        plethystic_dlog(s)


def test_series2_log_matches_univariate_diagonal():
    # S(X1, X2) = 1/(1-X1) * 1/(1-X2): log coefficients at (i,j>=1) vanish
    n = 6
    coeffs = {(i, j): LaurentQA.one() for i in range(n + 1) for j in range(n + 1 - i)}
    lg = series2_log(Series2(LRING, n, coeffs))
    # product splits, so mixed coefficients of the log vanish
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            assert lg.coeff(i, j).is_zero(), (i, j)
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
    s = Series2(LRING, n, base)
    lg = series2_log(s)
    # brute force: log(1+u) = sum (-1)^(k+1) u^k / k
    u = Series2(LRING, n, {k: v for k, v in base.items() if k != (0, 0)})
    acc = Series2(LRING, n, {})
    power = Series2(LRING, n, {(0, 0): LaurentQA.one()})
    for k in range(1, n + 1):
        power = reference.series2_mul(power, u)
        term = reference.series2_scale(power, Fraction((-1) ** (k + 1), k))
        acc = reference.series2_add(acc, term)
    for i in range(n + 1):
        for j in range(1, n + 1 - i):
            assert lg.coeff(i, j) == acc.coeff(i, j), (i, j)
