from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fp_factor, is_prime
import reference
from lmov.arith import (
    TheoremViolation,
    binomial_ext,
    certified_div,
    div_one_minus,
    divisors,
    gaussian_binomial,
    moebius,
    qbinomial_step,
    ratio_text,
)


def test_moebius_small_values():
    assert moebius(1) == 1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_moebius_rejects_zero():
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_divisor_sum():
    # sum over d | n of mu(d) detects n = 1
    for n in range(1, 10001):
        s = sum(moebius(d) for d in divisors(n))
        assert s == (1 if n == 1 else 0), n


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(7) == (1, 7)
    with pytest.raises(ValueError):
        divisors(0)


@given(st.integers(1, 5000))
def test_divisors_exact(n):
    ds = divisors(n)
    assert list(ds) == sorted(set(ds))
    assert all(n % d == 0 for d in ds)
    assert all(d in ds for d in range(1, n + 1) if n % d == 0)


def test_binomial_ext_values():
    assert binomial_ext(5, 2) == 10
    assert binomial_ext(-1, 0) == 1
    assert binomial_ext(-2, 3) == -4
    assert binomial_ext(3, 5) == 0


@given(st.integers(0, 40), st.integers(0, 40))
def test_binomial_ext_matches_comb(n, k):
    assert binomial_ext(n, k) == comb(n, k)


@given(st.integers(1, 30), st.integers(0, 30))
def test_binomial_ext_negative_reflection(n, k):
    assert binomial_ext(-n, k) == (-1) ** k * comb(n + k - 1, k)


@given(st.integers(-60, 60), st.integers(0, 40))
def test_binomial_ext_matches_falling_factorial_reference(n, k):
    assert binomial_ext(n, k) == reference.binomial_ext(n, k)


def test_binomial_ext_rejects_negative_k():
    with pytest.raises(ValueError):
        binomial_ext(3, -1)


def test_certified_div():
    assert certified_div(12, 4, "x") == 3
    assert certified_div(-12, 4, "x") == -3
    assert certified_div(0, 7, "x") == 0
    with pytest.raises(TheoremViolation, match=r"^n_\(2,1\) is not an integer: -3/2$"):
        certified_div(-6, 4, "n_(2,1)")
    with pytest.raises(TheoremViolation, match=r"^n_\(2,1\) is not an integer: -3/2$"):
        certified_div(-6, 4, "n_({},{})", 2, 1)


def test_ratio_text_is_the_text_of_the_fraction():
    # reduced, the sign on the numerator, wherever the division leaves a remainder
    for p in range(-30, 31):
        for q in range(1, 13):
            if p % q:
                assert ratio_text(p, q) == str(Fraction(p, q)), (p, q)


def test_certified_div_formats_its_message_only_on_a_remainder():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("formatted")

    assert certified_div(12, 4, "x={}", Unformattable()) == 3
    with pytest.raises(AssertionError, match="formatted"):
        certified_div(13, 4, "x={}", Unformattable())


def _stripped(row: list) -> tuple:
    # (lo, row without its leading and trailing zeros), as dense_div returns it
    nonzero = [i for i, c in enumerate(row) if c]
    return (nonzero[0], row[nonzero[0] : nonzero[-1] + 1]) if nonzero else (0, [])


@st.composite
def one_minus_dividends(draw):
    """(f, k, divisible): a multiple of 1 - x^k padded with zeros at both
    ends, off by a nonzero monomial when not divisible, as ints or Fractions."""
    k = draw(st.integers(1, 5))
    h = draw(st.lists(st.integers(-9, 9), max_size=8))
    f = h + [0] * k
    f[k:] = [x - y for x, y in zip(f[k:], h)]
    f = [0] * draw(st.integers(0, 3)) + f + [0] * draw(st.integers(0, 3))
    divisible = draw(st.booleans())
    if not divisible:
        f[draw(st.integers(0, len(f) - 1))] += draw(st.sampled_from([-2, -1, 1, 3]))
    if draw(st.booleans()):
        f = [Fraction(c, 3) for c in f]
    return f, k, divisible


@given(one_minus_dividends())
def test_div_one_minus_matches_dense_div(case):
    f, k, divisible = case
    got = div_one_minus(list(f), k)
    want = reference.dense_div(0, list(f), 0, [1] + [0] * (k - 1) + [-1])
    assert (got is not None) == (want is not None) == divisible
    if got is not None:
        assert len(got) == max(len(f) - k, 0)
        assert _stripped(got) == want
        assert all(type(c) is type(f[0]) for c in got)


def test_div_one_minus_edges():
    assert div_one_minus([], 3) == []
    assert div_one_minus([0, 0], 3) == []
    assert div_one_minus([0, 0, 0, 0], 1) == [0, 0, 0]
    assert div_one_minus([2, 0, 0, -2], 3) == [2]
    assert div_one_minus([1], 1) is None
    assert div_one_minus([1, 0, 0], 3) is None
    assert div_one_minus([1, -1, 0, 1], 1) is None


def test_gaussian_binomial_values():
    assert gaussian_binomial(7, 0) == [1]
    assert gaussian_binomial(2, 1) == [1, 1]
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_gaussian_binomial_q1_and_symmetry():
    for m in range(0, 31):
        for r in range(0, m + 1):
            g = gaussian_binomial(m, r)
            assert sum(g) == binomial_ext(m, r)
            assert g == gaussian_binomial(m, m - r)
            assert all(c > 0 for c in g)


def test_gaussian_binomial_degree():
    # degree r(m-r), palindromic coefficient list
    for m in range(0, 12):
        for r in range(0, m + 1):
            g = gaussian_binomial(m, r)
            assert len(g) - 1 == r * (m - r)
            assert g == g[::-1]


@given(st.integers(0, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
def test_gaussian_binomial_matches_pascal_reference(mr):
    m, r = mr
    assert gaussian_binomial(m, r) == reference.gaussian_binomial(m, r)


def test_qbinomial_step_is_one_step_of_either_recurrence():
    # [5, 2] = [5, 1] (1 - q^4) / (1 - q^2) and [5, 2] = [4, 1] (1 - q^5) / (1 - q^2)
    want = reference.gaussian_binomial(5, 2)
    assert qbinomial_step(reference.gaussian_binomial(5, 1), 4, 2, 5) == want
    assert qbinomial_step(reference.gaussian_binomial(4, 1), 5, 2, 5) == want


def test_qbinomial_step_remainder_is_a_violation():
    # (1 - q) / (1 - q^2) is no polynomial
    with pytest.raises(TheoremViolation, match=r"\[7, 2\] is not a polynomial"):
        qbinomial_step([1], 1, 2, 7)


def test_gaussian_binomial_trivial_rows_are_free():
    # r = 0 and r = m run no step of the recurrence, whatever m is
    assert gaussian_binomial(10**12, 0) == gaussian_binomial(10**12, 10**12) == [1]


def test_fp_factor_values():
    assert fp_factor(5, 0) == 1
    assert fp_factor(2, 4) == 3
    assert fp_factor(3, 3) == 2
    with pytest.raises(ValueError):
        fp_factor(4, 3)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 60))
def test_fp_factor_closed_form(p, n):
    assert fp_factor(p, n) == factorial(n) // (p ** (n // p) * factorial(n // p))


def test_fp_congruence_odd_primes():
    # p^(2a) divides f_p(p^a n) - f_p(p^a)^n
    for p in (3, 5):
        for a in (1, 2):
            for n in range(0, 7):
                lhs = fp_factor(p, p**a * n) - fp_factor(p, p**a) ** n
                assert lhs % p ** (2 * a) == 0, (p, a, n)


def test_fp_congruence_two():
    for n in range(0, 51):
        assert (fp_factor(2, 2 * n) - (-1) ** (n // 2)) % 4 == 0, n


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
