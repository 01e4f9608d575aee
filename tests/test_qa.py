from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from helpers import (
    a_slices, is_one, laurent_from_json, laurent_to_json, lsum, pack, poch_frac, quantum_int_a,
    quantum_prod, support,
)
from lmov import qa
from lmov.arith import divisors
from lmov.qa import (
    LaurentQA,
    PochFrac,
    PochRow,
    _Z2_RUNNING_SUMS_FROM,
    _chebyshev_l1,
    _nonneg_mul,
    _pack,
    _packed_geometric,
    _unpack,
    _width,
    _z2_rewrite,
    _z2_row,
    exact_div,
    one_minus_q_prod,
    quantum_int,
    to_z_basis,
)
import reference
from reference import RationalQ, RationalQA, as_rational, one_minus_q_pow, quantum_ratio

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coeffs = st.integers(-9, 9)
keys = st.tuples(st.integers(-6, 6), st.integers(-4, 4))
laurents = st.dictionaries(keys, coeffs, max_size=6).map(LaurentQA)
nonzero_laurents = laurents.filter(bool)
bivariate_laurents = nonzero_laurents.filter(lambda f: set(a_slices(f)) != {0})
laurents_60 = st.dictionaries(keys, st.integers(-60, 60), max_size=6).map(LaurentQA)


# ---------------------------------------------------------------------------
# LaurentQA basics
# ---------------------------------------------------------------------------


def test_quantum_int_values():
    assert not quantum_int(0)
    assert quantum_int(2) == LaurentQA({(2, 0): 1, (-2, 0): -1})
    assert quantum_int(-3) == quantum_int(3).scale(-1)
    assert support(quantum_int(2)) == [(-2, 0), (2, 0)]


def test_quantum_prod():
    assert is_one(quantum_prod(()))
    assert quantum_prod((2, 1)) == quantum_int(2) * quantum_int(1)


def test_quantum_ratio_matches_division():
    for k in range(-4, 5):
        for n in range(1, 5):
            if k == 0:
                assert not quantum_ratio(k, n)
            else:
                assert quantum_ratio(k, n) == reference.exact_div(
                    quantum_int(k * n), quantum_int(n)
                ), (k, n)
    # algebraic limit at base zero
    assert quantum_ratio(5, 0) == LaurentQA.monomial(c=5)
    assert quantum_ratio(-5, 0) == LaurentQA.monomial(c=-5)


@given(laurents_60, st.integers(-12, 12).filter(bool))
def test_div_matches_scaling_by_the_inverse(f, n):
    # one divmod per coefficient against the quotients c / n as Fractions:
    # the same ints on the same support where every quotient is whole, and
    # else None
    want = {k: Fraction(c, n) for k, c in f.items()}
    assert f.scale(n).div(n) == f
    if all(c.denominator == 1 for c in want.values()):
        got = f.div(n)
        assert dict(got.items()) == want
        assert all(type(c) is int for _, c in got.items())
    else:
        assert f.div(n) is None


@given(laurents, laurents)
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(laurents, laurents, laurents)
def test_mul_distributes(f, g, h):
    assert f * lsum((1, g), (1, h)) == lsum((1, f * g), (1, f * h))


@st.composite
def wide_laurents(draw):
    # 1-60 terms over 1-4 a-slices, on u- and v-lattices of step 1-3 with
    # gaps, with one-digit or 40-digit coefficients
    n, slices = draw(st.integers(1, 60)), draw(st.integers(1, 4))
    u0, v0 = draw(st.integers(-40, 40)), draw(st.integers(-6, 6))
    ustep, vstep = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    span = n // slices + draw(st.integers(0, 8))
    big = draw(st.booleans())
    coeff = st.integers(-(10**40), 10**40) if big else st.integers(-9, 9)
    keys = st.tuples(st.integers(0, span), st.integers(0, slices - 1))
    terms = draw(st.dictionaries(keys, coeff, min_size=n, max_size=n))
    return LaurentQA({(u0 + ustep * i, v0 + vstep * j): c for (i, j), c in terms.items()})


# no shrink phase: shrinking the 10^40-coefficient operands of a failing
# case takes minutes, while the unshrunk counterexample is reported at once
@settings(phases=[p for p in Phase if p is not Phase.shrink])
@given(wide_laurents(), wide_laurents(), st.integers(1, 4), st.booleans())
def test_mul_matches_dense_convolution_reference(f, g, k, fractional):
    if fractional and f:
        (u, v), c = next(f.items())
        f = lsum((1, f), (1, LaurentQA.monomial(u, v, Fraction(1, 3) - c)))
    assert f * g == reference.laurent_mul(f, g)
    # (1 + q^k)(1 - q^k) = 1 - q^(2k): the cross terms of the product cancel
    fp = reference.laurent_mul(f, LaurentQA({(0, 0): 1, (2 * k, 0): 1}))
    gm = reference.laurent_mul(g, LaurentQA({(0, 0): 1, (2 * k, 0): -1}))
    assert fp * gm == reference.laurent_mul(fp, gm)


def test_adams_examples():
    assert quantum_int(1).adams(2) == quantum_int(2)  # q^(1/2)-q^(-1/2) -> q-1/q
    assert quantum_int_a(3).adams(1) == quantum_int_a(3)


@given(laurents, st.integers(1, 4), st.integers(1, 4))
def test_adams_composes(f, d, e):
    assert f.adams(d).adams(e) == f.adams(d * e)


@given(laurents, laurents, st.integers(1, 5))
def test_adams_is_ring_hom(f, g, d):
    assert (f * g).adams(d) == f.adams(d) * g.adams(d)
    assert lsum((1, f), (1, g)).adams(d) == lsum((1, f.adams(d)), (1, g.adams(d)))


@st.composite
def mixed_parity_dividends(draw):
    """A nonzero LaurentQA with int coefficients, as ``qa`` takes them,
    whose a-slice at v0 holds both an integer and a half-integer power of
    q; its coefficients are scaled by an int, at times one beyond a
    machine word."""
    d = dict(draw(st.dictionaries(keys, coeffs, max_size=6)))
    v0 = draw(st.integers(-4, 4))
    d[(2 * draw(st.integers(-3, 3)), v0)] = draw(st.integers(1, 9))
    d[(2 * draw(st.integers(-3, 2)) + 1, v0)] = draw(st.integers(-9, -1))
    scale = draw(st.sampled_from([1, 2, -3, 2**64 + 1]))
    return LaurentQA({k: c * scale for k, c in d.items()})


@given(
    mixed_parity_dividends(),
    st.lists(st.integers(1, 4), max_size=5),
    keys,
    st.sampled_from([-2, -1, 1, 3]),
)
def test_exact_div_roundtrip(f, exponents, spot, c):
    # f prod (1 - q^i) divided by the same exponents, repeats included, is
    # f again, as the general division says; the same dividend off by one
    # monomial is refused, and its other a-slices alone are not
    prod = one_minus_q_prod(exponents)
    got = exact_div(f * prod, exponents)
    assert got == f == reference.exact_div(f * prod, prod)
    assert all(type(c) is int for _, c in got.items())
    if not exponents:
        return
    off = lsum((1, f * prod), (1, LaurentQA.monomial(*spot, c)))
    assert exact_div(off, exponents) is None
    rest = LaurentQA({(u, v): x for (u, v), x in off.items() if v != spot[1]})
    assert exact_div(rest, exponents) is not None
    with pytest.raises(reference.NotDivisible):
        reference.exact_div(off, prod)


@given(nonzero_laurents, bivariate_laurents)
def test_exact_div_roundtrip_bivariate_reference(f, g):
    # divisors with an a-power go through the reference's general division
    assert reference.exact_div(f * g, g) == f


def test_exact_div_examples():
    # {2} = -q^(-1) (1 - q) (1 + q) and {1} = -q^(-1/2) (1 - q)
    assert exact_div(quantum_int(2), [1]) == LaurentQA({(-2, 0): -1, (0, 0): -1})
    assert exact_div(quantum_int(1), [1]) == LaurentQA.monomial(-1, 0, -1)
    assert exact_div(quantum_int(1) * quantum_int(1), (1, 1)) == LaurentQA.monomial(-2)
    assert exact_div(one_minus_q_prod(range(1, 4)), range(1, 3)) == one_minus_q_prod([3])
    assert not exact_div(LaurentQA.zero(), [1, 2])
    assert exact_div(quantum_int_a(2), ()) == quantum_int_a(2)
    assert exact_div(one_minus_q_prod([2]), [3]) is None
    assert exact_div(quantum_int(6), [2, 3]) is None  # (1 - q^2)(1 - q^3) does not divide 1 - q^6
    for bad in ([0], [2, -1]):
        with pytest.raises(ValueError, match="exponents >= 1"):
            exact_div(quantum_int(2), bad)


def test_exact_div_bivariate_divisor():
    f = LaurentQA({(0, 2): 1, (0, 0): -1})  # a - 1
    g = LaurentQA({(1, 2): 2, (1, 0): -2, (3, -2): 1, (3, -4): -1})
    assert reference.exact_div(f * g, f) == g
    with pytest.raises(reference.NotDivisible):
        reference.exact_div(lsum((1, f * g), (1, LaurentQA.one())), f)


def _at_each_slot_top(test):
    # max a max b min(len a, len b) at 2^(8n - 1) - 1 and at 2^(8n - 1), where
    # 2 half^2 fills the middle slot: widths n and n + 1, so that every struct
    # slot (1, 2, 4 and 8 bytes, 3 and 5 rounded up) and the bytes path run
    for n in (1, 2, 3, 4, 8, 9):
        half = 2 ** (4 * n - 1)
        test = example([2 ** (8 * n - 1) - 1, 3], [1])(test)
        test = example([half, half], [half, half])(test)
    return test


@given(
    st.lists(st.integers(0, 9) | st.integers(0, 10**30), min_size=1, max_size=12),
    st.lists(st.integers(0, 9) | st.integers(0, 10**30), min_size=1, max_size=12),
)
@_at_each_slot_top
def test_nonneg_mul_matches_the_double_loop(a, b):
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    assert _nonneg_mul(a, b) == want


@given(st.integers(1, 9), st.data())
def test_unpack_round_trips_rows_up_to_the_slot_extremes(width, data):
    # 2^(8 width - 1) - 1 and -2^(8 width - 1), side by side and in the top
    # slot, leave no slot negative and carry into no other slot
    top = 2 ** (8 * width - 1) - 1
    inner = data.draw(st.lists(st.integers(-top - 1, top), max_size=8))
    row = data.draw(st.permutations([top, -top - 1, top, -top - 1] + inner))
    assert _unpack(pack(row, width), width, len(row)) == row
    assert _pack(row, width) == pack(row, width)


@pytest.mark.parametrize("width", range(1, 10))
def test_pack_takes_exactly_the_signed_slot_range(width):
    # -2^(8 width - 1) packs and reads back, alone and in any slot; one past
    # either end of the range refuses the whole row with None, on the struct
    # path (1, 2, 4 and 8 bytes) and on the bytes path alike
    half = 2 ** (8 * width - 1)
    for row in ([-half], [-half, half - 1, -half], [0, 0, -half]):
        assert _pack(row, width) == pack(row, width)
        assert _unpack(_pack(row, width), width, len(row)) == row
    for bad in (half, -half - 1):
        assert _pack([bad], width) is None
        assert _pack([1, bad, -1], width) is None


@given(st.integers(0, 2**200))
def test_width_is_the_least_with_room_for_the_sign(bound):
    width = _width(bound)
    assert bound < 2 ** (8 * width - 1)
    assert width == 1 or bound >= 2 ** (8 * width - 9)


@given(st.lists(st.integers(-9, 9) | st.integers(-10**20, 10**20), max_size=8),
       st.integers(1, 4), st.integers(1, 5))
def test_packed_geometric_matches_the_dense_div_reference(row, step, count):
    # one multiply by the packed geometric sum, at the width its l1 bound
    # sets, against one general division by 1 - x^step
    width = _width(count * sum(map(abs, row)))
    length = len(row) + step * (count - 1)
    got = _unpack(pack(row, width) * _packed_geometric(width, step, count), width, length)
    lo, want = reference.times_geometric(list(row), step, count)
    assert got[lo : lo + len(want)] == want
    assert not any(got[:lo]) and not any(got[lo + len(want) :])


# ---------------------------------------------------------------------------
# dot: one pass per sum of products
# ---------------------------------------------------------------------------

dot_terms = st.lists(st.tuples(st.integers(-9, 9), laurents, laurents), max_size=6)


def _laurent_sum(products):
    # coefficient by coefficient, in a plain dict: the sum that dot replaced
    total: dict = {}
    for p in products:
        for k, c in p.items():
            total[k] = total.get(k, 0) + c
    return LaurentQA(total)


@given(dot_terms, st.booleans())
def test_dot_matches_the_sum_of_reference_products(terms, cancel):
    # c = 0, negative c, zero operands and the empty list all come up; with
    # cancel, every term also enters negated, so the sum is zero
    if cancel:
        terms = terms + [(-c, b, a) for c, a, b in terms]
    want = _laurent_sum(reference.laurent_mul(a, b).scale(c) for c, a, b in terms)
    got = LaurentQA.dot(terms)
    assert got == want
    assert all(c for _, c in got.items())
    if cancel:
        assert not got


def test_dot_examples():
    x, y = LaurentQA({(1, 0): 2, (0, 2): -1}), LaurentQA({(-1, 0): 3, (4, -2): 1})
    assert LaurentQA.dot([]) == LaurentQA.zero()
    assert LaurentQA.dot([(0, x, y)]) == LaurentQA.zero()
    assert LaurentQA.dot([(1, x, LaurentQA.zero())]) == LaurentQA.zero()
    assert LaurentQA.dot([(-3, x, y)]) == reference.laurent_mul(x, y).scale(-3)
    assert LaurentQA.dot([(2, x, y), (-1, y, x), (-1, x, y)]) == LaurentQA.zero()
    assert x * y == LaurentQA.dot([(1, x, y)])


def _pochfracs(n):
    # (c, a, b) with a.n + b.n = n
    return st.tuples(st.integers(-5, 5), laurents, laurents, st.integers(0, n)).map(
        lambda t: (t[0], PochFrac(t[1], t[3]), PochFrac(t[2], n - t[3])))


def _dense_q_binomial(n, k):
    return LaurentQA({(2 * e, 0): c for e, c in enumerate(reference.gaussian_binomial(n, k))})


@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_pochfracs(n), max_size=5))))
def test_pochfrac_dot_matches_the_sum_of_products(n_terms):
    n, terms = n_terms
    got = PochFrac.dot(terms)
    want = RationalQA.zero()
    for c, a, b in terms:
        want = want + as_rational((a * b).scale(c))
    assert as_rational(got) == want
    # and the dense reference: the sum of c a.num b.num [n, a.n]_q, over (q;q)_n
    mul = reference.laurent_mul
    want = _laurent_sum(mul(mul(a.num, b.num), _dense_q_binomial(a.n + b.n, a.n)).scale(c)
                        for c, a, b in terms)
    assert got == PochFrac(want, n)


@given(nonzero_laurents, nonzero_laurents, st.integers(0, 3), st.integers(1, 3),
       st.integers(-5, 5).filter(bool), st.booleans())
def test_pochfrac_dot_of_mixed_degrees_raises_as_add_does(f, g, n, gap, c, zero_first):
    # degrees n + 1 and n + 1 + gap; the zero terms have no degree, and are skipped
    first, second = (c, PochFrac(f, n), PochFrac(g, 1)), (-c, PochFrac(g, n + gap), PochFrac(f, 1))
    terms = [first, (1, PochFrac.zero(), PochFrac(f, 7)), second]
    if zero_first:
        terms.insert(0, (0, PochFrac(f, 9), PochFrac(g, 9)))
    with pytest.raises(ValueError) as dotted:
        PochFrac.dot(terms)
    assert str(dotted.value) == f"cannot add over (q;q)_{n + 1} and (q;q)_{n + 1 + gap}"
    # a partial sum that cancels keeps the degrees of its terms: x - x + y is
    # refused, with x over (q;q)_(n + 1) and y over (q;q)_(n + 1 + gap)
    x, y, one = PochFrac(f, n + 1), PochFrac(g, n + 1 + gap), PochFrac.one()
    with pytest.raises(ValueError) as cancelled:
        PochFrac.dot([(c, x, one), (-c, x, one), (1, y, one)])
    assert str(cancelled.value) == str(dotted.value)


# ---------------------------------------------------------------------------
# z^2 basis
# ---------------------------------------------------------------------------


# up to 400 terms of up to 2^40: slots wider than 8 bytes, N >= 100, and
# rows on both sides of qa._Z2_RUNNING_SUMS_FROM
long_int_rows = st.integers(1, 400).flatmap(lambda n: st.lists(
    st.integers(-9, 9) | st.integers(-2**40, 2**40), min_size=n, max_size=n))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8) | long_int_rows)
@example([(-1) ** k * (2**40 - k) for k in range(_Z2_RUNNING_SUMS_FROM - 1)])
@example([(-1) ** k * (2**40 - k) for k in range(_Z2_RUNNING_SUMS_FROM)])
def test_z2_rewrite_matches_the_top_down_reference(half):
    # the packed Chebyshev recurrence against the top-down subtraction of
    # binomial rows, on the palindrome whose coefficients of q^0, q^1, ... are half
    got = _z2_rewrite(list(half))
    assert got == reference.z2_rewrite(list(half))
    assert [g for g, _ in got] == sorted({g for g, _ in got}, reverse=True)
    assert all(type(c) is int and c for _, c in got)


def _chebyshev_rows(n):
    # U_k(w) = [x^k] 1/(1 - (2 + w) x + x^2) as lists of coefficients of w^0,
    # w^1, ..., k = 0..n, by U_k = (2 + w) U_(k-1) - U_(k-2)
    rows = [[1], [2, 1]]
    while len(rows) <= n:
        prev, prev2 = rows[-1], rows[-2]
        nxt = [2 * c for c in prev] + [0]
        for i, c in enumerate(prev):
            nxt[i + 1] += c
        for i, c in enumerate(prev2):
            nxt[i] -= c
        rows.append(nxt)
    return rows[: n + 1]


def test_chebyshev_coefficients_are_nonnegative_and_sum_to_every_other_fibonacci():
    # the premise of the rewrite's width: |U_k(w)|_1 = F_(2k+2) for k <= 300
    fib = [0, 1]
    while len(fib) < 2 * 300 + 3:
        fib.append(fib[-1] + fib[-2])
    for k, row in enumerate(_chebyshev_rows(300)):
        assert min(row) >= 0, k
        assert sum(row) == fib[2 * k + 2] == _chebyshev_l1(k), k


@given(st.lists(st.integers(-9, 9) | st.integers(-2**40, 2**40), min_size=1, max_size=60))
def test_unpacked_chebyshev_run_stays_within_the_width_bound(half):
    # y_k = B_k + (2 + w) y_(k-1) - y_(k-2) on lists in w, B = T (1 - x^2), T the
    # half reversed: every |y_k|_1 <= |B|_1 F_(2k+2), y_N is the rewrite, and
    # the width that _z2_rewrite sets from 2 |half|_1 covers |B|_1
    top = half[::-1]
    b = [x - y for x, y in zip(top, [0, 0] + top)]
    norm = sum(map(abs, b))
    y2, y1 = [], []
    for k, bk in enumerate(b):
        y = [0] * (k + 1)
        y[0] = bk
        for i, c in enumerate(y1):
            y[i] += 2 * c
            y[i + 1] += c
        for i, c in enumerate(y2):
            y[i] -= c
        assert sum(map(abs, y)) <= norm * _chebyshev_l1(k)
        y2, y1 = y1, y
    assert [(g, c) for g, c in reversed(list(enumerate(y1))) if c] == _z2_rewrite(list(half))
    assert norm <= 2 * sum(map(abs, half))


def test_z_basis_examples():
    assert to_z_basis(LaurentQA({(2, 0): 1, (0, 0): -2, (-2, 0): 1})) == {
        (1, 0): 1
    }
    assert to_z_basis(LaurentQA({(2, 0): 1, (-2, 0): 1})) == {
        (1, 0): 1,
        (0, 0): 2,
    }
    assert to_z_basis(LaurentQA({(1, 0): 1})) is None
    assert to_z_basis(LaurentQA({(2, 0): 1})) is None  # not palindromic
    assert to_z_basis(LaurentQA({(1, 0): 1, (-1, 0): 1})) is None  # q^(1/2)-odd
    assert to_z_basis(LaurentQA({(2, 0): 1, (1, 0): 1, (-2, 0): 1})) is None  # both parities
    assert to_z_basis(LaurentQA.zero()) == {}


def test_z2_row_reads_only_centred_integral_palindromes():
    assert _z2_row(-2, [1, -2, 1]) == [(1, 1)]  # z^2
    assert _z2_row(0, [5]) == [(0, 5)]
    assert _z2_row(-2, [1, 0, 2]) is None  # not a palindrome
    assert _z2_row(0, [1, 0, 1]) is None  # centred on q^1
    assert _z2_row(-1, [1, 1]) is None  # half-integer powers of q
    assert _z2_row(-3, [1, 2, 2, 1]) is None


def test_z_basis_quantum_square_identity():
    # {2}^2 = z^2 (z^2 + 4)
    assert to_z_basis(quantum_int(2) * quantum_int(2)) == {
        (2, 0): 1,
        (1, 0): 4,
    }


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(-3, 3), st.integers(-9, 9)),
        min_size=1,
        max_size=6,
    )
)
def test_z_basis_roundtrip(terms):
    z2 = quantum_int(1) * quantum_int(1)
    entries: dict = {}
    for g, v, c in terms:
        entries[(g, v)] = entries.get((g, v), 0) + c
    entries = {k: c for k, c in entries.items() if c}
    powers = [LaurentQA.one()]
    for _ in range(4):
        powers.append(powers[-1] * z2)
    f = lsum(*((c, powers[g].shift(dv=v)) for (g, v), c in entries.items()))
    assert to_z_basis(f) == entries


@st.composite
def q_symmetric(draw):
    """A LaurentQA whose a-slices are palindromic in integral powers of q."""
    slices = draw(
        st.dictionaries(
            st.integers(-3, 3),
            st.dictionaries(st.integers(0, 12), st.integers(-50, 50), max_size=8),
            max_size=4,
        )
    )
    d: dict = {}
    for v, sl in slices.items():
        for e, x in sl.items():
            d[(2 * e, v)] = d[(-2 * e, v)] = x
    return LaurentQA(d)


@given(q_symmetric())
def test_z_basis_matches_dict_reference(f):
    assert to_z_basis(f) == reference.to_z_basis(f)


@given(
    q_symmetric(),
    st.booleans(),
    st.integers(0, 12),
    st.sampled_from([1, -1]),
    st.integers(-3, 3),
    st.integers(-9, 9).filter(bool),
)
def test_z_basis_rejects_like_the_reference(f, odd, e, side, v, delta):
    # an odd half-exponent, or a palindrome broken on one side of q^0: the
    # reference raises, and the library refuses with None
    f = lsum((1, f), (1, LaurentQA.monomial(side * (2 * e + 1 if odd else 2 * e + 2), v, delta)))
    with pytest.raises(reference.ZBasisError):
        reference.to_z_basis(f)
    assert to_z_basis(f) is None


def test_z_basis_entries():
    t = to_z_basis(quantum_int(1) * quantum_int(1) * LaurentQA.monomial(v=1))
    assert t == {(1, 1): 1}
    assert type(t[(1, 1)]) is int


# ---------------------------------------------------------------------------
# cyclotomic bookkeeping
# ---------------------------------------------------------------------------


def _cyclotomics(limit):
    # Phi_n via exact division of x^n - 1 by the proper cyclotomic factors
    phis = {}
    for n in range(1, limit + 1):
        num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
        for d in divisors(n):
            if d == n:
                continue
            q, r = _polydiv(num, phis[d])
            assert not any(r)
            num = q
        phis[n] = num
    return phis


def _polydiv(a, b):
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db]
        if c % b[-1]:
            raise AssertionError("non-exact step")
        t = c // b[-1]
        q[i] = t
        for j, y in enumerate(b):
            a[i + j] -= t * y
    return q, a[:db]


def test_quantum_int_cyclotomic_factorization():
    phis = _cyclotomics(30)
    for n in range(1, 31):
        prod = LaurentQA.one()
        for d in divisors(n):
            prod = prod * LaurentQA({(2 * i, 0): c for i, c in enumerate(phis[d]) if c})
        assert quantum_int(n).shift(du=n) == prod, n


# ---------------------------------------------------------------------------
# PochFrac against the reference RationalQA
# ---------------------------------------------------------------------------

small_laurents = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-2, 2)),
    st.fractions(-4, 4, max_denominator=3),
    max_size=4,
).map(LaurentQA)


@given(
    small_laurents,
    small_laurents,
    st.integers(0, 4),
    st.integers(0, 4),
    st.fractions(-3, 3, max_denominator=4),
    st.integers(1, 3),
)
def test_pochfrac_matches_reference(f, g, n, k, c, d):
    a, b, b_n = PochFrac(f, n), PochFrac(g, k), PochFrac(g, n)
    ra = as_rational(a)
    assert as_rational(a * b) == ra * as_rational(b)
    one = PochFrac.one()
    assert as_rational(PochFrac.dot([(1, a, one), (1, b_n, one)])) == ra + as_rational(b_n)
    assert (a == b_n) == (ra == as_rational(b_n))
    assert as_rational(a.scale(c)) == ra.scale(c)
    assert as_rational(a.adams(d)) == ra.adams(d)


def test_pochfrac_degrees():
    one_minus_q = LaurentQA({(0, 0): 1, (2, 0): -1})
    assert one_minus_q_prod([]) == LaurentQA.one()
    assert one_minus_q_prod([1, 1]) == one_minus_q * one_minus_q
    # zero is degree-free, and a cancelled sum is zero again; dot is the only sum
    x, one = PochFrac(LaurentQA.monomial(1), 3), PochFrac.one()
    assert PochFrac(LaurentQA.zero(), 5) == PochFrac.zero()
    cancelled = PochFrac.dot([(1, x, one), (-1, x, one)])
    assert PochFrac.dot([(1, x, one), (1, PochFrac.zero(), one)]) == x and not cancelled
    assert PochFrac.dot([(1, cancelled, one), (1, one, one)]) == one
    with pytest.raises(ValueError):
        PochFrac.dot([(1, x, one), (1, one, one)])
    with pytest.raises(TypeError):
        x + x
    # 1/(1-q) * 1/(1-q) = (1+q)/(q;q)_2
    inv = PochFrac(LaurentQA.one(), 1)
    assert inv * inv == PochFrac(LaurentQA({(0, 0): 1, (2, 0): 1}), 2)
    # adams_2(1/(1-q)) = 1/(1-q^2) = (1-q)/(q;q)_2
    assert inv.adams(2) == PochFrac(one_minus_q, 2)


# ---------------------------------------------------------------------------
# PochRow against the PochFrac path and the schoolbook product
# ---------------------------------------------------------------------------

q_rows = st.lists(st.integers(-9, 9) | st.integers(-10**30, 10**30) | st.just(0), max_size=6)


@st.composite
def poch_rows(draw, n=None, parity=None):
    """A PochRow with entries of both signs, zeros and big ints among them;
    zero rows and degree-0 values come up, and lo has the given parity, or
    either."""
    lo = draw(st.integers(-8, 8))
    if parity is not None:
        lo += (lo - parity) % 2
    return PochRow(lo, draw(q_rows), draw(st.integers(0, 4)) if n is None else n)


@st.composite
def poch_row_terms(draw):
    """(n, terms): (c, a, b) triples with a.n + b.n = n and one parity of
    a.lo + b.lo, c = 0 among them."""
    n, parity = draw(st.integers(0, 5)), draw(st.integers(0, 1))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        k, p = draw(st.integers(0, n)), draw(st.integers(0, 1))
        a, b = draw(poch_rows(k, p)), draw(poch_rows(n - k, (parity - p) % 2))
        terms.append((draw(st.integers(-5, 5)), a, b))
    return n, terms


def _schoolbook(n, terms) -> LaurentQA:
    # sum c a b [n, a.n]_q by reference.laurent_mul, the q-binomial dense
    mul = reference.laurent_mul
    return _laurent_sum(mul(mul(poch_frac(a).num, poch_frac(b).num),
                            _dense_q_binomial(n, a.n) if a.n and b.n else LaurentQA.one()).scale(c)
                        for c, a, b in terms)


def _at_each_slot_edge(test):
    # one product entry of 2^(8w - 1) - 1, the top of a w-byte slot, and of
    # 2^(8w - 1), one past it, at every width that struct packs and beyond
    for w in (1, 2, 3, 4, 8, 9):
        for top in (2 ** (8 * w - 1) - 1, 2 ** (8 * w - 1)):
            for c in (1, -1):
                test = example((2, [(c, PochRow(1, [top], 2), PochRow(-3, [1], 0))]))(test)
                test = example((2, [(c, PochRow(0, [top - 1, 0], 1), PochRow(0, [1], 1)),
                                    (c, PochRow(2, [1], 1), PochRow(-2, [1], 1))]))(test)
    return test


@given(poch_row_terms())
@_at_each_slot_edge
def test_poch_row_dot_matches_pochfrac_and_the_schoolbook_product(n_terms):
    n, terms = n_terms
    got = PochRow.dot(terms)
    assert poch_frac(got) == PochFrac.dot([(c, poch_frac(a), poch_frac(b)) for c, a, b in terms])
    want = _schoolbook(n, terms)
    assert poch_frac(got) == PochFrac(want, n)
    # the row is trimmed, and zero is (0, [], 0) whatever its terms' degree
    assert (got.row[:1] + got.row[-1:]).count(0) == 0
    assert got or (got.lo, got.row, got.n) == (0, [], 0)


def _at_each_adams_edge(test):
    # a degree-0 monomial has the Adams factor 1: its one entry is its l1
    # bound, at the top of a w-byte slot and one past it
    for w in (1, 2, 3, 4, 8, 9):
        for top in (2 ** (8 * w - 1) - 1, 2 ** (8 * w - 1)):
            test = example(PochRow(1, [-top], 0), 2, 1)(test)
    return test


@given(poch_rows(), st.integers(1, 4), st.integers(-4, 4))
@_at_each_adams_edge
def test_poch_row_adams_and_scale_match_pochfrac(a, d, c):
    assert poch_frac(a.adams(d)) == poch_frac(a).adams(d)
    assert poch_frac(a.scale(c)) == poch_frac(a).scale(c)
    assert repr(a) == repr(poch_frac(a))


@given(poch_rows(), st.integers(2, 4))
def test_poch_row_adams_is_a_ring_map(a, d):
    # (a a)^[d] = a^[d] a^[d]: the Adams factor carries the q-binomial of the
    # product to that of the images
    square = PochRow.dot([(1, a, a)])
    assert square.adams(d) == PochRow.dot([(1, a.adams(d), a.adams(d))])


@pytest.mark.parametrize("row", [[1], [3, -1], [0, 2, 0, -5]])
def test_poch_row_products_with_degree_zero_build_no_q_binomial(row):
    # [n, 0] = [n, n] = 1: a product with a degree-0 factor builds no q-binomial
    qa._q_binomial.cache_clear()
    a, b, one = PochRow(3, row, 4), PochRow(-2, row[::-1], 0), PochRow.one()
    assert PochRow.dot([(2, a, b), (-1, b, a), (1, a, one)]) == PochRow.dot(
        [(1, a, b), (1, one, a)])
    assert qa._q_binomial.cache_info().currsize == 0
    assert PochRow.dot([(1, a, a)]) and qa._q_binomial.cache_info().currsize == 1


def test_poch_row_refuses_two_degrees_and_two_parities():
    x, y, one = PochRow(1, [2], 3), PochRow(0, [1, 1], 2), PochRow.one()
    with pytest.raises(ValueError, match=r"^cannot add over \(q;q\)_3 and \(q;q\)_2$"):
        PochRow.dot([(1, x, one), (-1, x, one), (1, y, one)])
    with pytest.raises(ValueError, match="half-integer"):
        PochRow.dot([(1, x, one), (1, PochRow(0, [1], 3), one)])
    # zero terms have no degree and no parity, and a cancelled sum is zero
    assert PochRow.dot([(1, x, one), (0, y, one), (1, PochRow.zero(), x)]) == x
    assert PochRow.dot([(1, x, one), (-1, x, one)]) == PochRow.zero()
    assert PochRow(5, [0, 0], 4) == PochRow.zero() and not PochRow(5, [0], 4)


def test_poch_row_examples():
    # 1/(1-q) * 1/(1-q) = (1+q)/(q;q)_2, and adams_2(1/(1-q)) = (1-q)/(q;q)_2
    inv = PochRow(0, [1], 1)
    assert PochRow.dot([(1, inv, inv)]) == PochRow(0, [1, 1], 2)
    assert inv.adams(2) == PochRow(0, [1, -1], 2)
    # q^(1/2) / (1-q) at q -> q^3: q^(3/2) (1-q)(1-q^2) / (q;q)_3
    assert PochRow(1, [1], 1).adams(3) == PochRow(3, [1, -1, -1, 1], 3)
    assert PochRow(0, [0, 0, 7, 0], 2) == PochRow(4, [7], 2)
    assert repr(PochRow(-3, [2, 0, -1], 2)) == "(2*q^(-3/2) + -1*q^(1/2)) / (q;q)_2"
    assert repr(PochRow.zero()) == "(0) / (q;q)_0"


# ---------------------------------------------------------------------------
# RationalQ / RationalQA (the reference)
# ---------------------------------------------------------------------------


def test_rationalq_normalization():
    # (q - 1)/(q^(1/2) - 1) reduces to q^(1/2) + 1 with monic denominator
    r = RationalQ((-1, 0, 1), (-1, 1), 0)
    assert r.is_laurent()
    assert r.to_laurent() == LaurentQA({(1, 0): 1, (0, 0): 1})


def test_rationalq_arithmetic():
    one_minus_q = one_minus_q_pow(1)
    half = RationalQ.one() / one_minus_q
    assert half * one_minus_q == RationalQ.one()
    assert half + half == RationalQ((2,), (1,)) / one_minus_q
    assert not (half - half)
    assert one_minus_q_pow(3) / one_minus_q == RationalQ((1, 0, 1, 0, 1), (1,))


def test_rationalq_adams():
    one_minus_q = one_minus_q_pow(1)
    inv = RationalQ.one() / one_minus_q
    assert inv.adams(2) == RationalQ.one() / one_minus_q_pow(2)
    m = RationalQ.monomial(3, Fraction(1, 2))
    assert m.adams(2) == RationalQ.monomial(6, Fraction(1, 2))


@given(st.integers(-8, 8), st.integers(1, 4))
def test_rationalq_monomial_shift_mul(u, d):
    m = RationalQ.monomial(u)
    assert m * m == RationalQ.monomial(2 * u)
    assert m.adams(d) == RationalQ.monomial(u * d)


def test_rationalqa_slices_and_laurent():
    f = quantum_int_a(1) * quantum_int(2)
    qa = RationalQA.from_laurent(f)
    assert qa.as_laurent() == f
    den = RationalQ.from_laurent(quantum_int(2))
    g = qa.div_rational(den)
    assert g.as_laurent() == quantum_int_a(1)
    h = qa.div_rational(RationalQ.from_laurent(quantum_int(3)))
    assert h.as_laurent() is None


def test_rationalqa_top_a():
    f = RationalQA.from_laurent(quantum_int_a(3))
    v, top = f.top_a()
    assert v == 3 and top == RationalQ.one()


def test_laurent_json_roundtrip():
    f = LaurentQA({(1, -2): Fraction(3, 2), (0, 0): -4})
    assert laurent_from_json(laurent_to_json(f)) == f


# field-style randomized stress of the gcd-normalized representation

polys = st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(any)
rationals = st.builds(
    lambda n, d, off: RationalQ(tuple(n), tuple(d), off),
    polys,
    polys,
    st.integers(-4, 4),
)


@given(rationals, rationals, rationals)
def test_rationalq_field_identities(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a
    assert (a - b) + b == a
    if b:
        assert (a / b) * b == a
    assert a * b == b * a


@given(rationals, st.integers(1, 3))
def test_rationalq_adams_respects_ops(a, d):
    b = a * a + a
    assert b.adams(d) == a.adams(d) * a.adams(d) + a.adams(d)
