"""Exact algebra in the variables q^(1/2) and a^(1/2), over int coefficients.

* ``LaurentQA`` -- Laurent polynomials in q^(1/2), a^(1/2).
* ``PochFrac``  -- a LaurentQA numerator over the q-Pochhammer symbol
  (q;q)_n, the denominator that every x^n coefficient of the one-hole
  power-sum series carries.
* ``PochRow``   -- the same value when it is a-free, as one dense int row
  in steps of q, (lo, row, n): every coefficient of the reduced partition
  function and of the loop-quiver series, and every level of their logs.

Since the denominator is known in advance, no rational-function normal
form is ever built: "is a Laurent polynomial" is an exact division by a
product of factors 1 - q^i.  Exponents are stored doubled: ``u`` counts
powers of q^(1/2) and ``v`` powers of a^(1/2).  ``div`` (by an int, one
divmod per coefficient) and ``exact_div`` return None where a remainder
arises, as ``arith.div_one_minus`` does, and the caller decides what a
refusal means.  Every sum is a ``dot``, the sum of c a b over (c, a, b)
triples; no class has ``+``, ``-`` or ``**``.  ``LaurentQA.dot`` adds every
term pair into one dict; ``PochFrac.dot`` folds each product's q-binomial
into that sum.

The integer hot paths (the one-hole chain, the colored sum, the annulus
kernel log, the a-free series) run on dense int rows instead, each carried
as its value at x = 2^(8 width), at the width that ``_width`` sets from an
l1 bound on the entries of the result (``_slot_width`` rounds it up to 1,
2, 4 or 8 bytes, which ``struct`` reads in one call).  A product of two
rows (``_nonneg_mul``), or of a row and a geometric factor
(``_packed_geometric``), is then one big-int multiply.  ``PochRow.dot``
packs each level of a series at its own width, from the bound
sum |c| |a|_1 |b|_1 C(n, a.n), and reads the whole sum back once; an
Adams map is a stride, then one packed product.  One codec packs and reads
every row: ``_pack`` writes each entry as a signed slot in two's
complement, and refuses with None an entry outside [-x/2, x/2); ``_unpack``
reads the slots back.  ``LaurentQA.rows`` is the one layout of a LaurentQA
as dense rows, which ``exact_div`` and ``to_z_basis`` read.  Every division
is by factors 1 - x^k, as strided running sums (``arith.div_one_minus``).

``_z2_row`` rewrites a row as a polynomial in z^2 = q - 2 + q^(-1), or
refuses it with None unless it is a palindrome in integer powers of q
centred on q^0.  With t = q + 1/q = 2 + z^2, q^e + q^(-e) is a difference
of two Chebyshev polynomials in t, so the coefficients in z^2 of the whole
row are those of one Chebyshev recurrence, run on one int at
z^2 = 2^(8 width), and read by one ``_unpack`` (``_z2_rewrite``); from 320
terms on, where its slots grow too wide, the half is read bottom-up by
running sums.  ``to_z_basis`` reads each a-slice of a LaurentQA as one such
row, into the dict {(g, v): n} of f = sum n (z^2)^g a^(v/2), or None: the
one-hole tables' genus grading.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterable, Mapping

from .arith import div_one_minus, gaussian_binomial


# ---------------------------------------------------------------------------
# dense rows
# ---------------------------------------------------------------------------

def _width(bound: int) -> int:
    """The byte width of a packed slot for entries of absolute value at most
    the int bound >= 0: the least width with bound < 2^(8 width - 1), so
    that every such entry is a signed slot that ``_pack`` writes and
    ``_unpack`` reads."""
    return bound.bit_length() // 8 + 1


def _slot_width(bound: int) -> int:
    """``_width`` of the bound, rounded up to 1, 2, 4 or 8 bytes when it is
    at most 8, so that ``struct`` packs and reads each slot in one call."""
    n = _width(bound)
    return 1 << (n - 1).bit_length() if n <= 8 else n


def _nonneg_mul(a: list, b: list) -> list:
    """The product of two dense lists of non-negative ints by one big-int
    multiply.  A product slot sums at most min(len a, len b) products of
    entries, so max a max b min(len a, len b) bounds it; each slot is wide
    enough for that bound (``_slot_width``), and no slot carries into the
    next."""
    n = _slot_width(max(*a, 1) * max(*b, 1) * min(len(a), len(b)))  # >= every input, too
    return _unpack(_pack(a, n) * _pack(b, n), n, len(a) + len(b) - 1)


def _packed_geometric(width: int, step: int, count: int) -> int:
    """1 + x^step + ... + x^(step (count - 1)) at x = 2^(8 width)."""
    return int.from_bytes(b"\x01".ljust(width * step, b"\x00") * count, "little")


# the struct format of a signed slot of 1, 2, 4 or 8 bytes
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}


@lru_cache(maxsize=None)
def _slots(width: int, length: int) -> tuple:
    """The top bit 2^(8 width - 1) of each of length slots, and at a width
    of 1, 2, 4 or 8 bytes the ``struct`` codec of that many signed slots
    (None at any other width)."""
    top = int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * length, "little")
    fmt = _SIGNED.get(width)
    return top, fmt and struct.Struct(f"<{length}{fmt}")


def _pack(row: list, width: int) -> int | None:
    """The int row's value at x = 2^(8 width), or None unless every entry
    lies in [-2^(8 width - 1), 2^(8 width - 1)).  Each entry is written in
    two's complement, by one ``struct`` call at a width of 1, 2, 4 or 8
    bytes (``_slots``); read as one unsigned int, a negative entry c stands
    as c + x there, so each slot whose top bit is set takes x back."""
    top, codec = _slots(width, len(row))
    try:
        raw = codec.pack(*row) if codec else b"".join(
            [c.to_bytes(width, "little", signed=True) for c in row])
    except (struct.error, OverflowError):
        return None
    raw = int.from_bytes(raw, "little")
    return raw - ((raw & top) << 1)


def _unpack(packed: int, width: int, length: int) -> list:
    """``_pack``'s inverse on rows of the given length whose entries all lie
    in [-2^(8 width - 1), 2^(8 width - 1)): adding each slot's top bit
    leaves no slot negative, and flipping it back leaves the slot's entry
    in two's complement, which ``struct`` reads in one call at a width of
    1, 2, 4 or 8 bytes (``_slots``)."""
    top, codec = _slots(width, length)
    raw = ((packed + top) ^ top).to_bytes(width * length, "little")
    if codec:
        return list(codec.unpack(raw))
    return [int.from_bytes(raw[k : k + width], "little", signed=True)
            for k in range(0, len(raw), width)]


# ---------------------------------------------------------------------------
# LaurentQA
# ---------------------------------------------------------------------------

class LaurentQA:
    """Laurent polynomial in q^(1/2) and a^(1/2) with int coefficients.

    Immutable by convention: every operation returns a new value.  The
    internal map sends ``(u, v)`` to the coefficient of q^(u/2) a^(v/2);
    zero coefficients are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping | None = None):
        self._c = {k: c for k, c in coeffs.items() if c} if coeffs else {}

    @classmethod
    def _make(cls, d: dict) -> LaurentQA:
        # internal: d must already be clean (no zeros)
        self = object.__new__(cls)
        self._c = d
        return self

    @classmethod
    def zero(cls) -> LaurentQA:
        return cls._make({})

    @classmethod
    def one(cls) -> LaurentQA:
        return cls._make({(0, 0): 1})

    @classmethod
    def monomial(cls, u: int = 0, v: int = 0, c: int = 1) -> LaurentQA:
        return cls._make({(u, v): c} if c else {})

    # -- inspection ---------------------------------------------------------

    def items(self):
        return iter(self._c.items())

    def rows(self) -> dict:
        """The coefficients as dense rows in steps of q: (v, u % 2) -> (lo,
        row) for each a-exponent v and q^(1/2)-parity that has a term, with
        row[e] the coefficient of q^((lo + 2 e)/2) a^(v/2) from the lowest
        term up."""
        parts: dict = {}
        for (u, v), c in self._c.items():
            parts.setdefault((v, u % 2), {})[u] = c
        out = {}
        for key, part in parts.items():
            lo = min(part)
            row = [0] * ((max(part) - lo) // 2 + 1)
            for u, c in part.items():
                row[(u - lo) // 2] = c
            out[key] = (lo, row)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentQA) and self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: LaurentQA) -> LaurentQA:
        if not isinstance(other, LaurentQA):
            return NotImplemented
        return LaurentQA.dot(((1, self, other),))

    @staticmethod
    def dot(terms: Iterable) -> LaurentQA:
        """The sum of c a b over the (c, a, b) triples, c an int: every
        product lands in one dict, and zeros are dropped once, at the end."""
        d: dict = {}
        get = d.get
        for c, a, b in terms:
            a, b = a._c, b._c
            if len(a) > len(b):
                a, b = b, a
            for (u1, v1), c1 in a.items():
                c1 *= c
                for (u2, v2), c2 in b.items():
                    k = (u1 + u2, v1 + v2)
                    d[k] = get(k, 0) + c1 * c2
        return LaurentQA._make({k: c for k, c in d.items() if c})

    def scale(self, c: int) -> LaurentQA:
        if not c:
            return LaurentQA.zero()
        return LaurentQA._make({k: x * c for k, x in self._c.items()})

    def div(self, n: int) -> LaurentQA | None:
        """Every coefficient divided by the nonzero int n, one divmod each;
        None when one leaves a remainder."""
        d = {}
        for k, c in self._c.items():
            d[k], rem = divmod(c, n)
            if rem:
                return None
        return LaurentQA._make(d)

    def shift(self, du: int = 0, dv: int = 0) -> LaurentQA:
        """Multiply by the monomial q^(du/2) a^(dv/2)."""
        if du == 0 and dv == 0:
            return self
        return LaurentQA._make({(u + du, v + dv): c for (u, v), c in self._c.items()})

    def adams(self, d: int) -> LaurentQA:
        """Adams operation: substitute q -> q^d, a -> a^d."""
        if d < 1:
            raise ValueError("adams operation needs d >= 1")
        if d == 1:
            return self
        return LaurentQA._make({(u * d, v * d): c for (u, v), c in self._c.items()})

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for (u, v) in sorted(self._c):
            c = self._c[(u, v)]
            t = str(c)
            if u:
                t += f"*q^({u}/2)" if u % 2 else f"*q^{u // 2}"
            if v:
                t += f"*a^({v}/2)" if v % 2 else f"*a^{v // 2}"
            parts.append(t)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------

def quantum_int(n: int) -> LaurentQA:
    """{n} = q^(n/2) - q^(-n/2)."""
    if n == 0:
        return LaurentQA.zero()
    return LaurentQA({(n, 0): 1, (-n, 0): -1})


Z_SQUARED = LaurentQA({(2, 0): 1, (0, 0): -2, (-2, 0): 1})


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def exact_div(f: LaurentQA, exponents: Iterable[int]) -> LaurentQA | None:
    """f / prod over i in exponents of (1 - q^i), each i >= 1, or None when
    that is not a Laurent polynomial.

    Each a-slice of f splits into its two q^(1/2)-parities; the factors have
    integer q-exponents, so they divide the slice exactly when they divide
    each part.  Each part is one dense row in steps of q (``rows``),
    divided by one factor 1 - x^i at a time (``div_one_minus``).  A factor
    that leaves a remainder refuses the whole division."""
    exponents = tuple(exponents)
    if min(exponents, default=1) < 1:
        raise ValueError("exact_div needs exponents >= 1")
    out: dict = {}
    for (v, _), (lo, row) in f.rows().items():
        for i in exponents:
            row = div_one_minus(row, i)
            if row is None:
                return None
        for e, c in enumerate(row):
            if c:
                out[(lo + 2 * e, v)] = c
    return LaurentQA._make(out)


# ---------------------------------------------------------------------------
# z^2 basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _chebyshev_l1(k: int) -> int:
    """The l1 norm F_(2k+2) of U_k(w) = [x^k] 1/(1 - (2 + w) x + x^2), a
    polynomial in w with coefficients C(k + g + 1, 2 g + 1) >= 0: so the norm
    is U_k at w = 1, and U_k(1) = 3 U_(k-1)(1) - U_(k-2)(1) from U_0 = 1,
    U_1 = 3 is the recurrence of F_2, F_4, F_6, ..."""
    a, b = 0, 1
    for _ in range(2 * k + 2):
        a, b = b, a + b
    return a


# The recurrence's slots widen by log2 of the golden ratio squared, 1.39
# bits, per term of the half, so its work grows as the cube of the length;
# the running sums' as the square.  On the one-hole chain's rows (m <= 16,
# |tau| <= 5) the two cost the same at about 320 terms.
_Z2_RUNNING_SUMS_FROM = 320


def _z2_rewrite(h: list) -> list:
    """The pairs (g, c), g descending and c nonzero, with sum c (z^2)^g the
    palindrome whose coefficients of q^0, q^1, ... are h.

    With t = q + 1/q = 2 + z^2 and U_k = [x^k] 1/(1 - t x + x^2), q^e + q^(-e)
    is U_e - U_(e-2), so with T the half reversed and N = len(h) - 1,
    sum c_g w^g is [x^N] T(x) (1 - x^2) / (1 - (2 + w) x + x^2) at w = z^2.
    At w = 2^(8 width) that is one int recurrence, one shift and three adds
    a step: y_k = T_k + (2 + w) y_(k-1) - y_(k-2), and the sum is
    y_N - y_(N-2) = 2 y_N - (2 + w) y_(N-1) - T_N.  Each U_k(w) has
    coefficients >= 0 that sum to F_(2k+2) (``_chebyshev_l1``), so no c_g
    exceeds |T (1 - x^2)|_1 F_(2N+2) <= 2 |h|_1 F_(2N+2), which sets the
    width (``_slot_width``); ``_unpack`` reads every c_g at once.

    From ``_Z2_RUNNING_SUMS_FROM`` terms on, where the slots grow too wide,
    the rewrite runs bottom-up instead, on the half ``top`` from q^N down to
    q^0, with running sums s: z^2 vanishes at q = 1, so c_g is the
    palindrome's value there, 2 s[-1] - top[-1].  Less c_g at q^0, it has a
    double root at q = 1, so its quotient by z^2 = (1 - q)^2 / q is exact;
    its half from q^(N-1) down is the running sum of s[:-1]."""
    n = len(h)
    if n >= _Z2_RUNNING_SUMS_FROM:
        out = []
        top = h[::-1]
        for g in range(n):
            s = list(accumulate(top))
            c = 2 * s[-1] - top[-1]
            if c:
                out.append((g, c))
            top = list(accumulate(s[:-1]))
        return out[::-1]
    width = _slot_width(2 * sum(map(abs, h)) * _chebyshev_l1(n - 1))
    shift = 8 * width
    y0 = y1 = 0
    for t in reversed(h):
        y0, y1 = y1, (y1 << shift) + 2 * y1 - y0 + t
    c = _unpack(2 * y1 - (y0 << shift) - 2 * y0 - h[0], width, n)
    out = [(g, x) for g, x in enumerate(c) if x]
    out.reverse()
    return out


def _z2_row(u0: int, row: list) -> list | None:
    """``_z2_rewrite``'s pairs for the row of coefficients of q^(u0/2 + e),
    or None unless it is a palindrome in integer powers of q about q^0;
    its half from q^0 up is what ``_z2_rewrite`` rewrites."""
    if u0 % 2 or u0 != 1 - len(row) or row != row[::-1]:
        return None
    return _z2_rewrite(row[len(row) // 2 :])


def to_z_basis(f: LaurentQA) -> dict | None:
    """Rewrite each a-slice of f as an exact polynomial in z^2 = q - 2 + 1/q:
    the dict {(g, v): n}, n nonzero, with f = sum n (z^2)^g a^(v/2).  When f
    is z^2 g_m the key g is the genus label and v doubles the charge Q.

    Each row of ``rows``, one per a-slice and q^(1/2)-parity, is read by
    ``_z2_row``; None when it refuses one, as it refuses the odd lowest
    exponent of a slice's half-integer powers of q.
    """
    table: dict = {}
    for (v, _), (lo, row) in f.rows().items():
        pairs = _z2_row(lo, row)
        if pairs is None:
            return None
        for g, c in pairs:
            table[(g, v)] = c
    return table


# ---------------------------------------------------------------------------
# coefficients over the q-Pochhammer symbol (q;q)_n
# ---------------------------------------------------------------------------

def _q_laurent(row: list, lo: int = 0) -> LaurentQA:
    """The a-free LaurentQA sum row[e] q^((lo + 2 e)/2)."""
    return LaurentQA._make({(lo + 2 * e, 0): c for e, c in enumerate(row) if c})


def _one_minus_q_row(exponents: Iterable[int]) -> list:
    """prod over i in exponents of (1 - q^i), a dense row from q^0."""
    row = [1]
    for i in exponents:
        row = [x - y for x, y in zip(row + [0] * i, [0] * i + row)]
    return row


def one_minus_q_prod(exponents: Iterable[int]) -> LaurentQA:
    """prod over i in exponents of (1 - q^i); the empty product is 1."""
    return _q_laurent(_one_minus_q_row(exponents))


@lru_cache(maxsize=None)
def _q_binomial(n: int, k: int) -> list:
    # [n choose k]_q = (q;q)_n / ((q;q)_k (q;q)_(n-k)), a dense row from q^0
    return gaussian_binomial(n, k)


@lru_cache(maxsize=None)
def _adams_factor(n: int, d: int) -> list:
    # (q;q)_(dn) / (q^d;q^d)_n: the factors 1 - q^i, i <= dn, d not dividing i
    return _one_minus_q_row(i for i in range(1, d * n + 1) if i % d)


def _one_degree(terms: Iterable) -> tuple:
    """The (c, a, b) triples with c, a and b nonzero, and their one degree
    n = a.n + b.n (0 when there is none): zero has no degree and is
    skipped, and nonzero terms of two degrees are refused, even where a
    partial sum of them cancels."""
    parts, n = [], None
    for c, a, b in terms:
        if c and a and b:
            if n is None:
                n = a.n + b.n
            elif a.n + b.n != n:
                raise ValueError(f"cannot add over (q;q)_{n} and (q;q)_{a.n + b.n}")
            parts.append((c, a, b))
    return parts, n or 0


class PochFrac:
    """The value num / (q;q)_n, with (q;q)_n = (1-q)(1-q^2)...(1-q^n).

    Immutable by convention.  A series whose x^n coefficient has this
    shape keeps it under products (the denominators combine through a
    q-binomial), Adams operations, sums of equal degree and scaling by an
    int, which is all that the log and plethystic log of ``lmov.series``
    do.  ``dot`` is the only sum, over one degree (``_one_degree``).
    Equality compares (num, n), so at equal n it is equality of rational
    functions.
    """

    __slots__ = ("num", "n")

    def __init__(self, num: LaurentQA, n: int):
        self.num = num
        self.n = n if num else 0

    @classmethod
    def zero(cls) -> PochFrac:
        return cls(LaurentQA.zero(), 0)

    @classmethod
    def one(cls) -> PochFrac:
        return cls(LaurentQA.one(), 0)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, PochFrac) and self.n == other.n and self.num == other.num

    def __mul__(self, other: PochFrac) -> PochFrac:
        if not isinstance(other, PochFrac):
            return NotImplemented
        return PochFrac.dot(((1, self, other),))

    @staticmethod
    def dot(terms: Iterable) -> PochFrac:
        """The sum of c a b over the (c, a, b) triples, c an int, as one
        ``LaurentQA.dot`` of the numerators: a product of two positive
        degrees enters as a.num b.num times the q-binomial [n, a.n]."""
        parts, n = _one_degree(terms)
        return PochFrac(LaurentQA.dot(
            (c, a.num * b.num, _q_laurent(_q_binomial(n, a.n))) if a.n and b.n
            else (c, a.num, b.num) for c, a, b in parts), n)

    def scale(self, c: int) -> PochFrac:
        return PochFrac(self.num.scale(c), self.n)

    def adams(self, d: int) -> PochFrac:
        """Substitute q -> q^d, a -> a^d; the degree becomes d n."""
        if d == 1 or not self.num:
            return self
        return PochFrac(self.num.adams(d) * _q_laurent(_adams_factor(self.n, d)), d * self.n)

    def __repr__(self) -> str:
        return f"({self.num!r}) / (q;q)_{self.n}"


class PochRow:
    """An a-free PochFrac as one dense int row: the value
    sum_e row[e] q^((lo + 2 e)/2) / (q;q)_n, the row trimmed of zeros at
    both ends, and (lo, row, n) = (0, [], 0) for zero.  It has PochFrac's
    ring and text.  Each x^n coefficient of an a-free series has one
    q^(1/2)-parity, that of lo, so one row in steps of q holds it; a sum of
    both parities is refused, as one of two degrees is."""

    __slots__ = ("lo", "row", "n")

    def __init__(self, lo: int, row: list, n: int):
        i, j = 0, len(row)
        while j and not row[j - 1]:
            j -= 1
        while i < j and not row[i]:
            i += 1
        self.lo, self.row, self.n = (lo + 2 * i, row[i:j], n) if j else (0, [], 0)

    @classmethod
    def zero(cls) -> PochRow:
        return cls(0, [], 0)

    @classmethod
    def one(cls) -> PochRow:
        return cls(0, [1], 0)

    def __bool__(self) -> bool:
        return bool(self.row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PochRow) and self.lo == other.lo and self.n == other.n
                and self.row == other.row)

    @staticmethod
    def dot(terms: Iterable) -> PochRow:
        """The sum of c a b over the (c, a, b) triples, c an int, as one packed
        sum, a product of two positive degrees times the q-binomial [n, a.n]
        of l1 norm C(n, a.n): so sum |c| |a|_1 |b|_1 C(n, a.n) bounds every
        entry and sets the width.  Each product of packed rows is shifted by
        its steps of q above the lowest term, and the sum read back once."""
        parts, n = _one_degree(terms)
        if not parts:
            return PochRow.zero()
        lo = min(a.lo + b.lo for _, a, b in parts)
        bound = length = 0
        for c, a, b in parts:
            k, steps = a.n if b.n else 0, a.lo + b.lo - lo
            if steps % 2:
                raise ValueError("cannot add integer and half-integer powers of q in one row")
            bound += abs(c) * sum(map(abs, a.row)) * sum(map(abs, b.row)) * comb(n, k)
            length = max(length, steps // 2 + len(a.row) + len(b.row) + k * (n - k) - 1)
        width, total = _slot_width(bound), 0
        for c, a, b in parts:
            p = c * _pack(a.row, width) * _pack(b.row, width)
            if a.n and b.n:
                p *= _pack(_q_binomial(n, a.n), width)
            total += p << 4 * width * (a.lo + b.lo - lo)
        return PochRow(lo, _unpack(total, width, length), n)

    def scale(self, c: int) -> PochRow:
        return PochRow(self.lo, [x * c for x in self.row], self.n)

    def adams(self, d: int) -> PochRow:
        """Substitute q -> q^d; the degree becomes d n.  The row, packed at d
        times the width, is its stride by d, and its product with the row of
        (q;q)_(dn) / (q^d;q^d)_n (``_adams_factor``) is one multiply."""
        if d == 1 or not self.row:
            return self
        f = _adams_factor(self.n, d)
        width = _slot_width(sum(map(abs, self.row)) * sum(map(abs, f)))
        packed = _pack(self.row, d * width) * _pack(f, width)
        length = d * (len(self.row) - 1) + len(f)
        return PochRow(d * self.lo, _unpack(packed, width, length), d * self.n)

    def __repr__(self) -> str:
        return f"({_q_laurent(self.row, self.lo)!r}) / (q;q)_{self.n}"
