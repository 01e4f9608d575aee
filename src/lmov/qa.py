"""Exact algebra in the variables q^(1/2) and a^(1/2).

Three layers, all over exact rational coefficients:

* ``LaurentQA``  -- Laurent polynomials in q^(1/2), a^(1/2).
* ``RationalQ``  -- univariate rational functions of q (num/den Laurent
  polynomials in q^(1/2), gcd-reduced, monic denominator).
* ``RationalQA`` -- finitely many a^(1/2)-monomials with RationalQ
  coefficients, i.e. the a-graded extension of RationalQ.

Exponents live on the half-integer lattice and are stored doubled:
``u`` counts powers of q^(1/2) and ``v`` counts powers of a^(1/2), so all
exponent bookkeeping is plain integer arithmetic.  Coefficients are ints
whenever possible and ``fractions.Fraction`` otherwise; no floats appear
anywhere.

``to_z_basis`` rewrites a q-symmetric LaurentQA as a polynomial in
z^2 = q - 2 + q^(-1) slice by slice in a; the result (``ZBasisTable``)
is the genus-graded form used by the one-hole invariant tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Mapping

Rat = int | Fraction


class ExactDivisionError(ArithmeticError):
    """Division was not exact; carries the offending remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class ZBasisError(ValueError):
    """Input is not a polynomial in z^2 over a^(1/2)-monomials."""


def _norm_c(c):
    # canonical scalar: collapse integral Fractions to int
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


# ---------------------------------------------------------------------------
# LaurentQA
# ---------------------------------------------------------------------------

class LaurentQA:
    """Laurent polynomial in q^(1/2) and a^(1/2) with exact coefficients.

    Immutable by convention: every operation returns a new value.  The
    internal map sends ``(u, v)`` to the coefficient of q^(u/2) a^(v/2);
    zero coefficients are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping | None = None):
        d = {}
        if coeffs:
            for (u, v), c in coeffs.items():
                if c:
                    d[(u, v)] = _norm_c(c)
        self._c = d

    @classmethod
    def _make(cls, d: dict) -> LaurentQA:
        # internal: d must already be clean (no zeros, normalized scalars)
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
    def monomial(cls, u: int = 0, v: int = 0, c: Rat = 1) -> LaurentQA:
        c = _norm_c(c)
        return cls._make({(u, v): c} if c else {})

    # -- inspection ---------------------------------------------------------

    def items(self):
        return iter(self._c.items())

    def coeff(self, u: int, v: int) -> Rat:
        return self._c.get((u, v), 0)

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {(0, 0): 1}

    def is_integral(self) -> bool:
        """Certify that every stored coefficient is an integer."""
        return all(isinstance(c, int) for c in self._c.values())

    def support(self) -> list:
        return sorted(self._c)

    def a_slices(self) -> dict:
        """Group coefficients by a-exponent: v -> {u: coefficient}."""
        out: dict = {}
        for (u, v), c in self._c.items():
            out.setdefault(v, {})[u] = c
        return out

    def __len__(self) -> int:
        return len(self._c)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentQA) and self._c == other._c

    def __hash__(self):
        return hash(frozenset((k, Fraction(c)) for k, c in self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: LaurentQA) -> LaurentQA:
        if not isinstance(other, LaurentQA):
            return NotImplemented
        d = dict(self._c)
        for k, c in other._c.items():
            s = d.get(k, 0) + c
            if s:
                d[k] = _norm_c(s)
            elif k in d:
                del d[k]
        return LaurentQA._make(d)

    def __neg__(self) -> LaurentQA:
        return LaurentQA._make({k: -c for k, c in self._c.items()})

    def __sub__(self, other: LaurentQA) -> LaurentQA:
        if not isinstance(other, LaurentQA):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: LaurentQA) -> LaurentQA:
        if not isinstance(other, LaurentQA):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        d: dict = {}
        for (u1, v1), c1 in a.items():
            for (u2, v2), c2 in b.items():
                k = (u1 + u2, v1 + v2)
                s = d.get(k, 0) + c1 * c2
                if s:
                    d[k] = s
                elif k in d:
                    del d[k]
        return LaurentQA._make({k: _norm_c(c) for k, c in d.items()})

    def __pow__(self, n: int) -> LaurentQA:
        if n < 0:
            raise ValueError("negative powers are not defined for LaurentQA")
        out = LaurentQA.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c: Rat) -> LaurentQA:
        c = _norm_c(c)
        if not c:
            return LaurentQA.zero()
        return LaurentQA._make({k: _norm_c(x * c) for k, x in self._c.items()})

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

    def mirror_q(self) -> LaurentQA:
        """Substitute q -> q^(-1) (a untouched)."""
        return LaurentQA._make({(-u, v): c for (u, v), c in self._c.items()})

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

def quantum_int(n: int, base: str = "q") -> LaurentQA:
    """{n}_x = x^(n/2) - x^(-n/2) in the selected variable (q or a)."""
    if n == 0:
        return LaurentQA.zero()
    if base == "q":
        return LaurentQA({(n, 0): 1, (-n, 0): -1})
    if base == "a":
        return LaurentQA({(0, n): 1, (0, -n): -1})
    raise ValueError(f"unknown base {base!r}")


def quantum_prod(parts: Iterable[int], base: str = "q") -> LaurentQA:
    """Product of quantum integers over the parts; empty product is 1."""
    out = LaurentQA.one()
    for p in parts:
        out = out * quantum_int(p, base)
    return out


def quantum_ratio(k: int, n: int) -> LaurentQA:
    """{k*n}/{n} as a Laurent polynomial, valid for every integer k, n.

    For n != 0 this is sign(k) * sum_{j<|k|} q^(n(|k|-1-2j)/2); at n = 0 it
    is the algebraic limit, the constant k.  Vanishes when k = 0.
    """
    if k == 0:
        return LaurentQA.zero()
    s = 1
    if k < 0:
        k, s = -k, -1
    if n == 0:
        return LaurentQA.monomial(c=s * k)
    return LaurentQA._make({(n * (k - 1 - 2 * j), 0): s for j in range(k)})


Z_SQUARED = LaurentQA({(2, 0): 1, (0, 0): -2, (-2, 0): 1})


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def _slice_to_dense(sl: dict) -> tuple:
    lo = min(sl)
    hi = max(sl)
    dense = [0] * (hi - lo + 1)
    for u, c in sl.items():
        dense[u - lo] = c
    return lo, dense


def _dense_div(f_lo: int, f: list, g_lo: int, g: list):
    """Exact Laurent division of dense q-slices; (lo, coeffs) or None."""
    while f and not f[-1]:
        f.pop()
    while f and not f[0]:
        f.pop(0)
        f_lo += 1
    if not f:
        return 0, []
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return None
    q = [0] * (len(f) - dg)
    r = list(f)
    glead = Fraction(g[-1])
    for i in range(len(f) - 1 - dg, -1, -1):
        c = r[i + dg]
        if not c:
            continue
        t = Fraction(c) / glead
        q[i] = _norm_c(t)
        for j, gc in enumerate(g):
            r[i + j] -= t * gc
    if any(r[:dg]):
        return None
    return f_lo - g_lo, q


def exact_div(f: LaurentQA, g: LaurentQA) -> LaurentQA:
    """Return h with f = g * h exactly; raise ExactDivisionError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentQA.zero()
    g_slices = g.a_slices()
    if set(g_slices) == {0}:
        # q-only divisor: divide each a-slice independently
        g_lo, g_dense = _slice_to_dense(g_slices[0])
        while g_dense and not g_dense[0]:
            g_dense.pop(0)
            g_lo += 1
        out: dict = {}
        for v, sl in f.a_slices().items():
            res = _dense_div(*_slice_to_dense(sl), g_lo, g_dense)
            if res is None:
                raise ExactDivisionError(
                    f"not divisible in a-slice v={v}",
                    remainder=LaurentQA({(u, v): c for u, c in sl.items()}),
                )
            lo, coeffs = res
            for i, c in enumerate(coeffs):
                if c:
                    out[(lo + i, v)] = _norm_c(c)
        return LaurentQA._make(out)
    # general divisor: leading-term elimination under lex order on (u, v).
    # If f = g*h the lowest exponents add, which bounds the quotient support
    # from below and makes the loop terminate on non-multiples as well.
    u_lo = min(u for u, _ in f._c) - min(u for u, _ in g._c)
    v_lo = min(v for _, v in f._c) - min(v for _, v in g._c)
    gl = max(g._c)
    glc = Fraction(g._c[gl])
    rem = dict(f._c)
    quo: dict = {}
    while rem:
        lt = max(rem)
        tkey = (lt[0] - gl[0], lt[1] - gl[1])
        if tkey[0] < u_lo or tkey[1] < v_lo:
            raise ExactDivisionError("not divisible", remainder=LaurentQA(rem))
        tc = _norm_c(Fraction(rem.pop(lt)) / glc)
        quo[tkey] = quo.get(tkey, 0) + tc
        for (u, v), gc in g._c.items():
            if (u, v) == gl:
                continue
            k = (tkey[0] + u, tkey[1] + v)
            s = rem.get(k, 0) - tc * gc
            if s:
                rem[k] = _norm_c(s)
            elif k in rem:
                del rem[k]
    return LaurentQA({k: c for k, c in quo.items()})


# ---------------------------------------------------------------------------
# z^2 basis
# ---------------------------------------------------------------------------

def _z2_power_dense(k: int) -> dict:
    # (q^(1/2) - q^(-1/2))^(2k) as {u: int}
    return {2 * (k - i): (-1) ** i * comb(2 * k, i) for i in range(2 * k + 1)}


class ZBasisTable:
    """Decomposition f = sum over (g, v) of entry * (z^2)^g * a^(v/2).

    When f is z^2 * g_m the key g is the genus label and v doubles the
    charge Q, so serialized rows carry ``two_q = v``.
    """

    def __init__(self, entries: Mapping | None = None):
        self.entries = {k: _norm_c(c) for k, c in (entries or {}).items() if c}

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.entries.values())

    def expand(self) -> LaurentQA:
        out = LaurentQA.zero()
        for (g, v), c in self.entries.items():
            out = out + (Z_SQUARED ** g).scale(c).shift(dv=v)
        return out

    def __eq__(self, other):
        return isinstance(other, ZBasisTable) and self.entries == other.entries

    def __repr__(self):
        return f"ZBasisTable({self.entries!r})"


def to_z_basis(f: LaurentQA) -> ZBasisTable:
    """Rewrite each a-slice of f as an exact polynomial in z^2 = q - 2 + 1/q.

    Extraction is top-down by leading q-exponent.  Fails (ZBasisError) if a
    slice has odd half-exponents or is not palindromic under q <-> 1/q; the
    tolerance is exact zero.
    """
    table: dict = {}
    for v, sl in f.a_slices().items():
        for u, c in sl.items():
            if u % 2:
                raise ZBasisError(f"half-odd q-exponent u={u} in a-slice v={v}")
            if sl.get(-u, 0) != c:
                raise ZBasisError(f"a-slice v={v} is not symmetric under q <-> 1/q")
        work = dict(sl)
        while work:
            top = max(work)
            if top < 0:
                raise ZBasisError(f"a-slice v={v}: asymmetric remainder")
            g = top // 2
            c = work[top]
            table[(g, v)] = c
            for u, zc in _z2_power_dense(g).items():
                s = work.get(u, 0) - c * zc
                if s:
                    work[u] = _norm_c(s)
                elif u in work:
                    del work[u]
    return ZBasisTable(table)


# ---------------------------------------------------------------------------
# dense univariate helpers (internal, used by RationalQ)
# ---------------------------------------------------------------------------

def _pt(coeffs) -> tuple:
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _p_add(a, b):
    n = max(len(a), len(b))
    return _pt(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _p_neg(a):
    return tuple(-x for x in a)


def _p_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _pt(out)


def _p_divmod(a, b):
    """Polynomial divmod over exact rationals (b != 0)."""
    if not b:
        raise ZeroDivisionError
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _pt(a)
    r = list(a)
    lead = Fraction(b[-1])
    q = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = r[i + db]
        if not c:
            continue
        t = Fraction(c) / lead
        q[i] = t
        for j, y in enumerate(b):
            r[i + j] -= t * y
    return _pt(q), _pt(r)


def _int_primitive(a):
    """Scale a rational coefficient list to primitive integers (positive lead)."""
    if not a:
        return ()
    den = 1
    for c in a:
        d = Fraction(c).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(c) * den) for c in a]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists, deg a >= deg b >= 0."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) - 1 >= db and any(r):
        top = r[-1]
        if not top:
            r.pop()
            continue
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for j, y in enumerate(b):
            r[shift + j] -= top * y
        r = list(_pt(r))
    return _pt(r)


def _p_gcd(a, b):
    """Monic gcd via a primitive integer remainder sequence."""
    a = _int_primitive(a)
    b = _int_primitive(b)
    if not a:
        base = b
    elif not b:
        base = a
    else:
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _int_primitive(_pseudo_rem(a, b))
            a, b = b, r
        base = a
    if not base:
        return ()
    lead = Fraction(base[-1])
    return tuple(_norm_c(Fraction(c) / lead) for c in base)


def _p_stretch(a, d):
    if not a:
        return ()
    out = [0] * ((len(a) - 1) * d + 1)
    for i, c in enumerate(a):
        out[i * d] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# RationalQ
# ---------------------------------------------------------------------------

class RationalQ:
    """Rational function of q on the q^(1/2) exponent lattice.

    Value = q^(off/2) * num(s) / den(s) with s = q^(1/2).  Canonical form:
    den is a monic polynomial in s with nonzero constant term, num has
    nonzero constant term (the monomial shift lives in ``off``), and
    gcd(num, den) = 1.  Equality is structural.
    """

    __slots__ = ("off", "num", "den")

    def __init__(self, num=(1,), den=(1,), off=0, _normalized=False):
        if _normalized:
            self.num, self.den, self.off = _pt(num), _pt(den), off
            if not self.num:
                self.den, self.off = (1,), 0
            return
        num = _pt(num)
        den = _pt(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        i = 0
        while i < len(num) and not num[i]:
            i += 1
        j = 0
        while j < len(den) and not den[j]:
            j += 1
        num = num[i:]
        den = den[j:]
        off += i - j
        if not num:
            self.num, self.den, self.off = (), (1,), 0
            return
        g = _p_gcd(num, den)
        if len(g) > 1:
            num, _ = _p_divmod(num, g)
            den, _ = _p_divmod(den, g)
        lead = Fraction(den[-1])
        self.num = tuple(_norm_c(Fraction(c) / lead) for c in num)
        self.den = tuple(_norm_c(Fraction(c) / lead) for c in den)
        self.off = off

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> RationalQ:
        return cls((), (1,), 0, _normalized=True)

    @classmethod
    def one(cls) -> RationalQ:
        return cls((1,), (1,), 0, _normalized=True)

    @classmethod
    def monomial(cls, u: int, c: Rat = 1) -> RationalQ:
        c = _norm_c(c)
        if not c:
            return cls.zero()
        return cls((c,), (1,), u, _normalized=True)

    @classmethod
    def from_laurent(cls, f: LaurentQA) -> RationalQ:
        sl = f.a_slices()
        if not sl:
            return cls.zero()
        if set(sl) != {0}:
            raise ValueError("LaurentQA has a-dependence; use RationalQA")
        lo, dense = _slice_to_dense(sl[0])
        return cls(tuple(dense), (1,), lo, _normalized=True)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_laurent(self) -> bool:
        return self.den == (1,)

    def to_laurent(self) -> LaurentQA:
        if not self.is_laurent():
            raise ExactDivisionError(
                "denominator is nontrivial", remainder=None
            )
        return LaurentQA(
            {(self.off + i, 0): c for i, c in enumerate(self.num) if c}
        )

    def __eq__(self, other):
        return (
            isinstance(other, RationalQ)
            and self.off == other.off
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.off, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        off = min(self.off, other.off)
        a = (0,) * (self.off - off) + self.num
        b = (0,) * (other.off - off) + other.num
        num = _p_add(_p_mul(a, other.den), _p_mul(b, self.den))
        den = _p_mul(self.den, other.den)
        return RationalQ(num, den, off)

    def __neg__(self):
        return RationalQ(_p_neg(self.num), self.den, self.off, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalQ.zero()
        return RationalQ(
            _p_mul(self.num, other.num),
            _p_mul(self.den, other.den),
            self.off + other.off,
        )

    def __truediv__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero RationalQ")
        if self.is_zero():
            return RationalQ.zero()
        return RationalQ(
            _p_mul(self.num, other.den),
            _p_mul(self.den, other.num),
            self.off - other.off,
        )

    def scale(self, c: Rat) -> RationalQ:
        c = _norm_c(c)
        if not c:
            return RationalQ.zero()
        return RationalQ(
            tuple(_norm_c(x * c) for x in self.num),
            self.den,
            self.off,
            _normalized=True,
        )

    def adams(self, d: int) -> RationalQ:
        """Substitute q -> q^d; canonical form is preserved by stretching."""
        if d < 1:
            raise ValueError("adams operation needs d >= 1")
        if d == 1:
            return self
        return RationalQ(
            _p_stretch(self.num, d),
            _p_stretch(self.den, d),
            self.off * d,
            _normalized=True,
        )

    def __repr__(self):
        if self.is_zero():
            return "0"
        n = LaurentQA({(self.off + i, 0): c for i, c in enumerate(self.num) if c})
        if self.is_laurent():
            return repr(n)
        d = LaurentQA({(i, 0): c for i, c in enumerate(self.den) if c})
        return f"({n!r}) / ({d!r})"


ONE_MINUS_Q = RationalQ((1, 0, -1), (1,), 0, _normalized=True)  # 1 - q


def one_minus_q_pow(i: int) -> RationalQ:
    """1 - q^i as a RationalQ (i >= 1)."""
    c = [1] + [0] * (2 * i - 1) + [-1]
    return RationalQ(tuple(c), (1,), 0, _normalized=True)


# ---------------------------------------------------------------------------
# RationalQA
# ---------------------------------------------------------------------------

class RationalQA:
    """Finitely supported map a-exponent v -> RationalQ; no zero entries."""

    __slots__ = ("_m",)

    def __init__(self, m: Mapping | None = None):
        self._m = {v: r for v, r in (m or {}).items() if not r.is_zero()}

    @classmethod
    def zero(cls) -> RationalQA:
        return cls({})

    @classmethod
    def one(cls) -> RationalQA:
        return cls({0: RationalQ.one()})

    @classmethod
    def from_laurent(cls, f: LaurentQA) -> RationalQA:
        out = {}
        for v, sl in f.a_slices().items():
            lo, dense = _slice_to_dense(sl)
            out[v] = RationalQ(tuple(dense), (1,), lo, _normalized=True)
        return cls(out)

    def items(self):
        return iter(self._m.items())

    def slice(self, v: int) -> RationalQ:
        return self._m.get(v, RationalQ.zero())

    def top_a(self) -> tuple:
        """(v, coefficient) at the highest a-exponent."""
        if not self._m:
            return 0, RationalQ.zero()
        v = max(self._m)
        return v, self._m[v]

    def is_zero(self) -> bool:
        return not self._m

    def __eq__(self, other):
        return isinstance(other, RationalQA) and self._m == other._m

    def __add__(self, other):
        if not isinstance(other, RationalQA):
            return NotImplemented
        m = dict(self._m)
        for v, r in other._m.items():
            s = m.get(v)
            s = r if s is None else s + r
            if s.is_zero():
                m.pop(v, None)
            else:
                m[v] = s
        return RationalQA(m)

    def __neg__(self):
        return RationalQA({v: -r for v, r in self._m.items()})

    def __sub__(self, other):
        if not isinstance(other, RationalQA):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalQA):
            return NotImplemented
        m: dict = {}
        for v1, r1 in self._m.items():
            for v2, r2 in other._m.items():
                v = v1 + v2
                p = r1 * r2
                s = m.get(v)
                s = p if s is None else s + p
                if s.is_zero():
                    m.pop(v, None)
                else:
                    m[v] = s
        return RationalQA(m)

    def scale(self, c: Rat) -> RationalQA:
        if not c:
            return RationalQA.zero()
        return RationalQA({v: r.scale(c) for v, r in self._m.items()})

    def mul_rational(self, r: RationalQ) -> RationalQA:
        if r.is_zero():
            return RationalQA.zero()
        return RationalQA({v: x * r for v, x in self._m.items()})

    def div_rational(self, r: RationalQ) -> RationalQA:
        return RationalQA({v: x / r for v, x in self._m.items()})

    def adams(self, d: int) -> RationalQA:
        if d < 1:
            raise ValueError("adams operation needs d >= 1")
        if d == 1:
            return self
        return RationalQA({v * d: r.adams(d) for v, r in self._m.items()})

    def as_laurent(self) -> LaurentQA | None:
        """Collapse to LaurentQA if every slice has trivial denominator."""
        out: dict = {}
        for v, r in self._m.items():
            if not r.is_laurent():
                return None
            for i, c in enumerate(r.num):
                if c:
                    out[(r.off + i, v)] = c
        return LaurentQA._make(out)

    def __repr__(self):
        if not self._m:
            return "0"
        return " + ".join(f"a^({v}/2)*[{self._m[v]!r}]" for v in sorted(self._m))
