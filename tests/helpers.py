"""Small routines that only the tests use.

They restate textbook definitions next to the library so that the tests
can check the library's structure (the p-adic congruences behind the
integrality proofs, partition multiplicities, the pairing matrix M, a JSON
round trip of LaurentQA, ``lsum``, the one sum of LaurentQAs that the
tests and the reference take, as a ``LaurentQA.dot``, the a-slices of a
LaurentQA, a PochRow as a PochFrac, an int a-row as a LaurentQA, the one-hole rows as a
LaurentQA, among them the closed form and the colored sum unpacked and
divided by m!, the a-side quantum integer {n}_a, a row packed at
2^(8 width) by Horner's rule) without the
library shipping them, plus a runner that captures the command line's
output, a recorder of the slot widths that a module unpacks at, a cache
reset, and a division for series exps over PochFrac or with non-integral
values.
The slow rational-function reference lives in ``reference.py``.
"""

import io
import sys
from contextlib import ExitStack, contextmanager, redirect_stdout
from fractions import Fraction
from functools import cache
from math import factorial
from unittest.mock import patch

from lmov import onehole
from lmov.cli import EXIT_OK, main
from lmov.partitions import mn_character, partitions_of, z_factor
from lmov.qa import LaurentQA, PochFrac, PochRow, _unpack, quantum_int


def lsum(*terms) -> LaurentQA:
    """The sum of c f over the (c, f) pairs: one ``LaurentQA.dot``, the
    only sum that LaurentQA has."""
    return LaurentQA.dot((c, f, LaurentQA.one()) for c, f in terms)


def a_slices(f: LaurentQA) -> dict:
    """The coefficients of f grouped by a-exponent: v -> {u: coefficient}."""
    out: dict = {}
    for (u, v), c in f.items():
        out.setdefault(v, {})[u] = c
    return out


def poch_frac(r: PochRow) -> PochFrac:
    """The PochFrac of the same value as the PochRow r."""
    return PochFrac(LaurentQA({(r.lo + 2 * e, 0): c for e, c in enumerate(r.row)}), r.n)


def a_row(row: list) -> LaurentQA:
    """The int a-row [c_0, c_1, ...], index = a-power, as sum c_l a^l."""
    return LaurentQA({(0, 2 * l): c for l, c in enumerate(row)})


def quantum_prod(parts) -> LaurentQA:
    """Product of quantum integers {p} over the parts; empty product is 1."""
    out = LaurentQA.one()
    for p in parts:
        out = out * quantum_int(p)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


@cache
def fp_factor(p: int, n: int) -> int:
    """Product of the integers in [1, n] coprime to the prime p."""
    if not is_prime(p):
        raise ValueError("fp_factor needs a prime p")
    if n < 0:
        raise ValueError("fp_factor needs n >= 0")
    out = 1
    for i in range(1, n + 1):
        if i % p:
            out *= i
    return out


def as_partition(parts) -> tuple:
    """Validate and canonicalize an iterable of parts."""
    t = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p <= 0 for p in t):
        raise ValueError(f"parts must be positive integers, got {t}")
    return t


def aut_order(mu: tuple) -> int:
    """Product of a_i! over the part multiplicities."""
    out = 1
    for p in set(mu):
        out *= factorial(mu.count(p))
    return out


def quantum_int_a(n: int) -> LaurentQA:
    """{n}_a = a^(n/2) - a^(-n/2)."""
    return lsum((1, LaurentQA.monomial(v=n)), (-1, LaurentQA.monomial(v=-n)))


def is_one(f: LaurentQA) -> bool:
    return dict(f.items()) == {(0, 0): 1}


def support(f: LaurentQA) -> list:
    """The sorted exponent pairs (u, v) with a nonzero coefficient."""
    return sorted(k for k, _ in f.items())


def series_x(cls, order: int) -> list:
    """The series x over the coefficient class ``cls``, truncated at ``order``."""
    return [cls.zero(), cls.one()] + [cls.zero()] * (order - 1)


def m_matrix(lam: tuple, mu: tuple) -> LaurentQA:
    """Pairing matrix entry: sum over classes nu of
    chi_lam(nu) chi_mu(nu) / z_nu * prod_j (q^(-nu_j/2) - q^(nu_j/2))."""
    if sum(lam) != sum(mu):
        raise ValueError("m_matrix needs |lam| = |mu|")
    return lsum(*((Fraction((-1) ** (len(nu) % 2) * c, z_factor(nu)), quantum_prod(nu))
                  for nu in partitions_of(sum(lam))
                  if (c := mn_character(lam, nu) * mn_character(mu, nu))))


def laurent(rows: dict) -> LaurentQA:
    """The rows {v: (u0, row)}, row[e] the coefficient of q^((u0 + 2 e)/2)
    a^(v/2), as one LaurentQA."""
    return LaurentQA({(u + 2 * e, v): c for v, (u, r) in rows.items() for e, c in enumerate(r)})


def z2_g_m(m: int, tau: int) -> LaurentQA:
    """z^2 g_m as a Laurent polynomial: the rows behind ``lmov_one_hole``."""
    return laurent(onehole._z2_rows(m, tau))


def cal_z_cleared(m: int, tau: int) -> LaurentQA:
    """{m}{m tau} Z_m (tau != 0), {m}_a (tau = 0): the closed-form rows
    ``onehole._cleared_rows`` as a LaurentQA."""
    return laurent(onehole._cleared_rows(m, tau))


def colored_sum(m: int, tau: int) -> LaurentQA:
    """{m}{m tau} Z_m by its colored-sum definition: E_m of
    ``onehole.colored_sum`` unpacked and divided by (-1)^(m tau) m!, or
    None when that division leaves a remainder."""
    width, packed = onehole.colored_sum(m, tau)
    length = m * abs(tau)
    size = (length - 1) * m + 1
    rows = {v: (-(length - 1) * m, _unpack(p, width, size)) for v, p in packed.items()}
    return laurent(rows).div((-1) ** ((m * tau) % 2) * factorial(m))


def clear_lmov_caches() -> None:
    """Empty every cache of the package, so that nothing is read from an
    earlier computation."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("lmov."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name:
                    obj.cache_clear()


def laurent_to_json(f: LaurentQA) -> list:
    return [
        {"u": u, "v": v, "num": Fraction(c).numerator, "den": Fraction(c).denominator}
        for (u, v), c in sorted(f.items())
    ]


def laurent_from_json(rows) -> LaurentQA:
    return LaurentQA({(r["u"], r["v"]): Fraction(r["num"], r["den"]) for r in rows})


def cli_output(*argv: str) -> str:
    """Standard output of a successful ``lmov`` invocation."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == EXIT_OK
    return buf.getvalue()


def pack(row: list, width: int) -> int:
    """The int row's value at x = 2^(8 width), by Horner's rule."""
    out = 0
    for c in reversed(row):
        out = (out << (8 * width)) + c
    return out


def unpack_widths(monkeypatch, module) -> list:
    """The slot widths that ``module`` passes to ``_unpack``, in call order."""
    widths, real = [], module._unpack
    monkeypatch.setattr(module, "_unpack", lambda p, w, n: widths.append(w) or real(p, w, n))
    return widths


def _poch_div(p: PochFrac, n: int) -> PochFrac | None:
    num = p.num.div(n)
    return None if num is None else PochFrac(num, p.n)


@contextmanager
def series_division(keep_fractions: bool):
    """Inside, PochFrac divides its numerator (None on a remainder), so that
    ``series.series_dexp`` runs over PochFrac, which has no division of its
    own.  With keep_fractions, ``LaurentQA.div`` is the product with
    Fraction(1, n), which keeps a Fraction on a remainder, so that it also
    runs where the exp is not integral."""
    with ExitStack() as stack:
        stack.enter_context(patch.object(PochFrac, "div", _poch_div, create=True))
        if keep_fractions:
            stack.enter_context(patch.object(
                LaurentQA, "div", lambda f, n: f.scale(Fraction(1, n))))
        yield
