"""Small routines that only the tests use.

They restate textbook definitions next to the library so that the tests
can check the library's structure (the p-adic congruences behind the
integrality proofs, partition multiplicities, a JSON round trip of
LaurentQA) without the library shipping them, plus a runner that
captures the command line's output.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from math import factorial

from lmov.cli import EXIT_OK, main
from lmov.qa import LaurentQA


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
