"""Integer partitions, their statistics, and symmetric-group characters.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition.  Characters are computed by the
Murnaghan-Nakayama rule on beta-sets and memoized, since they dominate
the cost of the general-partition invariant pipeline.
"""

from __future__ import annotations

from functools import cache
from math import factorial, gcd

Partition = tuple


@cache
def partitions_of(n: int) -> tuple:
    """All partitions of n, each once, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("partitions_of needs n >= 0")

    def gen(rest: int, max_part: int):
        if rest == 0:
            yield ()
            return
        for k in range(min(rest, max_part), 0, -1):
            for tail in gen(rest - k, k):
                yield (k,) + tail

    return tuple(gen(n, n))


def z_factor(mu: Partition) -> int:
    """Centralizer order: product of i^(a_i) * a_i! over part multiplicities."""
    out = 1
    mult: dict = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for p, a in mult.items():
        out *= p ** a * factorial(a)
    return out


def kappa(lam: Partition) -> int:
    """Framing exponent: sum of lambda_i * (lambda_i - 2i + 1), 1-indexed."""
    return sum(p * (p - 2 * i + 1) for i, p in enumerate(lam, start=1))


def scale_down(mu: Partition, d: int):
    """(mu_1/d, ..., mu_l/d) when d divides every part, else None."""
    if d < 1:
        raise ValueError("scale_down needs d >= 1")
    if any(p % d for p in mu):
        return None
    return tuple(p // d for p in mu)


def parts_gcd(mu: Partition) -> int:
    """gcd of all parts (0 for the empty partition)."""
    g = 0
    for p in mu:
        g = gcd(g, p)
    return g


@cache
def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi_lambda at the class of cycle type mu.

    Murnaghan-Nakayama on the beta-set of lambda: removing a border strip
    of size r is subtracting r from one beta number, and the strip height
    is the number of beta numbers jumped over.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = tuple(lam[i] + (k - 1 - i) for i in range(k))
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for b2 in beta if nb < b2 < b)
        new_beta = sorted((bset - {b}) | {nb}, reverse=True)
        new_lam = tuple(
            nbv - (k - 1 - i) for i, nbv in enumerate(new_beta)
        )
        new_lam = tuple(p for p in new_lam if p)
        total += (-1) ** height * mn_character(new_lam, rest)
    return total


def permutation_count(mu: Partition) -> int:
    """Number of permutations of S_|mu| with cycle type mu."""
    n = sum(mu)
    return factorial(n) // z_factor(mu)
