from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import as_partition, aut_order
from lmov.partitions import (
    kappa,
    mn_character,
    partitions_of,
    permutation_count,
    scale_down,
    z_factor,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partitions_of_counts():
    for n, want in enumerate(PARTITION_COUNTS):
        assert len(partitions_of(n)) == want


def test_partitions_of_order_and_canonical_form():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for mu in partitions_of(8):
        assert sum(mu) == 8
        assert all(a >= b for a, b in zip(mu, mu[1:]))
    # reverse lexicographic ordering
    ps = partitions_of(7)
    assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))


def test_z_factor_and_aut():
    assert z_factor((1, 1)) == 2
    assert z_factor((2,)) == 2
    assert z_factor((2, 2, 1)) == 8
    assert aut_order((2, 1)) == 1
    assert aut_order((1, 1, 1)) == 6
    assert aut_order((2, 2, 1)) == 2


def test_kappa():
    assert kappa((2,)) == 2
    assert kappa((1, 1)) == -2
    assert kappa((3, 1)) == 4
    assert kappa(()) == 0


def test_scale_down():
    assert scale_down((4, 2), 2) == (2, 1)
    assert scale_down((3, 2), 2) is None
    assert scale_down((6, 3), 3) == (2, 1)
    with pytest.raises(ValueError):
        scale_down((2,), 0)


def test_as_partition():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        as_partition([2, 0])


def _cycle_type(perm):
    seen = [False] * len(perm)
    lens = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, c = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


def test_z_factor_counts_permutations():
    # z_factor(mu) * #{perms of cycle type mu} = n!
    for n in range(1, 7):
        counts = {}
        for perm in permutations(range(n)):
            t = _cycle_type(perm)
            counts[t] = counts.get(t, 0) + 1
        for mu, cnt in counts.items():
            assert cnt == permutation_count(mu)
            assert z_factor(mu) * cnt == factorial(n)


# --- independent character oracle ------------------------------------------
# chi_lambda(mu) as the coefficient of x^(lambda + delta) in p_mu * Vandermonde,
# a classical determinant route entirely separate from the rim-hook recursion.


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _poly_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def character_oracle(lam, mu):
    k = max(len(lam), 1)
    lam = tuple(lam) + (0,) * (k - len(lam))
    delta = tuple(k - 1 - i for i in range(k))
    vand = {}
    for perm in permutations(range(k)):
        key = tuple(delta[p] for p in perm)
        vand[key] = vand.get(key, 0) + _perm_sign(perm)
    poly = vand
    for part in mu:
        power_sum = {}
        for i in range(k):
            key = tuple(part if j == i else 0 for j in range(k))
            power_sum[key] = 1
        poly = _poly_mul(poly, power_sum)
    target = tuple(l + d for l, d in zip(lam, delta))
    return poly.get(target, 0)


def test_mn_character_against_oracle():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert mn_character(lam, mu) == character_oracle(lam, mu), (lam, mu)


def test_mn_character_examples():
    assert mn_character((1, 1), (2,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    for mu in partitions_of(6):
        assert mn_character((6,), mu) == 1  # trivial representation


def test_mn_character_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2,), (1,))


@given(st.integers(1, 7))
def test_character_orthogonality(n):
    parts = partitions_of(n)
    for i, lam in enumerate(parts):
        for lam2 in parts[i:]:
            s = sum(
                Fraction(mn_character(lam, mu) * mn_character(lam2, mu), z_factor(mu))
                for mu in parts
            )
            assert s == (1 if lam == lam2 else 0)


@given(st.integers(1, 7))
def test_character_second_orthogonality(n):
    parts = partitions_of(n)
    for mu in parts:
        for nu in parts:
            s = sum(
                Fraction(mn_character(lam, mu) * mn_character(lam, nu), z_factor(mu))
                for lam in parts
            )
            assert s == (1 if mu == nu else 0)
