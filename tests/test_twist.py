import json
from math import comb

import pytest

import reference
from helpers import cli_output, fp_factor, is_prime
from lmov.twist import b_minus, b_plus


def test_b_minus_values():
    assert b_minus(-1, 1) == -1
    assert b_minus(-3, 2) == -1  # -(comb(5,1) - comb(2,0))/4
    assert b_minus(2, 1) == -1
    # the negative regime does not depend on p
    for r in (1, 2, 3, 5, 8):
        assert b_minus(-1, r) == b_minus(-4, r)


def test_b_plus_values():
    assert b_plus(-1, 2) == 1  # (comb(5,1) - comb(2,0))/4
    assert b_plus(2, 1) == -1  # (-1)^1 comb(5,0)
    # b_plus at p = -1 mirrors b_minus of the negative regime
    for r in range(1, 12):
        assert b_plus(-1, r) == -b_minus(-2, r)


def test_matches_binomial_sums():
    # the loop-quiver maps against the binomial sums they replaced, over the
    # full verification range
    for p in list(range(-6, 0)) + list(range(2, 7)):
        for r in range(1, 41):
            assert b_minus(p, r) == reference.b_minus(p, r), (p, r)
            assert b_plus(p, r) == reference.b_plus(p, r), (p, r)


def test_parameter_domain():
    for bad in (0, 1):
        with pytest.raises(ValueError):
            b_minus(bad, 1)
        with pytest.raises(ValueError):
            b_plus(bad, 1)
    with pytest.raises(ValueError):
        b_minus(2, 0)


def test_integrality_sweep():
    for p in list(range(-6, 0)) + list(range(2, 7)):
        for r in range(1, 41):
            b_minus(p, r)
            b_plus(p, r)


def test_binomial_difference_congruence():
    # p^(2a) divides the paired binomial difference driving the proofs
    def term(k, m):
        return (-1) ** (((k + 1) * m) % 2) * comb(k * m - 1, m - 1)

    for p in (2, 3, 5):
        for alpha in (1, 2):
            for k in range(1, 5):
                for a in (1, 2, 3):
                    if a % p == 0:
                        continue
                    m = p**alpha * a
                    diff = term(k, m) - term(k, m // p)
                    assert diff % p ** (2 * alpha) == 0, (p, alpha, k, a)


def test_table():
    argv = ["twist", "--p-min", "-2", "--p-max", "2", "--max-r", "3"]
    obj = json.loads(cli_output(*argv))
    assert [(row["p"], row["r"]) for row in obj["rows"]] == [
        (p, r) for p in (-2, -1, 2) for r in (1, 2, 3)
    ]
    assert obj["rows"][0] == {"p": -2, "r": 1, "b_minus": -1, "b_plus": 1}
    header, *rows = cli_output(*argv, "--format", "csv").splitlines()
    assert header == "p,r,b_minus,b_plus"
    assert rows[0] == "-2,1,-1,1"
    assert len(rows) == 9
