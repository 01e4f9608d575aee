"""``lmov.io``'s one-pass writers against the stdlib serialisers in
``reference``: the same bytes on every value they take, and the same
``TypeError`` on a value they do not."""

from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from lmov import cli, io


class Pair(NamedTuple):
    left: object
    right: object


class Label(str):
    pass


class Seconds(float):
    pass


class Colour(IntEnum):
    RED = 1
    BLUE = -7


class Cells(list):
    pass


LEAVES = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.booleans(),
    st.none(),
    st.text(),  # escapes and non-ASCII
    st.floats(),  # NaN and the infinities too
    st.text().map(Label),
    st.floats().map(Seconds),
    st.sampled_from(Colour),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Cells),
        st.builds(Pair, children, children),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4).map(OrderedDict),
        st.dictionaries(st.one_of(st.integers(), st.booleans()), children, max_size=4),
        st.dictionaries(st.floats(), children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=30)


@given(VALUES)
def test_json_bytes_is_json_dumps(value):
    assert io.json_bytes(value) == reference.json_bytes(value)


def test_json_bytes_spells_the_edge_cases_like_json_dumps():
    value = {
        "inf": [float("inf"), float("-inf"), float("nan"), -0.0, 1e300],
        "empty": [{}, [], ()],
        "text": "tab\t quote\" é \U0001f600",
        "keys": [{1.5: 1, float("inf"): 2}, {-(10**40): 0, True: 1}, {None: 0}],
    }
    assert io.json_bytes(value) == reference.json_bytes(value)


@pytest.mark.parametrize("value", [
    {1, 2},
    object(),
    {"cells": [frozenset()]},
    {(1, 2): 3},  # a tuple key
    {"a": 1, 2: 3},  # keys that do not sort
    Fraction(1, 3),
])
def test_json_bytes_raises_type_error_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        reference.json_bytes(value)
    with pytest.raises(TypeError):
        io.json_bytes(value)


NAMES = ["m", "tau", "g", "n", "k", "mu"]
CELLS = st.one_of(
    st.integers(),
    st.booleans(),
    st.text(),
    st.lists(st.integers(min_value=1, max_value=9), max_size=4).map(tuple),  # a partition
)
FIELDS = st.dictionaries(st.sampled_from(NAMES), CELLS, max_size=4)
ROWS = st.lists(
    st.builds(
        lambda fields, entries: fields if entries is None else {**fields, "entries": entries},
        FIELDS,
        st.none() | st.lists(FIELDS, max_size=3),
    ),
    max_size=5,
)


@given(st.fixed_dictionaries({name: CELLS for name in NAMES}), ROWS,
       st.lists(st.sampled_from(NAMES[:4] + ["value=k", "mu"]), min_size=1, max_size=4))
def test_csv_table_is_the_merged_dict_form(head, rows, columns):
    # an entry's fields win over its row's, and a row's over the head's
    assert io.table_bytes("csv", head, rows, columns) == reference.table_bytes(
        "csv", head, rows, columns)


def test_csv_field_found_nowhere_is_a_key_error():
    rows = [{"m": 1, "entries": [{"g": 0}, {"n": 2}]}]
    with pytest.raises(KeyError):
        reference.table_bytes("csv", {}, rows, ["m", "g"])
    with pytest.raises(KeyError):
        io.table_bytes("csv", {}, rows, ["m", "g"])


@pytest.mark.parametrize("argv", [
    ["disc", "--tau", "-2", "--max-m", "6"],
    ["annulus", "--tau", "3", "--max-total", "6"],
    ["multihole", "--tau", "-1", "--max-size", "6"],
    ["onehole", "--tau", "-3", "--max-m", "5"],
    ["onehole", "--tau", "2", "--max-m", "4", "--half-format", "fraction"],
    ["ov", "--tau", "2", "--max-m", "5"],
    ["dt", "--loops", "2", "--max-n", "5"],
    ["twist", "--max-r", "6"],
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_every_table_kind_matches_the_reference(argv, fmt):
    table = cli._table(cli.parse_args(argv))
    assert io.table_bytes(fmt, *table) == reference.table_bytes(fmt, *table)
