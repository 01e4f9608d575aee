"""``lmov.io``'s one-pass writers against the stdlib serialisers in
``reference``: the same bytes on every value they take, and the same
``TypeError`` on a value they do not."""

from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
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


INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200).map(
    lambda n: n * (-1) ** (n % 2)))  # past 2^64, of either sign
NEAR_MISSES = st.sampled_from(["none", "bool", "int subclass", "key order", "missing key",
                               "int keys", "nested"])


@st.composite
def record_runs(draw):
    """Records sharing one key order with exact int values, which ``io`` writes
    in bulk, or such a run with one record changed so that it may not."""
    miss = draw(NEAR_MISSES)
    key = st.integers() if miss == "int keys" else st.text(alphabet='gn_q%s"\\é', max_size=3)
    keys = draw(st.lists(key, min_size=1, max_size=4, unique=True))
    run = [dict(zip(keys, draw(st.lists(INTS, min_size=len(keys), max_size=len(keys)))))
           for _ in range(draw(st.integers(0, 4)))]
    if run and miss not in ("none", "int keys"):
        record, key = draw(st.sampled_from(run)), draw(st.sampled_from(keys))
        if miss in ("key order", "missing key"):
            items = list(record.items())[::-1] if miss == "key order" else [
                (k, x) for k, x in record.items() if k != key]
            record.clear()
            record.update(items)
        else:
            record[key] = {"bool": True, "int subclass": Colour.BLUE}.get(miss, [record[key]])
    return run


VALUES = st.recursive(LEAVES | record_runs(), _containers, max_leaves=30)


@settings(max_examples=300)
@given(VALUES)
@example([{"%": 1, "%s": -(2**70), '"': 3}, {"%": 4, "%s": 5, '"': 6}])  # a run, in bulk
@example({"rows": [{"entries": [{"g": 0, "two_q": -1, "n": 1}, {"g": 1, "two_q": 1, "n": 2}]}]})
@example([{"a": 1, "b": True}, {"a": 2, "b": 3}])  # a bool is no int here
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
    st.none(),
    st.floats(),
    st.text(),
    st.text(alphabet=',"\n\r %s'),  # the characters that quote a field, and a lone CR
    st.lists(st.integers(min_value=1, max_value=9), max_size=4).map(tuple),  # a partition
)
FIELDS = st.dictionaries(st.sampled_from(NAMES), CELLS, max_size=4)


@st.composite
def shaped_entries(draw):
    """Entries sharing one key order with int cells, which ``io`` writes one
    ``%`` per row, perhaps with one cell of another kind."""
    keys = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    entries = [dict(zip(keys, draw(st.lists(INTS, min_size=len(keys), max_size=len(keys)))))
               for _ in range(draw(st.integers(0, 4)))]
    if entries and draw(st.booleans()):
        draw(st.sampled_from(entries))[draw(st.sampled_from(keys))] = draw(CELLS)
    return entries


ROWS = st.lists(
    st.builds(
        lambda fields, entries: fields if entries is None else {**fields, "entries": entries},
        FIELDS,
        st.none() | st.lists(FIELDS, max_size=3) | shaped_entries(),
    ),
    max_size=5,
)


@settings(max_examples=300)
@given(st.fixed_dictionaries({name: CELLS for name in NAMES}), ROWS,
       st.lists(st.sampled_from(NAMES[:4] + ["value=k", "mu"]), min_size=1, max_size=4))
@example(dict(zip(NAMES, ["\r", "a%s,", '"', "\n", 5, ()])), [{"entries": [{"g": 1, "n": 2}] * 2}],
         ["m", "tau", "g", "value=n", "n"])  # one %, with fields to quote around it
@example(dict.fromkeys(NAMES, ""), [{"k": None}, {"entries": [{"mu": 7}, {"mu": ""}]}], ["mu"])
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
