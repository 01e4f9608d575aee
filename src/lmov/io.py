"""Deterministic JSON/CSV emission for the invariant tables.

Identical inputs produce byte-identical files: keys are sorted, floats
never appear in a table, CSV uses LF line endings and UTF-8.

``json_bytes`` writes the bytes of ``json.dumps(..., sort_keys=True,
indent=2)`` plus a newline in one recursive pass, for dicts (str, int,
float, bool or None keys), lists, tuples, str, int, float, bool and None;
anything else is a TypeError, as in ``json.dumps``.  A list of exact dicts
with one key order, str keys and exact int values is one ``%`` over a
record template; any other list (a bool, an int subclass) goes item by item.

A table is one ``(head, rows, columns)`` triple.  ``head`` holds the
top-level JSON keys and ``rows`` the JSON row dicts; a row may nest its
cells under ``"entries"``.  ``columns`` is the CSV header, where a column
written ``value=n`` reads field ``n``.  Each CSV line reads the columns from
one entry, else from the head and row, rendered once per row; entries with
one key order and exact int values are one ``%`` over a line template.
CSV fields are those of ``csv.writer`` with LF line ends on CPython 3.11:
an exact int by ``int.__repr__``, None empty, a float by ``repr``, a tuple
(a partition) space-joined, the rest by ``str``; quoted, ``"`` doubled, iff
holding a comma, ``"`` or LF (a lone CR is not), and a lone empty field is
``""``.  ``tests/reference.py`` keeps the ``json`` and ``csv`` writers.
"""

from __future__ import annotations

import contextlib
import os
import sys
from itertools import chain
from operator import itemgetter
from json.encoder import INFINITY as _INF, encode_basestring_ascii as _str


def _key(k) -> str:
    if isinstance(k, (str, int, float)) or k is None:  # bool is an int
        return _str(k) if isinstance(k, str) else f'"{_value(k, "")}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _value(v, pad: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it at
    indent ``pad``: exact types first, then subclasses in the stdlib's order."""
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _str(v)
    inner = pad + "  "
    if t is dict:
        cells = [(_str(k) if type(k) is str else _key(k)) + ": "
                 + (int.__repr__(x) if type(x) is int else _value(x, inner))
                 for k, x in sorted(v.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(cells) + f"\n{pad}}}" if v else "{}"
    if t is list or t is tuple:
        shapes = set(map(tuple, v)) if set(map(type, v)) == {dict} else ()
        if len(shapes) == 1 and set(map(type, *shapes)) == {str}:  # one key order
            keys, cell = sorted(*shapes), inner + "  "
            record = (f"{{\n{cell}" + f",\n{cell}".join(_str(k).replace("%", "%%") + ": %s"
                                                        for k in keys) + f"\n{inner}}}")
            if (run := _fill(v, keys, record, f",\n{inner}")) is not None:
                return f"[\n{inner}{run}\n{pad}]"
        cells = [int.__repr__(x) if type(x) is int else _value(x, inner) for x in v]
        return f"[\n{inner}" + f",\n{inner}".join(cells) + f"\n{pad}]" if v else "[]"
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, (dict, list, tuple)):
        return _value(dict(v.items()) if isinstance(v, dict) else list(v), pad)
    if isinstance(v, (str, int)):
        return _str(v) if isinstance(v, str) else int.__repr__(v)
    if isinstance(v, float):  # NaN and Infinity as the stdlib spells them
        return ("NaN" if v != v else "Infinity" if v == _INF else "-Infinity" if v == -_INF
                else float.__repr__(v))
    raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")


def _fill(records, keys: list, template: str, sep: str) -> str | None:
    """``template`` once per record, joined by ``sep`` and filled by one ``%``
    with each record's values at ``keys``; None unless all are exact ints."""
    get = itemgetter(*keys)  # for one key, the value rather than a 1-tuple
    vals = tuple(chain.from_iterable(map(get, records)) if len(keys) > 1 else map(get, records))
    return sep.join([template] * len(records)) % vals if set(map(type, vals)) == {int} else None


def json_bytes(obj) -> bytes:
    return (_value(obj, "") + "\n").encode("utf-8")


def _field(v) -> str:
    s = (int.__repr__(v) if type(v) is int else "" if v is None else repr(v) if isinstance(v, float)
         else v if isinstance(v, str) else " ".join(map(str, v)) if isinstance(v, tuple) else str(v))
    return '"' + s.replace('"', '""') + '"' if "," in s or '"' in s or "\n" in s else s


def csv_bytes(head: dict, rows: list, columns: list) -> bytes:
    keys = [c.partition("=")[2] or c for c in columns]
    blank = '""' if len(keys) == 1 else ""  # a lone empty field is quoted
    lines = [",".join(_field(c.partition("=")[0]) or blank for c in columns)]
    for row in rows:
        entries = row.get("entries", ({},))
        outer = {**head, **row}  # an entry's own fields win over these
        own = tuple(entries[0]) if entries else ()
        if set(map(tuple, entries)) == {own} and (slots := [k for k in keys if k in own]):
            line = ",".join("%s" if k in own else (_field(outer[k]) or blank).replace("%", "%%")
                            for k in keys)
            if (block := _fill(entries, slots, line, "\n")) is not None:
                lines.append(block)
                continue
        lines += (",".join(_field(e[k] if k in e else outer[k]) or blank for k in keys)
                  for e in entries)
    return ("\n".join(lines) + "\n").encode("utf-8")


def table_bytes(fmt: str, head: dict, rows: list, columns: list) -> bytes:
    """Serialise one table as ``json`` or ``csv`` (see the module docstring)."""
    return json_bytes({**head, "rows": rows}) if fmt == "json" else csv_bytes(head, rows, columns)


def half_string(two_x: int) -> str:
    """Render a doubled half-integer index as an explicit fraction string."""
    if two_x % 2 == 0:
        return str(two_x // 2)
    return f"{two_x}/2"


def emit(data: bytes, out_path: str | None) -> None:
    """Write to stdout, or atomically to ``out_path``: the bytes go to a
    temporary file beside it, which then replaces it, so a failed write
    leaves no partial file behind."""
    if out_path is None or out_path == "-":
        sys.stdout.write(data.decode("utf-8"))
        return
    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, out_path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
