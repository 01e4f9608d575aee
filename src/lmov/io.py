"""Deterministic JSON/CSV emission for the invariant tables.

Identical inputs produce byte-identical files: keys are sorted, floats
never appear in a table, CSV uses LF line endings and UTF-8.

``json_bytes`` writes the bytes of ``json.dumps(..., sort_keys=True,
indent=2)`` plus a newline in one recursive pass, for dicts (str, int,
float, bool or None keys), lists, tuples, str, int, float, bool and None;
anything else is a TypeError, as in ``json.dumps``.
``tests/reference.py`` keeps the ``json.dumps`` form it is tested against.

A table is one ``(head, rows, columns)`` triple.  ``head`` holds the
top-level JSON keys and ``rows`` the JSON row dicts; a row may nest its
cells under ``"entries"``.  ``columns`` is the CSV header, where a column
written ``value=n`` reads field ``n``.  Each CSV line reads the columns from
one entry, else from the head and row, merged once per row.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import os
import sys
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


def json_bytes(obj) -> bytes:
    return (_value(obj, "") + "\n").encode("utf-8")


def csv_bytes(rows) -> bytes:
    # a tuple is a partition: its parts separated by spaces
    lines = ([v if type(v) is int else " ".join(map(str, v)) if isinstance(v, tuple) else v
              for v in row] for row in rows)
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue().encode("utf-8")


def table_bytes(fmt: str, head: dict, rows: list, columns: list) -> bytes:
    """Serialise one table as ``json`` or ``csv`` (see the module docstring)."""
    if fmt == "json":
        return json_bytes({**head, "rows": rows})
    keys = [c.partition("=")[2] or c for c in columns]
    lines = [[c.partition("=")[0] for c in columns]]
    for row in rows:
        outer = {**head, **row}  # an entry's own fields win over these
        lines += ([entry[k] if k in entry else outer[k] for k in keys]
                  for entry in row.get("entries", ({},)))
    return csv_bytes(lines)


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
