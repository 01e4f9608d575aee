"""Deterministic JSON/CSV emission for the invariant tables.

Identical inputs produce byte-identical files: keys are sorted, floats
never appear in a table, CSV uses LF line endings and UTF-8.

A table is one ``(head, rows, columns)`` triple.  ``head`` holds the
top-level JSON keys and ``rows`` the JSON row dicts; a row may nest its
cells under ``"entries"``.  ``columns`` is the CSV header, where a column
written ``value=n`` reads field ``n``.  Each CSV line merges the head, the
row and one of its entries, then reads the columns in order.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import os
import sys
from fractions import Fraction


def _jsonify(obj):
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def json_bytes(obj) -> bytes:
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def _csv_cell(v):
    # a tuple is a partition: its parts separated by spaces
    return " ".join(map(str, v)) if isinstance(v, tuple) else v


def csv_bytes(rows) -> bytes:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def table_bytes(fmt: str, head: dict, rows: list, columns: list) -> bytes:
    """Serialise one table as ``json`` or ``csv`` (see the module docstring)."""
    if fmt == "json":
        return json_bytes({**head, "rows": rows})
    fields = [c.partition("=") for c in columns]
    lines = [[name for name, _, _ in fields]]
    for row in rows:
        for entry in row.get("entries", ({},)):
            cell = {**head, **row, **entry}
            lines.append([cell[key or name] for name, _, key in fields])
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
