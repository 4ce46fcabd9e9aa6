"""Canonical serialization: stable JSON, frontier CSV, atomic writes.

JSON is the canonical format and must be byte-identical for identical
inputs: keys sorted, two-space indent, trailing newline, numpy scalars
coerced to plain Python. CSV is the lossy tabular view of frontier
records only.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

FRONTIER_COLUMNS = ("t", "strategy", "seed", "total_energy", "mean_energy")


def jsonable(obj):
    """Recursively coerce numpy scalars/arrays and set-likes to JSON types."""
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(item) for item in obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(item) for item in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_text(path, text: str):
    """Write text to path atomically: a temporary file in the same directory, then a rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_int(value, what: str) -> int:
    """value itself when it is a JSON integer; ValueError for anything else.

    Floats are refused rather than truncated (0.5 is not wire 0), and so are
    booleans, which Python counts as ints.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def load_payload(path, parse):
    """``parse`` applied to the JSON in the file at path; ValueError naming the file on bad input.

    A payload of the wrong shape (null or a number where a list belongs, an
    infinite count) surfaces from the parser as TypeError, AttributeError or
    OverflowError; those are reported like any other parse error.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    try:
        return parse(payload)
    except (ValueError, TypeError, AttributeError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from err


def frontier_csv(records) -> str:
    """FRONTIER_COLUMNS, plus a product_minimum column when a record bounds the product minimum."""
    rows = [rec.row() for rec in records]
    columns = FRONTIER_COLUMNS
    if any("product_minimum" in row for row in rows):
        columns += ("product_minimum",)
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])
    return buffer.getvalue()
