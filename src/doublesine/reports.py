"""Deterministic JSON and CSV report writers.

Reports carry a schema version and are byte-reproducible: keys are
sorted, floats use shortest round-trip repr, no timestamps or machine
identifiers are embedded, and non-finite floats are stringified so the
JSON stays portable.  A writer unlinks an existing report before writing
it anew, since overwriting a file in place can cost a flush of its old
blocks; a report path that is a symlink or a hard link gets a new file.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = ["SCHEMA_VERSION", "to_jsonable", "write_json", "write_csv"]

SCHEMA_VERSION = 1


def to_jsonable(obj):
    """Recursively convert report objects to plain JSON-ready data; a
    complex value becomes its string, and any type without a rule here raises."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return str(obj)
    if isinstance(obj, Enum):
        return to_jsonable(obj.value)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    raise TypeError(f"no report form for {type(obj).__name__} value {obj!r}")


def write_json(path: str | Path, payload: dict) -> None:
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2)
    Path(path).unlink(missing_ok=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


# the common cell types, looked up by exact type before the subclass checks
_EXACT_CELLS = {
    type(None): lambda v: "",
    bool: lambda v: "true" if v else "false",
    int: str,
    float: repr,
    str: str,
}


def _cell(value) -> str:
    exact = _EXACT_CELLS.get(type(value))
    if exact is not None:
        return exact(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    Path(path).unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
