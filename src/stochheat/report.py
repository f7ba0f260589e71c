"""Byte-stable structured result emission.

Reports are JSON (sorted keys, schema-versioned) plus optional CSV tables:
one header line and one "\n"-ended line per row, floats as their shortest
round-trip `repr`, ints as digits.  Anything nondeterministic — wall-clock
timing in particular — goes to a sidecar file that is excluded from the
byte-identity contract.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ResourceError, ShapeError

__all__ = ["SCHEMA_VERSION", "sanitize", "check_record", "all_pass",
           "write_report", "write_timing_sidecar"]

SCHEMA_VERSION = "1"


def sanitize(obj):
    """Convert numpy scalars/arrays to plain JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def check_record(name: str, passed: bool, lhs=None, rhs=None, **extra) -> dict:
    rec = {"name": name, "pass": bool(passed)}
    if lhs is not None:
        rec["lhs"] = float(lhs)
    if rhs is not None:
        rec["rhs"] = float(rhs)
        if lhs is not None:
            rec["margin"] = float(rhs) - float(lhs)
    rec.update(sanitize(extra))
    return rec


def all_pass(checks) -> bool:
    return all(rec["pass"] for rec in checks)


def write_report(report: dict, out_dir: str, name: str,
                 tables: dict | None = None) -> str:
    """Write `<name>.json` and one `<name>.<table>.csv` per table.

    Serialization is canonical: sorted keys, fixed separators, trailing
    newline — identical configs and seeds produce identical bytes.  A table
    is {"header": [names], "columns": [one 1-D array per name]}: one header
    line, one line per row, floats as the shortest round-trip `repr`, ints
    as digits.  A ragged table raises ShapeError before any file is written.
    """
    texts = {t: _csv_text(t, table) for t, table in (tables or {}).items()}
    try:
        os.makedirs(out_dir, exist_ok=True)
        payload = dict(sanitize(report))
        payload["schema_version"] = SCHEMA_VERSION
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        for table_name, text in texts.items():
            tpath = os.path.join(out_dir, f"{name}.{table_name}.csv")
            with open(tpath, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ResourceError(f"cannot write report under {out_dir}: {exc}") from exc
    return path


def _csv_text(table_name: str, table: dict) -> str:
    """The CSV text of a table, each column turned into text in one pass."""
    header, columns = table["header"], [np.asarray(c) for c in table["columns"]]
    if len(columns) != len(header) or any(
            col.ndim != 1 or len(col) != len(columns[0]) for col in columns):
        raise ShapeError(f"table '{table_name}': header {header}, columns of "
                         f"shapes {[col.shape for col in columns]}")
    cells = [map(repr, col.tolist()) for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def write_timing_sidecar(out_dir: str, name: str, seconds: float) -> None:
    """Wall-clock time, deliberately outside the byte-stable report."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.timing.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"wall_seconds = {seconds:.3f}\n")
    except OSError as exc:
        raise ResourceError(f"cannot write timing sidecar: {exc}") from exc
