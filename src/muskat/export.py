"""Deterministic CSV/JSON table export and re-import.

CSV files carry '#'-prefixed key=value metadata lines, then a column-name
row, then data rows in full-precision scientific notation (LF line
endings, '.' decimal point, ',' separator).  JSON files nest metadata and
samples under a schema_version field, laid out as json.dump(..., indent=1)
lays them out.  Columns are one-dimensional, at least one per table, all
of one length.  Identical inputs produce
byte-identical files: no timestamps, fixed key order, fixed float
formatting.  Writing needs no numpy; ``read_table`` returns numpy arrays.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Mapping, Sequence

__all__ = ["format_float", "read_table", "write_table"]

SCHEMA_VERSION = "1"


def format_float(value: float, precision: int = 17) -> str:
    """Scientific notation with ``precision`` significant digits."""
    return f"{value:.{precision - 1}e}"


def _column(col) -> tuple[list, bool]:
    """A column as a flat list, and whether its cells are formatted as floats.

    Arrays convert by ``tolist`` (a 0-d array gives one cell) and are
    floats when their dtype is; other sequences are floats when every cell
    is a float.
    """
    values = col.tolist() if hasattr(col, "tolist") else list(col)
    if not isinstance(values, list):
        values = [values]
    dtype = getattr(col, "dtype", None)
    if dtype is not None:
        return values, dtype.kind == "f"
    return values, all(isinstance(v, float) for v in values)


def _write_csv(fh: IO[str], metadata, columns, precision):
    fh.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value, precision)
        fh.write(f"# {key}={value}\n")
    fh.write(",".join(columns) + "\n")
    # float or plain formatting is decided once per column, not per cell;
    # "%.{p-1}e" and "%s" give the bytes of format_float and str
    row = ",".join(f"%.{precision - 1}e" if is_float else "%s" for _, is_float in columns.values()) + "\n"
    fh.write("".join([row % values for values in zip(*(cells for cells, _ in columns.values()))]))


def _json_list(values: list) -> str:
    """A flat list laid out as json.dump(..., indent=1) lays it out two levels deep.

    The C encoder writes it, with the newline and indent folded into its
    item separator.
    """
    if not values:
        return "[]"
    return "[\n   " + json.dumps(values, separators=(",\n   ", ": "))[1:-1] + "\n  ]"


def _write_json(fh: IO[str], metadata, columns, precision):
    header = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": dict(metadata)}, indent=1)
    samples = ",\n".join(f"  {json.dumps(name)}: {_json_list(cells)}" for name, (cells, _) in columns.items())
    # the header's closing "\n}" makes way for the samples object
    fh.write(header[:-2] + f',\n "samples": {{\n{samples}\n }}\n}}\n')


def write_table(
    path: str | None,
    metadata: Mapping[str, object],
    columns: Mapping[str, Sequence],
    fmt: str = "csv",
    precision: int = 17,
) -> None:
    """Write a metadata + columns table to ``path`` (stdout when None).

    Columns are numpy arrays or plain sequences; both give the same bytes
    for the same values.  Raises ValueError, before any file is opened, for
    a table without columns or with columns of different lengths.
    """
    cols = {name: _column(col) for name, col in columns.items()}
    lengths = {len(cells) for cells, _ in cols.values()}
    if not lengths:
        raise ValueError("a table needs at least one column")
    if len(lengths) > 1:
        raise ValueError(f"all columns must have the same length, got lengths {sorted(lengths)}")
    writer = _write_csv if fmt == "csv" else _write_json
    if path is None:
        writer(sys.stdout, metadata, cols, precision)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer(fh, metadata, cols, precision)


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: str) -> tuple[dict, dict]:
    """Re-read a table written by write_table (format inferred from content), columns as arrays."""
    import numpy as np

    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{":
            payload = json.load(fh)
            columns = {k: np.asarray(v, dtype=float) for k, v in payload["samples"].items()}
            return dict(payload["metadata"]), columns
        metadata: dict = {}
        names: list[str] | None = None
        rows: list[list[str]] = []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    metadata[key.strip()] = _parse_scalar(value.strip())
                continue
            if names is None:
                names = line.split(",")
                continue
            rows.append(line.split(","))
        if names is None:
            raise ValueError(f"{path}: no column header found")
        data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(names)))
        return metadata, {name: data[:, j] for j, name in enumerate(names)}
