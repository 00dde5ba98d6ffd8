"""Deterministic CSV/JSON table export and re-import.

CSV files carry '#'-prefixed key=value metadata lines, then a column-name
row, then data rows in full-precision scientific notation (LF line
endings, '.' decimal point, ',' separator).  JSON files nest metadata and
samples under a schema_version field, laid out as json.dump(..., indent=1)
lays them out.  Columns are one-dimensional, at least one per table, all
of one length.  Identical inputs produce
byte-identical files: no timestamps, fixed key order, fixed float
formatting.  A float column is formatted once per distinct magnitude
(one formatting call for all of them), and each cell takes its
magnitude's text, with a '-' where the sign bit is set; the bytes are
those of formatting every cell on its own.  Writing needs no numpy;
``read_table`` returns numpy arrays.
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


def _format_floats(values: list, precision: int, csv: bool) -> list[str]:
    """Each float as its cell text, in one formatting call for the whole list.

    CSV cells are ``format_float``'s; JSON cells are the C encoder's, as
    json.dump writes them.  Neither text holds a ','.
    """
    if not values:
        return []
    if csv:
        return ((f"%.{precision - 1}e," * len(values))[:-1] % tuple(values)).split(",")
    return json.dumps(values, separators=(",", ":"))[1:-1].split(",")


def _float_array_cells(col, precision: int, csv: bool) -> list[str]:
    """A float array's cells, formatted once per distinct magnitude.

    A dict keyed on the value would merge 0.0 with -0.0, so the magnitudes
    come from np.unique(|col|) and the sign from the sign bit; NaN, whatever
    its sign bit, is written unsigned, as the formatters write it.
    """
    import numpy as np  # an array's module, so already loaded

    mags, index = np.unique(np.abs(col), return_inverse=True)
    if mags.size == col.size:
        return _format_floats(col.tolist(), precision, csv)
    texts = _format_floats(mags.tolist(), precision, csv)
    texts += ["-" + text for text in texts]
    index += mags.size * (np.signbit(col) & ~np.isnan(col))
    return np.array(texts, dtype=object)[index].tolist()


def _cells(col, precision: int, csv: bool) -> list[str]:
    """A column as its cell texts.

    Arrays are float columns when their dtype is (a 0-d array gives one
    cell); other sequences are when every cell is a float.  Other cells
    are written by str (CSV) or the JSON encoder.
    """
    dtype = getattr(col, "dtype", None)
    if dtype is not None:
        if dtype.kind == "f":
            return _float_array_cells(col.reshape(-1), precision, csv)
        values = col.tolist()
        if not isinstance(values, list):
            values = [values]
    else:
        values = list(col)
        if all(isinstance(v, float) for v in values):
            return _format_floats(values, precision, csv)
    return list(map(str if csv else json.dumps, values))


def _write_csv(fh: IO[str], metadata, columns, precision):
    fh.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value, precision)
        fh.write(f"# {key}={value}\n")
    fh.write(",".join(columns) + "\n")
    rows = list(map(",".join, zip(*columns.values())))
    if rows:
        fh.write("\n".join(rows) + "\n")


def _json_list(cells: list[str]) -> str:
    """Cell texts laid out as json.dump(..., indent=1) lays out a list two levels deep."""
    if not cells:
        return "[]"
    return "[\n   " + ",\n   ".join(cells) + "\n  ]"


def _write_json(fh: IO[str], metadata, columns, precision):
    header = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": dict(metadata)}, indent=1)
    samples = ",\n".join(f"  {json.dumps(name)}: {_json_list(cells)}" for name, cells in columns.items())
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
    cols = {name: _cells(col, precision, fmt == "csv") for name, col in columns.items()}
    lengths = {len(cells) for cells in cols.values()}
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
