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
magnitude's text, with a '-' where the sign bit is set.  A contiguous
float64 column of n > 2 cells that is bitwise ``linspace(0, stop, n)``,
with 0 < stop < inf, is a uniform grid, such as every profile's x column:
its text is formatted once per process and kept in a cache of at most
``GRID_CACHE_SIZE`` grids, keyed on (stop, n, precision, format).  Either
way the bytes are those of formatting every cell on its own.  Writing
needs no numpy, and CSV needs no json; ``read_table`` returns numpy
arrays.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Mapping, Sequence

__all__ = ["format_float", "read_table", "write_table"]

SCHEMA_VERSION = "1"
GRID_CACHE_SIZE = 64  # grids whose text is kept, about 12 KB each at 513 cells


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
    import json

    return json.dumps(values, separators=(",", ":"))[1:-1].split(",")


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid_text(stop: float, n: int, precision: int, csv: bool) -> str:
    """The cells of linspace(0, stop, n), joined by ','."""
    import numpy as np

    return ",".join(_format_floats(np.linspace(0.0, stop, n).tolist(), precision, csv))


def _float_array_cells(col, precision: int, csv: bool) -> list[str]:
    """A float array's cells: a uniform grid's from the cache, others once per distinct magnitude.

    Only contiguous float64 columns of more than two cells are tested: the
    library's grids are such columns, and a shorter one costs no more to
    format than to look up.  The test compares int64 views, so a -0.0
    first cell is no grid; stop > 0 keeps 0.0 and -0.0 (equal keys, different text) and NaN (a key
    that never hits) out of the cache.  A dict keyed on the value would
    merge 0.0 with -0.0, so the magnitudes come from np.unique(|col|) and
    the sign from the sign bit; NaN, whatever its sign bit, is written
    unsigned, as the formatters write it.
    """
    import numpy as np  # an array's module, so already loaded

    n = col.size
    if n > 2 and col.dtype == np.float64 and col.flags.c_contiguous:
        stop = float(col[-1])
        if 0.0 < stop < math.inf and np.array_equal(
            col.view(np.int64), np.linspace(0.0, stop, n).view(np.int64)
        ):
            return _grid_text(stop, n, precision, csv).split(",")
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
    if csv:
        return list(map(str, values))
    import json

    return list(map(json.dumps, values))


def _csv_text(metadata, columns, precision) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value, precision)
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*columns.values())))
    return "\n".join(lines) + "\n"


def _json_list(cells: list[str]) -> str:
    """Cell texts laid out as json.dump(..., indent=1) lays out a list two levels deep."""
    if not cells:
        return "[]"
    return "[\n   " + ",\n   ".join(cells) + "\n  ]"


def _json_text(metadata, columns, precision) -> str:
    import json

    header = json.dumps({"schema_version": SCHEMA_VERSION, "metadata": dict(metadata)}, indent=1)
    samples = ",\n".join(f"  {json.dumps(name)}: {_json_list(cells)}" for name, cells in columns.items())
    # the header's closing "\n}" makes way for the samples object
    return header[:-2] + f',\n "samples": {{\n{samples}\n }}\n}}\n'


def write_table(
    path: str | None,
    metadata: Mapping[str, object],
    columns: Mapping[str, Sequence],
    fmt: str = "csv",
    precision: int = 17,
) -> None:
    """Write a metadata + columns table to ``path`` (stdout when None).

    Columns are numpy arrays or plain sequences; both give the same bytes
    for the same values.  A float64 array that is a uniform grid from 0
    (see the module docstring) takes its text from a per-process cache of
    at most ``GRID_CACHE_SIZE`` grids.  The whole text is rendered before
    ``path`` is opened, and written in one call, so any error in it, such
    as ValueError for a table without columns or with columns of different
    lengths, or a metadata value that cannot be rendered, leaves an
    existing file as it was and creates none.
    """
    cols = {name: _cells(col, precision, fmt == "csv") for name, col in columns.items()}
    lengths = {len(cells) for cells in cols.values()}
    if not lengths:
        raise ValueError("a table needs at least one column")
    if len(lengths) > 1:
        raise ValueError(f"all columns must have the same length, got lengths {sorted(lengths)}")
    text = (_csv_text if fmt == "csv" else _json_text)(metadata, cols, precision)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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
    import json

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
