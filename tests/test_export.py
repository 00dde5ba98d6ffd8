"""Table export: exact bytes and re-import."""

import io
import math

import numpy as np
import pytest

import muskat
from muskat import cli, export
from muskat.export import read_table, write_table
from oracles import write_csv_cellwise, write_json_indented

MIXED = {
    "l": np.array([1, 2, 3]),
    "gamma": np.array([1.0, 0.25, 1.0 / 9.0]),
    "flag": np.array([0, 1, 0]),
    "x": np.array([-0.0, 1e-300, 2.5e10]),
}

MIXED_CSV = (
    b"# schema_version=1\n"
    b"# kind=demo\n"
    b"# lambda=5.00000e-01\n"
    b"# l=2\n"
    b"l,gamma,flag,x\n"
    b"1,1.00000e+00,0,-0.00000e+00\n"
    b"2,2.50000e-01,1,1.00000e-300\n"
    b"3,1.11111e-01,0,2.50000e+10\n"
)


def test_csv_bytes_of_mixed_int_and_float_columns(tmp_path):
    path = tmp_path / "mixed.csv"
    write_table(str(path), {"kind": "demo", "lambda": 0.5, "l": 2}, MIXED, precision=6)
    assert path.read_bytes() == MIXED_CSV


def test_csv_round_trip_at_full_precision(tmp_path):
    path = tmp_path / "full.csv"
    write_table(str(path), {"kind": "demo"}, MIXED)
    meta, cols = read_table(str(path))
    assert meta == {"schema_version": 1, "kind": "demo"}
    for name, values in MIXED.items():
        assert np.array_equal(cols[name], values.astype(float))


# -- the writers give the bytes of the cell-by-cell reference writers --------

WRITERS = {"csv": write_csv_cellwise, "json": write_json_indented}

EDGE_FLOATS = [0.5, -0.0, math.nan, math.inf, -math.inf, 1e-300, 2.5e10, 1.0 / 3.0]

EDGE = {
    "f64": np.array(EDGE_FLOATS),
    "f32": np.array(EDGE_FLOATS, dtype=np.float32),
    "int": np.arange(8) - 3,
    "bool": np.arange(8) % 3 == 0,
    "str": np.array(["a, b", 'say "hi"', "", "x", "-0.0", "nan", "1e5", "z"]),
}
EDGE_META = {"kind": "demo", "lambda": 0.5, "l": 2, "gap": math.nan, "note": 'a, "b"', "flag": True}
EMPTY = {"x": np.array([]), "s": np.array([], dtype=str)}
MIRRORED = EDGE_FLOATS + [-v for v in EDGE_FLOATS]  # +-0.0, +-nan, +-inf, each magnitude twice
MIRRORED_TABLE = {"f64": np.array(MIRRORED), "f32": np.array(MIRRORED, dtype=np.float32), "l": np.arange(16)}
DISTINCT = {"x": np.array([0.5, -0.25, -0.0, math.nan, -math.inf, 1e-300, -2.5e10, 1.0 / 3.0])}


def _same_bytes(tmp_path, fmt, metadata, columns, precision=17):
    path = tmp_path / f"table.{fmt}"
    write_table(str(path), metadata, columns, fmt=fmt, precision=precision)
    ref = io.StringIO()
    WRITERS[fmt](ref, metadata, columns, precision)
    assert path.read_bytes() == ref.getvalue().encode("utf-8")


@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "columns",
    [EDGE, MIRRORED_TABLE, DISTINCT, EMPTY, {"x": np.array(2.5)}],
    ids=["edge", "mirrored", "distinct", "empty", "scalar"],
)
def test_writer_bytes_of_mixed_tables(tmp_path, fmt, columns, precision):
    _same_bytes(tmp_path, fmt, EDGE_META, columns, precision)
    _same_bytes(tmp_path, fmt, {}, columns, precision)


def test_writers_reject_empty_and_ragged_tables(tmp_path):
    # the columns are checked before the file is opened, in both formats
    ragged = {"x": np.array([1.5, 2.0]), "e": np.array([]), "l": [1, 2, 3]}
    for fmt in ("csv", "json"):
        path = tmp_path / f"t.{fmt}"
        with pytest.raises(ValueError, match="at least one column"):
            write_table(str(path), EDGE_META, {}, fmt=fmt)
        with pytest.raises(ValueError, match=r"same length, got lengths \[0, 2, 3\]"):
            write_table(str(path), EDGE_META, ragged, fmt=fmt)
        assert not path.exists()


def test_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="same length"):
        write_table(str(path), {}, {"x": np.array([1.0, 2.0]), "e": np.array([])})
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--lambda", "0.5", "--l", "2", "--h", "5", "--parity", "even", "--sign", "minus"],
        ["branch", "--h", "5", "--l", "2", "--n", "25"],
        ["coexist", "--h", "0.5", "--l-max", "5"],
    ],
    ids=["profile", "branch", "coexist"],
)
def test_writer_bytes_of_cli_tables(tmp_path, monkeypatch, argv):
    seen = []  # the (metadata, columns) the command hands to write_table
    monkeypatch.setattr(cli, "write_table", lambda path, metadata, columns, **kw: seen.append((metadata, columns)))
    assert cli.main(argv) == 0
    (metadata, columns), = seen
    for fmt in ("csv", "json"):
        for precision in (6, 17):
            _same_bytes(tmp_path, fmt, metadata, columns, precision)


def test_writer_bytes_of_an_exported_profile(tmp_path):
    prof = muskat.negate_profile(muskat.translate_even(muskat.scale_profile(muskat.profile_at(0.37), 3), 3))
    columns = {"x": prof.x, "f": prof.f, "f_prime": prof.f_prime}
    assert prof.x.size == 513
    for fmt in ("csv", "json"):
        _same_bytes(tmp_path, fmt, {"lambda": prof.lam, "alpha": prof.alpha, "parity": prof.parity}, columns)


# -- one format per distinct magnitude, bytes unchanged -----------------------


def test_profile_columns_are_formatted_once_per_magnitude(tmp_path, monkeypatch):
    # f and f' of an exported profile are signed copies of 129 quarter
    # values, so 513 x + 129 + 129 floats are formatted instead of 3 * 513
    prof = muskat.negate_profile(muskat.translate_even(muskat.profile_at(0.5), 1))
    columns = {"x": prof.x, "f": prof.f, "f_prime": prof.f_prime}
    formatted = []
    format_floats = export._format_floats
    monkeypatch.setattr(
        export, "_format_floats", lambda values, *args: formatted.append(len(values)) or format_floats(values, *args)
    )
    for fmt in ("csv", "json"):
        formatted.clear()
        _same_bytes(tmp_path, fmt, {"lambda": prof.lam}, columns)
        assert formatted == [513, 129, 129]


# -- plain lists give the bytes of the arrays they came from -----------------

LIST_SOURCES = [
    {"f": np.array([0.5, -0.0, math.nan, math.inf, -math.inf, 1e-300, 2.5e10, 1.0 / 3.0]), "l": np.arange(8) - 3},
    {"f": np.array(MIRRORED), "l": np.arange(16)},
    {"f": np.array([]), "l": np.array([], dtype=int)},
]


@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("arrays", LIST_SOURCES, ids=["values", "mirrored", "empty"])
def test_plain_lists_give_the_bytes_of_arrays(tmp_path, fmt, precision, arrays):
    written = []
    for kind, columns in [
        ("arrays", arrays),
        ("lists", {name: col.tolist() for name, col in arrays.items()}),
        ("tuples", {name: tuple(col.tolist()) for name, col in arrays.items()}),
    ]:
        path = tmp_path / f"{kind}.{fmt}"
        write_table(str(path), EDGE_META, columns, fmt=fmt, precision=precision)
        written.append(path.read_bytes())
    assert written[1] == written[0]
    assert written[2] == written[0]
