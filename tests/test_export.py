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


class _Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


@pytest.mark.parametrize(
    "fmt, metadata, error",
    [("json", {"n": np.int64(3)}, TypeError), ("csv", {"n": _Unprintable()}, RuntimeError)],
    ids=["json-int64", "csv-str-raises"],
)
def test_a_refused_write_leaves_the_file_it_would_replace(tmp_path, fmt, metadata, error):
    # the metadata is rendered with the columns, before the file is opened:
    # a write that fails there truncated the old file (to 0 bytes in JSON,
    # to the schema line in CSV)
    old = tmp_path / f"old.{fmt}"
    write_table(str(old), {"kind": "old"}, {"x": [0.5]}, fmt=fmt)
    before = old.read_bytes()
    new = tmp_path / f"new.{fmt}"
    for path in (old, new):
        with pytest.raises(error):
            write_table(str(path), metadata, {"x": [1.0, 2.0]}, fmt=fmt)
    assert old.read_bytes() == before
    assert not new.exists()


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
    # values, so 513 x + 129 + 129 floats are formatted instead of 3 * 513;
    # the x grid is formatted on the first write only, and profiles at
    # other lambdas share it when their period is the same float
    profiles = [muskat.negate_profile(muskat.translate_even(muskat.profile_at(lam), 1)) for lam in (0.5, 0.3)]
    assert profiles[0].x.tobytes() == profiles[1].x.tobytes()
    formatted = []
    format_floats = export._format_floats
    monkeypatch.setattr(
        export, "_format_floats", lambda values, *args: formatted.append(len(values)) or format_floats(values, *args)
    )
    export._grid_text.cache_clear()
    for fmt in ("csv", "json"):
        for prof, expected in zip([profiles[0], *profiles], ([513, 129, 129], [129, 129], [129, 129])):
            formatted.clear()
            columns = {"x": prof.x, "f": prof.f, "f_prime": prof.f_prime}
            _same_bytes(tmp_path, fmt, {"lambda": prof.lam}, columns)
            assert formatted == expected


# -- a uniform grid is formatted once per process, bytes unchanged ------------

TWO_PI = 2.0 * math.pi
GRID_STOPS = [TWO_PI, math.nextafter(TWO_PI, 0.0), math.nextafter(TWO_PI, 7.0), TWO_PI / 3.0, 1e-300, 1e300]


def _grid_calls():
    info = export._grid_text.cache_info()
    return info.hits, info.misses


@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [3, 5, 513])
@pytest.mark.parametrize("stop", GRID_STOPS, ids=["2pi", "2pi-ulp", "2pi+ulp", "2pi/3", "1e-300", "1e300"])
def test_grid_bytes_on_cache_miss_and_hit(tmp_path, fmt, precision, n, stop):
    columns = {"x": np.linspace(0.0, stop, n), "l": np.arange(n)}
    export._grid_text.cache_clear()
    _same_bytes(tmp_path, fmt, EDGE_META, columns, precision)
    assert _grid_calls() == (0, 1)
    _same_bytes(tmp_path, fmt, EDGE_META, columns, precision)
    assert _grid_calls() == (1, 1)


def test_grid_text_is_kept_per_format_and_precision(tmp_path):
    columns = {"x": np.linspace(0.0, TWO_PI, 5)}
    export._grid_text.cache_clear()
    for _ in range(2):
        for fmt in ("csv", "json"):
            for precision in (6, 17):
                _same_bytes(tmp_path, fmt, {}, columns, precision)
    assert _grid_calls() == (4, 4)


def _moved_middle_cell():
    x = np.linspace(0.0, TWO_PI, 513)
    x[256] = math.nextafter(x[256], 7.0)
    return x


NEAR_GRIDS = {
    "minus-zero-first": np.concatenate([[-0.0], np.linspace(0.0, TWO_PI, 513)[1:]]),
    "middle-cell-1ulp": _moved_middle_cell(),
    "float32": np.linspace(0.0, TWO_PI, 513, dtype=np.float32),
    "byte-swapped": np.linspace(0.0, TWO_PI, 513).astype(np.dtype(np.float64).newbyteorder()),
    "strided": np.linspace(0.0, TWO_PI, 1025)[::2],
    "decreasing": np.linspace(0.0, TWO_PI, 513)[::-1],
    "decreasing-from-0": np.linspace(0.0, -TWO_PI, 513),
    "n1": np.linspace(0.0, TWO_PI, 1),
    "n2": np.linspace(0.0, TWO_PI, 2),
    "zero-stop": np.linspace(0.0, 0.0, 5),
    "minus-zero-stop": np.linspace(0.0, -0.0, 5),
    "nan-stop": np.linspace(0.0, math.nan, 5),
}
with np.errstate(invalid="ignore"):  # 0 * inf in the first cell
    NEAR_GRIDS["inf-stop"] = np.linspace(0.0, math.inf, 5)


@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(NEAR_GRIDS))
def test_near_grids_take_the_magnitude_path(tmp_path, fmt, precision, name):
    columns = {"x": NEAR_GRIDS[name]}
    before = _grid_calls()
    _same_bytes(tmp_path, fmt, EDGE_META, columns, precision)
    assert _grid_calls() == before


def test_grid_cache_is_bounded(tmp_path):
    path = str(tmp_path / "grid.csv")
    export._grid_text.cache_clear()
    for k in range(200):
        write_table(path, {}, {"x": np.linspace(0.0, 1.0 + k, 9)})
    info = export._grid_text.cache_info()
    assert info.misses == 200
    assert info.maxsize == export.GRID_CACHE_SIZE
    assert info.currsize <= info.maxsize


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
