"""Table export: exact bytes and re-import."""

import numpy as np

from muskat.export import read_table, write_table

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
