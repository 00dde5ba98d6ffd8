"""The experiment scripts run end to end on small grids."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import muskat
from muskat.export import read_table

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args, cwd):
    path = [os.path.dirname(muskat.__path__[0]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "name,args,outputs",
    [
        ("branch_portrait.py", ["--h", "5", "--modes", "2", "--n", "5", "--outdir", "out"],
         ["out/branch_l1.csv", "out/branch_l2.csv", "out/coexist.csv"]),
        ("blowup_study.py", ["--n", "5"], []),
        ("pendulum_correspondence.py", ["--n-grid", "3", "--out", "map.csv"], ["map.csv"]),
    ],
)
def test_script_runs(tmp_path, name, args, outputs):
    proc = _run(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for out in outputs:
        meta, cols = read_table(str(tmp_path / out))
        assert all(len(v) for v in cols.values()), out
