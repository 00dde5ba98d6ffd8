#!/usr/bin/env python3
"""Trace the first few bifurcation branches and write one table per mode.

Produces the data behind a bifurcation portrait: ``muskat branch`` for
each mode l (branch_l<l>.csv: gamma, amplitude, slope and the window
endpoints) and ``muskat coexist`` for the gamma windows that consecutive
branches share (coexist.csv).
"""

import argparse
import sys
from pathlib import Path

from muskat import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=5.0, help="cell half-height")
    ap.add_argument("--modes", type=int, default=4, help="number of branches to trace")
    ap.add_argument("--n", type=int, default=80, help="points per branch")
    ap.add_argument("--outdir", default="out_branches", help="output directory")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    h = ["--h", repr(args.h)]
    runs = [(["branch", "--l", str(l), "--n", str(args.n)], outdir / f"branch_l{l}.csv")
            for l in range(1, args.modes + 1)]
    runs.append((["coexist", "--l-max", str(max(2, args.modes))], outdir / "coexist.csv"))
    for argv, path in runs:
        code = cli.main([*argv, *h, "--out", str(path)])
        if code:
            return code
        print(f"{argv[0]} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
