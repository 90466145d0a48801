#!/usr/bin/env python3
"""Produce the qualitative figure artifacts.

* a 50-step simulated intensity trajectory with its counts,
* grid-filter and particle-filter state estimates over those 50 steps,
* the t = 11 filtering-density histogram overlay on the committed
  12-step fixture (the singular zero-count step).

Everything lands under out/figures/.  Run from the repository root.

With --check the files go to a temporary directory instead and are
compared byte for byte with the committed out/figures/ files.  The exit
status is 1 when a file differs.  Each differing file is named with how
many of its numbers differ, the largest relative difference among them,
and the first line whose other text differs.
"""

import argparse
import pathlib
import sys
import tempfile

from pfconv.cli import cli_dispatch
from run_acceptance_studies import print_differences

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "out" / "figures"
FIXTURE = ROOT / "fixtures" / "cox_obs_t12.csv"


def make_figures(out: pathlib.Path) -> int:
    """Write every figure file into ``out``; returns the first failing exit status."""
    out.mkdir(parents=True, exist_ok=True)
    steps = [
        ["simulate", "--c", "0.5", "--eta", "0.1", "--steps", "50", "--seed", "54",
         "--out", str(out / "obs_t50.csv"), "--states-out", str(out / "states_t50.csv")],
        ["grid", "--observations", str(out / "obs_t50.csv"),
         "--out", str(out / "grid_t50.csv")],
        ["filter", "--observations", str(out / "obs_t50.csv"), "--n", "10000",
         "--seed", "7", "--alpha", "1.5", "--beta", "0.5",
         "--out", str(out / "filter_t50.csv")],
        ["filter", "--observations", str(FIXTURE), "--n", "10000", "--seed", "7",
         "--alpha", "1.5", "--beta", "0.5", "--out", str(out / "filter_t12.csv"),
         "--svg", str(out / "hist_t11.svg")],
    ]
    for argv in steps:
        code = cli_dispatch(argv)
        if code != 0:
            return code
    return 0


def compare_figures(out: pathlib.Path, committed: pathlib.Path) -> int:
    """Print how each file of out/ differs from committed/, a file that only
    one of them holds included; return how many differ."""
    def read(path):
        return path.read_bytes() if path.is_file() else None

    names = sorted({p.name for p in out.iterdir()} | {p.name for p in committed.iterdir()})
    return print_differences((f"out/figures/{name}", read(out / name), read(committed / name))
                             for name in names)


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        code = make_figures(out)
        if code != 0:
            return code
        differs = compare_figures(out, OUT)
    if not differs:
        print("figure files match the committed out/figures/ files byte for byte")
    return 1 if differs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh figure files with the committed out/figures/")
    args = parser.parse_args()
    if args.check:
        return check()
    code = make_figures(OUT)
    if code == 0:
        print(f"figure data in {OUT}")
    return code


if __name__ == "__main__":
    sys.exit(main())
