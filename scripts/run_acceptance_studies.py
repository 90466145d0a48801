#!/usr/bin/env python3
"""Run both committed convergence studies and print the gating slopes.

Equivalent to:

    pfconv converge --config configs/acceptance_mse.cfg
    pfconv converge --config configs/acceptance_l4.cfg

then reading the t = 11 rate fits out of the JSON reports.  Run from the
repository root.

With --check the reports go to a temporary directory instead, and
report.csv and report.json are compared byte for byte with the committed
out/{mse,l4}/ files; only the output paths echoed in the JSON config are
normalized.  The exit status is 1 when a file differs, and each
differing file is named.
"""

import argparse
import json
import pathlib
import sys
import tempfile

from pfconv.cli import cli_dispatch

ROOT = pathlib.Path(__file__).resolve().parent.parent
STUDIES = (("acceptance_mse", 2, (-1.35, -0.70)),
           ("acceptance_l4", 4, (-2.5, -1.4)))


def run_studies(out: pathlib.Path | None) -> int:
    """Run each study into out/<label>/ (the config's paths when out is None)."""
    for name, moment, band in STUDIES:
        label = name.split("_")[1]
        argv = ["converge", "--config", str(ROOT / "configs" / f"{name}.cfg")]
        if out is not None:
            argv += [f"--{fmt}={out / label / f'report.{fmt}'}" for fmt in ("csv", "json", "svg")]
        code = cli_dispatch(argv)
        if code != 0:
            return code
        report_dir = (ROOT / "out" if out is None else out) / label
        out_json = json.loads((report_dir / "report.json").read_text())
        fit = next(f for f in out_json["rate_fits"]
                   if f["stage"] == "normalized" and f["t"] == 11
                   and f["moment"] == moment)
        ok = band[0] <= fit["slope"] <= band[1]
        print(f"{name}: slope(t=11, p={moment}) = {fit['slope']:+.3f} "
              f"(target {band}) -> {'ok' if ok else 'OUT OF BAND'}")
        if not ok:
            return 1
    return 0


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        code = run_studies(out)
        if code != 0:
            return code
        differs = []
        for name, _, _ in STUDIES:
            label = name.split("_")[1]
            for fname in ("report.csv", "report.json"):
                fresh = (out / label / fname).read_bytes().replace(str(out).encode(), b"out")
                if fresh != (ROOT / "out" / label / fname).read_bytes():
                    differs.append(f"out/{label}/{fname}")
    for path in differs:
        print(f"differs from the committed file: {path}")
    if not differs:
        print("reports match the committed out/ files byte for byte")
    return 1 if differs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh reports with the committed out/ files")
    args = parser.parse_args()
    return check() if args.check else run_studies(None)


if __name__ == "__main__":
    sys.exit(main())
