#!/usr/bin/env python3
"""Run both committed convergence studies and print the gating slopes.

Equivalent to:

    pfconv converge --config configs/acceptance_mse.cfg
    pfconv converge --config configs/acceptance_l4.cfg

then reading the t = 11 rate fits out of the JSON reports.  Run from the
repository root.

With --check the reports go to a temporary directory instead, and
report.csv, report.json and report.svg are compared byte for byte with
the committed out/{mse,l4}/ files; only the output paths echoed in the
JSON config are normalized.  The exit status is 1 when a file differs.
Each differing file is named with how many of its numbers differ, the
largest relative difference among them, and the first line whose other
text differs.
"""

import argparse
import json
import pathlib
import re
import sys
import tempfile
from itertools import zip_longest

from pfconv.cli import cli_dispatch

ROOT = pathlib.Path(__file__).resolve().parent.parent
STUDIES = (("acceptance_mse", 2, (-1.35, -0.70)),
           ("acceptance_l4", 4, (-2.5, -1.4)))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def describe_difference(fresh: str, committed: str) -> str:
    """How a fresh text file differs from the committed one: the numbers
    that differ and their largest relative difference, then the first line
    whose text around the numbers differs."""
    new, old = NUMBER.findall(fresh), NUMBER.findall(committed)
    how = []
    if len(new) != len(old):
        how.append(f"{len(new)} numbers against {len(old)} committed")
    else:
        pairs = [(float(a), float(b)) for a, b in zip(new, old) if a != b]
        if pairs:
            rel = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0  # "0" vs "-0.0"
                      for a, b in pairs)
            how.append(f"{len(pairs)} of {len(new)} numbers differ, "
                       f"by at most {rel:.2g} relative")
    lines = zip_longest(NUMBER.sub("#", fresh).splitlines(),
                        NUMBER.sub("#", committed).splitlines())
    for k, (a, b) in enumerate(lines, 1):
        if a != b:
            how.append(f"other text differs first at line {k}: {a!r}, committed {b!r}")
            break
    return "; ".join(how) or "the same numbers and text, other bytes differ"


def print_differences(files) -> int:
    """Print each (name, fresh bytes, committed bytes) whose two versions
    differ, with how (a missing file is None); return how many differ."""
    differs = 0
    for name, fresh, committed in files:
        if fresh == committed:
            continue
        differs += 1
        if fresh is None or committed is None:
            how = "no fresh file" if fresh is None else "no committed file"
        else:
            how = describe_difference(fresh.decode(), committed.decode())
        print(f"differs from the committed file: {name}: {how}")
    return differs


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


def compare_reports(out: pathlib.Path, committed: pathlib.Path) -> int:
    """Print how each report under out/<label>/ differs from committed/<label>/;
    return how many differ.  The paths echoed in the JSON become "out"."""
    return print_differences(
        (f"out/{label}/{fname}",
         (out / label / fname).read_bytes().replace(str(out).encode(), b"out"),
         (committed / label / fname).read_bytes())
        for label in (name.split("_")[1] for name, _, _ in STUDIES)
        for fname in ("report.csv", "report.json", "report.svg"))


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        code = run_studies(out)
        if code != 0:
            return code
        differs = compare_reports(out, ROOT / "out")
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
