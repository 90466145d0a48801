#!/usr/bin/env python3
"""Time two checkouts of this repository with the benchmark, in alternating pairs.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload filter_large_n \\
        [--seed 7] [--pairs 10]

PARENT and CHANGE are the roots of two checkouts (say, a `git archive`
of the parent commit and the working tree).  ``--workload all`` runs the
pairs of every workload of the parent's `BENCHMARK.json` in turn, in its
order, and prints one table per workload.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, with the checkout as the working directory, so
each side benchmarks its own sources with its own unmodified
`perfbench/`.  Pair i runs the parent first when i is even and the change
first when i is odd.  T is the `run_seconds` of the parent's
`BENCHMARK.json`, the only file of the checkouts this script reads; the
metrics, their direction and their bounds come from its `end_to_end`
list.

For every metric it prints each side's median and quartiles (the
`statistics.quantiles` default, exclusive method), how many pairs the
change wins (a tie counts for neither side), and two verdicts:

* the claim rule: the change wins at least 9 in 10 of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile range, and by more than a tenth of the metric's `bound`
  as a share of the parent's median (so a peak RSS with a bound of 0.1
  must gain more than 1%, however little its parent runs spread);
* the bound: the relative change of the median, read against the
  metric's `bound` as a fraction of the parent's median (a bound of 0.25
  allows the change's median to be 25% worse).  A metric worse beyond
  its bound is flagged.  A metric is marked unresolved, since the runs
  spread too widely to tell, when it is worse and its quartile ranges
  overlap, or when the parent's interquartile range is wider than the
  bound (as a fraction of the parent's median) and not every change run
  beats every parent run.

Every run must report `"correct": true` and no failed run.  The exit
status is 1 when a metric of any workload is flagged or a run is not
correct or failed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

CLAIM_SHARE = 0.9  # the share of pairs the change must win to claim a gain
CLAIM_FLOOR = 0.1  # a claimed gain exceeds this share of the bound, of the parent's median


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` invocation in the checkout: its
    result line (the last line of its stdout) as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited with "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per metric of BENCHMARK.json's ``end_to_end`` list, from the
    result lines of paired runs (``parent[i]`` and ``change[i]`` are
    pair i)."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need paired runs, got {len(parent)} and {len(change)}")
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum(y < x if lower else y > x for x, y in zip(a, b))
        losses = sum(y > x if lower else y < x for x, y in zip(a, b))
        (pa1, pa2, pa3), (pb1, pb2, pb3) = quartiles(a), quartiles(b)
        gain = pa2 - pb2 if lower else pb2 - pa2  # > 0 when the change is better
        worse = -gain / abs(pa2) if pa2 else (math.inf if gain < 0 else 0.0)
        overlap = pb1 <= pa3 and pa1 <= pb3
        spread = (pa3 - pa1) / abs(pa2) if pa2 else math.inf
        separated = max(b) < min(a) if lower else min(b) > max(a)
        rows.append({
            "metric": name, "better": spec["better"], "bound": spec["bound"],
            "parent": (pa1, pa2, pa3), "change": (pb1, pb2, pb3),
            "relative_change": (pb2 - pa2) / pa2 if pa2 else math.nan,
            "spread": spread,
            "wins": wins, "losses": losses, "pairs": len(a),
            "better_median": gain > 0,
            "claim_met": wins >= CLAIM_SHARE * len(a)
            and gain > max(pa3 - pa1, CLAIM_FLOOR * spec["bound"] * abs(pa2)),
            "beyond_bound": worse > spec["bound"],
            "unresolved": (gain < 0 and overlap) or (spread > spec["bound"] and not separated),
        })
    return rows


def verdict(row: dict) -> str:
    if row["beyond_bound"]:
        text = f"WORSE BEYOND THE {row['bound']:.0%} BOUND"
    elif row["claim_met"]:
        text = "gain: claim rule met"
    elif row["better_median"]:
        text = "better, claim rule not met"
    elif row["relative_change"] == 0:
        text = "no change"
    else:
        text = "worse within bound"
    if row["unresolved"]:
        text += (", unresolved (parent IQR wider than the bound)"
                 if row["spread"] > row["bound"] else ", unresolved (quartile ranges overlap)")
    return text


def report(workload: str, parent: list[dict], change: list[dict], rows: list[dict]) -> bool:
    """Print the summary; return whether every run is correct, no run failed
    and no metric is worse beyond its bound."""
    ok = True
    for side, results in (("parent", parent), ("change", change)):
        correct = sum(bool(r["correct"]) for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload} {side}: {correct}/{len(results)} invocations correct, "
              f"{failed} of {attempted} runs failed")
        ok &= correct == len(results) and failed == 0
    print(f"{'metric':<22}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'change':>9}{'wins':>7}  verdict")
    for row in rows:
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (row["parent"], row["change"])]
        print(f"{row['metric']:<22}{cells[0]:>34}{cells[1]:>34}"
              f"{row['relative_change']:>+9.1%}{row['wins']:>4}/{row['pairs']:<2}  "
              f"{verdict(row)}")
        ok &= not row["beyond_bound"]
    print(f"claim rule: the change wins at least {CLAIM_SHARE:.0%} of the pairs (ties "
          f"count for neither) and its median is better by more than the parent's IQR "
          f"and by more than {CLAIM_FLOOR:g} of the metric's bound, as a share of the "
          f"parent's median")
    return ok


def run_pairs(parent: pathlib.Path, change: pathlib.Path, workload: str, seed: int,
              pairs: int, seconds: float) -> tuple[list[dict], list[dict]]:
    """The result lines of the parent's and the change's runs of the
    workload, in alternating pairs."""
    sides = {"parent": [], "change": []}
    checkouts = {"parent": parent, "change": change}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(checkouts[side], workload, seed, seconds)
            sides[side].append(result)
            print(f"{workload} pair {i + 1} {side}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return sides["parent"], sides["change"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="root of the parent checkout")
    parser.add_argument("change", type=pathlib.Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True,
                        help="a workload of the parent's BENCHMARK.json, or all of them")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" \
        else [args.workload]
    ok = True
    for workload in workloads:
        parent, change = run_pairs(args.parent, args.change, workload, args.seed,
                                   args.pairs, spec["run_seconds"])
        ok &= report(workload, parent, change,
                     summarize(spec["end_to_end"], parent, change))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
