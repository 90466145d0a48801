#!/usr/bin/env python3
"""Layered benchmark of pfconv.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each measured run of a workload is a
fresh interpreter (`worker.py`); this script starts measured runs, each
after a set-up probe, until `--seconds` have passed and at least three
have run, and prints medians.  The last stdout line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`.  A traced run alternates untraced and traced measured runs
(at least one of each), so `trace.overhead_s` compares the two.

Workloads, metrics and what each layer metric should move are described
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("study_mse", "study_small_n", "filter_large_n", "oracle_grid")
MIN_RUNS = 3  # so that the median can reject one disturbed run
RUN_LIMIT_S = 170.0  # every run of this script must end within 180 s

# ROADMAP item 1 hand baselines, compared in the traced run of study_mse
BASELINES = {
    "convergence.cell_ms.N128.p50": 7.1,
    "convergence.cell_ms.N512.p50": 7.1,
    "convergence.cell_ms.N2048.p50": 10.4,
    "convergence.cell_ms.N8192.p50": 30.0,
    "gridfilter.run_s.n3000": 0.44,
    "gridfilter.run_s.n6000": 1.74,
}
BASELINE_PEAK_RSS_MB = 580.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def spawn(argv: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group; return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, WORKER, *argv, "--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measured run exceeded the time limit: {' '.join(argv)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(argv)}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(runs: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "particle_steps_per_s": statistics.median(r["points"] / r["wall_s"] for r in runs),
    }


def per_layer(plain: list[dict], traced: list[dict], names: list[str],
              attempted: int, failed: int) -> dict[str, float]:
    values = {}
    for name in names:
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        values[name] = statistics.median(samples) if samples else 0.0
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    values["error_rate"] = failed / attempted
    return values


def report_baselines(layers: dict[str, float], peak_rss_mb: float) -> None:
    rows = [(name, layers.get(name, 0.0), want) for name, want in BASELINES.items()]
    rows.append(("peak_rss_mb (untraced)", peak_rss_mb, BASELINE_PEAK_RSS_MB))
    for name, got, want in rows:
        ratio = got / want
        flag = "" if 1 / 1.5 <= ratio <= 1.5 else "  <-- differs by more than 1.5x"
        print(f"baseline {name}: measured {got:.4g}, ROADMAP {want:g}, "
              f"ratio {ratio:.2f}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of pfconv.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pfconv", "__init__.py")):
        print(f"error: no pfconv sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.monotonic() + RUN_LIMIT_S

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=work_root)
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--scratch", scratch]
        setups, plain, traced = [], [], []
        start = time.monotonic()
        while True:
            setups.append(spawn(base + ["--setup-only"], deadline)["setup_s"])
            tracing = args.trace == 1 and len(traced) < len(plain)
            result = spawn(base + ["--trace", str(int(tracing))], deadline)
            (traced if tracing else plain).append(result)
            setups.append(result["setup_s"])
            for failure in result["failures"]:
                print(f"FAILED check ({args.workload}, seed {args.seed}): {failure}")
            for gap in result.get("missing", []):
                print(f"trace: missing spans: {gap}")
            if len(plain) + len(traced) >= MIN_RUNS \
                    and time.monotonic() - start >= args.seconds:
                break
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    runs = plain + traced
    attempted = len(runs)
    failed = sum(1 for r in runs if r["failures"])
    print(json.dumps({"environment": runs[0]["env"], "workload": args.workload,
                      "wall_s": [r["wall_s"] for r in plain],
                      "traced_wall_s": [r["wall_s"] for r in traced],
                      "setup_s": setups}))
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(plain, traced, names, attempted, failed)
        if args.workload == "study_mse":
            report_baselines(values, statistics.median(r["peak_rss_mb"] for r in plain))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(runs, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
