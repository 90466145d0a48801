"""Per-layer spans and counters, recorded from outside the package.

`install` replaces the public functions of each `pfconv` module with
timing wrappers under the names their callers look up (for example
`pfconv.engine.normalize`, which `filter_step` resolves at call time),
and `uninstall` puts the originals back.  No file of the package is
changed.

Spans are aggregated in memory as they close: for every span name the
trace keeps the call count, the total time and the self time (the span's
duration minus the part covered by traced spans nested in it).  Step and
cell durations are also kept one by one, for percentiles.

Pool workers forked by a study inherit the wrappers.  The first cell a
worker runs drops the aggregates it inherited from its parent, and every
cell appends what it recorded as one JSON line to a spool file, which
the parent merges after the study (`merge_spool`).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Trace:
    """Aggregated spans and counters of one process."""

    def __init__(self, spool_dir: str | None = None):
        self.spool_dir = spool_dir
        self.parent = self.owner = os.getpid()
        self.worker_cells = 0
        self.clear()

    def clear(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[float] = []

    def wrap(self, name, fn, after=None, sample=False):
        """Time every call of fn as span `name`; `after(args, kwargs,
        result, seconds)` may add counters once the call returns."""
        def traced(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += seconds
                self.calls[name] += 1
                self.total[name] += seconds
                self.self_time[name] += seconds - nested
                if sample:
                    self.samples[name].append(seconds)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def merge(self, data: dict) -> None:
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["total"].items():
            self.total[key] += value
        for key, value in data["self"].items():
            self.self_time[key] += value
        for key, value in data["counts"].items():
            self.counts[key] += value
        for key, values in data["samples"].items():
            self.samples[key].extend(values)

    # -- pool workers -------------------------------------------------

    def enter_cell(self) -> None:
        """Called at the start of every study cell."""
        pid = os.getpid()
        if pid != self.owner:  # first cell in a forked worker
            self.owner = pid
            self.clear()

    def leave_cell(self) -> None:
        """Called at the end of every study cell: a forked worker spools
        what the cell recorded."""
        if self.owner == self.parent or self.spool_dir is None:
            return
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.dump()) + "\n")
        self.clear()

    def merge_spool(self) -> None:
        """Fold in every line the pool workers wrote, then remove them."""
        if self.spool_dir is None:
            return
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                for line in fh:
                    self.merge(json.loads(line))
                    self.worker_cells += 1
            os.remove(path)


def _arg(fn, args, kwargs, name):
    """The value a call binds to parameter `name`, defaults applied."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    bound.apply_defaults()
    return bound.arguments.get(name)


class Hooks:
    """Patched attributes, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, owner, attr: str, make):
        """Replace owner.attr by make(original); record it when absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch_item(self, mapping: dict, key, value) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def install_guard(trace: Trace, hooks: Hooks, timed: bool) -> None:
    """Hook the oracle entry points: cache-hit guard, and when `timed`
    the `gridfilter.run` span with per-size durations."""
    from pfconv import convergence, gridfilter

    def make(fn):
        def after(args, kwargs, result, seconds):
            n_cells = _arg(fn, args, kwargs, "n_cells")
            if n_cells is not None:
                trace.samples[f"gridfilter.run.n{int(n_cells)}"].append(seconds)

        timed_fn = trace.wrap("gridfilter.run", fn, after) if timed else fn

        def run(*args, **kwargs):
            cache = getattr(gridfilter, "_RUN_CACHE", None)
            cached = {id(v) for v in cache.values()} if cache else set()
            result = timed_fn(*args, **kwargs)
            trace.counts["gridfilter.cache_hits"] += id(result) in cached
            return result

        run.__wrapped__ = fn
        return run

    hooks.patch(gridfilter, "run_cox_grid_filter", make)
    hooks.patch(convergence, "run_cox_grid_filter", make)


def install(trace: Trace, hooks: Hooks) -> None:
    """Wrap every traced layer of the package."""
    from pfconv import convergence, cox, engine, gridfilter, particles, report, \
        resampling, rng

    install_guard(trace, hooks, timed=True)

    # rng: count and time only the generator builds, not cached reads
    def make_gen(prop):
        build = trace.wrap("rng.generator_build", prop.fget)

        def gen(self):
            cached = getattr(self, "_gen", None)
            return cached if cached is not None else build(self)

        return property(gen)

    hooks.patch(rng.RngStream, "gen", make_gen)
    hooks.patch(particles.WeightedParticleSet, "__post_init__",
                lambda fn: trace.wrap("particles.validate", fn))

    def count_particles(args, kwargs, result, seconds):
        state = args[0] if args else kwargs.get("state")
        trace.counts["engine.particle_steps"] += len(state.particles)

    hooks.patch(engine, "filter_step",
                lambda fn: trace.wrap("engine.filter_step", fn, count_particles,
                                      sample=True))
    for attr, name in (("propose_and_weight", "engine.propose_and_weight"),
                       ("normalize", "engine.normalize"),
                       ("estimate", "engine.estimate"),
                       ("ess", "moments.ess"),
                       ("apply_counts", "resampling.apply_counts")):
        hooks.patch(engine, attr, lambda fn, name=name: trace.wrap(name, fn))
    for attr, name in (("gamma_propose", "cox.gamma_propose"),
                       ("gamma_logdensity", "cox.gamma_logdensity"),
                       ("cox_transition_logdensity", "cox.transition_logdensity"),
                       ("cox_likelihood_logdensity", "cox.likelihood_logdensity")):
        hooks.patch(cox, attr, lambda fn, name=name: trace.wrap(name, fn))
    for key, scheme in list(resampling.SCHEMES.items()):
        hooks.patch_item(resampling.SCHEMES, key, dataclasses.replace(
            scheme, resample=trace.wrap("resampling.resample", scheme.resample)))

    def count_flops(args, kwargs, result, seconds):
        n = args[0].n_cells if args else kwargs["grid"].n_cells
        trace.counts["gridfilter.predict_flops"] += 2 * n * n

    hooks.patch(gridfilter, "grid_predict",
                lambda fn: trace.wrap("gridfilter.predict", fn, count_flops))

    def count_kernel(fn):  # counted, not timed: its time stays run self time
        def kernel(mids, *args, **kwargs):
            trace.counts["gridfilter.kernel_bytes"] += 8 * len(mids) ** 2
            return fn(mids, *args, **kwargs)
        return kernel

    hooks.patch(gridfilter, "_cox_transition_kernel", count_kernel)

    hooks.patch(convergence, "run_convergence_study",
                lambda fn: trace.wrap("convergence.study", fn))
    hooks.patch(convergence, "_oracle_tables",
                lambda fn: trace.wrap("convergence.oracle", fn))

    def make_cell(fn):
        def after(args, kwargs, result, seconds):
            task = args[0]
            n = task[0].particle_counts[task[2]]
            trace.samples[f"convergence.cell.N{n}"].append(seconds)

        timed_cell = trace.wrap("convergence.cell", fn, after)

        def cell(*args, **kwargs):
            trace.enter_cell()
            result = timed_cell(*args, **kwargs)
            trace.leave_cell()
            return result

        cell.__name__, cell.__qualname__ = fn.__name__, fn.__qualname__
        cell.__module__ = fn.__module__
        return cell

    hooks.patch(convergence, "_study_cell", make_cell)

    def count_bytes(args, kwargs, result, seconds):
        path = args[2] if len(args) > 2 else kwargs["path"]
        trace.counts["report.bytes"] += os.path.getsize(path)

    hooks.patch(report, "emit_report",
                lambda fn: trace.wrap("report.emit", fn, count_bytes))


def _percentile_ms(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def per_layer(trace: Trace, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced run; `*_s` layer times are self
    times unless the name says `run` (a whole oracle run)."""
    total, self_time, counts, samples = (trace.total, trace.self_time,
                                         trace.counts, trace.samples)
    out = {
        "rng.generators_built": trace.calls["rng.generator_build"],
        "rng.generator_build_s": total["rng.generator_build"],
        "particles.sets_built": trace.calls["particles.validate"],
        "particles.validate_s": total["particles.validate"],
        "engine.steps": trace.calls["engine.filter_step"],
        "engine.particle_steps": counts["engine.particle_steps"],
        "engine.filter_step_self_s": self_time["engine.filter_step"],
        "engine.filter_step_ms.p50": _percentile_ms(samples["engine.filter_step"], 50),
        "engine.filter_step_ms.p90": _percentile_ms(samples["engine.filter_step"], 90),
        "gridfilter.run_s": total["gridfilter.run"],
        "gridfilter.predict_s": total["gridfilter.predict"],
        "gridfilter.run_self_s": self_time["gridfilter.run"],
        "gridfilter.cache_hits": counts["gridfilter.cache_hits"],
        "gridfilter.kernel_bytes": counts["gridfilter.kernel_bytes"],
        "gridfilter.predict_flops": counts["gridfilter.predict_flops"],
        "convergence.oracle_s": total["convergence.oracle"],
        "convergence.cells": trace.calls["convergence.cell"],
        "convergence.study_self_s": self_time["convergence.study"],
        "report.emit_s": total["report.emit"],
        "report.bytes": counts["report.bytes"],
    }
    for name in ("engine.propose_and_weight", "engine.normalize", "engine.estimate",
                 "moments.ess", "cox.gamma_propose", "cox.gamma_logdensity",
                 "cox.transition_logdensity", "cox.likelihood_logdensity",
                 "resampling.resample", "resampling.apply_counts"):
        out[f"{name}_s"] = self_time[name]
    for key, values in list(samples.items()):
        if key.startswith("gridfilter.run.n"):
            out[f"gridfilter.run_s.{key.rsplit('.', 1)[1]}"] = sum(values)
        elif key.startswith("convergence.cell.N"):
            stem = f"convergence.cell_ms.{key.rsplit('.', 1)[1]}"
            out[f"{stem}.p50"] = _percentile_ms(values, 50)
            out[f"{stem}.p90"] = _percentile_ms(values, 90)
    cell_phase = total["convergence.study"] - total["convergence.oracle"]
    out["convergence.worker_busy_fraction"] = (
        total["convergence.cell"] / (workers * cell_phase) if cell_phase > 0 else 0.0)
    return out
