"""Command-line interface.

Subcommands: simulate, filter, grid, moments, converge, check-resampler.
Exit status: 0 on success, 1 on usage errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .convergence import ExperimentConfig, run_convergence_study
from .configfile import KEYS, apply_overrides, flag, int_list, load_config, str_list
from .cox import PROPOSALS, CoxParams, ObservationSeries, make_cox_model_and_proposal, simulate
from .engine import run_filter
from .errors import DomainError, PfconvError
from .gridfilter import grid_cells, run_cox_grid_filter
from .model import make_test_function, make_test_functions
from .moments import MomentCondition, check_cox_moment_condition, \
    quadrature_weight_moment
from .report import _fmt, csv_text, emit_report, histogram_svg_text, write_text
from .resampling import SCHEMES, get_scheme
from .rng import RngStream

_CHOICES = {"proposal": PROPOSALS, "resampler": sorted(SCHEMES)}


def _add_study_flags(p, keys=None, defaults: ExperimentConfig | None = None) -> None:
    """Add the ``converge`` flag of each config key in keys (every key when
    None), in `KEYS` order, into the `ExperimentConfig` field's name, with
    that field of defaults as its default (None without defaults)."""
    for _, key, field, parse in KEYS:
        if keys is None or key in keys:
            p.add_argument(flag(key), dest=field, type=parse, choices=_CHOICES.get(field),
                           default=getattr(defaults, field, None),
                           help=None if defaults is None else "default: %(default)s")


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfconv",
        description="Particle filter with singular importance weights: "
                    "simulation, filtering, oracles, and convergence studies.",
    )
    sub = parser.add_subparsers(dest="command")
    defaults = ExperimentConfig(observations="")

    p = sub.add_parser("simulate", help="simulate a count series from the intensity model")
    _add_study_flags(p, ("c", "eta"), defaults)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="observation CSV path (t,y)")
    p.add_argument("--states-out", help="optional trajectory CSV path (t,x)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter", help="run the particle filter over an observation CSV")
    p.add_argument("--observations", required=True)
    p.add_argument("--n", type=int, default=10000, help="particle count")
    p.add_argument("--seed", type=int, required=True)
    # --dx and --x-max set the --svg overlay's oracle grid
    _add_study_flags(p, ("c", "eta", "kind", "alpha", "beta", "resampler", "dx", "x_max"),
                     defaults)
    p.add_argument("--phi", type=str_list, default=("exp_neg",),
                   help="comma-separated registry test functions")
    p.add_argument("--out", required=True, help="per-step estimate CSV path")
    p.add_argument("--svg", help="optional histogram-vs-grid-density SVG")
    p.add_argument("--hist-step", type=int, default=11)
    p.add_argument("--hist-bins", type=int, default=30)
    p.add_argument("--hist-min", type=float, default=0.0)
    p.add_argument("--hist-max", type=float, default=6.0)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("grid", help="run the dense-grid reference filter")
    p.add_argument("--observations", required=True)
    _add_study_flags(p, ("c", "eta", "dx", "x_max"), defaults)
    p.add_argument("--phi", default="exp_neg")
    p.add_argument("--out", required=True, help="per-step CSV (t,estimate_phi,grid_mean,grid_var)")
    p.add_argument("--density-out", help="optional full density dump CSV (t,x,density)")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("moments", help="weight-moment verdicts for the Gamma proposal")
    p.add_argument("--p", type=int_list, default=(2, 4))
    p.add_argument("--alpha", type=_float_list, default=(1.5,))
    p.add_argument("--beta", type=_float_list, default=(0.5,))
    _add_study_flags(p, ("c", "eta"), defaults)
    p.add_argument("--x-prev", type=float, default=1.0)
    p.add_argument("--level", type=int, default=12, help="quadrature refinement level")
    p.add_argument("--json", dest="json_out", help="optional JSON output path")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("converge", help="run a convergence-rate study")
    p.add_argument("--config", help="study config file")
    _add_study_flags(p)
    p.add_argument("--workers", type=int,
                   help="worker processes "
                        "(default: usable cores, capped by PFCONV_WORKERS)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("check-resampler", help="statistical contract checks for one scheme")
    p.add_argument("--resampler", choices=sorted(SCHEMES), required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_resampler)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_simulate(args) -> int:
    params = CoxParams(args.c, args.eta)
    states, obs = simulate(params, args.steps, args.seed)
    obs.to_csv(args.out)
    if args.states_out:
        write_text(args.states_out,
                   csv_text(["t", "x"], ((t, f"{x:.17g}") for t, x in enumerate(states))))
    print(f"wrote {len(obs)} observations to {args.out}")
    return 0


def _histogram_cells(args, obs: ObservationSeries) -> int:
    """The --svg overlay's grid cell count, once its flags are checked."""
    if args.hist_step not in [t for t, _ in obs]:
        raise DomainError(f"--hist-step must be an observation step, got {args.hist_step}")
    if args.hist_bins < 1:
        raise DomainError(f"--hist-bins must be >= 1, got {args.hist_bins}")
    if not args.hist_min < args.hist_max:
        raise DomainError(f"--hist-min must lie below --hist-max ({args.hist_max!r}), "
                          f"got {args.hist_min!r}")
    return grid_cells(args.grid_x_max, args.grid_dx)


def _cmd_filter(args) -> int:
    phis = make_test_functions(args.phi)
    obs = ObservationSeries.from_csv(args.observations)
    n_cells = _histogram_cells(args, obs) if args.svg else 0
    params = CoxParams(args.c, args.eta)
    model, proposal = make_cox_model_and_proposal(params, args.proposal,
                                                  args.alpha, args.beta)
    run = run_filter(model, proposal, obs, args.n, get_scheme(args.resampler),
                     args.seed, phis, record_clouds=args.n if args.svg else 0)
    names = [phi.name for phi in phis]
    head = ["t"] + [f"estimate_{n}" for n in names] \
        + [f"resampled_estimate_{n}" for n in names] + ["ess", "log_mean_weight"]
    rows = ([t] + [_fmt(run.estimates[n][i]) for n in names]
            + [_fmt(run.resampled_estimates[n][i]) for n in names]
            + [_fmt(run.ess[i]), _fmt(run.log_mean_weight[i])]
            for i, t in enumerate(run.steps.tolist()))
    write_text(args.out, csv_text(head, rows))
    print(f"filter: {len(run.steps)} steps, N={args.n}, "
          f"log evidence {run.log_evidence:.6f} -> {args.out}")
    if args.svg:
        _write_filter_histogram(args, params, obs, run, n_cells)
        print(f"histogram overlay -> {args.svg}")
    return 0


def _write_filter_histogram(args, params, obs, run, n_cells: int) -> None:
    grun = run_cox_grid_filter(params, obs, args.grid_x_max, n_cells)
    t_idx = list(grun.steps).index(args.hist_step)  # the filter's step index too
    grid = grun.grids[t_idx]
    particles, weights, _ = run.clouds[t_idx]
    edges = np.linspace(args.hist_min, args.hist_max, args.hist_bins + 1)
    mass, _ = np.histogram(particles, bins=edges, weights=weights)
    write_text(args.svg, histogram_svg_text(edges, mass, grid.midpoints(), grid.values,
                                            title=f"filtering density at t={args.hist_step}"))


def _cmd_grid(args) -> int:
    params = CoxParams(args.c, args.eta)
    obs = ObservationSeries.from_csv(args.observations)
    phi = make_test_function(args.phi)
    n_cells = grid_cells(args.grid_x_max, args.grid_dx)
    run = run_cox_grid_filter(params, obs, args.grid_x_max, n_cells, [phi])
    write_text(args.out, csv_text(
        ["t", "estimate_phi", "grid_mean", "grid_var"],
        ((t, _fmt(run.estimates[phi.name][i]), _fmt(run.means[i]), _fmt(run.variances[i]))
         for i, t in enumerate(run.steps))))
    if args.density_out:
        write_text(args.density_out, csv_text(
            ["t", "x", "density"],
            ((t, f"{x:.17g}", f"{v:.17g}") for t, grid in zip(run.steps, run.grids)
             for x, v in zip(grid.midpoints(), grid.values))))
    print(f"grid: {len(run.steps)} steps, {n_cells} cells -> {args.out}")
    return 0


def _cmd_moments(args) -> int:
    if not 0 <= args.x_prev < float("inf"):
        raise DomainError(f"--x-prev must be finite and nonnegative, got {args.x_prev!r}")
    params = CoxParams(args.c, args.eta)
    rows = []
    for p in args.p:
        for alpha in args.alpha:
            for beta in args.beta:
                verdict = check_cox_moment_condition(
                    MomentCondition(p, alpha, beta, args.c, args.eta))
                quad = None
                if verdict.tail_rate < 0:
                    model, proposal = make_cox_model_and_proposal(params, "gamma",
                                                                  alpha, beta)
                    quad = quadrature_weight_moment(model, proposal, args.x_prev,
                                                    0, p, args.level)
                rows.append({
                    "p": p, "alpha": alpha, "beta": beta, "c": args.c, "eta": args.eta,
                    "s": verdict.singularity_exponent, "tail_rate": verdict.tail_rate,
                    "status": verdict.status.value, "bound": verdict.bound,
                    "quadrature_estimate": quad,
                })
    cols = ["p", "alpha", "beta", "c", "eta", "s", "tail_rate",
            "status", "bound", "quadrature_estimate"]
    widths = {c: max(len(c), 22) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for row in rows:
        cells = ["" if row[c] is None else
                 (row[c] if isinstance(row[c], str) else _fmt(row[c]))
                 for c in cols]
        print("  ".join(str(v).ljust(widths[c]) for c, v in zip(cols, cells)))
    if args.json_out:
        write_text(args.json_out,
                   json.dumps({"schema_version": 1, "rows": rows}, indent=2) + "\n")
        print(f"verdicts -> {args.json_out}")
    return 0


def _cmd_converge(args) -> int:
    if args.config:
        config = load_config(args.config)
    elif args.observations:
        config = ExperimentConfig(observations=args.observations)
    else:
        print("error: converge needs --config or --observations", file=sys.stderr)
        return 1
    config = apply_overrides(config, **{field: getattr(args, field) for _, _, field, _ in KEYS})
    report = run_convergence_study(config, workers=args.workers)
    for fmt, path in (("csv", config.out_csv), ("json", config.out_json),
                      ("svg", config.out_svg)):
        if path:
            emit_report(report, fmt, path)
            print(f"{fmt} -> {path}")
    for f in report.rate_fits:
        if f["t"] == "mean" and f["stage"] == "normalized":
            print(f"slope[{f['phi']}, p={f['moment']}, mean over t] = "
                  f"{f['slope']:+.3f} (r^2 = {f['r_squared']:.3f})")
    return 0


def _cmd_check_resampler(args) -> int:
    for flag, value in (("--n", args.n), ("--trials", args.trials)):
        if value < 1:
            raise DomainError(f"{flag} must be >= 1, got {value}")
    scheme = get_scheme(args.resampler)
    root = RngStream(args.seed)
    n = args.n
    failures = []

    sums_ok = True
    for trial in range(args.trials):
        w = root.derive(0, trial).gen.dirichlet(np.ones(n))
        counts = scheme.resample(w[None], n, [root.derive(1, trial).gen])[0]
        if int(counts.sum()) != n or np.any(counts < 0):
            sums_ok = False
            break
    if not sums_ok:
        failures.append("count totals")
    print(f"count totals: {'ok' if sums_ok else 'FAILED'} ({args.trials} trials)")

    w = root.derive(2).gen.dirichlet(np.ones(n))
    totals = np.zeros(n)
    brackets_ok = True
    for trial in range(args.trials):
        counts = scheme.resample(w[None], n, [root.derive(3, trial).gen])[0]
        totals += counts
        if scheme.kind == "systematic":
            low, high = np.floor(n * w), np.ceil(n * w)
            if np.any(counts < low) or np.any(counts > high):
                brackets_ok = False
    mean_counts = totals / args.trials
    sigma = np.sqrt(n * w * (1 - w) / args.trials)
    unbiased_ok = bool(np.all(np.abs(mean_counts - n * w) <= 3 * sigma + 1e-12))
    if not unbiased_ok:
        failures.append("unbiasedness")
    print(f"mean counts within 3 sigma of N*w: {'ok' if unbiased_ok else 'FAILED'}")
    if scheme.kind == "systematic":
        if not brackets_ok:
            failures.append("bracketing")
        print(f"counts bracket N*w within one unit: {'ok' if brackets_ok else 'FAILED'}")

    if failures:
        print(f"contract violations: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------


def cli_dispatch(argv) -> int:
    """Parse and run; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return int(args.func(args))
    except (PfconvError, OSError, KeyError, ValueError) as err:
        # a KeyError's str() is the repr of its message, quotes included
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
