"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Heavy artifacts (the two rate studies) are produced once per session and
shared across criteria; the determinism criterion re-runs them with a
different worker count and compares bytes.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from pfconv import (
    CoxParams,
    ExperimentConfig,
    GammaProposal,
    MomentCondition,
    RngStream,
    check_cox_moment_condition,
    make_cox_model,
    make_gamma_proposal,
    make_test_function,
    run_convergence_study,
    run_filter,
)
from pfconv.cli import cli_dispatch
from pfconv.convergence import RateFit
from pfconv.cox import cox_transition_logdensity
from pfconv.engine import _raw_log_weights
from pfconv.gridfilter import run_cox_grid_filter
from lineargauss import LinearGaussianModel, kalman_filter, \
    make_lg_bootstrap_proposal, make_lg_model, simulate_lg
from pfconv.moments import MomentStatus, quadrature_refinements
from pfconv.report import emit_report
from pfconv.resampling import get_scheme

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
C, ETA = 0.5, 0.1
ALPHA_MSE, ALPHA_L4, BETA = 1.5, 1.25, 0.5
STUDY_NS = (128, 512, 2048, 8192)
REPLICATES = 200
MASTER_SEED = 7
EXP_NEG = make_test_function("exp_neg")
ONE = make_test_function("one")


def _study_config(fixture_obs_path, alpha, outdir):
    return ExperimentConfig(
        observations=str(fixture_obs_path),
        c=C, eta=ETA, proposal="gamma", alpha=alpha, beta=BETA,
        particle_counts=STUDY_NS, replicates=REPLICATES,
        test_functions=("exp_neg",), moments=(2, 4),
        resampler="multinomial", master_seed=MASTER_SEED,
        grid_dx=0.005, grid_x_max=15.0,
        out_csv=str(outdir / "report.csv"),
        out_json=str(outdir / "report.json"),
        out_svg=str(outdir / "report.svg"),
    )


def _run_study_artifacts(config, workers):
    report = run_convergence_study(config, workers=workers)
    for fmt, path in (("csv", config.out_csv), ("json", config.out_json),
                      ("svg", config.out_svg)):
        emit_report(report, fmt, path)
    return report


def _fit(rate_fits, t, moment):
    """The report's normalized-stage exp_neg rate fit at step t and moment p."""
    [f] = [f for f in rate_fits if (f["stage"], f["phi"], f["t"], f["moment"])
           == ("normalized", "exp_neg", t, moment)]
    return RateFit(f["slope"], f["intercept"], f["r_squared"])


@pytest.fixture(scope="session")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def mse_artifacts(fixture_obs_path, outroot):
    outdir = outroot / "mse_w8"
    outdir.mkdir()
    config = _study_config(fixture_obs_path, ALPHA_MSE, outdir)
    return config, _run_study_artifacts(config, workers=8)


@pytest.fixture(scope="session")
def l4_artifacts(fixture_obs_path, outroot):
    outdir = outroot / "l4_w8"
    outdir.mkdir()
    config = _study_config(fixture_obs_path, ALPHA_L4, outdir)
    return config, _run_study_artifacts(config, workers=8)


@pytest.fixture(scope="session")
def cox_model_session():
    return make_cox_model(CoxParams(C, ETA))


@pytest.fixture(scope="session")
def gamma_proposal_session():
    return make_gamma_proposal(GammaProposal(ALPHA_MSE, BETA))


# ---------------------------------------------------------------------------
# 1. mean-square error decays like 1/N at the singular step


def test_criterion_1_mse_rate(mse_artifacts):
    config, _ = mse_artifacts
    parsed = json.loads(open(config.out_json).read())
    fit = _fit(parsed["rate_fits"], 11, 2)
    assert -1.35 <= fit.slope <= -0.70, f"mse slope {fit.slope}"
    assert fit.r_squared >= 0.9
    # statistical error monotonicity: largest N beats smallest N at every t
    tab = parsed["tables"]["normalized"]["exp_neg"]
    mse, l4 = np.array(tab["mse"]), np.array(tab["l4"])
    assert np.all(mse[-1] < mse[0])
    assert np.all(l4 >= mse ** 2 * (1 - 1e-12))  # Jensen, per cell
    print(f"\n[acceptance] 1 MSE rate: PASS (slope {fit.slope:+.3f}, "
          f"r^2 {fit.r_squared:.4f})")


# ---------------------------------------------------------------------------
# 2. fourth-moment error decays like 1/N^2 once the 4th-moment condition holds


def test_criterion_2_l4_rate(l4_artifacts):
    config, _ = l4_artifacts
    parsed = json.loads(open(config.out_json).read())
    fit = _fit(parsed["rate_fits"], 11, 4)
    assert -2.5 <= fit.slope <= -1.4, f"l4 slope {fit.slope}"
    tab = parsed["tables"]["normalized"]["exp_neg"]
    mse, l4 = np.array(tab["mse"]), np.array(tab["l4"])
    assert np.all(l4[-1] < l4[0])
    assert np.all(l4 >= mse ** 2 * (1 - 1e-12))
    print(f"\n[acceptance] 2 L4 rate: PASS (slope {fit.slope:+.3f})")


# ---------------------------------------------------------------------------
# 3. closed-form moment verdicts agree with the quadrature oracle


def test_criterion_3_moment_verdicts(cox_model_session):
    # p = 2, alpha = 1.5: satisfied, bounded, quadrature converges under it
    v2 = check_cox_moment_condition(MomentCondition(2, ALPHA_MSE, BETA, C, ETA))
    assert v2.status is MomentStatus.SATISFIED
    assert v2.bound == pytest.approx(40.0, rel=1e-10)
    prop = make_gamma_proposal(GammaProposal(ALPHA_MSE, BETA))
    seq = quadrature_refinements(cox_model_session, prop, 1.0, 0, 2, 14)
    assert abs(seq[-1] - seq[-2]) < 1e-4
    assert seq[-1] <= v2.bound

    # p = 4, alpha = 1.5: divergent singularity with >= 20% growth per level
    v4 = check_cox_moment_condition(MomentCondition(4, ALPHA_MSE, BETA, C, ETA))
    assert v4.status is MomentStatus.DIVERGENT_SINGULARITY
    div = quadrature_refinements(cox_model_session, prop, 0.0, 0, 4, 13)
    for level in range(6, 13):
        assert div[level - 1] >= 1.2 * div[level - 2]

    # p = 4, alpha = 1.25: satisfied again, oracle under the bound
    v4b = check_cox_moment_condition(MomentCondition(4, ALPHA_L4, BETA, C, ETA))
    assert v4b.status is MomentStatus.SATISFIED
    prop_b = make_gamma_proposal(GammaProposal(ALPHA_L4, BETA))
    seq_b = quadrature_refinements(cox_model_session, prop_b, 1.0, 0, 4, 14)
    assert seq_b[-1] <= v4b.bound
    print(f"\n[acceptance] 3 moment verdicts: PASS (E[w^2] oracle {seq[-1]:.4f} "
          f"<= bound {v2.bound:.1f}; p=4 alpha=1.5 divergent; "
          f"p=4 alpha=1.25 oracle {seq_b[-1]:.3f} <= bound {v4b.bound:.1f})")


# ---------------------------------------------------------------------------
# 4. pointwise unbounded weights coexist with a convergent filter


def test_criterion_4_unbounded_weight_reproduction(cox_model_session,
                                                   gamma_proposal_session,
                                                   mse_artifacts):
    values = [float(_raw_log_weights(cox_model_session, gamma_proposal_session,
                                     np.array([10.0 ** -k]), np.array([1.0]), 0)[0])
              for k in range(2, 9)]
    assert all(b > a for a, b in zip(values, values[1:])), values

    # ... while the mean-square rate and the moment condition both hold
    _, report = mse_artifacts
    fit = _fit(report.rate_fits, 11, 2)
    assert -1.35 <= fit.slope <= -0.70
    verdict = check_cox_moment_condition(MomentCondition(2, ALPHA_MSE, BETA, C, ETA))
    assert verdict.status is MomentStatus.SATISFIED
    print(f"\n[acceptance] 4 unbounded weights: PASS (w grows from "
          f"{math.exp(values[0]):.3g} to {math.exp(values[-1]):.3g} while "
          f"slope {fit.slope:+.3f})")


# ---------------------------------------------------------------------------
# 5. particle histogram at the singular step matches the grid density


def test_criterion_5_histogram_vs_grid(cox_model_session, gamma_proposal_session,
                                       fixture_obs, fixture_obs_path, density_in_bins):
    n = 10_000
    run = run_filter(cox_model_session, gamma_proposal_session, fixture_obs, n,
                     get_scheme("multinomial"), RngStream(MASTER_SEED, (5,)),
                     [EXP_NEG], record_clouds=n)
    # every recorded estimate respects the declared sup-norm
    assert np.all(np.abs(run.estimates["exp_neg"]) <= 1.0)
    assert np.all(np.abs(run.resampled_estimates["exp_neg"]) <= 1.0)
    particles, weights, _ = run.clouds[list(run.steps).index(11)]
    grid_run = run_cox_grid_filter(CoxParams(C, ETA), fixture_obs, 15.0, 3000,
                                   [EXP_NEG])
    grid = grid_run.grids[list(grid_run.steps).index(11)]

    edges = np.linspace(0.0, 6.0, 31)
    particle_mass, _ = np.histogram(particles, bins=edges, weights=weights)
    particle_mass = particle_mass / np.sum(weights)
    grid_mass = density_in_bins(grid, edges)
    # account mass escaping [0, 6] as one extra component
    tv = 0.5 * (np.abs(particle_mass - grid_mass).sum()
                + abs((1 - particle_mass.sum()) - (1 - grid_mass.sum())))
    assert tv < 0.1, f"total variation {tv}"
    print(f"\n[acceptance] 5 histogram vs grid at t=11: PASS (TV {tv:.4f})")


# ---------------------------------------------------------------------------
# 6. proposals are conditionally unbiased given the parent particles


def test_criterion_6_conditional_unbiasedness(cox_model_session,
                                              gamma_proposal_session):
    parents = cox_model_session.prior_sample(RngStream(61).gen, 50)
    y, inner = 0, 10_000
    tiled = np.tile(parents, inner)
    draws = gamma_proposal_session.propose(tiled, y, RngStream(62).gen)
    lw = _raw_log_weights(cox_model_session, gamma_proposal_session, tiled * 0 + draws,
                          tiled, y)
    w = np.exp(lw).reshape(inner, 50)
    x = draws.reshape(inner, 50)

    details = []
    for phi in (ONE, EXP_NEG):
        per_rep = (w * phi(x)).mean(axis=1)  # unnormalized estimate per replication
        mc = per_rep.mean()
        se = per_rep.std(ddof=1) / math.sqrt(inner)

        def integrand(xx, xp):
            logf = cox_transition_logdensity(xx, xp, ETA)
            logg = -C * xx  # y = 0
            return math.exp(logf + logg) * float(phi(np.array([xx]))[0])

        truth = float(np.mean([
            integrate.quad(integrand, 0.0, 30.0, args=(xp,), limit=300)[0]
            for xp in parents
        ]))
        assert abs(mc - truth) <= 3 * se, (phi.name, mc, truth, se)
        details.append(f"{phi.name}: |{mc:.5f}-{truth:.5f}| <= 3*{se:.2g}")
    print(f"\n[acceptance] 6 conditional unbiasedness: PASS ({'; '.join(details)})")


# ---------------------------------------------------------------------------
# 7. resampling contracts


def test_criterion_7_resampler_contracts():
    # 10^5 random inputs per scheme, resampled as (M, n) blocks whose rows
    # all draw from one generator, in row order
    n, trials, m = 32, 10 ** 5, 1000
    for label, name in enumerate(("multinomial", "stratified", "systematic")):
        scheme = get_scheme(name)
        rng = RngStream(71, (label,))
        for _ in range(trials // m):
            w = rng.gen.dirichlet(np.ones(n), size=m)
            counts = scheme.resample(w, n, [rng.gen] * m)
            assert np.all(counts.sum(axis=1) == n)
            if name == "systematic":
                assert np.all(counts >= np.floor(n * w))
                assert np.all(counts <= np.ceil(n * w))

    # multinomial unbiasedness on a fixed weight vector
    mean_trials = 10 ** 5
    rng = RngStream(72)
    w = rng.gen.dirichlet(np.ones(n))
    scheme = get_scheme("multinomial")
    totals = np.zeros(n)
    for _ in range(mean_trials // m):
        totals += scheme.resample(np.tile(w, (m, 1)), n, [rng.gen] * m).sum(axis=0)
    mean_counts = totals / mean_trials
    sigma = np.sqrt(n * w * (1 - w) / mean_trials)
    assert np.all(np.abs(mean_counts - n * w) <= 3 * sigma)
    print(f"\n[acceptance] 7 resampler contracts: PASS "
          f"({trials} randomized inputs per scheme)")


# ---------------------------------------------------------------------------
# 8. engine validation against the exact Kalman filter


def test_criterion_8_engine_vs_kalman():
    model = LinearGaussianModel(a=0.9, q_var=0.25, h=1.0, r_var=0.5, m0=0.0, p0=1.0)
    _, obs = simulate_lg(model, 20, master_seed=81)
    kalman_means = np.array([b.mean for b in kalman_filter(model, [y for _, y in obs])])
    ssm, prop = make_lg_model(model), make_lg_bootstrap_proposal(model)

    def mean_trace(n, seed):
        run = run_filter(ssm, prop, obs, n, get_scheme("multinomial"),
                         RngStream(seed), [], record_clouds=n)
        return np.array([float(np.sum(w * x) / np.sum(w)) for x, w, _ in run.clouds])

    traces = np.array([mean_trace(5000, 8200 + r) for r in range(12)])
    sigma = traces.std(axis=0, ddof=1)
    assert np.all(np.abs(traces[0] - kalman_means) <= 3 * sigma)

    # mean-square error of the particle mean decays like 1/N
    from pfconv import fit_loglog_slope
    mses = []
    for n in (128, 512, 2048):
        errs = np.array([mean_trace(n, 8400 + 100 * n + r) - kalman_means
                         for r in range(100)])
        mses.append((n, float((errs ** 2).mean())))
    fit = fit_loglog_slope(mses)
    assert -1.35 <= fit.slope <= -0.65, f"lg mse slope {fit.slope}"
    print(f"\n[acceptance] 8 engine vs Kalman: PASS (20 steps within 3 sigma, "
          f"slope {fit.slope:+.3f})")


# ---------------------------------------------------------------------------
# 9. oracle self-consistency


def test_criterion_9_oracle_self_consistency(fixture_obs):
    params = CoxParams(C, ETA)
    deltas = []
    # (x_max, cells) pairs: dx 0.01 vs 0.005 on a wider range, dx 0.005 vs 0.001
    for coarse_grid, fine_grid in (((15.0, 1500), (20.0, 4000)),
                                   ((15.0, 3000), (15.0, 15000))):
        coarse = run_cox_grid_filter(params, fixture_obs, *coarse_grid, [EXP_NEG])
        fine = run_cox_grid_filter(params, fixture_obs, *fine_grid, [EXP_NEG])
        deltas += [abs(a - b) for a, b in zip(coarse.estimates["exp_neg"],
                                              fine.estimates["exp_neg"])]
    assert max(deltas) < 1e-4, deltas

    for x_prev in (0.0, 0.5, 1.0, 3.0):
        total, _ = integrate.quad(
            lambda x: math.exp(cox_transition_logdensity(x, x_prev, ETA)),
            0.0, x_prev + 12.0, limit=200)
        assert abs(total - 1.0) <= 1e-6
    print(f"\n[acceptance] 9 oracle self-consistency: PASS "
          f"(max grid delta {max(deltas):.2e})")


# ---------------------------------------------------------------------------
# 10. determinism: same seed, any worker count, byte-identical artifacts


def test_criterion_10_deterministic_artifacts(fixture_obs_path, outroot,
                                              mse_artifacts, l4_artifacts):
    for label, alpha, reference in (("mse", ALPHA_MSE, mse_artifacts),
                                    ("l4", ALPHA_L4, l4_artifacts)):
        outdir = outroot / f"{label}_w1"
        outdir.mkdir()
        config = _study_config(fixture_obs_path, alpha, outdir)
        _run_study_artifacts(config, workers=1)
        ref_config, _ = reference
        for name in ("report.csv", "report.json"):
            a = open(f"{outdir}/{name}", "rb").read()
            b = open(str(ref_config.out_csv).replace("report.csv", name), "rb").read()
            # JSON config echo stores output paths: normalize before comparing
            a = a.replace(f"{label}_w1".encode(), b"OUT")
            b = b.replace(f"{label}_w8".encode(), b"OUT")
            assert a == b, f"{label}/{name} differs between 1 and 8 workers"

    # cheap artifacts rerun end-to-end twice: identical bytes
    for cmd, names in (
        (["grid", "--observations", str(fixture_obs_path), "--dx", "0.01",
          "--x-max", "15", "--out"], ("grid.csv",)),
        (["moments", "--p", "2,4", "--alpha", "1.5,1.25", "--beta", "0.5",
          "--level", "10", "--json"], ("moments.json",)),
    ):
        blobs = []
        for tag in ("first", "second"):
            path = outroot / f"{tag}_{names[0]}"
            assert cli_dispatch(cmd + [str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
    print("\n[acceptance] 10 determinism: PASS (worker counts 1 and 8 "
          "byte-identical; reruns byte-identical)")


# ---------------------------------------------------------------------------
# 11. the committed out/ files are what this code writes, byte for byte


def test_criterion_11_study_reports_match_committed_out(fixture_obs_path, mse_artifacts,
                                                        l4_artifacts):
    # the session studies run the committed configs, so no extra study runs
    for label, (config, _) in (("mse", mse_artifacts), ("l4", l4_artifacts)):
        fresh = pathlib.Path(config.out_csv).parent
        committed = REPO_ROOT / "out" / label
        for name in ("report.csv", "report.svg"):
            assert (fresh / name).read_bytes() == (committed / name).read_bytes(), \
                f"out/{label}/{name}"
        # the JSON config echo stores the input and output paths
        echoed = ((str(fixture_obs_path), "fixtures/cox_obs_t12.csv"),
                  (str(fresh), f"out/{label}"))
        text = (fresh / "report.json").read_text()
        for path, relative in echoed:
            text = text.replace(json.dumps(path)[1:-1], relative)
        assert text == (committed / "report.json").read_text(), f"out/{label}/report.json"
    print("\n[acceptance] 11 study reports: PASS (out/mse and out/l4 byte-identical)")


def test_criterion_11_figure_data_match_committed_out():
    # the filter CSVs hold every per-step estimate, ESS and log mean weight
    src = str(REPO_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "scripts/make_figure_data.py", "--check"],
                          cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    print("\n[acceptance] 11 figure data: PASS (out/figures byte-identical)")
