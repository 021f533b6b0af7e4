"""Command-line front end: simulate ensembles, certify hypotheses, compute
bound schedules and stability envelopes, and sweep parameters.

Exit codes: 0 success, 2 configuration error, 3 runtime error,
4 certification negative (falsified / not certified), 5 missing prerequisite.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import bounds as bnd
from .certify import check_lyapunov, excitation_from_moments, moment_scan, rpi_check
from .configio import RunManifest, build_bundle, load_config, write_csv, write_json
from .chart import svg_line_chart
from .errors import (CertificationError, ConfigError, ContractViolation,
                     MissingPrerequisite)
from .harness import (ExperimentConfig, estimation_event, rpi_event, run_ensemble)
from .regions import RegionDescriptor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_NEGATIVE = 4
EXIT_MISSING = 5


def _resolve_seed(cfg: dict, override) -> int:
    env = os.environ.get("ADAPTIVE_STAB_SEED")
    if override is not None:
        return int(override)
    if env is not None:
        return int(env)
    return int(cfg.get("base_seed", 0))


def _experiment(cfg: dict, bundle, args) -> ExperimentConfig:
    return ExperimentConfig(
        system=bundle.system, policy=bundle.policy, gamma=bundle.gamma,
        x0=bundle.x0, horizon=int(args.horizon or cfg.get("horizon", 10_000)),
        n_trials=int(args.trials or cfg.get("n_trials", 100)),
        base_seed=_resolve_seed(cfg, args.seed),
        vartheta0=bundle.vartheta0,
        deltas=tuple(cfg.get("deltas", [0.1])))


def cmd_simulate(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    bundle = build_bundle(cfg, seed=_resolve_seed(cfg, args.seed))
    exp = _experiment(cfg, bundle, args)
    inputs = bundle.bound_inputs()
    delta = exp.deltas[0]
    sched_cap = min(max(exp.horizon, 10), int(args.cap))
    schedule = bnd.compute_schedule(inputs, delta, exp.x0, exp.horizon,
                                    sched_cap, allow_conservative=False)
    events = {"rpi_invariance": rpi_event(bundle.rpi.region)}
    # the estimation event checks t = t_from .. horizon - 1; with no burn-in
    # time below the horizon it is empty and its coverage would read 1.000
    t_from = schedule.T_burn_in.value if schedule.T_burn_in.found else math.inf
    if t_from < exp.horizon:
        e_of_t = lambda t: float(schedule.e[t - 1])
        events["estimation_bound"] = estimation_event(e_of_t, int(t_from),
                                                      bundle.system.theta_star)
        events["joint"] = lambda tr: events["rpi_invariance"](tr) and \
            events["estimation_bound"](tr)

    stats = run_ensemble(exp, quantiles=(0.5, 0.9), events=events)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "ensemble.csv")
    t_col = np.arange(exp.horizon + 1)
    med, q90 = stats.abs_x_quantiles[0.5], stats.abs_x_quantiles[0.9]
    emed, eq90 = stats.est_err_quantiles[0.5], stats.est_err_quantiles[0.9]
    e_bound = np.concatenate([[None], schedule.e])
    xb = schedule.x_bar
    rows = [(int(t), med[t], q90[t], emed[t], eq90[t],
             e_bound[t] if t >= 1 else None, xb[t]) for t in t_col]
    write_csv(csv_path, ("t", "median_absx", "q90_absx", "median_err",
                         "q90_err", "e_bound", "x_bar_bound"), rows)
    summary_path = os.path.join(args.out, "summary.json")
    write_json(summary_path, {"config": cfg, "stats": stats.to_dict(),
                              "schedule": schedule.to_dict()})
    outputs = {"ensemble_csv": csv_path, "summary": summary_path}
    if args.svg:
        svg_path = os.path.join(args.out, "ensemble.svg")
        svg_line_chart({"median |X|": (t_col, med), "q90 |X|": (t_col, q90)},
                       svg_path, title=f"{bundle.system.name}: |X(t)| quantiles",
                       y_label="|X(t)|")
        outputs["svg"] = svg_path
    manifest = RunManifest(command="simulate", config=cfg, seed=exp.base_seed,
                           outputs=outputs).finalize(started)
    manifest.write(os.path.join(args.out, "manifest.json"))
    print(f"simulate: {exp.n_trials} trials x {exp.horizon} steps; "
          f"diverged={len(stats.diverged_trials)}; outputs in {args.out}")
    for name, cov in stats.coverages.items():
        print(f"  coverage[{name}] = {cov['fraction']:.3f} "
              f"(wilson [{cov['wilson_low']:.3f}, {cov['wilson_high']:.3f}])")
    if "estimation_bound" not in events:
        print(f"  coverage[estimation_bound], coverage[joint]: not reported, the "
              f"events are empty (no burn-in time below the horizon {exp.horizon}; "
              f"search cap {sched_cap})")
    return EXIT_OK


def cmd_certify(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args.seed)
    bundle = build_bundle(cfg, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    negative = False
    what = args.what

    if what in ("excitation", "all"):
        region = bundle.pe_region
        if not region.is_bounded:
            radius = float(args.scan_radius)
            region = RegionDescriptor.box([-radius] * bundle.system.n,
                                          [radius] * bundle.system.n)
        try:
            c1, c2, diag = moment_scan(bundle.system, bundle.policy, region,
                                       mc_samples=int(args.samples), seed=seed)
            cert = excitation_from_moments(c1, c2, region=region, mc_config=diag)
            path = os.path.join(args.out, "excitation.json")
            write_json(path, {**cert.to_dict(),
                              "analytic_floor": bundle.excitation.c_pe1})
            outputs["excitation"] = path
            print(f"excitation: c_PE1={c1:.4g} (floor {bundle.excitation.c_pe1:.4g}), "
                  f"c_PE2={c2:.4g}, p_PE={cert.p_pe:.4g}")
        except CertificationError as exc:
            print(f"excitation: NOT CERTIFIED: {exc}")
            negative = True

    if what in ("rpi", "all"):
        vbar = float(args.vartheta_bar) if args.vartheta_bar else bundle.rpi.vartheta_bar
        cert = rpi_check(bundle.system, bundle.policy, bundle.rpi.region, vbar,
                         sample_budget=int(args.samples), seed=seed)
        path = os.path.join(args.out, "rpi.json")
        write_json(path, cert.to_dict())
        outputs["rpi"] = path
        if cert.holds:
            print(f"rpi: not falsified ({cert.samples_checked} samples, "
                  f"vartheta_bar={vbar:.4g})")
        else:
            print(f"rpi: FALSIFIED at x={cert.falsified['x']}, "
                  f"exit={cert.falsified['exit_state']}")
            negative = True

    if what in ("lyapunov", "all"):
        region = bundle.lyapunov.region
        radius = min(region.max_norm(), 50.0)
        xs = np.linspace(-radius, radius, 9)[:, None] if bundle.system.n == 1 \
            else RegionDescriptor.ball(np.zeros(bundle.system.n), radius).grid(16)
        report = check_lyapunov(bundle.system, bundle.policy, bundle.lyapunov,
                                xs, mc_samples=max(2000, int(args.samples) // 10),
                                seed=seed)
        path = os.path.join(args.out, "lyapunov.json")
        write_json(path, report)
        outputs["lyapunov"] = path
        print(f"lyapunov: {'pass' if report['ok'] else 'FAIL'} "
              f"(worst drift margin {report['worst_drift_margin']:.4g})")
        if not report["ok"]:
            negative = True

    manifest = RunManifest(command="certify", config=cfg, seed=seed,
                           outputs=outputs).finalize(started)
    manifest.write(os.path.join(args.out, "manifest.json"))
    return EXIT_NEGATIVE if negative else EXIT_OK


def _schedule_csv(path: str, schedule, eta=None) -> None:
    horizon = schedule.horizon
    rows = []
    for t in range(horizon + 1):
        rows.append((t, schedule.w_bar[t], schedule.x_bar[t],
                     schedule.z_bar[t - 1] if t >= 1 else None,
                     schedule.beta_max[t - 1] if t >= 1 else None,
                     schedule.e[t - 1] if t >= 1 else None,
                     eta[t] if eta is not None else None))
    write_csv(path, ("t", "w_bar", "x_bar", "z_bar", "beta_max", "e", "eta"), rows)


def cmd_bounds(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args.seed)
    bundle = build_bundle(cfg, seed=seed)
    delta = float(args.delta)
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0,1), got {delta}")
    try:
        inputs = bundle.bound_inputs()
    except MissingPrerequisite as exc:
        print(f"bounds: missing certificates: {exc}")
        return EXIT_MISSING
    horizon = int(args.horizon or cfg.get("horizon", 10_000))
    cap = int(args.cap)
    x0 = bundle.x0
    analysis = bnd.BoundAnalysis(inputs, x0, cap)
    schedule = bnd.compute_schedule(inputs, delta, x0, horizon, cap, analysis=analysis)
    condition = bnd.check_condition(inputs, delta, x0, cap, analysis=analysis)
    os.makedirs(args.out, exist_ok=True)

    eta = None
    envelope_dict = None
    if condition["delta/2"]["ok"]:
        try:
            env = bnd.stability_envelope(inputs, bundle.lyapunov, delta, x0,
                                         horizon, cap, analysis=analysis)
            eta = env.eta_values
            envelope_dict = env.to_dict()
        except CertificationError as exc:
            envelope_dict = {"error": str(exc)}
    csv_path = os.path.join(args.out, "schedule.csv")
    _schedule_csv(csv_path, schedule, eta)
    json_path = os.path.join(args.out, "bounds.json")
    write_json(json_path, {"schedule": schedule.to_dict(),
                           "condition": condition, "envelope": envelope_dict})
    manifest = RunManifest(command="bounds", config=cfg, seed=seed,
                           outputs={"schedule_csv": csv_path,
                                    "bounds_json": json_path}).finalize(started)
    manifest.write(os.path.join(args.out, "manifest.json"))

    for label, rep in condition.items():
        print(f"condition[{label}]: {'TRUE' if rep['ok'] else 'false'} -- "
              f"{rep['reason']}")
    print(f"T_burn_in={schedule.T_burn_in.value} ({schedule.T_burn_in.mode}), "
          f"T_contained={schedule.T_contained}, "
          f"T_converge={schedule.T_converge.value} ({schedule.T_converge.mode})")
    if envelope_dict and "error" not in envelope_dict:
        print(f"envelope: c2={envelope_dict['c2']:.6g}, "
              f"eta(0)={envelope_dict['eta_head'][0]:.6g} ({envelope_dict['mode']})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    seed = _resolve_seed(cfg, args.seed)
    values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    if not values:
        raise ConfigError("empty sweep value list")
    delta = float(args.delta)
    cap = int(args.cap)
    rows = []
    for value in values:
        swept = {**cfg, "system": {**cfg["system"],
                                   "params": {**cfg["system"].get("params", {}),
                                              args.param: value}}}
        try:
            bundle = build_bundle(swept, seed=seed)
        except TypeError as exc:
            raise ConfigError(f"unknown sweep parameter {args.param!r}") from exc
        except ConfigError:
            raise
        inputs = bundle.bound_inputs()
        analysis = bnd.BoundAnalysis(inputs, bundle.x0, cap)
        condition = bnd.check_condition(inputs, delta, bundle.x0, cap, analysis=analysis)
        rep, rep2 = condition["delta"], condition["delta/2"]
        burn, _ = analysis.dense(delta)   # the column reports the exact burn-in
        rows.append((value, burn.value, rep["T_contained"], rep["T_converge"],
                     rep["T_converge_mode"], rep["ok"], rep2["ok"]))
        print(f"{args.param}={value:g}: condition(delta)="
              f"{'TRUE' if rep['ok'] else 'false'}, T_contained={rep['T_contained']}, "
              f"T_converge={rep['T_converge']} ({rep['T_converge_mode']})")
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    write_csv(csv_path, (args.param, "T_burn_in", "T_contained", "T_converge",
                         "T_converge_mode", "condition_delta",
                         "condition_half_delta"), rows)
    manifest = RunManifest(command="sweep", config=cfg, seed=seed,
                           outputs={"sweep_csv": csv_path}).finalize(started)
    manifest.write(os.path.join(args.out, "manifest.json"))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="adaptive-stab",
                                description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="JSON experiment config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override config/env base seed")

    sp = sub.add_parser("simulate", help="run a Monte-Carlo ensemble")
    common(sp)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--horizon", type=int, default=None)
    sp.add_argument("--cap", type=int, default=100_000,
                    help="search cap for the bound schedule columns")
    sp.add_argument("--svg", action="store_true", help="emit an SVG chart")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("certify", help="excitation / invariance / Lyapunov checks")
    common(sp)
    sp.add_argument("--what", choices=("excitation", "rpi", "lyapunov", "all"),
                    default="all")
    sp.add_argument("--samples", type=int, default=20_000)
    sp.add_argument("--vartheta-bar", type=float, default=None,
                    help="override the certificate parameter-error radius")
    sp.add_argument("--scan-radius", type=float, default=10.0,
                    help="scan box half-width for unbounded excitation regions")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("bounds", help="bound schedules, times, and envelope")
    common(sp)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--cap", type=int, default=10_000_000)
    sp.add_argument("--horizon", type=int, default=None)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("sweep", help="sweep one system parameter")
    common(sp)
    sp.add_argument("--param", required=True)
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--cap", type=int, default=100_000)
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingPrerequisite as exc:
        print(f"missing prerequisite: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
