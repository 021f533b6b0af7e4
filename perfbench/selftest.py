"""Shows that no output check is vacuous.

    python3 perfbench/selftest.py

Runs one round of every workload, confirms that the checks pass on the real
outputs, then corrupts a copy of one output at a time and confirms that the
check reading it fails.  Exits 1 if a check passes a corrupted output or
fails a real one.  Outputs land under perfbench/out/selftest/.
"""

import csv
import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from adaptive_stab import configio  # noqa: E402

SEED = 0          # the self-test's one seed (README.md)


def edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    edit(header, rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def swap_columns(a, b):
    def edit(header, body):
        i, j = header.index(a), header.index(b)
        for row in body:
            row[i], row[j] = row[j], row[i]
    return edit


def scale_cell(col, row, factor, offset=0.0):
    def edit(header, body):
        j = header.index(col)
        body[row][j] = repr(float(body[row][j]) * factor + offset)
    return edit


def set_cells(cols, row, value):
    def edit(header, body):
        for col in cols:
            body[row][header.index(col)] = repr(value)
    return edit


def swap_rows(col, r1, r2):
    def edit(header, body):
        j = header.index(col)
        body[r1][j], body[r2][j] = body[r2][j], body[r1][j]
    return edit


def corruptions(ctxs):
    """(description, file to corrupt, edit, check reading the corrupted copy)."""
    pwa_ctx, bnd_ctx, cert_ctx = (ctxs[n] for n in W.WORKLOADS)
    pwa_cfg = pwa_ctx.configs[W.PWA]
    pwa = ref.PwaPlant(pwa_cfg)
    horizon = pwa_cfg["horizon"]
    x0n, thn = float(np.linalg.norm(pwa.x0)), float(np.linalg.norm(pwa.theta_star, 2))
    replay = ref.replay(pwa, pwa_ctx.seed, horizon)
    shift = 10.0 * pwa.replay_tol

    def ensemble(path):
        checks.check_ensemble_csv(path, horizon, x0n, thn)

    def schedule(path):
        checks.check_schedule_csv(path, horizon)

    def bounds_times(path):
        cols = checks.read_csv(os.path.join(os.path.dirname(path), "schedule.csv"))
        checks.check_bounds_times(checks.read_json(path), cols, pwa.invariant_radius)

    p = pwa_ctx.path
    return [
        ("swapped quantile columns", p("sim-pwa", "ensemble.csv"), "csv",
         swap_columns("median_absx", "q90_absx"), ensemble),
        ("perturbed row 0", p("sim-pwa", "ensemble.csv"), "csv",
         scale_cell("median_absx", 0, 1.0 - 1e-6), ensemble),
        ("no learning", p("sim-pwa", "ensemble.csv"), "csv",
         set_cells(("median_err", "q90_err"), -1, thn / 5.0), ensemble),
        ("diverged trial", p("sim-pwa", "summary.json"), "json",
         lambda d: d["stats"].update(diverged_trials=[3]), checks.check_no_divergence),
        ("replay state shifted past the tolerance", p("sim-pwa-replay", "ensemble.csv"), "csv",
         scale_cell("median_absx", horizon // 2, 1.0, shift),
         lambda path: checks.check_replay(path, *replay, pwa.replay_tol)),
        ("q90 |X| above the state bound", p("sim-pwa", "ensemble.csv"), "csv",
         scale_cell("q90_absx", 1, 1e3),
         lambda path: checks.check_pwa_state_bound(checks.read_csv(path), pwa,
                                                   float(pwa_cfg["deltas"][0]))),
        ("non-monotone bound column", bnd_ctx.path("bounds-pwa", "schedule.csv"), "csv",
         swap_rows("x_bar", 100, 101), schedule),
        ("T_converge below T_burn_in", bnd_ctx.path("bounds-pwa", "bounds.json"), "json",
         lambda d: d["schedule"].update(T_converge=d["schedule"]["T_burn_in"] - 1),
         bounds_times),
        ("T_contained off by one", bnd_ctx.path("bounds-pwa", "bounds.json"), "json",
         lambda d: d["schedule"].update(T_contained=d["schedule"]["T_contained"] + 1),
         bounds_times),
        ("sweep T_contained decreasing", bnd_ctx.path("sweep-pwa", "sweep.csv"), "csv",
         swap_rows("T_contained", 0, 2),
         lambda path: checks.check_sweep(path, "x_bar")),
        ("c_PE1 below the floor", cert_ctx.path("certify-pwa", "excitation.json"), "json",
         lambda d: d.update(c_pe1=pwa.excitation_floor
                            - 3.5 * d["mc_config"]["worst_mean_se"]),
         lambda path: checks.check_excitation(path, pwa.excitation_floor)),
        ("invariance falsified", cert_ctx.path("certify-pwa", "rpi.json"), "json",
         lambda d: d.update(falsified={"x": [0.0]}),
         lambda path: checks.check_rpi_and_lyapunov(
             path, cert_ctx.path("certify-pwa", "lyapunov.json"))),
    ]


def result_corruptions(lin_ctx):
    """Corruptions of values the dither library calls returned."""
    p = ref.DitherPlant()
    sched = lin_ctx.results["dither_schedule"]
    trajs = lin_ctx.results["dither_trajectories"]
    off_by_one = dataclasses.replace(sched, T_burn_in=dataclasses.replace(
        sched.T_burn_in, value=sched.T_burn_in.value + 1))
    wrong_theta = [dataclasses.replace(tr, estimates=tr.estimates + 1.0) for tr in trajs]
    return [
        ("dither burn-in off by one", lambda: checks.check_dither(off_by_one, trajs, p, p.horizon)),
        ("dither estimates outside the envelope",
         lambda: checks.check_dither(sched, wrong_theta, p, p.horizon)),
    ]


def main() -> int:
    base = os.path.join(HERE, "out", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    ctxs = {}
    for name, wl in W.WORKLOADS.items():
        configs = {rel: configio.load_config(os.path.join(ROOT, rel)) for rel in wl.configs}
        ctx = W.Context(ROOT, os.path.join(base, name), SEED, configs)
        os.makedirs(ctx.out)
        codes = [op() for _, op in wl.ops(ctx)]
        try:
            wl.verify(ctx)
            print(f"PASS  {name}: checks pass on the real outputs (exit codes {codes})")
        except checks.CheckFailed as exc:
            print(f"FAIL  {name}: checks fail on the real outputs: {exc}")
            ok = False
        ctxs[name] = ctx

    for desc, path, kind, edit, check in corruptions(ctxs):
        # corrupt a copy of the whole output directory, so that checks that
        # also read a sibling file see consistent inputs
        bad_dir = os.path.dirname(path) + "-corrupt"
        shutil.rmtree(bad_dir, ignore_errors=True)
        shutil.copytree(os.path.dirname(path), bad_dir)
        bad = os.path.join(bad_dir, os.path.basename(path))
        (edit_csv if kind == "csv" else edit_json)(bad, edit)
        try:
            check(bad)
            print(f"FAIL  {desc}: check passed a corrupted {os.path.basename(path)}")
            ok = False
        except checks.CheckFailed as exc:
            print(f"PASS  {desc}: {exc}")

    for desc, check in result_corruptions(ctxs["ensemble"]):
        try:
            check()
            print(f"FAIL  {desc}: check passed a corrupted result")
            ok = False
        except checks.CheckFailed as exc:
            print(f"PASS  {desc}: {exc}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
