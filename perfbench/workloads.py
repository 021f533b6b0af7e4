"""The benchmark's workloads.  A round is a fixed list of operations, each a
CLI command run in-process through ``adaptive_stab.cli.main`` or, for the
dither-only plant, one library call.  ``verify`` checks the outputs of the
last round after the timed part.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

from adaptive_stab import bounds, cli, harness, kfuncs
from adaptive_stab.certify import excitation_from_moments
from adaptive_stab.noise import NoiseModel
from adaptive_stab.regions import RegionDescriptor
from adaptive_stab.system import PolicyFamily, SystemModel

import checks
import reference as ref
import tracing

PWA, LINEAR = "configs/pwa.json", "configs/linear.json"
PWA_TRIALS = 8                # x 10^4 steps per simulate
LINEAR_TRIALS = 8             # x 2000 steps per simulate
DITHER_TRIALS = 20            # x 3000 steps per dither ensemble
SWEEP_VALUES = "300,1000,3000"
CERTIFY_SAMPLES = 10_000      # Monte-Carlo samples per certify scan


class Context:
    """What the operations of one run share: paths, seed, configs, the
    tracer of a traced run, and values the library calls returned."""

    def __init__(self, root: str, out: str, seed: int, configs: dict):
        self.root, self.out, self.seed, self.configs = root, out, seed, configs
        self.tracer = None
        self.results: dict = {}

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def config_path(self, rel: str) -> str:
        return os.path.join(self.root, rel)


def run_cli(ctx: Context, *argv) -> int:
    """One CLI command; its exit code (stdout is kept out of the report)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def simulate(ctx: Context, config: str, trials: int, out: str) -> int:
    horizon = ctx.configs[config]["horizon"]
    return run_cli(ctx, "simulate", ctx.config_path(config), "--trials", trials,
                   "--horizon", horizon, "--seed", ctx.seed, "--out", ctx.path(out))


# ---------------------------------------------------------------------------
# the dither-only scalar plant (the one with a burn-in inside the horizon)
# ---------------------------------------------------------------------------

def dither_plant(ctx: Context):
    p = ref.DitherPlant()
    system = SystemModel(
        n=1, m=1, d=1, q=1,
        nominal_f=lambda x, u: np.zeros(np.shape(x)),
        basis_psi=lambda x, u: np.asarray(u, dtype=float),
        theta_star=np.array([[p.theta]]),
        process_noise=NoiseModel.gaussian([[p.sigma_w ** 2]]),
        state_space=RegionDescriptor.everything(1), name="dither-only")
    policy = PolicyFamily(eval=lambda x, s, th: np.asarray(s, dtype=float),
                          u_max=p.u_max, dither=NoiseModel.uniform_box([1.0]),
                          name="dither-only")
    if ctx.tracer is not None:
        system = tracing.instrument_system(ctx.tracer, system)
        policy = tracing.instrument_policy(ctx.tracer, policy)
    cert = excitation_from_moments(p.c_pe1, p.c_pe2)
    cfs = bounds.ComparisonFunctionSet(
        chi1=kfuncs.scaled_identity(ref.CHI1_SLOPE), chi2=kfuncs.identity(),
        chi3=kfuncs.scaled_identity(p.theta), chi4=kfuncs.identity(),
        chi5=kfuncs.identity(), sigma1=kfuncs.identity(), sigma2=kfuncs.identity(),
        c1=0.0)
    inputs = bounds.BoundInputs(
        cfs=cfs, u_max=p.u_max, sigma_w=p.sigma_w, n=1, d=1, gamma=p.gamma,
        theta_star_frob=p.theta, c_pe=cert.c_pe, p_pe=cert.p_pe,
        vartheta_bar=p.vartheta_bar, rpi_region=RegionDescriptor.everything(1),
        state_space=RegionDescriptor.everything(1))
    return p, system, policy, inputs


def dither_ensemble(ctx: Context) -> int:
    p, system, policy, _ = dither_plant(ctx)
    cfg = harness.ExperimentConfig(system=system, policy=policy, gamma=p.gamma,
                                   x0=np.zeros(1), horizon=p.horizon,
                                   n_trials=DITHER_TRIALS, base_seed=ctx.seed)
    _, trajectories = harness.run_ensemble(cfg, keep_trajectories=True)
    ctx.results["dither_trajectories"] = trajectories
    return 0


def dither_schedule(ctx: Context) -> int:
    p, _, _, inputs = dither_plant(ctx)
    ctx.results["dither_schedule"] = bounds.compute_schedule(
        inputs, p.delta, np.zeros(1), p.horizon, p.horizon)
    return 0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _ensemble_checks(ctx: Context, config: str, out: str):
    """Checks shared by both ensemble workloads; returns the CSV columns, the
    reference plant and the config for workload-specific checks."""
    cfg = ctx.configs[config]
    plant = ref.plant_from_config(cfg)
    horizon = cfg["horizon"]
    cols = checks.check_ensemble_csv(
        ctx.path(out, "ensemble.csv"), horizon, float(np.linalg.norm(plant.x0)),
        float(np.linalg.norm(plant.theta_star, 2)))
    checks.check_no_divergence(ctx.path(out, "summary.json"))
    rc = simulate(ctx, config, 1, out + "-replay")
    if rc != 0:
        raise checks.CheckFailed(f"replay of trial 0 exited {rc}")
    abs_x, errs = ref.replay(plant, ctx.seed, horizon)
    checks.check_replay(ctx.path(out + "-replay", "ensemble.csv"), abs_x, errs,
                        plant.replay_tol)
    return cols, plant, cfg


class Ensemble:
    name = "ensemble"
    configs = (PWA, LINEAR)
    labels = ("simulate-pwa", "simulate-linear", "dither-ensemble", "dither-schedule")

    def ops(self, ctx):
        return list(zip(self.labels, (
            lambda: simulate(ctx, PWA, PWA_TRIALS, "sim-pwa"),
            lambda: simulate(ctx, LINEAR, LINEAR_TRIALS, "sim-linear"),
            lambda: dither_ensemble(ctx),
            lambda: dither_schedule(ctx))))

    def verify(self, ctx):
        cols, plant, cfg = _ensemble_checks(ctx, PWA, "sim-pwa")
        checks.check_pwa_state_bound(cols, plant, float(cfg["deltas"][0]))
        # the linear state bound is unsound (see CHANGES.md), so q90 |X| is
        # not held against it
        _ensemble_checks(ctx, LINEAR, "sim-linear")
        p = ref.DitherPlant()
        checks.check_dither(ctx.results["dither_schedule"],
                            ctx.results["dither_trajectories"], p, cap=p.horizon)


class Bounds:
    name = "bounds"
    configs = (PWA, LINEAR)
    labels = ("bounds-pwa", "bounds-linear", "sweep-pwa")

    def ops(self, ctx):
        def bounds_cmd(config, out):
            return run_cli(ctx, "bounds", ctx.config_path(config), "--seed", ctx.seed,
                           "--out", ctx.path(out))
        return list(zip(self.labels, (
            lambda: bounds_cmd(PWA, "bounds-pwa"),
            lambda: bounds_cmd(LINEAR, "bounds-linear"),
            lambda: run_cli(ctx, "sweep", ctx.config_path(PWA), "--param", "x_bar",
                            "--values", SWEEP_VALUES, "--seed", ctx.seed,
                            "--out", ctx.path("sweep-pwa")))))

    def verify(self, ctx):
        for config, out in ((PWA, "bounds-pwa"), (LINEAR, "bounds-linear")):
            cfg = ctx.configs[config]
            data = checks.read_json(ctx.path(out, "bounds.json"))
            cols = checks.check_schedule_csv(ctx.path(out, "schedule.csv"), cfg["horizon"])
            radius = ref.PwaPlant(cfg).invariant_radius if config == PWA else None
            checks.check_bounds_times(data, cols, radius)
        checks.check_sweep(ctx.path("sweep-pwa", "sweep.csv"), "x_bar")


class Certify:
    name = "certify"
    configs = (PWA, LINEAR)
    labels = ("certify-pwa", "certify-linear")

    def ops(self, ctx):
        def certify_cmd(config, what, out):
            return run_cli(ctx, "certify", ctx.config_path(config), "--what", what,
                           "--samples", CERTIFY_SAMPLES, "--seed", ctx.seed,
                           "--out", ctx.path(out))
        return list(zip(self.labels, (
            lambda: certify_cmd(PWA, "all", "certify-pwa"),
            lambda: certify_cmd(LINEAR, "excitation", "certify-linear"))))

    def verify(self, ctx):
        pwa, lin = (ref.plant_from_config(ctx.configs[c]) for c in (PWA, LINEAR))
        checks.check_excitation(ctx.path("certify-pwa", "excitation.json"), pwa.excitation_floor)
        checks.check_rpi_and_lyapunov(ctx.path("certify-pwa", "rpi.json"),
                                      ctx.path("certify-pwa", "lyapunov.json"))
        checks.check_excitation(ctx.path("certify-linear", "excitation.json"),
                                lin.excitation_floor)


WORKLOADS = {w.name: w for w in (Ensemble(), Bounds(), Certify())}
OP_LABELS = tuple(label for w in WORKLOADS.values() for label in w.labels)
