"""Closed-loop simulation harness: Monte-Carlo ensembles stepped together
over time (a single trial is the one-trial case), quantile statistics, and
empirical coverage of the probabilistic bounds.

Each trial draws its process-noise and dither streams from substreams keyed
by (base_seed, trial index, stream id), and every per-trial computation is
row-wise, so a trial's result does not depend on which trials share its
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation
from .estimator import ingest, ridge_solve
from .rng import DITHER, PROCESS_NOISE, substream
from .system import PolicyFamily, SystemModel, Trajectory, step

DIVERGENCE_LIMIT = 1e12


@dataclass
class ExperimentConfig:
    system: SystemModel
    policy: PolicyFamily
    gamma: float
    x0: np.ndarray
    horizon: int
    n_trials: int
    base_seed: int = 0
    vartheta0: Optional[np.ndarray] = None
    deltas: Sequence[float] = (0.1,)

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.system.n,):
            raise ConfigError(f"x0 has shape {self.x0.shape}, "
                              f"expected ({self.system.n},)")
        if self.vartheta0 is None:
            self.vartheta0 = np.zeros((self.system.d, self.system.n))
        self.vartheta0 = np.asarray(self.vartheta0, dtype=float)
        if self.vartheta0.shape != (self.system.d, self.system.n):
            raise ConfigError(f"vartheta0 has shape {self.vartheta0.shape}, "
                              f"expected ({self.system.d}, {self.system.n})")


def _simulate(cfg: ExperimentConfig, trial_indices: Sequence[int]) -> list:
    """Simulate the given trials together: one loop over time advances every
    trial at once, with states, Gramians, cross moments and estimates held
    as arrays over trials.

    The control at time t uses the estimate built from data through time
    t-1 (one-step estimate delay): the freshest transition is ingested into
    the Gramian only after the current estimate has been read.  A trial whose
    state leaves the divergence limit (or turns non-finite) stops updating
    and its trajectory is cut at that step.
    """
    sys, policy = cfg.system, cfg.policy
    n, d, T = sys.n, sys.d, cfg.horizon
    N = len(trial_indices)

    noises = np.empty((N, T, n))
    dithers = np.empty((N, T, policy.dither.dim))
    for k, i in enumerate(trial_indices):
        noises[k] = sys.process_noise.sample(
            substream(cfg.base_seed, i, PROCESS_NOISE), T)
        dithers[k] = policy.dither.sample(substream(cfg.base_seed, i, DITHER), T)
    states = np.zeros((N, T + 1, n))
    controls = np.zeros((N, T, sys.m))
    regressors = np.zeros((N, T, d))
    estimates = np.zeros((N, T + 1, d, n))
    states[:, 0] = cfg.x0

    G = np.tile(cfg.gamma * np.eye(d), (N, 1, 1))
    C = np.zeros((N, d, n))
    live = np.arange(N)               # rows still being simulated
    diverged_at = [None] * N
    x = states[:, 0].copy()
    pending = None                    # (z, residual) of the previous step
    f, psi = sys.nominal_f, sys.basis_psi
    for t in range(T):
        # no data is ingested before t = 2, so rows 0 and 1 hold the guess
        theta = cfg.vartheta0 if t < 2 else ridge_solve(G, C)
        estimates[live, t] = theta
        if pending is not None:
            ingest(G, C, *pending)
        u = np.asarray(policy.eval(x, dithers[live, t], theta), dtype=float)
        x_next = step(sys, x, u, noises[live, t])
        z = np.asarray(psi(x, u), dtype=float)
        res = x_next - np.asarray(f(x, u), dtype=float)
        controls[live, t] = u
        regressors[live, t] = z
        states[live, t + 1] = x_next
        # NaN compares false, so this single reduction also catches non-finites
        ok = np.all(np.abs(x_next) < DIVERGENCE_LIMIT, axis=-1)
        if not ok.all():
            for k in live[~ok]:
                diverged_at[k] = t + 1
            live, x_next, z, res, G, C = (a[ok] for a in (live, x_next, z, res, G, C))
            if live.size == 0:
                break
        pending = (z, res)
        x = x_next
    if live.size:
        ingest(G, C, *pending)
        estimates[live, T] = ridge_solve(G, C)

    trajectories = []
    for k, i in enumerate(trial_indices):
        end = T if diverged_at[k] is None else diverged_at[k]
        trajectories.append(Trajectory(
            states=states[k, : end + 1], controls=controls[k, :end],
            dithers=dithers[k, :end], noises=noises[k, :end],
            estimates=estimates[k, : end + 1], regressors=regressors[k, :end],
            trial_index=i, base_seed=cfg.base_seed,
            diverged=diverged_at[k] is not None, diverged_at=diverged_at[k]))
    return trajectories


def run_trial(cfg: ExperimentConfig, trial_index: int) -> Trajectory:
    """Simulate one closed-loop rollout: the one-trial case of the ensemble
    loop, so it reproduces that trial of run_ensemble exactly."""
    return _simulate(cfg, [trial_index])[0]


def quantile_series(values: Sequence[np.ndarray], q: float) -> np.ndarray:
    """Per-time nearest-rank quantile across trajectories of equal length.

    Nearest rank means the ceil(q N)-th smallest sample (minimum at q = 0),
    so small-ensemble statistics are exact members of the sample set.
    """
    if not 0.0 <= q <= 1.0:
        raise ContractViolation("quantile level must be in [0, 1]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ContractViolation("empty trajectory set")
    n = arr.shape[0]
    rank = max(int(math.ceil(q * n)), 1) - 1
    return np.sort(arr, axis=0)[rank]


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial fraction."""
    if total <= 0:
        raise ContractViolation("total must be positive")
    p = successes / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z2 / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def coverage(trajectories: Sequence[Trajectory],
             event_predicate: Callable[[Trajectory], bool]) -> dict:
    """Fraction of trajectories satisfying the event, with a Wilson interval.
    Diverged trials count as failures of any boundedness event.
    """
    total = len(trajectories)
    hits = sum(1 for tr in trajectories
               if (not tr.diverged) and bool(event_predicate(tr)))
    lo, hi = wilson_interval(hits, total)
    return {"fraction": hits / total, "successes": hits, "total": total,
            "wilson_low": lo, "wilson_high": hi}


def gramian_min_eigen_series(traj: Trajectory, gamma: float) -> np.ndarray:
    """lambda_min of the regularised Gramian after each sample, vectorised
    over the whole trajectory."""
    z = traj.regressors
    outer = np.einsum("ti,tj->tij", z, z)
    g = np.cumsum(outer, axis=0) + gamma * np.eye(z.shape[1])
    return np.linalg.eigvalsh(g)[:, 0]


@dataclass
class EnsembleStats:
    abs_x_quantiles: dict          # q -> per-time series over t = 0..T
    est_err_quantiles: dict        # q -> per-time series over estimate index
    coverages: dict
    n_trials: int
    horizon: int
    base_seed: int
    diverged_trials: list

    def to_dict(self) -> dict:
        return {
            "n_trials": self.n_trials, "horizon": self.horizon,
            "base_seed": self.base_seed, "diverged_trials": self.diverged_trials,
            "coverages": self.coverages,
            "abs_x_final": {str(q): float(v[-1]) for q, v in
                            self.abs_x_quantiles.items()},
            "est_err_final": {str(q): float(v[-1]) for q, v in
                              self.est_err_quantiles.items()},
        }


def run_ensemble(cfg: ExperimentConfig, quantiles: Sequence[float] = (0.5, 0.9),
                 events: Optional[dict] = None, keep_trajectories: bool = False):
    """Simulate n_trials rollouts and reduce to per-time quantiles of |X(t)|
    and of the estimation error, plus empirical coverage of the given events
    (name -> predicate).  Per-trial substreams make each trial independent of
    the others in the batch.
    """
    trajectories = _simulate(cfg, range(cfg.n_trials))

    T = cfg.horizon
    theta_star = cfg.system.theta_star
    abs_x = np.full((cfg.n_trials, T + 1), np.inf)
    err = np.full((cfg.n_trials, T + 1), np.inf)
    diverged = []
    for i, tr in enumerate(trajectories):
        ax = tr.abs_states()
        abs_x[i, : len(ax)] = ax
        ee = tr.estimate_errors(theta_star)
        err[i, : len(ee)] = ee
        if tr.diverged:
            diverged.append(i)
            abs_x[i, len(ax):] = np.inf   # diverged tails count as unbounded
            err[i, len(ee):] = np.inf

    abs_q = {q: quantile_series(abs_x, q) for q in quantiles}
    err_q = {q: quantile_series(err, q) for q in quantiles}
    coverages = {}
    for name, pred in (events or {}).items():
        coverages[name] = coverage(trajectories, pred)
    stats = EnsembleStats(abs_x_quantiles=abs_q, est_err_quantiles=err_q,
                          coverages=coverages, n_trials=cfg.n_trials,
                          horizon=T, base_seed=cfg.base_seed,
                          diverged_trials=diverged)
    if keep_trajectories:
        return stats, trajectories
    return stats


def rpi_event(region) -> Callable[[Trajectory], bool]:
    """Event: the whole state path stays inside the region."""
    def pred(tr: Trajectory) -> bool:
        return bool(np.all(region.contains(tr.states)))
    return pred


def estimation_event(e_of_t: Callable[[int], float], t_from: int,
                     theta_star) -> Callable[[Trajectory], bool]:
    """Event: |theta_hat(t) - theta*| <= e(t) for t_from <= t <= T - 1.

    Estimates are stored one step delayed (index i holds theta_hat(i-1)), so
    theta_hat(t) sits at index t + 1.  The last index T is the exception: it
    holds theta_hat(T) (see Trajectory), so the check at t = T - 1 reads
    theta_hat(T) against e(T - 1).  An empty range of t (t_from >= T) makes
    the event vacuously true.
    """
    def pred(tr: Trajectory) -> bool:
        errs = tr.estimate_errors(theta_star)
        last_t = len(errs) - 2            # largest t with theta_hat(t) stored
        for t in range(max(t_from, 1), last_t + 1):
            if errs[t + 1] > e_of_t(t):
                return False
        return True
    return pred
