"""End-to-end stochastic validation on a plant whose certified burn-in time
is actually reachable: a scalar dither-driven system with the control as its
only basis function.  Exploration noise is uniform, so the excitation moments
are exact, the burn-in search lands around t ~ 1000, and the certified
estimation-error envelope and persistency-of-excitation line can be compared
against simulated ensembles at the stated confidence.
"""

import math

import numpy as np
import pytest

from adaptive_stab import bounds as B
from adaptive_stab import kfuncs as K
from adaptive_stab.certify import excitation_from_moments
from adaptive_stab.harness import (ExperimentConfig, coverage,
                                   gramian_min_eigen_series, run_ensemble,
                                   wilson_interval)
from adaptive_stab.noise import NoiseModel
from adaptive_stab.regions import RegionDescriptor
from adaptive_stab.system import PolicyFamily, SystemModel

THETA = 0.3
SIGMA_W = 0.05
GAMMA = 1e-2
DELTA = 0.1
HORIZON = 3000
TRIALS = 100


@pytest.fixture(scope="module")
def dither_plant():
    sysm = SystemModel(
        n=1, m=1, d=1, q=1,
        nominal_f=lambda x, u: np.zeros(np.shape(x)),
        basis_psi=lambda x, u: np.asarray(u, dtype=float),
        theta_star=np.array([[THETA]]),
        process_noise=NoiseModel.gaussian([[SIGMA_W ** 2]]),
        state_space=RegionDescriptor.everything(1))
    policy = PolicyFamily(eval=lambda x, s, th: np.asarray(s, dtype=float),
                          u_max=1.0, dither=NoiseModel.uniform_box([1.0]),
                          name="dither-only")
    # exact moments of |S| for S ~ U(-1, 1): mean 1/2, variance 1/12
    cert = excitation_from_moments(0.5, 1.0 / 12.0)
    cfs = B.ComparisonFunctionSet(
        chi1=K.scaled_identity(1e-9), chi2=K.identity(),
        chi3=K.scaled_identity(THETA), chi4=K.identity(), chi5=K.identity(),
        sigma1=K.identity(), sigma2=K.identity(), c1=0.0)
    inputs = B.BoundInputs(
        cfs=cfs, u_max=1.0, sigma_w=SIGMA_W, n=1, d=1, gamma=GAMMA,
        theta_star_frob=THETA, c_pe=cert.c_pe, p_pe=cert.p_pe,
        vartheta_bar=0.05, rpi_region=RegionDescriptor.everything(1),
        state_space=RegionDescriptor.everything(1))
    return sysm, policy, inputs


@pytest.fixture(scope="module")
def dither_ensemble(dither_plant):
    sysm, policy, inputs = dither_plant
    cfg = ExperimentConfig(system=sysm, policy=policy, gamma=GAMMA,
                           x0=np.zeros(1), horizon=HORIZON, n_trials=TRIALS,
                           base_seed=424242)
    stats, trajectories = run_ensemble(cfg, keep_trajectories=True)
    return cfg, stats, trajectories


def test_burn_in_is_reachable(dither_plant):
    _, _, inputs = dither_plant
    burn, _ = B.dense_times(inputs, DELTA, [0.0], cap=200_000)
    assert burn.found and burn.mode == "exact"
    assert burn.value < HORIZON


def test_error_envelope_event_at_confidence(dither_plant, dither_ensemble):
    """The certified event (error inside the envelope from the burn-in time
    on) must hold in at least a 1 - delta fraction of trials."""
    sysm, _, inputs = dither_plant
    cfg, stats, trajectories = dither_ensemble
    burn, _ = B.dense_times(inputs, DELTA, [0.0], cap=200_000)
    t = np.arange(1, HORIZON + 1, dtype=float)
    zb = inputs.z_bar(t, DELTA / 3.0, [0.0])
    e = inputs.error_from_beta(t, DELTA, np.cumsum(zb ** 2) + inputs.gamma)

    def event(tr):
        errs = tr.estimate_errors(sysm.theta_star)   # errs[i] = err of hat(i-1)
        for tt in range(int(burn.value), HORIZON):
            if errs[tt + 1] > e[tt - 1]:
                return False
        return True

    cov = coverage(trajectories, event)
    assert cov["fraction"] >= 1.0 - DELTA
    # and the bound is not vacuous: it is within two orders of the actual
    med_final = stats.est_err_quantiles[0.5][-1]
    assert med_final <= e[-1] <= 100 * med_final


def test_pe_line_event_at_confidence(dither_plant, dither_ensemble):
    """lambda_min(G(t)) >= (c_PE p_PE / 4)(t - 1) + gamma from the burn-in
    time on, in at least a 1 - delta fraction of trials."""
    _, _, inputs = dither_plant
    cfg, _, trajectories = dither_ensemble
    burn, _ = B.dense_times(inputs, DELTA, [0.0], cap=200_000)
    t = np.arange(1, HORIZON + 1, dtype=float)
    line = inputs.c_pe * inputs.p_pe / 4.0 * (t - 1.0) + GAMMA
    hits = 0
    for tr in trajectories:
        lam = gramian_min_eigen_series(tr, GAMMA)
        mask = t >= burn.value
        if np.all(lam[mask] >= line[mask]):
            hits += 1
    frac = hits / len(trajectories)
    lo, _ = wilson_interval(hits, len(trajectories))
    assert frac >= 1.0 - DELTA, (frac, lo)


def test_noise_bound_event_at_confidence():
    """P(|W(t)| <= w_bar(t, delta) for all t <= H) >= 1 - delta for Gaussian
    noise: Monte-Carlo check of the union-bound construction."""
    rngs = [np.random.default_rng(s) for s in range(2000)]
    horizon = 500
    t = np.arange(1, horizon + 1, dtype=float)
    wb = B.noise_bound(t, DELTA, 1.0, 1)
    hits = 0
    for rng in rngs:
        w = np.abs(rng.standard_normal(horizon))
        if np.all(w <= wb):
            hits += 1
    frac = hits / len(rngs)
    assert frac >= 1.0 - DELTA
