import numpy as np
import pytest

from adaptive_stab.errors import ContractViolation
from adaptive_stab.estimator import batch_solve
from adaptive_stab.harness import (ExperimentConfig, coverage,
                                   estimation_event, gramian_min_eigen_series,
                                   quantile_series, rpi_event, run_ensemble,
                                   run_trial, wilson_interval)
from adaptive_stab.noise import NoiseModel
from adaptive_stab.plants import build_pwa
from adaptive_stab.regions import RegionDescriptor
from adaptive_stab.system import PolicyFamily, make_ce_sat_policy, verify_replay


def noiseless_pwa_cfg(theta0, x0, horizon=50):
    from dataclasses import replace
    b = build_pwa()
    sys = replace(b.system, process_noise=NoiseModel.point_mass([0.0]))
    policy = make_ce_sat_policy(1, 1, 0.9, NoiseModel.point_mass([0.0]))
    return ExperimentConfig(system=sys, policy=policy, gamma=1e-4,
                            x0=np.atleast_1d(x0), horizon=horizon, n_trials=1,
                            base_seed=0, vartheta0=theta0)


class TestRunTrial:
    def test_exact_ce_fixed_point(self):
        theta_star = np.array([[1.0], [0.1]])
        cfg = noiseless_pwa_cfg(theta_star, [0.0])
        tr = run_trial(cfg, 0)
        assert np.all(tr.states == 0.0)

    def test_determinism_same_seed_and_index(self, pwa_bundle):
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=200, n_trials=1, base_seed=7)
        a, b = run_trial(cfg, 3), run_trial(cfg, 3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        assert np.array_equal(a.estimates, b.estimates)

    def test_distinct_trials_differ(self, pwa_bundle):
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=50, n_trials=2, base_seed=7)
        assert not np.array_equal(run_trial(cfg, 0).noises,
                                  run_trial(cfg, 1).noises)

    def test_causality_horizon_prefix(self, pwa_bundle):
        """Controls may not depend on later noise: a longer run shares its
        prefix with a shorter run on the same substreams."""
        mk = lambda T: ExperimentConfig(
            system=pwa_bundle.system, policy=pwa_bundle.policy,
            gamma=pwa_bundle.gamma, x0=pwa_bundle.x0, horizon=T,
            n_trials=1, base_seed=11)
        short, long = run_trial(mk(60), 0), run_trial(mk(160), 0)
        assert np.array_equal(short.controls, long.controls[:60])
        assert np.array_equal(short.states, long.states[:61])

    def test_estimate_delay(self, pwa_bundle):
        """theta_hat(-1) and theta_hat(0) both equal the initial guess."""
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=10, n_trials=1, base_seed=3,
                               vartheta0=np.array([[0.5], [0.05]]))
        tr = run_trial(cfg, 0)
        assert np.array_equal(tr.estimates[0], cfg.vartheta0)
        assert np.array_equal(tr.estimates[1], cfg.vartheta0)
        assert not np.array_equal(tr.estimates[2], cfg.vartheta0)

    def test_estimate_rows_against_batch_solve(self, pwa_bundle):
        """Rows 0 and 1 hold the initial guess, row t < T the ridge solution
        over the first t-1 transitions, and the last row the solution over
        all T transitions (the final transition is ingested before it is
        stored)."""
        T = 30
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=T, n_trials=1, base_seed=3,
                               vartheta0=np.array([[0.5], [0.05]]))
        tr = run_trial(cfg, 0)
        zs, res = tr.regressors, tr.states[1:]      # nominal map is zero
        assert np.array_equal(tr.estimates[0], cfg.vartheta0)
        assert np.array_equal(tr.estimates[1], cfg.vartheta0)
        for t in range(2, T):
            assert np.allclose(tr.estimates[t],
                               batch_solve(cfg.gamma, zs[: t - 1], res[: t - 1]),
                               rtol=1e-9, atol=1e-12)
        assert np.allclose(tr.estimates[T], batch_solve(cfg.gamma, zs, res),
                           rtol=1e-9, atol=1e-12)
        assert not np.allclose(tr.estimates[T],
                               batch_solve(cfg.gamma, zs[:-1], res[:-1]),
                               rtol=1e-9, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_flagged_and_truncated(self):
        from adaptive_stab.system import SystemModel
        sys_diverge = SystemModel(
            n=1, m=1, d=2, q=1,
            nominal_f=lambda x, u: np.zeros(np.shape(x)),
            basis_psi=lambda x, u: np.concatenate(
                [np.asarray(x, float), np.asarray(u, float)], axis=-1),
            theta_star=np.array([[1.0], [1.0]]),
            process_noise=NoiseModel.point_mass([0.0]),
            state_space=RegionDescriptor.everything(1))
        # destabilising policy: x+ = 4x grows past the divergence limit
        policy = PolicyFamily(
            eval=lambda x, s, th: 3.0 * np.asarray(x, dtype=float) + s,
            u_max=np.inf, dither=NoiseModel.point_mass([0.0]))
        cfg = ExperimentConfig(system=sys_diverge, policy=policy, gamma=1e-4,
                               x0=[1.0], horizon=500, n_trials=1, base_seed=0)
        tr = run_trial(cfg, 0)
        assert tr.diverged and tr.diverged_at is not None
        assert tr.states.shape[0] == tr.diverged_at + 1


class TestQuantiles:
    def test_min_max(self):
        vals = np.array([[1.0], [3.0], [2.0]])
        assert quantile_series(vals, 0.0) == pytest.approx([1.0])
        assert quantile_series(vals, 1.0) == pytest.approx([3.0])

    def test_nearest_rank_median(self):
        vals = np.array([[1.0], [2.0], [3.0]])
        assert quantile_series(vals, 0.5) == pytest.approx([2.0])

    def test_monotone_in_q(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((37, 50))
        prev = quantile_series(vals, 0.0)
        for q in (0.25, 0.5, 0.75, 0.9, 1.0):
            cur = quantile_series(vals, q)
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            quantile_series(np.zeros((0, 4)), 0.5)


class TestCoverage:
    def test_trivial_predicates(self, pwa_bundle):
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=20, n_trials=8, base_seed=1)
        trs = [run_trial(cfg, i) for i in range(cfg.n_trials)]
        assert coverage(trs, lambda tr: True)["fraction"] == 1.0
        assert coverage(trs, lambda tr: False)["fraction"] == 0.0

    def test_wilson_interval_sane(self):
        lo, hi = wilson_interval(90, 100)
        assert 0.8 < lo < 0.9 < hi <= 1.0

    def test_rpi_event(self, pwa_bundle):
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=50, n_trials=4, base_seed=2)
        trs = [run_trial(cfg, i) for i in range(4)]
        ev = rpi_event(pwa_bundle.rpi.region)
        assert coverage(trs, ev)["fraction"] == 1.0
        tiny = rpi_event(RegionDescriptor.interval(-1e-6, 1e-6))
        assert coverage(trs, tiny)["fraction"] == 0.0


class TestEnsemble:
    def test_single_trial_quantiles_equal_trajectory(self, pwa_bundle):
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=40, n_trials=1, base_seed=5)
        stats = run_ensemble(cfg, quantiles=(0.5, 0.9))
        tr = run_trial(cfg, 0)
        assert np.allclose(stats.abs_x_quantiles[0.5], tr.abs_states())
        assert np.allclose(stats.abs_x_quantiles[0.9], tr.abs_states())

    @pytest.mark.parametrize("plant", ["pwa_bundle", "linear_bundle"])
    def test_batch_rows_match_single_trials(self, plant, request):
        """Stepping trials together changes no trial's bits: each member of
        the ensemble equals its run_trial and replays exactly."""
        b = request.getfixturevalue(plant)
        cfg = ExperimentConfig(system=b.system, policy=b.policy, gamma=b.gamma,
                               x0=b.x0, horizon=120, n_trials=5, base_seed=8)
        _, trs = run_ensemble(cfg, keep_trajectories=True)
        for i, tr in enumerate(trs):
            one = run_trial(cfg, i)
            for name in ("states", "controls", "estimates", "regressors"):
                assert np.array_equal(getattr(tr, name), getattr(one, name))
            assert verify_replay(b.system, tr)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_trials_leave_the_batch(self):
        """Trials that diverge stop updating while the rest run on: each one
        is cut at its own step, matches its run_trial, and its tail reads
        inf in the quantiles."""
        from adaptive_stab.system import SystemModel
        plant = SystemModel(
            n=1, m=1, d=1, q=1,
            nominal_f=lambda x, u: np.zeros(np.shape(x)),
            basis_psi=lambda x, u: np.asarray(x, float) + np.asarray(u, float),
            theta_star=np.array([[1.0]]),
            process_noise=NoiseModel.point_mass([0.0]),
            state_space=RegionDescriptor.everything(1))
        # x+ = s while x <= 0.99, and x+ = 4x (divergence) once the dither
        # has pushed the state above 0.99
        policy = PolicyFamily(
            eval=lambda x, s, th: np.where(x > 0.99, 3.0 * x, s - x),
            u_max=np.inf, dither=NoiseModel.uniform_box([1.0]))
        cfg = ExperimentConfig(system=plant, policy=policy, gamma=1e-4,
                               x0=[0.0], horizon=150, n_trials=8, base_seed=1)
        stats, trs = run_ensemble(cfg, quantiles=(0.0, 1.0),
                                  keep_trajectories=True)
        diverged = [i for i, tr in enumerate(trs) if tr.diverged]
        assert 0 < len(diverged) < cfg.n_trials
        assert stats.diverged_trials == diverged
        for i, tr in enumerate(trs):
            one = run_trial(cfg, i)
            assert tr.diverged_at == one.diverged_at
            assert np.array_equal(tr.states, one.states)
            assert np.array_equal(tr.estimates, one.estimates)
        first = min(trs[i].diverged_at for i in diverged)
        assert np.isinf(stats.abs_x_quantiles[1.0][first + 1:]).all()
        assert np.isfinite(stats.abs_x_quantiles[0.0]).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_estimates_read_as_infinite_error(self):
        """Collinear regressors [x, 3x] make the ridge solve non-finite while
        the state is still below the divergence limit; those rows, and the
        never-computed row at diverged_at, count as infinite error."""
        from adaptive_stab.harness import DIVERGENCE_LIMIT
        from adaptive_stab.system import SystemModel
        plant = SystemModel(
            n=1, m=1, d=2, q=1,
            nominal_f=lambda x, u: np.zeros(np.shape(x)),
            basis_psi=lambda x, u: np.concatenate([x, u], axis=-1),
            theta_star=np.array([[1.0], [1.0]]),
            process_noise=NoiseModel.gaussian([[0.01]]),
            state_space=RegionDescriptor.everything(1))
        # x+ = x + s + w while x <= 0.99, and x+ = 4x + w once above
        policy = PolicyFamily(eval=lambda x, s, th: np.where(x > 0.99, 3.0 * x, s),
                              u_max=np.inf, dither=NoiseModel.uniform_box([1.0]))
        cfg = ExperimentConfig(system=plant, policy=policy, gamma=1e-2,
                               x0=[0.0], horizon=100, n_trials=1, base_seed=1)
        stats, (tr,) = run_ensemble(cfg, quantiles=(0.5,), keep_trajectories=True)
        err = stats.est_err_quantiles[0.5]
        bad = np.nonzero(~np.isfinite(tr.estimates).all(axis=(1, 2)))[0]
        assert tr.diverged and bad.size and bad[0] < tr.diverged_at
        assert np.abs(tr.states[bad[0]]).max() < DIVERGENCE_LIMIT
        assert np.isinf(err[bad]).all()
        assert np.isfinite(err[: bad[0]]).all()
        # the row at diverged_at is never computed: zero in the trajectory,
        # inf in the statistics, like the cut tail after it
        assert np.array_equal(tr.estimates[tr.diverged_at], np.zeros((2, 1)))
        assert np.isinf(err[tr.diverged_at:]).all()
        finite_between = [t for t in range(bad[0], tr.diverged_at) if t not in bad]
        assert np.isfinite(err[finite_between]).all()

    def test_median_below_q90(self, pwa_bundle):
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=100, n_trials=12, base_seed=6)
        stats = run_ensemble(cfg)
        assert np.all(stats.abs_x_quantiles[0.5] <= stats.abs_x_quantiles[0.9])


def test_gramian_series_matches_estimator(pwa_bundle):
    from adaptive_stab.estimator import RlsEstimator
    cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                           gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                           horizon=80, n_trials=1, base_seed=4)
    tr = run_trial(cfg, 0)
    series = gramian_min_eigen_series(tr, cfg.gamma)
    est = RlsEstimator(gamma=cfg.gamma, d=2, n=1)
    for t in range(80):
        est.update(tr.regressors[t], tr.states[t + 1],
                   np.zeros(1))
        lo, _ = est.gramian_extremes()
        assert series[t] == pytest.approx(lo, rel=1e-10)
