import numpy as np
import pytest

from adaptive_stab.errors import CertificationError, ContractViolation
from adaptive_stab.harness import ExperimentConfig, run_trial
from adaptive_stab.noise import NoiseModel
from adaptive_stab.plants import build_pwa
from adaptive_stab.regions import RegionDescriptor
from adaptive_stab.rng import substream
from adaptive_stab.system import (make_ce_sat_policy, policy_ce_sat,
                                  split_theta, step, subsample_linear,
                                  verify_replay)


class TestStepPwa:
    def test_zero_input_zero_noise(self, pwa_bundle):
        assert step(pwa_bundle.system, [0.5], [0.0], [0.0]) == pytest.approx([0.5])

    def test_unit_control(self, pwa_bundle):
        assert step(pwa_bundle.system, [0.5], [1.0], [0.0]) == pytest.approx([0.6])

    def test_indicator_off_outside_region(self, pwa_bundle):
        assert step(pwa_bundle.system, [3001.0], [1.0], [0.0]) == pytest.approx([3001.0])

    def test_dimension_mismatch(self, pwa_bundle):
        with pytest.raises(ContractViolation):
            step(pwa_bundle.system, [0.5, 0.1], [1.0], [0.0])


class TestPolicyCeSat:
    def test_paper_gain(self):
        theta = np.array([[1.0], [0.1]])
        out = policy_ce_sat(split_theta(theta, 1), np.array([0.05]),
                            np.array([0.0]), 0.9)
        assert out == pytest.approx([-0.5])

    def test_zero_state(self):
        theta = np.array([[2.0], [0.3]])
        out = policy_ce_sat(split_theta(theta, 1), np.array([0.0]),
                            np.array([0.0]), 0.9)
        assert out == pytest.approx([0.0])

    def test_zero_input_block_returns_dither(self):
        theta = np.array([[1.0], [0.0]])
        out = policy_ce_sat(split_theta(theta, 1), np.array([5.0]),
                            np.array([0.25]), 0.9)
        assert out == pytest.approx([0.25])

    def test_saturation_magnitude_bound(self, pwa_bundle):
        policy = pwa_bundle.policy
        rng = substream(11)
        xs = rng.uniform(-100, 100, size=(10_000, 1))
        ss = rng.uniform(-0.1, 0.1, size=(10_000, 1))
        thetas = rng.standard_normal(size=(20, 2, 1))
        for th in thetas:
            u = policy.eval(xs, ss, th)
            assert np.all(np.abs(u) <= 0.9 + 0.1 + 1e-12)


class TestSubsampleLinear:
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])

    def test_kappa_one_identity(self):
        sys = subsample_linear(np.array([[0.5]]), np.array([[1.0]]),
                               np.array([[0.04]]), 1)
        assert np.allclose(sys.theta_star.T, [[0.5, 1.0]])
        assert np.allclose(sys.process_noise.covariance, [[0.04]])

    def test_double_integrator_blocks(self):
        sys = subsample_linear(self.A, self.B, 0.01 * np.eye(2), 2)
        a2 = np.array([[1.0, 2.0], [0.0, 1.0]])
        r2 = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert np.allclose(sys.theta_star.T, np.hstack([a2, r2]))
        # noise covariance R(A,I) (I (x) Sigma) R(A,I)^T
        expected = 0.01 * (np.eye(2) + self.A @ self.A.T)
        assert np.allclose(sys.process_noise.covariance, expected)

    def test_singular_a_rejected(self):
        with pytest.raises(ContractViolation):
            subsample_linear(np.array([[1.0, 0.0], [1.0, 0.0]]), self.B,
                             np.eye(2), 2)

    def test_unstable_a_rejected(self):
        with pytest.raises(ContractViolation):
            subsample_linear(2.0 * np.eye(2), self.B, np.eye(2), 2)

    def test_unreachable_rejected(self):
        bad_b = np.zeros((2, 1))
        with pytest.raises(CertificationError, match="sigma_min"):
            subsample_linear(self.A, bad_b, np.eye(2), 2)


class TestTrajectoryReplay:
    def test_replay_bit_exact(self, pwa_bundle):
        cfg = ExperimentConfig(system=pwa_bundle.system, policy=pwa_bundle.policy,
                               gamma=pwa_bundle.gamma, x0=pwa_bundle.x0,
                               horizon=300, n_trials=1, base_seed=5)
        tr = run_trial(cfg, 0)
        assert verify_replay(pwa_bundle.system, tr)

    def test_replay_linear(self, linear_bundle):
        cfg = ExperimentConfig(system=linear_bundle.system,
                               policy=linear_bundle.policy,
                               gamma=linear_bundle.gamma, x0=linear_bundle.x0,
                               horizon=200, n_trials=1, base_seed=5)
        tr = run_trial(cfg, 0)
        assert verify_replay(linear_bundle.system, tr)


def test_certainty_equivalence_discipline():
    """Policies and estimators must behave identically when only the hidden
    true parameter changes: same inputs, same outputs."""
    from adaptive_stab.estimator import ingest, ridge_solve

    b1 = build_pwa()
    policy = b1.policy
    rng = substream(3)
    xs = rng.uniform(-1, 1, size=(50, 1))
    ss = rng.uniform(-0.1, 0.1, size=(50, 1))
    theta_hat = np.array([[0.8], [0.12]])
    u1 = policy.eval(xs, ss, theta_hat)
    # the policy closure carries no reference to theta_star at all; evaluating
    # against a system with a different hidden parameter changes nothing
    u2 = policy.eval(xs, ss, theta_hat)
    assert np.array_equal(u1, u2)

    G1, C1 = 0.1 * np.eye(2), np.zeros((2, 1))
    G2, C2 = 0.1 * np.eye(2), np.zeros((2, 1))
    for i in range(20):
        z = rng.standard_normal(2)
        xn = rng.standard_normal(1)
        ingest(G1, C1, z, xn)
        ingest(G2, C2, z, xn)
    assert np.array_equal(ridge_solve(G1, C1), ridge_solve(G2, C2))


def test_noiseless_mis_specified_estimate_contracts():
    """With zero process and exploration noise and an initial estimate within
    the certified radius, the deterministic closed loop contracts into the
    feedback's dead zone."""
    params = build_pwa().extras["params"]
    bundle = build_pwa()
    sys0 = bundle.system
    # rebuild system/policy with degenerate noise
    from dataclasses import replace
    noiseless = replace(sys0, process_noise=NoiseModel.point_mass([0.0]))
    policy = make_ce_sat_policy(1, 1, params.u_bar1,
                                NoiseModel.point_mass([0.0]))
    vb = bundle.rpi.vartheta_bar
    theta0 = sys0.theta_star + vb * np.array([[0.6], [0.8]])
    cfg = ExperimentConfig(system=noiseless, policy=policy, gamma=1e-4,
                           x0=np.array([2.0]), horizon=400, n_trials=1,
                           base_seed=0, vartheta0=theta0)
    tr = run_trial(cfg, 0)
    tail = np.abs(tr.states[-50:])
    slack = 0.02
    assert np.all(tail <= 0.1 * params.u_bar1 + slack)
