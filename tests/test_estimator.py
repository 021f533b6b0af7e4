import numpy as np
import pytest

from adaptive_stab.estimator import batch_solve, ingest, ridge_solve
from adaptive_stab.rng import substream
from adaptive_stab.system import Trajectory


def normal_equations(gamma, d, n):
    return gamma * np.eye(d), np.zeros((d, n))


def ingest_one(G, C, z, x_next, f_val):
    z, x_next, f_val = (np.atleast_1d(np.asarray(a, dtype=float))
                        for a in (z, x_next, f_val))
    ingest(G, C, z, x_next - f_val)


class TestUpdate:
    def test_single_rank_one(self):
        G, C = normal_equations(1.0, 1, 1)
        ingest_one(G, C, [1.0], [2.0], [0.0])
        assert np.allclose(G, [[2.0]])
        assert np.allclose(C, [[2.0]])

    def test_accumulation(self):
        G, C = normal_equations(1.0, 1, 1)
        ingest_one(G, C, [1.0], [2.0], [0.0])
        ingest_one(G, C, [1.0], [2.0], [0.0])
        assert np.allclose(G, [[3.0]])
        assert np.allclose(C, [[4.0]])

    def test_zero_regressor_only_counts(self):
        """A zero regressor leaves the normal equations unchanged."""
        G, C = normal_equations(0.7, 2, 1)
        ingest_one(G, C, [0.0, 0.0], [5.0], [0.0])
        assert np.array_equal(G, 0.7 * np.eye(2))
        assert np.array_equal(C, np.zeros((2, 1)))

    def test_batched_rows_match_single_rows(self):
        rng = substream(10)
        zs, res = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
        G = np.tile(0.5 * np.eye(3), (5, 1, 1))
        C = np.zeros((5, 3, 2))
        ingest(G, C, zs, res)
        for k in range(5):
            g, c = normal_equations(0.5, 3, 2)
            ingest(g, c, zs[k], res[k])
            assert np.array_equal(G[k], g) and np.array_equal(C[k], c)


class TestEstimate:
    def test_single_sample_solve(self):
        G, C = normal_equations(1.0, 1, 1)
        ingest_one(G, C, [1.0], [2.0], [0.0])
        assert np.allclose(ridge_solve(G, C), [[1.0]])

    def test_large_regulariser_shrinks_to_zero(self):
        G, C = normal_equations(1e6, 1, 1)
        ingest_one(G, C, [1.0], [2.0], [0.0])
        assert abs(ridge_solve(G, C)[0, 0]) < 3e-6

    def test_closed_form_2x2_matches_general_solve(self):
        rng = substream(8)
        G, C = normal_equations(0.3, 2, 2)
        for _ in range(50):
            ingest_one(G, C, rng.standard_normal(2), rng.standard_normal(2),
                       rng.standard_normal(2))
        direct = np.linalg.solve(G, C)
        assert np.allclose(ridge_solve(G, C), direct, rtol=1e-12, atol=1e-14)


def eig_extremes(G):
    vals = np.linalg.eigvalsh(G)
    return float(vals[0]), float(vals[-1])


class TestGramianExtremes:
    def test_fresh(self):
        G, _ = normal_equations(0.5, 3, 1)
        assert eig_extremes(G) == pytest.approx((0.5, 0.5))

    def test_repeated_unit_vector(self):
        G, C = normal_equations(1.0, 2, 1)
        for _ in range(5):
            ingest_one(G, C, [1.0, 0.0], [0.0], [0.0])
        assert eig_extremes(G) == pytest.approx((1.0, 6.0))

    def test_lambda_min_never_below_gamma_and_monotone(self):
        rng = substream(9)
        G, C = normal_equations(0.25, 3, 1)
        prev_lo, prev_hi = eig_extremes(G)
        for _ in range(100):
            ingest_one(G, C, rng.standard_normal(3), rng.standard_normal(1), [0.0])
            lo, hi = eig_extremes(G)
            assert lo >= 0.25 - 1e-12
            assert lo >= prev_lo - 1e-10 and hi >= prev_hi - 1e-10
            prev_lo, prev_hi = lo, hi


def reported_error(theta_hat, theta_star):
    """The reported estimation error: Trajectory.estimate_errors of a
    one-row estimate history."""
    est = np.asarray(theta_hat, dtype=float)[None]
    tr = Trajectory(states=np.zeros((1, 1)), controls=np.zeros((0, 1)),
                    dithers=np.zeros((0, 1)), noises=np.zeros((0, 1)),
                    estimates=est, regressors=np.zeros((0, est.shape[1])))
    return tr.estimate_errors(theta_star)[0]


class TestEstimationError:
    def test_zero(self):
        th = np.array([[1.0], [2.0]])
        assert reported_error(th, th) == 0.0

    def test_diagonal_difference(self):
        a = np.diag([3.0, 4.0])
        assert reported_error(a, np.zeros((2, 2))) == pytest.approx(4.0)

    def test_rank_one_difference(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        diff = np.outer(u, v)
        assert reported_error(diff, np.zeros((3, 2))) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v))


class TestRegressor:
    """Z(t) = psi(X(t-1), U(t-1)), the regressor the simulator ingests."""

    def test_pwa_indicator_on(self, pwa_bundle):
        z = pwa_bundle.system.basis_psi(np.array([0.5]), np.array([0.2]))
        assert z == pytest.approx([0.5, 0.2])

    def test_pwa_indicator_off(self, pwa_bundle):
        z = pwa_bundle.system.basis_psi(np.array([3001.0]), np.array([0.2]))
        assert z == pytest.approx([3001.0, 0.0])

    def test_linear_concatenation(self, linear_bundle):
        z = linear_bundle.system.basis_psi(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert z == pytest.approx([1.0, 2.0, 3.0, 4.0])


def test_oracle_equivalence_random_sequences():
    """Sample-by-sample ingest vs from-scratch normal-equations solve."""
    rng = substream(123)
    for trial in range(30):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        t_len = int(rng.integers(1, 201))
        gamma = float(rng.uniform(1e-4, 10.0))
        G, C = normal_equations(gamma, d, n)
        zs, res = [], []
        for _ in range(t_len):
            z = rng.standard_normal(d)
            x_next = rng.standard_normal(n)
            f_val = rng.standard_normal(n)
            ingest_one(G, C, z, x_next, f_val)
            zs.append(z)
            res.append(x_next - f_val)
        direct = batch_solve(gamma, np.array(zs), np.array(res))
        num = np.linalg.norm(ridge_solve(G, C) - direct, 2)
        den = max(np.linalg.norm(direct, 2), 1e-12)
        assert num / den < 1e-8


def test_shift_invariance():
    rng = substream(321)
    G_a, C_a = normal_equations(0.5, 3, 2)
    G_b, C_b = normal_equations(0.5, 3, 2)
    shift = np.array([10.0, -3.0])
    for _ in range(40):
        z = rng.standard_normal(3)
        x_next = rng.standard_normal(2)
        f_val = rng.standard_normal(2)
        ingest_one(G_a, C_a, z, x_next, f_val)
        ingest_one(G_b, C_b, z, x_next + shift, f_val + shift)
    assert np.allclose(ridge_solve(G_a, C_a), ridge_solve(G_b, C_b), atol=1e-12)
