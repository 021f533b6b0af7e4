import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_stab.errors import ContractViolation
from adaptive_stab.linalg import pinv, reachability_matrix, sat, spectral_norm


class TestSat:
    def test_inside_ball_unchanged(self):
        assert np.allclose(sat(np.array([3.0, 4.0]), 5.0), [3.0, 4.0])

    def test_scalar_projection(self):
        assert sat(3.0, 1.0) == 1.0
        assert sat(-3.0, 1.0) == -1.0

    def test_radial_projection(self):
        assert np.allclose(sat(np.array([6.0, 8.0]), 5.0), [3.0, 4.0])

    def test_batched(self):
        out = sat(np.array([[6.0, 8.0], [0.3, 0.4]]), 5.0)
        assert np.allclose(out, [[3.0, 4.0], [0.3, 0.4]])

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ContractViolation):
            sat(np.array([1.0]), 0.0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=2),
           st.lists(st.floats(-50, 50), min_size=2, max_size=2),
           st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_non_expansive(self, xs, ys, r):
        x, y = np.array(xs), np.array(ys)
        lhs = np.linalg.norm(sat(x, r) - sat(y, r))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(2)), np.eye(2))

    def test_scalar(self):
        assert np.allclose(pinv([[2.0]]), [[0.5]])

    def test_zero_matrix(self):
        assert np.array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_moore_penrose_residuals(self, rank):
        rng = np.random.default_rng(rank)
        for _ in range(20):
            m = (rng.standard_normal((4, rank)) @ rng.standard_normal((rank, 3)))
            p = pinv(m)
            assert np.linalg.norm(m @ p @ m - m) < 1e-10
            assert np.linalg.norm(p @ m @ p - p) < 1e-10
            assert np.linalg.norm((m @ p) - (m @ p).T) < 1e-10
            assert np.linalg.norm((p @ m) - (p @ m).T) < 1e-10

    def test_row_vector_fast_path_matches_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal((1, 4))
            assert np.allclose(pinv(v), np.linalg.pinv(v), atol=1e-12)


class TestReachability:
    def test_kappa_one_is_b(self):
        b = np.array([[1.0], [2.0]])
        assert np.array_equal(reachability_matrix(np.eye(2), b, 1), b)

    def test_double_integrator(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([[0.0], [1.0]])
        expected = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(reachability_matrix(a, b, 2), expected)

    def test_identity_blocks(self):
        b = np.array([[1.0], [0.0]])
        out = reachability_matrix(np.eye(2), b, 3)
        assert np.array_equal(out, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            reachability_matrix(np.eye(2), np.ones((3, 1)), 2)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0)

