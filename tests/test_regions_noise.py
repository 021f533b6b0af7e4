import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_stab.errors import ContractViolation
from adaptive_stab.noise import NoiseModel
from adaptive_stab.regions import RegionDescriptor
from adaptive_stab.rng import substream


class TestRegions:
    def test_interval_membership_and_norm(self):
        r = RegionDescriptor.interval(-2.0, 3.0)
        assert r.contains([2.5])
        assert not r.contains([3.5])
        assert r.max_norm() == 3.0

    def test_ball(self):
        r = RegionDescriptor.ball([1.0, 0.0], 2.0)
        assert r.contains([2.9, 0.0])
        assert not r.contains([3.1, 0.0])
        assert r.max_norm() == pytest.approx(3.0)

    def test_everything(self):
        r = RegionDescriptor.everything(2)
        assert r.contains([1e300, -1e300])
        assert np.isinf(r.max_norm())

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_samples_respect_max_norm(self, seed):
        rng = substream(seed)
        for region in (RegionDescriptor.box([-1.0, -2.0], [2.0, 0.5]),
                       RegionDescriptor.ball([0.5, -0.5], 1.5)):
            pts = region.sample(rng, 64)
            assert np.all(region.contains(pts))
            assert np.all(np.linalg.norm(pts, axis=1) <= region.max_norm() + 1e-12)

    def test_corners(self):
        r = RegionDescriptor.box([-1.0, 0.0], [1.0, 2.0])
        corners = r.corners()
        assert corners.shape == (4, 2)
        assert {tuple(c) for c in corners} == {(-1.0, 0.0), (-1.0, 2.0),
                                               (1.0, 0.0), (1.0, 2.0)}

    def test_to_dict_fields(self):
        """Every certificate writes its region through to_dict."""
        assert RegionDescriptor.interval(-1.0, 2.0).to_dict() == {
            "shape": "interval-box", "lows": [-1.0], "highs": [2.0], "dim": 1}
        assert RegionDescriptor.ball([0.5, 0.0], 2.0).to_dict() == {
            "shape": "ball", "center": [0.5, 0.0], "radius": 2.0, "dim": 2}
        assert RegionDescriptor.everything(3).to_dict() == {"shape": "all", "dim": 3}
        assert RegionDescriptor.everything().to_dict() == {"shape": "all"}


class TestNoise:
    def test_uniform_box_sigma_and_support(self):
        m = NoiseModel.uniform_box([0.07])
        assert m.sub_gaussian_sigma >= 0.07
        pts = m.sample(substream(1), 1000)
        assert np.all(np.abs(pts) <= 0.07)
        assert np.all(m.support.contains(pts))

    def test_gaussian_sigma_is_sqrt_lambda_max(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = NoiseModel.gaussian(cov)
        assert m.sub_gaussian_sigma == pytest.approx(
            np.sqrt(np.linalg.eigvalsh(cov)[-1]))

    def test_gaussian_sampling_moments(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = NoiseModel.gaussian(cov)
        pts = m.sample(substream(2), 200_000)
        assert np.allclose(np.cov(pts.T), cov, atol=0.05)

    def test_point_mass(self):
        m = NoiseModel.point_mass([1.0, -2.0])
        pts = m.sample(substream(3), 5)
        assert np.all(pts == np.array([1.0, -2.0]))

    def test_norm_quantile_gaussian(self):
        m = NoiseModel.gaussian(np.eye(2))
        r = m.norm_quantile(0.99)
        pts = m.sample(substream(4), 50_000)
        frac = np.mean(np.linalg.norm(pts, axis=1) <= r)
        assert frac >= 0.985

    # chi-square quantiles for df = 1..5 at two levels
    CHI2_AT_0_99 = (6.6348966010212145, 9.21034037197618, 11.344866730144373,
                    13.276704135987622, 15.08627246938899)
    CHI2_AT_1_MINUS_1E_6 = (23.92812697687947, 27.631021115871036,
                            30.66484970615427, 33.37684158165888,
                            35.88818687961042)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_norm_quantile_matches_chi_square(self, dim):
        m = NoiseModel.gaussian(np.eye(dim))
        for prob, table in ((0.99, self.CHI2_AT_0_99),
                            (1.0 - 1e-6, self.CHI2_AT_1_MINUS_1E_6)):
            assert m.norm_quantile(prob) ** 2 == pytest.approx(table[dim - 1], rel=1e-8)

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_norm_quantile_non_decreasing_in_prob(self, dim):
        m = NoiseModel.gaussian(np.eye(dim))
        probs = np.concatenate([np.linspace(0.01, 0.99, 99),
                                1.0 - np.geomspace(1e-3, 1e-15, 40)])
        radii = [m.norm_quantile(float(p)) for p in probs]
        assert np.all(np.diff(radii) >= 0.0)

    def test_quantile_bounds_contract(self):
        with pytest.raises(ContractViolation):
            NoiseModel.uniform_box([1.0]).norm_quantile(1.5)


def test_substreams_reproducible_and_distinct():
    a = substream(7, 1, 0).uniform(size=8)
    b = substream(7, 1, 0).uniform(size=8)
    c = substream(7, 2, 0).uniform(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
