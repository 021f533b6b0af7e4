import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_stab import certify
from adaptive_stab.certify import (GAUSSIAN_TRUNCATION, MOMENT_BLOCK,
                                   LyapunovCertificate, _projection_moments,
                                   _unit_directions,
                                   check_lyapunov, default_theta_grid,
                                   estimate_policy_lipschitz,
                                   excitation_from_moments, lyapunov_drift,
                                   moment_scan, rpi_check)
from adaptive_stab.errors import CertificationError, ContractViolation
from adaptive_stab.kfuncs import exp_minus_one, identity, scaled_identity
from adaptive_stab.noise import NoiseModel
from adaptive_stab.plants import build_pwa, PwaExampleParams
from adaptive_stab.regions import RegionDescriptor
from adaptive_stab.rng import substream
from adaptive_stab.system import PolicyFamily, SystemModel, step


class TestExcitationFromMoments:
    def test_direct_substitution(self):
        cert = excitation_from_moments(2.0, 0.0)
        assert cert.c_pe == pytest.approx(1.0)
        assert cert.p_pe == pytest.approx(0.25)

    def test_second_example(self):
        cert = excitation_from_moments(1.0, 3.0)
        assert cert.c_pe == pytest.approx(0.25)
        assert cert.p_pe == pytest.approx(1.0 / 16.0)

    def test_zero_first_moment_rejected(self):
        with pytest.raises(CertificationError):
            excitation_from_moments(0.0, 1.0)

    @given(st.floats(1e-6, 1e3), st.floats(0.0, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_probability_cap_and_monotonicity(self, c1, c2):
        cert = excitation_from_moments(c1, c2)
        assert 0 < cert.p_pe <= 0.25
        worse = excitation_from_moments(c1, c2 + 1.0)
        assert worse.p_pe < cert.p_pe
        assert worse.c_pe == cert.c_pe  # c_PE does not depend on the variance


def _dither_only_system(dither_half: float, noise: NoiseModel):
    """d = 1 plant whose basis is the control itself."""
    sys = SystemModel(
        n=1, m=1, d=1, q=1,
        nominal_f=lambda x, u: np.zeros(np.shape(x)),
        basis_psi=lambda x, u: np.asarray(u, dtype=float),
        theta_star=np.zeros((1, 1)), process_noise=noise,
        state_space=RegionDescriptor.everything(1))
    if dither_half > 0:
        dither = NoiseModel.uniform_box([dither_half])
    else:
        dither = NoiseModel.point_mass([0.0])
    policy = PolicyFamily(eval=lambda x, s, th: np.asarray(s, dtype=float),
                          u_max=dither_half, dither=dither, name="dither-only")
    return sys, policy


class TestMomentScan:
    def test_uniform_dither_oracle(self):
        """psi = u, policy = dither only, S ~ U(-1,1): E|S| = 1/2 and
        Var|S| = 1/12 by direct quadrature."""
        sys, policy = _dither_only_system(1.0, NoiseModel.point_mass([0.0]))
        region = RegionDescriptor.interval(-1.0, 1.0)
        c1, c2, diag = moment_scan(sys, policy, region, x_grid=5,
                                   theta_samples=4, zeta_samples=4,
                                   mc_samples=40_000, seed=3)
        se = diag["worst_mean_se"]
        assert abs(c1 - 0.5) <= 4 * se
        assert c2 <= 1.0 / 12.0 + 0.005

    def test_pwa_meets_analytic_floor(self, pwa_bundle):
        floor = pwa_bundle.excitation.c_pe1
        c1, c2, diag = moment_scan(pwa_bundle.system, pwa_bundle.policy,
                                   pwa_bundle.pe_region, x_grid=9,
                                   theta_samples=12, zeta_samples=32,
                                   mc_samples=20_000, seed=5)
        assert c1 >= floor - 3 * diag["worst_mean_se"]

    def test_degenerate_no_noise_errors(self):
        sys, policy = _dither_only_system(0.0, NoiseModel.point_mass([0.0]))
        region = RegionDescriptor.interval(-1.0, 1.0)
        with pytest.raises(CertificationError, match="not certified"):
            moment_scan(sys, policy, region, x_grid=3, theta_samples=2,
                        zeta_samples=2, mc_samples=2000, seed=1)

    def test_sample_floor_enforced(self, pwa_bundle):
        with pytest.raises(ContractViolation):
            moment_scan(pwa_bundle.system, pwa_bundle.policy,
                        pwa_bundle.pe_region, mc_samples=10)

    def test_doubling_samples_converges(self, pwa_bundle):
        """Doubling the Monte-Carlo budget moves the worst-case first moment
        by less than three combined standard errors."""
        kw = dict(x_grid=5, theta_samples=8, zeta_samples=16, seed=13)
        a1, _, da = moment_scan(pwa_bundle.system, pwa_bundle.policy,
                                pwa_bundle.pe_region, mc_samples=20_000, **kw)
        b1, _, db = moment_scan(pwa_bundle.system, pwa_bundle.policy,
                                pwa_bundle.pe_region, mc_samples=40_000, **kw)
        assert abs(a1 - b1) < 3.0 * (da["worst_mean_se"] + db["worst_mean_se"])

    def test_probability_form_implied_by_moments(self):
        """Dual route: the excitation constants derived from the moments must
        satisfy the defining probability inequality
        P(|zeta^T psi|^2 >= c_PE) >= p_PE, checked by direct Monte Carlo on
        the dither-only plant."""
        from adaptive_stab.rng import substream
        sys, policy = _dither_only_system(1.0, NoiseModel.point_mass([0.0]))
        region = RegionDescriptor.interval(-1.0, 1.0)
        c1, c2, _ = moment_scan(sys, policy, region, x_grid=5, theta_samples=4,
                                zeta_samples=4, mc_samples=40_000, seed=3)
        cert = excitation_from_moments(c1, c2)
        rng = substream(99)
        s = rng.uniform(-1.0, 1.0, size=400_000)
        for zeta in (1.0, -1.0):
            prob = float(np.mean((zeta * s) ** 2 >= cert.c_pe))
            se = math.sqrt(prob * (1 - prob) / s.size)
            assert prob + 3 * se >= cert.p_pe


def _scan_region(bundle):
    """The plant's excitation region, or the box the certify command scans
    (default --scan-radius 10) when that region is the whole space."""
    if bundle.pe_region.is_bounded:
        return bundle.pe_region
    n = bundle.system.n
    return RegionDescriptor.box([-10.0] * n, [10.0] * n)


def _unblocked_moment_scan(sys, policy, region, x_grid, theta_samples,
                           zeta_samples, mc_samples, seed):
    """The moment scan with every projection of a cell in one (mc, K) array
    and the second moment from the squared projections.  Also returns the
    mean square E[p^2] where the worst variance is, the scale of the
    rounding error of a variance taken as E[p^2] - E[|p|]^2."""
    rng = substream(seed, 101)
    xs = region.grid(x_grid)
    thetas = default_theta_grid(sys.theta_star, rng, theta_samples)
    zetas = _unit_directions(sys.d, zeta_samples, rng)
    worst_mean, worst_var, argmin, var_scale = math.inf, 0.0, None, 0.0
    for xi, x in enumerate(xs):
        w = sys.process_noise.sample(substream(seed, 11, xi), mc_samples)
        s = policy.dither.sample(substream(seed, 12, xi), mc_samples)
        xw = x[None, :] + w
        for ti, theta in enumerate(thetas):
            u = np.asarray(policy.eval(xw, s, np.asarray(theta, float)), dtype=float)
            proj = np.abs(np.asarray(sys.basis_psi(xw, u), dtype=float) @ zetas.T)
            means = proj.mean(axis=0)
            sq_means = np.einsum("ij,ij->j", proj, proj) / mc_samples
            var = (sq_means - means ** 2) * (mc_samples / (mc_samples - 1.0))
            j = int(np.argmin(means))
            if means[j] < worst_mean:
                worst_mean = float(means[j])
                argmin = {"x": x.tolist(), "theta_index": ti, "zeta": zetas[j].tolist()}
            k = int(np.argmax(var))
            if var[k] > worst_var:
                worst_var, var_scale = float(var[k]), float(sq_means[k])
    return worst_mean, worst_var, argmin, var_scale


class TestBlockedMomentScan:
    @pytest.mark.parametrize("plant", ["pwa", "linear"])
    @pytest.mark.parametrize("mc_samples", [1337, 10_000])
    def test_matches_unblocked_scan(self, request, plant, mc_samples):
        """mc_samples is not a multiple of the block, so the last block is
        partial.  The Gramian second moment agrees with the squared
        projections to rounding; the variance subtracts E[|p|]^2 from it, so
        its rounding error scales with the mean square, not with c_pe2."""
        bundle = request.getfixturevalue(f"{plant}_bundle")
        kw = dict(x_grid=5, theta_samples=6, zeta_samples=256,
                  mc_samples=mc_samples, seed=21)
        region = _scan_region(bundle)
        c1, c2, diag = moment_scan(bundle.system, bundle.policy, region, **kw)
        r1, r2, r_argmin, var_scale = _unblocked_moment_scan(
            bundle.system, bundle.policy, region, **kw)
        assert c1 == pytest.approx(r1, rel=1e-12, abs=0.0)
        assert abs(c2 - r2) <= 1e-12 * max(r2, var_scale)
        assert diag["argmin"] == r_argmin

    @pytest.mark.parametrize("rows, d", [
        pytest.param(rows, d, id=f"{rows}" if d == 3 else f"{rows}-d2")
        for d in (3, 2) for rows in (MOMENT_BLOCK - 1, 1337, 3 * MOMENT_BLOCK)])
    def test_opposite_directions_bit_equal(self, rows, d):
        """d = 2 takes the half-plane kernel, d = 3 the blocked one."""
        rng = np.random.default_rng(rows)
        z = rng.standard_normal((rows, d))
        half = _unit_directions(d, 128, rng)
        zetas = np.vstack([half, -half])
        abs_sum, sq_sum = _projection_moments(zetas)(z)
        k = len(half)
        assert np.array_equal(abs_sum[:k], abs_sum[k:])
        assert np.array_equal(sq_sum[:k], sq_sum[k:])
        assert np.allclose(abs_sum, np.abs(z @ zetas.T).sum(axis=0), rtol=1e-12, atol=0)
        assert np.allclose(sq_sum, np.square(z @ zetas.T).sum(axis=0), rtol=1e-12, atol=0)

    @staticmethod
    def exact_abs_sums(z, zetas):
        return np.array([math.fsum(np.abs(z @ zeta)) for zeta in zetas])

    def test_half_plane_sums_at_pwa_scale(self):
        """pwa samples z = (x, 1{|x| <= x_bar} u) are nearly horizontal:
        |z_1| near 3e3, |z_2| near 0.1, and rows with u switched off lie on
        the horizontal axis.  The half-plane sums of the first coordinate are
        of order N * 3e3, so any cancellation between them shows against
        directions near the vertical axis."""
        rng = np.random.default_rng(11)
        zetas = _unit_directions(2, 256, rng)
        zetas = np.vstack([zetas, -zetas])
        moments = _projection_moments(zetas)
        for x0 in (-3e3, 2999.9, 3e3):
            x = x0 + rng.uniform(-0.1, 0.1, 10_000)
            u = rng.uniform(-0.1, 0.1, 10_000) * (np.abs(x) <= 3e3)
            z = np.column_stack([x, u])
            abs_sum, _ = moments(z)
            k = len(zetas) // 2
            assert np.array_equal(abs_sum[:k], abs_sum[k:])
            assert np.allclose(abs_sum, self.exact_abs_sums(z, zetas), rtol=1e-12, atol=0)
            assert np.allclose(abs_sum, np.abs(z @ zetas.T).sum(axis=0), rtol=1e-12, atol=0)

    def test_half_plane_sums_on_the_angular_edges(self):
        """Rows at the origin, on both sides of the +-pi cut of arctan2, and
        on the boundary lines of the scan directions, next to generic rows
        that keep every sum away from zero."""
        rng = np.random.default_rng(5)
        half = _unit_directions(2, 64, rng)
        zetas = np.vstack([half, -half])
        on_lines = (np.column_stack([-half[:, 1], half[:, 0]])
                    * rng.uniform(0.5, 2.0, (len(half), 1)))
        edges = np.array([[0.0, 0.0], [-0.0, -0.0], [-1.0, 0.0], [-1.0, -0.0],
                          [1.0, 0.0], [1.0, -0.0], [0.0, 1.0], [-0.0, -1.0]])
        z = np.vstack([edges, on_lines, -on_lines, rng.standard_normal((40, 2))])
        abs_sum, _ = _projection_moments(zetas)(z)
        k = len(half)
        assert np.array_equal(abs_sum[:k], abs_sum[k:])
        assert np.allclose(abs_sum, self.exact_abs_sums(z, zetas), rtol=1e-12, atol=0)
        assert np.allclose(abs_sum, np.abs(z @ zetas.T).sum(axis=0), rtol=1e-12, atol=0)

    def test_peak_memory_independent_of_the_full_projection_array(self, pwa_bundle):
        """At 20 000 samples one (mc, 256) float64 projection array is 41 MB;
        the blocked scan holds one (MOMENT_BLOCK, 256) block."""
        tracemalloc.start()
        try:
            moment_scan(pwa_bundle.system, pwa_bundle.policy, pwa_bundle.pe_region,
                        x_grid=3, theta_samples=3, mc_samples=20_000, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestRpiCheck:
    def test_paper_configuration_not_falsified(self, pwa_bundle):
        cert = rpi_check(pwa_bundle.system, pwa_bundle.policy,
                         pwa_bundle.rpi.region, pwa_bundle.rpi.vartheta_bar,
                         sample_budget=20_000, seed=2)
        assert cert.holds
        assert cert.samples_checked > 0

    def test_oversized_radius_falsified_and_replays(self, pwa_bundle):
        cert = rpi_check(pwa_bundle.system, pwa_bundle.policy,
                         pwa_bundle.rpi.region, 1.0,
                         sample_budget=20_000, seed=2)
        assert not cert.holds
        f = cert.falsified
        u = pwa_bundle.policy.eval(np.array(f["x"]), np.array(f["s"]),
                                   np.array(f["theta"]))
        nxt = step(pwa_bundle.system, np.array(f["x"]), u, np.array(f["w"]))
        assert np.array_equal(nxt, np.array(f["exit_state"]))
        assert not pwa_bundle.rpi.region.contains(nxt)

    def test_whole_space_trivially_invariant(self, pwa_bundle):
        cert = rpi_check(pwa_bundle.system, pwa_bundle.policy,
                         RegionDescriptor.everything(1), 1e-3)
        assert cert.holds


def contracting_plant(noise):
    """x+ = x/2 + W with zero control, in the dimension of the noise."""
    n = noise.dim
    sys = SystemModel(
        n=n, m=1, d=1, q=1,
        nominal_f=lambda x, u: 0.5 * np.asarray(x, dtype=float),
        basis_psi=lambda x, u: np.asarray(u, dtype=float),
        theta_star=np.zeros((1, n)), process_noise=noise,
        state_space=RegionDescriptor.everything(n))
    policy = PolicyFamily(eval=lambda x, s, th: np.zeros(np.shape(x)[:-1] + (1,)),
                          u_max=0.0, dither=NoiseModel.point_mass([0.0]))
    return sys, policy


def scanned_states(monkeypatch, *args, **kwargs):
    """The state batch rpi_check steps forward, and its certificate."""
    seen = []

    def recording_step(sys, x, u, w):
        seen.append(np.array(x))
        return step(sys, x, u, w)

    monkeypatch.setattr(certify, "step", recording_step)
    cert = rpi_check(*args, **kwargs)
    return seen[0], cert


class TestRpiSampler:
    @pytest.mark.parametrize("budget", [100, 4000, 20_000])
    def test_one_point_per_cell_in_one_dimension(self, monkeypatch, budget):
        """On [0, 1] the interior states are the unit points themselves."""
        sys, policy = contracting_plant(NoiseModel.point_mass([0.0]))
        region = RegionDescriptor.interval(0.0, 1.0)
        for seed in range(10):
            xs, cert = scanned_states(monkeypatch, sys, policy, region, 0.1,
                                      sample_budget=budget, seed=seed)
            interior = xs[2:, 0]    # after the two corners
            cells = np.floor(len(interior) * interior).astype(int)
            assert cert.holds
            assert np.array_equal(np.sort(cells), np.arange(len(interior)))

    def test_points_inside_the_box_and_repeatable(self, monkeypatch):
        sys, policy = contracting_plant(NoiseModel.uniform_box([0.1, 0.1]))
        region = RegionDescriptor.box([-10.0, -10.0], [10.0, 10.0])
        xs, cert = scanned_states(monkeypatch, sys, policy, region, 0.1,
                                  sample_budget=4000, seed=3)
        again, _ = scanned_states(monkeypatch, sys, policy, region, 0.1,
                                  sample_budget=4000, seed=3)
        other, _ = scanned_states(monkeypatch, sys, policy, region, 0.1,
                                  sample_budget=4000, seed=4)
        assert cert.holds
        assert len(xs) > 4
        assert np.all(xs >= region.lows) and np.all(xs <= region.highs)
        assert np.array_equal(xs, again)
        assert not np.array_equal(xs, other)

    def test_gaussian_noise_truncated_at_the_stated_quantile(self):
        noise = NoiseModel.gaussian(0.01 * np.eye(2))
        sys, policy = contracting_plant(noise)
        region = RegionDescriptor.box([-10.0, -10.0], [10.0, 10.0])
        cert = rpi_check(sys, policy, region, 0.1, sample_budget=4000, seed=5)
        trunc = cert.to_dict()["truncation"]
        assert cert.holds
        assert trunc["process_noise"] == {
            "quantile": GAUSSIAN_TRUNCATION,
            "radius": noise.norm_quantile(GAUSSIAN_TRUNCATION)}
        assert trunc["dither"] is None


def looped_rpi_check(sys, policy, region, vartheta_bar, sample_budget, seed):
    """rpi_check with one step per (theta, s, w): (samples_checked,
    falsified, truncation) of the scan order the certificate reports."""
    xs, s_pts, w_pts, thetas, truncation = certify._rpi_samples(
        sys, policy, region, vartheta_bar, sample_budget, seed)
    checked = 0
    for theta in thetas:
        for s in s_pts:
            u = np.asarray(policy.eval(xs, np.broadcast_to(s, (len(xs), len(s))), theta),
                           dtype=float)
            for w in w_pts:
                nxt = step(sys, xs, u, np.broadcast_to(w, (len(xs), sys.n)))
                inside = region.contains(nxt)
                checked += len(xs)
                if not np.all(inside):
                    i = int(np.argmin(inside))
                    return checked, {"x": xs[i].tolist(), "s": s.tolist(),
                                     "w": w.tolist(), "theta": theta.tolist(),
                                     "exit_state": nxt[i].tolist()}, truncation
    return checked, None, truncation


def pwa_case(vartheta_bar=None):
    def build(request):
        bundle = request.getfixturevalue("pwa_bundle")
        return (bundle.system, bundle.policy, bundle.rpi.region,
                vartheta_bar or bundle.rpi.vartheta_bar)
    return build


def contracting_case(noise, lows, highs):
    def build(request):
        sys, policy = contracting_plant(noise)
        return sys, policy, RegionDescriptor.box(lows, highs), 0.1
    return build


class TestRpiBatchedScan:
    """One step per (theta, s) over all noise points reports what a loop
    over (theta, s, w) reports."""

    CASES = {
        "pwa-holds": pwa_case(),
        "pwa-oversized-radius": pwa_case(1.0),
        # x/2 + w leaves [-1, 0.2] only under the upper noise corner, the
        # second support point
        "exit-at-second-noise-point": contracting_case(
            NoiseModel.uniform_box([0.3]), [-1.0], [0.2]),
        "gaussian-holds": contracting_case(
            NoiseModel.gaussian(0.01 * np.eye(2)), [-10.0, -10.0], [10.0, 10.0]),
        "gaussian-exit": contracting_case(
            NoiseModel.gaussian(0.01 * np.eye(2)), [-10.0, -10.0], [0.3, 10.0]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("seed", [2, 7])
    def test_matches_the_per_noise_point_loop(self, request, case, seed):
        sys, policy, region, vartheta_bar = self.CASES[case](request)
        cert = rpi_check(sys, policy, region, vartheta_bar, sample_budget=20_000, seed=seed)
        checked, falsified, truncation = looped_rpi_check(
            sys, policy, region, vartheta_bar, 20_000, seed)
        assert cert.samples_checked == checked
        assert cert.falsified == falsified
        assert cert.truncation == truncation
        assert cert.holds == case.endswith("holds")
        assert (truncation is not None) == case.startswith("gaussian")

    def test_first_exit_after_the_first_noise_point(self, request):
        sys, policy, region, vartheta_bar = \
            self.CASES["exit-at-second-noise-point"](request)
        cert = rpi_check(sys, policy, region, vartheta_bar, sample_budget=20_000, seed=2)
        xs, _, w_pts, _, _ = certify._rpi_samples(sys, policy, region, vartheta_bar,
                                                  20_000, 2)
        assert cert.falsified["w"] == w_pts[1].tolist()
        assert cert.samples_checked == 2 * len(xs)


class TestPolicyLipschitz:
    def test_pwa_scale(self, pwa_bundle):
        c = pwa_bundle.extras["C"]
        # gradient of the gain at theta*: |d(th1/th2)| with th=(1, 0.1) is
        # sqrt(10^2 + 100^2) ~ 100.5; the saturation caps |x| near u1/10,
        # so the ratio tops out around 9; the 1.5 safety factor brings ~13.6
        assert 5.0 <= c <= 25.0

    def test_identical_parameters_zero_difference(self, pwa_bundle):
        policy = pwa_bundle.policy
        th = pwa_bundle.system.theta_star
        x, s = np.array([[0.05]]), np.zeros((1, 1))
        assert np.array_equal(policy.eval(x, s, th), policy.eval(x, s, th.copy()))

    def test_rank_collapse_detected(self, pwa_bundle):
        with pytest.raises(CertificationError, match="radius"):
            estimate_policy_lipschitz(pwa_bundle.policy, pwa_bundle.system.theta_star,
                                      ball_radius=0.5, seed=0)


class TestLyapunovDrift:
    def test_fixed_point_zero_drift(self, pwa_bundle):
        """Noiseless origin is an exact fixed point of the closed loop."""
        from dataclasses import replace
        sys = replace(pwa_bundle.system,
                      process_noise=NoiseModel.point_mass([0.0]))
        policy = PolicyFamily(eval=pwa_bundle.policy.eval, u_max=0.9,
                              dither=NoiseModel.point_mass([0.0]))
        drift, se = lyapunov_drift(sys, policy, pwa_bundle.lyapunov,
                                   [0.0], np.zeros((2, 1)), mc_samples=1000)
        assert drift == 0.0 and se == 0.0

    def test_noiseless_contraction_value(self, pwa_bundle):
        """x = 0.05 under the true parameter moves exactly to 0, so the
        drift equals -(e^0.05 - 1)."""
        from dataclasses import replace
        sys = replace(pwa_bundle.system,
                      process_noise=NoiseModel.point_mass([0.0]))
        policy = PolicyFamily(eval=pwa_bundle.policy.eval, u_max=0.9,
                              dither=NoiseModel.point_mass([0.0]))
        drift, se = lyapunov_drift(sys, policy, pwa_bundle.lyapunov,
                                   [0.05], np.zeros((2, 1)), mc_samples=500)
        assert drift == pytest.approx(-(math.exp(0.05) - 1.0), abs=1e-12)

    def test_drift_respects_certificate_bound(self, pwa_bundle):
        cert = pwa_bundle.lyapunov
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(-20.0, 20.0)
            vt = cert.vartheta_bar * rng.uniform(0, 1) * np.array([[0.6], [0.8]])
            drift, se = lyapunov_drift(pwa_bundle.system, pwa_bundle.policy,
                                       cert, [x], vt, mc_samples=4000, seed=11)
            bound = (-float(cert.alpha3(abs(x))) + cert.d_tilde
                     + float(cert.sigma3(np.linalg.norm(vt, 2))))
            assert drift <= bound + 3 * se


class TestCheckLyapunov:
    def test_pwa_certificate_passes(self, pwa_bundle):
        xs = np.linspace(-40.0, 40.0, 9)[:, None]
        report = check_lyapunov(pwa_bundle.system, pwa_bundle.policy,
                                pwa_bundle.lyapunov, xs, theta_samples=5,
                                mc_samples=4000, seed=3)
        assert report["ok"], report["failures"][:2]

    def test_every_cell_draws_its_own_stream(self, pwa_bundle, monkeypatch):
        """Cell (i, j) draws from substream(seed, 51|52, i, j); a seed of
        seed + 97 i + j would give (0, 97) and (1, 0) the same stream."""
        from adaptive_stab import certify
        drawn = []

        def recording(base_seed, *key):
            drawn.append((base_seed, *key))
            return substream(base_seed, *key)

        monkeypatch.setattr(certify, "substream", recording)
        check_lyapunov(pwa_bundle.system, pwa_bundle.policy, pwa_bundle.lyapunov,
                       np.array([[-1.0], [1.0]]), theta_samples=100,
                       mc_samples=100, seed=5)
        for stream in (51, 52):
            keys = [k for k in drawn if k[1:2] == (stream,)]
            assert len(keys) == 200 and len(set(keys)) == 200

    def test_zero_v_fails_sandwich(self, pwa_bundle):
        cert = LyapunovCertificate(
            V=lambda x: np.zeros(np.asarray(x).shape[:-1]),
            alpha1=identity(), alpha2=identity(), alpha3=identity(),
            sigma3=identity(), d_tilde=0.0, alpha_v=scaled_identity(0.5),
            region=pwa_bundle.rpi.region, vartheta_bar=1e-3)
        xs = np.array([[0.5]])
        report = check_lyapunov(pwa_bundle.system, pwa_bundle.policy, cert, xs,
                                theta_samples=2, mc_samples=1000)
        assert not report["sandwich_ok"]

    def test_inflated_offset_still_passes(self, pwa_bundle):
        base = pwa_bundle.lyapunov
        inflated = LyapunovCertificate(
            V=base.V, alpha1=base.alpha1, alpha2=base.alpha2,
            alpha3=base.alpha3, sigma3=base.sigma3,
            d_tilde=base.d_tilde + 10.0, alpha_v=base.alpha_v,
            region=base.region, vartheta_bar=base.vartheta_bar)
        xs = np.linspace(-10.0, 10.0, 5)[:, None]
        report = check_lyapunov(pwa_bundle.system, pwa_bundle.policy, inflated,
                                xs, theta_samples=3, mc_samples=2000, seed=4)
        assert report["drift_ok"]
