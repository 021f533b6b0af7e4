import math

import numpy as np
import pytest

from adaptive_stab import bounds as B
from adaptive_stab import kfuncs as K
from adaptive_stab.certify import LyapunovCertificate
from adaptive_stab.errors import CertificationError
from adaptive_stab.regions import RegionDescriptor

from test_bounds import make_inputs


def small_instance():
    """Inputs tuned so the converge time is a few hundred steps: the dense
    transient machinery fully engages within a test-sized horizon."""
    inp = make_inputs(p_pe=0.24, c_pe=1.0, vartheta_bar=0.6, sigma_w=0.01,
                      u_max=0.2, rpi_region=RegionDescriptor.interval(-1e6, 1e6))
    lyap = LyapunovCertificate(
        V=lambda x: np.linalg.norm(np.atleast_1d(x), axis=-1),
        alpha1=K.scaled_identity(0.5), alpha2=K.identity(),
        alpha3=K.scaled_identity(0.3), sigma3=K.scaled_identity(0.1),
        d_tilde=0.05, alpha_v=K.scaled_identity(0.3),
        region=inp.rpi_region, vartheta_bar=inp.vartheta_bar)
    return inp, lyap


def nonlinear_alpha_v_instance():
    """Quadratic convex alpha_v exercises the running-max lambda map."""
    inp, _ = small_instance()
    c = 0.4
    alpha_v = K.MonotoneFn(lambda r: c * np.asarray(r, dtype=float) ** 2,
                           inverse=lambda y: np.sqrt(np.asarray(y) / c),
                           name="0.4r^2")
    lyap = LyapunovCertificate(
        V=lambda x: np.linalg.norm(np.atleast_1d(x), axis=-1),
        alpha1=K.scaled_identity(0.5), alpha2=K.identity(),
        alpha3=K.MonotoneFn(lambda r: c * np.asarray(r, dtype=float) ** 2,
                            inverse=lambda y: np.sqrt(np.asarray(y) / c)),
        sigma3=K.scaled_identity(0.1), d_tilde=0.05, alpha_v=alpha_v,
        region=inp.rpi_region, vartheta_bar=inp.vartheta_bar)
    return inp, lyap


class TestLambdaMap:
    def test_linear_closed_form(self):
        lam = B.LambdaMap(K.scaled_identity(0.3))
        for s in (1e-6, 1.0, 1e6):
            assert lam(s) == pytest.approx((1 - 0.3 / 4) * s)
            assert lam(s) < s

    def test_running_max_keeps_contraction_for_small_s(self):
        """With the printed fixed-interval max the property lam(s) < s fails
        below the interval's maximiser; the running max restores it."""
        c = 0.4
        alpha_v = K.MonotoneFn(lambda r: c * np.asarray(r, dtype=float) ** 2,
                               inverse=lambda y: np.sqrt(np.asarray(y) / c))
        lam = B.LambdaMap(alpha_v, s_max=1e7)
        for s in np.geomspace(1e-6, 1e6, 25):
            v = lam(float(s))
            assert 0.0 < v < s

    def test_iterate_matches_repeated_application(self):
        inp, lyap = nonlinear_alpha_v_instance()
        lam = B.LambdaMap(lyap.alpha_v, s_max=1e4)
        y = 37.5
        orbit = [y]
        for k in range(1, 40):
            orbit.append(float(lam(orbit[-1])))
            assert lam.iterate(y, k) == pytest.approx(orbit[-1], rel=1e-12)
        # one shared start harvested at many counts, in any order
        ks = np.arange(40)[::-1]
        assert np.array_equal(lam.iterate(y, ks), np.array(orbit)[ks])

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_iterate_zero_is_identity(self, nonlinear):
        alpha_v = (nonlinear_alpha_v_instance()[1].alpha_v if nonlinear
                   else K.scaled_identity(0.3))
        lam = B.LambdaMap(alpha_v, s_max=1e4)
        ys = np.array([3.0, 7.0, 250.0, 123.456, 1e-40, 0.0])
        for y in ys:
            assert lam.iterate(float(y), 0) == y
        assert np.array_equal(lam.iterate(ys, 0), ys)

    def test_linear_log_domain_iterates(self):
        lam = B.LambdaMap(K.scaled_identity(0.2))
        assert lam.iterate(1e10, 100000) == 0.0
        assert lam.iterate(2.0, 3) == pytest.approx(2.0 * (1 - 0.05) ** 3)
        # counts beyond int64, as certified converge times reach ~1e20
        assert lam.iterate(1e10, 2 ** 64) == 0.0
        assert lam.iterate(1e300, 2.0 ** 70) == 0.0
        got = lam.iterate(np.array([1.0, 1e300]), np.array([9.9e19, 2.0 ** 64]))
        assert np.array_equal(got, [0.0, 0.0])

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_iterate_broadcasts(self, nonlinear):
        alpha_v = (nonlinear_alpha_v_instance()[1].alpha_v if nonlinear
                   else K.scaled_identity(0.3))
        lam = B.LambdaMap(alpha_v, s_max=1e4)
        ys = np.array([0.5, 3.0, 250.0, 0.0])
        ks = np.array([0, 3, 17, 5])
        assert isinstance(lam.iterate(3.0, 17), float)
        want = np.array([lam.iterate(float(y), int(k)) for y, k in zip(ys, ks)])
        assert np.allclose(lam.iterate(ys, ks), want, rtol=1e-12)
        assert np.allclose(lam.iterate(ys, 17),
                           [lam.iterate(float(y), 17) for y in ys], rtol=1e-12)
        assert np.allclose(lam.iterate(250.0, ks),
                           [lam.iterate(250.0, int(k)) for k in ks], rtol=1e-12)
        grid = lam.iterate(ys[:, None], ks[None, :])
        assert grid.shape == (4, 4)
        assert np.allclose(np.diag(grid), want, rtol=1e-12)


class TestStabilityEnvelopeDense:
    def test_eta_non_increasing_and_decaying(self):
        inp, lyap = small_instance()
        env = B.stability_envelope(inp, lyap, 0.1, [0.5], horizon=2000, cap=5000)
        assert env.mode == "dense"
        ev = env.eta_values
        assert np.all(np.diff(ev) <= 1e-12 * (1.0 + np.abs(ev[:-1])))
        assert ev[-1] < 0.05 * ev[0]

    def test_c2_closed_form(self):
        inp, lyap = small_instance()
        env = B.stability_envelope(inp, lyap, 0.1, [0.5], horizon=100, cap=5000)
        # c2 = alpha1^-1((2/delta) gamma_tilde(2 d~)); alpha_v slope 0.3
        gt = 2.0 * max(2.0 * 0.05 / 0.3, 2.0 * 0.05)
        assert env.c2 == pytest.approx((2.0 / 0.1) * gt / 0.5)

    def test_c2_invariances(self):
        inp, lyap = small_instance()
        ref = B.stability_envelope(inp, lyap, 0.1, [0.5], horizon=50, cap=5000)
        for x0 in ([0.1], [2.0]):
            env = B.stability_envelope(inp, lyap, 0.1, x0, horizon=50, cap=5000)
            assert env.c2 == ref.c2
        scaled = B.stability_envelope(inp, lyap, 0.1, [0.5], horizon=50,
                                      cap=5000, e_scale=10.0)
        assert scaled.c2 == ref.c2
        assert np.any(scaled.eta_values >= ref.eta_values)  # eta does respond

    def test_eta0_weakly_increasing_in_x0(self):
        inp, lyap = small_instance()
        heads = []
        for x0 in ([0.1], [0.5], [2.0]):
            env = B.stability_envelope(inp, lyap, 0.1, x0, horizon=20, cap=5000)
            heads.append(env.eta_values[0])
        assert heads[0] <= heads[1] <= heads[2]

    def test_eta_tilde_oracle_re_evaluation(self):
        """Re-derive eta_tilde at sampled times from small_instance's branch
        formulas written out: lam^k(y) is k multiplications by 1 - 0.3/4,
        alpha1^-1(y) = y/0.5, alpha2 = id, sigma3 = 0.1 id and
        gamma_tilde(r) = 2 max(r/0.3, r), with explicit max scans of e."""
        inp, lyap = small_instance()
        delta, x0 = 0.1, [0.5]
        env = B.stability_envelope(inp, lyap, delta, x0, horizon=1500, cap=5000)
        t0 = int(env.t0_converge)
        d2 = delta / 2.0
        h_ext = len(env.eta_tilde_values) - 1
        ts = np.arange(1, h_ext + 1, dtype=float)
        zb = inp.z_bar(ts, d2 / 3.0, x0)
        e = inp.error_from_beta(ts, d2, np.cumsum(zb ** 2) + inp.gamma)

        def e_at(i):
            return float(e[i - 1])

        def branch(y, k):  # alpha1^-1((2/delta) lam^k(y))
            for _ in range(k):
                y *= 1.0 - 0.3 / 4.0
            return (2.0 / delta) * y / 0.5

        def gamma_tilde(r):
            return 2.0 * max(r / 0.3, r)

        plateau = float(inp.x_bar(t0 + 1, delta / 6.0, x0))
        for t in [t0 + 1, t0 + 2, t0 + 7, t0 + 50, t0 + 501]:
            k = t - (t0 + 1)
            k_late = t0 + 1 + math.ceil(k / 2)
            b1 = branch(plateau, k)
            win_b2 = [e_at(i) for i in range(t0, t0 + k // 2 + 1)]
            b2 = branch(gamma_tilde(2.0 * 0.1 * max(win_b2)), k_late)
            e2 = branch(gamma_tilde(2.0 * 0.05), k_late)
            lo = t0 + 1 + k // 2
            win_g3 = [e_at(i) for i in range(lo, t)]  # i <= t-1
            g3 = branch(gamma_tilde(2.0 * 0.1 * max(win_g3)), 0) if win_g3 else 0.0
            want = max(b1, e2 + b2, g3)
            got = env.eta_tilde_values[t]
            assert got == pytest.approx(want, rel=1e-10), f"t={t}"

    def test_nonlinear_alpha_v_path(self):
        inp, lyap = nonlinear_alpha_v_instance()
        env = B.stability_envelope(inp, lyap, 0.1, [0.5], horizon=800, cap=5000)
        ev = env.eta_values
        assert np.all(np.diff(ev) <= 1e-10 * (1.0 + np.abs(ev[:-1])))
        # c2 = alpha1^-1((2/delta) gamma_tilde(2 d~)) through the quadratic inverse
        assert env.c2 == pytest.approx(
            (2.0 / 0.1) * 2.0 * max(math.sqrt(0.1 / 0.4), 0.1) / 0.5)

    def test_refusal_when_condition_fails(self):
        inp, lyap = small_instance()
        tight = B.BoundInputs(**{**inp.__dict__,
                                 "rpi_region": RegionDescriptor.interval(-1.0, 1.0)})
        with pytest.raises(CertificationError, match="condition"):
            B.stability_envelope(tight, lyap, 0.1, [0.5], horizon=100, cap=5000)


class TestStabilityEnvelopeConservative:
    def test_paper_scale_pwa_constant_head(self, pwa_bundle):
        inp = pwa_bundle.bound_inputs()
        with pytest.raises(CertificationError):
            # finite contained time far below the conservative converge bound
            B.stability_envelope(inp, pwa_bundle.lyapunov, 0.1,
                                 pwa_bundle.x0, horizon=100, cap=20_000)

    def test_linear_example_conservative_envelope(self, linear_bundle):
        inp = linear_bundle.bound_inputs()
        env = B.stability_envelope(inp, linear_bundle.lyapunov, 0.1,
                                   linear_bundle.x0, horizon=1000, cap=20_000)
        assert env.mode == "conservative"
        assert math.isfinite(env.c2) and env.c2 > 0
        ev = env.eta_values
        assert np.all(np.isfinite(ev))
        assert np.all(np.diff(ev) <= 0.0 + 1e-12)
        assert env.t0_converge > 1e6  # certified upper bound at global scale
