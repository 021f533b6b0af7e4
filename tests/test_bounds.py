import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_stab import bounds as B
from adaptive_stab import kfuncs as K
from adaptive_stab.certify import LyapunovCertificate
from adaptive_stab.errors import CertificationError, ContractViolation
from adaptive_stab.regions import RegionDescriptor


def simple_cfs(**overrides):
    base = dict(chi1=K.scaled_identity(1e-9), chi2=K.identity(),
                chi3=K.scaled_identity(0.1), chi4=K.identity(),
                chi5=K.identity(), sigma1=K.identity(), sigma2=K.identity(),
                c1=0.0)
    base.update(overrides)
    return B.ComparisonFunctionSet(**base)


def make_inputs(**overrides):
    base = dict(cfs=simple_cfs(), u_max=0.5, sigma_w=0.02, n=1, d=2,
                gamma=1.0, theta_star_frob=2.0, c_pe=0.5, p_pe=0.15,
                vartheta_bar=0.4,
                rpi_region=RegionDescriptor.interval(-50, 50),
                state_space=RegionDescriptor.everything(1))
    base.update(overrides)
    return B.BoundInputs(**base)


class TestNoiseBound:
    def test_zero_at_time_zero(self):
        assert B.noise_bound(0, 0.1, 1.0, 1) == 0.0

    def test_log_argument_anchor(self):
        # at delta = pi^2/(3 e^2) the log argument is exactly e^2
        delta = math.pi ** 2 / (3.0 * math.e ** 2)
        assert B.noise_bound(1, delta, 1.0, 1) == pytest.approx(2.0, abs=1e-12)

    def test_monotone_in_t(self):
        vals = B.noise_bound(np.arange(1, 50), 0.1, 0.3, 2)
        assert np.all(np.diff(vals) > 0)

    def test_delta_domain(self):
        with pytest.raises(ContractViolation):
            B.noise_bound(1, 1.2, 1.0, 1)


class TestStateBound:
    def test_initial_state_only(self):
        cfs = simple_cfs(chi1=K.scaled_identity(1e-300))
        out = B.state_bound(5, 0.1, [2.0], cfs, 0.0, 0.0, 1)
        assert out == pytest.approx(2.0, abs=1e-12)

    def test_pwa_composition(self):
        # w_bar(1, delta) = 0.1 exactly at sigma_w = 0.05, delta = pi^2/(3e^2)
        delta = math.pi ** 2 / (3.0 * math.e ** 2)
        out = B.state_bound(1, delta, [0.5], simple_cfs(), 1.0, 0.05, 1)
        assert out == pytest.approx(0.5 + 0.1 + 0.1 + 1e-9, abs=1e-12)

    def test_non_decreasing(self):
        out = B.state_bound(np.arange(0, 200), 0.2, [0.5], simple_cfs(),
                            1.0, 0.07, 1)
        assert np.all(np.diff(out) >= 0)


class TestRegressorGramian:
    def test_identity_chain(self):
        out = B.regressor_bound(3, 0.1, [3.0], simple_cfs(), 0.0, 0.0, 1)
        assert out == pytest.approx(3.0 + 2e-9, abs=1e-12)

    def test_pythagorean(self):
        out = B.regressor_bound(1, 0.1, [3.0], simple_cfs(
            chi1=K.scaled_identity(1e-300)), 4.0, 0.0, 1)
        assert out == pytest.approx(5.0, abs=1e-12)

    def test_rejects_t_zero(self):
        with pytest.raises(ContractViolation):
            B.regressor_bound(0, 0.1, [1.0], simple_cfs(), 1.0, 0.0, 1)

    def test_gramian_partial_sum(self):
        cfs = simple_cfs(chi1=K.scaled_identity(1e-300))
        out = B.gramian_upper(1, 0.1, [2.0], cfs, 0.0, 0.0, 1, 1.0)
        assert out == pytest.approx(5.0, abs=1e-12)

    def test_gramian_floor_and_monotone(self):
        cfs = simple_cfs()
        vals = [B.gramian_upper(t, 0.1, [2.0], cfs, 0.3, 0.05, 1, 0.7)
                for t in range(1, 8)]
        assert all(v >= 0.7 for v in vals)
        assert np.all(np.diff(vals) >= 0)


class TestErrorEnvelope:
    def test_zero_numerator(self):
        inp = make_inputs(sigma_w=0.0, theta_star_frob=0.0)
        assert B.error_envelope(10, 0.1, [0.5], inp) == 0.0

    def test_t1_regulariser_cancels(self):
        inp = make_inputs(sigma_w=0.0, theta_star_frob=2.0, gamma=1.0)
        assert B.error_envelope(1, 0.1, [0.5], inp) == pytest.approx(2.0)

    def test_vanishes_with_bounded_rate(self):
        inp = make_inputs()
        t = np.arange(1, 200_001, dtype=float)
        zb = inp.z_bar(t, 0.1 / 3.0, [0.5])
        e = inp.error_from_beta(t, 0.1, np.cumsum(zb ** 2) + inp.gamma)
        # decays by ~1/sqrt(t) across the scan and keeps decreasing
        assert e[-1] < 0.05 < e[10]
        assert np.all(np.diff(e[100:]) < 0)
        # sqrt(t)/log(t) scaled envelope stays bounded (APB regressors)
        scaled = e * np.sqrt(t) / np.log(t + 1.0)
        assert np.max(scaled[10:]) < 1e3

    def test_algebraic_reconstruction(self):
        inp = make_inputs()
        t = np.arange(1, 500, dtype=float)
        zb = inp.z_bar(t, 0.1 / 3.0, [0.5])
        beta = np.cumsum(zb ** 2) + inp.gamma
        e = inp.error_from_beta(t, 0.1, beta)
        denom_sq = inp.c_pe * inp.p_pe * (t - 1.0) / 4.0 + inp.gamma
        num = (math.sqrt(inp.gamma) * inp.theta_star_frob
               + inp.sigma_w * np.sqrt(2 * inp.n * (np.log(3 * inp.n / 0.1)
                                                    + (inp.d / 2) * np.log(beta / inp.gamma))))
        assert np.allclose(e ** 2 * denom_sq, num ** 2, rtol=1e-12)


def oracle_burn_in(inp, delta, x0, cap, witness=False):
    """Literal double-loop search over the printed predicate.  With witness,
    a T is kept only when the predicate's slack does not decrease over the
    last three t up to the cap, the evidence burn_in_time asks for before it
    reports a T as holding beyond the cap."""
    d3 = delta / 3.0
    t = np.arange(1, cap + 1, dtype=float)
    zsq = inp.z_bar_sq(t, d3, x0)
    s = np.cumsum(zsq)
    a = 2.0 / ((1.0 - math.log(2.0)) * inp.p_pe)
    with np.errstate(divide="ignore"):
        base = a * inp.d * np.log1p(16.0 * s / (inp.c_pe * inp.p_pe * (t - 1.0)))
    for T in range(1, cap + 1):
        pen = a * np.log(math.pi ** 2 * (t[T - 1:] - T + 1.0) ** 2 / (2.0 * delta))
        if np.all(t[T - 1:] >= base[T - 1:] + pen + 1.0):
            break
    else:
        return None
    if witness:
        probe = [max(T, cap - 2), max(T, cap - 1), cap]
        slack = [tv - 1.0 - a * inp.d * math.log1p(
                     16.0 * float(np.sum(zsq[:tv])) / (inp.c_pe * inp.p_pe * (tv - 1.0)))
                 - a * math.log(math.pi ** 2 * (tv - T + 1.0) ** 2 / (2.0 * delta))
                 for tv in probe]
        if not np.all(np.diff(slack) >= 0.0):
            return None
    return T


class TestSearches:
    def test_burn_in_matches_oracle(self):
        inp = make_inputs()
        for cap in (800, 3000):
            got = B.burn_in_time(inp, 0.1, [0.5], cap)
            want = oracle_burn_in(inp, 0.1, [0.5], cap)
            assert got.value == want

    def test_burn_in_not_found_when_tiny_probability(self):
        inp = make_inputs(p_pe=1e-9, c_pe=1e-8)
        got = B.burn_in_time(inp, 0.1, [0.5], 2000)
        assert not got.found

    def test_burn_in_decreases_with_more_excitation(self):
        lo = B.burn_in_time(make_inputs(p_pe=0.10), 0.1, [0.5], 20_000)
        hi = B.burn_in_time(make_inputs(p_pe=0.24), 0.1, [0.5], 20_000)
        assert hi.value <= lo.value

    def test_converge_matches_oracle(self):
        inp = make_inputs()
        got = B.converge_time(inp, 0.1, [0.5], 3000)
        # oracle: last crossing of the exact envelope plus burn-in max
        t = np.arange(1, 3001, dtype=float)
        zb = inp.z_bar(t, 0.1 / 3.0, [0.5])
        e = inp.error_from_beta(t, 0.1, np.cumsum(zb ** 2) + inp.gamma)
        above = np.nonzero(e > inp.vartheta_bar)[0]
        t_e = int(t[above[-1]]) + 1 if above.size else 1
        assert got.value == max(oracle_burn_in(inp, 0.1, [0.5], 3000), t_e)

    def test_converge_dominated_by_burn_in(self):
        inp = make_inputs(vartheta_bar=1e9)
        got = B.converge_time(inp, 0.1, [0.5], 3000)
        burn = B.burn_in_time(inp, 0.1, [0.5], 3000)
        assert got.value == burn.value

    def test_converge_trivial_when_error_zero(self):
        inp = make_inputs(sigma_w=0.0, theta_star_frob=0.0)
        got = B.converge_time(inp, 0.1, [0.5], 3000)
        assert got.diagnostics["first_below"] == 1

    def test_contained_binary_search_matches_linear_scan(self):
        inp = make_inputs()
        tc = B.contained_time(inp, 0.1, [0.5])
        xb = inp.x_bar(np.arange(1, int(tc) + 2, dtype=float), 0.1 / 3.0, [0.5])
        radius = inp.rpi_region.max_norm()
        assert np.all(xb[: int(tc)] <= radius)
        assert xb[int(tc)] > radius

    def test_contained_infinite_when_region_covers_space(self):
        inp = make_inputs(rpi_region=RegionDescriptor.everything(1))
        assert math.isinf(B.contained_time(inp, 0.1, [0.5]))

    def test_contained_zero_when_initial_bound_exceeds(self):
        inp = make_inputs(rpi_region=RegionDescriptor.interval(-0.1, 0.1))
        assert B.contained_time(inp, 0.1, [5.0]) == 0

    def test_contained_monotone_in_radius(self):
        prev = 0
        for r in (5.0, 20.0, 80.0, 320.0):
            inp = make_inputs(rpi_region=RegionDescriptor.interval(-r, r))
            tc = B.contained_time(inp, 0.1, [0.5])
            assert tc >= prev
            prev = tc

    def test_certified_upper_bounds_exceed_exact(self):
        inp = make_inputs()
        exact = B.burn_in_time(inp, 0.1, [0.5], 10_000)
        ub = B.certified_burn_in_upper(inp, 0.1, [0.5])
        assert ub.found and ub.value >= exact.value
        cu = B.certified_converge_upper(inp, 0.1, [0.5])
        cv = B.converge_time(inp, 0.1, [0.5], 10_000)
        assert cu.found and cu.value >= cv.value


class TestRefutation:
    """The O(1) refutation of a hopeless cap never changes a search result."""

    @staticmethod
    def refuted(result):
        return "log_q_upper" in result.diagnostics

    def test_matches_oracle_around_threshold_and_burn_in(self):
        inp = make_inputs()
        T = oracle_burn_in(inp, 0.1, [0.5], 3000)
        # largest cap the bound refutes: from there on the dense scan runs
        c_r = 1
        while self.refuted(B.burn_in_time(inp, 0.1, [0.5], c_r + 1)):
            c_r += 1
        assert self.refuted(B.burn_in_time(inp, 0.1, [0.5], c_r))
        for cap in (c_r - 1, c_r, c_r + 1, T - 1, T, T + 1, 2 * T):
            got = B.burn_in_time(inp, 0.1, [0.5], cap)
            assert got.value == oracle_burn_in(inp, 0.1, [0.5], cap, witness=True)
            assert self.refuted(got) == (cap <= c_r)
        assert B.burn_in_time(inp, 0.1, [0.5], 2 * T).value == T

    @given(slope=st.floats(1e-3, 0.5), u_max=st.floats(0.05, 1.0),
           sigma_w=st.floats(0.0, 0.1), d=st.integers(1, 3),
           c_pe=st.floats(0.1, 2.0), p_pe=st.floats(0.05, 0.25),
           delta=st.floats(0.01, 0.5), x0=st.floats(0.0, 2.0),
           cap=st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, slope, u_max, sigma_w, d, c_pe, p_pe,
                                     delta, x0, cap):
        inp = make_inputs(cfs=simple_cfs(chi3=K.scaled_identity(slope)),
                          u_max=u_max, sigma_w=sigma_w, d=d, c_pe=c_pe, p_pe=p_pe)
        got = B.burn_in_time(inp, delta, [x0], cap)
        assert got.value == oracle_burn_in(inp, delta, [x0], cap, witness=True)

    def test_hopeless_cap_refuted_without_scanning(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a dense chunk was scanned")
        monkeypatch.setattr(B, "_zsq_chunk", no_scan)
        got = B.burn_in_time(make_inputs(p_pe=1e-9, c_pe=1e-8), 0.1, [0.5], 2000)
        assert got.mode == "not-found"
        assert got.diagnostics["reason"].startswith("refuted")
        assert got.diagnostics["log_q_upper"] < B.REFUTE_LOG_Q


class TestCondition:
    def test_infinite_contained_is_true(self):
        inp = make_inputs(rpi_region=RegionDescriptor.everything(1))
        rep = B.check_condition(inp, 0.1, [0.5], 2000)
        assert rep["delta"]["ok"] and rep["delta/2"]["ok"]

    def test_boundary_inclusive(self):
        ok, _ = B._condition_verdict(make_inputs(), 0.1, [0.5],
                                     B.SearchResult(10, "exact"), 11.0)
        assert ok
        bad, _ = B._condition_verdict(make_inputs(), 0.1, [0.5],
                                      B.SearchResult(11, "exact"), 11.0)
        assert not bad

    def test_shared_analysis_matches_fresh_calls(self):
        inp = make_inputs()
        analysis = B.BoundAnalysis(inp, [0.5], 2000)
        shared = B.check_condition(inp, 0.1, [0.5], 2000, analysis=analysis)
        sched = B.compute_schedule(inp, 0.1, [0.5], 50, 2000, analysis=analysis)
        assert shared == B.check_condition(inp, 0.1, [0.5], 2000)
        assert sched.to_dict() == B.compute_schedule(inp, 0.1, [0.5], 50, 2000).to_dict()

    def test_analysis_for_other_inputs_rejected(self):
        inp = make_inputs()
        analysis = B.BoundAnalysis(inp, [0.5], 2000)
        with pytest.raises(ContractViolation):
            B.check_condition(make_inputs(), 0.1, [0.5], 2000, analysis=analysis)
        with pytest.raises(ContractViolation):
            B.check_condition(inp, 0.1, [0.5], 3000, analysis=analysis)
        with pytest.raises(ContractViolation):
            B.check_condition(inp, 0.1, [0.6], 2000, analysis=analysis)

    def test_enlarging_region_never_flips_true_to_false(self):
        verdicts = []
        for r in (2.0, 50.0, 5000.0, 5e5):
            inp = make_inputs(rpi_region=RegionDescriptor.interval(-r, r))
            rep = B.check_condition(inp, 0.1, [0.5], 4000)
            verdicts.append(rep["delta"]["ok"])
        # once true, stays true as the region grows
        first_true = verdicts.index(True) if True in verdicts else len(verdicts)
        assert all(verdicts[first_true:])


class TestNumericInverse:
    def test_exp(self):
        x = K.numeric_inverse(lambda r: math.exp(r) - 1.0, math.e - 1.0, (0, 10))
        assert x == pytest.approx(1.0, abs=1e-9)

    def test_identity(self):
        assert K.numeric_inverse(lambda r: r, 7.0, (0, 100)) == pytest.approx(7.0)

    def test_cube(self):
        x = K.numeric_inverse(lambda r: r ** 3, 8.0, (0, 100))
        assert x == pytest.approx(2.0, abs=1e-9)

    def test_bracket_violation(self):
        with pytest.raises(ContractViolation):
            K.numeric_inverse(lambda r: r, 200.0, (0, 100))


class TestComparisonFunctions:
    @pytest.mark.parametrize("fn", [K.identity(), K.scaled_identity(0.3),
                                    K.exp_minus_one(2.0), K.power(3.0)])
    def test_strictly_increasing_and_zero_at_zero(self, fn):
        grid = np.geomspace(1e-6, 1e2, 40)
        vals = fn(grid)
        assert fn(0.0) == 0.0
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("fn", [K.identity(), K.scaled_identity(0.3),
                                    K.exp_minus_one(2.0), K.power(3.0)])
    def test_inversion_roundtrip(self, fn):
        for r in np.geomspace(1e-6, 1e2, 25):
            y = float(fn(r))
            assert abs(float(fn(fn.inv(y))) - y) <= 1e-9 * (1.0 + y)

    def test_numeric_inverse_fallback(self):
        fn = K.MonotoneFn(lambda r: r + np.sin(r) * 0.1 + r ** 2, name="custom")
        y = float(fn.fn(2.0))
        assert fn.inv(y) == pytest.approx(2.0, abs=1e-8)
