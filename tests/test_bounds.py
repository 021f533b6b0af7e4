import math
import tracemalloc

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

    def test_dense_partial_sum_memory_is_chunked(self, pwa_bundle):
        """The Gramian partial sum works through DENSE_CHUNK blocks, so its
        peak memory does not grow with t (one array over all of [1, t] would
        take about 234 MiB at t = 5e6)."""
        inputs = pwa_bundle.bound_inputs()
        tracemalloc.start()
        try:
            B.error_envelope(5_000_000, 0.1, pwa_bundle.x0, inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20


def oracle_burn_in(inp, delta, x0, cap, witness=False):
    """Literal double-loop search over the printed predicate.  With witness,
    a T is kept only when the predicate's slack does not decrease over the
    last three t up to the cap, the evidence dense_times asks for before it
    reports a T as holding beyond the cap."""
    d3 = delta / 3.0
    t = np.arange(1, cap + 1, dtype=float)
    zsq = inp.z_bar_sq(t, d3, x0)
    s = np.cumsum(zsq)
    a = 2.0 / ((1.0 - math.log(2.0)) * inp.p_pe)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def oracle_converge(inp, delta, x0, cap):
    """max(oracle burn-in, one past the last t with the exact envelope above
    vartheta_bar)."""
    t = np.arange(1, cap + 1, dtype=float)
    zb = inp.z_bar(t, delta / 3.0, x0)
    e = inp.error_from_beta(t, delta, np.cumsum(zb ** 2) + inp.gamma)
    above = np.nonzero(e > inp.vartheta_bar)[0]
    t_e = int(t[above[-1]]) + 1 if above.size else 1
    return max(oracle_burn_in(inp, delta, x0, cap), t_e)


class TestSearches:
    def test_burn_in_matches_oracle(self):
        inp = make_inputs()
        for cap in (800, 3000):
            got = B.dense_times(inp, 0.1, [0.5], cap)[0]
            want = oracle_burn_in(inp, 0.1, [0.5], cap)
            assert got.value == want

    def test_burn_in_not_found_when_tiny_probability(self):
        inp = make_inputs(p_pe=1e-9, c_pe=1e-8)
        got = B.dense_times(inp, 0.1, [0.5], 2000)[0]
        assert not got.found

    def test_burn_in_decreases_with_more_excitation(self):
        lo = B.dense_times(make_inputs(p_pe=0.10), 0.1, [0.5], 20_000)[0]
        hi = B.dense_times(make_inputs(p_pe=0.24), 0.1, [0.5], 20_000)[0]
        assert hi.value <= lo.value

    def test_converge_matches_oracle(self):
        inp = make_inputs()
        got = B.dense_times(inp, 0.1, [0.5], 3000)[1]
        # oracle: last crossing of the exact envelope plus burn-in max
        t = np.arange(1, 3001, dtype=float)
        zb = inp.z_bar(t, 0.1 / 3.0, [0.5])
        e = inp.error_from_beta(t, 0.1, np.cumsum(zb ** 2) + inp.gamma)
        above = np.nonzero(e > inp.vartheta_bar)[0]
        t_e = int(t[above[-1]]) + 1 if above.size else 1
        assert got.value == max(oracle_burn_in(inp, 0.1, [0.5], 3000), t_e)

    def test_converge_dominated_by_burn_in(self):
        inp = make_inputs(vartheta_bar=1e9)
        burn, got = B.dense_times(inp, 0.1, [0.5], 3000)
        assert got.value == burn.value

    def test_converge_trivial_when_error_zero(self):
        inp = make_inputs(sigma_w=0.0, theta_star_frob=0.0)
        got = B.dense_times(inp, 0.1, [0.5], 3000)[1]
        assert got.diagnostics["first_below"] == 1

    def test_undefined_predicate_at_t1_is_skipped(self):
        """With u_max = 0 and x0 = 0, z_bar(1) = 0 and r(1) is 0/0; the pass
        skips it and finds the times the oracle finds."""
        inp = make_inputs(u_max=0.0)
        burn, conv = B.dense_times(inp, 0.1, [0.0], 3000)
        assert burn.value == conv.value == 1790
        assert burn.value == oracle_burn_in(inp, 0.1, [0.0], 3000, witness=True)

    def test_multi_chunk_pass_matches_oracles(self, monkeypatch):
        """Chunks of a few points, with caps whose last three t straddle a
        chunk boundary, give the oracles' burn-in and converge times."""
        inp = make_inputs()
        for chunk, caps in ((2, (2001, 2002)), (7, (2003, 2004)), (1000, (3001, 3002))):
            monkeypatch.setattr(B, "DENSE_CHUNK", chunk)
            for cap in caps:
                burn, conv = B.dense_times(inp, 0.1, [0.5], cap)
                assert burn.value == oracle_burn_in(inp, 0.1, [0.5], cap, witness=True)
                assert conv.value == oracle_converge(inp, 0.1, [0.5], cap)

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

    def test_contained_crossing_at_the_last_doubling_probe(self):
        """A crossing near 8e17 is found by the last doubling probe, past
        CONTAINED_PROBE_CAP / 2: T_contained is finite, not inf."""
        tiny = K.scaled_identity(1e-300)
        inp = make_inputs(cfs=simple_cfs(chi3=tiny, chi4=tiny), sigma_w=0.0,
                          rpi_region=RegionDescriptor.interval(-8e8, 8e8))
        tc = B.contained_time(inp, 0.1, [0.5])
        assert B.CONTAINED_PROBE_CAP / 2 < tc < B.CONTAINED_PROBE_CAP
        radius = inp.rpi_region.max_norm()
        assert inp.x_bar(float(tc), 0.1 / 3.0, [0.5]) <= radius
        assert inp.x_bar(float(tc + 1), 0.1 / 3.0, [0.5]) > radius
        reason = B.check_condition(inp, 0.1, [0.5], 2000)["delta"]["reason"]
        assert "inf" not in reason

    def test_contained_lower_bound_when_no_probe_leaves(self):
        """The state bound leaves [-5e8, 5e8] only near 5e18 (x_bar(6e18) is
        6.0e8), past the last doubling probe 2^60: T_contained is that probe,
        a finite lower bound, not inf, and the verdict says so."""
        tiny = K.scaled_identity(1e-300)
        inp = make_inputs(cfs=simple_cfs(chi1=K.scaled_identity(1e-10), chi3=tiny,
                                         chi4=tiny),
                          sigma_w=0.0, rpi_region=RegionDescriptor.interval(-5e8, 5e8))
        radius = inp.rpi_region.max_norm()
        assert inp.x_bar(6e18, 0.1 / 3.0, [0.5]) > radius
        tc = B.contained_time(inp, 0.1, [0.5])
        assert tc == 2 ** 60
        assert inp.x_bar(float(tc), 0.1 / 3.0, [0.5]) <= radius
        for verdict in B.check_condition(inp, 0.1, [0.5], 2000).values():
            assert verdict["T_contained"] == 2 ** 60
            assert "inf" not in verdict["reason"]
            assert "lower bound" in verdict["reason"]

    def test_contained_monotone_in_radius(self):
        prev = 0
        for r in (5.0, 20.0, 80.0, 320.0):
            inp = make_inputs(rpi_region=RegionDescriptor.interval(-r, r))
            tc = B.contained_time(inp, 0.1, [0.5])
            assert tc >= prev
            prev = tc

    def test_certified_upper_bounds_exceed_exact(self):
        inp = make_inputs()
        exact, cv = B.dense_times(inp, 0.1, [0.5], 10_000)
        ub = B.certified_burn_in_upper(inp, 0.1, [0.5])
        assert ub.found and ub.value >= exact.value
        cu = B.certified_converge_upper(inp, 0.1, [0.5], burn_in_ub=ub)
        assert cu.found and cu.value >= cv.value


def sixty_step_bisect(verify, lo, hi):
    """The geometric bisection of the certified searches, all 60 steps."""
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if verify(mid):
            hi = mid
        else:
            lo = mid
    return hi


def plain_certified(inp, delta, x0):
    """The certified burn-in and converge values with all 60 bisection steps
    (None where a search finds nothing)."""
    def search(verify, t):
        while t < 1e200 and not verify(t):
            t *= 2.0
        if t >= 1e200:
            return None
        return sixty_step_bisect(verify, t / 2.0, t)

    hi = search(lambda T: B._verify_burn_in_upper(inp, delta, x0, T), 2.0)
    if hi is None:
        return None, None
    burn = math.ceil(hi) if hi < 2 ** 53 else hi
    hi = search(lambda T: B._verify_error_below(inp, delta, x0, T, inp.vartheta_bar),
                max(float(burn), 2.0))
    if hi is None:
        return burn, None
    conv = max(float(burn), hi)
    return burn, (math.ceil(conv) if conv < 2 ** 53 else conv)


def loop_ladder(t_start, fine_ratio=1.02, fine_decades=1.0, coarse_ratio=2.0,
                t_max=1e280):
    """The probe ladder built one multiply and append at a time."""
    probes = [t_start]
    t = t_start
    while t < t_start * 10 ** fine_decades:
        t *= fine_ratio
        probes.append(t)
    while t < t_max:
        t *= coarse_ratio
        probes.append(t)
    return np.array(probes)


@given(st.one_of(st.floats(2.0, 1e279),
                 st.sampled_from([2.0, 62564757532.0, 2.0 ** 53, 1e200])))
@settings(max_examples=500, deadline=None)
def test_probe_ladder_matches_the_loop_bit_for_bit(t_start):
    want = loop_ladder(t_start)
    got = B._probe_ladder(t_start)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestCertifiedBisection:
    """Stopping the bisection once no step can change the result returns
    what all 60 steps return."""

    @given(threshold=st.floats(1e-3, 1e30), lo=st.floats(1.0, 1e25),
           floor=st.one_of(st.just(-math.inf), st.floats(0.0, 1e30)))
    @settings(max_examples=300, deadline=None)
    def test_bisection_matches_sixty_steps(self, threshold, lo, floor):
        """A threshold predicate T >= threshold, below, inside or above the
        bracket [lo, 2 lo]; at or below lo the bracket shrinks onto an
        unverified lo."""
        hi = 2.0 * lo
        verify = lambda T: T >= min(threshold, hi)  # noqa: E731
        want = max(floor, sixty_step_bisect(verify, lo, hi))
        _, got, steps = B._bisect_verified(verify, lo, hi, floor)
        got = max(floor, got)
        if want < 2 ** 53:
            assert math.ceil(got) == math.ceil(want)
        else:
            assert got == want
        assert steps <= B.BISECT_STEPS

    def test_stops_early_on_the_test_inputs(self):
        inp = make_inputs()
        burn = B.certified_burn_in_upper(inp, 0.1, [0.5])
        conv = B.certified_converge_upper(inp, 0.1, [0.5], burn_in_ub=burn)
        assert (burn.value, conv.value) == plain_certified(inp, 0.1, [0.5])
        assert burn.diagnostics["bisection_steps"] < B.BISECT_STEPS
        assert conv.diagnostics["bisection_steps"] < B.BISECT_STEPS

    @given(slope=st.floats(1e-3, 0.5), u_max=st.floats(0.05, 1.0),
           sigma_w=st.floats(0.0, 0.1), d=st.integers(1, 3),
           c_pe=st.floats(0.1, 2.0), p_pe=st.floats(0.05, 0.25),
           delta=st.floats(0.01, 0.5), x0=st.floats(0.0, 2.0),
           vartheta_bar=st.floats(1e-3, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_sixty_steps(self, slope, u_max, sigma_w, d, c_pe,
                                          p_pe, delta, x0, vartheta_bar):
        inp = make_inputs(cfs=simple_cfs(chi3=K.scaled_identity(slope)),
                          u_max=u_max, sigma_w=sigma_w, d=d, c_pe=c_pe, p_pe=p_pe,
                          vartheta_bar=vartheta_bar)
        burn = B.certified_burn_in_upper(inp, delta, [x0])
        conv = B.certified_converge_upper(inp, delta, [x0], burn_in_ub=burn)
        assert (burn.value, conv.value) == plain_certified(inp, delta, [x0])


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
        while self.refuted(B.dense_times(inp, 0.1, [0.5], c_r + 1)[0]):
            c_r += 1
        assert self.refuted(B.dense_times(inp, 0.1, [0.5], c_r)[0])
        for cap in (c_r - 1, c_r, c_r + 1, T - 1, T, T + 1, 2 * T):
            got = B.dense_times(inp, 0.1, [0.5], cap)[0]
            assert got.value == oracle_burn_in(inp, 0.1, [0.5], cap, witness=True)
            assert self.refuted(got) == (cap <= c_r)
        assert B.dense_times(inp, 0.1, [0.5], 2 * T)[0].value == T

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
        got = B.dense_times(inp, delta, [x0], cap)[0]
        assert got.value == oracle_burn_in(inp, delta, [x0], cap, witness=True)

    def test_witness_failure_is_conservative(self):
        """At cap 1850 the literal predicate holds from some T <= cap, but its
        slack decreases at the cap, so the search reports not-found."""
        inp = make_inputs()
        assert oracle_burn_in(inp, 0.1, [0.5], 1850) is not None
        got = B.dense_times(inp, 0.1, [0.5], 1850)[0]
        assert got.mode == "not-found"
        assert got.diagnostics["reason"] == "slack not increasing at cap"

    def test_hopeless_cap_refuted_without_scanning(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("a dense chunk was scanned")
        monkeypatch.setattr(B, "_zsq_chunk", no_scan)
        got = B.dense_times(make_inputs(p_pe=1e-9, c_pe=1e-8), 0.1, [0.5], 2000)[0]
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
