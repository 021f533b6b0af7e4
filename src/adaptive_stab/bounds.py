"""Closed-form stability-theory quantities: high-probability noise/state/
regressor bounds, Gramian envelopes, the estimation-error envelope, the
characteristic times (burn-in, contained, converge), the theorem condition,
and the explicit transient/steady-state stability envelope.

Two search regimes coexist:

* dense: one exact chunked forward pass over the cumulative sums up to a
  user cap yields both the burn-in and the converge time, matching a
  brute-force oracle step for step (the default, and the only mode tests
  compare against an oracle); a cap so far below the burn-in time that the
  predicate fails at the cap even with the smallest cumulative sum possible
  is refuted in O(1), without a pass;
* certified-upper: when the exact search's cap is hopelessly below the true
  time (realistic configurations certify times around 1e9..1e17), a
  conservative mode replaces cumulative sums by the dominating bound
  sum_{i<=t} f(i) <= t*f(t) (f non-decreasing) and certifies the "for all
  t >= T" quantifier on geometric probe brackets.  Results are flagged and
  are valid upper bounds, never claimed minimal.

A BoundAnalysis runs each regime at most once per delta for one
(inputs, x0, cap) and serves the schedule, the condition and the envelope.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CertificationError, ContractViolation, MissingPrerequisite
from .kfuncs import MonotoneFn, scaled_identity
from .regions import RegionDescriptor

DENSE_CHUNK = 1_000_000
DENSE_LIMIT = 50_000_000          # largest cap the exact scans will attempt
LAMBDA_FLOOR = 1e-30              # early exit for lambda-map iterates
REFUTE_LOG_Q = -1.0               # margin of the O(1) burn-in cap refutation
BISECT_STEPS = 60                 # most geometric bisection steps of a certified search
CONTAINED_PROBE_CAP = 1e18        # doubling probes stop here; T_contained is then a lower bound
LADDER_FINE_RATIO = 1.02          # certified probe ladder: fine spacing ...
LADDER_FINE_DECADES = 1.0         # ... over this many decades above the start,
LADDER_COARSE_RATIO = 2.0         # octaves beyond ...
LADDER_T_MAX = 1e280              # ... up to this probe
LAMBDA_GRID = 8192                # running-max grid points of a non-linear lambda map


@dataclass(frozen=True)
class ComparisonFunctionSet:
    """Growth envelopes of the reachable-state and basis-magnitude bounds.

    chi1, chi3, sigma2 are sub-exponential K-infinity envelopes, chi4 is the
    order-2 one, chi2 and sigma1 plain K-infinity, chi5 the polynomially
    bounded basis envelope, c1 a constant offset.
    """

    chi1: MonotoneFn
    chi2: MonotoneFn
    chi3: MonotoneFn
    chi4: MonotoneFn
    chi5: MonotoneFn
    sigma1: MonotoneFn
    sigma2: MonotoneFn
    c1: float = 0.0


def noise_bound(t, delta: float, sigma_w: float, n: int):
    """High-probability process-noise magnitude bound; zero at t = 0."""
    if not 0.0 < delta < 1.0:
        raise ContractViolation(f"delta must be in (0,1), got {delta}")
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr)
    pos = t_arr >= 1
    if np.any(pos):
        # log(n pi^2 t^2 / (3 delta)) evaluated without forming t^2
        log_arg = math.log(n * math.pi ** 2 / (3.0 * delta)) + 2.0 * np.log(t_arr[pos])
        out[pos] = sigma_w * np.sqrt(2.0 * n * log_arg)
    return float(out) if np.ndim(t) == 0 else out


def state_bound(t, delta: float, x0, cfs: ComparisonFunctionSet,
                u_max: float, sigma_w: float, n: int):
    """High-probability reachable-state magnitude bound."""
    t_arr = np.asarray(t, dtype=float)
    x0_norm = float(np.linalg.norm(np.atleast_1d(np.asarray(x0, dtype=float))))
    w = noise_bound(t_arr, delta, sigma_w, n)
    out = (cfs.chi1(t_arr) + cfs.chi2(x0_norm)
           + cfs.chi3(t_arr * cfs.sigma1(u_max))
           + cfs.chi4(t_arr * cfs.sigma2(w)) + cfs.c1)
    return float(out) if np.ndim(t) == 0 else np.asarray(out)


def regressor_bound(t, delta: float, x0, cfs: ComparisonFunctionSet,
                    u_max: float, sigma_w: float, n: int):
    """High-probability regressor magnitude bound (defined for t >= 1)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 1):
        raise ContractViolation("regressor bound is defined for t >= 1")
    xb = state_bound(t_arr - 1.0, delta, x0, cfs, u_max, sigma_w, n)
    out = cfs.chi5(np.hypot(xb, u_max))
    return float(out) if np.ndim(t) == 0 else np.asarray(out)


def gramian_upper(t: int, delta: float, x0, cfs: ComparisonFunctionSet,
                  u_max: float, sigma_w: float, n: int, gamma: float) -> float:
    """Exact partial sum of squared regressor bounds plus the regulariser."""
    if t < 1:
        raise ContractViolation("Gramian upper bound is defined for t >= 1")
    if t > DENSE_LIMIT:
        raise ContractViolation(f"direct partial sum capped at {DENSE_LIMIT}; "
                                "use the schedule machinery for larger t")
    total = 0.0
    for lo, hi in _chunk_ranges(1, t):
        idx = np.arange(lo, hi + 1, dtype=float)
        total += np.sum(np.square(regressor_bound(idx, delta, x0, cfs, u_max, sigma_w, n)))
    return float(total + gamma)


@dataclass(frozen=True)
class BoundInputs:
    """Everything the schedule computations need about one configuration."""

    cfs: ComparisonFunctionSet
    u_max: float
    sigma_w: float
    n: int
    d: int
    gamma: float
    theta_star_frob: float
    c_pe: float
    p_pe: float
    vartheta_bar: float
    rpi_region: RegionDescriptor
    state_space: RegionDescriptor

    def __post_init__(self):
        if self.gamma <= 0:
            raise ContractViolation("gamma must be positive")
        if self.c_pe <= 0 or not 0 < self.p_pe <= 0.25:
            raise MissingPrerequisite(
                "a valid excitation certificate (c_PE > 0, 0 < p_PE <= 1/4) is required")

    # -- pointwise pieces ---------------------------------------------------

    def w_bar(self, t, delta):
        return noise_bound(t, delta, self.sigma_w, self.n)

    def x_bar(self, t, delta, x0):
        return state_bound(t, delta, x0, self.cfs, self.u_max, self.sigma_w, self.n)

    def z_bar(self, t, delta, x0):
        return regressor_bound(t, delta, x0, self.cfs, self.u_max, self.sigma_w, self.n)

    def z_bar_sq(self, t, delta, x0):
        zb = self.z_bar(t, delta, x0)
        return np.square(zb) if np.ndim(t) else float(zb) ** 2

    def error_from_beta(self, t, delta, beta_max_val):
        """Estimation-error envelope given the Gramian bound at delta/3."""
        t_arr = np.asarray(t, dtype=float)
        denom = np.sqrt(self.c_pe * self.p_pe * (t_arr - 1.0) / 4.0 + self.gamma)
        log_term = (np.log(3.0 * self.n / delta)
                    + (self.d / 2.0) * np.log(np.asarray(beta_max_val) / self.gamma))
        num = (math.sqrt(self.gamma) * self.theta_star_frob
               + self.sigma_w * np.sqrt(2.0 * self.n * log_term))
        out = num / denom
        return float(out) if np.ndim(t) == 0 else np.asarray(out)

    # -- burn-in predicate pieces -------------------------------------------

    def _burn_in_prefactor(self):
        return 2.0 / ((1.0 - math.log(2.0)) * self.p_pe)

    def _burn_in_base(self, t_arr, s_cum):
        """d-dependent part of the burn-in RHS (everything except the
        T-dependent log penalty and the trailing +1)."""
        a = self._burn_in_prefactor()
        with np.errstate(divide="ignore", invalid="ignore"):   # t = 1
            y = 16.0 * s_cum / (self.c_pe * self.p_pe * (t_arr - 1.0))
        return a * self.d * np.log1p(y)

    def _burn_in_log_q(self, t_arr, s_cum, delta):
        """log q(t): the predicate at t holds for a burn-in T exactly when
        T >= r(t) = t + 1 - q(t).  Non-increasing in s_cum."""
        m = t_arr - 1.0 - self._burn_in_base(t_arr, s_cum)
        return 0.5 * (m / self._burn_in_prefactor()
                      + math.log(2.0 * delta / math.pi ** 2))

    def _burn_in_penalty(self, t_arr, T, delta):
        a = self._burn_in_prefactor()
        return a * np.log(math.pi ** 2 * (t_arr - T + 1.0) ** 2 / (2.0 * delta))


def error_envelope(t, delta: float, x0, inputs: BoundInputs) -> float:
    """Exact estimation-error envelope (dense partial sums)."""
    if t < 1:
        raise ContractViolation("error envelope is defined for t >= 1")
    beta = gramian_upper(t, delta / 3.0, x0, inputs.cfs, inputs.u_max,
                         inputs.sigma_w, inputs.n, inputs.gamma)
    return float(inputs.error_from_beta(t, delta, beta))


# ---------------------------------------------------------------------------
# characteristic-time searches
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    """Outcome of a burn-in/converge search.

    value is None when the predicate could not be certified under the cap;
    mode records whether the value is the exact dense-scan minimum or a
    certified conservative upper bound.
    """

    value: Optional[float]
    mode: str = "exact"            # "exact" | "upper-bound" | "not-found"
    diagnostics: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.value is not None


def _chunk_ranges(lo: int, hi: int):
    start = lo
    while start <= hi:
        end = min(start + DENSE_CHUNK - 1, hi)
        yield start, end
        start = end + 1


def _zsq_chunk(inputs: BoundInputs, delta3: float, x0, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi + 1, dtype=float)
    return inputs.z_bar_sq(idx, delta3, x0)


def _dense_pass(inputs: BoundInputs, delta: float, x0, cap: int):
    """One forward pass over s_cum(t) = sum_{i<=t} z_bar(i)^2 on [1, cap]:
    the largest burn-in threshold r(t), the last t with the error envelope
    above vartheta_bar (0 if none), and s_cum and e at the last min(3, cap) t.
    """
    delta3 = delta / 3.0
    max_r, last_above, total = -math.inf, 0, 0.0
    s_tail = e_tail = np.empty(0)
    for lo, hi in _chunk_ranges(1, cap):
        t_arr = np.arange(lo, hi + 1, dtype=float)
        s_cum = np.cumsum(_zsq_chunk(inputs, delta3, x0, lo, hi)) + total
        total = float(s_cum[-1])
        q = np.exp(np.minimum(inputs._burn_in_log_q(t_arr, s_cum, delta), 700.0))
        r = t_arr + 1.0 - q
        # the predicate at t = 1 is 0/0 when z_bar(1) = 0; it never holds
        max_r = max(max_r, float(np.max(np.where(np.isnan(r), t_arr + 1.0, r))))
        e_vals = inputs.error_from_beta(t_arr, delta, s_cum + inputs.gamma)
        above = np.nonzero(e_vals > inputs.vartheta_bar)[0]
        if above.size:
            last_above = lo + int(above[-1])
        s_tail = np.concatenate([s_tail, s_cum[-3:]])[-3:]
        e_tail = np.concatenate([e_tail, e_vals[-3:]])[-3:]
    return max_r, last_above, s_tail, e_tail


def dense_times(inputs: BoundInputs, delta: float, x0, cap: int
                ) -> tuple[SearchResult, SearchResult]:
    """Exact burn-in and converge times up to cap from one chunked forward
    pass, skipped when an O(1) bound already rules out every burn-in T <= cap.

    Burn-in is the smallest T <= cap such that the persistency-of-excitation
    onset predicate holds for every t in [T, cap].  The predicate at t holds
    exactly when T >= r(t) = t + 1 - q(t), and r(t) <= t + 1 (also in
    floats), so no t < T can exceed T: the smallest T is max(1, ceil(max r)).
    It is reported only with a slack-monotonicity witness at the cap,
    evidence that the predicate keeps holding beyond the cap, so the search
    is conservative: when the predicate's slack decreases over t = cap-2..cap
    the result is not-found even if such a T exists (e.g. at caps just above
    the smallest T), never a T the predicate rejects.

    Converge is max(burn-in, first time the error envelope stays below
    vartheta_bar), with an eventual-decrease witness at the cap.
    """
    if not 0.0 < delta < 1.0:
        raise ContractViolation("delta must be in (0,1)")
    cap = int(cap)
    if cap < 1:
        raise ContractViolation("cap must be >= 1")
    if cap > DENSE_LIMIT:
        raise ContractViolation(f"dense scan capped at {DENSE_LIMIT}")

    # refutation: a T <= cap needs cap >= r(cap), i.e. q(cap) >= 1.  q falls
    # as s_cum grows, and s_cum(cap) >= cap z_bar(1)^2 since z_bar is
    # non-decreasing, so q at that smaller sum bounds q(cap) from above.
    t_cap = np.array([float(cap)])
    s_low = t_cap * inputs.z_bar_sq(1.0, delta / 3.0, x0)
    log_q_upper = float(inputs._burn_in_log_q(t_cap, s_low, delta)[0])
    if log_q_upper < REFUTE_LOG_Q:
        burn = SearchResult(None, "not-found",
                            {"cap": cap, "reason": "refuted: q(cap) < 1 by the "
                             "lower bound s_cum(cap) >= cap z_bar(1)^2",
                             "log_q_upper": log_q_upper})
    else:
        max_r, last_above, s_tail, e_tail = _dense_pass(inputs, delta, x0, cap)
        burn = _burn_in_witness(inputs, delta, cap, max_r, s_tail)
    if not burn.found:
        return burn, SearchResult(None, "not-found",
                                  {"reason": "burn-in not found", **burn.diagnostics})

    t_e = last_above + 1
    if t_e > cap:
        return burn, SearchResult(None, "not-found",
                                  {"reason": "error envelope above vartheta_bar at cap",
                                   "e_tail": e_tail.tolist(), "cap": cap})
    if not np.all(np.diff(e_tail) <= 0.0):
        return burn, SearchResult(None, "not-found",
                                  {"reason": "error envelope not decreasing at cap",
                                   "e_tail": e_tail.tolist(), "cap": cap})
    return burn, SearchResult(max(burn.value, t_e), "exact",
                              {"burn_in": burn.value, "first_below": t_e, "cap": cap})


def _burn_in_witness(inputs: BoundInputs, delta: float, cap: int, max_r: float,
                     s_tail: np.ndarray) -> SearchResult:
    """The burn-in T = max(1, ceil(max_r)), exact when T <= cap and the
    predicate's slack does not decrease over t = max(T, cap-2)..cap (s_tail
    holds s_cum at the last min(3, cap) t)."""
    T = max(1, math.ceil(max_r))
    if T > cap:
        return SearchResult(None, "not-found", {"cap": cap, "max_r": max_r})
    probe = np.maximum(T, np.arange(cap - 2, cap + 1))
    s_probe = s_tail[probe - cap - 1]
    probe = probe.astype(float)
    slack = (probe - 1.0 - inputs._burn_in_base(probe, s_probe)
             - inputs._burn_in_penalty(probe, T, delta))
    if not np.all(np.diff(slack) >= 0.0):
        return SearchResult(None, "not-found",
                            {"cap": cap, "reason": "slack not increasing at cap",
                             "slack_tail": slack.tolist()})
    return SearchResult(T, "exact", {"cap": cap, "slack_tail": slack.tolist()})


def contained_time(inputs: BoundInputs, delta: float, x0) -> float:
    """Largest T with the confidence-delta/3 state bound inside the invariant
    region; math.inf only when the invariant region covers the state space,
    0 when even T = 1 fails.  When no doubling probe up to
    CONTAINED_PROBE_CAP leaves the region, the last probe (2^60) is returned:
    the state bound is inside up to it, so it is a lower bound on the largest
    T, and a condition checked against it errs on the safe side.
    """
    rpi = inputs.rpi_region
    space = inputs.state_space
    if rpi.is_all or (space.is_bounded and rpi.max_norm() >= space.max_norm()):
        return math.inf
    radius = rpi.max_norm()
    delta3 = delta / 3.0

    def xb(t: float) -> float:
        return float(inputs.x_bar(float(t), delta3, x0))

    if xb(1) > radius:
        return 0
    t = 1
    while t < CONTAINED_PROBE_CAP and xb(2 * t) <= radius:
        t *= 2
    if t >= CONTAINED_PROBE_CAP:
        return t  # no probe up to the cap leaves the region: a lower bound
    lo, hi = t, 2 * t  # xb(lo) <= radius < xb(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xb(mid) <= radius:
            lo = mid
        else:
            hi = mid
    return int(lo)


# ---------------------------------------------------------------------------
# certified conservative upper bounds (for scales beyond any dense scan)
# ---------------------------------------------------------------------------

def _geometric_run(t0: float, ratio: float, limit: float) -> np.ndarray:
    """t0, t0*r, (t0*r)*r, ... up to the first product >= limit: the same
    sequential products as multiplying in a loop while t < limit."""
    if not t0 < limit:
        return np.array([t0])
    n = math.ceil(math.log(limit / t0) / math.log(ratio)) + 2
    run = np.multiply.accumulate(np.r_[t0, np.full(n, ratio)])
    return run[: int(np.argmax(run >= limit)) + 1]


def _probe_ladder(t_start: float) -> np.ndarray:
    """Geometric probe points: fine spacing near t_start, octaves beyond."""
    fine = _geometric_run(t_start, LADDER_FINE_RATIO, t_start * 10 ** LADDER_FINE_DECADES)
    coarse = _geometric_run(fine[-1], LADDER_COARSE_RATIO, LADDER_T_MAX)
    return np.concatenate([fine, coarse[1:]])


def _log_zsq(inputs: BoundInputs, delta3: float, x0, t_arr):
    """2 log z_bar(t), safe for t far outside the square-representable range."""
    zb = inputs.z_bar(t_arr, delta3, x0)
    return 2.0 * np.log(zb)


def _burn_in_rhs_upper(inputs: BoundInputs, delta: float, x0, t_arr, T: float):
    """Burn-in RHS with the dominating sum t * z_bar(t)^2 (valid upper bound
    because z_bar is non-decreasing).  Log-domain throughout so the geometric
    probes can reach astronomically large t without overflow.
    """
    delta3 = delta / 3.0
    a_pre = inputs._burn_in_prefactor()
    log_y = (math.log(16.0) + np.log(t_arr) + _log_zsq(inputs, delta3, x0, t_arr)
             - math.log(inputs.c_pe * inputs.p_pe) - np.log(t_arr - 1.0))
    base = a_pre * inputs.d * np.logaddexp(0.0, log_y)
    pen = a_pre * (math.log(math.pi ** 2 / (2.0 * delta))
                   + 2.0 * np.log(t_arr - T + 1.0))
    return base + pen + 1.0


def _verify_burn_in_upper(inputs: BoundInputs, delta: float, x0, T: float) -> bool:
    """Certify the burn-in predicate for all t >= T on bracket intervals:
    the RHS is increasing in t, so t_j >= RHS(t_{j+1}) covers [t_j, t_{j+1}].
    """
    probes = _probe_ladder(max(T, 2.0))
    rhs = _burn_in_rhs_upper(inputs, delta, x0, probes[1:], T)
    ok = probes[:-1] >= rhs
    if not bool(np.all(ok)):
        return False
    # trailing margins must grow (octave-domination witness)
    margins = probes[:-1] - rhs
    return bool(np.all(np.diff(margins[-8:]) > 0.0))


def _bisect_verified(verify: Callable[[float], bool], lo: float, hi: float,
                     floor: float = -math.inf) -> tuple[float, float, int]:
    """Geometric bisection of [lo, hi], hi verified, for BISECT_STEPS steps
    at most: a verified midpoint becomes hi, a failed one lo.  Returns the
    final bracket and the number of verifications.

    The callers return max(floor, hi), rounded up to an integer below 2^53.
    The bisection stops as soon as no further step can change that value,
    so it equals the value after all BISECT_STEPS steps (every later hi lies
    in [lo, hi]): once hi <= floor; below 2^53 once ceil(lo) == ceil(hi);
    and once the midpoint rounds to hi or to a lo that failed, since every
    later step then repeats it.  The initial lo is not known to fail (the
    first doubling probe may have passed), so it is verified once if the
    midpoint rounds to it.
    """
    lo_failed = False
    for step in range(BISECT_STEPS):
        if hi <= floor or (hi < 2 ** 53 and math.ceil(lo) == math.ceil(hi)):
            return lo, hi, step
        mid = math.sqrt(lo * hi)
        if mid == hi or (mid == lo and lo_failed):
            return lo, hi, step
        if verify(mid):
            hi = mid
        else:
            lo, lo_failed = mid, True
    return lo, hi, BISECT_STEPS


def _certified_upper(verify: Callable[[float], bool], start: float,
                     floor: float = -math.inf) -> Optional[SearchResult]:
    """Double t from start until verify(t) holds, then bisect [t/2, t]: the
    value max(floor, hi), rounded up to an integer below 2^53, as an upper
    bound; None when no doubling probe below 1e200 verifies."""
    t = start
    while t < 1e200:
        if verify(t):
            break
        t *= 2.0
    else:
        return None
    lo, hi, steps = _bisect_verified(verify, t / 2.0, t, floor)
    value = max(floor, hi)
    value = math.ceil(value) if value < 2 ** 53 else value
    return SearchResult(value, "upper-bound",
                        {"bracket": (lo, hi), "bisection_steps": steps})


def certified_burn_in_upper(inputs: BoundInputs, delta: float, x0) -> SearchResult:
    """A certified upper bound on the burn-in time, using dominated sums and
    geometric bracket verification.  Valid but not minimal.
    """
    found = _certified_upper(lambda T: _verify_burn_in_upper(inputs, delta, x0, T), 2.0)
    if found is None:
        return SearchResult(None, "not-found", {"reason": "no verifiable T below 1e200"})
    return found


def _error_num_den(inputs: BoundInputs, delta: float, x0, t_arr):
    """Numerator and denominator of the conservative error envelope,
    log-domain safe for astronomically large t."""
    delta3 = delta / 3.0
    log_beta = np.logaddexp(np.log(t_arr) + _log_zsq(inputs, delta3, x0, t_arr),
                            math.log(inputs.gamma))
    log_term = (math.log(3.0 * inputs.n / delta)
                + (inputs.d / 2.0) * (log_beta - math.log(inputs.gamma)))
    num = (math.sqrt(inputs.gamma) * inputs.theta_star_frob
           + inputs.sigma_w * np.sqrt(2.0 * inputs.n * log_term))
    den = np.sqrt(inputs.c_pe * inputs.p_pe * (t_arr - 1.0) / 4.0 + inputs.gamma)
    return num, den


def _verify_error_below(inputs: BoundInputs, delta: float, x0, T: float,
                        threshold: float) -> bool:
    """Certify e(t) <= threshold for all t >= T on bracket intervals: the
    numerator is increasing and the denominator increasing, so
    num(t_{j+1})/den(t_j) bounds the envelope on [t_j, t_{j+1}].
    """
    probes = _probe_ladder(max(T, 2.0))
    num, _ = _error_num_den(inputs, delta, x0, probes[1:])
    _, den = _error_num_den(inputs, delta, x0, probes[:-1])
    ratio = num / den
    if not bool(np.all(ratio <= threshold)):
        return False
    return bool(np.all(np.diff(ratio[-8:]) < 0.0))


def certified_converge_upper(inputs: BoundInputs, delta: float, x0,
                             burn_in_ub: SearchResult) -> SearchResult:
    """Certified upper bound on the converge time (conservative envelope),
    no smaller than the certified burn-in bound burn_in_ub."""
    if not burn_in_ub.found:
        return SearchResult(None, "not-found", burn_in_ub.diagnostics)
    floor = float(burn_in_ub.value)
    found = _certified_upper(
        lambda T: _verify_error_below(inputs, delta, x0, T, inputs.vartheta_bar),
        max(floor, 2.0), floor)
    if found is None:
        return SearchResult(None, "not-found",
                            {"reason": "error envelope never certified below vartheta_bar"})
    found.diagnostics["burn_in_ub"] = burn_in_ub.value
    return found


# ---------------------------------------------------------------------------
# schedules and the theorem condition
# ---------------------------------------------------------------------------

@dataclass
class BoundSchedule:
    """Time-indexed bound sequences plus the characteristic times at one
    (delta, x0).  Sequences w_bar/x_bar/z_bar/beta_max are reported at the
    delta/3 confidence split the theorems consume; e is at delta itself.
    """

    delta: float
    x0: np.ndarray
    horizon: int
    cap: int
    t: np.ndarray            # 0..horizon
    w_bar: np.ndarray        # 0..horizon, at delta/3
    x_bar: np.ndarray        # 0..horizon, at delta/3
    z_bar: np.ndarray        # 1..horizon, at delta/3
    beta_max: np.ndarray     # 1..horizon, at delta/3
    e: np.ndarray            # 1..horizon, at delta
    T_burn_in: SearchResult = None
    T_contained: float = 0.0
    T_converge: SearchResult = None
    condition_ok: bool = False
    condition_reason: str = ""

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "x0": np.atleast_1d(self.x0).tolist(),
            "horizon": self.horizon,
            "cap": self.cap,
            "T_burn_in": self.T_burn_in.value if self.T_burn_in else None,
            "T_burn_in_mode": self.T_burn_in.mode if self.T_burn_in else "not-run",
            "T_contained": ("inf" if math.isinf(self.T_contained) else self.T_contained),
            "T_converge": self.T_converge.value if self.T_converge else None,
            "T_converge_mode": self.T_converge.mode if self.T_converge else "not-run",
            "condition_ok": self.condition_ok,
            "condition_reason": self.condition_reason,
        }


class BoundAnalysis:
    """The characteristic-time searches of one (inputs, x0, cap), each run at
    most once per delta and shared by compute_schedule, check_condition and
    stability_envelope.

    On the first use of a delta, one dense forward pass up to the cap (or
    its O(1) refutation) gives the exact burn-in and converge times; the
    certified conservative searches run only when the dense converge time
    comes up empty and the caller allows the conservative mode.
    """

    def __init__(self, inputs: BoundInputs, x0, cap: int):
        self.inputs = inputs
        self.x0 = x0
        self.cap = int(cap)
        self._memo: dict = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def dense(self, delta: float) -> tuple[SearchResult, SearchResult]:
        """Exact burn-in and converge results at delta (one dense pass)."""
        return self._once(("dense", delta),
                          lambda: dense_times(self.inputs, delta, self.x0, self.cap))

    def certified(self, delta: float) -> tuple[SearchResult, SearchResult]:
        """Certified upper bounds on the burn-in and converge times at delta."""
        def run():
            burn_ub = certified_burn_in_upper(self.inputs, delta, self.x0)
            return burn_ub, certified_converge_upper(self.inputs, delta, self.x0,
                                                     burn_in_ub=burn_ub)
        return self._once(("certified", delta), run)

    def contained(self, delta: float) -> float:
        return self._once(("contained", delta),
                          lambda: contained_time(self.inputs, delta, self.x0))

    def times(self, delta: float, conservative: bool = True
              ) -> tuple[SearchResult, SearchResult]:
        """Burn-in and converge results at delta: the exact minima, replaced
        by the certified upper bounds that exist when the dense converge
        time comes up empty and conservative mode is allowed."""
        burn, conv = self.dense(delta)
        if not conv.found and conservative:
            burn_ub, conv_ub = self.certified(delta)
            if burn_ub.found and not burn.found:
                burn = burn_ub
            if conv_ub.found:
                conv = conv_ub
        return burn, conv

    def verdict(self, delta: float, conservative: bool = True) -> tuple[bool, str]:
        """The theorem condition T_converge + 1 <= T_contained at delta."""
        return self._once(("verdict", delta, conservative), lambda: _condition_verdict(
            self.inputs, delta, self.x0, self.times(delta, conservative)[1],
            self.contained(delta)))


def _analysis(inputs: BoundInputs, x0, cap: int,
              analysis: Optional[BoundAnalysis]) -> BoundAnalysis:
    if analysis is None:
        return BoundAnalysis(inputs, x0, cap)
    if (analysis.inputs is not inputs or analysis.cap != int(cap)
            or not np.array_equal(np.asarray(analysis.x0, dtype=float),
                                  np.asarray(x0, dtype=float))):
        raise ContractViolation("the bound analysis was built for other "
                                "inputs, x0 or cap")
    return analysis


def compute_schedule(inputs: BoundInputs, delta: float, x0, horizon: int,
                     cap: int, allow_conservative: bool = True,
                     analysis: Optional[BoundAnalysis] = None) -> BoundSchedule:
    """Evaluate every bound sequence up to the horizon and read the time
    searches up to the cap from the analysis (a fresh one if none is given);
    falls back to certified upper bounds when the exact scans come up empty
    and conservative mode is allowed.
    """
    if horizon < 1 or horizon > DENSE_LIMIT:
        raise ContractViolation(f"horizon must be in [1, {DENSE_LIMIT}]")
    analysis = _analysis(inputs, x0, cap, analysis)
    delta3 = delta / 3.0
    t_full = np.arange(0, horizon + 1, dtype=float)
    w = inputs.w_bar(t_full, delta3)
    xb = inputs.x_bar(t_full, delta3, x0)
    t_pos = t_full[1:]
    zb = inputs.z_bar(t_pos, delta3, x0)
    beta = np.cumsum(np.square(zb)) + inputs.gamma
    e = inputs.error_from_beta(t_pos, delta, beta)

    burn, conv = analysis.times(delta, allow_conservative)
    ok, reason = analysis.verdict(delta, allow_conservative)
    return BoundSchedule(delta=delta, x0=np.atleast_1d(np.asarray(x0, dtype=float)),
                         horizon=horizon, cap=cap, t=t_full, w_bar=w, x_bar=xb,
                         z_bar=zb, beta_max=beta, e=e, T_burn_in=burn,
                         T_contained=analysis.contained(delta), T_converge=conv,
                         condition_ok=ok, condition_reason=reason)


def _condition_verdict(inputs: BoundInputs, delta: float, x0,
                       conv: SearchResult, t_cont: float):
    """Truth of T_converge + 1 <= T_contained with an explanation string."""
    if math.isinf(t_cont):
        return True, "T_contained = inf (invariant region covers the state space)"
    if conv.found:
        if conv.value + 1 <= t_cont:
            basis = "exact" if conv.mode == "exact" else "certified upper bound"
            bound = " (lower bound)" if t_cont >= CONTAINED_PROBE_CAP else ""
            return True, (f"T_converge {basis} {conv.value:g} + 1 <= "
                          f"T_contained {t_cont:g}{bound}")
        if conv.mode == "exact":
            return False, (f"T_converge = {conv.value:g} exceeds "
                           f"T_contained = {t_cont:g} - 1")
        # an upper bound that fails the comparison is inconclusive; try to
        # refute definitively below
    if 1 <= t_cont <= DENSE_LIMIT:
        # one exact evaluation refutes definitively: e(T_contained) above the
        # radius forces the converge time past the contained time
        e_probe = error_envelope(int(t_cont), delta, x0, inputs)
        if e_probe > inputs.vartheta_bar:
            return False, (f"error envelope at T_contained = {t_cont:g} is "
                           f"{e_probe:.3g} > vartheta_bar = {inputs.vartheta_bar:.3g}, "
                           "so T_converge > T_contained")
    return False, ("condition could not be verified under the search cap "
                   "(conservative refusal)")


def check_condition(inputs: BoundInputs, delta: float, x0, cap: int,
                    analysis: Optional[BoundAnalysis] = None) -> dict:
    """Report the theorem condition at delta and at delta/2 (stability variant)."""
    analysis = _analysis(inputs, x0, cap, analysis)
    out = {}
    for label, dlt in (("delta", delta), ("delta/2", delta / 2.0)):
        _, conv = analysis.times(dlt)
        ok, reason = analysis.verdict(dlt)
        out[label] = {"ok": ok, "reason": reason,
                      "T_converge": conv.value, "T_converge_mode": conv.mode,
                      "T_contained": analysis.contained(dlt)}
    return out


# ---------------------------------------------------------------------------
# stability envelope (transient eta, steady-state c2)
# ---------------------------------------------------------------------------

class LambdaMap:
    """The contraction map lam(s) = (s + max_{r in [0, s]} lam1(r)) / 2 with
    lam1(r) = r - alpha_v(r) + alpha_v(r/2).

    The running max over [0, s] (rather than a fixed interval) is what makes
    lam(s) < s hold for every s > 0; with a fixed interval the property fails
    below the interval's maximiser.  When alpha_v is linear the map collapses
    to lam(s) = (1 - slope/4) s, whose iterates have the log-domain closed
    form used by ``iterate``.
    """

    def __init__(self, alpha_v: MonotoneFn, s_max: float = 1e6):
        self.alpha_v = alpha_v
        self.slope = alpha_v.linear_slope
        if self.slope is not None:
            if not 0.0 < self.slope < 2.0:
                raise CertificationError(
                    f"alpha_v slope {self.slope} leaves no contraction margin")
            self.ratio = 1.0 - self.slope / 4.0
            self.grid = None
        else:
            if not math.isfinite(s_max) or s_max <= 0:
                raise CertificationError(
                    "lambda map needs a finite positive range for non-linear alpha_v")
            grid = np.concatenate([[0.0], np.geomspace(1e-60, s_max * 1.0001, LAMBDA_GRID)])
            lam1 = self._lam1(grid)
            self.grid = grid
            self.runmax = np.maximum.accumulate(lam1)

    def _lam1(self, r):
        r = np.asarray(r, dtype=float)
        return r - self.alpha_v(r) + self.alpha_v(r / 2.0)

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        if self.slope is not None:
            out = self.ratio * s_arr
        else:
            idx = np.searchsorted(self.grid, s_arr, side="right") - 1
            left_max = self.runmax[np.clip(idx, 0, len(self.grid) - 1)]
            out = 0.5 * (s_arr + np.maximum(left_max, self._lam1(s_arr)))
        return float(out) if np.ndim(s) == 0 else out

    # loop budget for non-linear maps: sub-geometric decays (e.g. quadratic
    # alpha_v) may never reach the floor; stopping early returns the current
    # iterate, a valid upper bound on lam^k(y) since iterates decrease
    ITER_BUDGET = 200_000

    def iterate(self, ys, ks):
        """lam^k(y) elementwise over the broadcast of ys and ks; scalars give
        a float.  lam^0 is the identity.  Counts stay floats, so a linear map
        takes counts far beyond int64 (certified times reach ~1e20).  A
        non-linear map follows one orbit per distinct y, harvested at each
        count as it passes, with each iterate set to 0 once below
        LAMBDA_FLOOR; past ITER_BUDGET compositions the value returned is an
        upper bound."""
        ys_arr, ks_arr = np.broadcast_arrays(np.asarray(ys, dtype=float),
                                             np.asarray(ks, dtype=float))
        if np.any(ks_arr < 0):
            raise ContractViolation("iteration count must be >= 0")
        if self.slope is not None:
            with np.errstate(divide="ignore"):
                log_v = np.log(ys_arr) + ks_arr * math.log(self.ratio)
            out = np.where(log_v > -690, np.exp(np.maximum(log_v, -700.0)), 0.0)
        else:
            starts, which = np.unique(ys_arr, return_inverse=True)
            which = which.ravel()
            counts = np.minimum(ks_arr, self.ITER_BUDGET).ravel()
            order = np.argsort(counts)
            steps, firsts = np.unique(counts[order], return_index=True)
            out = np.empty(counts.size)
            v, at = starts, 0
            for step, lo, hi in zip(steps, firsts, [*firsts[1:], counts.size]):
                while at < step and v.any():
                    v = self(v)
                    v[v < LAMBDA_FLOOR] = 0.0
                    at += 1
                out[order[lo:hi]] = v[which[order[lo:hi]]]
            out = out.reshape(ys_arr.shape)
        out = np.where(ks_arr == 0, ys_arr, out)
        return float(out) if out.ndim == 0 else out


@dataclass
class StabilityEnvelope:
    """Explicit transient bound eta(t), t = 0..horizon, and steady-state
    offset c2."""

    delta: float
    x0: np.ndarray
    t0_converge: float          # T_converge(delta/2, x0) (or certified upper bound)
    c2: float
    eta_values: np.ndarray
    mode: str                   # "dense" | "conservative"
    diagnostics: dict = field(default_factory=dict)
    eta_tilde_values: Optional[np.ndarray] = None   # dense mode, pre-tail-max

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "x0": np.atleast_1d(self.x0).tolist(),
            "T0_converge": self.t0_converge,
            "c2": self.c2,
            "mode": self.mode,
            "eta_head": self.eta_values[: min(16, len(self.eta_values))].tolist(),
            "eta_tail": float(self.eta_values[-1]),
            "horizon": len(self.eta_values) - 1,
            "diagnostics": {k: v for k, v in self.diagnostics.items()
                            if isinstance(v, (int, float, str, bool))},
        }


def _log_expm1(r: float) -> float:
    """log(exp(r) - 1), stable for large r."""
    if r <= 0:
        raise ContractViolation("argument must be positive")
    if r > 36:
        return r
    return math.log(math.expm1(r))


def stability_envelope(inputs: BoundInputs, lyap, delta: float, x0,
                       horizon: int, cap: int, e_scale: float = 1.0,
                       analysis: Optional[BoundAnalysis] = None) -> StabilityEnvelope:
    """Construct (eta, c2) for the probabilistic stability bound
    |X(t)| <= eta(t) + c2 at level delta.  Requires the delta/2 variant of the
    theorem condition; refuses with a diagnostic otherwise.

    With T0 = T_converge(delta/2, x0) and k = t - (T0 + 1), eta_tilde(t) is
    the plateau x_bar(T0 + 1) up to T0 and beyond it the max of
    beta1, eta2 + beta2 and gamma3.  Each of these is one branch bound
    alpha1^-1((2/delta) lam^k'(y)) at its own (y, k'):

        beta1   (alpha2(plateau), k)
        eta2    (gamma_tilde(2 d~), T0 + 1 + ceil(k/2))
        beta2   (gamma_tilde(2 sigma3(e_lo)), T0 + 1 + ceil(k/2))
        gamma3  (gamma_tilde(2 sigma3(e_hi)), 0)

    with gamma_tilde(r) = 2 max(alpha_v^-1(r), r), e_lo the max of the error
    envelope e over [T0, T0 + floor(k/2)] and e_hi its max over
    [T0 + 1 + floor(k/2), t - 1].  beta1 is taken in the log domain when
    alpha2(plateau) overflows.  eta is the running tail max of eta_tilde.

    When T0 is exact and T0 + 1 lies within the horizon, the construction is
    dense: eta_tilde is evaluated out past the horizon.  Otherwise (a
    certified upper T0, or T0 beyond the window) eta is the constant head
    value, each branch at k = 0 with e_lo = e_hi = vartheta_bar.

    e_scale multiplicatively rescales the estimation-error schedule fed into
    the transient branches (diagnostic knob; c2 must be invariant to it).
    """
    if not 0.0 < delta < 1.0:
        raise ContractViolation("delta must be in (0,1)")
    d2 = delta / 2.0
    alpha1, alpha2 = lyap.alpha1, lyap.alpha2
    sigma3, d_tilde, alpha_v = lyap.sigma3, lyap.d_tilde, lyap.alpha_v
    two_over_delta = 2.0 / delta

    def gamma_tilde(r):
        return 2.0 * np.maximum(alpha_v.inv(r), r)

    y_eta2 = float(gamma_tilde(2.0 * d_tilde))
    c2 = alpha1.inv(two_over_delta * y_eta2)

    # locate T0 = T_converge(delta/2, x0), exactly if the cap allows
    analysis = _analysis(inputs, x0, cap, analysis)
    _, conv = analysis.times(d2)
    t_cont = analysis.contained(d2)
    if not conv.found:
        raise CertificationError(
            "converge time could not be certified even conservatively: "
            f"{analysis.certified(d2)[1].diagnostics}")
    t0 = conv.value
    mode = "dense" if conv.mode == "exact" else "conservative"
    if not math.isinf(t_cont) and t0 + 1 > t_cont:
        bound = " (lower bound)" if t_cont >= CONTAINED_PROBE_CAP else ""
        raise CertificationError(
            f"stability condition fails at delta/2: T_converge {t0:g} + 1 > "
            f"T_contained {t_cont:g}{bound}")

    plateau = float(inputs.x_bar(t0 + 1, delta / 6.0, x0))
    vbar_eff = inputs.vartheta_bar * e_scale
    y_vbar = float(gamma_tilde(2.0 * sigma3(vbar_eff)))
    with np.errstate(over="ignore"):
        alpha2_plateau = float(alpha2(plateau))
    log_domain = (not math.isfinite(alpha2_plateau)
                  and alpha_v.linear_slope is not None
                  and alpha1.exp_rate is not None and alpha2.exp_rate is not None)
    if not math.isfinite(alpha2_plateau) and not log_domain:
        raise CertificationError(
            "alpha2(x_bar plateau) exceeds double range and the certificate "
            "admits no log-domain iterate path (needs linear alpha_v and "
            "exponential alpha1/alpha2)")
    # lambda map range: the largest value it will ever be applied to
    s_needed = max(y_eta2, y_vbar,
                   alpha2_plateau if math.isfinite(alpha2_plateau) else 0.0, 1.0)
    lam = LambdaMap(alpha_v, s_max=s_needed * 1.01)

    def branch(y, k):
        return alpha1.inv(two_over_delta * lam.iterate(y, k))

    def beta1(k):
        if not log_domain:
            return branch(alpha2_plateau, k)
        # ln((2/delta) lam^k(e^{a2 plateau} - 1)) with linear lam
        log_val = (math.log(two_over_delta) + _log_expm1(alpha2.exp_rate * plateau)
                   + k * math.log(lam.ratio))
        return np.where(log_val > 700, log_val,
                        np.log1p(np.exp(np.minimum(log_val, 700.0)))) / alpha1.exp_rate

    if mode == "conservative" or t0 + 1 > horizon:
        # the transient branches only engage beyond T0; on [0, horizon] the
        # envelope is the constant head value (suprema of each branch)
        head = max(plateau, float(beta1(0.0)),
                   branch(y_eta2, t0 + 1) + branch(y_vbar, t0 + 1),
                   branch(y_vbar, 0.0))
        diag = {"plateau": plateau, "head": head, "t_contained": t_cont,
                "converge_mode": mode, "note":
                "T0 beyond the reporting window; eta is its constant head value"}
        return StabilityEnvelope(delta=delta, x0=np.atleast_1d(np.asarray(x0, float)),
                                 t0_converge=t0, c2=c2,
                                 eta_values=np.full(horizon + 1, head),
                                 mode=mode, diagnostics=diag)

    # dense construction: evaluate eta_tilde out past the horizon, then take
    # the running tail maximum so eta is non-increasing
    t0 = int(t0)
    buffer = max(256, 2 * (t0 + 2), horizon)
    h_ext = min(horizon + buffer, DENSE_LIMIT)
    t_idx = np.arange(1, h_ext + 1, dtype=float)
    zb = inputs.z_bar(t_idx, d2 / 3.0, x0)
    beta = np.cumsum(np.square(zb)) + inputs.gamma
    e_arr = inputs.error_from_beta(t_idx, d2, beta) * e_scale  # e_arr[i] = e(i+1)

    ks = np.arange(0, h_ext - t0)                       # k = t - (t0+1)
    exps = t0 + 1 + np.ceil(ks / 2.0)

    # e_lo: prefix maxima of e over [T0, T0 + floor(k/2)]
    win_start = max(1, t0)
    prefix = np.maximum.accumulate(e_arr[win_start - 1:])
    lo_end = np.minimum(t0 + ks // 2, h_ext)
    e_lo = np.where(lo_end >= win_start, prefix[np.maximum(lo_end - win_start, 0)], 0.0)

    # e_hi: sliding-window maxima of e over [T0+1+floor(k/2), t-1]
    e_hi = np.zeros(len(ks))
    dq: deque = deque()
    lo_ptr = t0 + 1
    for i, k in enumerate(ks):
        hi = t0 + int(k)
        lo = t0 + 1 + int(k) // 2
        while lo_ptr <= hi:
            val = e_arr[lo_ptr - 1]
            while dq and dq[-1][1] <= val:
                dq.pop()
            dq.append((lo_ptr, val))
            lo_ptr += 1
        while dq and dq[0][0] < lo:
            dq.popleft()
        e_hi[i] = dq[0][1] if dq else 0.0

    b2 = branch(gamma_tilde(2.0 * sigma3(e_lo)), exps)
    g3 = branch(gamma_tilde(2.0 * sigma3(e_hi)), 0.0)
    eta_tilde = np.empty(h_ext + 1)
    eta_tilde[: t0 + 1] = plateau
    eta_tilde[t0 + 1:] = np.maximum(beta1(ks), np.maximum(branch(y_eta2, exps) + b2, g3))
    tail = eta_tilde[-8:]
    tail_ok = bool(np.all(np.diff(tail) <= 1e-12 * (1.0 + np.abs(tail[:-1]))))
    eta_vals = np.maximum.accumulate(eta_tilde[::-1])[::-1][: horizon + 1]

    diag = {"plateau": plateau, "t_contained": t_cont, "h_ext": h_ext,
            "tail_non_increasing": tail_ok, "converge_mode": conv.mode}
    return StabilityEnvelope(delta=delta, x0=np.atleast_1d(np.asarray(x0, float)),
                             t0_converge=t0, c2=c2, eta_values=eta_vals,
                             mode="dense", diagnostics=diag,
                             eta_tilde_values=eta_tilde)
