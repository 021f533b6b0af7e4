"""Output checks.  Each check reads a real artifact (or a value the program
returned), compares it against values from ``reference`` and raises
``CheckFailed`` with the first discrepancy.  They run after a workload's
timed operations.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

class CheckFailed(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def read_csv(path: str) -> dict:
    """Columns of a CSV as float arrays (empty cell -> nan); a column with
    text cells is an object array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        vals = []
        for row in body:
            cell = row[j]
            try:
                vals.append(float(cell) if cell != "" else math.nan)
            except ValueError:
                vals.append(cell)
        cols[name] = np.array(vals, dtype=object if any(isinstance(v, str) for v in vals)
                              else float)
    return cols


def read_json(path: str):
    """Strict except for the bare Infinity token ``bounds`` still writes
    where docs/formats.md promises the string "inf"; NaN is refused."""
    def constant(tok):
        if tok in ("Infinity", "-Infinity"):
            return float(tok)
        raise CheckFailed(f"{path}: non-finite JSON token {tok}")
    with open(path) as fh:
        return json.load(fh, parse_constant=constant)


def as_time(v) -> float:
    return math.inf if v in ("inf", math.inf) else float(v)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

QUANTILE_PAIRS = (("median_absx", "q90_absx"), ("median_err", "q90_err"))


def check_ensemble_csv(path: str, horizon: int, x0_norm: float, theta_norm: float) -> dict:
    """Shape and ordering, row 0 against the config, and learning."""
    cols = read_csv(path)
    _require(len(cols["t"]) == horizon + 1,
             f"{path}: {len(cols['t'])} rows, expected horizon + 1 = {horizon + 1}")
    for lo, hi in QUANTILE_PAIRS:
        _require(np.all(np.isfinite(cols[lo])) and np.all(np.isfinite(cols[hi])),
                 f"{path}: non-finite {lo}/{hi}")
        bad = np.nonzero(cols[lo] > cols[hi])[0]
        _require(bad.size == 0, f"{path}: {lo} > {hi} at t = {bad[:5].tolist()}")
    for name, want in (("median_absx", x0_norm), ("q90_absx", x0_norm),
                       ("median_err", theta_norm), ("q90_err", theta_norm)):
        got = float(cols[name][0])
        _require(abs(got - want) <= 1e-12 * max(1.0, want),
                 f"{path}: row 0 {name} = {got!r}, expected {want!r}")
    first, last = cols["median_err"][0], cols["median_err"][-1]
    _require(last * 10.0 <= first,
             f"{path}: median error {last:.4g} at the horizon is not 10x below "
             f"row 0 ({first:.4g})")
    return cols


def check_no_divergence(summary_path: str) -> None:
    diverged = read_json(summary_path)["stats"]["diverged_trials"]
    _require(diverged == [], f"{summary_path}: diverged trials {diverged}")


def check_replay(path: str, abs_x: np.ndarray, errs: np.ndarray, tol: float) -> None:
    """A one-trial ensemble's median columns are trial 0 itself; they must
    match the reference to tol relative to max(1, |value|)."""
    cols = read_csv(path)
    for name, want in (("median_absx", abs_x), ("median_err", errs)):
        got = cols[name]
        _require(got.shape == want.shape, f"{path}: {name} has {got.size} rows, "
                 f"reference {want.size}")
        dev = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        i = int(np.argmax(dev))
        _require(dev[i] <= tol, f"{path}: {name} at t = {i} is {float(got[i])!r}, "
                 f"reference {float(want[i])!r} (relative deviation {dev[i]:.3g} > {tol:g})")


def check_pwa_state_bound(cols: dict, plant, delta: float) -> None:
    """q90 |X(t)| within the state bound at delta/3 and the invariant radius."""
    t = cols["t"].astype(float)
    want = plant.state_bound(t, delta / 3.0)
    got = cols["x_bar_bound"]
    dev = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    _require(np.all(dev <= 1e-9), f"x_bar_bound column differs from the closed form "
             f"by {float(np.max(dev)):.3g} (relative)")
    q90 = cols["q90_absx"]
    bad = np.nonzero(q90 > got)[0]
    _require(bad.size == 0, f"q90 |X| above x_bar_bound at t = {bad[:5].tolist()}")
    radius = plant.invariant_radius
    _require(float(np.max(q90)) <= radius,
             f"q90 |X| peaks at {float(np.max(q90)):.4g} > invariant radius {radius:.6g}")


def check_dither(schedule, trajectories, plant, cap: int) -> None:
    """Exact burn-in equal to the oracle, envelope and PE-line coverage;
    plant is a reference.DitherPlant."""
    burn = schedule.T_burn_in
    _require(burn is not None and burn.value is not None and burn.mode == "exact",
             f"dither burn-in not found exactly: {burn}")
    want = plant.burn_in_oracle(cap)
    _require(burn.value == want, f"dither burn-in {burn.value} != oracle {want}")
    horizon = plant.horizon
    _require(burn.value < horizon, f"dither burn-in {burn.value} outside the horizon")
    e = plant.error_envelope(horizon)
    got_e = np.asarray(schedule.e, dtype=float)
    _require(got_e.shape == e.shape and np.allclose(got_e, e, rtol=1e-9, atol=0.0),
             "dither schedule e(t) differs from the closed-form envelope")
    line = plant.pe_line(horizon)
    t = np.arange(1, horizon + 1)
    tt = np.arange(int(burn.value), horizon)
    env_hits = pe_hits = 0
    for tr in trajectories:
        errs = np.abs(np.asarray(tr.estimates, dtype=float).reshape(-1) - plant.theta)
        env_hits += bool(np.all(errs[tt + 1] <= e[tt - 1]))
        z = np.asarray(tr.regressors, dtype=float).reshape(-1)
        gram = np.cumsum(z * z) + plant.gamma
        mask = t >= burn.value
        pe_hits += bool(np.all(gram[mask] >= line[mask]))
    need = (1.0 - plant.delta) * len(trajectories)
    _require(len(trajectories) > 0 and env_hits >= need,
             f"error-envelope event holds in {env_hits}/{len(trajectories)} trials")
    _require(pe_hits >= need, f"PE-line event holds in {pe_hits}/{len(trajectories)} trials")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

MONOTONE = (("w_bar", 1), ("x_bar", 1), ("z_bar", 1), ("beta_max", 1), ("eta", -1))


def check_schedule_csv(path: str, horizon: int) -> dict:
    cols = read_csv(path)
    _require(len(cols["t"]) == horizon + 1,
             f"{path}: {len(cols['t'])} rows, expected {horizon + 1}")
    for name, sign in MONOTONE:
        v = cols[name]
        v = v[np.isfinite(v)] if v.dtype == float else v
        if v.size < 2:
            continue
        steps = np.diff(v) * sign
        bad = np.nonzero(steps < 0)[0]
        _require(bad.size == 0, f"{path}: {name} not "
                 f"{'non-decreasing' if sign > 0 else 'non-increasing'} at index "
                 f"{bad[:5].tolist()}")
    return cols


def check_bounds_times(bounds: dict, cols: dict, radius) -> None:
    sched = bounds["schedule"]
    burn, conv = sched["T_burn_in"], sched["T_converge"]
    _require(burn is not None and conv is not None,
             f"characteristic times missing: T_burn_in={burn}, T_converge={conv}")
    _require(float(conv) >= float(burn), f"T_converge {conv} < T_burn_in {burn}")
    if radius is None:
        return
    tc = as_time(sched["T_contained"])
    _require(math.isfinite(tc) and 0 <= tc < len(cols["x_bar"]) - 1,
             f"T_contained {tc} outside the schedule rows")
    xb = [float(v) for v in cols["x_bar"]]
    tc = int(tc)
    _require(xb[tc] <= radius < xb[tc + 1],
             f"x_bar[{tc}] = {xb[tc]!r}, x_bar[{tc + 1}] = {xb[tc + 1]!r} do not "
             f"straddle the invariant radius {radius!r} at T_contained")


def check_sweep(path: str, param: str) -> None:
    cols = read_csv(path)
    order = np.argsort(cols[param].astype(float))
    tc = np.array([as_time(v) for v in cols["T_contained"]])[order]
    _require(np.all(np.diff(tc) >= 0), f"{path}: T_contained {tc.tolist()} not "
             f"non-decreasing in {param}")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_excitation(path: str, floor: float) -> None:
    cert = read_json(path)
    got_floor = float(cert["analytic_floor"])
    _require(abs(got_floor - floor) <= 1e-9 * floor,
             f"{path}: analytic floor {got_floor!r} != recomputed {floor!r}")
    c1, se = float(cert["c_pe1"]), float(cert["mc_config"]["worst_mean_se"])
    _require(c1 >= floor - 3.0 * se,
             f"{path}: Monte-Carlo c_PE1 {c1:.4g} below floor {floor:.4g} - 3 se ({se:.3g})")


def check_rpi_and_lyapunov(rpi_path: str, lyap_path: str) -> None:
    rpi = read_json(rpi_path)
    _require(rpi["falsified"] is None, f"{rpi_path}: invariance falsified at {rpi['falsified']}")
    _require(int(rpi["samples_checked"]) > 0, f"{rpi_path}: no samples checked")
    lyap = read_json(lyap_path)
    _require(lyap["ok"] is True, f"{lyap_path}: Lyapunov check failed "
             f"(worst drift margin {lyap.get('worst_drift_margin')})")
