"""Reference computations made apart from the package.

Everything here is rebuilt from the experiment configs and the closed forms
the package documents (README, docstrings, docs/formats.md), using numpy
only.  Nothing imports ``adaptive_stab``: the output checks compare the
program's artifacts against these values.
"""

from __future__ import annotations

import math

import numpy as np

PROCESS_NOISE, DITHER = 0, 1      # substream ids documented in rng.py
PINV_RCOND = 1e-12                # pseudo-inverse cutoff the policy documents
CHI1_SLOPE = 1e-9                 # chi1 = 1e-9 * id in both scalar plants


def philox(seed: int, *key: int) -> np.random.Generator:
    """The generator keyed (seed, key...) as rng.py documents it."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def sat(v: np.ndarray, r: float) -> np.ndarray:
    mag = float(np.linalg.norm(v))
    return v * (r / mag) if mag > r else v


# ---------------------------------------------------------------------------
# plants rebuilt from the configs
# ---------------------------------------------------------------------------

class PwaPlant:
    """x+ = x + 0.1 * 1{|x| <= x_bar} u + w, uniform noise and dither."""

    n, d, gain = 1, 2, 0.1
    # the loop contracts, so the replay keeps to the last bits (README.md)
    replay_tol = 1e-9

    def __init__(self, cfg: dict):
        p = cfg["system"]["params"]
        self.x_bar, self.u1 = float(p["x_bar"]), float(p["u_bar1"])
        self.u2, self.w_bar = float(p["u_bar2"]), float(p["w_bar"])
        self.gamma = float(cfg["gamma"])
        self.x0 = np.atleast_1d(np.asarray(cfg["x0"], dtype=float))
        self.horizon = int(cfg["horizon"])
        self.theta_star = np.array([[1.0], [self.gain]])
        self.u_max = self.u1 + self.u2

    @property
    def invariant_radius(self) -> float:
        return self.x_bar - self.w_bar - self.gain * self.u_max

    @property
    def excitation_floor(self) -> float:
        w, u1, u2 = self.w_bar, self.u1, self.u2
        return min(w / 4.0, w * u2 / (8.0 * u1 + 4.0 * w))

    def draws(self, seed: int, trial: int, steps: int):
        w = philox(seed, trial, PROCESS_NOISE).uniform(
            -np.array([self.w_bar]), np.array([self.w_bar]), size=(steps, 1))
        s = philox(seed, trial, DITHER).uniform(
            -np.array([self.u2]), np.array([self.u2]), size=(steps, 1))
        return w, s

    def psi(self, x, u):
        return np.concatenate([x, float(abs(x[0]) <= self.x_bar) * u])

    def state_bound(self, t, delta: float) -> np.ndarray:
        """x_bar(t) = chi1(t) + |x0| + chi3(t u_max) + t w_bar(t) with
        chi1 = 1e-9 id, chi3 = 0.1 id and the uniform noise's w_bar proxy."""
        t = np.asarray(t, dtype=float)
        return (CHI1_SLOPE * t + float(np.linalg.norm(self.x0))
                + self.gain * t * self.u_max
                + t * noise_bound(t, delta, self.w_bar, self.n))


class LinearPlant:
    """kappa-step sub-sampled x+ = A x + B u + w with isotropic Gaussian w."""

    # the 2x2 pinv of early, nearly singular estimates amplifies rounding
    # differences by up to ~1e9 (README.md)
    replay_tol = 1e-4

    def __init__(self, cfg: dict):
        p = cfg["system"]["params"]
        a = np.asarray(p["a"], dtype=float)
        b = np.asarray(p["b"], dtype=float)
        self.kappa = int(p["kappa"])
        self.u1, u_max = float(p["u_bar1"]), float(p["u_max"])
        sigma = float(p["sigma_w_scalar"])
        self.n, m = a.shape[0], b.shape[1]
        self.km = self.kappa * m
        self.d = self.n + self.km
        self.gamma = float(cfg["gamma"])
        self.x0 = np.atleast_1d(np.asarray(cfg["x0"], dtype=float))
        self.horizon = int(cfg["horizon"])
        # reachability blocks [B, AB, ..., A^(kappa-1) B]
        reach_b = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(self.kappa)])
        reach_i = np.hstack([np.linalg.matrix_power(a, k) for k in range(self.kappa)])
        a_pow = np.linalg.matrix_power(a, self.kappa)
        self.theta_star = np.hstack([a_pow, reach_b]).T
        self.cov = reach_i @ np.kron(np.eye(self.kappa), sigma ** 2 * np.eye(self.n)) @ reach_i.T
        self.chol = np.linalg.cholesky(self.cov)
        self.u2 = (u_max - self.u1) / math.sqrt(self.km)

    @property
    def excitation_floor(self) -> float:
        lam = float(np.linalg.eigvalsh(self.cov)[0])
        n, km, u1, u2 = self.n, self.km, self.u1, self.u2
        return min(math.sqrt(lam * n * km) * u2
                   / (2.0 * math.sqrt(2.0 * math.pi) * u1 + 4.0 * math.sqrt(lam) * n),
                   math.sqrt(lam * n / (2.0 * math.pi)))

    def draws(self, seed: int, trial: int, steps: int):
        w = philox(seed, trial, PROCESS_NOISE).standard_normal(size=(steps, self.n)) @ self.chol.T
        s = philox(seed, trial, DITHER).uniform(
            -np.full(self.km, self.u2), np.full(self.km, self.u2), size=(steps, self.km))
        return w, s

    def psi(self, x, u):
        return np.concatenate([x, u])


def plant_from_config(cfg: dict):
    name = cfg["system"]["name"]
    if name == "pwa":
        return PwaPlant(cfg)
    if name == "linear":
        return LinearPlant(cfg)
    raise ValueError(f"no reference plant for {name!r}")


def ridge(zs: np.ndarray, ys: np.ndarray, gamma: float, d: int, n: int) -> np.ndarray:
    """Regularised least squares solved from scratch on the stacked data."""
    if zs.shape[0] == 0:
        return np.zeros((d, n))
    return np.linalg.solve(zs.T @ zs + gamma * np.eye(d), zs.T @ ys)


def replay(plant, seed: int, steps: int, trial: int = 0):
    """|X(t)| and the estimation error per CSV row for one closed-loop trial.

    The control at time t runs the saturated certainty-equivalence feedback
    at the ridge estimate over the transitions before t - 1 (one-step delay),
    plus dither.  The last row holds the estimate over all transitions.
    """
    n, d, gamma = plant.n, plant.d, plant.gamma
    w, s = plant.draws(seed, trial, steps)
    zs = np.zeros((steps, d))
    ys = np.zeros((steps, n))
    abs_x = np.zeros(steps + 1)
    errs = np.zeros(steps + 1)
    x = plant.x0.copy()
    abs_x[0] = np.linalg.norm(x)
    for t in range(steps):
        theta = ridge(zs[: max(t - 1, 0)], ys[: max(t - 1, 0)], gamma, d, n)
        errs[t] = np.linalg.norm(theta - plant.theta_star, 2)
        gain = np.linalg.pinv(theta[n:].T, rcond=PINV_RCOND) @ theta[:n].T
        u = sat(-(gain @ x), plant.u1) + s[t]
        z = plant.psi(x, u)
        x = plant.theta_star.T @ z + w[t]
        zs[t], ys[t] = z, x
        abs_x[t + 1] = np.linalg.norm(x)
    errs[steps] = np.linalg.norm(ridge(zs, ys, gamma, d, n) - plant.theta_star, 2)
    return abs_x, errs


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def noise_bound(t, delta: float, sigma: float, n: int) -> np.ndarray:
    """sigma sqrt(2 n log(n pi^2 t^2 / (3 delta))) for t >= 1, 0 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t >= 1
    out[pos] = sigma * np.sqrt(2.0 * n * np.log(n * math.pi ** 2 * t[pos] ** 2 / (3.0 * delta)))
    return out


class DitherPlant:
    """The dither-only scalar plant x+ = theta* u + w, u = s ~ U(-1, 1), with
    every constant the bound theory needs (d = n = 1, chi3 = theta* id)."""

    theta, sigma_w, gamma, delta = 0.3, 0.05, 1e-2, 0.1
    horizon, u_max, vartheta_bar = 3000, 1.0, 0.05
    # exact moments of |S| for S ~ U(-1, 1): mean 1/2, variance 1/12
    c_pe1, c_pe2 = 0.5, 1.0 / 12.0

    @property
    def c_pe(self) -> float:
        return self.c_pe1 ** 2 / 4.0

    @property
    def p_pe(self) -> float:
        return 0.25 / (self.c_pe2 / self.c_pe1 ** 2 + 1.0)

    def z_bar(self, t) -> np.ndarray:
        """Regressor bound at delta/3: hypot(x_bar(t - 1), u_max), x0 = 0."""
        d3 = self.delta / 3.0
        tp = np.asarray(t, dtype=float) - 1.0
        xb = (CHI1_SLOPE * tp + self.theta * tp * self.u_max
              + tp * noise_bound(tp, d3, self.sigma_w, 1))
        return np.hypot(xb, self.u_max)

    def error_envelope(self, horizon: int) -> np.ndarray:
        """e(t) for t = 1..horizon from the exact Gramian partial sums."""
        t = np.arange(1, horizon + 1, dtype=float)
        beta = np.cumsum(self.z_bar(t) ** 2) + self.gamma
        log_term = math.log(3.0 / self.delta) + 0.5 * np.log(beta / self.gamma)
        num = math.sqrt(self.gamma) * self.theta + self.sigma_w * np.sqrt(2.0 * log_term)
        return num / np.sqrt(self.c_pe * self.p_pe * (t - 1.0) / 4.0 + self.gamma)

    def burn_in_oracle(self, cap: int):
        """Smallest T <= cap with t - 1 >= a d log(1 + 16 S(t) / (c p (t-1)))
        + a log(pi^2 (t - T + 1)^2 / (2 delta)) for every t in [T, cap],
        a = 2 / ((1 - ln 2) p), S(t) the partial sum of z_bar^2; literal loop."""
        t = np.arange(1, cap + 1, dtype=float)
        s_cum = np.cumsum(self.z_bar(t) ** 2)
        a = 2.0 / ((1.0 - math.log(2.0)) * self.p_pe)
        with np.errstate(divide="ignore"):
            base = a * np.log1p(16.0 * s_cum / (self.c_pe * self.p_pe * (t - 1.0)))
        for T in range(1, cap + 1):
            tail = t[T - 1:]
            pen = a * np.log(math.pi ** 2 * (tail - T + 1.0) ** 2 / (2.0 * self.delta))
            if np.all(tail - 1.0 >= base[T - 1:] + pen):
                return T
        return None

    def pe_line(self, horizon: int) -> np.ndarray:
        t = np.arange(1, horizon + 1, dtype=float)
        return self.c_pe * self.p_pe / 4.0 * (t - 1.0) + self.gamma
