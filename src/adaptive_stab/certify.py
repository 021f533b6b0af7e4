"""Numeric certification of the verifiable hypotheses: excitation moment
scans, invariant-set falsification, policy Lipschitz estimation, and
Lyapunov drift checks.

All scans are falsification-oriented: "not falsified" records the sample
budget and never claims a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.stats import qmc

from .errors import CertificationError, ContractViolation
from .kfuncs import MonotoneFn
from .linalg import sat, spectral_norm
from .noise import NoiseModel
from .regions import RegionDescriptor
from .rng import substream
from .system import PolicyFamily, SystemModel, step

GAUSSIAN_TRUNCATION = 1.0 - 1e-6   # quantile used to truncate unbounded supports
MOMENT_BLOCK = 256   # sample rows per projection block of the moment scan


@dataclass
class ExcitationCertificate:
    region: RegionDescriptor
    c_pe1: float
    c_pe2: float
    c_pe: float
    p_pe: float
    mc_config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": "excitation", "region": self.region.to_dict(),
                "c_pe1": self.c_pe1, "c_pe2": self.c_pe2,
                "c_pe": self.c_pe, "p_pe": self.p_pe, "mc_config": self.mc_config}

    @staticmethod
    def from_dict(d: dict) -> "ExcitationCertificate":
        return ExcitationCertificate(
            region=RegionDescriptor.from_dict(d["region"]), c_pe1=d["c_pe1"],
            c_pe2=d["c_pe2"], c_pe=d["c_pe"], p_pe=d["p_pe"],
            mc_config=d.get("mc_config", {}))


@dataclass
class RpiCertificate:
    region: RegionDescriptor
    vartheta_bar: float
    samples_checked: int = 0
    falsified: Optional[dict] = None      # {"x":..,"s":..,"w":..,"theta":..}
    truncation: Optional[dict] = None     # recorded when supports were truncated
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.falsified is None

    def to_dict(self) -> dict:
        return {"kind": "rpi", "region": self.region.to_dict(),
                "vartheta_bar": self.vartheta_bar,
                "samples_checked": self.samples_checked,
                "falsified": self.falsified, "truncation": self.truncation,
                "note": self.note}

    @staticmethod
    def from_dict(d: dict) -> "RpiCertificate":
        return RpiCertificate(region=RegionDescriptor.from_dict(d["region"]),
                              vartheta_bar=d["vartheta_bar"],
                              samples_checked=d.get("samples_checked", 0),
                              falsified=d.get("falsified"),
                              truncation=d.get("truncation"),
                              note=d.get("note", ""))


@dataclass
class LyapunovCertificate:
    V: Callable
    alpha1: MonotoneFn
    alpha2: MonotoneFn
    alpha3: MonotoneFn
    sigma3: MonotoneFn
    d_tilde: float
    alpha_v: MonotoneFn
    region: RegionDescriptor
    vartheta_bar: float
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": "lyapunov", "region": self.region.to_dict(),
                "vartheta_bar": self.vartheta_bar, "d_tilde": self.d_tilde,
                "functions": {k: getattr(self, k).name for k in
                              ("alpha1", "alpha2", "alpha3", "sigma3", "alpha_v")},
                "meta": self.meta}


def excitation_from_moments(c_pe1: float, c_pe2: float,
                            region: Optional[RegionDescriptor] = None,
                            mc_config: Optional[dict] = None) -> ExcitationCertificate:
    """Excitation constants from first/second moment bounds:
    c_PE = c_PE1^2 / 4 and p_PE = (1/4) / (c_PE2 / c_PE1^2 + 1).
    """
    if c_pe1 <= 0:
        raise CertificationError(f"first-moment bound must be positive, got {c_pe1}")
    if c_pe2 < 0:
        raise ContractViolation(f"variance bound must be >= 0, got {c_pe2}")
    c_pe = 0.25 * c_pe1 ** 2
    p_pe = 0.25 / (c_pe2 / c_pe1 ** 2 + 1.0)
    return ExcitationCertificate(
        region=region or RegionDescriptor.everything(),
        c_pe1=c_pe1, c_pe2=c_pe2, c_pe=c_pe, p_pe=p_pe,
        mc_config=mc_config or {})


def _unit_directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Axis directions plus a deterministic-seeded random sphere sample."""
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    if dim == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, max(count - len(axes), 8), endpoint=False)
        extra = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        extra = rng.standard_normal(size=(max(count - len(axes), 8), dim))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.vstack([axes, extra])


def default_theta_grid(theta_star, rng: np.random.Generator,
                       count: int = 24) -> list[np.ndarray]:
    """Parameter scan grid: zero, the truth, and log-radius perturbations in
    random plus coordinate-aligned directions (covering the no-feedback floor
    and the saturation ceiling).
    """
    th = np.atleast_2d(np.asarray(theta_star, dtype=float))
    grid = [np.zeros_like(th), th.copy()]
    radii = np.geomspace(1e-3, 1e3, 7)
    shapes = [th / max(np.linalg.norm(th), 1e-12)]
    shapes += [np.sign(np.ones_like(th))]
    while len(shapes) * len(radii) + len(grid) < count + len(grid):
        v = rng.standard_normal(size=th.shape)
        shapes.append(v / np.linalg.norm(v))
        if len(shapes) > 8:
            break
    for r in radii:
        for s in shapes:
            grid.append(th + r * s)
            if len(grid) >= count:
                return grid
    return grid


def _projection_moments(z: np.ndarray, zetas: np.ndarray,
                        buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the rows z_i of z of |z_i . zeta_k| and (z_i . zeta_k)^2 for
    every row zeta_k of zetas.

    The first sum streams the samples through MOMENT_BLOCK-row blocks of
    projections written into buf (MOMENT_BLOCK, K), so the block stays in
    cache and each product is too small for BLAS to split over threads.  The
    second is exact algebra: sum_i (z_i . zeta)^2 = zeta^T (Z^T Z) zeta, one
    d x d Gramian instead of a pass over the projections.
    """
    zetas_t = np.ascontiguousarray(zetas.T)    # BLAS is slower on the transposed view
    ones = np.ones(MOMENT_BLOCK)
    abs_sum = np.zeros(zetas.shape[0])
    for lo in range(0, len(z), MOMENT_BLOCK):
        rows = z[lo:lo + MOMENT_BLOCK]
        block = buf[:len(rows)]
        np.matmul(rows, zetas_t, out=block)
        np.abs(block, out=block)
        abs_sum += ones[:len(rows)] @ block    # faster than block.sum(axis=0)
    gram = z.T @ z
    return abs_sum, np.einsum("kd,de,ke->k", zetas, gram, zetas)


def moment_scan(sys: SystemModel, policy: PolicyFamily, region: RegionDescriptor,
                x_grid: int = 33, theta_samples: int = 24, zeta_samples: int = 256,
                mc_samples: int = 10_000, seed: int = 0,
                theta_list: Optional[list] = None) -> tuple[float, float, dict]:
    """Scan the excitation moments over (x, theta, zeta): the worst-case mean
    of |zeta^T psi(x+W, alpha(x+W, S, theta))| and the worst-case variance.

    Returns (c_pe1, c_pe2, diagnostics); raises CertificationError when the
    worst mean is not significantly positive.
    """
    if mc_samples < 1000:
        raise ContractViolation("mc_samples must be >= 1000 for a meaningful scan")
    if not region.is_bounded:
        raise ContractViolation("moment scan needs a bounded scan region")
    rng = substream(seed, 101)
    xs = region.grid(x_grid)
    thetas = theta_list if theta_list is not None else \
        default_theta_grid(sys.theta_star, rng, theta_samples)
    zetas = _unit_directions(sys.d, zeta_samples, rng)

    worst_mean = math.inf
    worst_mean_se = 0.0
    worst_var = 0.0
    argmin = None
    buf = np.empty((MOMENT_BLOCK, zetas.shape[0]))
    for xi, x in enumerate(xs):
        w = sys.process_noise.sample(substream(seed, 11, xi), mc_samples)
        s = policy.dither.sample(substream(seed, 12, xi), mc_samples)
        xw = x[None, :] + w
        for ti, theta in enumerate(thetas):
            u = np.asarray(policy.eval(xw, s, np.asarray(theta, float)), dtype=float)
            z = np.asarray(sys.basis_psi(xw, u), dtype=float)       # (mc, d)
            abs_sum, sq_sum = _projection_moments(z, zetas, buf)
            means = abs_sum / mc_samples
            sq_means = sq_sum / mc_samples
            var = (sq_means - means ** 2) * (mc_samples / (mc_samples - 1.0))
            j = int(np.argmin(means))
            if means[j] < worst_mean:
                worst_mean = float(means[j])
                worst_mean_se = float(np.sqrt(max(var[j], 0.0) / mc_samples))
                argmin = {"x": x.tolist(), "theta_index": ti, "zeta": zetas[j].tolist()}
            worst_var = max(worst_var, float(np.max(var)))
    diag = {"x_grid": len(xs), "theta_samples": len(thetas),
            "zeta_samples": len(zetas), "mc_samples": mc_samples,
            "worst_mean_se": worst_mean_se, "argmin": argmin, "seed": seed}
    if worst_mean <= 3.0 * worst_mean_se:
        raise CertificationError(
            f"excitation not certified: worst-case first moment {worst_mean:.3e} "
            f"is within 3 standard errors ({worst_mean_se:.3e}) of zero")
    return worst_mean, worst_var, diag


def _support_points(noise: NoiseModel, rng: np.random.Generator, count: int,
                    quantile: float = GAUSSIAN_TRUNCATION):
    """Corner points plus interior samples of a noise support; Gaussian
    supports are truncated at the stated norm quantile (returned for the
    certificate record)."""
    if noise.kind == "point-mass":
        return noise.value[None, :], None
    if noise.bounded:
        corners = noise.support.corners() if noise.support.shape == "interval-box" \
            else np.zeros((1, noise.dim))
        interior = noise.sample(rng, count)
        return np.vstack([corners, interior, np.zeros((1, noise.dim))]), None
    radius = noise.norm_quantile(quantile)
    shell = rng.standard_normal(size=(count // 2, noise.dim))
    shell = radius * shell / np.linalg.norm(shell, axis=1, keepdims=True)
    interior = noise.sample(rng, count)
    clip = np.linalg.norm(interior, axis=1, keepdims=True)
    interior = np.where(clip > radius, interior * (radius / clip), interior)
    pts = np.vstack([shell, interior, np.zeros((1, noise.dim))])
    return pts, {"quantile": quantile, "radius": radius}


def rpi_check(sys: SystemModel, policy: PolicyFamily, region: RegionDescriptor,
              vartheta_bar: float, sample_budget: int = 20_000,
              seed: int = 0) -> RpiCertificate:
    """Falsification scan of robust positive invariance: corners plus
    quasi-random interior states, noise/dither support points, and parameters
    on and inside the vartheta_bar sphere around the true parameter.
    """
    if vartheta_bar <= 0:
        raise ContractViolation("vartheta_bar must be positive")
    if not region.is_bounded:
        # everything is invariant in the whole space by construction
        return RpiCertificate(region=region, vartheta_bar=vartheta_bar,
                              samples_checked=0,
                              note="region covers the state space; trivially invariant")
    rng = substream(seed, 31)
    w_pts, trunc_w = _support_points(sys.process_noise, rng, 16)
    s_pts, trunc_s = _support_points(policy.dither, rng, 16)
    truncation = None
    if trunc_w or trunc_s:
        truncation = {"process_noise": trunc_w, "dither": trunc_s}

    th = sys.theta_star
    n_th = 16
    dirs = rng.standard_normal(size=(n_th, th.shape[0], th.shape[1]))
    dirs /= np.linalg.norm(dirs.reshape(n_th, -1), axis=1)[:, None, None]
    thetas = [th] + [th + vartheta_bar * d for d in dirs] \
        + [th + vartheta_bar * rng.uniform() * d for d in dirs[: n_th // 2]]

    # size the state sample so the full cross product stays near the budget
    combos = len(thetas) * len(s_pts) * len(w_pts)
    n_x = max(8, int(2 ** math.ceil(math.log2(max(sample_budget // combos, 8)))))
    if region.shape == "interval-box":
        corners = region.corners()
        sob = qmc.Sobol(d=region.dim, scramble=True, seed=int(rng.integers(2 ** 31)))
        unit = sob.random(n_x)
        interior = region.lows + unit * (region.highs - region.lows)
        xs = np.vstack([corners, interior])
    else:
        xs = np.vstack([region.grid(16), region.sample(rng, n_x)])

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
                    return RpiCertificate(
                        region=region, vartheta_bar=vartheta_bar,
                        samples_checked=checked, truncation=truncation,
                        falsified={"x": xs[i].tolist(), "s": s.tolist(),
                                   "w": w.tolist(), "theta": theta.tolist(),
                                   "exit_state": nxt[i].tolist()})
    return RpiCertificate(region=region, vartheta_bar=vartheta_bar,
                          samples_checked=checked, truncation=truncation,
                          note="not falsified")


def estimate_policy_lipschitz(policy_eval: Callable, theta_star, ball_radius: float,
                              sample_budget: int = 4000, x_max: float = 1e3,
                              n_split: Optional[int] = None, seed: int = 0,
                              safety: float = 1.5) -> float:
    """Worst observed ratio |policy(x, theta) - policy(x, theta*)| / |dtheta|
    over parameters within ball_radius of the truth, inflated by a safety
    factor.  policy_eval takes (x (k, n), theta) and returns the (k, m)
    controls (dither already fixed).

    Fails when the scan detects a rank collapse of the input-block inside
    the ball (the ratio blows up; callers should shrink the radius).
    """
    if ball_radius <= 0:
        raise ContractViolation("ball_radius must be positive")
    th = np.atleast_2d(np.asarray(theta_star, dtype=float))
    rng = substream(seed, 41)
    n = th.shape[1] if n_split is None else n_split
    tail_sv = np.linalg.svd(th[n:, :], compute_uv=False)
    if tail_sv.size == 0 or tail_sv[-1] <= ball_radius:
        raise CertificationError(
            f"input-block can lose rank inside the ball (sigma_min = "
            f"{0.0 if tail_sv.size == 0 else tail_sv[-1]:.3g} <= radius "
            f"{ball_radius:.3g}); retry with a smaller radius")
    n_theta = max(16, sample_budget // 64)
    n_x = 64

    # x scan: log-spaced magnitudes in random directions plus axes
    dirs = _unit_directions(n, n_x, rng)[: n_x]
    mags = np.geomspace(1e-3, x_max, n_x)
    xs = dirs * mags[:, None]

    base = np.asarray(policy_eval(xs, th), dtype=float)
    worst = 0.0
    for _ in range(n_theta):
        d = rng.standard_normal(size=th.shape)
        d /= np.linalg.norm(d, 2)
        r = ball_radius * rng.uniform(0.05, 1.0)
        cand = th + r * d
        tail = cand[n:, :]
        sv = np.linalg.svd(tail, compute_uv=False)
        if sv.size and sv[-1] < 1e-6 * max(1.0, sv[0]):
            raise CertificationError(
                "input-block rank collapse inside the parameter ball; "
                f"retry with a radius below {r:.3g}")
        dist = spectral_norm(cand - th)
        vals = np.asarray(policy_eval(xs, cand), dtype=float)
        diff = np.linalg.norm(vals - base, axis=-1)
        worst = max(worst, float(np.max(diff)) / dist)
    if worst == 0.0:
        raise CertificationError("policy difference scan saw only zeros; "
                                 "include nonzero states in the scan")
    return safety * worst


def lyapunov_drift(sys: SystemModel, policy: PolicyFamily,
                   cert: LyapunovCertificate, x, vartheta_tilde,
                   mc_samples: int = 4000, seed: int = 0,
                   key: tuple = ()) -> tuple[float, float]:
    """Monte-Carlo estimate (value, standard error) of the expected one-step
    change of V at state x when the policy runs at parameter error
    vartheta_tilde: E[V(g(x, alpha(x, S, theta* + vt), W))] - V(x).

    The noise and dither come from substream(seed, 51, *key) and
    substream(seed, 52, *key).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vt = np.asarray(vartheta_tilde, dtype=float)
    theta = sys.theta_star + vt
    w = sys.process_noise.sample(substream(seed, 51, *key), mc_samples)
    s = policy.dither.sample(substream(seed, 52, *key), mc_samples)
    xb = np.broadcast_to(x, (mc_samples, sys.n))
    u = np.asarray(policy.eval(xb, s, theta), dtype=float)
    nxt = step(sys, xb, u, w)
    vals = np.asarray(cert.V(nxt), dtype=float)
    v0 = float(np.asarray(cert.V(x[None, :]), dtype=float)[0])
    mean = float(vals.mean()) - v0
    se = float(vals.std(ddof=1) / math.sqrt(mc_samples)) if mc_samples > 1 else 0.0
    return mean, se


def check_lyapunov(sys: SystemModel, policy: PolicyFamily,
                   cert: LyapunovCertificate, x_samples,
                   theta_samples: int = 8, mc_samples: int = 4000,
                   seed: int = 0) -> dict:
    """Verify the sandwich bounds pointwise and the drift inequality within
    three standard errors on a (x, vartheta_tilde) grid.  Returns a report
    with worst margins; never raises on failure.
    """
    xs = np.atleast_2d(np.asarray(x_samples, dtype=float))
    if xs.shape[1] != sys.n:
        xs = xs.reshape(-1, sys.n)
    rng = substream(seed, 61)
    report = {"sandwich_ok": True, "drift_ok": True,
              "worst_sandwich_margin": math.inf, "worst_drift_margin": math.inf,
              "failures": []}

    v_vals = np.asarray(cert.V(xs), dtype=float)
    norms = np.linalg.norm(xs, axis=-1)
    lo = np.asarray(cert.alpha1(norms), dtype=float)
    hi = np.asarray(cert.alpha2(norms), dtype=float)
    margin = np.minimum(v_vals - lo, hi - v_vals)
    report["worst_sandwich_margin"] = float(np.min(margin))
    if np.any(margin < -1e-9 * (1.0 + np.abs(v_vals))):
        report["sandwich_ok"] = False
        bad = int(np.argmin(margin))
        report["failures"].append({"type": "sandwich", "x": xs[bad].tolist(),
                                   "V": float(v_vals[bad]),
                                   "alpha1": float(lo[bad]), "alpha2": float(hi[bad])})

    vb = cert.vartheta_bar
    tilts = [np.zeros_like(sys.theta_star)]
    for k in range(theta_samples - 1):
        d = rng.standard_normal(size=sys.theta_star.shape)
        d /= spectral_norm(d)
        tilts.append(vb * (0.25 + 0.75 * rng.uniform()) * d)
    worst_drift = math.inf
    for i, x in enumerate(xs):
        for j, vt in enumerate(tilts):
            drift, se = lyapunov_drift(sys, policy, cert, x, vt,
                                       mc_samples=mc_samples, seed=seed, key=(i, j))
            allowed = (-float(cert.alpha3(np.linalg.norm(x))) + cert.d_tilde
                       + float(cert.sigma3(spectral_norm(vt))))
            m = allowed + 3.0 * se - drift
            worst_drift = min(worst_drift, m)
            if m < 0:
                report["drift_ok"] = False
                report["failures"].append(
                    {"type": "drift", "x": x.tolist(),
                     "vartheta_tilde_norm": float(spectral_norm(vt)),
                     "drift": drift, "allowed": allowed, "se": se})
    report["worst_drift_margin"] = worst_drift
    report["ok"] = report["sandwich_ok"] and report["drift_ok"]
    return report
