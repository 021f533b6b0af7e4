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

from .errors import CertificationError, ContractViolation
from .kfuncs import MonotoneFn
from .linalg import sat, spectral_norm
from .noise import NoiseModel
from .regions import RegionDescriptor
from .rng import substream
from .system import PolicyFamily, SystemModel, step

GAUSSIAN_TRUNCATION = 1.0 - 1e-6   # quantile used to truncate unbounded supports
MOMENT_BLOCK = 256   # sample rows per projection block of the moment scan
LIPSCHITZ_SAFETY = 1.5   # inflation of the worst observed policy Lipschitz ratio
LIPSCHITZ_THETAS = 62    # parameter draws of the policy Lipschitz scan


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


def _cache_aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array that starts on a 64-byte cache line.
    The moment scan's blocked products run about 15 % slower into an output
    block that does not, so without this their speed depends on where the
    heap happens to place the buffer."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + size].reshape(shape)


def _blocked_abs_sums(zetas: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """z -> sum_i |z_i . zeta_k| for every row zeta_k of zetas, in any d.

    The samples stream through MOMENT_BLOCK-row blocks of projections written
    into one reused (MOMENT_BLOCK, K) buffer, so the block stays in cache and
    each product is too small for BLAS to split over threads.
    """
    zetas_t = np.ascontiguousarray(zetas.T)    # BLAS is slower on the transposed view
    buf = _cache_aligned((MOMENT_BLOCK, zetas.shape[0]))
    ones = np.ones(MOMENT_BLOCK)

    def abs_sums(z: np.ndarray) -> np.ndarray:
        out = np.zeros(zetas.shape[0])
        for lo in range(0, len(z), MOMENT_BLOCK):
            rows = z[lo:lo + MOMENT_BLOCK]
            block = buf[:len(rows)]
            np.matmul(rows, zetas_t, out=block)
            np.abs(block, out=block)
            out += ones[:len(rows)] @ block    # faster than block.sum(axis=0)
        return out
    return abs_sums


def _half_plane_abs_sums(zetas: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """z -> sum_i |z_i . zeta_k| for every row zeta_k of zetas, in d = 2, with
    no N x K product.

    z . zeta > 0 holds exactly on the open half-plane on one side of the line
    through the origin orthogonal to zeta.  With R_k and L_k the sums of the
    z_i at angles strictly between the rays beta_k - pi and beta_k of that
    line and strictly outside them, and P_k and Q_k the sums of the z_i on
    the rays, sum_i |z_i . zeta_k| is
    |(L_k - R_k) . zeta_k| + |P_k . zeta_k| + |Q_k . zeta_k|.  The samples on
    a ray are kept apart because a ray angle rounds: a sample on an axis and
    a direction a rounding away from it share a float angle, and only the
    sign of P_k . zeta_k tells on which side they lie.  beta_k comes from the
    line's direction turned into the upper half-plane, so zeta and -zeta
    share it bit for bit and their sums stay bit-equal.

    The ray angles are sorted once here.  Per call: one arctan2, one
    searchsorted of the N sample angles into the rays, two weighted bincounts
    over the slots (the open sectors between rays, and the rays themselves)
    and their cumsums; R_k is a difference of two cumulative sums.  This is
    exact algebra: it differs from the blocked sums only by rounding.
    """
    lines = np.column_stack([-zetas[:, 1], zetas[:, 0]])
    down = (lines[:, 1] < 0) | ((lines[:, 1] == 0) & (lines[:, 0] < 0))
    lines[down] = -lines[down]
    beta = np.arctan2(lines[:, 1], lines[:, 0])     # in [0, pi]
    opposite = beta - math.pi
    # the NaN sentinel closes the last sector, and a NaN sample sorts onto it
    rays = np.append(np.unique(np.concatenate([opposite, beta])), np.nan)
    lo = 2 * np.searchsorted(rays, opposite) + 1    # slot of ray beta - pi
    hi = 2 * np.searchsorted(rays, beta) + 1        # slot of ray beta
    slots = 2 * len(rays) - 1

    def abs_sums(z: np.ndarray) -> np.ndarray:
        phi = np.arctan2(z[:, 1], z[:, 0])
        sector = np.searchsorted(rays, phi)     # rays[sector - 1] < phi <= rays[sector]
        slot = 2 * sector + (rays[sector] == phi)
        sums = np.column_stack([np.bincount(slot, weights=z[:, c], minlength=slots)
                                for c in range(2)])
        cum = np.cumsum(sums, axis=0)
        inside = cum[hi - 1] - cum[lo]                          # R_k
        parts = np.stack([cum[-1] - sums[lo] - sums[hi] - 2.0 * inside,   # L_k - R_k
                          sums[hi], sums[lo]])
        return np.abs(np.einsum("jkd,kd->jk", parts, zetas)).sum(axis=0)
    return abs_sums


def _projection_moments(zetas: np.ndarray) -> Callable[[np.ndarray],
                                                      tuple[np.ndarray, np.ndarray]]:
    """The moment kernel of the directions zetas (K, d): a function of the
    samples z (N, d) that returns the sums over the rows z_i of
    |z_i . zeta_k| and of (z_i . zeta_k)^2 for every row zeta_k of zetas.
    What depends on zetas alone is laid out once, here, for every call.

    The first sum comes from the half-plane kernel when d == 2
    (_half_plane_abs_sums, exact algebra that differs from the blocked sums
    only by rounding) and from the blocked projections otherwise
    (_blocked_abs_sums).  The second is exact algebra in every d:
    sum_i (z_i . zeta)^2 = zeta^T (Z^T Z) zeta, one d x d Gramian instead of
    a pass over the projections.
    """
    abs_sums = (_half_plane_abs_sums if zetas.shape[1] == 2 else _blocked_abs_sums)(zetas)

    def moments(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gram = z.T @ z
        return abs_sums(z), np.einsum("kd,de,ke->k", zetas, gram, zetas)
    return moments


def moment_scan(sys: SystemModel, policy: PolicyFamily, region: RegionDescriptor,
                x_grid: int = 33, theta_samples: int = 24, zeta_samples: int = 256,
                mc_samples: int = 10_000, seed: int = 0) -> tuple[float, float, dict]:
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
    thetas = default_theta_grid(sys.theta_star, rng, theta_samples)
    zetas = _unit_directions(sys.d, zeta_samples, rng)

    worst_mean = math.inf
    worst_mean_se = 0.0
    worst_var = 0.0
    argmin = None
    moments = _projection_moments(zetas)
    for xi, x in enumerate(xs):
        w = sys.process_noise.sample(substream(seed, 11, xi), mc_samples)
        s = policy.dither.sample(substream(seed, 12, xi), mc_samples)
        xw = x[None, :] + w
        for ti, theta in enumerate(thetas):
            u = np.asarray(policy.eval(xw, s, np.asarray(theta, float)), dtype=float)
            z = np.asarray(sys.basis_psi(xw, u), dtype=float)       # (mc, d)
            abs_sum, sq_sum = moments(z)
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


def _shifted_lattice(n: int, dim: int, seed: int) -> np.ndarray:
    """n points of the unit cube, frac(i g + u) for i < n: a rank-1 lattice
    with g = (1/n, alpha_2, ..., alpha_dim), where alpha_j = phi^-j are the
    R_d Kronecker constants (phi the positive root of x^(dim+1) = x + 1),
    and u a uniform random shift drawn from seed (Cranley & Patterson 1976).
    The first coordinate puts exactly one point in each of n equal cells.
    """
    phi = 2.0
    for _ in range(64):   # contraction by at least 1/2 per step
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    g = phi ** -np.arange(1.0, dim + 1.0)
    g[0] = 1.0 / n
    shift = np.random.default_rng(seed).random(dim)
    return (np.arange(n)[:, None] * g + shift) % 1.0


def _rpi_samples(sys: SystemModel, policy: PolicyFamily, region: RegionDescriptor,
                 vartheta_bar: float, sample_budget: int, seed: int):
    """The samples of rpi_check, in scan order: states xs (k, n), dither
    points, noise points, parameters, and the truncation record of the
    supports (None when neither was truncated)."""
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
        unit = _shifted_lattice(n_x, region.dim, int(rng.integers(2 ** 31)))
        interior = region.lows + unit * (region.highs - region.lows)
        xs = np.vstack([corners, interior])
    else:
        xs = np.vstack([region.grid(16), region.sample(rng, n_x)])
    return xs, s_pts, w_pts, thetas, truncation


def rpi_check(sys: SystemModel, policy: PolicyFamily, region: RegionDescriptor,
              vartheta_bar: float, sample_budget: int = 20_000,
              seed: int = 0) -> RpiCertificate:
    """Falsification scan of robust positive invariance: corners plus
    interior states, noise/dither support points, and parameters on and
    inside the vartheta_bar sphere around the true parameter.  A box region's
    interior states are a randomly shifted rank-1 lattice (``_shifted_lattice``);
    other bounded regions use a grid plus uniform samples.

    The policy is evaluated once per (theta, s) over the states, and ``step``
    and ``region.contains`` once per (theta, s) over every noise point times
    every state (``step`` contracts with einsum, so each row's bits do not
    depend on the batch).  The counterexample and ``samples_checked`` are
    those of a loop over (theta, s, w) that stops at the first noise point
    with an exit: ``samples_checked`` counts the states of every noise point
    up to and including it.
    """
    if vartheta_bar <= 0:
        raise ContractViolation("vartheta_bar must be positive")
    if not region.is_bounded:
        # everything is invariant in the whole space by construction
        return RpiCertificate(region=region, vartheta_bar=vartheta_bar,
                              samples_checked=0,
                              note="region covers the state space; trivially invariant")
    xs, s_pts, w_pts, thetas, truncation = _rpi_samples(
        sys, policy, region, vartheta_bar, sample_budget, seed)

    # row j * len(xs) + i of a step steps state i under noise point j
    n_w = len(w_pts)
    x_rows = np.tile(xs, (n_w, 1))
    w_rows = np.repeat(w_pts, len(xs), axis=0)
    checked = 0
    for theta in thetas:
        for s in s_pts:
            u = np.asarray(policy.eval(xs, np.broadcast_to(s, (len(xs), len(s))), theta),
                           dtype=float)
            nxt = step(sys, x_rows, np.tile(u, (n_w, 1)), w_rows)
            inside = region.contains(nxt).reshape(n_w, len(xs))
            if not np.all(inside):
                j = int(np.argmin(np.all(inside, axis=1)))   # first noise point with an exit
                i = int(np.argmin(inside[j]))
                return RpiCertificate(
                    region=region, vartheta_bar=vartheta_bar,
                    samples_checked=checked + (j + 1) * len(xs), truncation=truncation,
                    falsified={"x": xs[i].tolist(), "s": s.tolist(),
                               "w": w_pts[j].tolist(), "theta": theta.tolist(),
                               "exit_state": nxt[j * len(xs) + i].tolist()})
            checked += n_w * len(xs)
    return RpiCertificate(region=region, vartheta_bar=vartheta_bar,
                          samples_checked=checked, truncation=truncation,
                          note="not falsified")


def estimate_policy_lipschitz(policy: PolicyFamily, theta_star, ball_radius: float,
                              x_max: float = 1e3, seed: int = 0) -> float:
    """Worst observed ratio |policy(x, 0, theta) - policy(x, 0, theta*)| / |dtheta|
    over parameters within ball_radius of the truth, inflated by the factor
    LIPSCHITZ_SAFETY.  The policy is evaluated with zero dither.

    Fails when the scan detects a rank collapse of the input-block inside
    the ball (the ratio blows up; callers should shrink the radius).
    """
    if ball_radius <= 0:
        raise ContractViolation("ball_radius must be positive")
    th = np.atleast_2d(np.asarray(theta_star, dtype=float))
    rng = substream(seed, 41)
    n = th.shape[1]
    tail_sv = np.linalg.svd(th[n:, :], compute_uv=False)
    if tail_sv.size == 0 or tail_sv[-1] <= ball_radius:
        raise CertificationError(
            f"input-block can lose rank inside the ball (sigma_min = "
            f"{0.0 if tail_sv.size == 0 else tail_sv[-1]:.3g} <= radius "
            f"{ball_radius:.3g}); retry with a smaller radius")
    n_x = 64

    # x scan: log-spaced magnitudes in random directions plus axes
    dirs = _unit_directions(n, n_x, rng)[: n_x]
    mags = np.geomspace(1e-3, x_max, n_x)
    xs = dirs * mags[:, None]

    zeros = np.zeros((n_x, policy.dither.dim))
    base = np.asarray(policy.eval(xs, zeros, th), dtype=float)
    worst = 0.0
    for _ in range(LIPSCHITZ_THETAS):
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
        vals = np.asarray(policy.eval(xs, zeros, cand), dtype=float)
        diff = np.linalg.norm(vals - base, axis=-1)
        worst = max(worst, float(np.max(diff)) / dist)
    if worst == 0.0:
        raise CertificationError("policy difference scan saw only zeros; "
                                 "include nonzero states in the scan")
    return LIPSCHITZ_SAFETY * worst


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
