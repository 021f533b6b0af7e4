"""The two shipped plants: a regionally controllable piecewise-affine scalar
system with bounded noise, and an input-constrained linear system controlled
through its kappa-step sub-sampled form with Gaussian noise.

Each builder returns the full bundle: system, policy, growth envelopes, and
the analytic excitation / invariance / Lyapunov certificates, ready for the
bound schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import BoundInputs, ComparisonFunctionSet
from .certify import (ExcitationCertificate, LyapunovCertificate, RpiCertificate,
                      estimate_policy_lipschitz, excitation_from_moments)
from .errors import CertificationError, ContractViolation
from .kfuncs import MonotoneFn, exp_minus_one, identity, scaled_identity
from .linalg import reachability_matrix, spectral_norm
from .noise import NoiseModel
from .regions import RegionDescriptor
from .rng import substream
from .system import (PolicyFamily, SystemModel, make_ce_sat_policy, policy_ce_sat,
                     split_theta, subsample_linear)

PWA_GAIN = 0.1   # fixed control gain of the piecewise-affine plant


@dataclass(frozen=True)
class PwaExampleParams:
    x_bar: float = 3000.0
    u_bar1: float = 0.9
    u_bar2: float = 0.1          # dither half-width (s_bar)
    w_bar: float = 0.07
    gamma: float = 1e-4
    x0: float = 0.5
    vartheta0: Optional[np.ndarray] = None

    @property
    def u_max(self) -> float:
        return self.u_bar1 + self.u_bar2

    def validate(self):
        if min(self.x_bar, self.u_bar1, self.u_bar2, self.w_bar, self.gamma) <= 0:
            raise ContractViolation("all magnitudes must be positive")
        lhs_44 = self.w_bar + PWA_GAIN * (self.u_max + self.u_bar1)
        if self.x_bar < lhs_44:
            raise ContractViolation(
                f"controllability radius too small: x_bar = {self.x_bar} < "
                f"w_bar + 0.1(u_max + u_bar1) = {lhs_44}")
        if not PWA_GAIN * self.u_bar1 > PWA_GAIN * self.u_bar2 + self.w_bar:
            raise ContractViolation(
                f"feedback cannot dominate the noise: 0.1*u_bar1 = "
                f"{PWA_GAIN * self.u_bar1} must exceed 0.1*s_bar + w_bar = "
                f"{PWA_GAIN * self.u_bar2 + self.w_bar}")


@dataclass(frozen=True)
class LinearExampleParams:
    a: np.ndarray = field(default_factory=lambda: np.array([[1.0, 1.0], [0.0, 1.0]]))
    b: np.ndarray = field(default_factory=lambda: np.array([[0.0], [1.0]]))
    sigma_w: np.ndarray = field(default_factory=lambda: 0.0025 * np.eye(2))
    kappa: int = 2
    u_max: float = 1.0
    u_bar1: float = 0.9
    gamma: float = 1e-4
    x0: Optional[np.ndarray] = None
    vartheta0: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return np.atleast_2d(self.b).shape[1]

    @property
    def u_bar2(self) -> float:
        return (self.u_max - self.u_bar1) / math.sqrt(self.kappa * self.m)

    def validate(self):
        if not 0 < self.u_bar1 < self.u_max:
            raise ContractViolation("need 0 < u_bar1 < u_max")
        if self.kappa < 1:
            raise ContractViolation("kappa must be >= 1")


@dataclass
class PlantBundle:
    """Everything the harness and bound machinery need for one example."""

    system: SystemModel
    policy: PolicyFamily
    cfs: ComparisonFunctionSet
    excitation: ExcitationCertificate
    rpi: RpiCertificate
    lyapunov: LyapunovCertificate
    gamma: float
    x0: np.ndarray
    vartheta0: np.ndarray
    pe_region: RegionDescriptor
    extras: dict = field(default_factory=dict)

    def bound_inputs(self) -> BoundInputs:
        return BoundInputs(
            cfs=self.cfs, u_max=self.policy.u_max,
            sigma_w=self.system.process_noise.sub_gaussian_sigma,
            n=self.system.n, d=self.system.d, gamma=self.gamma,
            theta_star_frob=float(np.linalg.norm(self.system.theta_star, "fro")),
            c_pe=self.excitation.c_pe, p_pe=self.excitation.p_pe,
            vartheta_bar=self.rpi.vartheta_bar,
            rpi_region=self.rpi.region, state_space=self.system.state_space)


def compute_h(r_star, dither: NoiseModel, noise: NoiseModel,
              mc_samples: int = 200_000, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate (value, standard error) of
    h = ln E[exp(|R S|)] + ln E[exp(|W|)].
    """
    r = np.atleast_2d(np.asarray(r_star, dtype=float))
    s = dither.sample(substream(seed, 71), mc_samples)
    w = noise.sample(substream(seed, 72), mc_samples)
    es = np.exp(np.linalg.norm(s @ r.T, axis=-1))
    ew = np.exp(np.linalg.norm(w, axis=-1))
    if not (np.all(np.isfinite(es)) and np.all(np.isfinite(ew))):
        raise CertificationError("exponential moment estimate is non-finite")
    m_s, m_w = float(es.mean()), float(ew.mean())
    h = math.log(m_s) + math.log(m_w)
    se = math.sqrt((es.std(ddof=1) / (m_s * math.sqrt(mc_samples))) ** 2
                   + (ew.std(ddof=1) / (m_w * math.sqrt(mc_samples))) ** 2)
    return h, se


def _exp_envelope(coeff: float, rate: float = 1.0, name: str = "") -> MonotoneFn:
    """r -> coeff * (exp(rate r) - 1) as an invertible monotone callable."""
    if coeff <= 0 or rate <= 0:
        raise CertificationError(f"degenerate envelope (coeff={coeff}, rate={rate})")
    return MonotoneFn(lambda r: coeff * np.expm1(rate * r),
                      inverse=lambda y: np.log1p(y / coeff) / rate,
                      name=name or f"{coeff:.3g}*expm1({rate:.3g}r)")


def _norm_exp_v(x):
    x = np.asarray(x, dtype=float)
    return np.expm1(np.linalg.norm(np.atleast_1d(x), axis=-1))


def _feedback_only(n: int, u_bar1: float):
    """The certainty-equivalence feedback without dither, (x, theta) -> u,
    as the policy Lipschitz scan consumes it."""
    return lambda x, theta: policy_ce_sat(split_theta(theta, n), x, 0.0, u_bar1)


def build_pwa(params: PwaExampleParams = PwaExampleParams(),
              seed: int = 0, lipschitz_budget: int = 4000) -> PlantBundle:
    """Piecewise-affine example: x+ = x + 0.1 1{|x| <= x_bar} u + w with
    uniform noise and a saturated certainty-equivalence policy plus dither.
    """
    params.validate()
    x_bar, u1, u2, w_bar = params.x_bar, params.u_bar1, params.u_bar2, params.w_bar
    theta_star = np.array([[1.0], [PWA_GAIN]])

    def nominal_f(x, u):
        return np.zeros(np.shape(x))

    def basis_psi(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        ind = (np.abs(x) <= x_bar).astype(float)
        return np.concatenate([x, ind * u], axis=-1)

    system = SystemModel(
        n=1, m=1, d=2, q=1, nominal_f=nominal_f, basis_psi=basis_psi,
        theta_star=theta_star,
        process_noise=NoiseModel.uniform_box([w_bar]),
        state_space=RegionDescriptor.everything(1), name="pwa")
    dither = NoiseModel.uniform_box([u2])
    policy = make_ce_sat_policy(n=1, control_dim=1, u_bar1=u1,
                                dither=dither, name="pwa-ce-sat")

    cfs = ComparisonFunctionSet(
        chi1=scaled_identity(1e-9, "1e-9*id"), chi2=identity(),
        chi3=scaled_identity(PWA_GAIN), chi4=identity(), chi5=identity(),
        sigma1=identity(), sigma2=identity(), c1=0.0)

    pe_radius = x_bar - w_bar
    pe_region = RegionDescriptor.interval(-pe_radius, pe_radius)
    c_pe1 = min(w_bar / 4.0, w_bar * u2 / (8.0 * u1 + 4.0 * w_bar))
    c_pe2 = 3.0 * max(w_bar ** 2 / 3.0, u2 ** 2 / 3.0 + 4.0 * u1 ** 2)
    excitation = excitation_from_moments(c_pe1, c_pe2, region=pe_region,
                                         mc_config={"source": "analytic"})

    h, h_se = compute_h(np.array([[PWA_GAIN]]), dither, system.process_noise,
                        seed=seed)
    if h >= PWA_GAIN * u1:
        raise CertificationError(
            f"exponential noise moment h = {h:.4g} (+/- {h_se:.1e}) is not "
            f"dominated by the feedback authority 0.1*u_bar1 = {PWA_GAIN * u1:.4g}")

    scan_radius = 0.5 * PWA_GAIN
    c_lip = estimate_policy_lipschitz(_feedback_only(1, u1), theta_star, scan_radius,
                                      sample_budget=lipschitz_budget,
                                      x_max=10.0 * u1 / PWA_GAIN, n_split=1,
                                      seed=seed)
    # vartheta_bar must keep both the invariance inequality
    # 0.1 u1 >= 0.1 (C vb + s_bar) + w_bar and the drift-rate positivity
    # 0.1 u1 > h + C vb; the tighter cap wins, with a 0.9 safety factor
    cap_rpi = (u1 - u2 - w_bar / PWA_GAIN) / c_lip
    cap_lyap = (PWA_GAIN * u1 - h) / c_lip
    vartheta_bar = 0.9 * min(cap_rpi, cap_lyap, scan_radius)
    if vartheta_bar <= 0:
        raise CertificationError("no admissible parameter-error radius")

    rpi_radius = x_bar - w_bar - PWA_GAIN * params.u_max
    rpi_region = RegionDescriptor.interval(-rpi_radius, rpi_radius)
    rpi = RpiCertificate(region=rpi_region, vartheta_bar=vartheta_bar,
                         note="analytic (invariance inequality)")

    drift_rate = 1.0 - math.exp(-PWA_GAIN * u1 + h + PWA_GAIN * c_lip * vartheta_bar)
    convex_rate = 1.0 - math.exp(-PWA_GAIN * u1 + h + c_lip * vartheta_bar)
    lyapunov = LyapunovCertificate(
        V=_norm_exp_v,
        alpha1=exp_minus_one(), alpha2=exp_minus_one(),
        alpha3=_exp_envelope(drift_rate, name=f"{drift_rate:.3g}*expm1(r)"),
        sigma3=exp_minus_one(PWA_GAIN * c_lip),
        d_tilde=math.expm1(h),
        alpha_v=scaled_identity(convex_rate),
        region=rpi_region, vartheta_bar=vartheta_bar,
        meta={"h": h, "h_se": h_se, "C": c_lip})

    x0 = np.atleast_1d(np.asarray(params.x0, dtype=float))
    vt0 = params.vartheta0 if params.vartheta0 is not None else np.zeros((2, 1))
    return PlantBundle(system=system, policy=policy, cfs=cfs,
                       excitation=excitation, rpi=rpi, lyapunov=lyapunov,
                       gamma=params.gamma, x0=x0,
                       vartheta0=np.asarray(vt0, dtype=float),
                       pe_region=pe_region,
                       extras={"h": h, "h_se": h_se, "C": c_lip,
                               "params": params, "u_max": params.u_max})


def build_linear(params: LinearExampleParams = LinearExampleParams(),
                 seed: int = 0, lipschitz_budget: int = 4000) -> PlantBundle:
    """Input-constrained linear example controlled through its kappa-step
    sub-sampled form; globally excited, so the invariant region is the whole
    space and the high-probability route applies.
    """
    params.validate()
    a = np.atleast_2d(np.asarray(params.a, dtype=float))
    b = np.atleast_2d(np.asarray(params.b, dtype=float))
    kappa, m = params.kappa, params.m
    u1, u2 = params.u_bar1, params.u_bar2

    system = subsample_linear(a, b, params.sigma_w, kappa)
    n = system.n
    r_star = reachability_matrix(a, b, kappa)
    r_star_norm = spectral_norm(r_star)
    sv_min = float(np.linalg.svd(r_star, compute_uv=False)[-1])
    r_ai_norm = spectral_norm(reachability_matrix(a, np.eye(n), kappa))

    dither = NoiseModel.uniform_box([u2] * (kappa * m))
    # the sub-sampled parameter's state block already estimates A^kappa, so
    # the certainty-equivalence gain is theta2^+ theta1 with no extra power
    # (at the true parameter: R^+ A^kappa, the object the invariance and
    # drift analyses are built around); raising the sub-sampled block to the
    # kappa-th power again destabilises the loop
    policy = make_ce_sat_policy(n=n, control_dim=kappa * m, u_bar1=u1,
                                dither=dither, name="linear-ce-sat")

    cfs = ComparisonFunctionSet(
        chi1=scaled_identity(1e-9, "1e-9*id"), chi2=identity(),
        chi3=scaled_identity(r_star_norm), chi4=scaled_identity(r_ai_norm),
        chi5=identity(), sigma1=identity(), sigma2=identity(), c1=0.0)

    cov = system.process_noise.covariance
    lam = np.linalg.eigvalsh(cov)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    c_pe1 = min(
        math.sqrt(lam_min * n * m * kappa) * u2
        / (2.0 * math.sqrt(2.0 * math.pi) * u1 + 4.0 * math.sqrt(lam_min) * n),
        math.sqrt(lam_min * n / (2.0 * math.pi)))
    c_pe2 = 3.0 * (max(lam_max, u2 ** 2 / 3.0) + 4.0 * u1 ** 2)
    everything = RegionDescriptor.everything(n)
    excitation = excitation_from_moments(c_pe1, c_pe2, region=everything,
                                         mc_config={"source": "analytic"})

    h, h_se = compute_h(r_star, dither, system.process_noise, seed=seed)
    authority = sv_min * u1
    if h >= authority:
        raise CertificationError(
            f"exponential noise moment h = {h:.4g} (+/- {h_se:.1e}) is not "
            f"dominated by sigma_min(R)*u_bar1 = {authority:.4g}")

    scan_radius = 0.25 * sv_min
    c_lip = estimate_policy_lipschitz(_feedback_only(n, u1), system.theta_star,
                                      scan_radius, sample_budget=lipschitz_budget,
                                      x_max=100.0, n_split=n, seed=seed)
    vartheta_bar = 0.9 * min((authority - h) / (r_star_norm * c_lip), scan_radius)
    if vartheta_bar <= 0:
        raise CertificationError("no admissible parameter-error radius")

    rpi = RpiCertificate(region=everything, vartheta_bar=vartheta_bar,
                         note="global route: whole space is invariant")

    drift_rate = 1.0 - math.exp(-authority + h + r_star_norm * c_lip * vartheta_bar)
    a_pow_norm = spectral_norm(np.linalg.matrix_power(a, kappa))
    meta = {"h": h, "h_se": h_se, "C": c_lip,
            "sigma_min_R": sv_min, "R_norm": r_star_norm,
            "A_kappa_norm": a_pow_norm}
    if a_pow_norm > 1.0 + 1e-9:
        # the drift derivation uses |A^kappa x| <= |x|; a marginally stable
        # but non-normal A (spectral radius 1, two-norm above 1) breaks that
        # step, so the certificate is heuristic for such plants
        meta["norm_caveat"] = (
            f"|A^kappa| = {a_pow_norm:.3f} > 1: the two-norm non-expansiveness "
            "behind the drift inequality does not hold; containment is "
            "practical rather than certified")
    lyapunov = LyapunovCertificate(
        V=_norm_exp_v,
        alpha1=exp_minus_one(), alpha2=exp_minus_one(),
        alpha3=_exp_envelope(drift_rate, name=f"{drift_rate:.3g}*expm1(r)"),
        sigma3=exp_minus_one(2.0 * r_star_norm * c_lip),
        d_tilde=math.expm1(h),
        alpha_v=scaled_identity(drift_rate),
        region=everything, vartheta_bar=vartheta_bar,
        meta=meta)

    x0 = params.x0 if params.x0 is not None else np.zeros(n)
    vt0 = params.vartheta0 if params.vartheta0 is not None \
        else np.zeros((system.d, n))
    return PlantBundle(system=system, policy=policy, cfs=cfs,
                       excitation=excitation, rpi=rpi, lyapunov=lyapunov,
                       gamma=params.gamma, x0=np.atleast_1d(np.asarray(x0, float)),
                       vartheta0=np.asarray(vt0, dtype=float),
                       pe_region=everything,
                       extras={"h": h, "h_se": h_se, "C": c_lip,
                               "lam_min": lam_min, "lam_max": lam_max,
                               "sigma_min_R": sv_min, "params": params,
                               "u_max": params.u_max})
