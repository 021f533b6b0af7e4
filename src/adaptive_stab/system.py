"""Plant model, policy family, trajectory container, and the one-step map.

The plant is x+ = f(x, u) + theta*^T psi(x, u) + w with known nominal map f,
known basis psi, and a hidden true parameter matrix theta*.  The true
parameter lives on the SystemModel for simulation only: policies and
estimators must never read it (certainty-equivalence discipline), which the
test suite checks by swapping it out underneath them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CertificationError, ContractViolation
from .linalg import pinv, reachability_matrix, sat, spectral_radius
from .noise import NoiseModel
from .regions import RegionDescriptor

REACHABILITY_SV_TOL = 1e-9


@dataclass(frozen=True)
class SystemModel:
    n: int                      # state dimension
    m: int                      # control dimension
    d: int                      # basis dimension
    q: int                      # dither dimension
    nominal_f: Callable         # (x, u) -> R^n, vectorised over leading axes
    basis_psi: Callable         # (x, u) -> R^d, vectorised over leading axes
    theta_star: np.ndarray      # d x n, simulator-private ground truth
    process_noise: NoiseModel
    state_space: RegionDescriptor
    name: str = "custom"

    def __post_init__(self):
        ts = np.asarray(self.theta_star, dtype=float)
        if ts.shape != (self.d, self.n):
            raise ContractViolation(
                f"theta_star has shape {ts.shape}, expected ({self.d}, {self.n})")
        object.__setattr__(self, "theta_star", ts)
        if self.process_noise.dim != self.n:
            raise ContractViolation("process noise dimension must equal n")


@dataclass(frozen=True)
class PolicyFamily:
    eval: Callable              # (x (..., n), s (..., q), theta (..., d, n)) -> (..., m),
                                # leading axes broadcast: one theta (d, n) serves a batch
    u_max: float                # magnitude bound over all (x, s, theta)
    dither: NoiseModel          # distribution of the injected exploration noise
    name: str = "policy"

    def __call__(self, x, s, theta):
        return self.eval(x, s, theta)


def step(sys: SystemModel, x, u, w) -> np.ndarray:
    """One transition of the plant; supports batched leading axes."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if x.shape[-1] != sys.n:
        raise ContractViolation(f"state has trailing dim {x.shape[-1]}, expected {sys.n}")
    if u.shape[-1] != sys.m:
        raise ContractViolation(f"control has trailing dim {u.shape[-1]}, expected {sys.m}")
    if w.shape[-1] != sys.n:
        raise ContractViolation(f"noise has trailing dim {w.shape[-1]}, expected {sys.n}")
    psi = np.asarray(sys.basis_psi(x, u), dtype=float)
    # einsum, not matmul: a 2-D matmul's per-row result depends on the row
    # count, and the simulator steps a whole batch of trials while
    # verify_replay replays them one row at a time
    return (np.asarray(sys.nominal_f(x, u), dtype=float)
            + np.einsum("...d,dk->...k", psi, sys.theta_star) + w)


def split_theta(theta, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a (..., n + km, n) parameter into the (..., n, n) and
    (..., km, n) policy blocks, transposed."""
    th = np.atleast_2d(np.asarray(theta, dtype=float))
    if th.shape[-2] <= n:
        raise ContractViolation(
            f"parameter has {th.shape[-2]} rows, need more than n={n} to split")
    return np.swapaxes(th[..., :n, :], -1, -2), np.swapaxes(th[..., n:, :], -1, -2)


def policy_ce_sat(theta_split, x, s, u_bar1: float) -> np.ndarray:
    """Saturated certainty-equivalence feedback plus dither:
    sat_{u_bar1}(-theta2^+ theta1 x) + s.  Batched over leading axes of the
    state, the dither and the parameter blocks alike.
    """
    if u_bar1 <= 0:
        raise ContractViolation(f"u_bar1 must be positive, got {u_bar1}")
    th1, th2 = theta_split
    gain = pinv(th2) @ np.asarray(th1, dtype=float)          # (..., km, n)
    # einsum keeps each row's result independent of the batch size
    fb = -np.einsum("...kn,...n->...k", gain, np.asarray(x, dtype=float))
    return sat(fb, u_bar1) + np.asarray(s, dtype=float)


def make_ce_sat_policy(n: int, control_dim: int, u_bar1: float,
                       dither: NoiseModel, name: str = "ce-sat") -> PolicyFamily:
    """PolicyFamily wrapper around policy_ce_sat for a d = n + control_dim basis."""
    if dither.dim != control_dim:
        raise ContractViolation("dither dimension must match the control dimension")

    def _eval(x, s, theta):
        return policy_ce_sat(split_theta(theta, n), x, s, u_bar1)

    u_max = u_bar1 + dither.support.max_norm()
    return PolicyFamily(eval=_eval, u_max=float(u_max), dither=dither, name=name)


def subsample_linear(a, b, sigma_w, kappa: int) -> SystemModel:
    """Rewrite x+ = A x + B u + w sampled every kappa steps as a linearly
    parameterised plant: f = 0, theta* = [A^kappa  R_kappa(A,B)]^T,
    psi(x, u) = [x^T u^T]^T, Gaussian noise with covariance
    R_kappa(A, I) (I_kappa (x) Sigma_w) R_kappa(A, I)^T.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sigma_w = np.atleast_2d(np.asarray(sigma_w, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n):
        raise ContractViolation("A must be square")
    if b.shape[0] != n:
        raise ContractViolation("B row count must match A")
    if sigma_w.shape != (n, n):
        raise ContractViolation("Sigma_w must be n x n")
    if kappa < 1:
        raise ContractViolation(f"kappa must be >= 1, got {kappa}")
    if abs(np.linalg.det(a)) < 1e-12:
        raise ContractViolation("A must be full rank")
    rho = spectral_radius(a)
    if rho > 1.0 + 1e-9:
        raise ContractViolation(f"A must be (marginally) stable, spectral radius {rho:.6g} > 1")
    m = b.shape[1]
    r_ab = reachability_matrix(a, b, kappa)
    sv_min = float(np.linalg.svd(r_ab, compute_uv=False)[-1])
    if sv_min <= REACHABILITY_SV_TOL:
        raise CertificationError(
            f"(A, B) fails the {kappa}-step reachability check: "
            f"sigma_min(R_{kappa}) = {sv_min:.3e} <= {REACHABILITY_SV_TOL:.1e}")
    a_pow = np.linalg.matrix_power(a, kappa)
    theta_star = np.hstack([a_pow, r_ab]).T  # [A^kappa  R_kappa]^T, (n + km) x n
    r_ai = reachability_matrix(a, np.eye(n), kappa)
    cov = r_ai @ np.kron(np.eye(kappa), sigma_w) @ r_ai.T

    def nominal_f(x, u):
        return np.zeros(np.shape(x))

    def basis_psi(x, u):
        return np.concatenate([np.asarray(x, dtype=float),
                               np.asarray(u, dtype=float)], axis=-1)

    return SystemModel(
        n=n, m=kappa * m, d=n + kappa * m, q=kappa * m,
        nominal_f=nominal_f, basis_psi=basis_psi, theta_star=theta_star,
        process_noise=NoiseModel.gaussian(cov),
        state_space=RegionDescriptor.everything(n),
        name=f"subsampled-linear(kappa={kappa})",
    )


@dataclass
class Trajectory:
    """One closed-loop rollout.  Arrays are indexed so that states[t] = X(t),
    controls[t] = U(t), dithers[t] = S(t), noises[t] = W(t+1),
    regressors[t] = Z(t+1) = psi(X(t), U(t)), and estimates[t] = the value
    used at time t, i.e. theta_hat(t-1), the ridge solution over the first
    t-1 transitions (rows 0 and 1 both hold the initial guess).  The last row
    is the exception: estimates[T] is theta_hat(T), the solution over all T
    transitions, because the final transition is ingested before it is
    stored.  A diverged trial is cut at diverged_at, and its last estimate
    row is left at zero (estimate_errors reads it as inf).
    """

    states: np.ndarray
    controls: np.ndarray
    dithers: np.ndarray
    noises: np.ndarray
    estimates: np.ndarray
    regressors: np.ndarray
    trial_index: int = 0
    base_seed: int = 0
    diverged: bool = False
    diverged_at: Optional[int] = None

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    def abs_states(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=-1)

    def estimate_errors(self, theta_star) -> np.ndarray:
        """Spectral-norm estimation error per stored estimate.  A non-finite
        estimate, and the never-computed last row of a diverged trial, read
        as an infinite error."""
        diff = self.estimates - np.asarray(theta_star, dtype=float)[None, :, :]
        finite = np.all(np.isfinite(diff), axis=(1, 2))
        if self.diverged:
            finite[-1] = False
        out = np.full(len(diff), np.inf)
        out[finite] = np.linalg.norm(diff[finite], ord=2, axis=(1, 2))
        return out


def verify_replay(sys: SystemModel, traj: Trajectory, atol: float = 0.0) -> bool:
    """Recompute every stored transition through `step` and compare exactly
    (or to atol).  Used by the test suite as the simulation oracle.
    """
    t_end = traj.horizon if not traj.diverged else traj.diverged_at
    for t in range(t_end):
        expected = step(sys, traj.states[t], traj.controls[t], traj.noises[t])
        if atol == 0.0:
            if not np.array_equal(expected, traj.states[t + 1]):
                return False
        elif not np.allclose(expected, traj.states[t + 1], atol=atol, rtol=0.0):
            return False
        z = np.asarray(sys.basis_psi(traj.states[t], traj.controls[t]), dtype=float)
        if not np.array_equal(z, traj.regressors[t]):
            return False
    return True
