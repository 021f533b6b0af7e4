"""Regularised least-squares parameter estimation with Gramian bookkeeping.

The estimator accumulates the regularised Gramian G = sum z z^T + gamma I
and the cross moment C = sum z (x+ - f)^T, and solves G theta = C on demand.
Dimensions are tiny, so an exact dense solve per query beats incremental
inverse updates on both robustness and simplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .linalg import sym_eig_extremes
from .system import SystemModel


def ridge_solve(G: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve the regularised normal equations G theta = C, batched over the
    leading axes of G (..., d, d) and C (..., d, n).
    """
    if G.shape[-1] == 2:
        # closed-form 2x2 solve; the Gramian is positive definite so the
        # determinant is bounded away from zero by gamma^2
        g00, g01 = G[..., 0, 0, None], G[..., 0, 1, None]
        g10, g11 = G[..., 1, 0, None], G[..., 1, 1, None]
        det = g00 * g11 - g01 * g10
        out = np.empty_like(C)
        out[..., 0, :] = (g11 * C[..., 0, :] - g01 * C[..., 1, :]) / det
        out[..., 1, :] = (g00 * C[..., 1, :] - g10 * C[..., 0, :]) / det
        return out
    return np.linalg.solve(G, C)


@dataclass
class RlsEstimator:
    gamma: float
    d: int
    n: int
    vartheta0: Optional[np.ndarray] = None
    G: np.ndarray = field(init=False)
    C: np.ndarray = field(init=False)
    t: int = field(init=False, default=0)

    def __post_init__(self):
        if self.gamma <= 0:
            raise ContractViolation(f"gamma must be positive, got {self.gamma}")
        if self.vartheta0 is None:
            self.vartheta0 = np.zeros((self.d, self.n))
        self.vartheta0 = np.asarray(self.vartheta0, dtype=float)
        if self.vartheta0.shape != (self.d, self.n):
            raise ContractViolation(
                f"vartheta0 has shape {self.vartheta0.shape}, expected ({self.d}, {self.n})")
        self.G = self.gamma * np.eye(self.d)
        self.C = np.zeros((self.d, self.n))

    def update(self, z, x_next, f_val) -> "RlsEstimator":
        """Ingest one sample: G += z z^T, C += z (x_next - f_val)^T."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        x_next = np.atleast_1d(np.asarray(x_next, dtype=float))
        f_val = np.atleast_1d(np.asarray(f_val, dtype=float))
        if z.shape != (self.d,):
            raise ContractViolation(f"regressor has shape {z.shape}, expected ({self.d},)")
        if x_next.shape != (self.n,) or f_val.shape != (self.n,):
            raise ContractViolation("state/nominal values must have shape (n,)")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(x_next))
                and np.all(np.isfinite(f_val))):
            raise ContractViolation("estimator update rejects non-finite inputs")
        self.G += np.outer(z, z)
        self.C += np.outer(z, x_next - f_val)
        self.t += 1
        return self

    def estimate(self) -> np.ndarray:
        """Current estimate: the initial guess before any data, otherwise the
        solution of the regularised normal equations.
        """
        if self.t == 0:
            return self.vartheta0.copy()
        return ridge_solve(self.G, self.C)

    def gramian_extremes(self) -> tuple[float, float]:
        return sym_eig_extremes(self.G)


def regressor(sys: SystemModel, x_prev, u_prev) -> np.ndarray:
    """Z(t) = psi(X(t-1), U(t-1))."""
    z = np.asarray(sys.basis_psi(np.atleast_1d(np.asarray(x_prev, dtype=float)),
                                 np.atleast_1d(np.asarray(u_prev, dtype=float))), dtype=float)
    if z.shape[-1] != sys.d:
        raise ContractViolation(f"basis returned dim {z.shape[-1]}, expected {sys.d}")
    return z


def estimation_error(theta_hat, theta_star) -> float:
    """Induced 2-norm of the estimate error."""
    a = np.atleast_2d(np.asarray(theta_hat, dtype=float))
    b = np.atleast_2d(np.asarray(theta_star, dtype=float))
    if a.shape != b.shape:
        raise ContractViolation(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, 2))


def batch_solve(gamma: float, zs, residuals) -> np.ndarray:
    """From-scratch solve of the regularised objective given raw samples.

    Independent oracle for the incremental estimator: builds the normal
    equations directly from the stored data.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))           # (t, d)
    res = np.atleast_2d(np.asarray(residuals, dtype=float))   # (t, n)
    d = zs.shape[1]
    g = zs.T @ zs + gamma * np.eye(d)
    c = zs.T @ res
    return np.linalg.solve(g, c)
