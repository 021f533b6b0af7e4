"""Regularised least-squares parameter estimation.

The simulator keeps, per trial, the regularised Gramian G = sum z z^T +
gamma I and the cross moment C = sum z (x+ - f)^T.  `ingest` adds samples to
both in place and `ridge_solve` solves G theta = C; both batch over leading
axes.  Dimensions are tiny, so an exact dense solve per query beats
incremental inverse updates on both robustness and simplicity.
"""

from __future__ import annotations

import numpy as np


def ingest(G: np.ndarray, C: np.ndarray, z: np.ndarray, res: np.ndarray) -> None:
    """Add samples in place, batched over leading axes: G += z z^T and
    C += z res^T for G (..., d, d), C (..., d, n), z (..., d), res (..., n).
    """
    G += z[..., :, None] * z[..., None, :]
    C += z[..., :, None] * res[..., None, :]


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


def batch_solve(gamma: float, zs, residuals) -> np.ndarray:
    """From-scratch solve of the regularised objective given raw samples.

    Independent oracle for `ingest` + `ridge_solve`: builds the normal
    equations in one product from the stored data.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))           # (t, d)
    res = np.atleast_2d(np.asarray(residuals, dtype=float))   # (t, n)
    d = zs.shape[1]
    g = zs.T @ zs + gamma * np.eye(d)
    c = zs.T @ res
    return np.linalg.solve(g, c)
