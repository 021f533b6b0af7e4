"""Small dense linear-algebra primitives used throughout the library.

Problem sizes are tiny (state/basis dimensions of a handful), so everything
is plain double-precision numpy with exactness preferred over speed.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

# Relative singular-value cutoff for the pseudo-inverse.  A stable cutoff
# keeps the certainty-equivalence feedback gain continuous near the true
# parameter, which the policy-Lipschitz estimate relies on.
PINV_RCOND = 1e-12


def sat(x, r: float):
    """Radial saturation: identity inside the ball of radius r, projection
    onto its boundary outside.  Operates on the last axis; scalars allowed.
    """
    if r <= 0:
        raise ContractViolation(f"saturation radius must be positive, got {r}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        mag = abs(float(arr))
        return float(arr) if mag <= r else float(np.sign(arr)) * r
    mag = np.linalg.norm(arr, axis=-1, keepdims=True)
    scale = np.ones_like(mag)
    np.divide(r, mag, out=scale, where=mag > r)
    return arr * scale


def pinv(mat) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below
    PINV_RCOND * sigma_max treated as zero.  Batched over leading axes.
    """
    arr = np.atleast_2d(np.asarray(mat, dtype=float))
    # 1xk / kx1 / 1x1 fast path: x^+ = x^T / |x|^2 (exact, avoids SVD cost
    # in the per-step policy evaluation).
    if 1 in arr.shape[-2:]:
        norm_sq = np.sum(arr * arr, axis=(-2, -1), keepdims=True)
        out = np.zeros_like(np.swapaxes(arr, -1, -2))
        np.divide(np.swapaxes(arr, -1, -2), norm_sq, out=out, where=norm_sq != 0.0)
        return out
    return np.linalg.pinv(arr, rcond=PINV_RCOND)


def reachability_matrix(a, b, kappa: int) -> np.ndarray:
    """Stack the column blocks [B, AB, ..., A^(kappa-1) B]."""
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if kappa < 1:
        raise ContractViolation(f"kappa must be >= 1, got {kappa}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"A must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ContractViolation(f"B has {b.shape[0]} rows, expected {a.shape[0]}")
    blocks = []
    cur = b
    for _ in range(kappa):
        blocks.append(cur)
        cur = a @ cur
    return np.hstack(blocks)


def spectral_norm(mat) -> float:
    """Induced 2-norm."""
    arr = np.atleast_2d(np.asarray(mat, dtype=float))
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def spectral_radius(mat) -> float:
    arr = np.atleast_2d(np.asarray(mat, dtype=float))
    return float(np.max(np.abs(np.linalg.eigvals(arr))))


def sym_eig_extremes(mat) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix."""
    arr = np.atleast_2d(np.asarray(mat, dtype=float))
    vals = np.linalg.eigvalsh(0.5 * (arr + arr.T))
    return float(vals[0]), float(vals[-1])
