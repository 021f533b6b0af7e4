"""Noise models: bounded uniform boxes, Gaussians, and point masses.

Each model reports a sub-Gaussian variance proxy used by the concentration
bounds: a bounded symmetric support of half-width w gives a w^2 proxy, a
Gaussian gives the largest covariance eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .kfuncs import INVERSE_TOL, numeric_inverse
from .regions import RegionDescriptor

UNIFORM_BOX = "uniform-box"
GAUSSIAN = "gaussian"
POINT_MASS = "point-mass"


def _chi2_log_sf(x: float, df: int) -> float:
    """log P(chi2_df > x) for integer df >= 1, from the finite series
    sf = sum_{a} h^a e^-h / Gamma(a + 1) over a = a0, a0 + 1, ... < df/2,
    h = x/2 and a0 = 0 (even df) or 1/2 (odd df, plus erfc(sqrt(h))).
    The terms are summed in the log domain, so no term over- or underflows.
    """
    if x <= 0.0:
        return 0.0
    h = 0.5 * x
    a0 = 0.5 * (df % 2)
    logs = [a * math.log(h) - h - math.lgamma(a + 1.0)
            for a in (a0 + j for j in range(df // 2))]
    if df % 2:
        s = math.sqrt(h)
        # beyond h = 700 erfc nears underflow; its upper bound
        # e^-h / (s sqrt(pi)) keeps the quantile on the conservative side
        logs.append(math.log(math.erfc(s)) if h < 700.0
                    else -h - math.log(s * math.sqrt(math.pi)))
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _chi2_quantile(prob: float, df: int) -> float:
    """Smallest x with P(chi2_df <= x) >= prob, to the tolerance of
    ``numeric_inverse``, which here acts on -log sf (so tail levels such as
    1 - 1e-6 keep full relative accuracy).  The target is raised by two
    tolerances so the returned x errs toward the larger value.
    """
    target = -math.log1p(-prob)
    target += 2.0 * INVERSE_TOL * (1.0 + target)
    # Laurent & Massart (2000): P(chi2_df >= df + 2 sqrt(df t) + 2t) <= e^-t;
    # t = 40 exceeds every target (prob < 1 gives target <= 53 log 2), and a
    # bracket that does not depend on prob keeps the quantile monotone in it
    t = 40.0
    hi = df + 2.0 * math.sqrt(df * t) + 2.0 * t
    return numeric_inverse(lambda x: -_chi2_log_sf(x, df), target, (0.0, hi))


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    dim: int
    half_widths: Optional[np.ndarray] = None   # uniform-box
    covariance: Optional[np.ndarray] = None    # gaussian
    value: Optional[np.ndarray] = None         # point-mass
    sub_gaussian_sigma: float = 0.0
    support: RegionDescriptor = None
    _chol: Optional[np.ndarray] = None

    @staticmethod
    def uniform_box(half_widths) -> "NoiseModel":
        hw = np.atleast_1d(np.asarray(half_widths, dtype=float))
        if np.any(hw < 0):
            raise ContractViolation("half-widths must be non-negative")
        return NoiseModel(
            kind=UNIFORM_BOX,
            dim=hw.size,
            half_widths=hw,
            sub_gaussian_sigma=float(np.max(hw, initial=0.0)),
            support=RegionDescriptor.box(-hw, hw),
        )

    @staticmethod
    def gaussian(covariance) -> "NoiseModel":
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
        if cov.shape[0] != cov.shape[1]:
            raise ContractViolation("covariance must be square")
        sym = 0.5 * (cov + cov.T)
        eigvals = np.linalg.eigvalsh(sym)
        if eigvals[0] < -1e-12 * max(1.0, eigvals[-1]):
            raise ContractViolation("covariance must be positive semi-definite")
        chol = np.linalg.cholesky(sym + 1e-300 * np.eye(sym.shape[0]))
        return NoiseModel(
            kind=GAUSSIAN,
            dim=cov.shape[0],
            covariance=sym,
            sub_gaussian_sigma=float(np.sqrt(max(eigvals[-1], 0.0))),
            support=RegionDescriptor.everything(cov.shape[0]),
            _chol=chol,
        )

    @staticmethod
    def point_mass(value) -> "NoiseModel":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return NoiseModel(
            kind=POINT_MASS,
            dim=v.size,
            value=v,
            sub_gaussian_sigma=0.0,
            support=RegionDescriptor.box(v, v),
        )

    def sample(self, rng: np.random.Generator, count: Optional[int] = None) -> np.ndarray:
        """Draw samples; shape (dim,) for count=None else (count, dim)."""
        n = 1 if count is None else int(count)
        if self.kind == UNIFORM_BOX:
            out = rng.uniform(-self.half_widths, self.half_widths, size=(n, self.dim))
        elif self.kind == GAUSSIAN:
            out = rng.standard_normal(size=(n, self.dim)) @ self._chol.T
        elif self.kind == POINT_MASS:
            out = np.broadcast_to(self.value, (n, self.dim)).copy()
        else:
            raise ContractViolation(f"unknown noise kind {self.kind!r}")
        return out[0] if count is None else out

    def norm_quantile(self, prob: float) -> float:
        """Radius r with P(|X| <= r) >= prob; used to truncate unbounded
        supports in falsification scans (the truncation level is recorded
        in the resulting certificate).
        """
        if not 0.0 < prob < 1.0:
            raise ContractViolation("quantile level must be in (0, 1)")
        if self.kind == UNIFORM_BOX:
            return float(np.linalg.norm(self.half_widths))
        if self.kind == POINT_MASS:
            return float(np.linalg.norm(self.value))
        # |X|^2 <= lambda_max * chi2_dim quantile
        lam_max = self.sub_gaussian_sigma ** 2
        return float(np.sqrt(lam_max * _chi2_quantile(prob, self.dim)))

    @property
    def bounded(self) -> bool:
        return self.kind != GAUSSIAN
