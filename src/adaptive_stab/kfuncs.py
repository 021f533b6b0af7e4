"""Monotone scalar envelope functions (comparison functions) and inversion.

Growth envelopes enter the stability bounds as black-box increasing
callables that must support numeric inversion on the non-negative axis.
``MonotoneFn`` wraps a vectorised callable together with an optional
analytic inverse; ``numeric_inverse`` is the bisection fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation

INVERSE_TOL = 1e-10
INVERSE_MAX_ITER = 200


def numeric_inverse(f: Callable[[float], float], y: float, bracket: tuple[float, float]) -> float:
    """Solve f(x) = y by bisection for strictly increasing f on the bracket.

    Terminates when |f(x) - y| <= 1e-10 * (1 + |y|) or after 200 bisections.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo <= hi:
        raise ContractViolation(f"empty bracket ({lo}, {hi})")
    flo, fhi = float(f(lo)), float(f(hi))
    if not (flo <= y <= fhi):
        raise ContractViolation(
            f"target {y} outside bracket values [{flo}, {fhi}]"
        )
    tol = INVERSE_TOL * (1.0 + abs(y))
    for _ in range(INVERSE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = float(f(mid))
        if abs(fmid - y) <= tol:
            return mid
        if fmid < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MonotoneFn:
    """Strictly increasing function on [0, inf) with f(0) = 0.

    ``fn`` must accept numpy arrays.  ``inverse`` is optional; without it,
    ``inv`` brackets the root by doubling and bisects.
    """

    fn: Callable
    inverse: Optional[Callable] = None
    name: str = "fn"
    # slope when the function is exactly a*r; enables closed-form iterate
    # paths in the stability envelope that stay finite far outside float range
    linear_slope: Optional[float] = None
    # rate when the function is exactly exp(a*r) - 1; enables log-domain
    # evaluation of the envelope far outside float range
    exp_rate: Optional[float] = None

    def __call__(self, r):
        return self.fn(np.asarray(r, dtype=float)) if np.ndim(r) else float(self.fn(float(r)))

    def inv(self, y):
        """f^-1(y), elementwise over an array; a scalar gives a float."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr < 0):
            raise ContractViolation(
                f"cannot invert {self.name} at negative value {y_arr.min()}")
        if self.inverse is not None:
            out = np.asarray(self.inverse(y_arr), dtype=float)
        else:
            out = np.array([self._bisect_inv(float(v)) for v in y_arr.ravel()]
                           ).reshape(y_arr.shape)
        return float(out) if np.ndim(y) == 0 else out

    def _bisect_inv(self, y: float) -> float:
        if y == 0.0:
            return 0.0
        hi = 1.0
        for _ in range(2000):
            if float(self.fn(hi)) >= y:
                break
            hi *= 2.0
        else:
            raise ContractViolation(f"could not bracket {self.name}^-1({y})")
        return numeric_inverse(self.fn, y, (0.0, hi))


def identity() -> MonotoneFn:
    return MonotoneFn(lambda r: r, inverse=lambda y: y, name="id", linear_slope=1.0)


def scaled_identity(a: float, name: str | None = None) -> MonotoneFn:
    if a <= 0:
        raise ContractViolation(f"scale must be positive, got {a}")
    return MonotoneFn(lambda r: a * r, inverse=lambda y: y / a,
                      name=name or f"{a}*id", linear_slope=float(a))


def exp_minus_one(a: float = 1.0) -> MonotoneFn:
    """r -> exp(a r) - 1, the envelope family used by both worked examples."""
    if a <= 0:
        raise ContractViolation(f"rate must be positive, got {a}")
    return MonotoneFn(
        lambda r: np.expm1(a * r),
        inverse=lambda y: np.log1p(y) / a,
        name=f"expm1({a}r)",
        exp_rate=float(a),
    )


def power(p: float) -> MonotoneFn:
    if p <= 0:
        raise ContractViolation(f"exponent must be positive, got {p}")
    return MonotoneFn(lambda r: np.asarray(r, dtype=float) ** p,
                      inverse=lambda y: y ** (1.0 / p), name=f"r^{p}")
