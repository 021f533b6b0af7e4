"""State-space region descriptors: balls, interval boxes, or everything.

Regions carry just enough geometry for the certification machinery:
membership tests, the supremum of the Euclidean norm over the region,
corner enumeration (boxes), and uniform sampling for falsification scans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation

BALL = "ball"
BOX = "interval-box"
ALL = "all"


@dataclass(frozen=True)
class RegionDescriptor:
    shape: str
    center: Optional[np.ndarray] = None   # ball
    radius: Optional[float] = None        # ball
    lows: Optional[np.ndarray] = None     # box
    highs: Optional[np.ndarray] = None    # box
    dim: Optional[int] = None

    @staticmethod
    def ball(center, radius: float) -> "RegionDescriptor":
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if radius < 0:
            raise ContractViolation(f"ball radius must be >= 0, got {radius}")
        return RegionDescriptor(BALL, center=c, radius=float(radius), dim=c.size)

    @staticmethod
    def box(lows, highs) -> "RegionDescriptor":
        lo = np.atleast_1d(np.asarray(lows, dtype=float))
        hi = np.atleast_1d(np.asarray(highs, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ContractViolation("box needs lows <= highs of equal shape")
        return RegionDescriptor(BOX, lows=lo, highs=hi, dim=lo.size)

    @staticmethod
    def interval(low: float, high: float) -> "RegionDescriptor":
        return RegionDescriptor.box([low], [high])

    @staticmethod
    def everything(dim: Optional[int] = None) -> "RegionDescriptor":
        return RegionDescriptor(ALL, dim=dim)

    @property
    def is_all(self) -> bool:
        return self.shape == ALL

    @property
    def is_bounded(self) -> bool:
        return self.shape != ALL

    def contains(self, x):
        """Membership (closed region); vectorised over leading axes."""
        if self.shape == ALL:
            pts = np.asarray(x, dtype=float)
            return np.ones(pts.shape[:-1] if pts.ndim > 1 else (), dtype=bool) if pts.ndim else True
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        if pts.shape[-1] != self.dim and self.dim == 1:
            pts = pts[..., None]
        if self.shape == BALL:
            d = np.linalg.norm(pts - self.center, axis=-1)
            return d <= self.radius
        inside = np.logical_and(pts >= self.lows, pts <= self.highs)
        return np.all(inside, axis=-1)

    def max_norm(self) -> float:
        """sup of the Euclidean norm over the region (inf when unbounded)."""
        if self.shape == ALL:
            return math.inf
        if self.shape == BALL:
            return float(np.linalg.norm(self.center) + self.radius)
        return float(np.linalg.norm(np.maximum(np.abs(self.lows), np.abs(self.highs))))

    def corners(self) -> np.ndarray:
        if self.shape != BOX:
            raise ContractViolation(f"corners undefined for region shape {self.shape}")
        if self.dim > 16:
            raise ContractViolation("corner enumeration capped at 16 dimensions")
        cols = [(lo, hi) for lo, hi in zip(self.lows, self.highs)]
        return np.array(list(itertools.product(*cols)), dtype=float)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform interior samples, shape (count, dim)."""
        if self.shape == ALL:
            raise ContractViolation("cannot sample an unbounded region uniformly")
        if self.shape == BOX:
            return rng.uniform(self.lows, self.highs, size=(count, self.dim))
        # ball: direction times radius^(1/dim)-scaled magnitude
        z = rng.standard_normal(size=(count, self.dim))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        mags = self.radius * rng.uniform(size=(count, 1)) ** (1.0 / self.dim)
        return self.center + z * mags

    def grid(self, count: int) -> np.ndarray:
        """Deterministic covering points, shape (k, dim); includes extremes."""
        if self.shape == ALL:
            raise ContractViolation("cannot grid an unbounded region")
        if self.shape == BOX:
            if self.dim == 1:
                return np.linspace(self.lows[0], self.highs[0], count)[:, None]
            per_axis = max(2, int(round(count ** (1.0 / self.dim))))
            axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(self.lows, self.highs)]
            return np.array(list(itertools.product(*axes)), dtype=float)
        if self.dim == 1:
            return (self.center + np.linspace(-self.radius, self.radius, count)[:, None])
        # ball in >1d: radial shells along random-but-fixed directions
        rng = np.random.Generator(np.random.Philox(12345))
        dirs = rng.standard_normal(size=(max(count, 4), self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.linspace(0.0, self.radius, num=max(2, count // max(1, len(dirs)) + 1))
        pts = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, self.dim)
        return self.center + pts

    def to_dict(self) -> dict:
        d = {"shape": self.shape}
        if self.shape == BALL:
            d["center"] = self.center.tolist()
            d["radius"] = self.radius
        elif self.shape == BOX:
            d["lows"] = self.lows.tolist()
            d["highs"] = self.highs.tolist()
        if self.dim is not None:
            d["dim"] = self.dim
        return d
