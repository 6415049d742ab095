"""Finite evaluation grids on (0, inf)."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing positive evaluation points, a read-only float64 array."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or not pts.size:
            raise ValueError("grid must be a flat sequence of at least one point")
        ok = (pts > 0.0) & (pts < math.inf)  # a nan fails both
        if np.count_nonzero(ok) < pts.size:
            raise ValueError(f"grid points must be positive and finite, got {float(pts[np.argmin(ok)])!r}")
        if np.count_nonzero(pts[1:] <= pts[:-1]):
            raise ValueError("grid points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def log(cls, lo: float, hi: float, n: int) -> "Grid":
        """n log-spaced points on [lo, hi]."""
        if not (0.0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if n < 2:
            raise ValueError("need at least two points")
        la, lb = math.log(lo), math.log(hi)
        # libm exp per point: np.exp may differ in the last bit, which would move every grid
        pts = [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]
        pts[0], pts[-1] = lo, hi
        return cls(pts)

    def __len__(self) -> int:
        return self.points.size


DEFAULT_CHECK_GRID = Grid.log(1e-6, 1e6, 400)
