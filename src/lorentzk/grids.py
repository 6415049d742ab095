"""Finite evaluation grids on (0, inf)."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite tuple of positive evaluation points."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("grid must contain at least one point")
        for p in pts:
            if not (p > 0.0 and math.isfinite(p)):
                raise ValueError(f"grid points must be positive and finite, got {p!r}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def log(cls, lo: float, hi: float, n: int) -> "Grid":
        """n log-spaced points on [lo, hi]."""
        if not (0.0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if n < 2:
            raise ValueError("need at least two points")
        la, lb = math.log(lo), math.log(hi)
        pts = [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]
        pts[0], pts[-1] = lo, hi
        return cls(tuple(pts))

    def union(self, extra: tuple[float, ...]) -> "Grid":
        """Grid over the same span with the extra points merged in."""
        merged = sorted(set(self.points) | {float(x) for x in extra if x > 0.0})
        return Grid(tuple(merged))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


DEFAULT_CHECK_GRID = Grid.log(1e-6, 1e6, 400)
