"""A weight that the condition checkers scan on a grid whatever its family.

The checkers of ``lorentzk.weights`` take the closed form for a power weight
and a grid scan for any other weight, with no option between the two routes.
``GridOnly(w)`` is a ``Weight`` but no ``PowerWeight``: it forwards w's
moments, values, density, kinks and panel scale, so that a test can set the
grid scan of a power weight, on the very moments it reads, against that
weight's closed form.
"""

import numpy as np

from lorentzk.weights import Weight


class GridOnly(Weight):
    """w under another family: the same numbers, the checkers' grid route."""

    def __init__(self, w: Weight):
        self.w = w

    def __call__(self, s: float) -> float:
        return self.w(s)

    def moment(self, e: float, a, b) -> np.ndarray:
        return self.w.moment(e, a, b)

    def at(self, s: np.ndarray) -> np.ndarray:
        return self.w.at(s)

    def u_density(self, u: np.ndarray) -> np.ndarray:
        return self.w.u_density(u)

    def kinks(self) -> tuple[float, ...]:
        return self.w.kinks()

    def _log_scale(self, e: float) -> float | None:
        return self.w._log_scale(e)

    def describe(self) -> str:
        return self.w.describe()
