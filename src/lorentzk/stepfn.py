"""Exact algebra of non-negative step functions on (0, inf).

A step function is a finite list of breakpoints 0 < x_1 < ... < x_n with
values v_1, ..., v_n; the function equals v_i on the cell (x_{i-1}, x_i]
(x_0 := 0) and 0 on (x_n, inf).  At a breakpoint the value is taken from the
cell that contains it, i.e. f(x_i) = v_i.  Canonical form merges adjacent
cells with exactly equal values and drops trailing zero cells, so two step
functions are equal as functions iff their canonical data are equal.

The breakpoints and values are stored as read-only float64 numpy arrays, and
the cell operations run on them whole; lists appear only at the JSON edge
(``to_json``).  Scalar queries (``f(t)``, ``value_right``, the integrals,
``support_end``, ``first_breakpoint``) return Python floats, ``at`` evaluates
at many points at once.

On top of the exact cell algebra (sums, scaling, dilation, rearrangement)
the module provides two derived pointwise-evaluable objects:

* the running integral mean  t |-> (1/t) * integral_0^t f(s) ds  of a
  non-increasing function (``maximal``), and
* the oscillation transform  t |-> integral_0^{1/t} f(s) ds - f(1/t)/t
  (``osc_transform``), which for non-increasing f equals
  (1/t) * (mean(1/t) - f(1/t)) and is an involution on the cone of
  non-increasing functions vanishing at infinity.

Both are evaluated in closed form from prefix integrals; the oscillation
transform of a step function is itself a step function up to a null set and
``OscillationTransform.as_step`` returns that exact almost-everywhere form.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "StepFunction",
    "MaximalFunction",
    "OscillationTransform",
    "rearrange",
    "maximal",
    "osc_transform",
    "add",
    "scale",
    "dilate",
]


def json_number(value, what: str) -> float:
    """A decoded JSON number as a float; strings, booleans and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def json_numbers(value, what: str) -> tuple[float, ...]:
    """A decoded JSON array of numbers as a tuple of floats."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array of numbers, got {value!r}")
    return tuple(json_number(v, what) for v in value)


def _left_edges(breakpoints: np.ndarray) -> np.ndarray:
    """x_{i-1} for each cell, with x_0 = 0."""
    return np.concatenate(([0.0], breakpoints[:-1]))


def _canonical(breakpoints, values) -> tuple[np.ndarray, np.ndarray]:
    bps = np.array(breakpoints, dtype=float)
    vals = np.array(values, dtype=float)
    if bps.ndim != 1 or bps.shape != vals.shape:
        raise ValueError("breakpoints and values must have equal length")
    # a nan fails every comparison, and a strictly increasing array is finite when its ends are
    if bps.size and not (bps[0] > 0.0 and bps[-1] < math.inf and (bps[1:] > bps[:-1]).all()):
        raise ValueError("breakpoints must be finite, positive, strictly increasing")
    if vals.size and not (vals.min() >= 0.0 and vals.max() < math.inf):
        raise ValueError("values must be finite and non-negative")
    if n := vals.size:
        # a run of exactly equal values becomes one cell: its first value, its last
        # breakpoint; keep[1:n] marks where a new run starts, so keep[1:] picks the
        # breakpoints and keep[:-1] the values
        keep = np.empty(n + 1, dtype=bool)
        keep[0] = keep[n] = True
        np.not_equal(vals[1:], vals[:-1], out=keep[1:n])
        bps, vals = bps[keep[1:]], vals[keep[:-1]]
        if vals[-1] == 0.0:  # a trailing zero cell carries no mass
            bps, vals = bps[:-1], vals[:-1]
    bps.flags.writeable = vals.flags.writeable = False
    return bps, vals


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Canonical step function; immutable after construction.  It keeps what it computes of
    itself once: its prefix integrals (``_prefix``) and its rearrangement f* (``rearrange``)."""

    breakpoints: np.ndarray = ()
    values: np.ndarray = ()

    def __post_init__(self) -> None:
        bps, vals = _canonical(self.breakpoints, self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return np.array_equal(self.breakpoints, other.breakpoints) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self) -> int:
        return hash((tuple(self.breakpoints.tolist()), tuple(self.values.tolist())))

    # -- basic queries ----------------------------------------------------

    @classmethod
    def indicator(cls, length: float, height: float = 1.0) -> "StepFunction":
        return cls((length,), (height,))

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls((), ())

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0

    @property
    def support_end(self) -> float:
        return float(self.breakpoints[-1]) if self.breakpoints.size else 0.0

    @property
    def first_breakpoint(self) -> float:
        if not self.breakpoints.size:
            raise ValueError("zero function has no breakpoints")
        return float(self.breakpoints[0])

    def __call__(self, t: float) -> float:
        if not (t > 0.0):
            raise ValueError(f"step functions live on (0, inf); got t={t!r}")
        i = int(np.searchsorted(self.breakpoints, t, side="left"))
        return float(self.values[i]) if i < self.values.size else 0.0

    def at(self, points: np.ndarray) -> np.ndarray:
        """The value at each point of an array of positive points."""
        padded = np.append(self.values, 0.0)
        return padded[np.searchsorted(self.breakpoints, points, side="left")]

    def value_right(self, t: float) -> float:
        """Right-limit value just beyond t (0 at or past the support end)."""
        if not (t >= 0.0):
            raise ValueError("need t >= 0")
        i = int(np.searchsorted(self.breakpoints, t, side="right"))
        return float(self.values[i]) if i < self.values.size else 0.0

    # -- integrals --------------------------------------------------------

    @cached_property
    def _prefix(self) -> np.ndarray:
        """integral_0^{x_i} f for i = 0..n, summed cell by cell from the left."""
        cells = self.values * (self.breakpoints - _left_edges(self.breakpoints))
        return np.cumsum(np.concatenate(([0.0], cells)))

    @property
    def total_integral(self) -> float:
        return float(self._prefix[-1])

    def prefix_integral(self, t: float) -> float:
        """integral_0^t f(s) ds, exact."""
        if not (t >= 0.0):
            raise ValueError("need t >= 0")
        bps = self.breakpoints
        if not bps.size or t >= bps[-1]:
            return float(self._prefix[-1])
        i = int(np.searchsorted(bps, t, side="left"))
        a = bps[i - 1] if i > 0 else 0.0
        return float(self._prefix[i] + self.values[i] * (t - a))

    def is_nonincreasing(self) -> bool:
        # canonical form has unequal adjacent values and no trailing zero cell,
        # so non-increasing means strictly decreasing values
        return bool((self.values[1:] < self.values[:-1]).all())

    @cached_property
    def _rearranged(self) -> "StepFunction | None":
        """f* (``rearrange``), or None when f is non-increasing: keeping f itself would make a cycle."""
        if self.is_nonincreasing():
            return None
        positive = self.values > 0.0
        levels, level_of = np.unique(self.values[positive], return_inverse=True)
        lengths = (self.breakpoints - _left_edges(self.breakpoints))[positive]
        # each level's measure, summed in cell order; then the levels from the top
        sizes = np.bincount(level_of, weights=lengths, minlength=levels.size)
        bps, levels = np.cumsum(sizes[::-1]), levels[::-1]
        # a level whose breakpoint rounds onto the one before has a measure below the spacing there: dropped
        keep = np.concatenate(([True], bps[1:] > bps[:-1]))
        return StepFunction(bps[keep], levels[keep])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"breakpoints": self.breakpoints.tolist(), "values": self.values.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        data = json.loads(text)
        if not isinstance(data, dict) or set(data) != {"breakpoints", "values"}:
            raise ValueError("expected an object with 'breakpoints' and 'values'")
        return cls(
            json_numbers(data["breakpoints"], "breakpoints"), json_numbers(data["values"], "values")
        )


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    """f + g on the union of their breakpoints."""
    bps = np.union1d(f.breakpoints, g.breakpoints)
    return StepFunction(bps, f.at(bps) + g.at(bps))


def scale(f: StepFunction, c: float) -> StepFunction:
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError("scale factor must be finite and non-negative")
    return StepFunction(f.breakpoints, c * f.values)


def dilate(f: StepFunction, a: float) -> StepFunction:
    """t |-> f(a t); breakpoints divide by a."""
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("dilation factor must be positive and finite")
    return StepFunction(f.breakpoints / a, f.values)


def rearrange(f: StepFunction) -> StepFunction:
    """Non-increasing rearrangement: same values, cell lengths sorted by value.  A non-increasing f is
    its own rearrangement and is returned itself (re-summing its cell lengths can move a breakpoint one ulp);
    any other f computes f* on the first call and keeps it, and every later call returns that object."""
    fstar = f._rearranged
    return f if fstar is None else fstar


def _require_nonincreasing(f: StepFunction, what: str) -> None:
    if not f.is_nonincreasing():
        raise ValueError(f"{what} requires a non-increasing step function")


@dataclass(frozen=True)
class MaximalFunction:
    """Running integral mean t |-> (1/t) integral_0^t f of a non-increasing step f.

    Piecewise of the form (A + v (t - a)) / t per cell and (total mass)/t
    beyond the support; non-increasing and everywhere >= f.
    """

    base: StepFunction

    def __post_init__(self) -> None:
        _require_nonincreasing(self.base, "the running mean")

    def __call__(self, t: float) -> float:
        if not (t > 0.0):
            raise ValueError("need t > 0")
        return self.base.prefix_integral(t) / t


@dataclass(frozen=True)
class OscillationTransform:
    """Oscillation transform of a non-increasing step function.

    Evaluates  t |-> integral_0^{1/t} f - f(1/t)/t  exactly via prefix
    integrals.  Evaluation at a point where 1/t is a breakpoint of f uses the
    (x_{i-1}, x_i] cell convention for f(1/t), as ``StepFunction`` does.
    """

    base: StepFunction

    def __post_init__(self) -> None:
        _require_nonincreasing(self.base, "the oscillation transform")

    def __call__(self, t: float) -> float:
        if not (t > 0.0):
            raise ValueError("need t > 0")
        s = 1.0 / t
        return self.base.prefix_integral(s) - self.base(s) / t

    @property
    def limit_at_zero(self) -> float:
        """Limit as t -> 0+, the total mass of the base function."""
        return self.base.total_integral

    def as_step(self) -> StepFunction:
        """The exact a.e. step form.

        On (1/x_i, 1/x_{i-1}) the transform is the constant
        c_i = integral_0^{x_{i-1}} f - v_i x_{i-1}, and it equals the total
        mass below 1/x_n; the returned step function matches it off the
        finitely many reciprocal breakpoints.
        """
        f = self.base
        if f.is_zero:
            return StepFunction.zero()
        return StepFunction(1.0 / f.breakpoints[::-1], _osc_rows(f.breakpoints, f.values))


def _osc_rows(x: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``OscillationTransform.as_step``'s values on the cells ending at 1/x reversed, for each row of V,
    non-increasing values on the cells ending at x: [c_{n+1}, ..., c_2] with v_{n+1} = 0 (so c_{n+1} = A_n).
    Each c_i = A_{i-1} - v_i x_{i-1} is summed as jumps (v_{j-1} - v_j) x_{j-1}, as ``norms.cell_sums`` does:
    a run of equal values gives equal values exactly, and 0 at the start, where A - v x would leave
    rounding that a power below 1 blows up.  Not canonical: runs of equal values stay."""
    drops = V - np.concatenate((V[..., 1:], np.zeros(V.shape[:-1] + (1,))), axis=-1)
    return np.cumsum(drops * x, axis=-1)[..., ::-1]


def maximal(fstar: StepFunction) -> MaximalFunction:
    """Running integral mean of a non-increasing step function."""
    return MaximalFunction(fstar)


def osc_transform(fstar: StepFunction) -> OscillationTransform:
    """Oscillation transform of a non-increasing step function."""
    return OscillationTransform(fstar)
