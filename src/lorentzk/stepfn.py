"""Exact algebra of non-negative step functions on (0, inf).

A step function is a finite list of breakpoints 0 < x_1 < ... < x_n with
values v_1, ..., v_n; the function equals v_i on the cell (x_{i-1}, x_i]
(x_0 := 0) and 0 on (x_n, inf).  At a breakpoint the value is taken from the
cell that contains it, i.e. f(x_i) = v_i.  Canonical form merges adjacent
cells with exactly equal values and drops trailing zero cells, so two step
functions are equal as functions iff their canonical data are equal.

On top of the exact cell algebra (sums, scaling, clamped differences,
rearrangement) the module provides two derived pointwise-evaluable objects:

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

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property

from .grids import Grid

__all__ = [
    "EvaluableFunction",
    "StepFunction",
    "MaximalFunction",
    "OscillationTransform",
    "rearrange",
    "maximal",
    "osc_transform",
    "project_to_grid",
    "add",
    "scale",
    "sub_clamped",
    "pointwise_min_with_constant",
    "dilate",
    "equimeasurable",
    "GridProjectionError",
]

class GridProjectionError(ValueError):
    """Sampled values violate monotonicity beyond tolerance."""


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


class EvaluableFunction:
    """A non-negative function on (0, inf), evaluable at any positive point."""

    def __call__(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


def _canonicalize(
    breakpoints: tuple[float, ...], values: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if len(breakpoints) != len(values):
        raise ValueError("breakpoints and values must have equal length")
    prev = 0.0
    for x in breakpoints:
        if not (math.isfinite(x) and x > prev):
            raise ValueError("breakpoints must be finite, positive, strictly increasing")
        prev = x
    for v in values:
        if not (math.isfinite(v) and v >= 0.0):
            raise ValueError("values must be finite and non-negative")
    bps: list[float] = []
    vals: list[float] = []
    for x, v in zip(breakpoints, values):
        if vals and v == vals[-1]:
            bps[-1] = x  # merge cells with exactly equal values
        else:
            bps.append(x)
            vals.append(v)
    while vals and vals[-1] == 0.0:  # trailing zero cells carry no mass
        bps.pop()
        vals.pop()
    return tuple(bps), tuple(vals)


@dataclass(frozen=True)
class StepFunction(EvaluableFunction):
    """Canonical step function; immutable after construction."""

    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        bps, vals = _canonicalize(tuple(map(float, self.breakpoints)), tuple(map(float, self.values)))
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    # -- basic queries ----------------------------------------------------

    @classmethod
    def indicator(cls, length: float, height: float = 1.0) -> "StepFunction":
        return cls((length,), (height,))

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls((), ())

    @property
    def is_zero(self) -> bool:
        return not self.values

    @property
    def support_end(self) -> float:
        return self.breakpoints[-1] if self.breakpoints else 0.0

    @property
    def first_breakpoint(self) -> float:
        if not self.breakpoints:
            raise ValueError("zero function has no breakpoints")
        return self.breakpoints[0]

    def cells(self) -> list[tuple[float, float, float]]:
        """List of (left, right, value) triples."""
        out = []
        a = 0.0
        for b, v in zip(self.breakpoints, self.values):
            out.append((a, b, v))
            a = b
        return out

    def __call__(self, t: float) -> float:
        if not (t > 0.0):
            raise ValueError(f"step functions live on (0, inf); got t={t!r}")
        i = bisect.bisect_left(self.breakpoints, t)
        return self.values[i] if i < len(self.values) else 0.0

    def value_right(self, t: float) -> float:
        """Right-limit value just beyond t (0 at or past the support end)."""
        if not (t >= 0.0):
            raise ValueError("need t >= 0")
        i = bisect.bisect_right(self.breakpoints, t)
        return self.values[i] if i < len(self.values) else 0.0

    # -- integrals --------------------------------------------------------

    @cached_property
    def _prefix(self) -> tuple[float, ...]:
        acc = 0.0
        out = [0.0]
        a = 0.0
        for b, v in zip(self.breakpoints, self.values):
            acc += v * (b - a)
            out.append(acc)
            a = b
        return tuple(out)

    @property
    def total_integral(self) -> float:
        return self._prefix[-1]

    def prefix_integral(self, t: float) -> float:
        """integral_0^t f(s) ds, exact."""
        if not (t >= 0.0):
            raise ValueError("need t >= 0")
        bps = self.breakpoints
        if not bps or t >= bps[-1]:
            return self._prefix[-1]
        i = bisect.bisect_left(bps, t)
        a = bps[i - 1] if i > 0 else 0.0
        return self._prefix[i] + self.values[i] * (t - a)

    def is_nonincreasing(self) -> bool:
        # canonical form has unequal adjacent values, so non-increasing means
        # strictly decreasing values with no interior zero cell
        vals = self.values
        return all(vals[i] > vals[i + 1] for i in range(len(vals) - 1)) and (
            not vals or vals[-1] > 0.0
        )

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"breakpoints": list(self.breakpoints), "values": list(self.values)}
        )

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        data = json.loads(text)
        if not isinstance(data, dict) or set(data) != {"breakpoints", "values"}:
            raise ValueError("expected an object with 'breakpoints' and 'values'")
        return cls(
            json_numbers(data["breakpoints"], "breakpoints"), json_numbers(data["values"], "values")
        )


def _merged_values(
    f: StepFunction, g: StepFunction
) -> tuple[list[float], list[float], list[float]]:
    """Union of breakpoints and the per-cell values of f and g on it."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    fv = [f(b) for b in bps]
    gv = [g(b) for b in bps]
    return bps, fv, gv


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    bps, fv, gv = _merged_values(f, g)
    return StepFunction(tuple(bps), tuple(a + b for a, b in zip(fv, gv)))


def scale(f: StepFunction, c: float) -> StepFunction:
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError("scale factor must be finite and non-negative")
    return StepFunction(f.breakpoints, tuple(c * v for v in f.values))


def sub_clamped(f: StepFunction, g: StepFunction) -> StepFunction:
    """(f - g)^+ on the merged cell grid."""
    bps, fv, gv = _merged_values(f, g)
    return StepFunction(tuple(bps), tuple(max(a - b, 0.0) for a, b in zip(fv, gv)))


def pointwise_min_with_constant(f: StepFunction, c: float) -> StepFunction:
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError("constant must be finite and non-negative")
    return StepFunction(f.breakpoints, tuple(min(v, c) for v in f.values))


def dilate(f: StepFunction, a: float) -> StepFunction:
    """t |-> f(a t); breakpoints divide by a."""
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("dilation factor must be positive and finite")
    return StepFunction(tuple(x / a for x in f.breakpoints), f.values)


def rearrange(f: StepFunction) -> StepFunction:
    """Non-increasing rearrangement: same values, cell lengths sorted by value."""
    sizes: dict[float, float] = {}
    a = 0.0
    for b, v in zip(f.breakpoints, f.values):
        if v > 0.0:
            sizes[v] = sizes.get(v, 0.0) + (b - a)
        a = b
    bps: list[float] = []
    vals: list[float] = []
    acc = 0.0
    for v in sorted(sizes, reverse=True):
        acc += sizes[v]
        bps.append(acc)
        vals.append(v)
    return StepFunction(tuple(bps), tuple(vals))


def equimeasurable(f: StepFunction, g: StepFunction) -> bool:
    """True iff f and g have identical non-increasing rearrangements."""
    return rearrange(f) == rearrange(g)


def _require_nonincreasing(f: StepFunction, what: str) -> None:
    if not f.is_nonincreasing():
        raise ValueError(f"{what} requires a non-increasing step function")


@dataclass(frozen=True)
class MaximalFunction(EvaluableFunction):
    """Running integral mean t |-> (1/t) integral_0^t f of a non-increasing step f.

    Piecewise of the form (A + v (t - a)) / t per cell and (total mass)/t
    beyond the support; non-increasing and everywhere >= f.
    """

    base: StepFunction

    def __post_init__(self) -> None:
        if not self.base.is_zero:
            _require_nonincreasing(self.base, "the running mean")

    def __call__(self, t: float) -> float:
        if not (t > 0.0):
            raise ValueError("need t > 0")
        return self.base.prefix_integral(t) / t


@dataclass(frozen=True)
class OscillationTransform(EvaluableFunction):
    """Oscillation transform of a non-increasing step function.

    Evaluates  t |-> integral_0^{1/t} f - f(1/t)/t  exactly via prefix
    integrals.  Evaluation at a point where 1/t is a breakpoint of f uses the
    (x_{i-1}, x_i] cell convention for f(1/t), as ``StepFunction`` does.
    """

    base: StepFunction

    def __post_init__(self) -> None:
        if not self.base.is_zero:
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
        n = len(f.breakpoints)
        if n == 0:
            return StepFunction.zero()
        prefix = f._prefix
        # c_i for i = 1..n; c_1 = 0 is the value beyond 1/x_1 and is dropped
        c = [prefix[i - 1] - f.values[i - 1] * (f.breakpoints[i - 2] if i >= 2 else 0.0) for i in range(1, n + 1)]
        bps = [1.0 / x for x in reversed(f.breakpoints)]
        vals = [f.total_integral] + [c[i] for i in range(n - 1, 0, -1)]
        return StepFunction(tuple(bps), tuple(vals))


def maximal(fstar: StepFunction) -> MaximalFunction:
    """Running integral mean of a non-increasing step function."""
    if not fstar.is_zero:
        _require_nonincreasing(fstar, "maximal")
    return MaximalFunction(fstar)


def osc_transform(fstar: StepFunction) -> OscillationTransform:
    """Oscillation transform of a non-increasing step function."""
    return OscillationTransform(fstar)


def project_to_grid(g: EvaluableFunction, grid: Grid, tol: float = 1e-9) -> StepFunction:
    """Sample a non-increasing function at grid points into a step function.

    The result takes the value g(x_i) on (x_{i-1}, x_i] (x_0 = 0), which
    under-approximates a non-increasing g on each cell.  Sampled increases
    beyond tol raise GridProjectionError; smaller wiggles (quadrature noise)
    are repaired by a running minimum.
    """
    samples = [float(g(x)) for x in grid.points]
    scale_ref = max((abs(s) for s in samples), default=0.0)
    allowed = tol * max(1.0, scale_ref)
    out: list[float] = []
    run = math.inf
    for x, s in zip(grid.points, samples):
        if s > run + allowed:
            raise GridProjectionError(
                f"sampled values increase at t={x!r} by {s - run!r} (tolerance {allowed!r})"
            )
        run = min(run, s)
        out.append(max(run, 0.0))
    return StepFunction(grid.points, tuple(out))
