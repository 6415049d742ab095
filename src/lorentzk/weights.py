"""Weight families on (0, inf) and the balance conditions used by the couples.

A weight is a non-negative locally integrable function w; the library works
with three closed families:

* ``PowerWeight(beta)``          w(s) = s^beta
* ``PowerLogWeight(beta, gamma)`` w(s) = s^beta (1 + |log s|)^gamma
* ``TabulatedWeight(step)``      a step function

and the reciprocal transform  w -> t^{p-2} w(1/t), under which Power and
PowerLog are closed and Tabulated maps to a dedicated reciprocal-sampled
family.  Every weight has one moment routine: ``moment(e, a, b)``, the
integrals of s^e w(s) over (a, b) for a and b broadcast against each other
(0 <= a <= b <= inf), a float64 array with +inf where one diverges.  Power
weights integrate in closed form, tabulated ones by the same power primitive
over every pair and table cell at once, the reciprocal family by its base's
moment over (1/b, 1/a); PowerLog runs one adaptive quadrature (relative
target 1e-8) per pair, still inaccurate on long ranges near zero.  The
norms' cells, the K-oracle's sorted rows and each grid checker take their
moments in one call; ``primitive`` W(t) and ``tail_moment`` are its scalar
wrappers.  The gamma norm's node sums read weights through ``at`` (values
at an array of points) and ``kinks`` (where the weight is not smooth).

Head-side operations (W, the fundamental function, B_p / RB_p / doubling
checks) require local integrability near zero and raise InvalidWeightError
outside the family's validity range; tail-side operations are total so that
tail-only weights (e.g. negative powers below -1) remain usable.
"""

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.integrate import quad

from .grids import DEFAULT_CHECK_GRID, Grid
from .stepfn import EvaluableFunction, StepFunction, json_number, json_numbers

__all__ = [
    "Weight",
    "PowerWeight",
    "PowerLogWeight",
    "TabulatedWeight",
    "ReciprocalWeight",
    "InvalidWeightError",
    "PowerLaw",
    "RatioFunction",
    "ProductFunction",
    "CoupleConfig",
    "ConditionVerdict",
    "reciprocal_weight",
    "tail_fundamental",
    "fundamental",
    "fundamental_ratio",
    "tail_fundamental_ratio",
    "check_bp",
    "check_rbp",
    "check_delta2",
    "check_cond1",
    "check_cond3",
    "check_sufconds",
    "tail_diverges_at_zero",
    "weight_from_json_dict",
    "QUAD_REL_TOL",
    "QUASI_MONOTONE_THRESHOLD",
]

QUAD_REL_TOL = 1e-8
QUASI_MONOTONE_THRESHOLD = 10.0


class InvalidWeightError(ValueError):
    """Operation outside the weight family's validity range."""


def _bounds(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as broadcast float64 arrays; raises ValueError unless 0 <= a <= b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    if ((a < 0.0) | (b < a)).any():
        raise ValueError("need 0 <= a <= b")
    return a, b


def _power_int(q: float, a, b) -> np.ndarray:
    """integral_a^b s^q ds, elementwise on 0 <= a <= b <= inf (+inf on divergence)."""
    a, b = _bounds(a, b)
    qp = q + 1.0
    diverges = ((a == 0.0) & (qp <= 0.0)) | (np.isinf(b) & (qp >= 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if qp == 0.0:
            out = np.log(b / a)
        elif abs(qp) < 1e-3:
            # near q = -1 the two powers cancel; expm1 keeps their difference accurate
            out = np.where(a == 0.0, b ** qp, a ** qp * np.expm1(qp * np.log(b / a))) / qp
        else:
            out = (b ** qp - a ** qp) / qp
    return np.where(a == b, 0.0, np.where(diverges, math.inf, out))


class Weight(EvaluableFunction):
    """Common weight interface; subclasses provide pointwise values and moments."""

    family: str = "abstract"

    def moment(self, e: float, a, b) -> np.ndarray:
        """integral_a^b s^e w(s) ds for a, b scalars or arrays broadcast against
        each other (0 <= a <= b <= inf): a float64 array of their broadcast
        shape, +inf where the integral diverges and 0 where a == b."""
        raise NotImplementedError

    def at(self, s: np.ndarray) -> np.ndarray:
        """w at each point of an array of positive points."""
        raise NotImplementedError

    def kinks(self) -> tuple[float, ...]:
        """The increasing points of (0, inf) where w is not smooth."""
        return ()

    def primitive(self, t: float) -> float:
        """W(t) = integral_0^t w; raises InvalidWeightError when W is not finite."""
        val = float(self.moment(0.0, 0.0, t))
        if math.isinf(val):
            raise InvalidWeightError(
                f"{self.describe()} is not integrable near zero; W(t) diverges"
            )
        return val

    def tail_moment(self, p: float, t: float) -> float:
        """integral_t^inf s^{-p} w(s) ds; +inf when divergent."""
        return float(self.moment(-float(p), t, math.inf))

    def describe(self) -> str:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerWeight(Weight):
    """w(s) = s^beta.  Any real beta is constructible; W needs beta > -1."""

    beta: float
    family: str = field(default="power", init=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")

    def __call__(self, s: float) -> float:
        if not (s > 0.0):
            raise ValueError("weights live on (0, inf)")
        return s ** self.beta

    def at(self, s: np.ndarray) -> np.ndarray:
        """s^beta at each point."""
        return s ** self.beta

    def moment(self, e: float, a, b) -> np.ndarray:
        return _power_int(self.beta + e, a, b)

    def describe(self) -> str:
        return f"power weight s^{self.beta:g}"

    def to_json_dict(self) -> dict:
        return {"family": "power", "beta": self.beta}


@dataclass(frozen=True)
class PowerLogWeight(Weight):
    """w(s) = s^beta (1 + |log s|)^gamma; moments by adaptive quadrature."""

    beta: float
    gamma: float
    family: str = field(default="powerlog", init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and math.isfinite(self.gamma)):
            raise ValueError("beta and gamma must be finite")

    def __call__(self, s: float) -> float:
        if not (s > 0.0):
            raise ValueError("weights live on (0, inf)")
        return s ** self.beta * (1.0 + abs(math.log(s))) ** self.gamma

    def at(self, s: np.ndarray) -> np.ndarray:
        """s^beta (1 + |log s|)^gamma at each point."""
        out = np.abs(np.log(s))
        out += 1.0
        out **= self.gamma
        out *= s ** self.beta
        return out

    def kinks(self) -> tuple[float, ...]:
        """The log factor's kink at s = 1."""
        return (1.0,)

    def moment(self, e: float, a, b) -> np.ndarray:
        """One adaptive quadrature per pair, on the pairs as Python floats."""
        a, b = _bounds(a, b)
        pairs = zip(a.ravel().tolist(), b.ravel().tolist())
        return np.array([self._quad_moment(e, lo, hi) for lo, hi in pairs]).reshape(a.shape)

    def _quad_moment(self, e: float, a: float, b: float) -> float:
        q = self.beta + e
        if a == b:
            return 0.0
        # convergence is decided by the power factor; the log factor only
        # matters on the q == -1 borderline, which we classify divergent for
        # gamma >= -1 and refuse to resolve otherwise
        if a == 0.0 and (q < -1.0 or (q == -1.0 and self.gamma >= -1.0)):
            return math.inf
        if math.isinf(b) and (q > -1.0 or (q == -1.0 and self.gamma >= -1.0)):
            return math.inf

        def head(x: float) -> float:
            return x ** q * (1.0 + abs(math.log(x))) ** self.gamma

        total = 0.0
        if a < 1.0:
            total += _quad_improper(head, a, min(b, 1.0))
        if b > 1.0:
            lo = max(a, 1.0)
            if math.isinf(b):
                # u = 1/s maps (lo, inf) to (0, 1/lo)
                g = lambda u: u ** (-q - 2.0) * (1.0 + abs(math.log(u))) ** self.gamma
                total += _quad_improper(g, 0.0, 1.0 / lo)
            else:
                total += _quad_improper(head, lo, b)
        return total

    def describe(self) -> str:
        return f"power-log weight s^{self.beta:g} (1+|log s|)^{self.gamma:g}"

    def to_json_dict(self) -> dict:
        return {"family": "powerlog", "beta": self.beta, "gamma": self.gamma}


def _quad_improper(fn, a: float, b: float) -> float:
    if a >= b:
        return 0.0
    val, _err = quad(fn, a, b, epsrel=QUAD_REL_TOL, epsabs=0.0, limit=200)
    return val


def _quad_decades(fn, a: float, b: float) -> float:
    """Quadrature split per decade: wide ranges defeat a single adaptive pass
    when the mass concentrates near one endpoint."""
    if a >= b:
        return 0.0
    total = 0.0
    lo = a
    while lo < b:
        hi = min(lo * 10.0, b)
        total += _quad_improper(fn, lo, hi)
        lo = hi
    return total


@dataclass(frozen=True)
class TabulatedWeight(Weight):
    """Weight given by a step function; all moments are exact cell sums."""

    step: StepFunction
    family: str = field(default="tabulated", init=False, repr=False)

    def __post_init__(self) -> None:
        if self.step.is_zero:
            raise ValueError("tabulated weight must not be identically zero")

    def __call__(self, s: float) -> float:
        return self.step(s)

    def at(self, s: np.ndarray) -> np.ndarray:
        """The step value at each point (0 beyond the last step)."""
        return self.step.at(s)

    def kinks(self) -> np.ndarray:
        """Every step of the table."""
        return self.step.breakpoints

    def moment(self, e: float, a, b) -> np.ndarray:
        a, b = _bounds(a, b)
        bps = self.step.breakpoints
        live = self.step.values != 0.0
        lo = np.maximum(a[..., None], np.concatenate(([0.0], bps[:-1]))[live])
        hi = np.maximum(np.minimum(b[..., None], bps[live]), lo)  # lo == hi outside (a, b): 0
        return _power_int(e, lo, hi) @ self.step.values[live]

    def describe(self) -> str:
        return f"tabulated weight with {len(self.step.values)} cells"

    def to_json_dict(self) -> dict:
        return {
            "family": "tabulated",
            "breakpoints": self.step.breakpoints.tolist(),
            "values": self.step.values.tolist(),
        }


@dataclass(frozen=True)
class ReciprocalWeight(Weight):
    """t^{p-2} base(1/t): the reciprocal transform of a family not closed under it."""

    base: Weight
    p: float
    family: str = field(default="reciprocal", init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p > 0.0):
            raise ValueError("exponent p must be positive and finite")

    def __call__(self, s: float) -> float:
        if not (s > 0.0):
            raise ValueError("weights live on (0, inf)")
        return s ** (self.p - 2.0) * self.base(1.0 / s)

    def at(self, s: np.ndarray) -> np.ndarray:
        """t^{p-2} base(1/t) at each point."""
        return s ** (self.p - 2.0) * self.base.at(1.0 / s)

    def kinks(self) -> tuple[float, ...]:
        """The reciprocals of the base weight's kinks."""
        return tuple(1.0 / k for k in reversed(self.base.kinks()))

    def moment(self, e: float, a, b) -> np.ndarray:
        # substitute u = 1/s: integral becomes base-moment with exponent -e-p
        a, b = _bounds(a, b)
        with np.errstate(divide="ignore"):  # 1 / 0 = inf
            lo, hi = 1.0 / b, 1.0 / a
        return self.base.moment(-e - self.p, lo, hi)

    def describe(self) -> str:
        return f"reciprocal transform (p={self.p:g}) of {self.base.describe()}"

    def to_json_dict(self) -> dict:
        return {"family": "reciprocal", "p": self.p, "base": self.base.to_json_dict()}


def reciprocal_weight(w: Weight, p: float) -> Weight:
    """The transform w -> t^{p-2} w(1/t); involutive for fixed p."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    if isinstance(w, PowerWeight):
        return PowerWeight(p - 2.0 - w.beta)
    if isinstance(w, PowerLogWeight):
        return PowerLogWeight(p - 2.0 - w.beta, w.gamma)
    if isinstance(w, ReciprocalWeight) and w.p == p:
        return w.base
    return ReciprocalWeight(w, p)


def weight_from_json_dict(data: dict) -> Weight:
    """Inverse of ``to_json_dict``; numbers must be JSON numbers, not strings or booleans.

    Data that is not a JSON object, or lacks a field of its family, raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a weight must be a JSON object, got {data!r}")
    family = data.get("family")

    def field(name: str):
        if name not in data:
            raise ValueError(f"{family} weight lacks the field {name!r}")
        return data[name]

    if family == "power":
        return PowerWeight(json_number(field("beta"), "beta"))
    if family == "powerlog":
        return PowerLogWeight(json_number(field("beta"), "beta"), json_number(field("gamma"), "gamma"))
    if family == "tabulated":
        return TabulatedWeight(
            StepFunction(
                json_numbers(field("breakpoints"), "breakpoints"), json_numbers(field("values"), "values")
            )
        )
    if family == "reciprocal":
        return ReciprocalWeight(weight_from_json_dict(field("base")), json_number(field("p"), "p"))
    raise ValueError(f"unknown weight family {family!r}")


# ---------------------------------------------------------------------------
# derived scalar functions


@dataclass(frozen=True)
class PowerLaw(EvaluableFunction):
    """c * t^e with c >= 0; closed under products, ratios and powers."""

    coeff: float
    exponent: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coeff) and self.coeff >= 0.0):
            raise ValueError("coefficient must be finite and non-negative")
        if not math.isfinite(self.exponent):
            raise ValueError("exponent must be finite")

    def __call__(self, t: float) -> float:
        if not (t > 0.0):
            raise ValueError("need t > 0")
        return self.coeff * t ** self.exponent


@dataclass(frozen=True)
class RatioFunction(EvaluableFunction):
    numerator: EvaluableFunction
    denominator: EvaluableFunction

    def __call__(self, t: float) -> float:
        den = self.denominator(t)
        num = self.numerator(t)
        if den == 0.0:
            return math.inf if num > 0.0 else 0.0
        return num / den


@dataclass(frozen=True)
class ProductFunction(EvaluableFunction):
    factors: tuple[EvaluableFunction, ...]

    def __call__(self, t: float) -> float:
        out = 1.0
        for f in self.factors:
            out *= f(t)
        return out


@dataclass(frozen=True)
class _PowerOf(EvaluableFunction):
    base: EvaluableFunction
    exponent: float

    def __call__(self, t: float) -> float:
        return self.base(t) ** self.exponent


def _pow_fn(f: EvaluableFunction, e: float) -> EvaluableFunction:
    if isinstance(f, PowerLaw):
        return PowerLaw(f.coeff ** e, f.exponent * e)
    return _PowerOf(f, e)


def _ratio_fn(f: EvaluableFunction, g: EvaluableFunction) -> EvaluableFunction:
    if isinstance(f, PowerLaw) and isinstance(g, PowerLaw):
        if g.coeff == 0.0:
            raise ValueError("ratio denominator is identically zero")
        return PowerLaw(f.coeff / g.coeff, f.exponent - g.exponent)
    return RatioFunction(f, g)


def _product_fn(f: EvaluableFunction, g: EvaluableFunction) -> EvaluableFunction:
    if isinstance(f, PowerLaw) and isinstance(g, PowerLaw):
        return PowerLaw(f.coeff * g.coeff, f.exponent + g.exponent)
    return ProductFunction((f, g))


@dataclass(frozen=True)
class _QuadratureTailFundamental(EvaluableFunction):
    """(integral_t^inf s^{-p} w)^{1/p} via the weight's moment machinery."""

    w: Weight
    p: float

    def __call__(self, t: float) -> float:
        val = self.w.tail_moment(self.p, t)
        if math.isinf(val):
            raise InvalidWeightError(
                f"tail moment of {self.w.describe()} diverges at exponent {self.p:g}"
            )
        return val ** (1.0 / self.p)


@dataclass(frozen=True)
class _QuadratureFundamental(EvaluableFunction):
    """W(t)^{1/p} via the weight's primitive."""

    w: Weight
    p: float

    def __call__(self, t: float) -> float:
        return self.w.primitive(t) ** (1.0 / self.p)


def tail_fundamental(w: Weight, p: float) -> EvaluableFunction:
    """t |-> (integral_t^inf s^{-p} w(s) ds)^{1/p}; closed form for Power."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    if isinstance(w, PowerWeight):
        if w.beta >= p - 1.0:
            raise InvalidWeightError(
                f"tail moment of {w.describe()} diverges for p={p:g} "
                f"(requires beta < p - 1)"
            )
        return PowerLaw((1.0 / (p - 1.0 - w.beta)) ** (1.0 / p), (w.beta + 1.0 - p) / p)
    probe = w.tail_moment(p, 1.0)
    if math.isinf(probe):
        raise InvalidWeightError(
            f"tail moment of {w.describe()} diverges at exponent {p:g}"
        )
    return _QuadratureTailFundamental(w, p)


def fundamental(w: Weight, p: float) -> EvaluableFunction:
    """t |-> W(t)^{1/p}, the fundamental function of the Lambda-type space."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    if isinstance(w, PowerWeight):
        if w.beta <= -1.0:
            raise InvalidWeightError(
                f"{w.describe()} is not integrable near zero (requires beta > -1)"
            )
        return PowerLaw((1.0 / (w.beta + 1.0)) ** (1.0 / p), (w.beta + 1.0) / p)
    w.primitive(1.0)  # raises when the head integral diverges
    return _QuadratureFundamental(w, p)


# ---------------------------------------------------------------------------
# couples and condition checkers


@dataclass(frozen=True)
class CoupleConfig:
    """Exponents and weights of a two-space couple."""

    p0: float
    w0: Weight
    p1: float
    w1: Weight

    def __post_init__(self) -> None:
        for p in (self.p0, self.p1):
            if not (p > 0.0 and math.isfinite(p)):
                raise ValueError("exponents must be positive and finite")

    def reciprocal(self) -> "CoupleConfig":
        """The couple of reciprocal-transformed weights (same exponents)."""
        return CoupleConfig(
            self.p0, reciprocal_weight(self.w0, self.p0), self.p1, reciprocal_weight(self.w1, self.p1)
        )

    def to_json_dict(self) -> dict:
        return {
            "p0": self.p0,
            "w0": self.w0.to_json_dict(),
            "p1": self.p1,
            "w1": self.w1.to_json_dict(),
        }


def tail_fundamental_ratio(cfg: CoupleConfig) -> EvaluableFunction:
    """Ratio of the two tail fundamentals: the K-parameter map of the S-couple."""
    return _ratio_fn(tail_fundamental(cfg.w0, cfg.p0), tail_fundamental(cfg.w1, cfg.p1))


def fundamental_ratio(cfg: CoupleConfig) -> EvaluableFunction:
    """Ratio of the two fundamental functions: the K-parameter map of the head couple."""
    return _ratio_fn(fundamental(cfg.w0, cfg.p0), fundamental(cfg.w1, cfg.p1))


Method = Literal["auto", "closed-form", "grid"]


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a condition check: decision, best constant found, witness."""

    condition: str
    holds: bool
    constant: float
    witness_t: float
    method: str
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "constant": self.constant if math.isfinite(self.constant) else "inf",
            "witness_t": self.witness_t,
            "method": self.method,
            "detail": self.detail,
        }


def _resolve_method(w: Weight, method: Method) -> str:
    if method == "auto":
        return "closed-form" if isinstance(w, PowerWeight) else "grid"
    if method == "closed-form" and not isinstance(w, PowerWeight):
        raise ValueError("closed-form checks are available for power weights only")
    return method


def _sup_scan(pairs) -> tuple[float, float]:
    """(max ratio, witness t) over (t, ratio) pairs; inf ratios win immediately."""
    best, arg = -math.inf, math.nan
    for t, r in pairs:
        if r > best:
            best, arg = r, t
    return best, arg


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, reading x / 0 as inf for x > 0 and as 0 for x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.where(num > 0.0, math.inf, 0.0), num / den)


def _require_head_valid(w: Weight) -> None:
    # surfaces InvalidWeightError for weights with divergent W
    w.primitive(1.0)


def check_bp(w: Weight, p: float, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """t^p integral_t^inf w/s^p ds <= C W(t): decisive for Power, grid sup otherwise."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    _require_head_valid(w)
    how = _resolve_method(w, method)
    if how == "closed-form":
        beta = w.beta  # type: ignore[attr-defined]
        if beta >= p - 1.0:
            return ConditionVerdict(
                "Bp", False, math.inf, math.nan, "closed-form",
                "tail moment diverges (beta >= p - 1)",
            )
        c = (beta + 1.0) / (p - 1.0 - beta)
        return ConditionVerdict("Bp", True, c, 1.0, "closed-form", "ratio is t-independent")
    grid = grid or DEFAULT_CHECK_GRID
    t = np.array(grid.points)
    ratios = _ratio(t ** p * w.moment(-p, t, math.inf), w.moment(0.0, 0.0, t))
    c, arg = _sup_scan(zip(grid.points, ratios.tolist()))
    return ConditionVerdict("Bp", math.isfinite(c), c, arg, "grid", f"grid of {len(grid)} points")


def check_rbp(w: Weight, p: float, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """W(t) <= C t^p integral_t^inf w/s^p ds: the reverse balance condition."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    _require_head_valid(w)
    how = _resolve_method(w, method)
    if how == "closed-form":
        beta = w.beta  # type: ignore[attr-defined]
        if beta >= p - 1.0:
            return ConditionVerdict(
                "RBp", False, math.inf, math.nan, "closed-form",
                "tail moment diverges (beta >= p - 1); condition rejected as vacuous",
            )
        c = (p - 1.0 - beta) / (beta + 1.0)
        return ConditionVerdict("RBp", True, c, 1.0, "closed-form", "ratio is t-independent")
    grid = grid or DEFAULT_CHECK_GRID
    t = np.array(grid.points)
    rhs = t ** p * w.moment(-p, t, math.inf)
    # divergent tail: treated as failing, matching the closed-form branch
    ratios = np.where(np.isinf(rhs), math.inf, _ratio(w.moment(0.0, 0.0, t), rhs))
    c, arg = _sup_scan(zip(grid.points, ratios.tolist()))
    return ConditionVerdict("RBp", math.isfinite(c), c, arg, "grid", f"grid of {len(grid)} points")


def check_delta2(w: Weight, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """Doubling of the primitive: W(2t) <= C W(t)."""
    _require_head_valid(w)
    how = _resolve_method(w, method)
    if how == "closed-form":
        beta = w.beta  # type: ignore[attr-defined]
        c = 2.0 ** (beta + 1.0)
        return ConditionVerdict("Delta2", True, c, 1.0, "closed-form", "ratio is t-independent")
    grid = grid or DEFAULT_CHECK_GRID
    doubled, single = w.moment(0.0, 0.0, np.multiply.outer((2.0, 1.0), grid.points))
    c, arg = _sup_scan(zip(grid.points, _ratio(doubled, single).tolist()))
    return ConditionVerdict("Delta2", math.isfinite(c), c, arg, "grid", f"grid of {len(grid)} points")


def check_cond1(cfg: CoupleConfig, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """Doubling of both tail fundamentals: psi_i(t) <= C psi_i(2t)."""
    constants: list[float] = []
    details: list[str] = []
    hows: list[str] = []
    witness = 1.0
    for label, w, p in (("index0", cfg.w0, cfg.p0), ("index1", cfg.w1, cfg.p1)):
        psi = tail_fundamental(w, p)  # raises on divergent tails
        how = _resolve_method(w, method) if method != "grid" else "grid"
        if how == "closed-form" and isinstance(psi, PowerLaw):
            c = 2.0 ** (-psi.exponent)
            hows.append("closed-form")
        else:
            g = grid or DEFAULT_CHECK_GRID
            pairs = [(t, psi(t) / psi(2.0 * t)) for t in g.points]
            c, witness = _sup_scan(pairs)
            hows.append("grid")
        constants.append(c)
        details.append(f"{label}: C={c:.6g}")
    c = max(constants)
    return ConditionVerdict(
        "tail-doubling", math.isfinite(c), c, witness,
        "closed-form" if all(h == "closed-form" for h in hows) else "grid",
        "; ".join(details),
    )


def _quasi_monotone_grid(
    fn: EvaluableFunction, grid: Grid, threshold: float
) -> tuple[bool, float, float]:
    """Quasi-monotone non-decreasing check: sup_{s<=t} fn(s)/fn(t) <= threshold."""
    best, arg = 1.0, grid.points[0]
    run = -math.inf
    for t in grid.points:
        v = fn(t)
        if v <= 0.0 or not math.isfinite(v):
            return False, math.inf, t
        run = max(run, v)
        if run / v > best:
            best, arg = run / v, t
    return best <= threshold, best, arg


def check_cond3(
    cfg: CoupleConfig,
    eps: float,
    grid: Grid | None = None,
    threshold: float = QUASI_MONOTONE_THRESHOLD,
) -> ConditionVerdict:
    """theta(t) psi_0(t)^eps equivalent to a non-decreasing function."""
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    psi0 = tail_fundamental(cfg.w0, cfg.p0)
    theta = tail_fundamental_ratio(cfg)
    g = _product_fn(theta, _pow_fn(psi0, eps))
    if isinstance(g, PowerLaw):
        holds = g.exponent >= 0.0
        return ConditionVerdict(
            "ratio-quasi-monotone", holds, 1.0 if holds else math.inf, 1.0,
            "closed-form", f"pure power with exponent {g.exponent:.6g}; eps={eps:g}",
        )
    grid = grid or DEFAULT_CHECK_GRID
    holds, c, arg = _quasi_monotone_grid(g, grid, threshold)
    return ConditionVerdict(
        "ratio-quasi-monotone", holds, c, arg, "grid",
        f"eps={eps:g}; threshold={threshold:g}",
    )


def _sufcond_closed_form(cfg: CoupleConfig) -> tuple[ConditionVerdict, ConditionVerdict]:
    b0 = cfg.w0.beta  # type: ignore[attr-defined]
    b1 = cfg.w1.beta  # type: ignore[attr-defined]
    if b0 <= -1.0 or b1 <= -1.0:
        raise InvalidWeightError("head couple requires beta > -1 on both weights")
    # head condition: integral_0^t W1^{-p0/p1} w0 <= C sigma(t)^{p0}
    den_a = (b0 + 1.0) - (cfg.p0 / cfg.p1) * (b1 + 1.0)
    if den_a > 0.0:
        ca = (b0 + 1.0) / den_a
        va = ConditionVerdict(
            "head-integral-vs-sigma", True, ca, 1.0, "closed-form", "ratio is t-independent"
        )
    else:
        va = ConditionVerdict(
            "head-integral-vs-sigma", False, math.inf, math.nan, "closed-form",
            "integral diverges against the fundamental ratio",
        )
    # tail condition: sigma(t) (integral_t^inf W0^{-p1/p0} w1)^{1/p1} <= C
    den_b = (cfg.p1 / cfg.p0) * (b0 + 1.0) - (b1 + 1.0)
    if den_b > 0.0:
        cb = ((b1 + 1.0) / den_b) ** (1.0 / cfg.p1)
        vb = ConditionVerdict(
            "sigma-vs-tail-integral", True, cb, 1.0, "closed-form", "ratio is t-independent"
        )
    else:
        vb = ConditionVerdict(
            "sigma-vs-tail-integral", False, math.inf, math.nan, "closed-form",
            "tail integral diverges against the fundamental ratio",
        )
    return va, vb


def check_sufconds(
    cfg: CoupleConfig,
    grid: Grid | None = None,
    method: Method = "auto",
    threshold: float = QUASI_MONOTONE_THRESHOLD,
) -> tuple[ConditionVerdict, ConditionVerdict]:
    """The two sufficient conditions for the explicit head/tail K-formula.

    First: integral_0^t phi1(s)^{-p0} w0(s) ds <= C sigma(t)^{p0}.
    Second: sigma(t) (integral_t^inf phi0(s)^{-p1} w1(s) ds)^{1/p1} <= C.
    Closed form for Power couples; otherwise quadrature over a log grid of t
    with a lower-cutoff divergence probe.
    """
    both_power = isinstance(cfg.w0, PowerWeight) and isinstance(cfg.w1, PowerWeight)
    if method == "closed-form" or (method == "auto" and both_power):
        if not both_power:
            raise ValueError("closed-form checks are available for power couples only")
        return _sufcond_closed_form(cfg)

    grid = grid or Grid.log(1e-4, 1e4, 49)
    phi0 = fundamental(cfg.w0, cfg.p0)
    phi1 = fundamental(cfg.w1, cfg.p1)
    sigma = _ratio_fn(phi0, phi1)
    cutoff = grid.points[0] / 100.0

    def head_integral(t: float, lo: float) -> float:
        fn = lambda s: phi1(s) ** (-cfg.p0) * cfg.w0(s)
        return max(_quad_decades(fn, lo, t), 0.0)

    def tail_integral(t: float) -> float:
        fn = lambda s: phi0(s) ** (-cfg.p1) * cfg.w1(s)
        hi = grid.points[-1] * 100.0
        g = lambda u: phi0(1.0 / u) ** (-cfg.p1) * cfg.w1(1.0 / u) / (u * u)
        return max(_quad_decades(fn, t, hi) + _quad_improper(g, 0.0, 1.0 / hi), 0.0)

    pairs_a = []
    unstable = False
    for t in grid.points:
        full = head_integral(t, cutoff)
        probe = head_integral(t, cutoff / 32.0)
        if full > 0.0 and (probe - full) > 0.05 * full:
            unstable = True
        pairs_a.append((t, full / sigma(t) ** cfg.p0))
    ca, wa = _sup_scan(pairs_a)
    holds_a = math.isfinite(ca) and ca <= threshold and not unstable
    detail_a = f"lower cutoff {cutoff:g}" + ("; cutoff-sensitive (divergent head)" if unstable else "")
    va = ConditionVerdict(
        "head-integral-vs-sigma", holds_a, math.inf if unstable else ca, wa, "grid", detail_a
    )

    pairs_b = [(t, sigma(t) * tail_integral(t) ** (1.0 / cfg.p1)) for t in grid.points]
    cb, wb = _sup_scan(pairs_b)
    holds_b = math.isfinite(cb) and cb <= threshold
    vb = ConditionVerdict("sigma-vs-tail-integral", holds_b, cb, wb, "grid", "")
    return va, vb


def tail_diverges_at_zero(w: Weight, p: float) -> ConditionVerdict:
    """psi(0+) = inf: the tail fundamental blows up approaching the origin."""
    if isinstance(w, PowerWeight):
        if w.beta >= p - 1.0:
            return ConditionVerdict(
                "tail-blowup-at-zero", False, math.inf, math.nan, "closed-form",
                "tail moment diverges for every t",
            )
        exponent = (w.beta + 1.0 - p) / p
        holds = exponent < 0.0
        return ConditionVerdict(
            "tail-blowup-at-zero", holds, 1.0, 0.0, "closed-form",
            f"psi exponent {exponent:.6g}",
        )
    psi = tail_fundamental(w, p)
    lo, hi = 1e-8, 1e-2
    ratio = psi(lo) / psi(hi)
    holds = ratio > 1e2
    return ConditionVerdict(
        "tail-blowup-at-zero", holds, ratio, lo, "grid",
        f"psi({lo:g})/psi({hi:g}) = {ratio:.3g}",
    )
