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
moment over (1/b, 1/a).  PowerLog sums finite pairs 0 < a < b < inf on
Gauss-Legendre log panels cut at s = 1 (``_log_panels``, about 1e-14 relative),
the pieces (0, a], a <= 1, and [b, inf), b >= 1, by a numpy kernel for the
upper incomplete gamma function (``_gamma_tail``, about 1e-13), and the
remainder (a, 1) or (1, b) of an unbounded pair across s = 1 by adaptive
quadrature (target 1e-8), kept because pinned check-weights verdicts come
from it.  The norms' cells, the K-oracle's sorted rows and each grid checker
take their moments in one call; ``primitive`` W(t) and ``tail_moment`` are
its scalar wrappers.  The gamma norm's node sums and the sufficient
conditions read weights through ``u_density`` (s w(s) at s = e^u, one exp
per node for power and power-log weights) and ``kinks`` (non-smooth points).

Derived functions (the fundamental function phi = W^{1/p}, the tail
fundamental psi, and the K-parameters sigma = phi0/phi1, theta = psi0/psi1)
are a ``PowerLaw`` c t^e where the closed form is known, i.e. for power
weights, and otherwise a plain function of t over ``primitive`` or
``tail_moment``, evaluated point by point.  The checkers take the closed form
when given a ``PowerLaw`` and scan a grid otherwise; the sufficient
conditions' scan takes W and its integrals in one pass over the log panels.

Head-side operations (W, the fundamental function, B_p / RB_p / doubling
checks) require local integrability near zero and raise InvalidWeightError
outside the family's validity range; tail-side operations are total so that
tail-only weights (e.g. negative powers below -1) remain usable.
"""

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Literal

import numpy as np
from scipy.integrate import quad

from .grids import DEFAULT_CHECK_GRID, Grid
from .stepfn import StepFunction, json_number, json_numbers

__all__ = [
    "Weight",
    "PowerWeight",
    "PowerLogWeight",
    "TabulatedWeight",
    "ReciprocalWeight",
    "InvalidWeightError",
    "PowerLaw",
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
    """integral_a^b s^q ds, elementwise on 0 <= a <= b <= inf (+inf on divergence):
    with L = log(b / a) as log1p((b - a) / a), b^{q+1} (1 - e^{-(q+1)L}) / (q+1)
    for q > -1, a^{q+1} (e^{(q+1)L} - 1) / (q+1) for q < -1 and L for q = -1,
    differences by expm1, so nothing cancels; L = inf gives a = 0 and b = inf."""
    a, b = _bounds(a, b)
    qp = q + 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log1p((b - a) / a)
        if qp > 0.0:
            out = b ** qp * -np.expm1(-qp * log_ratio) / qp
        elif qp < 0.0:
            out = a ** qp * np.expm1(qp * log_ratio) / qp
        else:
            out = log_ratio
    return np.where(a == b, 0.0, out)


# the 8-point Gauss-Legendre rule on [-1, 1], written out (numpy's leggauss(8)
# would load LAPACK at import for these 8 numbers)
_GL_HALF_X = np.array([0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975362])
_GL_HALF_W = np.array([0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763])
_GL_X = np.concatenate((-_GL_HALF_X[::-1], _GL_HALF_X))
_GL_W = np.concatenate((_GL_HALF_W[::-1], _GL_HALF_W))
_GL_T = 0.5 * (1.0 + _GL_X)  # the nodes on [0, 1]


def _log_panels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in u = log s on the pieces [a_k, b_k], 0 < a_k < b_k < inf,
    each cut into n equal panels of log-width log1p((b - a) / a) / n <= 0.5 (width 1
    loses digits next to the power-log kink u = 0 at negative gamma): each panel's
    piece, its log-width and its column of 8 nodes u, an (8, panels) array so that
    numpy's loops run along the panels.  The integral of w over a piece is then the
    sum over its panels of log-width / 2 x ``_GL_W`` x ``w.u_density(u)``."""
    with np.errstate(over="ignore"):
        width = np.log1p((b - a) / a)
    wide = np.isinf(width)  # b / a overflows: a subnormal left end
    width[wide] = np.log(b[wide]) - np.log(a[wide])
    panels = np.maximum(np.ceil(width / 0.5), 1.0).astype(np.intp)
    piece = np.repeat(np.arange(width.size), panels)
    step = (width / panels)[piece]
    j = np.arange(piece.size) - np.repeat(np.cumsum(panels) - panels, panels)  # a panel's place in its piece
    u = np.multiply.outer(_GL_T, step)
    u += np.log(a)[piece] + step * j
    return piece, step, u


def _node_sum(f: np.ndarray) -> np.ndarray:
    """Each panel's sum over its 8 nodes (axis 0), in halves: in an order that the number of panels does not change."""
    f = f[:4] + f[4:]
    f = f[:2] + f[2:]
    return f[0] + f[1]


def _powerlog_density(q1: float, gamma: float, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{q1 u} (1 + |u|)^gamma, the density in u = log s of s^{q1 - 1} (1 + |log s|)^gamma ds,
    written to ``out`` (u itself will do) or to a new array."""
    log = np.abs(u)
    np.log1p(log, out=log)
    log *= gamma
    out = np.multiply(u, q1, out=out)
    out += log
    return np.exp(out, out=out)


def _gamma_tail(kappa: float, gamma: float, v0: np.ndarray) -> np.ndarray:
    """G = integral_{v0}^inf e^{-kappa (v - 1)} v^gamma dv = e^kappa kappa^{-gamma-1}
    Gamma(gamma + 1, kappa v0) (DLMF 8.2) per v0 >= 1, for kappa > 0 or kappa = 0 > gamma + 1.

    In z = kappa (v - v0) and lam = kappa v0, G = e^{-kappa (v0 - 1)} v0^gamma J / kappa
    with J the integral of e^{-z} (1 + z / lam)^gamma over z > 0: ``_log_panels`` in
    log(1 + z / lam) up to lam + z = max(lam, 3), then unit panels in z, 3.5
    half-widths or more from the pole z = -lam, up to 40 + 5 max(gamma, 0) beyond,
    where the integrand is e^-40 below its peak.  e^{-kappa (v0 - 1)} is taken in
    halves, so a G near the smallest float does not pass through 0."""
    if kappa == 0.0:
        return v0 ** (gamma + 1.0) / (-gamma - 1.0)
    v0, back = np.unique(v0, return_inverse=True)  # a grid's pairs repeat their pieces (0, 1] and [1, inf)
    lam = kappa * v0
    top = np.maximum(lam, 3.0)
    piece, step, ell = _log_panels(np.ones(lam.size), top / lam)  # ell = log(1 + z / lam) at the nodes
    f = np.expm1(ell)
    f *= -lam[piece]  # -z
    ell *= gamma + 1.0
    f += ell
    np.exp(f, out=f)
    f *= _GL_W[:, None]
    near = np.bincount(piece, weights=_node_sum(f) * (0.5 * step), minlength=lam.size)  # J / lam up to top - lam
    z = (top - lam)[:, None, None] + (np.arange(math.ceil(40.0 + 5.0 * max(gamma, 0.0)))[:, None] + _GL_T)
    f = np.divide(z, lam[:, None, None])
    np.log1p(f, out=f)
    f *= gamma
    f -= z
    np.exp(f, out=f)
    f *= _GL_W
    far = f.sum(axis=(1, 2)) * 0.5  # J beyond
    half = np.exp(-0.5 * kappa * (v0 - 1.0))
    return (half * (half * v0 ** gamma * (v0 * near + far / kappa)))[back]


class Weight:
    """Common weight interface; subclasses provide pointwise values and moments."""

    def moment(self, e: float, a, b) -> np.ndarray:
        """integral_a^b s^e w(s) ds for a, b scalars or arrays broadcast against
        each other (0 <= a <= b <= inf): a float64 array of their broadcast
        shape, +inf where the integral diverges and 0 where a == b.  Power weights
        integrate in closed form, tabulated ones cell by cell; power-log ones sum
        finite pairs on log panels, take pieces from 0 and to inf from the kernel
        ``_gamma_tail`` and the remainders (a, 1) and (1, b) of such pairs from
        ``quad``, where pinned check-weights verdicts come from."""
        raise NotImplementedError

    def at(self, s: np.ndarray) -> np.ndarray:
        """w at each point of an array of positive points."""
        raise NotImplementedError

    def u_density(self, u: np.ndarray) -> np.ndarray:
        """s w(s) at s = e^u, the density of w(s) ds in u = log s, at an array of u."""
        s = np.exp(u)
        return s * self.at(s)

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

    def u_density(self, u: np.ndarray) -> np.ndarray:
        """e^{(beta + 1) u}."""
        out = np.multiply(u, self.beta + 1.0)
        return np.exp(out, out=out)

    def moment(self, e: float, a, b) -> np.ndarray:
        return _power_int(self.beta + e, a, b)

    def describe(self) -> str:
        return f"power weight s^{self.beta:g}"

    def to_json_dict(self) -> dict:
        return {"family": "power", "beta": self.beta}


@dataclass(frozen=True)
class PowerLogWeight(Weight):
    """w(s) = s^beta (1 + |log s|)^gamma.  Moments take three routes: finite pairs
    on log panels cut at s = 1 (``_panel_moment``), the pieces (0, a], a <= 1, and
    [b, inf), b >= 1, by the incomplete-gamma kernel ``_gamma_tail``, and the
    remainders (a, 1) of a pair to inf and (1, b) of a pair from 0 by adaptive
    quadrature, which pinned check-weights verdicts come from (``_quad_moment``)."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and math.isfinite(self.gamma)):
            raise ValueError("beta and gamma must be finite")

    def __call__(self, s: float) -> float:
        if not (s > 0.0):
            raise ValueError("weights live on (0, inf)")
        return s ** self.beta * (1.0 + abs(math.log(s))) ** self.gamma

    def at(self, s: np.ndarray) -> np.ndarray:
        """s^beta (1 + |log s|)^gamma at each point."""
        return _powerlog_density(self.beta, self.gamma, np.log(s))

    def u_density(self, u: np.ndarray) -> np.ndarray:
        """e^{(beta + 1) u} (1 + |u|)^gamma, one exp and one log1p per point."""
        return _powerlog_density(self.beta + 1.0, self.gamma, u)

    def kinks(self) -> tuple[float, ...]:
        """The log factor's kink at s = 1."""
        return (1.0,)

    def moment(self, e: float, a, b) -> np.ndarray:
        """Finite pairs 0 < a < b < inf by ``_panel_moment``, pairs with a = 0 or
        b = inf by ``_quad_moment``, each route all at once."""
        a, b = _bounds(a, b)
        q = self.beta + e
        out = np.zeros(a.shape)
        finite = (0.0 < a) & (a < b) & (b < math.inf)
        if finite.any():
            out[finite] = self._panel_moment(q, a[finite], b[finite])
        rest = (a < b) & ~finite
        if rest.any():
            out[rest] = self._quad_moment(q, a[rest], b[rest])
        return out

    def _panel_moment(self, q: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """integral_a^b s^q (1 + |log s|)^gamma ds per pair, 0 < a < b < inf: in
        u = log s, the ``_log_panels`` nodes with each pair cut at s = 1.
        Every panel is reduced on its own (``_node_sum``), so a pair's value
        does not depend on the other pairs."""
        below = np.where(a < 1.0, np.minimum(b, 1.0), b)  # each pair up to s = 1,
        cut = np.flatnonzero(below < b)  # then the pairs that go on past it
        piece, step, u = _log_panels(np.append(a, np.ones(cut.size)), np.append(below, b[cut]))
        f = _powerlog_density(q + 1.0, self.gamma, u, out=u)
        f *= _GL_W[:, None]
        panel = _node_sum(f) * (0.5 * step)
        return np.bincount(np.append(np.arange(a.size), cut)[piece], weights=panel, minlength=a.size)

    def _quad_moment(self, q: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """integral_a^b s^q (1 + |log s|)^gamma ds per pair with a = 0 or b = inf, a < b.

        With v = 1 + |log s|, (0, a], a <= 1, is G(q + 1, gamma, 1 - log a) and
        [b, inf), b >= 1, is G(-q - 1, gamma, 1 + log b), G = ``_gamma_tail``;
        the power factor decides convergence, and gamma < -1 the q = -1
        borderline.  A pair across s = 1 adds its finite remainder, (1, b) or
        (a, 1), by ``_quad_improper``: verdicts pinned in the benchmark's
        check-weights reference come from those quadratures, so they move to
        exact moments together with that reference."""
        g = self.gamma
        head, tail = a == 0.0, np.isinf(b)
        borderline = q == -1.0 and g >= -1.0
        diverges = (head & (q < -1.0 or borderline)) | (tail & (q > -1.0 or borderline))
        out = np.zeros(a.shape)
        h, t = head & ~diverges, tail & ~diverges
        if h.any():
            out[h] = _gamma_tail(q + 1.0, g, 1.0 - np.log(np.minimum(b[h], 1.0)))
        if t.any():
            out[t] += _gamma_tail(-q - 1.0, g, 1.0 + np.log(np.maximum(a[t], 1.0)))
        fn = lambda x: x ** q * (1.0 + abs(math.log(x))) ** g
        lo, hi = np.where(head, 1.0, a), np.where(head, b, 1.0)
        for i in np.flatnonzero(~diverges & (lo < hi) & (hi < math.inf)):
            out[i] += _quad_improper(fn, lo[i], hi[i])
        out[diverges] = math.inf
        return out

    def describe(self) -> str:
        return f"power-log weight s^{self.beta:g} (1+|log s|)^{self.gamma:g}"

    def to_json_dict(self) -> dict:
        return {"family": "powerlog", "beta": self.beta, "gamma": self.gamma}


def _quad_improper(fn, a: float, b: float) -> float:
    if a >= b:
        return 0.0
    val, _err = quad(fn, a, b, epsrel=QUAD_REL_TOL, epsabs=0.0, limit=200)
    return val


@dataclass(frozen=True)
class TabulatedWeight(Weight):
    """Weight given by a step function; all moments are exact cell sums."""

    step: StepFunction

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
        """The partial cells at both ends of each pair by ``_power_int``, the
        whole cells between them summed slice by slice (``np.add.reduceat``):
        memory linear in pairs plus cells, and each sum rounds relative to the
        pair's own moment, however large the cells outside it.  The first
        cell, from 0, is never whole there, so its divergence (e <= -1)
        reaches only the pairs that touch it."""
        a, b = _bounds(a, b)
        bps, n = self.step.breakpoints, self.step.breakpoints.size
        v = np.append(self.step.values, 0.0)  # 0 beyond the table
        left, right = np.append(0.0, bps), np.append(bps, math.inf)  # cell j is (left_j, right_j]
        first, last = np.searchsorted(bps, a, side="right"), np.searchsorted(bps, b, side="left")
        apart, inner = last > first, last > first + 1  # inner: cells first + 1, ..., last - 1 are whole
        ends = np.stack((np.minimum(first, n - 1), np.maximum(last - 1, 0)), axis=-1)
        # every term is >= 0, so a product or sum above the largest float (tiny breakpoints at
        # e < -1) is rightly inf; a zero cell times an infinite piece is 0
        with np.errstate(invalid="ignore", over="ignore"):
            # cells[j] is the moment of cell j + 1; the 0 appended keeps every index in range
            cells = np.append(np.where(v[1:n] == 0.0, 0.0, v[1:n] * _power_int(e, bps[:-1], bps[1:])), 0.0)
            whole = np.add.reduceat(cells, ends.ravel())[::2].reshape(a.shape)  # cells[first : last - 1]
            head = np.where(v[first] == 0.0, 0.0, v[first] * _power_int(e, a, np.minimum(b, right[first])))
            tail = np.where(v[last] == 0.0, 0.0, v[last] * _power_int(e, np.where(apart, left[last], b), b))
            return head + np.where(inner, whole, 0.0) + tail

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
class PowerLaw:
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


def _ratio_fn(f: Callable[[float], float], g: Callable[[float], float]) -> Callable[[float], float]:
    """t |-> f(t) / g(t), reading x / 0 as inf for x > 0 and as 0 for x = 0;
    two power laws fold into one."""
    if isinstance(f, PowerLaw) and isinstance(g, PowerLaw):
        if g.coeff == 0.0:
            raise ValueError("ratio denominator is identically zero")
        return PowerLaw(f.coeff / g.coeff, f.exponent - g.exponent)

    def ratio(t: float) -> float:
        den = g(t)
        num = f(t)
        if den == 0.0:
            return math.inf if num > 0.0 else 0.0
        return num / den

    return ratio


def tail_fundamental(w: Weight, p: float) -> Callable[[float], float]:
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

    def psi(t: float) -> float:
        val = w.tail_moment(p, t)
        if math.isinf(val):
            raise InvalidWeightError(
                f"tail moment of {w.describe()} diverges at exponent {p:g}"
            )
        return val ** (1.0 / p)

    psi(1.0)  # raises when the tail integral diverges
    return psi


def fundamental(w: Weight, p: float) -> Callable[[float], float]:
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
    return lambda t: w.primitive(t) ** (1.0 / p)


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
        return {"p0": self.p0, "w0": self.w0.to_json_dict(), "p1": self.p1, "w1": self.w1.to_json_dict()}


def tail_fundamental_ratio(cfg: CoupleConfig) -> Callable[[float], float]:
    """Ratio of the two tail fundamentals: the K-parameter map of the S-couple."""
    return _ratio_fn(tail_fundamental(cfg.w0, cfg.p0), tail_fundamental(cfg.w1, cfg.p1))


def fundamental_ratio(cfg: CoupleConfig) -> Callable[[float], float]:
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
        return {**asdict(self), "constant": self.constant if math.isfinite(self.constant) else "inf"}


def _resolve_method(w: Weight, method: Method) -> str:
    if method == "auto":
        return "closed-form" if isinstance(w, PowerWeight) else "grid"
    if method == "closed-form" and not isinstance(w, PowerWeight):
        raise ValueError("closed-form checks are available for power weights only")
    return method


def _sup_scan(pairs) -> tuple[float, float]:
    """(max ratio, witness t) over (t, ratio) pairs: the first t attaining the max."""
    best, arg = -math.inf, math.nan
    for t, r in pairs:
        if r > best:
            best, arg = r, t
    return best, arg


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, reading x / 0 as inf for x > 0 and as 0 for x = 0."""
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.where(num > 0.0, math.inf, 0.0), num / den)


def check_bp(w: Weight, p: float, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """t^p integral_t^inf w/s^p ds <= C W(t): decisive for Power, grid sup otherwise."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    w.primitive(1.0)  # raises InvalidWeightError where W diverges
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
    t = grid.points
    ratios = _ratio(t ** p * w.moment(-p, t, math.inf), w.moment(0.0, 0.0, t))
    c, arg = _sup_scan(zip(t.tolist(), ratios.tolist()))
    return ConditionVerdict("Bp", math.isfinite(c), c, arg, "grid", f"grid of {len(grid)} points")


def check_rbp(w: Weight, p: float, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """W(t) <= C t^p integral_t^inf w/s^p ds: the reverse balance condition."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    w.primitive(1.0)  # raises InvalidWeightError where W diverges
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
    t = grid.points
    rhs = t ** p * w.moment(-p, t, math.inf)
    # divergent tail: treated as failing, matching the closed-form branch
    ratios = np.where(np.isinf(rhs), math.inf, _ratio(w.moment(0.0, 0.0, t), rhs))
    c, arg = _sup_scan(zip(t.tolist(), ratios.tolist()))
    return ConditionVerdict("RBp", math.isfinite(c), c, arg, "grid", f"grid of {len(grid)} points")


def check_delta2(w: Weight, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """Doubling of the primitive: W(2t) <= C W(t)."""
    w.primitive(1.0)  # raises InvalidWeightError where W diverges
    how = _resolve_method(w, method)
    if how == "closed-form":
        beta = w.beta  # type: ignore[attr-defined]
        c = 2.0 ** (beta + 1.0)
        return ConditionVerdict("Delta2", True, c, 1.0, "closed-form", "ratio is t-independent")
    grid = grid or DEFAULT_CHECK_GRID
    doubled, single = w.moment(0.0, 0.0, np.multiply.outer((2.0, 1.0), grid.points))
    c, arg = _sup_scan(zip(grid.points.tolist(), _ratio(doubled, single).tolist()))
    return ConditionVerdict("Delta2", math.isfinite(c), c, arg, "grid", f"grid of {len(grid)} points")


def check_cond1(cfg: CoupleConfig, grid: Grid | None = None, method: Method = "auto") -> ConditionVerdict:
    """Doubling of both tail fundamentals: psi_i(t) <= C psi_i(2t)."""
    found = []  # (constant, witness, method) of each weight
    for w, p in ((cfg.w0, cfg.p0), (cfg.w1, cfg.p1)):
        psi = tail_fundamental(w, p)  # raises on divergent tails
        if _resolve_method(w, method) == "closed-form" and isinstance(psi, PowerLaw):
            found.append((2.0 ** (-psi.exponent), 1.0, "closed-form"))
        else:
            doubling = _ratio_fn(psi, lambda t: psi(2.0 * t))  # psi(2t) = 0 reads inf
            pts = (grid or DEFAULT_CHECK_GRID).points.tolist()
            found.append((*_sup_scan([(t, doubling(t)) for t in pts]), "grid"))
    c, witness, _how = max(found, key=lambda row: row[0])
    return ConditionVerdict(
        "tail-doubling", math.isfinite(c), c, witness,
        "closed-form" if all(how == "closed-form" for *_, how in found) else "grid",
        "; ".join(f"index{i}: C={row[0]:.6g}" for i, row in enumerate(found)),
    )


def _quasi_monotone_grid(
    fn: Callable[[float], float], grid: Grid, threshold: float
) -> tuple[bool, float, float]:
    """Quasi-monotone non-decreasing check: sup_{s<=t} fn(s)/fn(t) <= threshold."""
    pts = grid.points.tolist()
    best, arg = 1.0, pts[0]
    run = -math.inf
    for t in pts:
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
    if isinstance(theta, PowerLaw) and isinstance(psi0, PowerLaw):
        # decided by the exponents alone: c^eps may overflow at a large eps
        exponent = theta.exponent + psi0.exponent * eps
        holds = exponent >= 0.0
        return ConditionVerdict(
            "ratio-quasi-monotone", holds, 1.0 if holds else math.inf, 1.0,
            "closed-form", f"pure power with exponent {exponent:.6g}; eps={eps:g}",
        )
    if isinstance(psi0, PowerLaw):  # the grid scan evaluates c^eps t^{e eps}, not (c t^e)^eps
        try:
            psi0_eps = PowerLaw(psi0.coeff ** eps, psi0.exponent * eps)
        except OverflowError:
            raise InvalidWeightError(
                f"psi_0^eps overflows at eps={eps:g}: coefficient {psi0.coeff:g} to that power"
            ) from None
    else:
        psi0_eps = lambda t: psi0(t) ** eps
    grid = grid or DEFAULT_CHECK_GRID
    holds, c, arg = _quasi_monotone_grid(lambda t: theta(t) * psi0_eps(t), grid, threshold)
    return ConditionVerdict("ratio-quasi-monotone", holds, c, arg, "grid", f"eps={eps:g}; threshold={threshold:g}")


def _sufcond_closed_form(cfg: CoupleConfig) -> tuple[ConditionVerdict, ConditionVerdict]:
    b0 = cfg.w0.beta  # type: ignore[attr-defined]
    b1 = cfg.w1.beta  # type: ignore[attr-defined]
    if b0 <= -1.0 or b1 <= -1.0:
        raise InvalidWeightError("head couple requires beta > -1 on both weights")

    def verdict(name: str, den: float, constant, diverges: str) -> ConditionVerdict:
        if den > 0.0:
            return ConditionVerdict(name, True, constant(den), 1.0, "closed-form", "ratio is t-independent")
        return ConditionVerdict(name, False, math.inf, math.nan, "closed-form", diverges)

    # head condition: integral_0^t W1^{-p0/p1} w0 <= C sigma(t)^{p0}
    va = verdict("head-integral-vs-sigma", (b0 + 1.0) - (cfg.p0 / cfg.p1) * (b1 + 1.0),
                 lambda den: (b0 + 1.0) / den, "integral diverges against the fundamental ratio")
    # tail condition: sigma(t) (integral_t^inf W0^{-p1/p0} w1)^{1/p1} <= C
    vb = verdict("sigma-vs-tail-integral", (cfg.p1 / cfg.p0) * (b0 + 1.0) - (b1 + 1.0),
                 lambda den: ((b1 + 1.0) / den) ** (1.0 / cfg.p1),
                 "tail integral diverges against the fundamental ratio")
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
    Closed form for Power couples; otherwise a log grid of t, one pass of sums
    on the ``_log_panels`` nodes between cutoff/32, cutoff = t_min/100, the
    grid points, hi = 100 t_max and the weights' kinks, with W = W(cutoff/32)
    plus finite moments and x / 0 read by ``_ratio``.  The head integrals from
    the cutoff are a prefix sum, divergent if the piece below the cutoff adds
    over 5% to one; the tail ones a suffix sum to hi plus one quadrature over
    (hi, inf) in u = 1/s, whose negative value (a divergence) reads as inf.
    """
    both_power = isinstance(cfg.w0, PowerWeight) and isinstance(cfg.w1, PowerWeight)
    if method == "closed-form" or (method == "auto" and both_power):
        if not both_power:
            raise ValueError("closed-form checks are available for power couples only")
        return _sufcond_closed_form(cfg)

    pts = (grid or Grid.log(1e-4, 1e4, 49)).points
    phi0 = fundamental(cfg.w0, cfg.p0)  # both raise InvalidWeightError where W diverges
    fundamental(cfg.w1, cfg.p1)
    cutoff, hi = pts[0] / 100.0, pts[-1] * 100.0
    low = cutoff / 32.0
    kinks = np.concatenate([np.asarray(w.kinks(), dtype=float) for w in (cfg.w0, cfg.w1)])
    edges = np.union1d(np.append(pts, kinks[(kinks > low) & (kinks < hi)]), (low, cutoff, hi))
    piece, step, u = _log_panels(edges[:-1], edges[1:])
    du = np.multiply.outer(_GL_W, 0.5 * step)  # the Gauss-Legendre weight x du at each node
    s = np.exp(u)

    def piece_integrals(w: Weight, W: np.ndarray, power: float) -> np.ndarray:
        """integral of W^{-power} w over each piece between two edges."""
        with np.errstate(over="ignore", invalid="ignore"):
            panel = (_ratio(w.u_density(u), W ** power) * du).sum(axis=0)
        return np.bincount(piece, weights=panel, minlength=edges.size - 1)

    x = np.append(s, pts)  # W at the nodes, then at the grid points
    W0, W1 = (w.primitive(low) + w.moment(0.0, low, x) for w in (cfg.w0, cfg.w1))
    sigma = _ratio(W0[s.size :] ** (1.0 / cfg.p0), W1[s.size :] ** (1.0 / cfg.p1))
    W0, W1 = W0[: s.size].reshape(s.shape), W1[: s.size].reshape(s.shape)
    at = np.searchsorted(edges, pts)  # each grid point's edge index
    below = np.searchsorted(edges, cutoff)

    head = piece_integrals(cfg.w0, W1, cfg.p0 / cfg.p1)
    full = np.cumsum(head[below:])[at - below - 1]  # over (cutoff, t)
    unstable = bool(((full > 0.0) & (head[:below].sum() > 0.05 * full)).any())
    ca, wa = _sup_scan(zip(pts.tolist(), _ratio(full, sigma ** cfg.p0).tolist()))
    holds_a = math.isfinite(ca) and ca <= threshold and not unstable
    detail_a = f"lower cutoff {cutoff:g}" + ("; cutoff-sensitive (divergent head)" if unstable else "")
    va = ConditionVerdict(
        "head-integral-vs-sigma", holds_a, math.inf if unstable else ca, wa, "grid", detail_a
    )

    near = np.cumsum(piece_integrals(cfg.w1, W0, cfg.p1 / cfg.p0)[::-1])[::-1][at]  # over (t, hi)
    far = _quad_improper(lambda u: phi0(1.0 / u) ** (-cfg.p1) * cfg.w1(1.0 / u) / (u * u), 0.0, 1.0 / hi)
    # the integrand is non-negative: a negative quadrature is quad's extrapolation of a divergence
    tails = near + far if far >= 0.0 else np.full(pts.size, math.inf)
    # sigma(t) = 0 makes the tail term 0, as in the explicit formula; phi0 may vanish beyond t then
    with np.errstate(invalid="ignore"):
        terms = np.where(sigma == 0.0, 0.0, sigma * tails ** (1.0 / cfg.p1))
    cb, wb = _sup_scan(zip(pts.tolist(), terms.tolist()))
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
    ratio = float(_ratio(psi(lo), psi(hi)))
    holds = ratio > 1e2
    return ConditionVerdict("tail-blowup-at-zero", holds, ratio, lo, "grid", f"psi({lo:g})/psi({hi:g}) = {ratio:.3g}")
