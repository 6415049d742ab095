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
Gauss-Legendre panels in log s cut at s = 1 (``_log_nodes``, about 1e-14 relative),
sized by the log-derivative scale K of the density (``Weight._log_scale``: |beta +
e + 1| + max(1, |gamma|); max(1, |beta + e + 1|) for a power weight): one 4-point
panel where the log-width h has h K <= 0.035, else 8-point panels of log-width at
most 0.45 / K, each within 1e-16 of its exact value.  The pieces (0, a], a <= 1,
and [b, inf), b >= 1, take a numpy kernel for the upper incomplete gamma function
(``_gamma_tail``, about 1e-13) and the remainder (1, b) of a pair from 0 the log
panels, so W(t) takes no quadrature.  Only the remainder (a, 1), 0 < a < 1, of a
pair to inf takes adaptive quadrature (target 1e-8; scipy loads on first use):
three pinned check-weights verdicts come from it, so it moves to the log panels
with ROADMAP direction 2's ``[benchmark]`` change.  The norms' cells and the K-oracle's
cells on the steps of f* (both through ``norms.cell_moments``) and each grid checker take their
moments in one call; ``primitive`` W(t) and ``tail_moment`` are its scalar wrappers.  The gamma norm's
node sums and the sufficient conditions read weights through ``u_density`` (s w(s) at
s = e^u, one exp per node for power and power-log weights) and ``kinks`` (non-smooth points).

Derived functions (the fundamental function phi = W^{1/p}, the tail
fundamental psi, and the K-parameters sigma = phi0/phi1, theta = psi0/psi1)
map one t to a float and a 1-d array of t to an array.  For power weights they
are a ``PowerLaw`` c t^e; otherwise phi and psi take the whole array from one
moment call and sigma, theta divide them (``_ratio``).  Powers and roots are
Python's, value by value (numpy's can be an ulp off), and a negative moment,
quadrature's reading of a divergence, keeps its complex root.  The route of a
checker follows the weight family, with no option to override it: the closed
form for a power weight (a power couple for the sufficient conditions, a
``PowerLaw`` psi for tail doubling), a grid scan for any other weight, tail
doubling with psi at every t and 2t in one call per weight; the sufficient
conditions' scan takes W and its integrals in one pass over the log panels.

Head-side operations (W, the fundamental function, B_p / RB_p / doubling
checks) require local integrability near zero and raise InvalidWeightError
outside the family's validity range; tail-side operations are total so that
tail-only weights (e.g. negative powers below -1) remain usable.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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
    if np.count_nonzero((a < 0.0) | (b < a)):  # not .any(): its Python wrapper is paid on every moment call
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
            out = b ** qp * np.expm1(-qp * log_ratio) / -qp
        elif qp < 0.0:
            out = a ** qp * np.expm1(qp * log_ratio) / qp
        else:
            out = log_ratio
    return np.where(a == b, 0.0, out)


# the 8- and 4-point Gauss-Legendre rules on [-1, 1], written out (numpy's leggauss
# would load LAPACK at import for these numbers)
_GL_HALF_X = np.array([0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975362])
_GL_HALF_W = np.array([0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763])
_GL_X = np.concatenate((-_GL_HALF_X[::-1], _GL_HALF_X))
_GL_W = np.concatenate((_GL_HALF_W[::-1], _GL_HALF_W))
_GL_T = 0.5 * (1.0 + _GL_X)  # the nodes on [0, 1]
_GL4_X = np.array([-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526])
_GL4_W = np.array([0.34785484513745385, 0.6521451548625461, 0.6521451548625461, 0.34785484513745385])
_GL4_T = 0.5 * (1.0 + _GL4_X)
# Panel sizes under a log-derivative scale K: the n-point error falls like (h K)^{2n} (Bernstein
# ellipse), and its worst case, gamma = -1 by the power-log kink (a pole at distance 1), is 4.5e-17
# for both rules in mpmath with exact nodes (8 points at log-width 0.5 and K = 1: 1.8e-16).
_C4, _C8 = 0.035, 0.45


def _log_nodes(a: np.ndarray, b: np.ndarray, scale: float | None = None) -> list[tuple]:
    """Gauss-Legendre nodes in u = log s on the pieces [a_k, b_k], 0 < a_k <= b_k < inf, of an
    integrand smooth on each with log-derivative in u at most ``scale`` = K: a piece of
    log-width h with h K <= ``_C4`` is one 4-point panel, any other n equal 8-point panels
    of log-width h / n <= ``_C8`` / K (0.5 for K = None).  Groups (piece, log-width, u, rule
    weights), the 4-point one first: each panel's piece and log-width, its column of nodes u
    in a (4 or 8, panels) array; a piece's integral is the sum over its panels of
    log-width / 2 x rule weights x density.  A 4-point piece is one panel: no index repeats."""
    with np.errstate(over="ignore"):
        width = np.log1p((b - a) / a)
    wide = np.isinf(width)  # b / a overflows: a subnormal left end
    if np.count_nonzero(wide):
        width[wide] = np.log(b[wide]) - np.log(a[wide])
    log_a, groups, rest, most = np.log(a), [], np.arange(width.size), 0.5
    if scale is not None:
        narrow = width <= _C4 / scale
        piece, rest, most = narrow.nonzero()[0], (~narrow).nonzero()[0], _C8 / scale
        step = width[piece]
        u = np.multiply.outer(_GL4_T, step)
        u += log_a[piece]  # in place: these arrays run to 4 x the cells
        groups.append((piece, step, u, _GL4_W))
        width = width[rest]
    panels = np.maximum(np.ceil(width / most), 1.0).astype(np.intp)
    piece = rest.repeat(panels)  # array methods, not numpy's wrapper functions: this runs per norm
    step = (width / panels).repeat(panels)
    j = np.arange(piece.size) - (panels.cumsum() - panels).repeat(panels)  # a panel's place in its piece
    u = np.multiply.outer(_GL_T, step)
    u += log_a[piece] + step * j
    return groups + [(piece, step, u, _GL_W)]


def _node_sum(f: np.ndarray) -> np.ndarray:
    """Each panel's sum over its 4 or 8 nodes (axis 0), in halves: in an order that the number of panels does not change."""
    while len(f) > 1:
        f = f[: len(f) // 2] + f[len(f) // 2 :]
    return f[0]


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
    with J the integral of e^{-z} (1 + z / lam)^gamma over z > 0: 8-point ``_log_nodes`` in
    log(1 + z / lam) up to lam + z = max(lam, 3), then unit panels in z, 3.5
    half-widths or more from the pole z = -lam, up to 40 + 5 max(gamma, 0) beyond,
    where the integrand is e^-40 below its peak.  e^{-kappa (v0 - 1)} is taken in
    halves, so a G near the smallest float does not pass through 0."""
    if kappa == 0.0:
        return v0 ** (gamma + 1.0) / (-gamma - 1.0)
    # a grid's pairs repeat their pieces (0, 1] and [1, inf)
    v0, back = np.unique(v0, return_inverse=True) if v0.size > 1 else (v0, slice(None))
    lam = kappa * v0
    top = np.maximum(lam, 3.0)
    near = np.zeros(lam.size)  # J / lam up to top - lam, 0 where lam >= 3
    close = (lam < 3.0).nonzero()[0]
    if close.size:
        ((piece, step, ell, _),) = _log_nodes(np.ones(close.size), 3.0 / lam[close])  # ell = log(1 + z / lam)
        f = np.expm1(ell)
        f *= -lam[close][piece]  # -z
        ell *= gamma + 1.0
        f += ell
        np.exp(f, out=f)
        f *= _GL_W[:, None]
        near[close] = np.bincount(piece, weights=_node_sum(f) * (0.5 * step), minlength=close.size)
    z = (top - lam)[:, None, None] + (np.arange(math.ceil(40.0 + 5.0 * max(gamma, 0.0)))[:, None] + _GL_T)
    f = np.divide(z, lam[:, None, None])
    np.log1p(f, out=f)
    f *= gamma
    f -= z
    np.exp(f, out=f)
    f *= _GL_W
    far = np.add.reduce(f, axis=(1, 2)) * 0.5  # J beyond
    half = np.exp(-0.5 * kappa * (v0 - 1.0))
    return (half * (half * v0 ** gamma * (v0 * near + far / kappa)))[back]


class Weight:
    """Common weight interface; subclasses provide pointwise values and moments."""

    def moment(self, e: float, a, b) -> np.ndarray:
        """integral_a^b s^e w(s) ds for a, b scalars or arrays broadcast against each
        other (0 <= a <= b <= inf): a float64 array of their broadcast shape, +inf where
        the integral diverges and 0 where a == b.  Power weights integrate in closed form,
        tabulated ones cell by cell; power-log ones take pieces from 0 and to inf from the
        kernel ``_gamma_tail`` and every finite piece from log panels but the remainder
        (a, 1), 0 < a < 1, of a pair to inf, from ``quad``: pinned verdicts come from it."""
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

    def _log_scale(self, e: float) -> float | None:
        """K >= 1 above |d/du log(s^{e+1} w(s))|, s = e^u, between the kinks (``_log_nodes``); None if unknown."""
        return None

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

    def _log_scale(self, e: float) -> float:
        return max(1.0, abs(self.beta + e + 1.0))

    def moment(self, e: float, a, b) -> np.ndarray:
        return _power_int(self.beta + e, a, b)

    def describe(self) -> str:
        return f"power weight s^{self.beta:g}"

    def to_json_dict(self) -> dict:
        return {"family": "power", "beta": self.beta}


@dataclass(frozen=True)
class PowerLogWeight(Weight):
    """w(s) = s^beta (1 + |log s|)^gamma.  Moments take three routes: finite pairs and
    the remainder (1, b) of a pair from 0 on log panels cut at s = 1 (``_panel_moment``),
    the pieces (0, a], a <= 1, and [b, inf), b >= 1, by the incomplete-gamma kernel
    ``_gamma_tail``, and only the remainder (a, 1), 0 < a < 1, of a pair to inf by
    adaptive quadrature (``_quad_moment``): pinned check-weights verdicts come from it."""

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

    def _log_scale(self, e: float) -> float:  # the log-derivative is beta + e + 1 +/- gamma / (1 + |u|)
        return abs(self.beta + e + 1.0) + max(1.0, abs(self.gamma))

    def moment(self, e: float, a, b) -> np.ndarray:
        """Each pair's finite piece in one ``_panel_moment`` pass (the pair if 0 < a < b < inf,
        (1, b) if a = 0 < 1 < b < inf, else (1, 1), which is 0), plus ``_quad_moment`` on the
        pairs a < b with a = 0 or b = inf, gathered once."""
        a, b = _bounds(a, b)
        shape, a, b = a.shape, a.ravel(), b.ravel()
        head, tail = a == 0.0, b == math.inf
        lo, hi = np.minimum(b, 1.0, out=a.copy(), where=head), b.copy()
        empty = tail | (lo == hi)
        lo[empty] = hi[empty] = 1.0
        out = np.zeros(a.size) if np.count_nonzero(empty) == a.size else self._panel_moment(e, lo, hi)
        unbounded = ((head | tail) & (a < b)).nonzero()[0]
        if unbounded.size:
            out[unbounded] += self._quad_moment(self.beta + e, a[unbounded], b[unbounded])
        return out.reshape(shape)

    def _panel_moment(self, e: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """integral_a^b s^{beta + e} (1 + |log s|)^gamma ds per pair, 0 < a <= b < inf, on the
        ``_log_nodes`` of u = log s with each pair cut at s = 1.  Each panel is reduced on its own
        (``_node_sum``), a piece's panels in order, so a pair's value does not depend on the others."""
        below = np.minimum(b, 1.0, out=b.copy(), where=a < 1.0)  # each pair up to s = 1,
        cut = (below < b).nonzero()[0]  # then the pairs that go on past it
        if cut.size:
            a, below = np.concatenate((a, np.ones(cut.size))), np.concatenate((below, b[cut]))
        out = np.zeros(a.size)  # per piece
        for piece, step, u, rule in _log_nodes(a, below, self._log_scale(e)):
            f = _powerlog_density(self.beta + e + 1.0, self.gamma, u, out=u)
            f *= rule[:, None]
            panel = _node_sum(f) * (0.5 * step)
            if rule is _GL_W:  # pieces of several panels
                out += np.bincount(piece, weights=panel, minlength=out.size)
            else:
                out[piece] = panel
        n = out.size - cut.size
        out[cut] += out[n:]
        return out[:n]

    def _quad_moment(self, q: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """integral of s^q (1 + |log s|)^gamma ds per pair with a = 0 or b = inf, a < b, over its
        pieces from 0 and to inf and the remainder (a, 1) of a pair to inf, 0 < a < 1.

        With v = 1 + |log s|, (0, b], b <= 1, is G(q + 1, gamma, 1 - log b) and [a, inf),
        a >= 1, is G(-q - 1, gamma, 1 + log a), G = ``_gamma_tail``; the power factor decides
        convergence, and gamma < -1 the q = -1 borderline.  The remainder (a, 1) is the one piece left
        to ``_quad_improper``, pair by pair in their order: three pinned check-weights verdicts come
        from it, so it moves to the log panels with ROADMAP direction 2's ``[benchmark]`` change."""
        g, out = self.gamma, np.zeros(a.shape)
        for side, kappa, edge, clamp, turn in ((a == 0.0, q + 1.0, b, np.minimum, np.subtract),
                                               (b == math.inf, -q - 1.0, a, np.maximum, np.add)):
            if np.count_nonzero(side):  # G converges for kappa > 0, and for kappa = 0 if gamma < -1
                v0 = turn(1.0, np.log(clamp(edge[side], 1.0)))  # 1 - log min(b, 1) or 1 + log max(a, 1)
                out[side] += _gamma_tail(kappa, g, v0) if kappa > 0.0 or kappa == 0.0 > g + 1.0 else math.inf
        fn = lambda x, log=math.log: x ** q * (1.0 - log(x)) ** g  # |log x| = -log x on (a, 1)
        for i, x in enumerate(a.tolist()):
            if 0.0 < x < 1.0 and out[i] < math.inf:  # a > 0 here: a pair to inf
                out[i] += _quad_improper(fn, x, 1.0)
        return out

    def describe(self) -> str:
        return f"power-log weight s^{self.beta:g} (1+|log s|)^{self.gamma:g}"

    def to_json_dict(self) -> dict:
        return {"family": "powerlog", "beta": self.beta, "gamma": self.gamma}


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call: scipy.integrate takes most of a second to load."""
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def _quad_improper(fn, a: float, b: float) -> float:
    return quad(fn, a, b, epsrel=QUAD_REL_TOL, epsabs=0.0, limit=200)[0]


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
# derived functions


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

    def __call__(self, t):
        """c t^e at one t > 0 (a float) or at each t of a 1-d array (an array), a Python power per value."""
        ts = np.ravel(t).tolist()
        if not all(x > 0.0 for x in ts):
            raise ValueError("need t > 0")
        vals = [self.coeff * x ** self.exponent for x in ts]
        return np.array(vals) if np.ndim(t) else vals[0]


def _ratio_fn(f: Callable, g: Callable) -> Callable:
    """t |-> f(t) / g(t) at one t or a 1-d array of t, g read first, x / 0 as ``_ratio`` reads it; two power laws
    fold into one."""
    if isinstance(f, PowerLaw) and isinstance(g, PowerLaw):
        if g.coeff == 0.0:
            raise ValueError("ratio denominator is identically zero")
        return PowerLaw(f.coeff / g.coeff, f.exponent - g.exponent)

    def ratio(t):
        den = g(t)
        out = _ratio(f(t), den)
        return out if np.ndim(t) else out.item()

    return ratio


def _root_fn(w: Weight, p: float, tail: bool) -> Callable:
    """t |-> (integral_t^inf s^{-p} w)^{1/p} (``tail``) or W(t)^{1/p} at one t or a 1-d array of t, from one moment
    call, each root a Python power: complex at a negative moment, quadrature's reading of a divergence, so that
    comparing it raises TypeError.  Raises InvalidWeightError where a moment diverges, first at its probe t = 1."""

    def fn(t):
        vals = (w.moment(-float(p), t, math.inf) if tail else w.moment(0.0, 0.0, t)).ravel().tolist()
        if any(map(math.isinf, vals)):
            raise InvalidWeightError(f"tail moment of {w.describe()} diverges at exponent {p:g}" if tail
                                     else f"{w.describe()} is not integrable near zero; W(t) diverges")
        roots = [v ** (1.0 / p) for v in vals]
        return np.array(roots) if np.ndim(t) else roots[0]

    fn(1.0)
    return fn


def tail_fundamental(w: Weight, p: float) -> Callable:
    """psi: t |-> (integral_t^inf s^{-p} w(s) ds)^{1/p}; closed form for Power."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    if isinstance(w, PowerWeight):
        if w.beta >= p - 1.0:
            raise InvalidWeightError(f"tail moment of {w.describe()} diverges for p={p:g} (requires beta < p - 1)")
        return PowerLaw((1.0 / (p - 1.0 - w.beta)) ** (1.0 / p), (w.beta + 1.0 - p) / p)
    return _root_fn(w, p, tail=True)


def fundamental(w: Weight, p: float) -> Callable:
    """phi: t |-> W(t)^{1/p}, the fundamental function of the Lambda-type space."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    if isinstance(w, PowerWeight):
        if w.beta <= -1.0:
            raise InvalidWeightError(f"{w.describe()} is not integrable near zero (requires beta > -1)")
        return PowerLaw((1.0 / (w.beta + 1.0)) ** (1.0 / p), (w.beta + 1.0) / p)
    return _root_fn(w, p, tail=False)


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


def tail_fundamental_ratio(cfg: CoupleConfig) -> Callable:
    """theta = psi0 / psi1, the ratio of the two tail fundamentals: the K-parameter map of the S-couple."""
    return _ratio_fn(tail_fundamental(cfg.w0, cfg.p0), tail_fundamental(cfg.w1, cfg.p1))


def fundamental_ratio(cfg: CoupleConfig) -> Callable:
    """sigma = phi0 / phi1, the ratio of the two fundamental functions: the K-parameter map of the head couple."""
    return _ratio_fn(fundamental(cfg.w0, cfg.p0), fundamental(cfg.w1, cfg.p1))


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
        # field by field: ``dataclasses.asdict`` deep-copies, at twice the cost
        return {"condition": self.condition, "holds": self.holds,
                "constant": self.constant if math.isfinite(self.constant) else "inf",
                "witness_t": self.witness_t, "method": self.method, "detail": self.detail}


def _sup_scan(pairs) -> tuple[float, float]:
    """(max ratio, witness t) over (t, ratio) pairs: the first t attaining the max."""
    best, arg = -math.inf, math.nan
    for t, r in pairs:
        if r > best:
            best, arg = r, t
    return best, arg


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, reading x / 0 as inf for x > 0 and as 0 for x = 0; complex where either is."""
    num, den = np.asarray(num), np.asarray(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.where(num > 0.0, math.inf, 0.0), num / den)


def check_bp(w: Weight, p: float, grid: Grid | None = None) -> ConditionVerdict:
    """t^p integral_t^inf w/s^p ds <= C W(t): decisive for Power, grid sup otherwise."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    w.primitive(1.0)  # raises InvalidWeightError where W diverges
    if isinstance(w, PowerWeight):
        beta = w.beta
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


def check_rbp(w: Weight, p: float, grid: Grid | None = None) -> ConditionVerdict:
    """W(t) <= C t^p integral_t^inf w/s^p ds: the reverse balance condition."""
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    w.primitive(1.0)  # raises InvalidWeightError where W diverges
    if isinstance(w, PowerWeight):
        beta = w.beta
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


def check_delta2(w: Weight, grid: Grid | None = None) -> ConditionVerdict:
    """Doubling of the primitive: W(2t) <= C W(t)."""
    w.primitive(1.0)  # raises InvalidWeightError where W diverges
    if isinstance(w, PowerWeight):
        c = 2.0 ** (w.beta + 1.0)
        return ConditionVerdict("Delta2", True, c, 1.0, "closed-form", "ratio is t-independent")
    grid = grid or DEFAULT_CHECK_GRID
    doubled, single = w.moment(0.0, 0.0, np.multiply.outer((2.0, 1.0), grid.points))
    c, arg = _sup_scan(zip(grid.points.tolist(), _ratio(doubled, single).tolist()))
    return ConditionVerdict("Delta2", math.isfinite(c), c, arg, "grid", f"grid of {len(grid)} points")


def check_cond1(cfg: CoupleConfig, grid: Grid | None = None) -> ConditionVerdict:
    """Doubling of both tail fundamentals: psi_i(t) <= C psi_i(2t).  On a grid, psi at 2t_0, t_0, 2t_1,
    t_1, ... (psi(2t) first, as a pointwise scan reads it) comes from one ``psi`` call per weight, one
    moment call or its ``PowerLaw``; the maximum of the ratios (``_ratio``) is taken over Python numbers."""
    found = []  # (constant, witness, method) of each weight
    for w, p in ((cfg.w0, cfg.p0), (cfg.w1, cfg.p1)):
        psi = tail_fundamental(w, p)  # raises on divergent tails
        if isinstance(psi, PowerLaw):
            found.append((2.0 ** (-psi.exponent), 1.0, "closed-form"))
        else:
            pts = (grid or DEFAULT_CHECK_GRID).points
            vals = psi(np.multiply.outer(pts, (2.0, 1.0)).ravel())
            ratios = _ratio(vals[1::2], vals[::2]).tolist()  # psi(2t) = 0 reads inf
            found.append((*_sup_scan(zip(pts.tolist(), ratios)), "grid"))
    c, witness, _how = max(found, key=lambda row: row[0])
    return ConditionVerdict(
        "tail-doubling", math.isfinite(c), c, witness,
        "closed-form" if all(how == "closed-form" for *_, how in found) else "grid",
        "; ".join(f"index{i}: C={row[0]:.6g}" for i, row in enumerate(found)),
    )


def _quasi_monotone_grid(fn: Callable[[float], float], grid: Grid) -> tuple[bool, float, float]:
    """Quasi-monotone non-decreasing check: sup_{s<=t} fn(s)/fn(t) <= ``QUASI_MONOTONE_THRESHOLD``."""
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
    return best <= QUASI_MONOTONE_THRESHOLD, best, arg


def check_cond3(cfg: CoupleConfig, eps: float, grid: Grid | None = None) -> ConditionVerdict:
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
    holds, c, arg = _quasi_monotone_grid(lambda t: theta(t) * psi0_eps(t), grid)
    return ConditionVerdict("ratio-quasi-monotone", holds, c, arg, "grid",
                            f"eps={eps:g}; threshold={QUASI_MONOTONE_THRESHOLD:g}")


def _sufcond_closed_form(cfg: CoupleConfig, b0: float, b1: float) -> tuple[ConditionVerdict, ConditionVerdict]:
    """The sufficient conditions of a couple of power weights s^b0 and s^b1."""
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


def check_sufconds(cfg: CoupleConfig, grid: Grid | None = None) -> tuple[ConditionVerdict, ConditionVerdict]:
    """The two sufficient conditions for the explicit head/tail K-formula.

    First: integral_0^t phi1(s)^{-p0} w0(s) ds <= C sigma(t)^{p0}.
    Second: sigma(t) (integral_t^inf phi0(s)^{-p1} w1(s) ds)^{1/p1} <= C.
    Each holds where its constant C is at most ``QUASI_MONOTONE_THRESHOLD``.
    Closed form for Power couples; otherwise a log grid of t, one pass of sums
    on the 8-point ``_log_nodes`` between cutoff/32, cutoff = t_min/100, the
    grid points, hi = 100 t_max and the weights' kinks, with W = W(cutoff/32)
    plus finite moments and x / 0 read by ``_ratio``.  The head integrals from
    the cutoff are a prefix sum, divergent if the piece below the cutoff adds
    over 5% to one; the tail ones a suffix sum to hi plus one quadrature over
    (hi, inf) in u = 1/s, whose negative value (a divergence) reads as inf.
    """
    if isinstance(cfg.w0, PowerWeight) and isinstance(cfg.w1, PowerWeight):
        return _sufcond_closed_form(cfg, cfg.w0.beta, cfg.w1.beta)

    pts = (grid or Grid.log(1e-4, 1e4, 49)).points
    phi0 = fundamental(cfg.w0, cfg.p0)  # both raise InvalidWeightError where W diverges
    fundamental(cfg.w1, cfg.p1)
    cutoff, hi = pts[0] / 100.0, pts[-1] * 100.0
    low = cutoff / 32.0
    kinks = np.concatenate([np.asarray(w.kinks(), dtype=float) for w in (cfg.w0, cfg.w1)])
    edges = np.union1d(np.append(pts, kinks[(kinks > low) & (kinks < hi)]), (low, cutoff, hi))
    ((piece, step, u, _),) = _log_nodes(edges[:-1], edges[1:])
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
    holds_a = math.isfinite(ca) and ca <= QUASI_MONOTONE_THRESHOLD and not unstable
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
    holds_b = math.isfinite(cb) and cb <= QUASI_MONOTONE_THRESHOLD
    vb = ConditionVerdict("sigma-vs-tail-integral", holds_b, cb, wb, "grid", "")
    return va, vb


def tail_diverges_at_zero(w: Weight, p: float) -> ConditionVerdict:
    """psi(0+) = inf: the tail fundamental blows up approaching the origin; off the power
    weights, psi(1e-8) / psi(1e-2) > 100, both taken in one ``psi`` call."""
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
    psi = tail_fundamental(w, p)  # raises on divergent tails
    lo, hi = 1e-8, 1e-2
    ratio = float(_ratio(*psi(np.array((lo, hi)))))
    holds = ratio > 1e2
    return ConditionVerdict("tail-blowup-at-zero", holds, ratio, lo, "grid", f"psi({lo:g})/psi({hi:g}) = {ratio:.3g}")
