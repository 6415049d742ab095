"""K-functionals of weighted couples: explicit formulas, oracles, decompositions.

The K-functional of f at parameter t > 0 for a couple (X_0, X_1) is the
infimum of ||f_0||_{X_0} + t ||f_1||_{X_1} over decompositions f = f_0 + f_1.
This module provides:

* ``k_explicit_curve`` and its one-t cases ``k_explicit_general`` (lambda) and
  ``k_explicit_s`` — the head/tail formula (integral_0^t g^{p_0} w_0)^{1/p_0} +
  r(t) (integral_t^inf g^{p_1} w_1)^{1/p_1} over a sweep of t: g = f* and r = sigma,
  the ratio of fundamental functions (lambda); g = f** - f*, r = theta, the ratio of
  tail fundamentals, and the verdicts of ``s_couple_hypotheses`` (s); ``corollary_1``
  is w_0 = 1, w_1 = s^{-alpha};
* ``truncation_decomposition`` and ``decomposition_lemma`` — cut f* at a
  point; split non-increasing f <= g + h by the right running supremum of
  (f - g)^+;
* ``k_curve`` and its one-t case ``k_oracle`` — the least value, bracketed by a gap,
  over monotone step decompositions of f* for a sweep of parameters (the cells,
  spaces and truncation family built once); ``curve_violations`` checks a
  sweep against the concavity of K(t) and the monotonicity of K(t)/t,
  within the gaps;
* ``k_curve_s_couple`` and ``k_oracle_s_couple`` — the s-couple K-functional,
  solved once, and its optimal parts mapped by the oscillation transform to the
  reciprocal lambda-couple, one problem in other coordinates;
* ``near_optimal_s_decomposition`` — the constructive decomposition through
  the transform side and the decomposition lemma.

Both parts of a monotone decomposition can only jump where f* does, so it is
optimized on the steps of f* alone, in differences d, where the chain
constraints become a box and the objective is convex (p >= 1).  Each norm is
N(Ld)^p = sum_i omega_i y_i^p with y = Bd, and a monotone candidate is
evaluated from y alone.  The corners of the box, the truncation candidates
among them (the head corners d = hi on the cells < k), take
``_SpaceOnGrid.norms``; one pass over both spaces' stacked arrays
(``_forward_rows``) gives the objective at any d, its gradient and Hessian, and
``_GridProblem.point`` the certificate at any t, a Frank-Wolfe gap or, at a
vanishing part, the level-function dual over the cone of non-increasing
functions (at the corners u = 0 and f* a closed form in t, ``_Vertex``).  A
sweep picks every t's truncation candidate from one array and certifies them
together (``_GridProblem.curve``); an uncertified one is followed by projected
Newton from it, then from the centre (off a corner along the dual's
maximizer).  At p <= 1, J is concave in d (reverse Minkowski), at p_0 = p_1 = 1
and on one step linear, so ``_GridProblem.corners`` takes the best corner of the
box, d_k in {0, hi_k}.  No scipy routine runs here.
An uncertified value is flagged unconverged, never silently accepted.
A result holds its parts as arrays on its cells, checked to sum to f* at every
cell; the parts as step functions are built only when read.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal, get_args

import numpy as np

from .grids import Grid
from .norms import LorentzSpace, _powered, cell_moments, norm
from .stepfn import StepFunction, _osc_rows, _require_nonincreasing, dilate, osc_transform, rearrange
from .weights import (ConditionVerdict, CoupleConfig, InvalidWeightError, PowerWeight, check_cond1,
                      check_cond3, check_rbp, fundamental_ratio, reciprocal_weight, tail_diverges_at_zero,
                      tail_fundamental, tail_fundamental_ratio)

__all__ = [
    "Decomposition", "KQuery", "ExplicitKValue", "OracleResult", "SCoupleOracleResult", "NearOptimalSDecomposition",
    "k_explicit_curve", "k_explicit_general", "k_explicit_s", "s_couple_hypotheses", "corollary_couple", "corollary_1",
    "truncation_decomposition", "decomposition_lemma", "k_curve", "k_curve_s_couple", "curve_violations",
    "k_oracle", "k_oracle_s_couple", "near_optimal_s_decomposition",
]

Provenance = Literal["truncation", "decomposition-lemma", "optimizer", "manual"]

_SUM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """A split f = f0 + f1 with a record of how it was produced."""

    f0: StepFunction
    f1: StepFunction
    provenance: Provenance = "manual"

    def __post_init__(self) -> None:
        if self.provenance not in get_args(Provenance):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def validate_sum(self, f: StepFunction) -> None:
        """Check f0 + f1 = f on the merged grid (relative tolerance ``_SUM_REL_TOL`` for rounding).

        Probes cell midpoints, not breakpoints: after a reciprocal round trip
        a breakpoint can move by one ulp, and a probe at a jump would compare
        values from opposite sides; sliver cells of a few ulps are skipped.
        """
        pts = np.unique(np.concatenate((self.f0.breakpoints, self.f1.breakpoints, f.breakpoints)))
        if not pts.size:
            return
        # the value of f0 + f1 on each cell of the merged grid
        scale = np.concatenate((f.values, self.f0.at(pts) + self.f1.at(pts), [1.0])).max()
        prev = np.concatenate(([0.0], pts[:-1]))
        wide = pts - prev > 4.0 * np.spacing(np.maximum(pts, 1.0))
        probes = np.append(0.5 * (prev + pts)[wide], 2.0 * pts[-1])
        got, want = self.f0.at(probes) + self.f1.at(probes), f.at(probes)
        bad = np.flatnonzero(np.abs(got - want) > _SUM_REL_TOL * scale)
        if bad.size:
            i = bad[0]
            raise ValueError(f"decomposition does not sum to the target at t={float(probes[i])!r}: "
                             f"{float(got[i])!r} vs {float(want[i])!r}")

    def is_monotone(self) -> bool:
        return self.f0.is_nonincreasing() and self.f1.is_nonincreasing()


@dataclass(frozen=True)
class KQuery:
    """A K-functional query: function, parameter, and the couple."""

    f: StepFunction
    t: float
    space0: LorentzSpace
    space1: LorentzSpace

    def __post_init__(self) -> None:
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError("K-parameter t must be positive and finite")


# ---------------------------------------------------------------------------
# explicit formulas


@dataclass(frozen=True)
class ExplicitKValue:
    """Two-term explicit K-value with the matched parameter and diagnostics."""

    value: float
    param: float
    left: float
    right: float
    tail_root: float
    flags: tuple[str, ...] = ()
    hypotheses: dict | None = None


def k_explicit_curve(f: StepFunction, ts: Sequence[float], cfg: CoupleConfig, flavor: Literal["lambda", "s"],
                     eps: float | Literal["auto"] = "auto", check_hypotheses: bool = True) -> list[ExplicitKValue]:
    """The head/tail explicit K-value of the couple at each split point t of ``ts``, one per t in their order.

    value = (integral_0^t g^{p_0} w_0)^{1/p_0} + r(t) (integral_t^inf g^{p_1} w_1)^{1/p_1}, with g = f* and r = sigma,
    the ratio of fundamental functions (lambda), or g = f** - f* and r = theta, the ratio of tail fundamentals (s),
    f* the rearrangement of f.  The matched parameter r(t) comes along; a vanishing tail adds 0, even where r(t) is
    infinite.  r(t) and each integral (``norms._powered``) take the sweep from one moment call per weight.  Flags:
    divergent-head; sigma-degenerate, an infinite fundamental function read as sigma = 0 (lambda); divergent-tail;
    hypothesis-violated:<name> per failed ``s_couple_hypotheses`` verdict (s, ``check_hypotheses``), never assumed away.
    """
    if flavor not in ("lambda", "s"):
        raise ValueError("flavor must be 'lambda' or 's'")
    ts = [float(t) for t in ts]
    if not all(t > 0.0 and math.isfinite(t) for t in ts):
        raise ValueError("split point t must be positive and finite")
    fstar, degenerate, sweep = rearrange(f), False, np.array(ts)
    if flavor == "s":
        params = tail_fundamental_ratio(cfg)(sweep).tolist()
    else:
        try:
            params = fundamental_ratio(cfg)(sweep).tolist()
        except InvalidWeightError:
            params, degenerate = [0.0] * len(ts), True
    heads = _powered(flavor, fstar, cfg.p0, cfg.w0, 0.0, sweep).tolist()
    tails = _powered(flavor, fstar, cfg.p1, cfg.w1, sweep, math.inf).tolist()
    hypotheses = s_couple_hypotheses(cfg, eps) if flavor == "s" and check_hypotheses else None
    violated = [f"hypothesis-violated:{name}" for name, verdict in (hypotheses or {}).items() if not verdict.holds]
    out = []
    for head, tail, r in zip(heads, tails, params):
        left, tail_root = head ** (1.0 / cfg.p0), tail ** (1.0 / cfg.p1)
        marks = (math.isinf(left), degenerate, math.isinf(tail_root))
        flags = [name for name, on in zip(("divergent-head", "sigma-degenerate", "divergent-tail"), marks) if on]
        right = 0.0 if r == 0.0 or tail_root == 0.0 else r * tail_root
        out.append(ExplicitKValue(left + right, r, left, right, tail_root, tuple(flags + violated), hypotheses))
    return out


def k_explicit_general(fstar: StepFunction, t: float, cfg: CoupleConfig) -> ExplicitKValue:
    """Head/tail explicit value for a lambda-flavor couple at split point t: ``k_explicit_curve``'s one-t case,
    (integral_0^t (f*)^{p_0} w_0)^{1/p_0} + sigma(t) (integral_t^inf (f*)^{p_1} w_1)^{1/p_1}, f = f* given."""
    _require_nonincreasing(fstar, "the explicit K-formula")
    return k_explicit_curve(fstar, (t,), cfg, "lambda")[0]


def _auto_eps(cfg: CoupleConfig) -> float:
    """A concrete eps for the quasi-monotone hypothesis: midpoint of the
    admissible range when the couple is a pure power couple, 0.5 otherwise."""
    if not (isinstance(cfg.w0, PowerWeight) and isinstance(cfg.w1, PowerWeight)):
        return 0.5
    try:  # two power laws
        theta, psi0 = tail_fundamental_ratio(cfg), tail_fundamental(cfg.w0, cfg.p0)
    except InvalidWeightError:
        return 0.5
    return theta.exponent / (-2.0 * psi0.exponent) if psi0.exponent < 0.0 < theta.exponent else 0.5


def s_couple_hypotheses(cfg: CoupleConfig, eps: float | Literal["auto"] = "auto") -> dict[str, ConditionVerdict]:
    """The verdicts of the hypotheses under which ``k_explicit_s`` holds, by name: tail doubling, reverse
    balance of w_0, the quasi-monotone ratio at ``eps`` and the tail blow-up at zero of each weight; they depend
    on the couple alone, so they are taken once per (cfg, eps) and each call gets a fresh dict of them.  A
    checker that raises InvalidWeightError gives a failed verdict, method "inapplicable"."""
    return dict(_couple_verdicts(cfg, eps))


@lru_cache(maxsize=64)
def _couple_verdicts(cfg: CoupleConfig, eps: float | Literal["auto"]) -> tuple[tuple[str, ConditionVerdict], ...]:
    checks = {"tail-doubling": (check_cond1, cfg), "reverse-balance-w0": (check_rbp, cfg.w0, cfg.p0),
              "ratio-quasi-monotone": (check_cond3, cfg, _auto_eps(cfg) if eps == "auto" else float(eps)),
              "tail-blowup-at-zero-0": (tail_diverges_at_zero, cfg.w0, cfg.p0),
              "tail-blowup-at-zero-1": (tail_diverges_at_zero, cfg.w1, cfg.p1)}
    verdicts = []
    for name, (check, *args) in checks.items():
        try:
            verdicts.append((name, check(*args)))
        except InvalidWeightError as exc:
            verdicts.append((name, ConditionVerdict(name, False, math.inf, math.nan, "inapplicable", str(exc))))
    return tuple(verdicts)


def k_explicit_s(f: StepFunction, t: float, cfg: CoupleConfig, eps: float | Literal["auto"] = "auto",
                 check_hypotheses: bool = True) -> ExplicitKValue:
    """Explicit head/tail value for an s-flavor couple at split point t: ``k_explicit_curve``'s one-t case,
    (integral_0^t (f**-f*)^{p_0} w_0)^{1/p_0} + theta(t) (integral_t^inf (f**-f*)^{p_1} w_1)^{1/p_1}."""
    return k_explicit_curve(f, (t,), cfg, "s", eps, check_hypotheses)[0]


def corollary_couple(p: float, alpha: float) -> CoupleConfig:
    """The couple (flat weight, power tail weight s^{-alpha}) at exponent p."""
    if not (1.0 < p < math.inf):
        raise ValueError("requires p in (1, inf)")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("requires alpha > 0")
    return CoupleConfig(p, PowerWeight(0.0), p, PowerWeight(-alpha))


def corollary_1(f: StepFunction, t: float, p: float = 2.0, alpha: float = 1.0, **kwargs) -> ExplicitKValue:
    """Explicit s-couple K-value for w_0 = 1, w_1 = s^{-alpha}."""
    return k_explicit_s(f, t, corollary_couple(p, alpha), **kwargs)


# ---------------------------------------------------------------------------
# constructive decompositions


def truncation_decomposition(fstar: StepFunction, t: float) -> Decomposition:
    """Cut f* at t: f0 = (f* - f*(t+))^+ on (0, t], f1 the remainder.

    The cut level is the right-limit value just beyond t, which keeps both
    parts non-increasing and matches right-continuous representatives.
    """
    _require_nonincreasing(fstar, "the truncation decomposition")
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("cut point t must be positive and finite")
    level = fstar.value_right(t)
    bps, vals = fstar.breakpoints, fstar.values
    head = int(np.searchsorted(bps, t)) + 1  # the cells that start left of t
    f0 = StepFunction(np.minimum(bps[:head], t), np.maximum(vals[:head] - level, 0.0))
    # exact remainder: the cut level up to t, f* itself beyond; subtracting
    # f0 from f* instead would leave ulp-level wiggles in the head values
    f1 = StepFunction(bps, np.where(bps <= t, level, vals))
    dec = Decomposition(f0, f1, "truncation")
    dec.validate_sum(fstar)
    return dec


def _clamp_nonincreasing(vals: np.ndarray, tol_scale: float) -> np.ndarray:
    """Clamp ulp-level increases down (a running minimum); raise on anything larger."""
    out = np.minimum.accumulate(vals)
    if (vals[1:] - out[:-1] > 1e-9 * tol_scale).any():
        raise AssertionError("monotonicity violated beyond rounding slack")
    return out


def decomposition_lemma(f: StepFunction, g: StepFunction, h: StepFunction) -> Decomposition:
    """Split non-increasing f <= g + h into non-increasing f0 <= g, f1 <= h.

    f1 is the running supremum from the right of (f - g)^+, which is the
    smallest non-increasing function with f - g <= f1 <= h; f0 = f - f1.
    """
    for name, fn in (("f", f), ("g", g), ("h", h)):
        if not fn.is_nonincreasing():
            raise ValueError(f"{name} must be non-increasing")
    pts = np.unique(np.concatenate((f.breakpoints, g.breakpoints, h.breakpoints)))
    if not pts.size:
        return Decomposition(StepFunction.zero(), StepFunction.zero(), "decomposition-lemma")
    fv, gv, hv = f.at(pts), g.at(pts), h.at(pts)
    scale = np.concatenate((fv, gv, hv, [1.0])).max()
    over = np.flatnonzero(fv > gv + hv + 1e-12 * scale)
    if over.size:
        i = over[0]
        raise ValueError(f"majorization f <= g + h fails at t={float(pts[i])!r}: "
                         f"{float(fv[i])!r} > {float(gv[i] + hv[i])!r}")
    # running sup from the right of (f - g)^+
    f1v = np.maximum.accumulate(np.maximum(fv - gv, 0.0)[::-1])[::-1]
    f0v = _clamp_nonincreasing(fv - f1v, scale)
    f0 = StepFunction(pts, np.maximum(f0v, 0.0))
    f1 = StepFunction(pts, f1v)
    dec = Decomposition(f0, f1, "decomposition-lemma")
    # postconditions from the construction
    slack = 1e-9 * scale
    for part, bound, name in ((f0, gv, "f0 <= g"), (f1, hv, "f1 <= h")):
        broken = np.flatnonzero(part.at(pts) > bound + slack)
        if broken.size:
            raise AssertionError(f"part bound {name} fails at t={float(pts[broken[0]])!r}")
    dec.validate_sum(f)
    return dec


# ---------------------------------------------------------------------------
# grid objective machinery for the oracle


class _SpaceOnGrid:
    """Norms of step functions with fixed cells (g_{i-1}, g_i], g_0 = 0, and variable values.

    Lambda or s; lengths, left edges, moments and tail from ``norms.cell_moments``.
    A monotone candidate u = Ld is evaluated in its differences d from y = Bd:
    the corners by ``norms``, Newton's points by ``_forward_rows`` on B and omega.
    """

    def __init__(self, space: LorentzSpace, g: np.ndarray):
        if space.flavor == "gamma":
            raise InvalidWeightError("the oracle takes lambda- and s-flavor spaces, not gamma")
        self.flavor, self.p = space.flavor, float(space.p)
        cells = cell_moments(self.flavor, self.p, space.w, g)
        if cells is None:
            raise InvalidWeightError(f"a weight moment diverges on this grid; {self.flavor}-norms are infinite")
        lengths, left, moments, tail = cells
        # N(Ld)^p = sum_i omega_i y_i^p with y = B d, B = 1 on and above the diagonal (lambda) or
        # x_k below it, a last row all x (s); ``cone_dual``'s scale x of the differences, and its
        # weights X, read backwards for s
        m = g.size
        below = np.arange(m + 1)[:, None] > np.arange(m)  # row i > column k
        if self.flavor == "lambda":
            self.B, self.omega = 1.0 - below[:m], moments
            self.x, self.X, self.order = np.ones(m), moments.cumsum(), slice(None)
        else:
            self.x = left + lengths
            self.B, self.omega = below * self.x, np.concatenate((moments, [tail]))
            self.X, self.order = self.omega[:0:-1].cumsum(), slice(None, None, -1)

    def norms(self, D: np.ndarray) -> np.ndarray:
        """N(Ld) at each row d of D, from y = Bd: a sum of non-negative terms, so a vanishing y is exactly 0."""
        return (((D @ self.B.T) ** self.p) @ self.omega) ** (1.0 / self.p)

    def cone_dual(self, c: np.ndarray, free: np.ndarray, maximizer: bool = True) -> tuple[float, np.ndarray | None]:
        """max <c, d> over d >= 0, d_k = 0 off ``free``, N(Ld) <= 1, and (with ``maximizer``) a maximizer up to scale.

        Exact: for lambda N(Ld)^p = sum_i dW_i u_i^p, for s the same sum over
        C_i = sum_{k<i} x_k d_k read backwards (weights dPsi_1..., the tail);
        the maximizer differences ``_level_dual``'s levels (None at 0 or inf).
        """
        keep = free[self.order]
        value, level = _level_dual((c / self.x)[self.order][keep], self.X[keep], self.p)
        if level is None or not maximizer:
            return value, None
        d = np.zeros(c.size)
        d[keep] = level - np.concatenate((level[1:], [0.0]))
        return value, d[self.order] / self.x


def _forward_rows(B: np.ndarray, omega: np.ndarray, ps: Sequence[float], X: np.ndarray, hess: bool = False):
    """N(Lx) at each row x of X[k] in space k (B[k], omega[k] and exponent ps[k]), a list in row
    order, and the gradients in x and with ``hess`` the Hessians, arrays over X's axes.

    With y = Bx and r = N^{1-p} omega y^{p-1}: gradient B^T r, Hessian B^T ((p-1)/N)(N^{2-p}
    diag(omega y^{p-2}) - r r^T) B without the rows y_i = 0 in the diagonal; at N = 0 or p = 1,
    N = sum omega y^p, gradient B^T omega y^{p-1} (0 at p > 1) and Hessian 0.  Each product is
    one BLAS call per row, each power of N a float's and each y^{p-1} taken with a scalar exponent
    (numpy's special cases then match), so a row's values are those of a pass on that row alone.
    """
    y = (B @ X[..., None])[..., 0]
    wy = np.empty_like(y)
    for k, p in enumerate(ps):
        np.power(y[k], p - 1.0, out=wy[k])
    wy *= omega
    powered = (wy[..., None, :] @ y[..., None])[..., 0, 0]
    n, factors, kinked = [], [], False  # each row's N and its N^{1-p}, N^{2-p} and (p-1)/N
    for p, row in zip(ps, powered.reshape(len(ps), -1).tolist()):
        for pw in row:
            if pw != 0.0 and p != 1.0:
                n.append(pw ** (1.0 / p))
                factors.append((n[-1] ** (1.0 - p), n[-1] ** (2.0 - p), (p - 1.0) / n[-1]))
            else:
                n.append(pw)
                factors.append((1.0, 0.0, 0.0))
                kinked = True
    scale, curv, coef = np.array(factors).T.reshape((3,) + powered.shape + (1,))
    grad = ((scale * wy)[..., None, :] @ B)[..., 0, :]
    if not hess:
        return n, grad, None
    diag = np.divide(wy, y, out=np.zeros(y.shape), where=y > 0.0)
    diag *= curv
    H = (B.swapaxes(-1, -2) * diag[..., None, :]) @ B
    H -= grad[..., :, None] * grad[..., None, :]
    H *= coef[..., None]
    if kinked:
        H[coef[..., 0] == 0.0] = 0.0
    return n, grad, H


class _Vertex:
    """The corner u = 0 (``low``: d = 0) or u = f* (d = hi) of one problem's box, its value and gap at any t.

    One part vanishes, so with wv, wl the factors (1 or t) of the vanishing
    and the live part, J = wl N_live(F), g = +-(wv a - wl G) (a the vanishing
    gradient at 0, 0 when p > 1; G the live one at F), FW = (wl G - wv a)^+ .
    hi, and at p > 1 the cone dual is D = wl D_1 / wv, the gap min(FW, (D -
    1)^+ J).  If D > 1, J falls along the maximizer ``exit``, ``newton``'s step.
    """

    def __init__(self, problem: "_GridProblem", low: bool):
        hi, v = problem.hi, 0 if low else 1  # v: the vanishing space
        self.low, self.hi, self.vanishing = low, hi, (problem.ev0, problem.ev1)[v]
        n, grad, _ = problem.fused(np.array((hi * (not low), hi * low)))  # d, e = (0, hi) or (hi, 0)
        self.a, self.j, self.G = grad[v], n[1 - v], grad[1 - v]
        self.dual = self.vanishing.cone_dual(self.G, hi > 0.0, maximizer=False)[0] if self.vanishing.p > 1.0 else None

    @cached_property
    def exit(self) -> np.ndarray | None:
        """The cone dual's maximizer as a step in d (None at p = 1, or at D = 0 or +inf)."""
        direction = None if self.dual is None else self.vanishing.cone_dual(self.G, self.hi > 0.0)[1]
        return direction if direction is None or self.low else -direction

    def value(self, t: float) -> float:
        return (t if self.low else 1.0) * self.j

    def gap(self, t: float) -> float:
        wv, wl = (1.0, t) if self.low else (t, 1.0)
        fw = float(np.maximum(wl * self.G - wv * self.a, 0.0) @ self.hi)
        return fw if self.dual is None else min(fw, max(wl * self.dual / wv - 1.0, 0.0) * self.value(t))


def _level_slopes(c: Sequence[float], X: Sequence[float]) -> np.ndarray:
    """The slope over (X_{k-1}, X_k] of the least concave majorant of (0, 0)
    and the points (X_k, c_k), X non-decreasing and X_{-1} = 0: one per point,
    +inf where the majorant jumps up at X = 0, -inf on a drop at equal X.
    The hull and its slopes are taken in floats, and made an array once."""
    xs, ys = [0.0, *X], [0.0, *c]
    hull = [0]
    for j in range(1, len(xs)):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (ys[j] - ys[a]) < (ys[b] - ys[a]) * (xs[j] - xs[a]):
                break
            hull.pop()  # b lies on or below the chord from a to j
        hull.append(j)
    slopes: list[float] = []
    for a, b in zip(hull, hull[1:]):
        dx, dy = xs[b] - xs[a], ys[b] - ys[a]
        slopes += [dy / dx if dx > 0.0 else (math.inf if dy > 0.0 else -math.inf)] * (b - a)
    return np.array(slopes)


def _level_dual(c: np.ndarray, X: np.ndarray, p: float) -> tuple[float, np.ndarray | None]:
    """max <c, d> over d >= 0 with sum_i W_i (sum_{k >= i} d_k)^p <= 1, X_k = W_0 + ... + W_k,
    and the levels sum_{k >= i} d_k of a maximizer, up to scale (None at a value of 0 or +inf).

    Level-function duality for the cone of non-increasing functions (Sawyer
    1990; Sinnamon 2001): with sigma the slopes of the least concave majorant
    of the points (X_k, c_k), the value is (sum_k (X_k - X_{k-1})
    (sigma_k^+)^{p'})^{1/p'}, attained at u_k = (sigma_k^+)^{p'-1}.  Only
    c^+ reaches the rising part, and c^+ is scaled by a power of two into
    [1/2, 1) and the value back, so subnormal coefficients keep their digits.
    """
    c = np.maximum(c, 0.0)
    e = math.frexp(float(np.maximum.reduce(c, initial=0.0)))[1]
    sigma = np.maximum(_level_slopes(np.ldexp(c, -e).tolist(), X.tolist()), 0.0)
    top, q = np.maximum.reduce(sigma, initial=0.0), p / (p - 1.0)
    if top == 0.0 or top == math.inf:
        return float(top), None
    # scaled by the largest slope, so that sigma^q cannot underflow
    ratio = sigma / top
    widths = X - np.concatenate(([0.0], X[:-1]))
    return float(np.ldexp(top * (widths @ ratio**q) ** (1.0 / q), e)), ratio ** (q - 1.0)


# ---------------------------------------------------------------------------
# the oracle


@dataclass(frozen=True)
class OracleResult:
    """An oracle value with the split f* = u + rest that attains it.

    ``u`` and ``rest``: read-only arrays of the parts' values on the cells ending at ``grid``, checked by
    ``_checked_parts`` to sum to f*; ``decomposition``, the parts as step functions, is built on first read.
    ``gap`` bounds ``value`` minus the monotone minimum (0 at an exact corner, +inf uncertified); ``converged``
    means ``gap <= _GAP_REL_TOL * value``.  ``starts`` counts the Newton runs (0 when the truncation candidate or
    a corner stands, and for parts mapped by ``k_curve_s_couple``, which searches nothing), ``iterations`` their
    steps (one off a corner counts as any other) or flips.
    """

    value: float
    u: np.ndarray = field(repr=False, compare=False)
    rest: np.ndarray = field(repr=False, compare=False)
    provenance: Provenance
    truncation_value: float
    converged: bool
    iterations: int
    grid: Grid
    gap: float
    starts: int

    @cached_property
    def decomposition(self) -> Decomposition:
        g = self.grid.points
        return Decomposition(StepFunction(g, self.u), StepFunction(g, self.rest), self.provenance)


def _checked_parts(F: np.ndarray, grid: Grid, U: np.ndarray,
                   rest: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views of the rows of U and of rest, by default F - U, as its running minimum, which kills
    rounding wiggles, after checking at every cell that both are finite and non-negative and that
    |u + rest - F| <= ``_SUM_REL_TOL`` max(F, u + rest, 1) (a nan fails every comparison)."""
    rest = np.minimum.accumulate(np.maximum(F - U, 0.0) if rest is None else rest, axis=-1)
    total = U + rest
    ok = (np.abs(total - F) <= _SUM_REL_TOL * np.maximum(np.maximum(F, total), 1.0)) & (total < math.inf)
    ok &= np.minimum(U, rest) >= 0.0
    if np.count_nonzero(ok) < ok.size:
        at = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValueError(f"decomposition does not sum to the target at t={float(grid.points[at[-1]])!r}: "
                         f"{float(U[at])!r} + {float(rest[at])!r} vs {float(F[at[-1]])!r}")
    U, rest = U.view(), rest.view()
    U.flags.writeable = rest.flags.writeable = False
    return U, rest


# projected Newton: steps per run, tenfold cuts per step, the Armijo share, the active-set
# width and the steps without progress that end a run
_NEWTON_STEPS, _BACKTRACKS, _ARMIJO, _ACTIVE_EPS, _STALL = 50, 20, 1e-4, 1e-3, 8
# a candidate whose gap is at most this share of its value is returned as optimal
_GAP_REL_TOL = 1e-10
_CORNER_STEPS = 16  # the most steps whose 2^n corners ``_GridProblem.corners`` tables: 20-130 ms for 15 t
_EPS = float(np.finfo(float).eps)


class _GridProblem:
    """Everything of a K-query but its parameter t, built once: f* as its values F on the cells ending at
    the points g (its own steps, or any grid on which it is constant), both spaces there, the box 0 <= d
    <= hi_k = F_k - F_{k+1} of the monotone candidates u = Ld with its corners (``vertices``, built on first
    use), and the truncation family with its norms N0 and N1 of the rest.  J(u) = ||u||_0 + t ||F - u||_1
    at any t is ``point``; a sweep of t is one ``curve``."""

    def __init__(self, g: np.ndarray, F: np.ndarray, space0: LorentzSpace, space1: LorentzSpace):
        self.grid, self.F = Grid(g), F
        ev0, ev1 = _SpaceOnGrid(space0, self.grid.points), _SpaceOnGrid(space1, self.grid.points)
        self.ev0, self.ev1, self.hi = ev0, ev1, F - np.concatenate((F[1:], [0.0]))
        self.hh = self.hi[:, None] * self.hi  # Newton's scaling z = d / hi
        self.move = self.hi * np.array([[1.0], [-1.0]])  # a step dz in z = d / hi moves d by dz hi, e back
        self.vertices: list[_Vertex | None] = [None, None]
        # both spaces stacked for ``fused``, the shorter B padded by zero rows of weight 0
        rows = max(ev0.omega.size, ev1.omega.size)
        self.B, self.omega = np.zeros((2, rows, F.size)), np.zeros((2, rows))
        for k, ev in enumerate((ev0, ev1)):
            self.B[k, : ev.omega.size], self.omega[k, : ev.omega.size] = ev.B, ev.omega
        self.ps = (ev0.p, ev1.p)

    def fused(self, X: np.ndarray, hess: bool = False):
        """``_forward_rows`` of N0 at X[0] and N1 at X[1], differences d and e or stacks of them."""
        B, omega = (self.B, self.omega) if X.ndim == 2 else (self.B[:, None], self.omega[:, None])
        return _forward_rows(B, omega, self.ps, X, hess)

    def to_u(self, D: np.ndarray) -> np.ndarray:
        """The candidate Ld of each row of differences d >= 0 of D (or of one d), not clipped at F, which would
        break a run of equal values that rounds above it; the upper corner is F exactly, which the sum of the
        differences can miss."""
        U = D[..., ::-1].cumsum(axis=-1)[..., ::-1].copy()  # the array method skips np.cumsum's Python wrapper
        U[np.logical_and.reduce(D == self.hi, axis=-1)] = self.F
        return U

    def vertex(self, d: np.ndarray, e: np.ndarray) -> _Vertex | None:
        """The corner of the box at d, e = hi - d, if it is one."""
        low = not np.count_nonzero(d)
        if not low and np.count_nonzero(e):
            return None
        if self.vertices[1 - low] is None:
            self.vertices[1 - low] = _Vertex(self, low)
        return self.vertices[1 - low]

    def point(self, d: np.ndarray, t: float, hess: bool = False, e: np.ndarray | None = None
              ) -> tuple[float, np.ndarray, float, np.ndarray | None, _Vertex | None]:
        """(J, gradient in d, gap, Hessian with ``hess``, the corner at d or None) at d and t for p >= 1; ``e`` =
        hi - d, kept by the caller where hi - d would round away digits that a steep gradient needs.

        J is convex in d, so the Frank-Wolfe gap g.d - min_box g.x bounds J(d)
        - min J.  At u = 0 (p_0 > 1) N_0's subgradient vanishes, so J(d) >=
        J(0) + (1 - D) N_0(Ld), D the cone dual of -g (``_SpaceOnGrid.cone_dual``),
        and the gap is (D - 1)^+ J(0); u = f* mirrors it (``_Vertex.gap``).
        """
        hi = self.hi
        e = hi - d if e is None else e
        (n0, n1), grad, H = self.fused(np.array((d, e)), hess)
        val, g = n0 + t * n1, grad[0] - t * grad[1]
        vertex = self.vertex(d, e)
        gap = max(float(g @ d - np.minimum(g, 0.0) @ hi), 0.0) if vertex is None else vertex.gap(t)
        return val, g, gap, (H[0] + t * H[1] if hess else None), vertex

    def newton(self, d: np.ndarray, e: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, float, float, int]:
        """Projected Newton from d, e = hi - d at t: (d, e, J, gap, steps).

        Bertsekas (1982, SIAM J. Control Optim. 20) in z = d/hi: a coordinate
        within eps of the bound its gradient points out of takes a gradient
        step unless its own Newton step stops short of the bound (at p < 2 an
        optimum can sit 1e-13 inside, where y^{p-2} blows up); the others a
        Newton step damped by |g_free| I (Li, Fukushima, Qi and Yamashita 2004,
        Comput. Optim. Appl. 28), since J is affine from 0 to hi.  Projected,
        it is cut tenfold until Armijo holds or, with J flat, the gap shrinks;
        at a corner u = 0 or f* with cone dual above 1 the step is its ``exit``
        to the edge of the box.  It stops at a gap of ``_GAP_REL_TOL`` J, after
        ``_NEWTON_STEPS``, with no step accepted, or when in ``_STALL`` steps J
        has not fallen nor the least gap halved.
        d and e are both stepped, each keeping its digits near its bound.
        """
        hi, hh, X = self.hi, self.hh, np.array((d, e))
        val, g, gap, H, vertex = self.point(d, t, True, e)
        seen = [(val, gap)]  # J and the least gap so far, after each step
        for step in range(_NEWTON_STEPS):
            if gap <= _GAP_REL_TOL * val:
                return X[0], X[1], val, gap, step
            if step >= _STALL and val >= seen[-1 - _STALL][0] and seen[-1][1] > 0.5 * seen[-1 - _STALL][1]:
                break
            if vertex is not None and vertex.exit is not None:
                dz = vertex.exit / hi
                dz /= np.abs(dz).max()
            else:
                Z, gz, Hz = X / hi, g * hi, H * hh
                z = Z[0]
                pg = z - np.minimum(np.maximum(z - gz, 0.0), 1.0)
                room = np.where(gz > 0.0, z, Z[1])  # to the bound the gradient points out of
                free = (room > min(_ACTIVE_EPS, math.sqrt(pg @ pg))) | (np.abs(gz) < Hz.diagonal() * room)
                dz, n_free = -gz, np.count_nonzero(free)
                if n_free:
                    gf, Hf = (gz, Hz) if n_free == gz.size else (gz[free], Hz[free][:, free])
                    Hf.flat[:: n_free + 1] += math.sqrt(gf @ gf)
                    try:
                        newton_dz = np.linalg.solve(Hf, -gf)
                    except np.linalg.LinAlgError:
                        newton_dz = -gf
                    if newton_dz @ gf < 0.0:  # a descent direction
                        dz[free] = newton_dz
            for _ in range(_BACKTRACKS):
                d_t, e_t = trial = np.minimum(np.maximum(X + dz * self.move, 0.0), hi)
                f_t, g_t, gap_t, H_t, v_t = self.point(d_t, t, True, e_t)
                if f_t <= val + _ARMIJO * (g @ (d_t - X[0])) or (f_t <= val * (1.0 + 4.0 * _EPS) and gap_t < gap):
                    break
                dz = 0.1 * dz
            else:
                break
            X, val, g, gap, H, vertex = trial, f_t, g_t, gap_t, H_t, v_t
            seen.append((val, min(gap, seen[-1][1])))
        else:
            step = _NEWTON_STEPS
        return X[0], X[1], val, gap, step

    def polish(self, t: float, d: np.ndarray, e: np.ndarray, best_f: float, best_u: np.ndarray, lower: float):
        """(value, u, lower bound, steps, runs) of ``newton`` at t from the best point, the candidate d, e = hi - d
        of value best_f, then from the centre, while value - lower > ``_GAP_REL_TOL`` value."""
        iters, used = 0, 0
        for start in ((d, e), (self.hi / 2.0, self.hi / 2.0)):
            if best_f - lower <= _GAP_REL_TOL * best_f:
                break
            d, e, f_d, gap_d, steps = self.newton(*start, t)
            used, iters, lower = used + 1, iters + steps, max(lower, f_d - gap_d)
            if f_d < best_f:
                best_u, best_f = self.to_u(d), f_d
        return best_f, best_u, lower, iters, used

    @cached_property
    def family(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The truncation candidates and their norms (rows, N0, N1 of the rest): the head corners,
        d = hi on the cells < k for k = 0..n (``parts``), their norms from y = Bd and y = B(hi - d)."""
        hi = self.hi
        D = (np.arange(hi.size + 1)[:, None] > np.arange(hi.size)) * hi
        return D, self.ev0.norms(D), self.ev1.norms(hi - D)

    def parts(self, heads: np.ndarray) -> np.ndarray:
        """The parts u = (F - F_k)^+ of the head corners k (F_n = 0), exact where Ld would round."""
        return np.maximum(self.F - np.concatenate((self.F, [0.0]))[heads, None], 0.0)

    def truncations(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each t's best truncation candidate, as a row of ``family``, and its value, from one
        (T x family) array n0 + t n1, row by row as a single t takes it."""
        _, n0, n1 = self.family
        tvals = n0 + ts[:, None] * n1
        pick = tvals.argmin(axis=1)
        return pick, tvals[np.arange(ts.size), pick]

    def curve(self, ts: np.ndarray):
        """(values, parts u, truncation values, iterations, converged, gaps, starts, parts rest or None for
        F - u), one entry per t of ``ts``, each as ``ts`` = (t,) would give it.

        Below exponent 1, at p_0 = p_1 = 1 and on one step the t's go to ``corners``; else each t's truncation
        candidate is certified at a corner of the box by ``_Vertex.gap``, elsewhere by the Frank-Wolfe
        gap of ``point``, all t at once in batched products of one BLAS call per row; the t's left
        uncertified go on to ``polish``, whose Newton steps leave a corner along ``_Vertex.exit``.  The
        gap is the value less the best lower bound seen."""
        if min(self.ev0.p, self.ev1.p) < 1.0 or self.ev0.p == self.ev1.p == 1.0 or self.F.size == 1:
            return self.corners(ts)
        tl, hi = ts.tolist(), self.hi
        pick, trunc = self.truncations(ts)
        U, d = self.parts(pick), self.family[0][pick]
        e, gap = hi - d, np.zeros(ts.size)
        inner = d.any(axis=1) & e.any(axis=1)  # not a corner of the box
        if inner.any():
            grad = self.fused(np.array((d[inner], e[inner])))[1]
            g = grad[0] - ts[inner, None] * grad[1]
            fw = g[:, None] @ d[inner, :, None] - np.minimum(g, 0.0)[:, None] @ hi[:, None]
            gap[inner] = np.maximum(fw[:, 0, 0], 0.0)
        # min J lies above each lower bound
        value, lower, iters, starts = trunc.tolist(), (trunc - gap).tolist(), [0] * ts.size, [0] * ts.size
        for i, (t, at_corner) in enumerate(zip(tl, (~inner).tolist())):
            if at_corner:
                lower[i] = value[i] - self.vertex(d[i], e[i]).gap(t)
            if not value[i] - lower[i] <= _GAP_REL_TOL * value[i]:
                value[i], U[i], lower[i], iters[i], starts[i] = self.polish(t, d[i], e[i], value[i], U[i], lower[i])
        gap = [max(v - lo, 0.0) for v, lo in zip(value, lower)]
        return value, U, trunc.tolist(), iters, [g <= _GAP_REL_TOL * v for g, v in zip(gap, value)], gap, starts, None

    def corners(self, ts: np.ndarray):
        """``curve`` at the corners d_k in {0, hi_k} of the box: all of them up to ``_CORNER_STEPS`` steps,
        else a descent from each t's truncation candidate (a head corner), a corner's n flips in one batch,
        each corner's J from ``_SpaceOnGrid.norms`` as the truncation family's.  Exact, gap 0, if all were
        tabled at p_0, p_1 <= 1 (J concave), at p_0 = p_1 = 1 (J separable) or on one step (y = Bd one column:
        J linear at any exponents); else gap +inf, as for mixed exponents.  Ties go to the truncation candidate."""
        hi, n, tabled = self.hi, self.F.size, self.F.size <= _CORNER_STEPS

        def J(D, t):
            return self.ev0.norms(D) + t * self.ev1.norms(hi - D)

        pick, trunc = self.truncations(ts)
        D, value, iters = self.family[0][pick], trunc.copy(), [0] * ts.size
        if tabled:
            corners = (np.arange(2**n)[:, None] >> np.arange(n) & 1) * hi
            values = J(corners, ts[:, None])
            best = values.argmin(axis=1)
            lower = values[np.arange(ts.size), best] < trunc
            D[lower], value[lower] = corners[best[lower]], values[lower, best[lower]]
        for i in range(0 if tabled else ts.size):
            while True:  # to the best flip while it lowers J
                flips = np.where(np.eye(n, dtype=bool), hi - D[i], D[i])
                flipped = J(flips, ts[i])
                if not flipped.min() < value[i]:
                    break
                D[i], value[i], iters[i] = flips[flipped.argmin()], flipped.min(), iters[i] + 1
        linear = self.ev0.p == self.ev1.p == 1.0 or n == 1
        gap = 0.0 if (max(self.ev0.p, self.ev1.p) <= 1.0 and tabled) or linear else math.inf
        # both parts from the differences, whose runs of equal values stay exact: p < 1 magnifies a rounding jump
        U, REST = self.to_u(D), self.to_u(hi - D)
        return value.tolist(), U, trunc.tolist(), iters, [gap == 0.0] * ts.size, [gap] * ts.size, [0] * ts.size, REST


def k_curve(f: StepFunction, space0: LorentzSpace, space1: LorentzSpace, ts: Sequence[float]) -> list[OracleResult]:
    """The monotone oracle's K(f, t) for each t of ``ts``, one result per t in their order, its parts checked
    to sum to f*.

    The cells (see ``k_oracle``), both spaces, the truncation family's norms
    and the corners of the box are built once.  Every t's truncation candidate
    comes from one array and is certified with the others
    (``_GridProblem.curve``); only the t's left uncertified run Newton.  No
    row of that work depends on the other t's, so each result is bit for bit
    ``k_oracle``'s at its t, whatever the order of ``ts`` (unsorted, or with
    a value repeated).
    """
    ts = np.array([float(t) for t in ts])
    if not all(t > 0.0 and math.isfinite(t) for t in ts.tolist()):
        raise ValueError("K-parameter t must be positive and finite")
    fstar = rearrange(f)
    if fstar.is_zero:
        g0 = Grid.log(0.1, 10.0, 2)
        zero = np.broadcast_to(0.0, len(g0))  # read-only, as every result's parts are
        return [OracleResult(0.0, zero, zero, "optimizer", 0.0, True, 0, g0, 0.0, 0) for _ in ts]
    problem = _GridProblem(fstar.breakpoints, fstar.values, space0, space1)
    value, U, trunc, iters, conv, gap, starts, REST = problem.curve(ts)
    rows = zip(*_checked_parts(problem.F, problem.grid, U, REST), value, trunc, conv, iters, gap, starts)
    return [OracleResult(v, u, rest, "optimizer" if v < tv else "truncation", tv, c, it, problem.grid, gp, st)
            for u, rest, v, tv, c, it, gp, st in rows]


# relative rounding slack of the K-curve laws; the values' own rounding is a few ulps
_CURVE_REL_TOL = 1e-12


def curve_violations(ts: Sequence[float], results: Sequence[OracleResult]) -> np.ndarray:
    """Which points of one grid's K-curve break its laws beyond their gaps.

    The grid K(t), a minimum of N0 + t N1 over one candidate set, is
    non-decreasing and concave, and K(t)/t non-increasing (Bergh-Lofstrom,
    Lemma 3.1.1).  Each result brackets it in [value - gap, value]; sorted by
    t, pairs and triples are tested at the bracket ends that favour the laws,
    so a point is marked only when no values within the gaps obey them.  One
    flag per result, in the order of ``ts``.
    """
    order = sorted(range(len(ts)), key=lambda i: ts[i])  # stable, as the sort of equal t must be
    t = [float(ts[i]) for i in order]
    hi = [results[i].value for i in order]
    lo = [results[i].value - results[i].gap for i in order]
    slack, bad = 1.0 + _CURVE_REL_TOL, [False] * len(t)
    for k in range(len(t) - 1):
        # neighbours: K(t) non-decreasing and K(t)/t non-increasing
        if lo[k] > hi[k + 1] * slack or lo[k + 1] / t[k + 1] > hi[k] / t[k] * slack:
            bad[k] = bad[k + 1] = True
    for k in range(len(t) - 2):
        # triples: the middle value at or above the chord of the outer ones (an infinite gap gives nan)
        weight = (t[k + 1] - t[k]) / (t[k + 2] - t[k]) if t[k + 2] > t[k] else math.nan
        if hi[k + 1] * slack < lo[k] + (lo[k + 2] - lo[k]) * weight:
            bad[k] = bad[k + 1] = bad[k + 2] = True
    flags = np.empty(len(t), dtype=bool)
    flags[order] = bad
    return flags


def k_oracle(q: KQuery) -> OracleResult:
    """K-functional value over monotone step decompositions, with its gap: ``k_curve``'s routine at one t.

    f* is split monotonically on its own steps, in the box 0 <= d_i <= f*_i - f*_{i+1} of differences.  A
    truncation candidate with a gap of at most ``_GAP_REL_TOL`` of its value stands; else projected Newton
    (``_GridProblem.newton``) runs from it, then from the centre, while uncertified, stepping off a
    corner u = 0 or f* with dual norm above 1 along the dual's maximizer.  Ties go to the truncation
    candidate.  Below exponent 1, at p_0 = p_1 = 1 and on one step the best corner of the box is taken
    (``_GridProblem.corners``).
    """
    return k_curve(q.f, q.space0, q.space1, (q.t,))[0]


@dataclass(frozen=True)
class SCoupleOracleResult:
    """The s-couple K-value of the monotone oracle (``direct``), of its parts mapped by the oscillation
    transform (``transformed``, see ``k_curve_s_couple``) and their ratio, the s-lambda identity on them."""

    direct: OracleResult
    transformed: OracleResult
    ratio: float


def k_curve_s_couple(f: StepFunction, space0: LorentzSpace, space1: LorentzSpace,
                     ts: Sequence[float]) -> list[SCoupleOracleResult]:
    """K-functional of an s-flavor couple at each t of ``ts``: solved once, and mapped by the transform.

    ``direct`` is the monotone K-curve of f* under the s-norms.  T is linear on non-increasing step
    functions, maps the monotone splits of f* onto those of Tf* and has ||g||_{S(w)} = ||Tg||_{Lambda(w~)}:
    one problem.  So ``transformed`` solves nothing: T of the direct parts (``stepfn._osc_rows``), checked to
    sum to Tf*, under the reciprocal lambda couple, with the direct gap, convergence and truncation value.
    """
    if space0.flavor != "s" or space1.flavor != "s":
        raise ValueError("both spaces of the couple must be s-flavor")
    fstar = rearrange(f)
    direct = k_curve(fstar, space0, space1, ts)
    if fstar.is_zero or not direct:
        return [SCoupleOracleResult(d, d, 1.0) for d in direct]
    x, grid = fstar.breakpoints, Grid(1.0 / fstar.breakpoints[::-1])
    mapped = _osc_rows(x, np.array([(d.u, d.rest) for d in direct]))
    parts = _checked_parts(_osc_rows(x, fstar.values), grid, mapped[:, 0], mapped[:, 1])
    norms = []  # each row's norm by its own product, as in ``_forward_rows``: no value depends on the other t's
    for s, P in zip((space0, space1), parts):
        cells, p = cell_moments("lambda", s.p, reciprocal_weight(s.w, s.p), grid.points), float(s.p)
        if cells is None:
            raise InvalidWeightError("a weight moment diverges on this grid; lambda-norms are infinite")
        norms.append([pw ** (1.0 / p) for pw in (P[:, None] ** p @ cells[2])[:, 0].tolist()])
    results = []
    for d, u, rest, n0, n1, t in zip(direct, *parts, *norms, ts):
        tr = OracleResult(n0 + float(t) * n1, u, rest, d.provenance, d.truncation_value, d.converged, 0, grid,
                          d.gap, 0)
        ratio = d.value / tr.value if tr.value > 0.0 else (1.0 if d.value == 0.0 else math.inf)
        results.append(SCoupleOracleResult(d, tr, ratio))
    return results


def k_oracle_s_couple(q: KQuery) -> SCoupleOracleResult:
    """K-functional of an s-flavor couple, solved and mapped by the transform: ``k_curve_s_couple`` at one t."""
    return k_curve_s_couple(q.f, q.space0, q.space1, (q.t,))[0]


# ---------------------------------------------------------------------------
# constructive near-optimal decomposition for the s-couple


@dataclass(frozen=True)
class NearOptimalSDecomposition:
    decomposition: Decomposition
    objective: float
    initial: Decomposition
    transform_parts: Decomposition


def near_optimal_s_decomposition(f: StepFunction, t: float, cfg: CoupleConfig) -> NearOptimalSDecomposition:
    """Constructive s-couple decomposition via the transform side.

    From the best truncation split f* = f_0 + f_1, the transform of f* is
    majorized by (2/s) f_0**(1/s) + (T f_1)(s/2); the decomposition lemma
    splits it below these, and the parts mapped back (exactly, on step
    functions) decompose f* with an objective above the oracle value.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("K-parameter t must be positive and finite")
    fstar = rearrange(f)
    space0 = LorentzSpace("s", cfg.p0, cfg.w0)
    space1 = LorentzSpace("s", cfg.p1, cfg.w1)
    if fstar.is_zero:
        zero = Decomposition(StepFunction.zero(), StepFunction.zero(), "decomposition-lemma")
        return NearOptimalSDecomposition(zero, 0.0, zero, zero)
    problem = _GridProblem(fstar.breakpoints, fstar.values, space0, space1)
    g, F = problem.grid.points, problem.F
    u = problem.parts(problem.truncations(np.array([t]))[0])[0]
    f0_init = StepFunction(g, u)
    f1_init = StepFunction(g, np.minimum.accumulate(np.maximum(F - u, 0.0)))
    initial = Decomposition(f0_init, f1_init, "truncation")

    tstep = osc_transform(fstar).as_step()
    mass0 = f0_init.total_integral

    h_step = dilate(osc_transform(f1_init).as_step(), 0.5)
    pts = np.concatenate((tstep.breakpoints, h_step.breakpoints, 1.0 / f0_init.breakpoints))
    start, end = (float(pts.min()), float(pts.max())) if pts.size else (0.1, 1.0)
    grid_t = Grid(np.union1d(pts, Grid.log(start / 10.0, end, 128).points))

    # G(s) = 2 integral_0^{1/s} f0 majorizes T f0 and is non-increasing, so the
    # ceiling projection onto the grid takes the left-endpoint value per cell.
    gv = []
    prev = 0.0
    for x in grid_t.points.tolist():
        gv.append(2.0 * mass0 if prev == 0.0 else 2.0 * f0_init.prefix_integral(1.0 / prev))
        prev = x
    g_step = StepFunction(grid_t.points, gv)
    parts = decomposition_lemma(tstep, g_step, h_step)
    back0 = osc_transform(parts.f0).as_step()
    back1 = osc_transform(parts.f1).as_step()
    dec = Decomposition(back0, back1, "decomposition-lemma")
    dec.validate_sum(fstar)
    objective = norm(space0, back0) + t * norm(space1, back1)
    return NearOptimalSDecomposition(dec, objective, initial, parts)
