"""K-functionals of weighted couples: explicit formulas, oracles, decompositions.

The K-functional of f at parameter t > 0 for a couple (X_0, X_1) is the
infimum of ||f_0||_{X_0} + t ||f_1||_{X_1} over decompositions f = f_0 + f_1.
This module provides:

* ``k_explicit_general`` — the head/tail formula for lambda-flavor couples,
  (integral_0^t (f*)^{p_0} w_0)^{1/p_0} + sigma(t) (integral_t^inf
  (f*)^{p_1} w_1)^{1/p_1}, sigma the ratio of fundamental functions;
* ``k_explicit_s`` — the analogue for s-flavor couples, with f** - f* in both
  integrals, the tail-fundamental ratio theta as parameter and the verdicts
  of ``s_couple_hypotheses``; ``corollary_1`` is w_0 = 1, w_1 = s^{-alpha};
* ``truncation_decomposition`` and ``decomposition_lemma`` — cut f* at a
  point; split non-increasing f <= g + h by the right running supremum of
  (f - g)^+;
* ``k_curve`` and its one-t case ``k_oracle`` — a brute-force minimizer over
  monotone step decompositions of f* for a sweep of parameters (the cells,
  spaces and truncation family built once), with an unconstrained mode and
  an exhaustive lattice mode; ``curve_violations`` checks a sweep against
  the concavity of K(t) and the monotonicity of K(t)/t, within the gaps;
* ``k_curve_s_couple`` and ``k_oracle_s_couple`` — the s-couple K-functional
  directly and through the oscillation transform on the reciprocal
  lambda-couple (different cells and weights: agreement is evidence);
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
``_CoupleObjective.point`` the certificate, a Frank-Wolfe gap or, at a
vanishing part, the level-function dual over the cone of non-increasing
functions (at the corners u = 0 and f* a closed form in t, ``_Vertex``).  A
sweep picks every t's truncation candidate from one array and certifies them
together (``_GridProblem.curve``); an uncertified one is followed by projected
Newton from the centre, then from the best point (off a corner along the dual's
maximizer).  At p <= 1, J is concave in d (reverse Minkowski), at p_0 = p_1 = 1
and on one step linear, so ``_GridProblem.corners`` takes the best corner of the
box, d_k in {0, hi_k}.  Unconstrained mode searches on ``oracle_grid``: it sorts
its rows into the norms' cell kernel (``norms.cell_sums``, on moments from
``norms.cell_moments``) and runs L-BFGS-B.  scipy stays a dependency for its
``minimize`` and the remainder quadratures of ``weights``.
An uncertified value is flagged unconverged, never silently accepted.
A result holds its parts as arrays on its cells, checked to sum to f* at every
cell; the parts as step functions are built only when read.
"""

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, get_args

import numpy as np

from .grids import Grid
from .norms import LorentzSpace, _powered, cell_moments, cell_sums, norm
from .stepfn import StepFunction, _require_nonincreasing, dilate, osc_transform, rearrange
from .weights import (ConditionVerdict, CoupleConfig, InvalidWeightError, PowerLaw, PowerWeight, check_cond1,
                      check_cond3, check_rbp, fundamental_ratio, reciprocal_weight, tail_diverges_at_zero,
                      tail_fundamental, tail_fundamental_ratio)

__all__ = [
    "Decomposition", "KQuery", "ExplicitKValue", "OracleResult", "SCoupleOracleResult", "NearOptimalSDecomposition",
    "k_explicit_general", "k_explicit_s", "s_couple_hypotheses", "corollary_couple", "corollary_1",
    "truncation_decomposition", "decomposition_lemma", "oracle_grid", "k_curve", "k_curve_s_couple",
    "curve_violations", "k_oracle", "k_oracle_exhaustive", "k_oracle_s_couple", "near_optimal_s_decomposition",
]

Provenance = Literal["truncation", "decomposition-lemma", "optimizer", "manual"]

_SUM_REL_TOL = 1e-9
_PAD_DECADES = 1.0  # the oracle grid's padding beyond the support, each side


@dataclass(frozen=True)
class Decomposition:
    """A split f = f0 + f1 with a record of how it was produced."""

    f0: StepFunction
    f1: StepFunction
    provenance: Provenance = "manual"

    def __post_init__(self) -> None:
        if self.provenance not in get_args(Provenance):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def validate_sum(self, f: StepFunction, rel_tol: float = _SUM_REL_TOL) -> None:
        """Check f0 + f1 = f on the merged grid (relative tolerance for rounding).

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
        bad = np.flatnonzero(np.abs(got - want) > rel_tol * scale)
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


def _shift_tail(fstar: StepFunction, t: float) -> StepFunction:
    """Rearrangement of f* restricted to (t, inf): the tail slid to the origin."""
    tail = fstar.breakpoints > t
    return StepFunction(fstar.breakpoints[tail] - t, fstar.values[tail])


def k_explicit_general(fstar: StepFunction, t: float, cfg: CoupleConfig,
                       form: Literal["integral", "norm"] = "integral") -> ExplicitKValue:
    """Head/tail explicit value for a lambda-flavor couple at split point t.

    The "integral" form takes the tail as integral_t^inf (f*)^{p_1} w_1, the
    "norm" form rearranges it to the origin first (equal up to constants when
    the second fundamental function doubles).  The matched parameter sigma(t)
    comes along; an infinite second fundamental function gives sigma = 0 and a flag.
    A vanishing tail adds 0, even where sigma(t) is infinite.
    """
    _require_nonincreasing(fstar, "the explicit K-formula")
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("split point t must be positive and finite")
    flags: list[str] = []
    left = _powered("lambda", fstar, cfg.p0, cfg.w0, 0.0, t) ** (1.0 / cfg.p0)
    if math.isinf(left):
        flags.append("divergent-head")
    try:
        sigma_t = fundamental_ratio(cfg)(t)
    except InvalidWeightError:
        sigma_t = 0.0
        flags.append("sigma-degenerate")
    if form == "integral":
        tail_pow = _powered("lambda", fstar, cfg.p1, cfg.w1, t, math.inf)
    elif form == "norm":
        tail_pow = _powered("lambda", _shift_tail(fstar, t), cfg.p1, cfg.w1, 0.0, math.inf)
    else:
        raise ValueError("form must be 'integral' or 'norm'")
    tail_root = tail_pow ** (1.0 / cfg.p1)
    if math.isinf(tail_root):
        flags.append("divergent-tail")
    right = 0.0 if sigma_t == 0.0 or tail_root == 0.0 else sigma_t * tail_root
    return ExplicitKValue(left + right, sigma_t, left, right, tail_root, tuple(flags))


def _auto_eps(cfg: CoupleConfig) -> float:
    """A concrete eps for the quasi-monotone hypothesis: midpoint of the
    admissible range when the couple is a pure power couple, 0.5 otherwise."""
    try:
        theta = tail_fundamental_ratio(cfg)
        psi0 = tail_fundamental(cfg.w0, cfg.p0)
    except InvalidWeightError:
        return 0.5
    if isinstance(theta, PowerLaw) and isinstance(psi0, PowerLaw) and psi0.exponent < 0.0:
        if theta.exponent > 0.0:
            return theta.exponent / (-2.0 * psi0.exponent)
    return 0.5


def s_couple_hypotheses(cfg: CoupleConfig, eps: float | Literal["auto"] = "auto") -> dict[str, ConditionVerdict]:
    """The verdicts of the hypotheses under which ``k_explicit_s`` holds, by name: tail
    doubling, reverse balance of w_0, the quasi-monotone ratio at ``eps`` and the tail
    blow-up at zero of each weight.  They depend on the couple alone."""
    eps_val = _auto_eps(cfg) if eps == "auto" else float(eps)
    return {
        "tail-doubling": check_cond1(cfg),
        "reverse-balance-w0": check_rbp(cfg.w0, cfg.p0),
        "ratio-quasi-monotone": check_cond3(cfg, eps_val),
        "tail-blowup-at-zero-0": tail_diverges_at_zero(cfg.w0, cfg.p0),
        "tail-blowup-at-zero-1": tail_diverges_at_zero(cfg.w1, cfg.p1),
    }


def k_explicit_s(f: StepFunction, t: float, cfg: CoupleConfig, eps: float | Literal["auto"] = "auto",
                 check_hypotheses: bool = True) -> ExplicitKValue:
    """Explicit head/tail value for an s-flavor couple at split point t.

    value = (integral_0^t (f**-f*)^{p_0} w_0)^{1/p_0} + theta(t) (integral_t^inf
    (f**-f*)^{p_1} w_1)^{1/p_1}, theta the ratio of tail fundamentals; the verdicts of
    ``s_couple_hypotheses`` are attached, and a violation is flagged, never assumed away.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("split point t must be positive and finite")
    fstar = rearrange(f)
    theta_t = tail_fundamental_ratio(cfg)(t)
    left = _powered("s", fstar, cfg.p0, cfg.w0, 0.0, t) ** (1.0 / cfg.p0)
    tail_root = _powered("s", fstar, cfg.p1, cfg.w1, t, math.inf) ** (1.0 / cfg.p1)
    flags = [name for name, val in (("divergent-head", left), ("divergent-tail", tail_root)) if math.isinf(val)]
    hypotheses = s_couple_hypotheses(cfg, eps) if check_hypotheses else None
    flags += [f"hypothesis-violated:{name}" for name, verdict in (hypotheses or {}).items() if not verdict.holds]
    value = left + (0.0 if tail_root == 0.0 else theta_t * tail_root)
    return ExplicitKValue(value, theta_t, left, theta_t * tail_root if tail_root else 0.0, tail_root, tuple(flags), hypotheses)


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


def _pow_slope(x, p: float):
    """x^(p-1) for x >= 0, with its right limit at x = 0: 1 when p = 1, 0 when p > 1."""
    if p < 1.0:  # the limit is infinite; 0 keeps a finite subgradient
        return np.where(x > 0.0, x, 1.0) ** (p - 1.0) * (x > 0.0)
    return x ** (p - 1.0)


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """sum_{j > i} x_j for each i."""
    return np.concatenate((x[::-1].cumsum()[::-1][1:], [0.0]))


class _SpaceOnGrid:
    """Norms of step functions with fixed cells (g_{i-1}, g_i], g_0 = 0, and variable values.

    Lambda or s; lengths, left edges, moments and tail from ``norms.cell_moments``.
    A monotone candidate u = Ld is evaluated in its differences d from y = Bd
    (``norms``, ``forward``).  Unconstrained rows are sorted and go through
    ``norms.cell_sums``, their sorted cells' moments from one ``cell_moments`` call.
    """

    def __init__(self, space: LorentzSpace, g: np.ndarray):
        if not math.isfinite(space.p):
            raise ValueError("the oracle supports finite exponents only")
        if space.flavor == "gamma":
            raise InvalidWeightError("the oracle takes lambda- and s-flavor spaces, not gamma")
        self.flavor, self.p, self.w = space.flavor, float(space.p), space.w
        cells = cell_moments(self.flavor, self.p, space.w, g)
        if cells is None:
            raise InvalidWeightError(f"a weight moment diverges on this grid; {self.flavor}-norms are infinite")
        self.lengths, left, moments, tail = cells
        # N(Ld)^p = sum_i omega_i y_i^p with y = B d, B = 1 on and above the diagonal (lambda) or
        # x_k below it, a last row all x (s); ``cone_dual``'s scale x of the differences, and its
        # weights X, read backwards for s
        m = g.size
        if self.flavor == "lambda":
            self.B, self.omega = 1.0 - np.tri(m, m, -1), moments
            self.x, self.X, self.order = np.ones(m), moments.cumsum(), slice(None)
        else:
            self.x = left + self.lengths
            self.B, self.omega = np.tri(m + 1, m, -1) * self.x, np.append(moments, tail)
            self.X, self.order = self.omega[:0:-1].cumsum(), slice(None, None, -1)

    def norm_pow(self, U: np.ndarray):
        """(p-th powers of the norms of the rows of U, in any order, and what ``grad`` reuses): each
        row sorted into non-increasing order (a 1-d U is one row), its sorted cells' moments taken again."""
        order = np.argsort(-U, axis=-1, kind="stable")
        cells = cell_moments(self.flavor, self.p, self.w, np.cumsum(self.lengths[order], axis=-1))
        V = np.take_along_axis(U, order, axis=-1)
        powered, C, M = cell_sums(self.flavor, self.p, V, *cells)
        return powered, (V, C, M, order, *cells)

    def grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """(norm, gradient) of one unconstrained candidate, from one forward pass.

        Derivatives at zero values are right ones (at p = 1 the linear
        coefficient, at p > 1 0 at u = 0), taken through the sort order,
        locally constant.
        """
        p = self.p
        npow, (v, C, M, order, lengths, left, moments, tail) = self.norm_pow(u)
        n = float(npow) ** (1.0 / p)
        if n == 0.0 and p != 1.0:
            return 0.0, np.zeros_like(u)
        if self.flavor == "lambda":
            gs = n ** (1.0 - p) * _pow_slope(v, p) * moments
        else:
            Cp = _pow_slope(C, p) * moments
            grad_pow = p * (lengths * (_suffix_sums(Cp) + _pow_slope(M, p) * tail) - Cp * left)
            gs = (1.0 / p) * n ** (1.0 - p) * grad_pow
        grad = np.empty_like(u)
        grad[order] = gs
        return n, grad

    def norms(self, D: np.ndarray) -> np.ndarray:
        """N(Ld) at each row d of D, from y = Bd: a sum of non-negative terms, so a vanishing y is exactly 0."""
        return (((D @ self.B.T) ** self.p) @ self.omega) ** (1.0 / self.p)

    def forward(self, x: np.ndarray, hess: bool = False) -> tuple[float, np.ndarray, np.ndarray | None]:
        """(N(Lx), its gradient in the differences x, and with ``hess`` its Hessian), by ``_forward_rows``."""
        n, grad, H = _forward_rows(self.B[None], self.omega[None], (self.p,), x[None], hess)
        return n[0], grad[0], (H[0] if hess else None)

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
    n, scale, curv, coef, kinked = [], [], [], [], False
    for p, row in zip(ps, powered.reshape(len(ps), -1).tolist()):
        for pw in row:
            smooth = pw != 0.0 and p != 1.0
            kinked = kinked or not smooth
            n.append(pw ** (1.0 / p) if smooth else pw)
            scale.append(n[-1] ** (1.0 - p) if smooth else 1.0)
            curv.append(n[-1] ** (2.0 - p) if smooth else 0.0)
            coef.append((p - 1.0) / n[-1] if smooth else 0.0)
    shape = powered.shape + (1,)
    grad = ((np.array(scale).reshape(shape) * wy)[..., None, :] @ B)[..., 0, :]
    if not hess:
        return n, grad, None
    diag = np.divide(wy, y, out=np.zeros(y.shape), where=y > 0.0)
    diag *= np.array(curv).reshape(shape)
    H = (B.swapaxes(-1, -2) * diag[..., None, :]) @ B
    H -= grad[..., :, None] * grad[..., None, :]
    coef = np.array(coef).reshape(shape)
    H *= coef[..., None]
    if kinked:
        H[coef[..., 0] == 0.0] = 0.0
    return n, grad, H


class _Vertex:
    """The corner u = 0 (``low``: d = 0) or u = f* (d = hi) of one curve's box.

    One part vanishes, so with wv, wl the factors (1 or t) of the vanishing
    and the live part, J = wl N_live(F), g = +-(wv a - wl G) (a the vanishing
    gradient at 0, 0 when p > 1; G the live one at F), FW = (wl G - wv a)^+ .
    hi, and at p > 1 the cone dual is D = wl D_1 / wv, the gap min(FW, (D -
    1)^+ J).  If D > 1, J falls along the maximizer ``exit``, ``newton``'s step.
    """

    def __init__(self, obj: "_CoupleObjective", low: bool):
        hi, v = obj.hi, 0 if low else 1  # v: the vanishing space
        self.low, self.hi, self.vanishing = low, hi, (obj.ev0, obj.ev1)[v]
        n, grad, _ = obj.fused(np.outer((not low, low), hi))  # d, e = (0, hi) or (hi, 0)
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


class _CoupleObjective:
    """J(u) = ||u||_0 + t ||F - u||_1 on the grid.

    Monotone candidates are u = Ld, d in the box 0 <= d <= hi_k = F_k -
    F_{k+1}; ``point`` takes them in d at p >= 1, with ``vertices``, the
    corners, built on first use and shared by ``at``.  Unconstrained candidates,
    rows of values, take the sorted cell kernel (``norms_batch``, ``value_grad``).
    """

    def __init__(self, ev0: _SpaceOnGrid, ev1: _SpaceOnGrid, F: np.ndarray, t: float):
        self.ev0, self.ev1, self.F, self.t = ev0, ev1, F, t
        self.hi = F - np.append(F[1:], 0.0)
        self.hh = np.outer(self.hi, self.hi)  # Newton's scaling z = d / hi
        self.sign = np.array([[1.0], [-1.0]])  # a step in d moves e back
        self.vertices: list[_Vertex | None] = [None, None]
        # both spaces stacked for ``fused``, the shorter B padded by zero rows of weight 0
        rows = max(ev0.omega.size, ev1.omega.size)
        self.B, self.omega = np.zeros((2, rows, F.size)), np.zeros((2, rows))
        for k, ev in enumerate((ev0, ev1)):
            self.B[k, : ev.omega.size], self.omega[k, : ev.omega.size] = ev.B, ev.omega
        self.ps = (ev0.p, ev1.p)

    def at(self, t: float) -> "_CoupleObjective":
        """This objective at parameter t, its arrays and corners shared."""
        other = copy.copy(self)
        other.t = t
        return other

    def fused(self, X: np.ndarray, hess: bool = False):
        """``_forward_rows`` of N0 at X[0] and N1 at X[1], differences d and e or stacks of them."""
        B, omega = (self.B, self.omega) if X.ndim == 2 else (self.B[:, None], self.omega[:, None])
        return _forward_rows(B, omega, self.ps, X, hess)

    def norms_batch(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """N0 and N1(F - U) of the unconstrained rows of U, which do not depend on t."""
        rest = np.maximum(self.F - U, 0.0)
        return self.ev0.norm_pow(U)[0] ** (1.0 / self.ev0.p), self.ev1.norm_pow(rest)[0] ** (1.0 / self.ev1.p)

    def value_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """J and its gradient at the unconstrained candidate u."""
        n0, g0 = self.ev0.grad(u)
        n1, g1 = self.ev1.grad(np.maximum(self.F - u, 0.0))
        return n0 + self.t * n1, g0 - self.t * g1

    def to_u(self, d: np.ndarray) -> np.ndarray:
        """The candidate Ld of differences d, clipped to [0, F] against rounding; the upper
        corner is F exactly, which the sum of the differences can miss by rounding."""
        if np.array_equal(d, self.hi):
            return self.F
        # the array methods skip the Python-level wrappers of np.clip and np.cumsum
        return np.minimum(np.maximum(d[::-1].cumsum()[::-1], 0.0), self.F)

    def vertex(self, d: np.ndarray, e: np.ndarray) -> _Vertex | None:
        """The corner of the box at d, e = hi - d, if it is one."""
        low = not np.count_nonzero(d)
        if not low and np.count_nonzero(e):
            return None
        if self.vertices[1 - low] is None:
            self.vertices[1 - low] = _Vertex(self, low)
        return self.vertices[1 - low]

    def point(self, d: np.ndarray, hess: bool = False, e: np.ndarray | None = None
              ) -> tuple[float, np.ndarray, float, np.ndarray | None]:
        """(J, gradient in d, gap, Hessian with ``hess``) at d for p >= 1; ``e`` = hi - d, kept by
        the caller where hi - d would round away digits that a steep gradient needs.

        J is convex in d, so the Frank-Wolfe gap g.d - min_box g.x bounds J(d)
        - min J.  At u = 0 (p_0 > 1) N_0's subgradient vanishes, so J(d) >=
        J(0) + (1 - D) N_0(Ld), D the cone dual of -g (``_SpaceOnGrid.cone_dual``),
        and the gap is (D - 1)^+ J(0); u = f* mirrors it (``_Vertex.gap``).
        """
        hi, t = self.hi, self.t
        e = hi - d if e is None else e
        (n0, n1), grad, H = self.fused(np.array((d, e)), hess)
        val, g = n0 + t * n1, grad[0] - t * grad[1]
        vertex = self.vertex(d, e)
        gap = max(float(g @ d - np.minimum(g, 0.0) @ hi), 0.0) if vertex is None else vertex.gap(t)
        return val, g, gap, (H[0] + t * H[1] if hess else None)

    def newton(self, d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float, int]:
        """Projected Newton from d, e = hi - d: (d, e, J, gap, steps).

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
        val, g, gap, H = self.point(d, True, e)
        seen = [(val, gap)]  # J and the least gap so far, after each step
        for step in range(_NEWTON_STEPS):
            if gap <= _GAP_REL_TOL * val:
                return X[0], X[1], val, gap, step
            if step >= _STALL and val >= seen[-1 - _STALL][0] and seen[-1][1] > 0.5 * seen[-1 - _STALL][1]:
                break
            vertex = self.vertex(*X)
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
                d_t, e_t = trial = np.minimum(np.maximum(X + dz * hi * self.sign, 0.0), hi)  # d + move, e - move
                f_t, g_t, gap_t, H_t = self.point(d_t, True, e_t)
                if f_t <= val + _ARMIJO * (g @ (d_t - X[0])) or (f_t <= val * (1.0 + 4.0 * _EPS) and gap_t < gap):
                    break
                dz = 0.1 * dz
            else:
                break
            X, val, g, gap, H = trial, f_t, g_t, gap_t, H_t
            seen.append((val, min(gap, seen[-1][1])))
        else:
            step = _NEWTON_STEPS
        return X[0], X[1], val, gap, step

    def polish(self, d: np.ndarray, e: np.ndarray, best_f: float, best_u: np.ndarray, lower: float):
        """(value, u, lower bound, steps, runs) of ``newton`` from the centre, then from the best point,
        at first the candidate d, e = hi - d of value best_f, while value - lower > ``_GAP_REL_TOL`` value."""
        hi, best, iters, used = self.hi, (d, e), 0, 0
        for start in (True, False):
            if best_f - lower <= _GAP_REL_TOL * best_f:
                break
            d, e, f_d, gap_d, steps = self.newton(*((hi / 2.0, hi / 2.0) if start else best))
            used, iters, lower = used + 1, iters + steps, max(lower, f_d - gap_d)
            if f_d < best_f:
                best, best_u, best_f = (d, e), self.to_u(d), f_d
        return best_f, best_u, lower, iters, used


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

    ``u`` and ``rest``: read-only arrays of the parts' values on the cells
    ending at ``grid``, checked by ``_checked_parts`` to sum to f*;
    ``decomposition``, the parts as step functions, is built on first read.
    ``gap`` bounds ``value`` minus the monotone minimum (0 at an exact corner,
    +inf uncertified and in unconstrained mode); ``converged`` means ``gap <=
    _GAP_REL_TOL * value``, in unconstrained mode that no L-BFGS-B start was
    capped.  ``starts`` counts the Newton runs or L-BFGS-B starts (0 when the
    truncation candidate or a corner stands), ``iterations`` their steps (one
    off a corner counts as any other) or flips.
    """

    value: float
    u: np.ndarray = field(repr=False, compare=False)
    rest: np.ndarray = field(repr=False, compare=False)
    provenance: Provenance
    truncation_value: float
    converged: bool
    iterations: int
    monotone_only: bool
    grid: Grid
    gap: float
    starts: int

    @cached_property
    def decomposition(self) -> Decomposition:
        g = self.grid.points
        return Decomposition(StepFunction(g, self.u), StepFunction(g, self.rest), self.provenance)


def _checked_parts(problem: "_GridProblem", U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only views of the rows of U and of rest = F - U (its running minimum in monotone mode, which
    kills rounding wiggles), after checking at every cell that both are finite and non-negative and that
    |u + rest - F| <= ``_SUM_REL_TOL`` max(F, u + rest, 1) (a nan fails every comparison)."""
    F = problem.F
    rest = np.maximum(F - U, 0.0)
    if problem.monotone:
        rest = np.minimum.accumulate(rest, axis=-1)
    total = U + rest
    ok = (np.abs(total - F) <= _SUM_REL_TOL * np.maximum(np.maximum(F, total), 1.0)) & (total < math.inf)
    ok &= np.minimum(U, rest) >= 0.0
    if not ok.all():
        at = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValueError(f"decomposition does not sum to the target at t={float(problem.grid.points[at[-1]])!r}: "
                         f"{float(U[at])!r} + {float(rest[at])!r} vs {float(F[at[-1]])!r}")
    U, rest = U.view(), rest.view()
    U.flags.writeable = rest.flags.writeable = False
    return U, rest


def oracle_grid(fstar: StepFunction, m: int = 64) -> Grid:
    """Log-spaced grid over the support, one decade padding, breakpoints merged.

    The unconstrained oracle searches on it; the monotone one solves on
    the steps of f* alone, which it contains."""
    if fstar.is_zero:
        return Grid.log(0.1, 10.0, m)
    lo = fstar.first_breakpoint * 10.0 ** (-_PAD_DECADES)
    hi = fstar.support_end * 10.0 ** _PAD_DECADES
    if lo >= hi:
        lo = hi / 10.0 ** (2 * _PAD_DECADES)
    return Grid.log(lo, hi, m).union(fstar.breakpoints)


def _truncation_family(F: np.ndarray) -> np.ndarray:
    """Unconstrained candidates (F - level)^+ on head cells up to each cut, zero beyond.

    A level at or above F[k-1] zeroes the last head cell of cut k, which
    repeats cut k-1, so each cut k >= 1 takes only the levels below F[k-1].
    """
    m = F.size
    levels = np.unique(np.concatenate((F, [0.0])))
    rows = [np.zeros((1, m))]
    arange = np.arange(m)
    for k in range(1, m + 1):
        cs = levels[levels < F[k - 1]]
        rows.append(np.where(arange < k, np.maximum(F[None, :] - cs[:, None], 0.0), 0.0))
    return np.unique(np.concatenate(rows), axis=0)


# per L-BFGS-B start, which only unconstrained mode runs; at scipy's default ftol and gtol some
# K values stop ~1e-9 above the optimum
_LBFGSB_OPTIONS = {"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12}
# projected Newton: steps per run, tenfold cuts per step, the Armijo share, the active-set
# width and the steps without progress that end a run
_NEWTON_STEPS, _BACKTRACKS, _ARMIJO, _ACTIVE_EPS, _STALL = 50, 20, 1e-4, 1e-3, 8
# a candidate whose gap is at most this share of its value is returned as optimal
_GAP_REL_TOL = 1e-10
_CORNER_STEPS = 16  # the most steps whose 2^n corners ``_GridProblem.corners`` tables: 20-130 ms for 15 t
_EPS = float(np.finfo(float).eps)


class _GridProblem:
    """Everything of a K-query but its parameter, in one mode: f* sampled on the grid, both spaces on
    it, their objective (its corners included) and the truncation family with its norms N0 and N1 of
    the rest, built once; a sweep of t is one ``curve``, unconstrained mode a ``search`` per t."""

    def __init__(self, fstar: StepFunction, space0: LorentzSpace, space1: LorentzSpace, grid: Grid,
                 monotone: bool):
        self.grid, self.monotone = grid, monotone
        g = grid.points
        self.F = fstar.at(g)
        self.ev0, self.ev1 = _SpaceOnGrid(space0, g), _SpaceOnGrid(space1, g)
        self.objective = _CoupleObjective(self.ev0, self.ev1, self.F, math.nan)  # t set by ``at``

    @cached_property
    def family(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The truncation candidates and their norms (rows, N0, N1 of the rest).  In monotone mode the
        rows are the head corners, d = hi on the cells < k for k = 0..n (``parts``), their norms from
        y = Bd and y = B(hi - d); unconstrained, the values of ``_truncation_family``."""
        if not self.monotone:
            U = _truncation_family(self.F)
            return (U, *self.objective.norms_batch(U))
        hi = self.objective.hi
        D = np.tri(hi.size + 1, hi.size, -1) * hi
        return D, self.ev0.norms(D), self.ev1.norms(hi - D)

    def parts(self, heads: np.ndarray) -> np.ndarray:
        """The parts u = (F - F_k)^+ of the head corners k (F_n = 0), exact where Ld would round."""
        return np.maximum(self.F - np.append(self.F, 0.0)[heads, None], 0.0)

    def truncations(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each t's best truncation candidate, as a row of ``family``, and its value, from one
        (T x family) array n0 + t n1, row by row as a single t takes it."""
        _, n0, n1 = self.family
        tvals = n0 + ts[:, None] * n1
        pick = tvals.argmin(axis=1)
        return pick, tvals[np.arange(ts.size), pick]

    def curve(self, ts: np.ndarray):
        """(values, parts u, truncation values, iterations, converged, gaps, starts) in monotone mode,
        one entry per t of ``ts``, each as ``ts`` = (t,) would give it.

        Below exponent 1, at p_0 = p_1 = 1 and on one step the t's go to ``corners``; else each t's truncation
        candidate is certified at a corner of the box by ``_Vertex.gap``, elsewhere by the Frank-Wolfe
        gap of ``point``, all t at once in batched products of one BLAS call per row; the t's left
        uncertified go on to ``polish``, whose Newton steps leave a corner along ``_Vertex.exit``.  The
        gap is the value less the best lower bound seen."""
        if min(self.ev0.p, self.ev1.p) < 1.0 or self.ev0.p == self.ev1.p == 1.0 or self.F.size == 1:
            return self.corners(ts)
        obj, tl, hi = self.objective, ts.tolist(), self.objective.hi
        pick, trunc = self.truncations(ts)
        U, d = self.parts(pick), self.family[0][pick]
        e, gap = hi - d, np.zeros(ts.size)
        inner = d.any(axis=1) & e.any(axis=1)  # not a corner of the box
        if inner.any():
            grad = obj.fused(np.array((d[inner], e[inner])))[1]
            g = grad[0] - ts[inner, None] * grad[1]
            fw = g[:, None] @ d[inner, :, None] - np.minimum(g, 0.0)[:, None] @ hi[:, None]
            gap[inner] = np.maximum(fw[:, 0, 0], 0.0)
        # min J lies above each lower bound
        value, lower, iters, starts = trunc.tolist(), (trunc - gap).tolist(), [0] * ts.size, [0] * ts.size
        for i, (t, at_corner) in enumerate(zip(tl, (~inner).tolist())):
            if at_corner:
                lower[i] = value[i] - obj.vertex(d[i], e[i]).gap(t)
            if not value[i] - lower[i] <= _GAP_REL_TOL * value[i]:
                value[i], U[i], lower[i], iters[i], starts[i] = obj.at(t).polish(d[i], e[i], value[i], U[i], lower[i])
        gap = [max(v - lo, 0.0) for v, lo in zip(value, lower)]
        return value, U, trunc.tolist(), iters, [g <= _GAP_REL_TOL * v for g, v in zip(gap, value)], gap, starts

    def corners(self, ts: np.ndarray):
        """``curve`` at the corners d_k in {0, hi_k} of the box: all of them up to ``_CORNER_STEPS`` steps,
        else a descent from each t's truncation candidate (a head corner), a corner's n flips in one batch,
        each corner's J from ``_SpaceOnGrid.norms`` as the truncation family's.  Exact, gap 0, if all were
        tabled at p_0, p_1 <= 1 (J concave), at p_0 = p_1 = 1 (J separable) or on one step (y = Bd one column:
        J linear at any exponents); else gap +inf, as for mixed exponents.  Ties go to the truncation candidate."""
        hi, n, tabled = self.objective.hi, self.F.size, self.F.size <= _CORNER_STEPS

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
        U = np.array([self.objective.to_u(d) for d in D]).reshape(ts.size, n)
        return value.tolist(), U, trunc.tolist(), iters, [gap == 0.0] * ts.size, [gap] * ts.size, [0] * ts.size

    def search(self, t: float, seed: int = 0) -> tuple[float, np.ndarray, float, int, bool, float, int]:
        """(value, u, truncation value, iterations, converged, +inf, starts) at t by L-BFGS-B in unconstrained
        mode (not convex, no certificate): converged means that no start was capped."""
        from scipy.optimize import Bounds  # loaded with ``minimize``, on first use
        F, obj = self.F, self.objective.at(t)
        pick, trunc = self.truncations(np.array([t]))
        u_trunc, trunc_val = self.family[0][pick[0]], float(trunc[0])
        best_u, best_f, iters, used = u_trunc, trunc_val, 0, 0
        starts = (u_trunc, F, np.zeros_like(F), F / 2.0, np.random.default_rng(seed).uniform(size=F.size) * F)
        conv = True
        tried: list[np.ndarray] = []
        for x0 in starts:
            if any(np.array_equal(x0, y) for y in tried):
                continue  # L-BFGS-B would repeat that start's run
            tried.append(x0)
            res = minimize(obj.value_grad, x0, jac=True, method="L-BFGS-B",
                           bounds=Bounds(np.zeros_like(F), F), options=_LBFGSB_OPTIONS)
            used, iters = used + 1, iters + res.nit
            conv = conv and res.status != 1  # status 1: iteration or evaluation cap
            if res.fun < best_f:
                best_u, best_f = np.minimum(np.maximum(res.x, 0.0), F), float(res.fun)
        return best_f, best_u, trunc_val, iters, conv, math.inf, used


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call: loading it is most of the import time of lorentzk."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def _oracle_curve(f: StepFunction, space0: LorentzSpace, space1: LorentzSpace, ts: Sequence[float],
                  free_m: int | None = None, seed: int = 0) -> list[OracleResult]:
    """The monotone oracle's ``curve`` over ts on the steps of f*, and the unconstrained one's ``search``
    at each t too (on ``oracle_grid(f*, free_m)``) unless ``free_m`` is None: the better one's parts,
    checked to sum to F."""
    ts = np.array([float(t) for t in ts])
    if not all(t > 0.0 and math.isfinite(t) for t in ts.tolist()):
        raise ValueError("K-parameter t must be positive and finite")
    fstar = rearrange(f)
    if fstar.is_zero:
        g0 = Grid.log(0.1, 10.0, 2)
        zero = np.broadcast_to(0.0, len(g0))  # read-only, as every result's parts are
        return [OracleResult(0.0, zero, zero, "optimizer", 0.0, True, 0, free_m is None, g0, 0.0, 0) for _ in ts]
    # the monotone problem on the steps of the target: its parts can only jump where F does
    mono = _GridProblem(fstar, space0, space1, Grid(fstar.breakpoints), True)
    value, U, trunc, iters, conv, gap, starts = mono.curve(ts)
    if free_m is None:
        rows = zip(*_checked_parts(mono, U), value, trunc, conv, iters, gap, starts)
        return [OracleResult(v, u, rest, "optimizer" if v < tv else "truncation", tv, c, it, True, mono.grid, gp, st)
                for u, rest, v, tv, c, it, gp, st in rows]
    free = _GridProblem(fstar, space0, space1, oracle_grid(fstar, free_m), False)
    results = []
    for t, v, u, tv, it, st in zip(ts.tolist(), value, U, trunc, iters, starts):
        # the better search wins; the certificate covers the monotone problem only
        v2, u2, t2, it2, c2, _, st2 = free.search(t, seed)
        won, v, u, t_won = (free, v2, u2, t2) if v2 < v else (mono, v, u, tv)
        u, rest = _checked_parts(won, u)
        results.append(OracleResult(v, u, rest, "optimizer" if v < t_won else "truncation", min(tv, t2), c2,
                                    it + it2, False, won.grid, math.inf, st + st2))
    return results


def k_curve(f: StepFunction, space0: LorentzSpace, space1: LorentzSpace, ts: Sequence[float]) -> list[OracleResult]:
    """The monotone oracle's K(f, t) for each t of ``ts``, one result per t in their order.

    The cells (see ``k_oracle``), both spaces, the truncation family's norms
    and the corners of the box are built once.  Every t's truncation candidate
    comes from one array and is certified with the others
    (``_GridProblem.curve``); only the t's left uncertified run Newton.  No
    row of that work depends on the other t's, so each result is bit for bit
    ``k_oracle``'s at its t, whatever the order of ``ts`` (unsorted, or with
    a value repeated).
    """
    return _oracle_curve(f, space0, space1, ts)


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


def k_oracle(q: KQuery, m: int = 64, monotone_only: bool = True, seed: int = 0) -> OracleResult:
    """Brute-force K-functional value over step decompositions: ``k_curve``'s routine at one t.

    f* is split monotonically on its own steps, in the box 0 <= d_i <= f*_i -
    f*_{i+1} of differences, and in unconstrained mode also on the grid
    ``oracle_grid(f*, m)``, 0 <= u_i <= f*_i.  A truncation candidate with a
    gap of at most ``_GAP_REL_TOL`` of its value stands; else projected Newton
    (``_CoupleObjective.newton``) runs from the centre, then from the best
    point, while uncertified, stepping off a corner u = 0 or f* with dual norm
    above 1 along the dual's maximizer.  Ties go to the truncation candidate.
    Below exponent 1, at p_0 = p_1 = 1 and on one step the best corner of the
    box is taken (``_GridProblem.corners``).  In unconstrained mode (not
    convex) L-BFGS-B runs from the truncation candidate, both corners, the
    centre and a point drawn from ``seed``; the better wins.
    """
    return _oracle_curve(q.f, q.space0, q.space1, (q.t,), None if monotone_only else m, seed)[0]


def k_oracle_exhaustive(q: KQuery, grid: Grid, quantum: float, monotone_only: bool = True,
                        max_candidates: int = 4_000_000) -> float:
    """Ground-truth lattice search for tiny instances.

    Enumerates every candidate whose cell values are multiples of ``quantum``
    (the instance's values must be lattice-valued themselves).  Exact for
    p = 1 flavors, where the feasible polytope has lattice vertices and the
    objective is linear, so the continuous optimum lies on the lattice.
    """
    fstar = rearrange(q.f)
    g = grid.points
    if g.size > 6:
        raise ValueError("exhaustive mode is for instances with at most 6 cells")
    F = fstar.at(g)
    steps = np.rint(F / quantum).astype(int)
    if not np.allclose(steps * quantum, F, rtol=0.0, atol=1e-12):
        raise ValueError("instance values are not multiples of the quantum")
    if np.any(steps >= 16):
        raise ValueError("instance needs more than 16 lattice levels")
    evs = [_SpaceOnGrid(space, g) for space in (q.space0, q.space1)]
    cells = [cell_moments(ev.flavor, ev.p, ev.w, g) for ev in evs]

    def value(U):  # a monotone row by the norms' cell kernel on its values, not by the oracle's y = Bd
        n0, n1 = ((cell_sums(ev.flavor, ev.p, X, *c) if monotone_only else ev.norm_pow(X))[0] ** (1.0 / ev.p)
                  for ev, c, X in zip(evs, cells, (U, np.maximum(F - U, 0.0))))
        return n0 + q.t * n1

    # monotone candidates are the lattice points of the differences, summed from the right
    axes = [np.arange(k + 1) for k in (steps - np.append(steps[1:], 0) if monotone_only else steps)]
    if math.prod(a.size for a in axes) > max_candidates:
        raise ValueError("lattice too large for exhaustive mode")
    X = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1).astype(float) * quantum
    U = np.cumsum(X[:, ::-1], axis=1)[:, ::-1] if monotone_only else X
    return min(float(value(U[start : start + 200_000]).min()) for start in range(0, U.shape[0], 200_000))


@dataclass(frozen=True)
class SCoupleOracleResult:
    """The s-couple K-value by two independent routes."""

    direct: OracleResult
    transformed: OracleResult
    ratio: float


def k_curve_s_couple(f: StepFunction, space0: LorentzSpace, space1: LorentzSpace,
                     ts: Sequence[float]) -> list[SCoupleOracleResult]:
    """K-functional of an s-flavor couple at each t of ``ts``, directly and through the transform.

    Route one is the monotone K-curve of f* under the s-norms, route two the
    K-curve of the transform of f* under the reciprocal-weight lambda-couple;
    each solves on its own steps, so their ratio measures the equivalence alone.
    """
    if space0.flavor != "s" or space1.flavor != "s":
        raise ValueError("both spaces of the couple must be s-flavor")
    fstar = rearrange(f)
    direct = k_curve(fstar, space0, space1, ts)
    tstep = osc_transform(fstar).as_step()
    tilde0 = LorentzSpace("lambda", space0.p, reciprocal_weight(space0.w, space0.p))
    tilde1 = LorentzSpace("lambda", space1.p, reciprocal_weight(space1.w, space1.p))
    transformed = k_curve(tstep, tilde0, tilde1, ts)
    results = []
    for d, tr in zip(direct, transformed):
        a, b = d.value, tr.value
        ratio = a / b if b > 0.0 else (1.0 if a == 0.0 else math.inf)
        results.append(SCoupleOracleResult(d, tr, ratio))
    return results


def k_oracle_s_couple(q: KQuery) -> SCoupleOracleResult:
    """K-functional of an s-flavor couple, directly and through the transform: the one-t
    case of ``k_curve_s_couple``."""
    return k_curve_s_couple(q.f, q.space0, q.space1, (q.t,))[0]


# ---------------------------------------------------------------------------
# constructive near-optimal decomposition for the s-couple


@dataclass(frozen=True)
class NearOptimalSDecomposition:
    decomposition: Decomposition
    objective: float
    initial: Decomposition
    transform_parts: Decomposition


def near_optimal_s_decomposition(
    f: StepFunction, t: float, cfg: CoupleConfig, m: int = 64
) -> NearOptimalSDecomposition:
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
    problem = _GridProblem(fstar, space0, space1, Grid(fstar.breakpoints), monotone=True)
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
    grid_t = Grid(np.union1d(pts, Grid.log(start / 10.0, end, 2 * m).points))

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
