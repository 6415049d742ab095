"""K-functionals of weighted couples: explicit formulas, oracles, decompositions.

The K-functional of f at parameter t > 0 for a couple (X_0, X_1) is the
infimum of ||f_0||_{X_0} + t ||f_1||_{X_1} over decompositions f = f_0 + f_1.
This module provides:

* ``k_explicit_general`` — the head/tail formula for couples of lambda-flavor
  spaces: (integral_0^t (f*)^{p_0} w_0)^{1/p_0}
  + sigma(t) (integral_t^inf (f*)^{p_1} w_1)^{1/p_1}, sigma the ratio of
  fundamental functions (the matched K-parameter);
* ``k_explicit_s`` — the analogous formula for couples of s-flavor spaces
  with the oscillation f** - f* in both integrals and the tail-fundamental
  ratio theta as K-parameter, plus hypothesis verdicts (tail doubling,
  reverse balance, quasi-monotone ratio, tail blow-up at zero);
* ``corollary_1`` — the specialization w_0 = 1, w_1 = s^{-alpha};
* ``truncation_decomposition`` — cut f* at a point: the part above the level
  f*(t+) on (0, t] and the rest;
* ``decomposition_lemma`` — given non-increasing f <= g + h, split
  f = f_0 + f_1 with non-increasing f_0 <= g, f_1 <= h via the right
  running supremum of (f - g)^+;
* ``k_curve`` — a brute-force minimizer over monotone step decompositions
  of f*, for a sweep of parameters t: the cells, both spaces and the
  truncation family's norms are built once per sweep, and only the search
  runs per t; ``curve_violations`` checks the sweep against the concavity of
  K(t) and the monotonicity of K(t)/t, within the gaps;
* ``k_oracle`` — one query, the one-t case of ``k_curve``, with an
  unconstrained mode besides the monotone one (both parts non-increasing),
  an exhaustive lattice mode for tiny instances, and the two-parameter
  truncation family as first candidate and cross-check;
* ``k_curve_s_couple`` and its one-t case ``k_oracle_s_couple`` — the same
  K-functional computed twice: directly on the s-couple and through the
  oscillation transform on the reciprocal lambda-couple (different cells and
  weights, so agreement is evidence, not tautology);
* ``near_optimal_s_decomposition`` — the constructive decomposition obtained
  by majorizing the transform of f*, splitting with the decomposition lemma,
  and mapping back through the transform (exact on step functions).

Monotone decompositions are optimized on the steps of f* (of f* sampled on
the grid, when one is given): both parts of a monotone decomposition can
only jump where f* does, so the problem on those cells is the problem on
any finer grid, with at most one coordinate per step.  They are optimized
in successive-difference coordinates, where both chain constraints become a
coordinate box; the objective is convex there (p >= 1) and
``_CoupleObjective.gap`` certifies a candidate: a Frank-Wolfe gap, and at a
vanishing part the level-function dual norm over the cone of non-increasing
functions.  The best truncation candidate stands when certified; otherwise
scipy's L-BFGS-B runs from the centre of the box, projected Newton with the
exact Hessian polishes the best point, and, if that is still uncertified,
Newton runs from the centre.  The search draws nothing at random.  At
p_0 = p_1 = 1 the objective is affine and the slope-sign vertex is also
tried.  At p < 1 the objective is not convex and has no certificate, and
L-BFGS-B runs from the centre and both corners.  An uncertified monotone
value at p >= 1 is flagged unconverged, never silently accepted.  The
unconstrained search keeps the whole grid (``oracle_grid`` when none is
given).  The explicit formulas take their head and tail integrals from the
windowed cell sums of ``norms``.  The oracle runs lambda- and s-flavor
couples, the two the paper's K-functionals reduce to.  It takes the cell
lengths and weight moments once from ``norms.cell_moments``, the builder
the norms use (the sorted rows of unconstrained candidates from one
``Weight.moment`` call), and evaluates the candidates' norms, and their
gradients, with the same cell kernel, ``norms.cell_sums``.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np
from scipy.optimize import Bounds, minimize

from .grids import Grid
from .norms import LorentzSpace, _powered, cell_moments, cell_sums, norm
from .stepfn import (
    StepFunction,
    _require_nonincreasing,
    dilate,
    osc_transform,
    rearrange,
)
from .weights import (
    ConditionVerdict,
    CoupleConfig,
    InvalidWeightError,
    PowerLaw,
    PowerWeight,
    check_cond1,
    check_cond3,
    check_rbp,
    fundamental_ratio,
    reciprocal_weight,
    tail_diverges_at_zero,
    tail_fundamental,
    tail_fundamental_ratio,
)

__all__ = [
    "Decomposition",
    "KQuery",
    "ExplicitKValue",
    "OracleResult",
    "SCoupleOracleResult",
    "NearOptimalSDecomposition",
    "k_explicit_general",
    "k_explicit_s",
    "corollary_couple",
    "corollary_1",
    "truncation_decomposition",
    "decomposition_lemma",
    "oracle_grid",
    "k_curve",
    "k_curve_s_couple",
    "curve_violations",
    "k_oracle",
    "k_oracle_exhaustive",
    "k_oracle_s_couple",
    "near_optimal_s_decomposition",
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

        Probes cell midpoints rather than the breakpoints themselves: grids
        that went through a reciprocal round trip carry breakpoints shifted by
        one ulp, and sampling exactly at a shifted jump would compare values
        from opposite sides.  Sliver cells no wider than a few ulps are skipped
        for the same reason.
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
            raise ValueError(
                f"decomposition does not sum to the target at t={float(probes[i])!r}: "
                f"{float(got[i])!r} vs {float(want[i])!r}"
            )

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


def k_explicit_general(
    fstar: StepFunction,
    t: float,
    cfg: CoupleConfig,
    form: Literal["integral", "norm"] = "integral",
) -> ExplicitKValue:
    """Head/tail explicit value for a lambda-flavor couple at split point t.

    The "integral" form evaluates the tail as integral_t^inf (f*)^{p_1} w_1;
    the "norm" form rearranges the tail to the origin first (the two agree up
    to constants under doubling of the second fundamental function).  The
    matched K-parameter sigma(t) is returned alongside; a couple whose second
    fundamental function is infinite yields sigma = 0 with a flag.
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
    right = 0.0 if sigma_t == 0.0 else sigma_t * tail_root
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


def k_explicit_s(
    f: StepFunction,
    t: float,
    cfg: CoupleConfig,
    eps: float | Literal["auto"] = "auto",
    check_hypotheses: bool = True,
) -> ExplicitKValue:
    """Explicit head/tail value for an s-flavor couple at split point t.

    value = (integral_0^t (f**-f*)^{p_0} w_0)^{1/p_0}
            + theta(t) (integral_t^inf (f**-f*)^{p_1} w_1)^{1/p_1}

    with theta the ratio of tail fundamentals.  Hypothesis checkers run and
    their verdicts are attached; violations are flagged, never silently
    assumed.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("split point t must be positive and finite")
    fstar = rearrange(f)
    flags: list[str] = []
    theta_t = tail_fundamental_ratio(cfg)(t)
    left = _powered("s", fstar, cfg.p0, cfg.w0, 0.0, t) ** (1.0 / cfg.p0)
    tail_root = _powered("s", fstar, cfg.p1, cfg.w1, t, math.inf) ** (1.0 / cfg.p1)
    for name, val in (("divergent-head", left), ("divergent-tail", tail_root)):
        if math.isinf(val):
            flags.append(name)
    hypotheses: dict[str, ConditionVerdict] | None = None
    if check_hypotheses:
        eps_val = _auto_eps(cfg) if eps == "auto" else float(eps)
        hypotheses = {
            "tail-doubling": check_cond1(cfg),
            "reverse-balance-w0": check_rbp(cfg.w0, cfg.p0),
            "ratio-quasi-monotone": check_cond3(cfg, eps_val),
            "tail-blowup-at-zero-0": tail_diverges_at_zero(cfg.w0, cfg.p0),
            "tail-blowup-at-zero-1": tail_diverges_at_zero(cfg.w1, cfg.p1),
        }
        for name, verdict in hypotheses.items():
            if not verdict.holds:
                flags.append(f"hypothesis-violated:{name}")
    value = left + (0.0 if tail_root == 0.0 else theta_t * tail_root)
    return ExplicitKValue(value, theta_t, left, theta_t * tail_root if tail_root else 0.0, tail_root, tuple(flags), hypotheses)


def corollary_couple(p: float, alpha: float) -> CoupleConfig:
    """The couple (flat weight, power tail weight s^{-alpha}) at exponent p."""
    if not (1.0 < p < math.inf):
        raise ValueError("requires p in (1, inf)")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("requires alpha > 0")
    return CoupleConfig(p, PowerWeight(0.0), p, PowerWeight(-alpha))


def corollary_1(
    f: StepFunction, t: float, p: float = 2.0, alpha: float = 1.0, **kwargs
) -> ExplicitKValue:
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


def decomposition_lemma(
    f: StepFunction, g: StepFunction, h: StepFunction
) -> Decomposition:
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
        raise ValueError(
            f"majorization f <= g + h fails at t={float(pts[i])!r}: "
            f"{float(fv[i])!r} > {float(gv[i] + hv[i])!r}"
        )
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
    """Norms of step functions with fixed cells and variable values.

    Cells are (g_{i-1}, g_i] with g_0 = 0; candidate vectors hold the value
    per cell and vanish beyond the last point.  The space is a lambda- or
    s-flavor one.  The cell lengths, left edges, moments and tail moment are
    built once here by ``norms.cell_moments``, as for the norms, and both
    flavors evaluate them with the norms' cell kernel, ``norms.cell_sums``.
    Unconstrained candidates are sorted into non-increasing order first; each
    row's cells are then the cumulative sums of its sorted cell lengths, and
    their moments and tail come from one ``Weight.moment`` call each over all
    rows.  They need power weights.
    """

    def __init__(self, space: LorentzSpace, g: np.ndarray):
        if not math.isfinite(space.p):
            raise ValueError("the oracle supports finite exponents only")
        if space.flavor == "gamma":
            raise InvalidWeightError("the oracle takes lambda- and s-flavor spaces, not gamma")
        self.flavor = space.flavor
        self.p = float(space.p)
        cells = cell_moments(self.flavor, self.p, space.w, g)
        if cells is None:
            raise InvalidWeightError(
                f"a weight moment diverges on this grid; {self.flavor}-norms are infinite"
            )
        self.lengths = cells[0]
        self.grid_cells = (None, *cells)
        self.w = space.w
        # N(Ld)^p = sum_i omega_i y_i^p with y = B d (see ``cone_dual``), for the Hessian
        _, lengths, left, moments, tail = self.grid_cells
        ones = np.ones((lengths.size, lengths.size))
        if self.flavor == "lambda":
            self.B, self.omega = np.triu(ones), moments
        else:
            self.B = np.vstack((np.tril(ones, -1), ones[0])) * (left + lengths)
            self.omega = np.append(moments, tail)

    def check_unconstrained(self) -> None:
        """Raise InvalidWeightError unless unconstrained candidates are supported."""
        if not isinstance(self.w, PowerWeight):
            raise InvalidWeightError(
                "unconstrained oracle candidates need power weights "
                "(rearranged norms require vectorized primitives)"
            )

    def _sorted_cells(self, U: np.ndarray):
        """Sort order, lengths, left edges, moments and tail moment of the cells
        of each row after sorting its values into non-increasing order."""
        self.check_unconstrained()
        order = np.argsort(-U, axis=-1, kind="stable")
        lengths = self.lengths[order]
        right = np.cumsum(lengths, axis=-1)
        left = np.concatenate((np.zeros(U.shape[:-1] + (1,)), right[..., :-1]), axis=-1)
        if self.flavor == "lambda":
            return order, lengths, left, self.w.moment(0.0, left, right), 0.0
        # the s moment diverges at 0, where the oscillation vanishes anyway
        moments = np.where(left > 0.0, self.w.moment(-self.p, left, right), 0.0)
        return order, lengths, left, moments, self.w.moment(-self.p, right[..., -1], math.inf)

    def _forward(self, U: np.ndarray, monotone: bool):
        """(powered norms of the rows of U, what the backward pass reuses)."""
        if monotone:
            cells = self.grid_cells
        else:
            cells = self._sorted_cells(U)
            U = np.take_along_axis(U, cells[0], axis=-1)
        powered, C, M = cell_sums(self.flavor, self.p, U, *cells[1:])
        return powered, (U, C, M, cells)

    def norm_pow(self, U: np.ndarray, monotone: bool) -> np.ndarray:
        """p-th powers of the norms of the rows of U (a 1-d U is one row)."""
        return self._forward(U, monotone)[0]

    def norm(self, u: np.ndarray, monotone: bool) -> float:
        return float(self.norm_pow(u, monotone)) ** (1.0 / self.p)

    def grad(self, u: np.ndarray, monotone: bool) -> tuple[float, np.ndarray]:
        """(norm, gradient) of one candidate, from one forward pass.

        Derivatives at zero values are one-sided (right) ones, so at p = 1 the
        gradient is the norm's linear coefficient everywhere; for p > 1 the
        subgradient at u = 0 is 0.  Unconstrained candidates are
        differentiated through their sort order, which is locally constant.
        """
        p = self.p
        npow, saved = self._forward(u, monotone)
        n = float(npow) ** (1.0 / p)
        if n == 0.0 and p != 1.0:
            return 0.0, np.zeros_like(u)
        v, C, M, (order, lengths, left, moments, tail) = saved
        if self.flavor == "lambda":
            gs = n ** (1.0 - p) * _pow_slope(v, p) * moments
        else:
            Cp = _pow_slope(C, p) * moments
            grad_pow = p * (lengths * (_suffix_sums(Cp) + _pow_slope(M, p) * tail) - Cp * left)
            gs = (1.0 / p) * n ** (1.0 - p) * grad_pow
        if order is None:
            return n, gs
        grad = np.empty_like(u)
        grad[order] = gs
        return n, grad

    def cone_dual(self, c: np.ndarray, free: np.ndarray) -> float:
        """max <c, d> over d >= 0 with d_k = 0 off ``free`` and N(Ld) <= 1.

        Exact for lambda, where N(Ld)^p = sum_i dW_i u_i^p, and for s, where
        C_i = A_{i-1} - u_i x_{i-1} = sum_{k<i} x_k d_k makes N(Ld)^p the same
        sum over the partial sums of x_k d_k (weights dPsi_1, ..., dPsi_{m-1}
        and the tail), read backwards.
        """
        _, lengths, left, moments, tail = self.grid_cells
        if self.flavor == "lambda":
            return _level_dual(c[free], moments.cumsum()[free], self.p)
        back = free[::-1]
        X = np.append(moments[1:], tail)[::-1].cumsum()
        return _level_dual((c / (left + lengths))[::-1][back], X[back], self.p)

    def hessian(self, d: np.ndarray) -> np.ndarray:
        """The Hessian of N(Ld) in the differences d >= 0.

        With y = Bd, r = N^{1-p} omega y^{p-1} is the gradient of N in y, and
        the Hessian is B^T ((p-1)/N)(N^{2-p} diag(omega y^{p-2}) - r r^T) B.
        Rows with y_i = 0, where y^{p-2} blows up for p < 2, are left out; the
        Hessian of N at 0 is taken as 0.
        """
        y = self.B @ d
        live = y > 0.0
        if not live.any():
            return np.zeros((d.size, d.size))
        p, B, omega, y = self.p, self.B[live], self.omega[live], y[live]
        n = float(omega @ y**p) ** (1.0 / p)
        r = B.T @ (n ** (1.0 - p) * omega * y ** (p - 1.0))
        return (p - 1.0) / n * ((B.T * (n ** (2.0 - p) * omega * y ** (p - 2.0))) @ B - np.outer(r, r))


class _CoupleObjective:
    """J(u) = ||u||_0 + t ||F - u||_1 on the grid, monotone or unconstrained.

    Monotone candidates are u = Ld, the suffix sums of differences d in the
    box 0 <= d <= hi, hi_k = F_k - F_{k+1}.
    """

    def __init__(self, ev0: _SpaceOnGrid, ev1: _SpaceOnGrid, F: np.ndarray, t: float, monotone: bool):
        self.ev0, self.ev1, self.F, self.t, self.monotone = ev0, ev1, F, t, monotone
        self.hi = F - np.append(F[1:], 0.0)

    def norms_batch(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """N0 and N1(F - U) of the rows of U, which do not depend on t."""
        rest = np.maximum(self.F - U, 0.0)
        n0 = self.ev0.norm_pow(U, self.monotone) ** (1.0 / self.ev0.p)
        n1 = self.ev1.norm_pow(rest, self.monotone) ** (1.0 / self.ev1.p)
        return n0, n1

    def value_batch(self, U: np.ndarray) -> np.ndarray:
        n0, n1 = self.norms_batch(U)
        return n0 + self.t * n1

    def value(self, u: np.ndarray) -> float:
        return float(self.value_batch(u[None, :])[0])

    def value_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        rest = np.maximum(self.F - u, 0.0)
        n0, g0 = self.ev0.grad(u, self.monotone)
        n1, g1 = self.ev1.grad(rest, self.monotone)
        return n0 + self.t * n1, g0 - self.t * g1

    def to_u(self, x: np.ndarray) -> np.ndarray:
        """The candidate of search point x (differences d in monotone mode, so
        Ld), clipped to [0, F] against rounding; the upper corner is F exactly,
        which the sum of the differences can miss by rounding."""
        if self.monotone and np.array_equal(x, self.hi):
            return self.F
        # the array methods skip the Python-level wrappers of np.clip and np.cumsum
        return np.minimum(np.maximum(x[::-1].cumsum()[::-1] if self.monotone else x, 0.0), self.F)

    def diff_value_grad(self, d: np.ndarray) -> tuple[float, np.ndarray]:
        """J(Ld) and its gradient L^T grad J in the differences."""
        val, gu = self.value_grad(self.to_u(d))
        return val, gu.cumsum()

    def gap(self, u: np.ndarray, vg: tuple[float, np.ndarray] | None = None) -> float:
        """A bound on J(u) - min J over the monotone candidates (+inf if p < 1 or unconstrained).

        In differences u = Ld, 0 <= d <= hi, J is convex and g = L^T grad J a
        subgradient, so the Frank-Wolfe gap g.d - min_box g.x bounds it.  At
        u = 0 (p_0 > 1) the subgradient of N_0 vanishes, so by the convexity
        of N_1, J(d) >= J(0) + (1 - D) N_0(Ld) with D the dual norm of c = -g
        over the cone d >= 0 (``_SpaceOnGrid.cone_dual``; d_k = 0 where hi_k =
        0, and dropping d <= hi only relaxes it).  As N_0(Ld) <= J(d), the gap
        is (D - 1)^+ J(0), which is 0 when u = 0 is optimal, as D is exact.
        u = f* is the mirror image in hi - d, with c = g and the dual norm of
        t N_1.  ``vg`` is ``value_grad(u)`` when the caller has it.
        """
        p0, p1 = self.ev0.p, self.ev1.p
        if not self.monotone or min(p0, p1) < 1.0:
            return math.inf
        val, gu = vg or self.value_grad(u)
        g = gu.cumsum()
        gap = max(float(g @ (u - np.append(u[1:], 0.0)) - np.minimum(g, 0.0) @ self.hi), 0.0)
        if p0 > 1.0 and not u.any():
            ev, c, scale = self.ev0, -g, 1.0
        elif p1 > 1.0 and np.array_equal(u, self.F):
            ev, c, scale = self.ev1, g, self.t
        else:
            return gap
        D = ev.cone_dual(c, self.hi > 0.0) / scale
        return min(gap, max(D - 1.0, 0.0) * val)

    def point(self, d: np.ndarray) -> tuple[float, np.ndarray, float]:
        """(J, gradient in the differences, gap) at d."""
        u = self.to_u(d)
        vg = self.value_grad(u)
        return vg[0], vg[1].cumsum(), self.gap(u, vg)

    def newton(self, d: np.ndarray) -> tuple[np.ndarray, float, float, int]:
        """Projected Newton from d in the box 0 <= d <= hi: (d, J, gap, steps).

        Bertsekas (1982, SIAM J. Control Optim. 20), in the unit box z = d/hi:
        the coordinates within eps of a bound whose gradient points out of the
        box take a gradient step, the others a Newton step with the exact
        Hessian (``_SpaceOnGrid.hessian``), damped by |g_free| I (Li, Fukushima,
        Qi and Yamashita 2004, Comput. Optim. Appl. 28), since J is affine on
        the segment from 0 to hi and so singular along it.  The step is
        projected onto the box and cut tenfold until J falls by the Armijo
        share of its first-order decrease, or, once J is flat to rounding,
        until the gap shrinks: near a bound at p < 2, where y^{p-2} blows up,
        the step can be too long by many decades.  It stops at a gap of
        ``_GAP_REL_TOL`` of J, after ``_NEWTON_STEPS`` steps, when no step is
        accepted, or on a stall: when over the last ``_STALL`` steps J has
        not fallen and the least gap seen has not halved.  (The gap bounces
        from step to step, and a run can sit on a plateau of its least gap
        for a few steps before it certifies.)
        """
        hi = self.hi
        val, g, gap = self.point(d)
        seen = [(val, gap)]  # J and the least gap so far, after each step
        for step in range(_NEWTON_STEPS):
            if gap <= _GAP_REL_TOL * val:
                return d, val, gap, step
            if step >= _STALL and val >= seen[-1 - _STALL][0] and seen[-1][1] > 0.5 * seen[-1 - _STALL][1]:
                break
            z, gz = d / hi, g * hi
            eps = min(_ACTIVE_EPS, float(np.linalg.norm(z - np.clip(z - gz, 0.0, 1.0))))
            free = ~(((z <= eps) & (gz > 0.0)) | ((z >= 1.0 - eps) & (gz < 0.0)))
            dz = -gz
            if free.any():
                H = (self.ev0.hessian(d) + self.t * self.ev1.hessian(hi - d)) * np.outer(hi, hi)
                Hf = H[np.ix_(free, free)]
                Hf[np.diag_indices_from(Hf)] += np.linalg.norm(gz[free])
                try:
                    newton_dz = np.linalg.solve(Hf, -gz[free])
                except np.linalg.LinAlgError:
                    newton_dz = dz[free]
                if newton_dz @ gz[free] < 0.0:  # a descent direction
                    dz[free] = newton_dz
            for _ in range(_BACKTRACKS):
                trial = np.clip(z + dz, 0.0, 1.0) * hi
                f_t, g_t, gap_t = self.point(trial)
                if f_t <= val + _ARMIJO * (g @ (trial - d)) or (f_t <= val * (1.0 + 4.0 * _EPS) and gap_t < gap):
                    break
                dz = 0.1 * dz
            else:
                break
            d, val, g, gap = trial, f_t, g_t, gap_t
            seen.append((val, min(gap, seen[-1][1])))
        else:
            step = _NEWTON_STEPS
        return d, val, gap, step


def _level_slopes(c: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The slope over (X_{k-1}, X_k] of the least concave majorant of (0, 0)
    and the points (X_k, c_k), X non-decreasing and X_{-1} = 0: one per point,
    +inf where the majorant jumps up at X = 0, -inf on a drop at equal X."""
    xs, ys = [0.0, *X.tolist()], [0.0, *c.tolist()]
    hull = [0]
    for j in range(1, len(xs)):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if (xs[b] - xs[a]) * (ys[j] - ys[a]) < (ys[b] - ys[a]) * (xs[j] - xs[a]):
                break
            hull.pop()  # b lies on or below the chord from a to j
        hull.append(j)
    v = np.array(hull)
    dx, dy = np.diff(np.array(xs)[v]), np.diff(np.array(ys)[v])
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = np.where(dx > 0.0, dy / dx, np.where(dy > 0.0, math.inf, -math.inf))
    return np.repeat(seg, np.diff(v))


def _level_dual(c: np.ndarray, X: np.ndarray, p: float) -> float:
    """max <c, d> over d >= 0 with sum_i W_i (sum_{k >= i} d_k)^p <= 1, X_k = W_0 + ... + W_k.

    The level-function duality for the cone of non-increasing functions
    (Sawyer 1990; Sinnamon 2001): with sigma the slopes of the least concave
    majorant of the points (X_k, c_k), the value is the p'-norm
    (sum_k (X_k - X_{k-1}) (sigma_k^+)^{p'})^{1/p'}, attained at the
    non-increasing u_k = (sigma_k^+)^{p'-1}, which is constant on each block
    of the majorant.  Only the rising part of the majorant has sigma > 0, and
    no point below zero lies on it, so the hull is taken of c^+; the value is
    positively homogeneous in c, so c^+ is first scaled by an exact power of
    two into [1/2, 1) and the value scaled back: bit for bit the same for
    normal c, and subnormal coefficients keep their precision.
    """
    c = np.maximum(c, 0.0)
    e = math.frexp(float(c.max(initial=0.0)))[1]
    sigma = np.maximum(_level_slopes(np.ldexp(c, -e), X), 0.0)
    top, q = sigma.max(initial=0.0), p / (p - 1.0)
    if top == 0.0 or top == math.inf:
        return float(top)
    # scaled by the largest slope, so that sigma^q cannot underflow
    return float(np.ldexp(top * (np.diff(X, prepend=0.0) @ (sigma / top) ** q) ** (1.0 / q), e))


# ---------------------------------------------------------------------------
# the oracle


@dataclass(frozen=True)
class OracleResult:
    """An oracle value with the decomposition that attains it.

    ``gap``, the certificate, bounds ``value`` minus the monotone problem's
    minimum (``_CoupleObjective.gap``; +inf in unconstrained mode or at
    p < 1).  ``converged`` means ``gap <= _GAP_REL_TOL * value``; where
    there is no certificate (p < 1, or unconstrained mode) it means that no
    L-BFGS-B start stopped at its cap.  ``starts`` counts the searches run
    from a start of their own: in monotone mode at p >= 1 L-BFGS-B and
    Newton from the centre (0 when the truncation candidate was certified,
    at most 2), at p < 1 the three L-BFGS-B starts, in unconstrained mode
    also its distinct L-BFGS-B starts; ``iterations`` counts their
    iterations and the Newton steps.  ``grid`` holds the right ends of the
    cells of the decomposition: the steps of f* (of f* sampled on the grid
    given) when the monotone search wins, the whole grid when the
    unconstrained one does.
    """

    value: float
    decomposition: Decomposition
    truncation_value: float
    converged: bool
    iterations: int
    monotone_only: bool
    grid: Grid
    gap: float
    starts: int


def oracle_grid(fstar: StepFunction, m: int = 64) -> Grid:
    """Log-spaced grid over the support, one decade padding, breakpoints merged.

    The unconstrained oracle searches on it when no grid is given; the
    monotone one needs only the steps of f*, which it contains."""
    if fstar.is_zero:
        return Grid.log(0.1, 10.0, m)
    lo = fstar.first_breakpoint * 10.0 ** (-_PAD_DECADES)
    hi = fstar.support_end * 10.0 ** _PAD_DECADES
    if lo >= hi:
        lo = hi / 10.0 ** (2 * _PAD_DECADES)
    return Grid.log(lo, hi, m).union(fstar.breakpoints)


def _truncation_family(F: np.ndarray, monotone: bool) -> np.ndarray:
    """Candidates (F - level)^+ on head cells up to each cut, zero beyond.

    A level at or above F[k-1] zeroes the last head cell of cut k, which
    repeats cut k-1, so each cut k >= 1 takes only the levels below F[k-1].
    In monotone mode also level >= F[k], so the rows are (F - level)^+, in ``np.unique``'s order.
    """
    m = F.size
    levels = np.unique(np.concatenate((F, [0.0])))
    if monotone:
        return np.maximum(F - levels[::-1, None], 0.0)
    rows = [np.zeros((1, m))]
    arange = np.arange(m)
    for k in range(1, m + 1):
        cs = levels[levels < F[k - 1]]
        rows.append(np.where(arange < k, np.maximum(F[None, :] - cs[:, None], 0.0), 0.0))
    return np.unique(np.concatenate(rows), axis=0)


# per unconstrained start; at scipy's default ftol and gtol some K values stop ~1e-9 above the optimum
_LBFGSB_OPTIONS = {"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12}
# projected Newton: steps per run, tenfold cuts per step, the Armijo share, the active-set
# width and the steps without progress that end a run
_NEWTON_STEPS, _BACKTRACKS, _ARMIJO, _ACTIVE_EPS, _STALL = 50, 20, 1e-4, 1e-3, 8
# a candidate whose gap is at most this share of its value is returned as optimal
_GAP_REL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


class _GridProblem:
    """Everything of a K-query but its parameter, in one mode: f* sampled on
    the grid, both spaces on the grid, and the truncation family with its
    norms N0(U) and N1(F - U), built once.  Each search depends on its t alone.
    """

    def __init__(self, fstar: StepFunction, space0: LorentzSpace, space1: LorentzSpace, grid: Grid,
                 monotone: bool):
        self.grid, self.monotone = grid, monotone
        g = grid.points
        self.F = fstar.at(g)
        self.target = StepFunction(g, self.F)  # what every decomposition must sum to
        self.ev0 = _SpaceOnGrid(space0, g)
        self.ev1 = _SpaceOnGrid(space1, g)
        if not monotone:
            self.ev0.check_unconstrained()
            self.ev1.check_unconstrained()
        self.family: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def truncation(self, obj: _CoupleObjective) -> tuple[np.ndarray, float]:
        """The best truncation candidate at the objective's t, and its value."""
        if self.family is None:
            U = _truncation_family(self.F, self.monotone)
            self.family = (U, *obj.norms_batch(U))
        U, n0, n1 = self.family
        tvals = n0 + obj.t * n1  # value_batch's arithmetic
        k_best = int(np.argmin(tvals))
        return U[k_best], float(tvals[k_best])

    def search(self, t: float, seed: int = 0) -> tuple[float, np.ndarray, float, int, bool, float, int]:
        """(value, u, truncation value, iterations, converged, gap, starts) at t.

        The searches are those of ``k_oracle``.  In monotone mode at p >= 1
        each point's value less its gap bounds min J from below, and the gap
        returned is the best value less the best such bound; elsewhere the
        gap is +inf and converged means that no L-BFGS-B start was capped."""
        F = self.F
        obj = _CoupleObjective(self.ev0, self.ev1, F, t, self.monotone)
        u_trunc, trunc_val = self.truncation(obj)
        best_u, best_f, iters, used = u_trunc, trunc_val, 0, 0
        if not self.monotone or min(self.ev0.p, self.ev1.p) < 1.0:
            # not convex and no certificate: L-BFGS-B from several starts
            if self.monotone:
                fun, upper = obj.diff_value_grad, obj.hi
                starts = (upper / 2.0, upper, np.zeros_like(upper))
            else:
                fun, upper = obj.value_grad, F
                starts = (u_trunc, F, np.zeros_like(F), F / 2.0, np.random.default_rng(seed).uniform(size=F.size) * F)
            conv = True
            tried: list[np.ndarray] = []
            for x0 in starts:
                if any(np.array_equal(x0, y) for y in tried):
                    continue  # L-BFGS-B would repeat that start's run
                tried.append(x0)
                res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                               bounds=Bounds(np.zeros_like(upper), upper), options=_LBFGSB_OPTIONS)
                used, iters = used + 1, iters + res.nit
                conv = conv and res.status != 1  # status 1: iteration or evaluation cap
                if res.fun < best_f:
                    best_u, best_f = obj.to_u(res.x), float(res.fun)
            return best_f, best_u, trunc_val, iters, conv, math.inf, used
        hi = obj.hi
        lower = trunc_val - obj.gap(u_trunc)  # min J lies above it
        x_best = u_trunc - np.append(u_trunc[1:], 0.0)
        # L-BFGS-B from the centre, Newton from the best point (a polish, no start of its
        # own) and Newton from the centre, where L-BFGS-B can stop at the kink of N0 at u = 0
        for stage in range(3):
            if best_f - lower <= _GAP_REL_TOL * best_f:
                break
            if stage == 0:
                res = minimize(obj.diff_value_grad, hi / 2.0, jac=True, method="L-BFGS-B",
                               bounds=Bounds(np.zeros_like(hi), hi), options=_LBFGSB_OPTIONS)
                d, f_d, gap_d, steps = res.x, float(res.fun), math.inf, res.nit
            else:
                d, f_d, gap_d, steps = obj.newton(x_best if stage == 1 else hi / 2.0)
            used, iters, lower = used + (stage != 1), iters + steps, max(lower, f_d - gap_d)
            if f_d < best_f:
                x_best, best_u, best_f = d, obj.to_u(d), f_d
        if self.ev0.p == self.ev1.p == 1.0:
            vertex = np.where(obj.diff_value_grad(hi / 2.0)[1] < 0.0, hi, 0.0)
            f_vertex, _, gap_vertex = obj.point(vertex)
            lower = max(lower, f_vertex - gap_vertex)
            if f_vertex < best_f:
                best_u, best_f = obj.to_u(vertex), f_vertex
        gap = max(best_f - lower, 0.0)
        return best_f, best_u, trunc_val, iters, gap <= _GAP_REL_TOL * best_f, gap, used


def _solve(t: float, mono: _GridProblem, free: _GridProblem | None, seed: int) -> OracleResult:
    """The monotone search at t, and the unconstrained one too when ``free`` is given."""
    value, u, trunc_val, iters, conv, gap, used = mono.search(t)
    provenance = "optimizer" if value < trunc_val else "truncation"
    won = mono
    if free is not None:
        v2, u2, t2, it2, c2, _, used2 = free.search(t, seed)
        iters += it2
        used += used2
        gap, conv = math.inf, c2  # the certificate covers the monotone problem only
        trunc_val = min(trunc_val, t2)
        if v2 < value:
            value, u, won = v2, u2, free
            provenance = "optimizer" if v2 < t2 else "truncation"
    rest = np.maximum(won.F - u, 0.0)
    if won.monotone:
        # F - u is non-increasing in exact arithmetic; kill rounding wiggles
        rest = np.minimum.accumulate(rest)
    g = won.grid.points
    dec = Decomposition(StepFunction(g, u), StepFunction(g, rest), provenance)
    dec.validate_sum(won.target)
    return OracleResult(value, dec, trunc_val, conv, iters, free is None, won.grid, gap, used)


def _oracle_curve(f: StepFunction, space0: LorentzSpace, space1: LorentzSpace, ts: Sequence[float],
                  grid: Grid | None, free_m: int | None = None, seed: int = 0) -> list[OracleResult]:
    """The monotone oracle at each t, and the unconstrained one too (on ``grid``
    or ``oracle_grid(f*, free_m)``) unless ``free_m`` is None."""
    ts = [float(t) for t in ts]
    if not all(t > 0.0 and math.isfinite(t) for t in ts):
        raise ValueError("K-parameter t must be positive and finite")
    fstar = rearrange(f)
    # the monotone problem on the steps of the target: its parts can only jump where F does
    cells = fstar if grid is None else StepFunction(grid.points, fstar.at(grid.points))
    if cells.is_zero:
        dec = Decomposition(StepFunction.zero(), StepFunction.zero(), "optimizer")
        g0 = grid or Grid.log(0.1, 10.0, 2)
        return [OracleResult(0.0, dec, 0.0, True, 0, free_m is None, g0, 0.0, 0) for _ in ts]
    mono = _GridProblem(fstar, space0, space1, Grid(cells.breakpoints), True)
    free = None
    if free_m is not None:
        free = _GridProblem(fstar, space0, space1, grid or oracle_grid(fstar, free_m), False)
    return [_solve(t, mono, free, seed) for t in ts]


def k_curve(
    f: StepFunction,
    space0: LorentzSpace,
    space1: LorentzSpace,
    ts: Sequence[float],
    grid: Grid | None = None,
) -> list[OracleResult]:
    """The monotone oracle's K(f, t) for each t of ``ts``, one result per t in their order.

    The cells (the steps of f*, or of f* sampled on ``grid``; see
    ``k_oracle``), both spaces on them and the truncation family's norms
    N0(U) and N1(F - U) are built once; each t takes the argmin of N0 + t N1,
    the certificate and the search on its own, so each result is bit for bit
    the ``k_oracle`` result at its t, whatever the order of ``ts`` (which may
    be unsorted or repeat a value).
    """
    return _oracle_curve(f, space0, space1, ts, grid)


# relative rounding slack of the K-curve laws; the values' own rounding is a few ulps
_CURVE_REL_TOL = 1e-12


def curve_violations(ts: Sequence[float], results: Sequence[OracleResult]) -> np.ndarray:
    """Which points of one grid's K-curve break its laws beyond their gaps.

    The grid K(t) is the minimum of N0 + t N1 over one fixed candidate set,
    so it is non-decreasing and concave, and K(t)/t is non-increasing
    (Bergh-Lofstrom, Lemma 3.1.1).  A result brackets it in [value - gap,
    value].  Sorted by t, each pair of neighbours and each triple is tested
    at the ends of the brackets that favour the laws, so a point is marked
    (with the others of its pair or triple) only when no values within the
    gaps obey them.  Returns one flag per result, in the order of ``ts``.
    """
    t = np.asarray(ts, dtype=float)
    order = np.argsort(t, kind="stable")
    t = t[order]
    hi = np.array([results[i].value for i in order], dtype=float)
    lo = hi - np.array([results[i].gap for i in order], dtype=float)
    slack = 1.0 + _CURVE_REL_TOL
    bad = np.zeros(t.size, dtype=bool)
    # neighbours: K(t) non-decreasing and K(t)/t non-increasing
    pair = (lo[:-1] > hi[1:] * slack) | (lo[1:] / t[1:] > hi[:-1] / t[:-1] * slack)
    bad[:-1] |= pair
    bad[1:] |= pair
    # triples: the middle value at or above the chord of the outer ones
    with np.errstate(invalid="ignore", divide="ignore"):  # infinite gaps and equal outer t give nan
        weight = (t[1:-1] - t[:-2]) / (t[2:] - t[:-2])
        chord = lo[:-2] + (lo[2:] - lo[:-2]) * weight
        triple = hi[1:-1] * slack < chord
    for k in range(3):
        bad[k : k + triple.size] |= triple
    flags = np.empty_like(bad)
    flags[order] = bad
    return flags


def k_oracle(
    q: KQuery,
    grid: Grid | None = None,
    m: int = 64,
    monotone_only: bool = True,
    seed: int = 0,
) -> OracleResult:
    """Brute-force K-functional value over step decompositions.

    The query's function is reduced to its rearrangement f*, and ``grid``,
    when given, samples it (beyond its last point the function is 0).  The
    monotone candidates keep both parts non-increasing, so they can only
    jump where f* does: they are solved on the steps of f*, at most one cell
    per step, whatever the grid; the unconstrained candidates live on the
    whole grid, ``oracle_grid(f*, m)`` when none is given.  Candidates are
    step functions with 0 <= u_i <= f*_i, plus (in monotone mode) the two
    chain constraints, which become the box 0 <= d_i <= f*_i - f*_{i+1} on
    successive differences.  The search stops once the best point has a gap
    of at most ``_GAP_REL_TOL`` of its value, which the truncation candidate
    may have before any start (the exact dual certifies an optimum at a
    vanishing part there).  Otherwise L-BFGS-B runs from the centre of the
    box, projected Newton (``_CoupleObjective.newton``) polishes the best
    point, and Newton runs from the centre, where L-BFGS-B can stop at the
    kink of N0 at u = 0, each while the best point is uncertified.  The
    truncation candidate wins ties.  When both exponents are 1 the monotone
    objective is affine in the differences, and the vertex picked by the
    sign of each slope joins the candidates.  Below exponent 1 the monotone
    problem is not convex and has no certificate: L-BFGS-B runs from the
    centre and both corners.  In unconstrained mode the monotone search
    also runs and the better value wins, so the unconstrained value never
    exceeds the monotone one.  That problem is not convex; L-BFGS-B runs
    from each distinct one of the best truncation candidate, both corners,
    the centre and a point drawn from ``seed``.

    A single query is the one-t case of ``k_curve``, with the unconstrained
    search added when ``monotone_only`` is false.
    """
    return _oracle_curve(q.f, q.space0, q.space1, (q.t,), grid, None if monotone_only else m, seed)[0]


def k_oracle_exhaustive(
    q: KQuery,
    grid: Grid,
    quantum: float,
    monotone_only: bool = True,
    max_candidates: int = 4_000_000,
) -> float:
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
    ev0 = _SpaceOnGrid(q.space0, g)
    ev1 = _SpaceOnGrid(q.space1, g)
    obj = _CoupleObjective(ev0, ev1, F, q.t, monotone_only)
    if monotone_only:
        dsteps = steps - np.concatenate((steps[1:], [0]))
        axes = [np.arange(k + 1) for k in dsteps]
        mesh = np.meshgrid(*axes, indexing="ij")
        D = np.stack([a.ravel() for a in mesh], axis=1).astype(float) * quantum
        if D.shape[0] > max_candidates:
            raise ValueError("lattice too large for exhaustive mode")
        U = np.cumsum(D[:, ::-1], axis=1)[:, ::-1]
    else:
        axes = [np.arange(k + 1) for k in steps]
        total = int(np.prod([a.size for a in axes]))
        if total > max_candidates:
            raise ValueError("lattice too large for exhaustive mode")
        mesh = np.meshgrid(*axes, indexing="ij")
        U = np.stack([a.ravel() for a in mesh], axis=1).astype(float) * quantum
    best = math.inf
    for start in range(0, U.shape[0], 200_000):
        chunk = U[start : start + 200_000]
        vals = obj.value_batch(chunk)
        best = min(best, float(vals.min()))
    return best


@dataclass(frozen=True)
class SCoupleOracleResult:
    """The s-couple K-value by two independent routes."""

    direct: OracleResult
    transformed: OracleResult
    ratio: float


def k_curve_s_couple(
    f: StepFunction,
    space0: LorentzSpace,
    space1: LorentzSpace,
    ts: Sequence[float],
) -> list[SCoupleOracleResult]:
    """K-functional of an s-flavor couple at each t of ``ts``, directly and through the transform.

    Route one is the monotone K-curve of f* under the s-norms; route two maps
    f* through the oscillation transform once and takes the K-curve of the
    reciprocal-weight lambda-couple at the same parameters.  Each route
    solves on the steps of its own function, so the ratio of the two values
    measures the theorem's equivalence alone.
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
    """K-functional of an s-flavor couple, directly and through the transform.

    The one-t case of ``k_curve_s_couple``: route one optimizes monotone
    decompositions of f* under the s-norms, route two the reciprocal-weight
    lambda-couple at the same parameter, on the steps of the transform of f*.
    """
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

    Starting from the best truncation split f* = f_0 + f_1 under the
    s-couple objective, the transform of f* is majorized by
    (2/s) f_0**(1/s) + (T f_1)(s/2); the decomposition lemma splits the
    transform below these majorants, and mapping the two parts back through
    the transform (exact on step functions) yields a feasible decomposition
    of f* whose objective upper-bounds the oracle value.
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
    u = problem.truncation(_CoupleObjective(problem.ev0, problem.ev1, F, t, monotone=True))[0]
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
