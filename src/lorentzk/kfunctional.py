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
* ``k_curve`` — a brute-force minimizer over monotone step decompositions on
  a grid, for a sweep of parameters t: the grid, both spaces and the
  truncation family's norms are built once per sweep, and only the search
  runs per t; ``curve_violations`` checks the sweep against the concavity of
  K(t) and the monotonicity of K(t)/t, within the gaps;
* ``k_oracle`` — one query, the one-t case of ``k_curve``, with an
  unconstrained mode besides the monotone one (both parts non-increasing),
  an exhaustive lattice mode for tiny instances, and the two-parameter
  truncation family as first candidate and cross-check;
* ``k_curve_s_couple`` and its one-t case ``k_oracle_s_couple`` — the same
  K-functional computed twice: directly on the s-couple and through the
  oscillation transform on the reciprocal lambda-couple (independent grids,
  so agreement is evidence, not tautology);
* ``near_optimal_s_decomposition`` — the constructive decomposition obtained
  by majorizing the transform of f*, splitting with the decomposition lemma,
  and mapping back through the transform (exact on step functions).

Monotone decompositions are optimized in successive-difference coordinates,
where both chain constraints become a coordinate box; the objective is
convex there (p >= 1) and ``_CoupleObjective.gap`` certifies a candidate:
a Frank-Wolfe gap, and at a vanishing part the level-function dual norm
over the cone of non-increasing functions.  The best truncation candidate
stands when certified; otherwise scipy's L-BFGS-B runs from the centre of
the box, then its two corners, until the best point is certified, and after
each start Newton steps with the exact Hessian polish the best point.  The
search draws nothing at random.  At p_0 = p_1 = 1 the objective is affine
and the slope-sign vertex is also tried.  A monotone value without a
certificate is flagged unconverged, never silently accepted.  The explicit
formulas take their head and tail integrals from the windowed cell sums of
``norms``.  The oracle runs lambda- and s-flavor couples, the two the
paper's K-functionals reduce to.  It takes each grid's cell lengths and
weight moments once from ``norms.cell_moments``, the builder the norms use
(the sorted rows of unconstrained candidates from one ``Weight.moment``
call), and evaluates the candidates' norms, and their gradients, with the
same cell kernel, ``norms.cell_sums``.
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
        Ld), clipped to [0, F] against rounding."""
        # the array methods skip the Python-level wrappers of np.clip and np.cumsum
        return np.minimum(np.maximum(x[::-1].cumsum()[::-1] if self.monotone else x, 0.0), self.F)

    def diff_value_grad(self, d: np.ndarray) -> tuple[float, np.ndarray]:
        """J(Ld) and its gradient L^T grad J in the differences."""
        val, gu = self.value_grad(self.to_u(d))
        return val, gu.cumsum()

    def gap(self, u: np.ndarray) -> float:
        """A bound on J(u) - min J over the monotone candidates (+inf if p < 1 or unconstrained).

        In differences u = Ld, 0 <= d <= hi, J is convex and g = L^T grad J a
        subgradient, so the Frank-Wolfe gap g.d - min_box g.x bounds it.  At
        u = 0 (p_0 > 1) the subgradient of N_0 vanishes, so by the convexity
        of N_1, J(d) >= J(0) + (1 - D) N_0(Ld) with D the dual norm of c = -g
        over the cone d >= 0 (``_SpaceOnGrid.cone_dual``; d_k = 0 where hi_k =
        0, and dropping d <= hi only relaxes it).  As N_0(Ld) <= J(d), the gap
        is (D - 1)^+ J(0), which is 0 when u = 0 is optimal, as D is exact.
        u = f* is the mirror image in hi - d, with c = g and the dual norm of
        t N_1.
        """
        p0, p1 = self.ev0.p, self.ev1.p
        if not self.monotone or min(p0, p1) < 1.0:
            return math.inf
        val, gu = self.value_grad(u)
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

    def polish(self, d: np.ndarray, val: float, gap: float) -> tuple[np.ndarray, float, float]:
        """Up to three Newton steps from d, each clipped to the box 0 <= d <= hi.

        L-BFGS-B stops where its ftol resolves d only to about sqrt(eps), which
        can leave a Frank-Wolfe gap above ``_GAP_REL_TOL``.  The steps move the
        coordinates inside the box and those at a bound whose gradient points
        into it, with the exact Hessian of J on them
        (``_SpaceOnGrid.hessian``; Bertsekas 1982, SIAM J. Control Optim. 20).
        A step is kept when J stays within 4 ulps of ``val`` and the gap
        shrinks; the first step that fails ends the polish.  Returns the best
        (d, J, gap).
        """
        for _ in range(3):
            if gap <= _GAP_REL_TOL * val:
                break
            g = self.diff_value_grad(d)[1]
            free = np.flatnonzero((self.hi > 0.0) & ((d > 0.0) | (g < 0.0)) & ((d < self.hi) | (g > 0.0)))
            if not free.size:
                break
            H = self.ev0.hessian(d) + self.t * self.ev1.hessian(self.hi - d)
            try:
                delta = np.linalg.solve(H[np.ix_(free, free)], -g[free])
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(delta).all():
                break
            trial = d.copy()
            trial[free] = np.clip(d[free] + delta, 0.0, self.hi[free])
            u = self.to_u(trial)
            f_trial, gap_trial = self.value_grad(u)[0], self.gap(u)
            if not (f_trial <= val * (1.0 + 4.0 * _EPS) and gap_trial < gap):
                break
            d, val, gap = trial, f_trial, gap_trial
        return d, val, gap


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

    ``gap``, the certificate, bounds ``value`` minus the grid problem's minimum
    (``_CoupleObjective.gap``; +inf in unconstrained mode or at p < 1).
    ``converged`` means ``gap <= _GAP_REL_TOL * value`` in monotone mode with
    both exponents at least 1.  Unconstrained mode and p < 1 have no
    certificate, so there it only says that no L-BFGS-B start stopped at its
    cap.  ``starts`` counts the distinct L-BFGS-B starts run (0 when the
    truncation candidate was certified, at most 3 in monotone mode),
    ``iterations`` their iterations, over both searches in unconstrained
    mode.
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
    """Log-spaced grid over the support, one decade padding, breakpoints merged."""
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


# per start; at scipy's default ftol and gtol some K values stop ~1e-9 above the optimum
_LBFGSB_OPTIONS = {"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12}
# a candidate whose gap is at most this share of its value is returned as optimal
_GAP_REL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


class _GridProblem:
    """Everything of a K-query but its parameter: f* sampled on the grid, both
    spaces on the grid, and the truncation family with its norms N0(U) and
    N1(F - U), built once per mode.  Each search depends on its t alone.
    """

    def __init__(self, fstar: StepFunction, space0: LorentzSpace, space1: LorentzSpace, grid: Grid,
                 monotone_only: bool):
        self.grid = grid
        g = grid.points
        self.F = fstar.at(g)
        self.target = StepFunction(g, self.F)  # what every decomposition must sum to
        self.ev0 = _SpaceOnGrid(space0, g)
        self.ev1 = _SpaceOnGrid(space1, g)
        if not monotone_only:
            self.ev0.check_unconstrained()
            self.ev1.check_unconstrained()
        self.families: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def truncation(self, obj: _CoupleObjective) -> tuple[np.ndarray, float]:
        """The best truncation candidate at the objective's t, and its value."""
        if obj.monotone not in self.families:
            U = _truncation_family(self.F, obj.monotone)
            self.families[obj.monotone] = (U, *obj.norms_batch(U))
        U, n0, n1 = self.families[obj.monotone]
        tvals = n0 + obj.t * n1  # value_batch's arithmetic
        k_best = int(np.argmin(tvals))
        return U[k_best], float(tvals[k_best])

    def search(
        self, t: float, monotone: bool, seed: int = 0
    ) -> tuple[float, np.ndarray, float, int, bool, float, int]:
        """(value, u, truncation value, iterations, no start capped, gap, starts) at t.

        The unconstrained starts are the best truncation candidate, both
        corners, the centre and a point drawn from ``seed``."""
        F = self.F
        obj = _CoupleObjective(self.ev0, self.ev1, F, t, monotone)
        u_trunc, trunc_val = self.truncation(obj)
        if monotone:
            hi, vg, x_best = obj.hi, obj.diff_value_grad, u_trunc - np.append(u_trunc[1:], 0.0)
            starts = (hi / 2.0, hi, np.zeros_like(hi))
        else:
            hi, vg, x_best = F, obj.value_grad, u_trunc
            starts = (u_trunc, F, np.zeros_like(F), F / 2.0, np.random.default_rng(seed).uniform(size=F.size) * F)

        def to_u(x: np.ndarray) -> np.ndarray:
            # the upper corner exactly, which the sum of the differences misses by rounding
            return F if np.array_equal(x, hi) else obj.to_u(x)

        best_u, best_f, iters, conv, used = u_trunc, trunc_val, 0, True, 0
        gap = obj.gap(best_u)
        tried: list[np.ndarray] = []
        for x0 in starts:
            if gap <= _GAP_REL_TOL * best_f:
                break
            if any(np.array_equal(x0, y) for y in tried):
                continue  # L-BFGS-B would repeat that start's run
            tried.append(x0)
            res = minimize(vg, x0, jac=True, method="L-BFGS-B", bounds=Bounds(np.zeros_like(hi), hi),
                           options=_LBFGSB_OPTIONS)
            used, iters = used + 1, iters + res.nit
            conv = conv and res.status != 1  # status 1: iteration or evaluation cap
            if res.fun < best_f:
                x_best, best_u, best_f = res.x, to_u(res.x), float(res.fun)
                gap = obj.gap(best_u)
            if monotone and _GAP_REL_TOL * best_f < gap < math.inf:
                d, f_d, gap_d = obj.polish(x_best, best_f, gap)
                if gap_d < gap and f_d <= trunc_val:  # never above the truncation value
                    x_best, best_u, best_f, gap = d, to_u(d), f_d, gap_d
        if monotone and self.ev0.p == self.ev1.p == 1.0:
            vertex = np.where(vg(hi / 2.0)[1] < 0.0, hi, 0.0)
            f_vertex = vg(vertex)[0]
            if f_vertex < best_f:
                best_u, best_f = to_u(vertex), f_vertex
                gap = obj.gap(best_u)
        return best_f, best_u, trunc_val, iters, conv, gap, used

    def solve(self, t: float, monotone_only: bool, seed: int = 0) -> OracleResult:
        value, u, trunc_val, iters, conv, gap, used = self.search(t, True)
        if monotone_only and min(self.ev0.p, self.ev1.p) >= 1.0:
            conv = gap <= _GAP_REL_TOL * value  # the certificate, not the iteration cap
        provenance = "optimizer" if value < trunc_val else "truncation"
        won_monotone = True
        if not monotone_only:
            v2, u2, t2, it2, c2, _, used2 = self.search(t, False, seed)
            iters += it2
            used += used2
            gap = math.inf  # the certificate covers the monotone problem only
            conv = conv and c2
            trunc_val = min(trunc_val, t2)
            if v2 < value:
                value, u, won_monotone = v2, u2, False
                provenance = "optimizer" if v2 < t2 else "truncation"
        rest = np.maximum(self.F - u, 0.0)
        if won_monotone:
            # F - u is non-increasing in exact arithmetic; kill rounding wiggles
            rest = np.minimum.accumulate(rest)
        g = self.grid.points
        dec = Decomposition(StepFunction(g, u), StepFunction(g, rest), provenance)
        dec.validate_sum(self.target)
        return OracleResult(value, dec, trunc_val, conv, iters, monotone_only, self.grid, gap, used)


def _oracle_curve(f: StepFunction, space0: LorentzSpace, space1: LorentzSpace, ts: Sequence[float],
                  grid: Grid | None, m: int, monotone_only: bool, seed: int = 0) -> list[OracleResult]:
    ts = [float(t) for t in ts]
    if not all(t > 0.0 and math.isfinite(t) for t in ts):
        raise ValueError("K-parameter t must be positive and finite")
    fstar = rearrange(f)
    if fstar.is_zero:
        dec = Decomposition(StepFunction.zero(), StepFunction.zero(), "optimizer")
        g0 = grid or Grid.log(0.1, 10.0, 2)
        return [OracleResult(0.0, dec, 0.0, True, 0, monotone_only, g0, 0.0, 0) for _ in ts]
    problem = _GridProblem(fstar, space0, space1, grid or oracle_grid(fstar, m), monotone_only)
    return [problem.solve(t, monotone_only, seed) for t in ts]


def k_curve(
    f: StepFunction,
    space0: LorentzSpace,
    space1: LorentzSpace,
    ts: Sequence[float],
    grid: Grid | None = None,
    m: int = 64,
) -> list[OracleResult]:
    """The monotone oracle's K(f, t) for each t of ``ts``, one result per t in their order.

    The grid, the rearrangement sampled on it, both spaces and the truncation
    family's norms N0(U) and N1(F - U) are built once; each t takes the
    argmin of N0 + t N1, the certificate, the L-BFGS-B starts and the polish
    (see ``k_oracle``) on its own, so each result is bit for bit the
    ``k_oracle`` result at its t, whatever the order of ``ts`` (which may be
    unsorted or repeat a value).
    """
    return _oracle_curve(f, space0, space1, ts, grid, m, True)


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
    """Brute-force K-functional value over step decompositions on a grid.

    The query's function is reduced to its rearrangement; candidates are step
    functions on the grid cells with 0 <= u_i <= f*_i, plus (in monotone
    mode) the two chain constraints keeping both parts non-increasing, which
    become the box 0 <= d_i <= f*_i - f*_{i+1} on successive differences.
    The search stops once the best point has a gap of at most
    ``_GAP_REL_TOL`` of its value, which the truncation candidate may have
    before any start (the exact dual certifies an optimum at a vanishing
    part there).  Otherwise L-BFGS-B runs from the centre of the box, then
    its upper and its lower corner, and after each start Newton steps
    polish the best point (``_CoupleObjective.polish``).  The truncation
    candidate wins ties.  When both exponents are 1 the monotone objective
    is affine in the differences, and the vertex picked by the sign of each
    slope joins the candidates.  In unconstrained mode the monotone search
    also runs and the better value wins, so the unconstrained value never
    exceeds the monotone one.  That problem is not convex; its search runs
    every distinct start of ``_GridProblem.search``, one drawn from ``seed``.

    A single query is the one-t case of ``k_curve``, with the unconstrained
    search added on the same set-up when ``monotone_only`` is false.
    """
    return _oracle_curve(q.f, q.space0, q.space1, (q.t,), grid, m, monotone_only, seed)[0]


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
    m: int = 64,
) -> list[SCoupleOracleResult]:
    """K-functional of an s-flavor couple at each t of ``ts``, directly and through the transform.

    Route one is the monotone K-curve of f* under the s-norms; route two maps
    f* through the oscillation transform once and takes the K-curve of the
    reciprocal-weight lambda-couple at the same parameters.  Each route uses
    its own grid (log-spaced over its own function's support), so the ratio
    of the two values measures the theorem's equivalence plus grid effects.
    """
    if space0.flavor != "s" or space1.flavor != "s":
        raise ValueError("both spaces of the couple must be s-flavor")
    fstar = rearrange(f)
    direct = k_curve(fstar, space0, space1, ts, m=m)
    tstep = osc_transform(fstar).as_step()
    tilde0 = LorentzSpace("lambda", space0.p, reciprocal_weight(space0.w, space0.p))
    tilde1 = LorentzSpace("lambda", space1.p, reciprocal_weight(space1.w, space1.p))
    transformed = k_curve(tstep, tilde0, tilde1, ts, m=m)
    results = []
    for d, tr in zip(direct, transformed):
        a, b = d.value, tr.value
        ratio = a / b if b > 0.0 else (1.0 if a == 0.0 else math.inf)
        results.append(SCoupleOracleResult(d, tr, ratio))
    return results


def k_oracle_s_couple(q: KQuery, m: int = 64) -> SCoupleOracleResult:
    """K-functional of an s-flavor couple, directly and through the transform.

    The one-t case of ``k_curve_s_couple``: route one optimizes monotone
    decompositions of f* under the s-norms, route two the reciprocal-weight
    lambda-couple at the same parameter, on the transform of f* and its own
    grid.
    """
    return k_curve_s_couple(q.f, q.space0, q.space1, (q.t,), m=m)[0]


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
    problem = _GridProblem(fstar, space0, space1, oracle_grid(fstar, m), monotone_only=True)
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
