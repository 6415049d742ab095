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
* ``k_oracle`` — a brute-force minimizer over step decompositions on a grid,
  with monotone (both parts non-increasing) and unconstrained modes, an
  exhaustive lattice mode for tiny instances, and the two-parameter
  truncation family as seed and cross-check;
* ``k_oracle_s_couple`` — the same K-functional computed twice: directly on
  the s-couple and through the oscillation transform on the reciprocal
  lambda-couple (independent grids, so agreement is evidence, not tautology);
* ``near_optimal_s_decomposition`` — the constructive decomposition obtained
  by majorizing the transform of f*, splitting with the decomposition lemma,
  and mapping back through the transform (exact on step functions).

Monotone decompositions are optimized in successive-difference coordinates,
where both chain constraints become a coordinate box; scipy's L-BFGS-B
minimizes the convex (p >= 1) objective over it from five starts, and the
best truncation candidate stands when no start beats it.  At p_0 = p_1 = 1
the objective is affine there and the slope-sign vertex is also tried.  A
start that stops at the iteration cap is flagged, never silently accepted.
The explicit formulas take their head and tail integrals from the windowed
cell sums of ``norms``.  The oracle takes each grid's cell lengths and weight
moments (or gamma nodes) once from ``norms.cell_moments``, the builder the
norms use (the sorted rows of unconstrained candidates from one
``Weight.moment`` call), and evaluates the candidates' norms, and their
gradients, with the same cell kernel, ``norms.cell_sums``.
"""

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from scipy.optimize import Bounds, minimize

from .grids import Grid
from .norms import GammaNodes, LorentzSpace, _powered, cell_moments, cell_sums
from .stepfn import (
    StepFunction,
    _require_nonincreasing,
    add,
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
    "k_oracle",
    "k_oracle_exhaustive",
    "k_oracle_s_couple",
    "near_optimal_s_decomposition",
]

Provenance = Literal["truncation", "decomposition-lemma", "optimizer", "manual"]

_SUM_REL_TOL = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """A split f = f0 + f1 with a record of how it was produced."""

    f0: StepFunction
    f1: StepFunction
    provenance: str = "manual"

    def __post_init__(self) -> None:
        if self.provenance not in ("truncation", "decomposition-lemma", "optimizer", "manual"):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def validate_sum(self, f: StepFunction, rel_tol: float = _SUM_REL_TOL) -> None:
        """Check f0 + f1 = f on the merged grid (relative tolerance for rounding).

        Probes cell midpoints rather than the breakpoints themselves: grids
        that went through a reciprocal round trip carry breakpoints shifted by
        one ulp, and sampling exactly at a shifted jump would compare values
        from opposite sides.  Sliver cells no wider than a few ulps are skipped
        for the same reason.
        """
        total = add(self.f0, self.f1)
        pts = np.union1d(total.breakpoints, f.breakpoints)
        if not pts.size:
            return
        scale = np.concatenate((f.values, total.values, [1.0])).max()
        prev = np.concatenate(([0.0], pts[:-1]))
        wide = pts - prev > 4.0 * np.spacing(np.maximum(pts, 1.0))
        probes = np.append(0.5 * (prev + pts)[wide], 2.0 * pts[-1])
        got, want = total.at(probes), f.at(probes)
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
    per cell and vanish beyond the last point.  The cell lengths, left edges,
    moments (lambda, s) or log-panel Gauss-Legendre nodes (gamma) and tail
    moment are built once here by ``norms.cell_moments``, as for the norms,
    and every flavor evaluates them with the norms' cell kernel,
    ``norms.cell_sums``.  Unconstrained candidates are sorted into
    non-increasing order first; each row's cells are then the cumulative sums
    of its sorted cell lengths, and their moments and tail come from one
    ``Weight.moment`` call each over all rows.  They need power weights.
    """

    def __init__(self, space: LorentzSpace, g: np.ndarray):
        if not math.isfinite(space.p):
            raise ValueError("the oracle supports finite exponents only")
        self.flavor = space.flavor
        self.p = float(space.p)
        cells = cell_moments(self.flavor, self.p, space.w, g)
        if cells is None:
            raise InvalidWeightError(
                f"a weight moment diverges on this grid; {self.flavor}-norms are infinite"
            )
        self.lengths, self.left = cells[:2]
        self.grid_cells = (None, *cells)
        self.w = space.w

    def check_unconstrained(self) -> None:
        """Raise InvalidWeightError unless unconstrained candidates are supported."""
        if self.flavor == "gamma" or not isinstance(self.w, PowerWeight):
            raise InvalidWeightError(
                "unconstrained oracle candidates need lambda- or s-flavor spaces "
                "with power weights (rearranged norms require vectorized primitives)"
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
        elif self.flavor == "gamma":
            gs = n ** (1.0 - p) * self._gamma_backward(v, C, M, moments, tail)
        else:
            Cp = _pow_slope(C, p) * moments
            grad_pow = p * (lengths * (_suffix_sums(Cp) + _pow_slope(M, p) * tail) - Cp * left)
            gs = (1.0 / p) * n ** (1.0 - p) * grad_pow
        if order is None:
            return n, gs
        grad = np.empty_like(u)
        grad[order] = gs
        return n, grad

    def _gamma_backward(
        self, u: np.ndarray, vals: np.ndarray, M: float, nodes: GammaNodes, tail: float
    ) -> np.ndarray:
        """The gradient of the powered gamma norm, divided by p, from the node values of f**."""
        slope = _pow_slope(vals, self.p) * nodes.weight
        # f** at a node is u_i + (A_{i-1} - u_i x_{i-1}) / s, with A_{i-1} = sum_{j<i} u_j L_j
        via_prefix = np.bincount(nodes.cell, (slope * nodes.inv).sum(axis=1), minlength=u.size)
        direct = np.bincount(nodes.cell, slope.sum(axis=1), minlength=u.size) - self.left * via_prefix
        direct[0] = _pow_slope(u[0], self.p) * nodes.head
        return direct + self.lengths * (_suffix_sums(via_prefix) + _pow_slope(M, self.p) * tail)


class _CoupleObjective:
    """J(u) = ||u||_0 + t ||F - u||_1 on the grid, monotone or unconstrained."""

    def __init__(self, ev0: _SpaceOnGrid, ev1: _SpaceOnGrid, F: np.ndarray, t: float, monotone: bool):
        self.ev0, self.ev1, self.F, self.t, self.monotone = ev0, ev1, F, t, monotone

    def value_batch(self, U: np.ndarray) -> np.ndarray:
        rest = np.maximum(self.F - U, 0.0)
        n0 = self.ev0.norm_pow(U, self.monotone) ** (1.0 / self.ev0.p)
        n1 = self.ev1.norm_pow(rest, self.monotone) ** (1.0 / self.ev1.p)
        return n0 + self.t * n1

    def value(self, u: np.ndarray) -> float:
        return float(self.value_batch(u[None, :])[0])

    def value_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        rest = np.maximum(self.F - u, 0.0)
        n0, g0 = self.ev0.grad(u, self.monotone)
        n1, g1 = self.ev1.grad(rest, self.monotone)
        return n0 + self.t * n1, g0 - self.t * g1


# ---------------------------------------------------------------------------
# the oracle


@dataclass(frozen=True)
class OracleResult:
    """An oracle value with the decomposition that attains it.

    ``converged`` is True when no L-BFGS-B start stopped at its iteration cap;
    it is not an optimality certificate.  ``iterations`` counts L-BFGS-B
    iterations over all starts (and over both searches in unconstrained mode).
    """

    value: float
    decomposition: Decomposition
    truncation_value: float
    converged: bool
    iterations: int
    monotone_only: bool
    grid: Grid
    seed: int


def oracle_grid(fstar: StepFunction, m: int = 64, pad_decades: float = 1.0) -> Grid:
    """Log-spaced grid over the support, one decade padding, breakpoints merged."""
    if fstar.is_zero:
        return Grid.log(0.1, 10.0, m)
    lo = fstar.first_breakpoint * 10.0 ** (-pad_decades)
    hi = fstar.support_end * 10.0 ** pad_decades
    if lo >= hi:
        lo = hi / 10.0 ** (2 * pad_decades)
    return Grid.log(lo, hi, m).union(fstar.breakpoints)


def _truncation_family(F: np.ndarray, monotone: bool) -> np.ndarray:
    """Candidates (F - level)^+ on head cells up to each cut, zero beyond.

    A level at or above F[k-1] zeroes the last head cell of cut k, which
    repeats cut k-1, so each cut k >= 1 takes only the levels below F[k-1].
    """
    m = F.size
    levels = np.unique(np.concatenate((F, [0.0])))
    rows = [np.zeros((1, m))]
    arange = np.arange(m)
    for k in range(1, m + 1):
        cs = levels[levels < F[k - 1]]
        if monotone and k < m:
            cs = cs[cs >= F[k]]  # a lower level makes the remainder min(F, c) jump up at the cut
        rows.append(np.where(arange < k, np.maximum(F[None, :] - cs[:, None], 0.0), 0.0))
    return np.unique(np.concatenate(rows), axis=0)


# per start; at scipy's default ftol and gtol some K values stop ~1e-9 above the optimum
_LBFGSB_OPTIONS = {"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12}


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
    L-BFGS-B minimizes over the box from five starts: the best truncation
    candidate, both corners, the centre and a point drawn from ``seed``.  The
    truncation candidate wins ties.  When both exponents are 1 the monotone
    objective is affine in the differences, and the vertex picked by the sign
    of each slope joins the candidates.  In unconstrained mode the monotone
    search also runs and the better value wins, so the unconstrained value
    never exceeds the monotone one.
    """
    fstar = rearrange(q.f)
    if fstar.is_zero:
        dec = Decomposition(StepFunction.zero(), StepFunction.zero(), "optimizer")
        g0 = grid or Grid.log(0.1, 10.0, 2)
        return OracleResult(0.0, dec, 0.0, True, 0, monotone_only, g0, seed)
    grid = grid or oracle_grid(fstar, m)
    g = np.array(grid.points)
    F = fstar.at(g)
    ev0 = _SpaceOnGrid(q.space0, g)
    ev1 = _SpaceOnGrid(q.space1, g)
    if not monotone_only:
        ev0.check_unconstrained()
        ev1.check_unconstrained()

    def run(monotone: bool) -> tuple[float, np.ndarray, float, int, bool]:
        obj = _CoupleObjective(ev0, ev1, F, q.t, monotone)
        U = _truncation_family(F, monotone)
        tvals = obj.value_batch(U)
        k_best = int(np.argmin(tvals))
        trunc_val = float(tvals[k_best])
        u_trunc = U[k_best]
        if monotone:
            hi = F - np.concatenate((F[1:], [0.0]))

            def to_u(d: np.ndarray) -> np.ndarray:
                # the array methods skip the Python-level wrappers of np.clip and np.cumsum
                return np.minimum(np.maximum(d[::-1].cumsum()[::-1], 0.0), F)

            def vg(d: np.ndarray) -> tuple[float, np.ndarray]:
                val, gu = obj.value_grad(to_u(d))
                return val, gu.cumsum()

            x_trunc = u_trunc - np.concatenate((u_trunc[1:], [0.0]))
        else:
            hi = F

            def to_u(x: np.ndarray) -> np.ndarray:
                return np.minimum(np.maximum(x, 0.0), F)

            vg = obj.value_grad
            x_trunc = u_trunc
        rng = np.random.default_rng(seed)
        starts = [x_trunc, hi, np.zeros_like(hi), hi / 2.0, rng.uniform(size=hi.size) * hi]
        bounds = Bounds(np.zeros_like(hi), hi)
        best_u, best_f, iters, conv = u_trunc, trunc_val, 0, True
        for x0 in starts:
            res = minimize(vg, x0, jac=True, method="L-BFGS-B", bounds=bounds, options=_LBFGSB_OPTIONS)
            iters += res.nit
            conv = conv and res.status != 1  # status 1: iteration or evaluation cap
            if res.fun < best_f:
                best_u, best_f = to_u(res.x), float(res.fun)
        if monotone and ev0.p == ev1.p == 1.0:
            vertex = np.where(vg(hi / 2.0)[1] < 0.0, hi, 0.0)
            f_vertex = vg(vertex)[0]
            if f_vertex < best_f:
                best_u, best_f = to_u(vertex), f_vertex
        return best_f, best_u, trunc_val, iters, conv

    value, u, trunc_val, iters, conv = run(monotone=True)
    provenance = "optimizer" if value < trunc_val else "truncation"
    won_monotone = True
    if not monotone_only:
        v2, u2, t2, it2, c2 = run(monotone=False)
        iters += it2
        conv = conv and c2
        trunc_val = min(trunc_val, t2)
        if v2 < value:
            value, u, won_monotone = v2, u2, False
            provenance = "optimizer" if v2 < t2 else "truncation"
    rest = np.maximum(F - u, 0.0)
    if won_monotone:
        # F - u is non-increasing in exact arithmetic; kill rounding wiggles
        rest = np.minimum.accumulate(rest)
    dec = Decomposition(StepFunction(g, u), StepFunction(g, rest), provenance)
    dec.validate_sum(StepFunction(g, F))
    return OracleResult(value, dec, trunc_val, conv, iters, monotone_only, grid, seed)


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
    g = np.array(grid.points)
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


def k_oracle_s_couple(q: KQuery, m: int = 64, seed: int = 0) -> SCoupleOracleResult:
    """K-functional of an s-flavor couple, directly and through the transform.

    Route one optimizes monotone decompositions of f* under the s-norms;
    route two maps f* through the oscillation transform and optimizes the
    reciprocal-weight lambda-couple at the same parameter.  Each route uses
    its own grid (log-spaced over its own function's support), so the ratio
    of the two values measures the theorem's equivalence plus grid effects.
    """
    if q.space0.flavor != "s" or q.space1.flavor != "s":
        raise ValueError("both spaces of the couple must be s-flavor")
    fstar = rearrange(q.f)
    direct = k_oracle(replace(q, f=fstar), m=m, monotone_only=True, seed=seed)
    tstep = osc_transform(fstar).as_step()
    tilde0 = LorentzSpace("lambda", q.space0.p, reciprocal_weight(q.space0.w, q.space0.p))
    tilde1 = LorentzSpace("lambda", q.space1.p, reciprocal_weight(q.space1.w, q.space1.p))
    q_t = KQuery(tstep, q.t, tilde0, tilde1)
    transformed = k_oracle(q_t, m=m, monotone_only=True, seed=seed)
    a, b = direct.value, transformed.value
    ratio = a / b if b > 0.0 else (1.0 if a == 0.0 else math.inf)
    return SCoupleOracleResult(direct, transformed, ratio)


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
    grid = oracle_grid(fstar, m)
    g = np.array(grid.points)
    F = fstar.at(g)
    ev0 = _SpaceOnGrid(space0, g)
    ev1 = _SpaceOnGrid(space1, g)
    obj = _CoupleObjective(ev0, ev1, F, t, monotone=True)
    U = _truncation_family(F, monotone=True)
    vals = obj.value_batch(U)
    u = U[int(np.argmin(vals))]
    f0_init = StepFunction(g, u)
    f1_init = StepFunction(g, np.minimum.accumulate(np.maximum(F - u, 0.0)))
    initial = Decomposition(f0_init, f1_init, "truncation")

    tstep = osc_transform(fstar).as_step()
    mass0 = f0_init.total_integral

    h_step = dilate(osc_transform(f1_init).as_step(), 0.5)
    pts = np.concatenate((tstep.breakpoints, h_step.breakpoints, 1.0 / f0_init.breakpoints))
    start, end = (float(pts.min()), float(pts.max())) if pts.size else (0.1, 1.0)
    grid_t = Grid(tuple(np.union1d(pts, Grid.log(start / 10.0, end, 2 * m).points).tolist()))

    # G(s) = 2 integral_0^{1/s} f0 majorizes T f0 and is non-increasing, so the
    # ceiling projection onto the grid takes the left-endpoint value per cell.
    gv = []
    prev = 0.0
    for x in grid_t.points:
        gv.append(2.0 * mass0 if prev == 0.0 else 2.0 * f0_init.prefix_integral(1.0 / prev))
        prev = x
    g_step = StepFunction(grid_t.points, gv)
    parts = decomposition_lemma(tstep, g_step, h_step)
    back0 = osc_transform(parts.f0).as_step()
    back1 = osc_transform(parts.f1).as_step()
    dec = Decomposition(back0, back1, "decomposition-lemma")
    dec.validate_sum(fstar)
    from .norms import norm

    objective = norm(space0, back0) + t * norm(space1, back1)
    return NearOptimalSDecomposition(dec, objective, initial, parts)
