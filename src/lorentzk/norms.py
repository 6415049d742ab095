"""Classical Lorentz functionals of step functions.

Three flavors over a weight w and exponent p:

* lambda:  || f* w^{1/p} ||_{L^p}           (exact cell sums)
* gamma:   || f** w^{1/p} ||_{L^p}          (log-panel Gauss-Legendre + exact ends)
* s:       || (f** - f*) w^{1/p} ||_{L^p}   (exact cell sums via tail moments)

where f* is the non-increasing rearrangement and f** its running integral
mean.  On the cell (x_{i-1}, x_i] of a non-increasing step function the
oscillation is exactly (A_{i-1} - v_i x_{i-1}) / t with A_{i-1} the prefix
integral, so the s-flavor integrand is c^p t^{-p} w(t) per cell and every
piece reduces to a weight moment; beyond the support f* vanishes and both
gamma- and s-integrands equal (M/t)^p w(t) with M the total mass.  The
running mean f** = v + c/t has no moment form; its cells between the first
(where f** = f*) and the tail are summed over Gauss-Legendre nodes in log t,
on panels cut at the weight's kinks and sized like the power-log moments', for
the log-derivative scale of w plus p (``gamma_nodes``).  For a power-log weight the
cell moments take three routes: log panels on the finite cells and on the part
of a first cell past s = 1, the incomplete-gamma kernel on the first cell's piece
below s = 1 and the tail's piece above it, and quadrature only on the remainder
(end, 1) of a tail from a support end below 1: three pinned check-weights
verdicts come from that route, and it moves to the log panels with ROADMAP
direction 2's ``[benchmark]`` change.  So the lambda norm takes no quadrature,
and the s and gamma norms take it only where the support ends below 1.  The three
flavors' sums are one vectorized kernel, ``cell_sums``, fed by one builder,
``cell_moments``, which takes the weight moments (or gamma nodes) of the
cells over a window (0, t), (t, inf) or (0, inf).  The norms, the windowed
norms and the explicit K-formulas of ``kfunctional`` go through this pair; the
K-oracle takes its grids' moments from ``cell_moments``, evaluates monotone
candidates from their differences (y = Bd) and only unconstrained ones, sorted,
by ``cell_sums``.  Divergent integrals yield +inf with a flag
rather than an error.  p = inf flavors are grid suprema over breakpoints
plus refinement points (grid-level accuracy).

The full norms read f* from ``rearrange``, which a function computes once
and keeps, so every flavor of one function shares it and the norms are
rearrangement-invariant by construction; the windowed norms take a
non-increasing function as it is.
"""

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .stepfn import StepFunction, maximal, osc_transform, rearrange
from .weights import QUAD_REL_TOL, Weight, _log_nodes, check_rbp, reciprocal_weight

__all__ = [
    "LorentzSpace",
    "TruncatedNorm",
    "NormResult",
    "norm",
    "norm_result",
    "truncated_norm",
    "truncated_norm_result",
    "s_lambda_identity_check",
    "gamma_equals_s_check",
]

Flavor = Literal["lambda", "gamma", "s"]
_FLAVORS = ("lambda", "gamma", "s")


@dataclass(frozen=True)
class LorentzSpace:
    """Space descriptor: flavor in {lambda, gamma, s}, exponent p, weight w."""

    flavor: str
    p: float
    w: Weight

    def __post_init__(self) -> None:
        if self.flavor not in _FLAVORS:
            raise ValueError(f"flavor must be one of {_FLAVORS}, got {self.flavor!r}")
        if not (self.p > 0.0):
            raise ValueError("exponent p must be positive (math.inf allowed)")

    def to_json_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "p": self.p if math.isfinite(self.p) else "inf",
            "w": self.w.to_json_dict(),
        }


@dataclass(frozen=True)
class TruncatedNorm:
    """A norm restricted to the window (0, t) ("head") or (t, inf) ("tail")."""

    space: LorentzSpace
    window: Literal["head", "tail"]
    t: float

    def __post_init__(self) -> None:
        if self.window not in ("head", "tail"):
            raise ValueError("window must be 'head' or 'tail'")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError("window edge t must be positive and finite")


@dataclass(frozen=True)
class NormResult:
    value: float
    diverged: bool
    flags: tuple[str, ...] = ()


def _moment_sum(X: np.ndarray, moments: np.ndarray) -> np.ndarray:
    return X @ moments if moments.ndim == 1 else (X * moments).sum(axis=-1)


@dataclass(frozen=True)
class GammaNodes:
    """Quadrature nodes of the gamma cell integrals: ``groups`` of (cell, inv, weight), one per rule.

    On a cell i >= 1 the running mean is f** = v_i + c_i / s, with c_i =
    A_{i-1} - v_i x_{i-1}.  A group has one column of 4 or 8 nodes per panel:
    ``cell`` its cell index, ``inv`` 1/s at the nodes and ``weight`` the
    Gauss-Legendre weight x ds x w(s).  ``head`` is the first cell's moment
    of w, on which f** = v_0."""

    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    head: float


def gamma_nodes(w: Weight, x: np.ndarray, lo: float, hi: float, head: float, p: float = 0.0) -> GammaNodes:
    """Nodes for the integrals of (f**)^p w over the cells (x_{i-1}, x_i], i >= 1, clipped to (lo, hi).

    In u = log s the cells are cut at the weight's kinks and sized by ``weights._log_nodes``
    for the scale K of the weight's density plus p, which bounds the log-derivative of
    (v + c/s)^p (p = 0: the nodes of w's own moments; no K: 8-point panels of log-width
    0.5).  The integrand is analytic on every panel: v + c/s vanishes only where s < 0,
    a distance pi from the real u axis."""
    cuts = x.clip(lo, hi)
    kinks = np.array(w.kinks(), dtype=float)
    kinks = kinks[(kinks > cuts[0]) & (kinks < cuts[-1])]
    ranks = np.arange(1, x.size + 1)  # how many breakpoints lie at or below each cut: i + 1 at x_i, i at a kink before it
    if kinks.size:
        at = cuts.searchsorted(kinks)
        cuts, ranks = np.insert(cuts, at, kinks), np.insert(ranks, at, at)
    kept = np.concatenate(([True], cuts[1:] > cuts[:-1])).nonzero()[0]  # sorted already: drop repeats, without a sort
    cuts, cells = cuts[kept], ranks[kept[1:] - 1]  # the cell right of a cut: the rank at the end of its run of repeats
    start, scale, groups = cuts[:-1], w._log_scale(0.0), []
    for piece, step, u, rule in _log_nodes(start, cuts[1:], None if scale is None else scale + p):
        weight = w.u_density(u)
        weight *= 0.5 * step
        weight *= rule[:, None]
        groups.append((cells[piece], np.exp(np.negative(u, out=u), out=u), weight))
    return GammaNodes(tuple(groups), head)


def cell_sums(
    flavor: str,
    p: float,
    V: np.ndarray,
    lengths: np.ndarray,
    left: np.ndarray,
    moments: np.ndarray | GammaNodes,
    tail: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The cell kernel of the three flavors: (powered, C, M), C and M for the s gradient.

    Rows of V hold non-increasing cell values on cells of the given lengths
    and left edges x_{i-1} (the last axis runs over cells; a 1-d V is one
    row).  ``moments`` holds each cell's weight moment, dW_i for lambda and
    the tail-moment increment dPsi_i for s, shared by all rows (1-d) or one
    row each; for gamma it is the node set of ``gamma_nodes``.  ``tail`` is
    the s and gamma flavors' moment beyond the support.  A cell whose
    integrand vanishes must carry a finite moment (0 will do).

    ``powered`` is each row's sum of v_i^p dW_i (lambda), c_i^p dPsi_i +
    M^p tail (s) or v_0^p W + the node sum of (v_i + c_i/s)^p w + M^p tail
    (gamma), exact but for the gamma nodes; c_i = A_{i-1} - v_i x_{i-1} (A
    the prefix integral) are the oscillation constants, summed as jumps
    (v_{j-1} - v_j) x_{j-1}, so a run of equal values gives 0 exactly.  The
    s flavor also returns them and the mass M, which the K-oracle's s
    gradient reuses; the other flavors return None for both.
    """
    if flavor == "lambda":
        return _moment_sum(V ** p, moments), None, None
    # c_i = sum_{j <= i} (v_{j-1} - v_j) x_{j-1}, clamped at 0 for rows non-increasing up to rounding
    C = np.zeros(V.shape)
    ((V[..., :-1] - V[..., 1:]) * left[..., 1:]).cumsum(axis=-1, out=C[..., 1:])
    np.maximum(C, 0.0, out=C)
    M = np.add.reduce(V * lengths, axis=-1)  # ndarray.sum's own reduction, without its Python wrapper
    if flavor == "gamma":
        powered = V[..., 0] ** p * moments.head + (M ** p) * tail
        for cell, inv, weight in moments.groups:
            vals = C[..., None, cell] * inv
            vals += V[..., None, cell]
            # summed by numpy: one long BLAS product over all nodes ran on OpenBLAS's threads, ~100x slower on 2 CPUs
            vals **= p
            vals *= weight
            powered = powered + np.add.reduce(vals, axis=(-2, -1))
        return powered, None, None
    return _moment_sum(C ** p, moments) + (M ** p) * tail, C, M


def cell_moments(
    flavor: str, p: float, w: Weight, x: np.ndarray, lo: float = 0.0, hi: float = math.inf
) -> tuple[np.ndarray, np.ndarray, np.ndarray | GammaNodes, float] | None:
    """What ``cell_sums`` takes after the values: (lengths, left edges, moments,
    tail) of the cells (x_{i-1}, x_i], their moments clipped to (lo, hi), or
    None if one moment diverges.  Lengths and left edges stay unclipped, since
    f** keeps its global prefix integrals.  The moments are dW_i (lambda),
    dPsi_i (s; 0 on the first cell, where the oscillation vanishes) or the
    ``gamma_nodes`` with the first cell's dW (gamma); the tail is the moment of
    s^{-p} w from the support end to hi (s, gamma).  One ``Weight.moment``
    call takes the clipped cells (a cell outside the window gets an empty
    interval, so 0), with the tail as a last pair for s, whose cells share
    its exponent, and one more the gamma tail.  The norms and the oracle grids
    take weight moments here; the one other route is the K-oracle's
    unconstrained rows, whose moments ``kfunctional._SpaceOnGrid.norm_pow``
    takes from ``Weight.moment`` itself, row by sorted row.
    """
    left = np.concatenate(([0.0], x[:-1]))
    end = max(float(x[-1]), lo)
    cells = slice(1) if flavor == "gamma" else slice(None)
    a = np.maximum(left[cells], lo)
    b = np.maximum(np.minimum(x[cells], hi), a)
    if flavor == "s":
        b[0] = a[0]  # dPsi_1 = 0: no oscillation on the first cell
        a, b = np.concatenate((a, [min(end, hi)])), np.concatenate((b, [hi]))  # the tail, at the cells' exponent
    pieces = w.moment(-p if flavor == "s" else 0.0, a, b)
    if np.count_nonzero(np.isinf(pieces)):
        return None
    if flavor == "s":
        return x - left, left, pieces[:-1], float(pieces[-1])
    tail = float(w.moment(-p, end, hi)) if flavor == "gamma" and end < hi else 0.0
    if math.isinf(tail):
        return None
    moments = gamma_nodes(w, x, lo, hi, float(pieces[0]), p) if flavor == "gamma" else pieces
    return x - left, left, moments, tail


def _powered(flavor: str, fstar: StepFunction, p: float, w: Weight, lo: float, hi: float) -> float:
    """integral over (lo, hi) of (f*)^p w, (f**)^p w or (f** - f*)^p w; +inf on divergence."""
    if fstar.is_zero:
        return 0.0
    cells = cell_moments(flavor, p, w, fstar.breakpoints, lo, hi)
    if cells is None:
        return math.inf
    return float(cell_sums(flavor, p, fstar.values, *cells)[0])


def _sup_samples(fstar: StepFunction, lo: float, hi: float) -> list[float]:
    """Breakpoints plus geometric refinement points inside (lo, hi)."""
    if fstar.is_zero:
        return []
    hi_eff = hi if math.isfinite(hi) else max(fstar.support_end, lo) * 1e3
    lo_eff = lo if lo > 0.0 else min(fstar.first_breakpoint, hi_eff) * 1e-3
    if lo_eff >= hi_eff:
        lo_eff = hi_eff * 1e-6
    knots = sorted({lo_eff, hi_eff} | {x for x in fstar.breakpoints.tolist() if lo_eff < x < hi_eff})
    pts: set[float] = set()
    for a, b in zip(knots, knots[1:]):
        for i in range(10):
            pts.add(a * (b / a) ** (i / 9.0))
    pts.add(hi_eff)
    return sorted(pts)


def _sup_norm(fstar: StepFunction, flavor: str, w: Weight, lo: float, hi: float) -> float:
    if fstar.is_zero:
        return 0.0
    mean = maximal(fstar)
    best = 0.0
    for t in _sup_samples(fstar, lo, hi):
        if flavor == "lambda":
            g = fstar(t)
        elif flavor == "gamma":
            g = mean(t)
        else:
            g = mean(t) - fstar(t)
        best = max(best, g * w(t))
    return best


def _windowed(space: LorentzSpace, fstar: StepFunction, lo: float, hi: float) -> NormResult:
    """The norm of non-increasing f* over the window (lo, hi)."""
    if not math.isfinite(space.p):
        value = _sup_norm(fstar, space.flavor, space.w, lo, hi)
        return NormResult(value, False, ("grid-supremum",))
    powered = _powered(space.flavor, fstar, space.p, space.w, lo, hi)
    if math.isinf(powered):
        return NormResult(math.inf, True, ("divergent-integral",))
    return NormResult(powered ** (1.0 / space.p), False)


def norm_result(space: LorentzSpace, f: StepFunction) -> NormResult:
    """Norm of f in the space; divergent integrals give +inf with a flag."""
    # s-flavor membership requires f* -> 0 at infinity: automatic for
    # compactly supported step functions
    return _windowed(space, rearrange(f), 0.0, math.inf)


def norm(space: LorentzSpace, f: StepFunction) -> float:
    return norm_result(space, f).value


def truncated_norm_result(tn: TruncatedNorm, fstar: StepFunction) -> NormResult:
    """Windowed norm of a non-increasing function (no rearrangement applied).

    The window restricts the integration range, not the function: the
    oscillation and running mean keep their global prefix integrals.
    """
    if not fstar.is_nonincreasing():
        raise ValueError("truncated norms are defined for non-increasing step functions")
    lo, hi = (0.0, tn.t) if tn.window == "head" else (tn.t, math.inf)
    return _windowed(tn.space, fstar, lo, hi)


def truncated_norm(tn: TruncatedNorm, fstar: StepFunction) -> float:
    return truncated_norm_result(tn, fstar).value


def s_lambda_identity_check(
    f: StepFunction, p: float, w: Weight, t: float = math.inf
) -> tuple[float, float]:
    """Both sides of the window identity linking the s-flavor to the transform.

    Left: (integral_0^t (f**-f*)^p w)^{1/p} by the exact s-flavor cell sums.
    Right: (integral_{1/t}^inf (Tf*)^p w~)^{1/p} with w~ the reciprocal
    weight, by adaptive quadrature of the pointwise transform (independent
    route).  t = inf gives the full-norm identity (right side from 0).
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    fstar = rearrange(f)
    left = _powered("s", fstar, p, w, 0.0, t) ** (1.0 / p)
    if fstar.is_zero:
        return left, 0.0
    transform = osc_transform(fstar)
    wr = reciprocal_weight(w, p)
    lo = 0.0 if math.isinf(t) else 1.0 / t
    hi = 1.0 / fstar.first_breakpoint  # the transform vanishes beyond this point
    if lo >= hi:
        return left, 0.0
    from scipy.integrate import quad  # loaded here only: nothing else in the norms takes quadrature
    jumps = 1.0 / fstar.breakpoints[::-1]
    interior = jumps[(lo < jumps) & (jumps < hi)]
    val, _err = quad(
        lambda s: transform(s) ** p * wr(s),
        lo,
        hi,
        points=interior if interior.size else None,
        epsrel=QUAD_REL_TOL,
        epsabs=0.0,
        limit=300,
    )
    right = val ** (1.0 / p)
    return left, right


def gamma_equals_s_check(f: StepFunction, p: float, w: Weight) -> tuple[float, float]:
    """(gamma-norm^p, s-norm^p) of f; requires the reverse balance condition.

    The reverse B_p condition is what makes the two flavors equivalent; when
    it fails the comparison is meaningless and this raises instead.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("exponent p must be positive and finite")
    verdict = check_rbp(w, p)
    if not verdict.holds:
        raise ValueError(
            "reverse B_p condition fails for this weight/exponent; "
            "gamma- and s-flavors are not comparable"
        )
    fstar = rearrange(f)
    return (
        _powered("gamma", fstar, p, w, 0.0, math.inf),
        _powered("s", fstar, p, w, 0.0, math.inf),
    )
