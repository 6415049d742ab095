"""Reference oracles that the tests check ``lorentzk.kfunctional`` against.

The library solves K(f, t) over the monotone splits of f* and certifies each
value by a duality gap.  This module searches more widely, with no
certificate, so that a test can compare:

* ``free_oracle`` — the better of ``k_oracle`` and an L-BFGS-B search over
  all splits 0 <= u <= f* with values free on the cells of the padded grid
  ``oracle_grid(f*, m)``; gap +inf;
* ``exhaustive`` — the least value over the monotone splits whose values lie
  on a lattice, for tiny instances;
* ``Space`` and ``Objective`` — norms and J(u) = N0(u) + t N1(F - u) of rows
  of values in any order, with gradients.  Each row is sorted, its sorted
  cells' moments taken again, and summed by the public cell kernel
  (``norms.cell_moments``, ``norms.cell_sums``), not from the library's
  y = Bd.  The s gradient takes the oscillation constants c_i and the mass
  M itself, by the kernel's own expressions, since ``cell_sums`` returns
  the powered sums alone.
"""

import math

import numpy as np
from scipy.optimize import Bounds, minimize

from lorentzk.grids import Grid
from lorentzk.kfunctional import KQuery, OracleResult, k_oracle
from lorentzk.norms import LorentzSpace, cell_moments, cell_sums
from lorentzk.stepfn import StepFunction, rearrange
from lorentzk.weights import InvalidWeightError

PAD_DECADES = 1.0  # the padded grid's margin beyond the support, each side
# per L-BFGS-B start; at scipy's default ftol and gtol some K values stop ~1e-9 above the optimum
LBFGSB_OPTIONS = {"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12}
EXHAUSTIVE_MAX_CANDIDATES = 4_000_000


def _pow_slope(x, p: float):
    """x^(p-1) for x >= 0, with its right limit at x = 0: 1 when p = 1, 0 when p > 1."""
    if p < 1.0:  # the limit is infinite; 0 keeps a finite subgradient
        return np.where(x > 0.0, x, 1.0) ** (p - 1.0) * (x > 0.0)
    return x ** (p - 1.0)


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """sum_{j > i} x_j for each i."""
    return np.concatenate((x[::-1].cumsum()[::-1][1:], [0.0]))


class Space:
    """Norms of step functions with fixed cells (g_{i-1}, g_i], g_0 = 0, and values in any order."""

    def __init__(self, space: LorentzSpace, g: np.ndarray):
        if space.flavor == "gamma":
            raise InvalidWeightError("the reference takes lambda- and s-flavor spaces, not gamma")
        self.flavor, self.p, self.w = space.flavor, float(space.p), space.w
        self.cells = cell_moments(self.flavor, self.p, space.w, g)
        if self.cells is None:
            raise InvalidWeightError(f"a weight moment diverges on this grid; {self.flavor}-norms are infinite")
        self.lengths = self.cells[0]

    def norm_pow(self, U: np.ndarray):
        """(p-th powers of the norms of the rows of U, in any order, and what ``grad`` reuses): each
        row sorted into non-increasing order (a 1-d U is one row), its sorted cells' moments taken again."""
        order = np.argsort(-U, axis=-1, kind="stable")
        cells = cell_moments(self.flavor, self.p, self.w, np.cumsum(self.lengths[order], axis=-1))
        V = np.take_along_axis(U, order, axis=-1)
        return cell_sums(self.flavor, self.p, V, *cells), (V, order, *cells)

    def grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """(norm, gradient) of one row u, from one forward pass.

        Derivatives at zero values are right ones (at p = 1 the linear
        coefficient, at p > 1 0 at u = 0), taken through the sort order,
        locally constant.
        """
        p = self.p
        npow, (v, order, lengths, left, moments, tail) = self.norm_pow(u)
        n = float(npow) ** (1.0 / p)
        if n == 0.0 and p != 1.0:
            return 0.0, np.zeros_like(u)
        if self.flavor == "lambda":
            gs = n ** (1.0 - p) * _pow_slope(v, p) * moments
        else:  # the oscillation constants c_i and the mass M, by ``cell_sums``' own expressions
            C = np.zeros(v.shape)
            ((v[..., :-1] - v[..., 1:]) * left[..., 1:]).cumsum(axis=-1, out=C[..., 1:])
            np.maximum(C, 0.0, out=C)
            M = np.add.reduce(v * lengths, axis=-1)
            Cp = _pow_slope(C, p) * moments
            grad_pow = p * (lengths * (_suffix_sums(Cp) + _pow_slope(M, p) * tail) - Cp * left)
            gs = (1.0 / p) * n ** (1.0 - p) * grad_pow
        grad = np.empty_like(u)
        grad[order] = gs
        return n, grad


class Objective:
    """J(u) = N0(u) + t N1(F - u) on the cells ending at g, for rows u of values in any order."""

    def __init__(self, space0: LorentzSpace, space1: LorentzSpace, g: np.ndarray, F: np.ndarray, t: float):
        self.space0, self.space1, self.g, self.F, self.t = space0, space1, g, F, t
        self.ev0, self.ev1 = Space(space0, g), Space(space1, g)
        self.hi = F - np.append(F[1:], 0.0)

    def norms(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """N0 and N1(F - U) of the rows of U, which do not depend on t."""
        rest = np.maximum(self.F - U, 0.0)
        return self.ev0.norm_pow(U)[0] ** (1.0 / self.ev0.p), self.ev1.norm_pow(rest)[0] ** (1.0 / self.ev1.p)

    def values(self, U: np.ndarray) -> np.ndarray:
        """J at the rows of U (a 1-d U is one row)."""
        n0, n1 = self.norms(np.atleast_2d(U))
        return n0 + self.t * n1

    def value_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """J and its gradient at the row u."""
        n0, g0 = self.ev0.grad(u)
        n1, g1 = self.ev1.grad(np.maximum(self.F - u, 0.0))
        return n0 + self.t * n1, g0 - self.t * g1


def lbfgsb(fun, x0: np.ndarray, hi: np.ndarray):
    """scipy's L-BFGS-B on (J, gradient) = fun(x) over the box 0 <= x <= hi, from x0."""
    return minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=Bounds(np.zeros_like(hi), hi),
                    options=LBFGSB_OPTIONS)


def oracle_grid(fstar: StepFunction, m: int = 64) -> Grid:
    """m log-spaced points from ``PAD_DECADES`` below the support to as far beyond it, with the breakpoints of
    f* merged in."""
    if fstar.is_zero:
        return Grid.log(0.1, 10.0, m)
    lo = fstar.first_breakpoint * 10.0 ** (-PAD_DECADES)
    hi = fstar.support_end * 10.0 ** PAD_DECADES
    if lo >= hi:
        lo = hi / 10.0 ** (2 * PAD_DECADES)
    return Grid(np.union1d(Grid.log(lo, hi, m).points, fstar.breakpoints))


def truncation_family(F: np.ndarray) -> np.ndarray:
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
        rows.append(np.where(arange < k, np.maximum(F[None, :] - cs[:, None], 0.0), 0.0))
    return np.unique(np.concatenate(rows), axis=0)


def free_search(obj: Objective, seed: int = 0) -> tuple[float, np.ndarray, float, int, bool, int]:
    """(value, u, truncation value, iterations, converged, starts) of L-BFGS-B over 0 <= u <= F, from the best
    of ``truncation_family``, both corners, the centre and a point drawn from ``seed``, each distinct start
    once.  J is not convex in u, so nothing certifies the value: converged means that no start was capped."""
    F = obj.F
    family = truncation_family(F)
    tvals = obj.values(family)
    pick = int(tvals.argmin())
    best_u, best_f = family[pick], float(tvals[pick])
    trunc, iters, used, conv = best_f, 0, 0, True
    starts = (best_u, F, np.zeros_like(F), F / 2.0, np.random.default_rng(seed).uniform(size=F.size) * F)
    tried: list[np.ndarray] = []
    for x0 in starts:
        if any(np.array_equal(x0, y) for y in tried):
            continue  # L-BFGS-B would repeat that start's run
        tried.append(x0)
        res = lbfgsb(obj.value_grad, x0, F)
        used, iters = used + 1, iters + res.nit
        conv = conv and res.status != 1  # status 1: iteration or evaluation cap
        if res.fun < best_f:
            best_u, best_f = np.minimum(np.maximum(res.x, 0.0), F), float(res.fun)
    return best_f, best_u, trunc, iters, conv, used


def free_oracle(q: KQuery, m: int = 64, seed: int = 0) -> OracleResult:
    """``k_oracle``'s monotone result or, where it is lower, ``free_search``'s on ``oracle_grid(f*, m)``.

    Gap +inf, since the certificate covers the monotone problem only; ``converged`` is the search's, and
    ``iterations`` and ``starts`` add up both.  A zero function gets the monotone result.
    """
    mono, fstar = k_oracle(q), rearrange(q.f)
    if fstar.is_zero:
        return mono
    grid = oracle_grid(fstar, m)
    obj = Objective(q.space0, q.space1, grid.points, fstar.at(grid.points), q.t)
    value, u, trunc, iters, conv, starts = free_search(obj, seed)
    if value < mono.value:
        rest, won_trunc = np.maximum(obj.F - u, 0.0), trunc
    else:
        value, grid, u, rest, won_trunc = mono.value, mono.grid, mono.u, mono.rest, mono.truncation_value
    return OracleResult(value, u, rest, "optimizer" if value < won_trunc else "truncation",
                        min(mono.truncation_value, trunc), conv, mono.iterations + iters, grid, math.inf,
                        mono.starts + starts)


def exhaustive(q: KQuery, grid: Grid, quantum: float) -> float:
    """The least J over the monotone splits of f* on ``grid`` whose values are multiples of ``quantum``.

    For tiny instances, whose values must lie on the lattice themselves.
    Exact for p = 1 flavors, where the feasible polytope has lattice
    vertices and the objective is linear, so the continuous optimum lies on
    the lattice.  A row is evaluated by the cell kernel on its values.
    """
    g = grid.points
    if g.size > 6:
        raise ValueError("exhaustive mode is for instances with at most 6 cells")
    F = rearrange(q.f).at(g)
    steps = np.rint(F / quantum).astype(int)
    if not np.allclose(steps * quantum, F, rtol=0.0, atol=1e-12):
        raise ValueError("instance values are not multiples of the quantum")
    if np.any(steps >= 16):
        raise ValueError("instance needs more than 16 lattice levels")
    evs = [Space(space, g) for space in (q.space0, q.space1)]
    # the lattice points of the differences, summed from the right
    axes = [np.arange(k + 1) for k in steps - np.append(steps[1:], 0)]
    if math.prod(a.size for a in axes) > EXHAUSTIVE_MAX_CANDIDATES:
        raise ValueError("lattice too large for exhaustive mode")
    X = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1).astype(float) * quantum
    U = np.cumsum(X[:, ::-1], axis=1)[:, ::-1]
    n0, n1 = (cell_sums(ev.flavor, ev.p, V, *ev.cells) ** (1.0 / ev.p)
              for ev, V in zip(evs, (U, np.maximum(F - U, 0.0))))
    return float((n0 + q.t * n1).min())
