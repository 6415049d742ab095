"""Lorentz norms of the three flavors: exact values and structural laws."""

import itertools
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from identity_reference import transform_side
from lorentzk import (
    LorentzSpace,
    PowerLogWeight,
    PowerWeight,
    StepFunction,
    TabulatedWeight,
    TruncatedNorm,
    dilate,
    gamma_equals_s_check,
    maximal,
    norm,
    norm_result,
    rearrange,
    s_lambda_identity_check,
    scale,
    truncated_norm,
    truncated_norm_result,
)
from lorentzk import weights
from lorentzk.norms import _powered, gamma_nodes
from lorentzk.weights import _GL4_W, _GL4_X, _GL_W, _GL_X

FLAT = PowerWeight(0.0)
IND4 = StepFunction.indicator(4.0)


def _and_quadrature(fn):
    """fn() and whether it ran the remainder quadrature of a power-log moment, (a, 1) of a
    pair to inf from below s = 1 (``weights.quad``)."""
    with mock.patch.object(weights, "quad", wraps=weights.quad) as spy:
        return fn(), spy.called


class TestWorkedExamples:
    def test_lambda_of_indicator(self):
        assert norm(LorentzSpace("lambda", 2.0, FLAT), IND4) == pytest.approx(2.0, rel=1e-12)

    def test_s_of_indicator(self):
        assert norm(LorentzSpace("s", 2.0, FLAT), IND4) == pytest.approx(2.0, rel=1e-12)

    def test_gamma_of_indicator(self):
        assert norm(LorentzSpace("gamma", 2.0, FLAT), IND4) == pytest.approx(
            math.sqrt(8.0), rel=1e-9
        )

    def test_l1_is_mass(self):
        f = StepFunction((1.0, 3.0), (2.0, 1.0))
        assert norm(LorentzSpace("lambda", 1.0, FLAT), f) == pytest.approx(4.0, rel=1e-14)


TABULATED = TabulatedWeight(StepFunction((0.5, 2.0, 6.0), (1.0, 3.0, 0.5)))


def draw_weight(draw, flavor: str, p: float):
    """A power, power-log or tabulated weight inside the flavor's convergent range."""
    # lambda needs beta > -1 at the origin, s needs beta < p - 1 at infinity, gamma both
    lo, hi = {"lambda": (-0.7, 2.0), "s": (-1.5, p - 1.3), "gamma": (-0.7, p - 1.3)}[flavor]
    beta = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
    family = draw(st.sampled_from(["power", "powerlog", "tabulated"]))
    if family == "tabulated":
        return TABULATED
    if family == "powerlog":
        return PowerLogWeight(beta, draw(st.floats(-1.0, 1.0)))
    return PowerWeight(beta)


@st.composite
def permuted_cells(draw):
    """A step function of at most 10 cells, some of them zero, the same cells
    in another order (each length moving with its value), a flavor, an
    exponent and a weight."""
    n = draw(st.integers(1, 10))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(values))
    g = StepFunction(tuple(np.cumsum([widths[i] for i in order])), tuple(values[i] for i in order))
    flavor = draw(st.sampled_from(["lambda", "s", "gamma"]))
    p = draw(st.floats(1.0, 4.0))
    return f, g, flavor, p, draw_weight(draw, flavor, p)


@st.composite
def identity_cases(draw):
    """A non-increasing step function of 2 to 30 cells, an exponent in [0.5, 4], a power, power-log or
    tabulated weight with exponents on both sides of convergence, and a window edge t, finite or infinite.

    The reciprocal side takes its cell edges and window edge as 1/x, each rounded, so a cell's moment
    carries an error of about an ulp over the cell's log-width: the breakpoints lie at least 0.01 apart
    in log s, and t at least 0.01 from each of them.  The reciprocal weight's exponent p - 2 - beta is
    rounded too, and the integral near the convergence edge beta = p - 1 moves by about an ulp over the
    distance to it (on it, the rounding may fall on the other side): beta keeps 0.01 from the edge.  A table
    step on a breakpoint of f, which 1/(1/x) may miss by an ulp, picks up a sliver of the step: left out."""
    n = draw(st.integers(2, 30))
    gaps = draw(st.lists(st.floats(0.01, 0.5), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(0.05, 5.0)) * np.exp(np.cumsum([0.0, *gaps]))
    values = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    f = StepFunction(tuple(x), tuple(sorted(values, reverse=True)))
    p, beta = draw(st.floats(0.5, 4.0)), draw(st.floats(-1.5, 4.0))
    family = draw(st.sampled_from(["power", "powerlog", "tabulated"]))
    if family == "tabulated":
        k = draw(st.integers(1, 5))
        cells = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
        w = TabulatedWeight(StepFunction(tuple(np.cumsum(cells)), tuple(draw(
            st.lists(st.floats(0.1, 5.0), min_size=k, max_size=k)))))
        assume(not set(w.kinks().tolist()) & set(x.tolist()))
    else:
        assume(abs(beta + 1.0 - p) > 0.01)
        w = PowerLogWeight(beta, draw(st.floats(-1.0, 1.0))) if family == "powerlog" else PowerWeight(beta)
    u = st.floats(-3.0, math.log(x[-1] / x[0]) + 3.0)  # log(t / x_1): from below the support to beyond it
    t = draw(st.one_of(st.just(math.inf), u.map(lambda u: x[0] * math.exp(u))))
    assume(math.isinf(t) or np.abs(np.log(t / x)).min() > 0.01)
    return f, p, w, t


STAIR = StepFunction((1.0, 3.0, 4.0), (1.0, 3.0, 2.0))


class TestStructure:
    @settings(max_examples=100, deadline=None)
    @given(permuted_cells())
    @example((STAIR, rearrange(STAIR), "lambda", 2.0, PowerWeight(0.5)))
    @example((STAIR, rearrange(STAIR), "gamma", 2.0, PowerWeight(0.5)))
    @example((STAIR, rearrange(STAIR), "s", 2.0, PowerWeight(0.5)))
    def test_rearrangement_invariance(self, case):
        f, g, flavor, p, w = case
        sp = LorentzSpace(flavor, p, w)
        (a, quad_a), (b, quad_b) = _and_quadrature(lambda: norm_result(sp, f)), _and_quadrature(lambda: norm_result(sp, g))
        assert a.diverged == b.diverged
        # the remainder quadratures are good to 1e-8 and see breakpoints shifted by an ulp
        rel = 1e-7 if quad_a or quad_b else 1e-12
        assert a.value == pytest.approx(b.value, rel=rel)

    def test_homogeneity(self):
        f = StepFunction((0.5, 2.0), (3.0, 1.0))
        for flavor in ("lambda", "gamma", "s"):
            sp = LorentzSpace(flavor, 1.5, FLAT)
            assert norm(sp, scale(f, 2.5)) == pytest.approx(2.5 * norm(sp, f), rel=1e-9)

    def test_quasi_triangle_within_doubling_bound(self):
        # for p >= 1 and doubling W the quasi-norm constant is modest
        rng = np.random.default_rng(2)
        sp = LorentzSpace("lambda", 2.0, PowerWeight(0.5))
        for _ in range(10):
            bps1 = tuple(sorted(rng.uniform(0.1, 10.0, 3)))
            bps2 = tuple(sorted(rng.uniform(0.1, 10.0, 3)))
            f = StepFunction(bps1, tuple(rng.uniform(0, 3, 3)))
            g = StepFunction(bps2, tuple(rng.uniform(0, 3, 3)))
            from lorentzk import add

            lhs = norm(sp, add(f, g))
            rhs = norm(sp, f) + norm(sp, g)
            assert lhs <= 4.0 * rhs + 1e-12

    def test_zero_function(self):
        for flavor in ("lambda", "gamma", "s"):
            assert norm(LorentzSpace(flavor, 2.0, FLAT), StepFunction.zero()) == 0.0

    def test_lambda_matches_quadrature(self):
        f = StepFunction((0.5, 2.0, 5.0), (4.0, 2.0, 0.5))
        w = PowerWeight(0.3)
        val = norm(LorentzSpace("lambda", 2.0, w), f)
        ref, _ = quad(lambda s: f(s) ** 2 * s ** 0.3, 0.0, 5.0, points=[0.5, 2.0])
        assert val == pytest.approx(ref ** 0.5, rel=1e-9)

    def test_gamma_matches_quadrature(self):
        f = StepFunction((1.0, 2.0), (2.0, 1.0))
        w = PowerWeight(0.0)
        val = norm(LorentzSpace("gamma", 2.0, w), f)

        def mean(s):
            return f.prefix_integral(s) / s

        head, _ = quad(lambda s: mean(s) ** 2, 0.0, 2.0, points=[1.0])
        tail = 3.0 ** 2 / 2.0  # integral_2^inf (3/s)^2 ds
        assert val == pytest.approx((head + tail) ** 0.5, rel=1e-9)

    def test_powerlog_weight_norm(self):
        f = StepFunction.indicator(2.0)
        w = PowerLogWeight(0.0, 1.0)
        val = norm(LorentzSpace("lambda", 2.0, w), f)
        ref, _ = quad(lambda s: (1.0 + abs(math.log(s))), 0.0, 2.0)
        assert val == pytest.approx(ref ** 0.5, rel=1e-7)

    @pytest.mark.parametrize("flavor", ["lambda", "s", "gamma"])
    def test_powerlog_norm_takes_no_quadrature(self, flavor, monkeypatch):
        # first breakpoint 0.25 < 1 < support end 3: the first cell from 0 and the
        # tail to inf are pieces of ``weights._gamma_tail``, the other cells log panels
        def refuse(*args, **kw):
            raise AssertionError("a power-log norm reached quad")

        monkeypatch.setattr(weights, "quad", refuse)
        f = StepFunction((0.25, 0.5, 3.0), (1.0, 4.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = norm_result(LorentzSpace(flavor, 2.0, PowerLogWeight(0.3, -0.7)), f)
        assert math.isfinite(res.value) and res.value > 0.0 and not res.diverged


def _bits(res):
    return res.value.hex(), res.diverged, res.flags


@st.composite
def functions_and_spaces(draw):
    """The data of a step function of at most 10 cells, with tied values and zero cells, that is
    not non-increasing, and an exponent and a weight under which all three flavors converge."""
    n = draw(st.integers(2, 10))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]), min_size=n, max_size=n))
    bps = tuple(np.cumsum(widths).tolist())
    assume(not StepFunction(bps, values).is_nonincreasing())
    p = draw(st.floats(1.0, 4.0))
    return bps, values, p, draw_weight(draw, "gamma", p)


class TestKeptRearrangement:
    """norm_result rearranges f once and keeps f*: every flavor, in every order, reads it."""

    @settings(max_examples=40, deadline=None)
    @given(functions_and_spaces())
    def test_every_order_of_flavors_gives_the_norms_of_f_star(self, case):
        bps, values, p, w = case
        fstar = rearrange(StepFunction(bps, values))
        want = {flavor: _bits(norm_result(LorentzSpace(flavor, p, w), fstar)) for flavor in ("lambda", "s", "gamma")}
        for order in itertools.permutations(want):
            f = StepFunction(bps, values)
            for flavor in order:
                assert _bits(norm_result(LorentzSpace(flavor, p, w), f)) == want[flavor]

    @pytest.mark.parametrize("f", [StepFunction((1.0, 2.0, 1e16), (1.0, 3.0, 2.0)),
                                   StepFunction((1e-5, 1e16), (1.0, 2.0))], ids=["middle", "short-first"])
    @pytest.mark.parametrize("flavor", ["lambda", "s", "gamma"])
    def test_a_level_below_the_float_spacing(self, f, flavor):
        # its cumulative breakpoint rounds onto the one before: the level is dropped, not an error
        sp = LorentzSpace(flavor, 2.0, PowerWeight(0.5))
        res = norm_result(sp, f)
        assert math.isfinite(res.value) and _bits(res) == _bits(norm_result(sp, rearrange(f)))


class TestDivergenceFlags:
    def test_s_norm_diverges_for_large_beta(self):
        res = norm_result(LorentzSpace("s", 2.0, PowerWeight(1.5)), IND4)
        assert res.diverged and math.isinf(res.value)
        assert "divergent-integral" in res.flags

    def test_gamma_norm_diverges_for_large_beta(self):
        res = norm_result(LorentzSpace("gamma", 2.0, PowerWeight(1.5)), IND4)
        assert res.diverged

    def test_lambda_norm_diverges_for_small_beta(self):
        res = norm_result(LorentzSpace("lambda", 2.0, PowerWeight(-1.5)), IND4)
        assert res.diverged

    def test_lambda_finite_for_large_beta(self):
        res = norm_result(LorentzSpace("lambda", 2.0, PowerWeight(1.5)), IND4)
        assert not res.diverged


class TestInfinityExponent:
    @pytest.mark.parametrize("flavor", ["lambda", "gamma", "s"])
    def test_refused(self, flavor):
        # no weak-type space: a sampled supremum would be wrong wherever the sup peaks between samples or is inf
        with pytest.raises(ValueError, match="exponent p must be positive and finite"):
            LorentzSpace(flavor, math.inf, FLAT)


class TestTruncated:
    def test_head_plus_tail_is_full_power(self):
        f = StepFunction((1.0, 3.0), (2.0, 1.0))
        for flavor in ("lambda", "s", "gamma"):
            sp = LorentzSpace(flavor, 2.0, PowerWeight(0.2))
            t = 1.7
            head = truncated_norm(TruncatedNorm(sp, "head", t), f)
            tail = truncated_norm(TruncatedNorm(sp, "tail", t), f)
            full = norm(sp, f)
            assert head ** 2 + tail ** 2 == pytest.approx(full ** 2, rel=1e-9)

    def test_requires_nonincreasing_input(self):
        f = StepFunction((1.0, 2.0), (1.0, 2.0))
        sp = LorentzSpace("lambda", 2.0, FLAT)
        with pytest.raises(ValueError):
            truncated_norm(TruncatedNorm(sp, "head", 1.0), f)

    def test_truncated_window_restricts_integral(self):
        sp = LorentzSpace("lambda", 1.0, FLAT)
        f = StepFunction((2.0,), (1.0,))
        assert truncated_norm(TruncatedNorm(sp, "head", 1.0), f) == pytest.approx(1.0)
        assert truncated_norm(TruncatedNorm(sp, "tail", 1.0), f) == pytest.approx(1.0)

    def test_divergent_tail_flagged(self):
        sp = LorentzSpace("s", 2.0, PowerWeight(1.5))
        res = truncated_norm_result(TruncatedNorm(sp, "tail", 1.0), IND4)
        assert res.diverged

    def test_finite_head_window_under_divergent_weight(self):
        # the same weight gives a finite truncated head value
        sp = LorentzSpace("s", 2.0, PowerWeight(1.5))
        res = truncated_norm_result(TruncatedNorm(sp, "head", 640.0), IND4)
        assert not res.diverged and res.value > 0.0


class TestTransformIdentity:
    def test_s_norm_as_reciprocal_lambda_full(self):
        left, right = s_lambda_identity_check(IND4, 2.0, FLAT)
        assert left == pytest.approx(2.0, rel=1e-9)
        assert right == pytest.approx(left, rel=1e-7)

    def test_finite_split_point(self):
        f = StepFunction((1.0, 2.0, 6.0), (3.0, 2.0, 0.5))
        for t in (0.5, 2.5, 10.0):
            left, right = s_lambda_identity_check(f, 2.0, PowerWeight(0.4), t)
            assert right == pytest.approx(left, rel=1e-6)

    def test_both_sides_diverge_together(self):
        # w = 1 at p < 1: s^-p w is not integrable at infinity, nor w~ = s^(p-2) at 0
        assert s_lambda_identity_check(IND4, 0.7, FLAT) == (math.inf, math.inf)
        # a window (0, 8) is finite: the tail moment stops at 8, and w~ starts at 1/8
        left, right = s_lambda_identity_check(IND4, 0.7, FLAT, 8.0)
        assert right == pytest.approx(left, rel=1e-13)
        assert left == pytest.approx(transform_side(IND4, 0.7, FLAT, 8.0), rel=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(identity_cases())
    def test_exact_sides_agree(self, case):
        f, p, w, t = case
        left, right = s_lambda_identity_check(f, p, w, t)
        if math.isinf(left) or math.isinf(right):
            assert left == right == math.inf
        else:
            assert right == pytest.approx(left, rel=1e-13, abs=0.0)


class TestGammaEqualsS:
    def test_ratio_at_least_one(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            bps = tuple(sorted(rng.uniform(0.1, 10.0, 4)))
            f = StepFunction(bps, tuple(rng.uniform(0.0, 4.0, 4)))
            if f.is_zero:
                continue
            gam_pow, s_pow = gamma_equals_s_check(f, 2.0, FLAT)
            assert gam_pow >= s_pow - 1e-12

    def test_raises_when_reverse_balance_fails(self):
        with pytest.raises(ValueError, match="reverse B_p"):
            gamma_equals_s_check(IND4, 2.0, PowerWeight(1.5))

    def test_indicator_powered_ratio_is_two(self):
        # gamma^2 = 8 and s^2 = 4, so the squared-norm ratio is exactly 2
        gam_pow, s_pow = gamma_equals_s_check(IND4, 2.0, FLAT)
        assert gam_pow / s_pow == pytest.approx(2.0, rel=1e-9)


class TestDilation:
    def test_dilation_scaling_flat_weight(self):
        # ||f(a .)|| = a^{-1/p} ||f|| in Lambda^p with flat weight
        f = StepFunction((1.0, 2.0), (2.0, 1.0))
        sp = LorentzSpace("lambda", 2.0, FLAT)
        a = 0.5
        lhs = norm(sp, dilate(f, a))
        assert lhs == pytest.approx(a ** (-0.5) * norm(sp, f), rel=1e-12)


@st.composite
def windowed_integrals(draw):
    """A non-increasing step function of at most 10 cells, a flavor, an
    exponent, a weight inside its convergent range and a window."""
    n = draw(st.integers(1, 10))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    # values at least 0.1 apart, so the oscillation is never a rounding residue
    levels = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n, unique=True))
    fstar = StepFunction(tuple(np.cumsum(widths)), tuple(0.1 * k for k in sorted(levels, reverse=True)))
    flavor = draw(st.sampled_from(["lambda", "s", "gamma"]))
    p = draw(st.floats(1.0, 4.0))
    w = draw_weight(draw, flavor, p)
    t = draw(st.floats(0.05, 1.5)) * fstar.support_end
    window = draw(st.sampled_from([(0.0, math.inf), (0.0, t), (t, math.inf)]))
    return fstar, flavor, p, w, window


def _log_quad(integrand, cuts):
    """The integral over (cuts[0], cuts[-1]) by mpmath's tanh-sinh rule on each piece (a, b]
    between the cuts (0 and inf allowed), in t = log(s / c), c = a or, from 0, b: a piecewise
    smooth integrand of a convergent integral decays exponentially in t towards 0 and
    infinity.  Each piece is scaled to about 1, as mpmath's tolerance is absolute, its ends
    in t are exact to rounding in its own width, and s is kept in (a, b], as tanh-sinh
    samples so close to the ends that s could round across a jump: without these, short
    pieces were 3e-11 off."""
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        c = a if a > 0.0 else b

        def in_t(t, c=c, lo=math.nextafter(a, math.inf), hi=b):
            if not -150.0 < t < 150.0:
                return 0.0  # e^-45 below the integrand's scale and beyond
            s = c * math.exp(t)
            return integrand(min(max(s, lo), hi)) * s

        ends = [0.0, math.log1p((b - a) / a)] if a > 0.0 else [-math.inf, 0.0]
        width = ends[1] - ends[0]
        finite = [t for t in (ends[0], sum(ends) / 2, ends[1]) if math.isfinite(t)]
        scale = max(map(in_t, finite)) * (width if math.isfinite(width) else 1.0)
        if scale:
            total += scale * mpmath.quad(lambda t: in_t(t) / scale, ends)
    return float(total)


class TestCellKernel:
    """The cell sums against quadrature of the integrands."""

    def test_gauss_legendre_rule(self):
        for nodes, weights_ in ((_GL_X, _GL_W), (_GL4_X, _GL4_W)):
            x, w = np.polynomial.legendre.leggauss(nodes.size)
            np.testing.assert_allclose(nodes, x, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(weights_, w, rtol=0.0, atol=1e-15)
            for k in range(2 * nodes.size):  # exact up to degree 15 and 7
                assert weights_ @ nodes ** k == pytest.approx((1 + (-1) ** k) / (k + 1), abs=1e-15)

    @pytest.mark.parametrize("flavor", ["lambda", "s", "gamma"])
    def test_a_long_powerlog_norm_matches_the_8_point_panels(self, flavor):
        # 10,000 cells of log-widths 5e-6 to 2.3, 99% of them on one 4-point panel
        rng = np.random.default_rng(3)
        f = StepFunction(tuple(np.cumsum(np.exp(rng.uniform(math.log(0.01), 0.0, 10_000))).tolist()),
                         tuple(rng.uniform(0.1, 10.0, 10_000).tolist()))
        sp = LorentzSpace(flavor, 2.0, PowerLogWeight(0.3, -0.7))
        got = norm(sp, f)
        with mock.patch.object(weights, "_C4", -1.0):  # every piece on 8-point panels
            assert got == pytest.approx(norm(sp, f), rel=1e-15, abs=0.0)

    def test_gamma_nodes_match_the_moments_next_to_the_kink(self):
        # the gamma nodes and the power-log moments share their log panels; at
        # log-width 1 this cell's node sum was 5.1e-10 off
        w = PowerLogWeight(2.0, -2.0)
        x = np.array([1.0 / math.e, 1.0])
        nodes = gamma_nodes(w, x, 0.0, math.inf, 0.0)
        total = sum(weight.sum() for _, _, weight in nodes.groups)
        assert total == pytest.approx(float(w.moment(0.0, x[0], x[1])), rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(windowed_integrals())
    def test_matches_quadrature(self, case):
        fstar, flavor, p, w, (lo, hi) = case
        mean = maximal(fstar)
        if flavor == "lambda":
            integrand = lambda s: fstar(s) ** p * w(s)
        elif flavor == "s":
            integrand = lambda s: max(mean(s) - fstar(s), 0.0) ** p * w(s)  # not below 0 by rounding
        else:
            integrand = lambda s: mean(s) ** p * w(s)
        # f** = f* on the first cell, where rounding would only add noise
        a = max(lo, fstar.first_breakpoint) if flavor == "s" else lo
        b = hi if flavor != "lambda" else min(hi, fstar.support_end)  # beyond the support: (M/s)^p w(s)
        # the pieces between the breakpoints, the tabulated steps and the power-log kink at 1,
        # where the integrand is smooth; the reference must not warn
        jumps = set(fstar.breakpoints.tolist()) | set(TABULATED.step.breakpoints.tolist()) | {1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = _log_quad(integrand, [a, *sorted(x for x in jumps if a < x < b), b]) if a < b else 0.0
        got, quadrature = _and_quadrature(lambda: _powered(flavor, fstar, p, w, lo, hi))
        # a remainder quadrature is good to 1e-8; the closed forms, the incomplete-gamma
        # kernel, the log panels and the gamma node sums to a few ulps each
        rel = 1e-7 if quadrature else 1e-12
        assert got == pytest.approx(ref, rel=rel, abs=1e-300)
