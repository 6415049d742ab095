"""Weight moments, duality, and condition checkers against closed forms."""

import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from lorentzk import weights
from lorentzk import (
    CoupleConfig,
    Grid,
    InvalidWeightError,
    PowerLaw,
    PowerLogWeight,
    PowerWeight,
    ReciprocalWeight,
    StepFunction,
    TabulatedWeight,
    check_bp,
    check_cond1,
    check_cond3,
    check_delta2,
    check_rbp,
    check_sufconds,
    fundamental,
    fundamental_ratio,
    reciprocal_weight,
    tail_diverges_at_zero,
    tail_fundamental,
    tail_fundamental_ratio,
    weight_from_json_dict,
)


class TestMoments:
    def test_power_moment_closed_form(self):
        w = PowerWeight(1.0)
        assert w.moment(0.0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert w.moment(-2.0, 1.0, math.inf) == pytest.approx(math.inf)
        assert w.moment(-3.0, 1.0, math.inf) == pytest.approx(1.0, rel=1e-14)

    def test_power_log_branch(self):
        w = PowerWeight(-1.0)
        assert w.moment(0.0, 1.0, math.e) == pytest.approx(1.0, rel=1e-12)
        assert math.isinf(w.moment(0.0, 0.0, 1.0))
        # one ulp off the borderline the difference of powers must not cancel
        near = PowerWeight(math.nextafter(-1.0, -2.0))
        assert near.moment(0.0, 1.0, 2.0) == pytest.approx(math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("q", [-3.0, -1.5, -1.0005, -1.0, -0.9995, 0.5, 2.0])
    @pytest.mark.parametrize("a", [0.7, 3.0])
    def test_power_moment_of_a_narrow_pair_matches_mpmath(self, q, a):
        # b / a - 1 = 1e-12: a difference of two powers, or log(b / a), would
        # keep only about 4 of the 16 digits
        b = a * (1.0 + 1e-12)
        with mpmath.workdps(40):
            lo, hi = mpmath.mpf(a), mpmath.mpf(b)
            want = mpmath.log(hi / lo) if q == -1.0 else (hi ** (q + 1) - lo ** (q + 1)) / (q + 1)
        assert float(PowerWeight(q).moment(0.0, a, b)) == pytest.approx(float(want), rel=1e-14, abs=0.0)

    def test_primitive_raises_when_divergent(self):
        with pytest.raises(InvalidWeightError):
            PowerWeight(-1.5).primitive(1.0)
        assert PowerWeight(0.5).primitive(4.0) == pytest.approx(4.0 ** 1.5 / 1.5, rel=1e-14)

    def test_powerlog_moment_matches_quad(self):
        w = PowerLogWeight(0.5, 1.0)
        val = w.moment(0.0, 0.5, 3.0)
        ref, _ = quad(lambda s: s ** 0.5 * (1.0 + abs(math.log(s))) ** 1.0, 0.5, 3.0)
        assert val == pytest.approx(ref, rel=1e-8)

    def test_powerlog_improper_tail_converges(self):
        w = PowerLogWeight(0.0, 2.0)
        # integral_1^inf s^{-3} (1+log s)^2 ds is finite
        val = w.moment(-3.0, 1.0, math.inf)
        ref, _ = quad(lambda u: u * (1.0 + abs(math.log(1.0 / u))) ** 2, 0.0, 1.0)
        assert val == pytest.approx(ref, rel=1e-7)

    def test_powerlog_divergence_classified(self):
        w = PowerLogWeight(0.0, 1.0)
        assert math.isinf(w.moment(-1.0, 1.0, math.inf))

    def test_tabulated_exact(self):
        w = TabulatedWeight(StepFunction((1.0, 2.0), (2.0, 1.0)))
        assert w.moment(0.0, 0.0, 2.0) == pytest.approx(3.0, rel=1e-14)
        assert w.moment(1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert w.moment(0.0, 2.0, math.inf) == 0.0


def _scalar_power_int(q: float, a: float, b: float) -> float:
    """The scalar power primitive that the array one replaced, kept as the reference."""
    if a < 0.0 or b < a:
        raise ValueError("need 0 <= a <= b")
    if a == b:
        return 0.0
    if q == -1.0:
        if a == 0.0 or math.isinf(b):
            return math.inf
        return math.log(b / a)
    qp = q + 1.0
    if math.isinf(b):
        if qp > 0.0:
            return math.inf
        return -(a ** qp) / qp
    if a == 0.0:
        if qp < 0.0:
            return math.inf
        return (b ** qp) / qp
    if abs(qp) < 1e-3:
        return a ** qp * math.expm1(qp * math.log(b / a)) / qp
    return (b ** qp - a ** qp) / qp


def _scalar_moment(w, e: float, a: float, b: float) -> float:
    """One pair's moment of a power, tabulated or reciprocal weight, as the
    scalar moments computed it: per table cell, and through the reciprocal edges."""
    if a == b:  # the scalar reciprocal moment divided by zero at a = b = 0
        return 0.0
    if isinstance(w, PowerWeight):
        try:
            return _scalar_power_int(w.beta + e, a, b)
        except ZeroDivisionError:  # 0.0 ** (q + 1) < 0 at a = 0, b = inf: divergent
            return math.inf
    if isinstance(w, ReciprocalWeight):
        lo = 0.0 if math.isinf(b) else 1.0 / b
        hi = math.inf if a == 0.0 else 1.0 / a
        return _scalar_moment(w.base, -e - w.p, lo, hi)
    bps = w.step.breakpoints.tolist()
    total = 0.0
    for l, h, v in zip([0.0] + bps[:-1], bps, w.step.values.tolist()):
        l, h = max(l, a), min(h, b)
        if v != 0.0 and l < h:
            piece = _scalar_power_int(e, l, h)
            if math.isinf(piece):
                return math.inf
            total += v * piece
    return total


# Points a factor 2^(1/4) apart (table edges are powers of 2, so reciprocal
# edges stay apart too) and exponents on a quarter lattice keep the difference
# of powers well conditioned: numpy's and libm's pow may differ in the last
# bit, which a near-cancelling difference would magnify.  Exponents within
# 1e-3 of -1 take the expm1 branch, which does not cancel.
_POINTS = st.one_of(st.sampled_from([0.0, math.inf]), st.integers(-24, 24).map(lambda k: 2.0 ** (k / 4)))
_EXPONENTS = st.one_of(
    st.integers(-16, 12).map(lambda k: k / 4), st.floats(-9.9e-4, 9.9e-4).map(lambda d: -1.0 + d)
)
_SHAPES = st.sampled_from([(), (6,), (2, 3)])
_PAIRS = st.lists(st.tuples(_POINTS, _POINTS), min_size=6, max_size=6)
_TABLE = TabulatedWeight(StepFunction((0.5, 1.0, 4.0), (2.0, 0.0, 1.5)))
_FAMILIES = {
    "power": PowerWeight,
    "tabulated": lambda beta: _TABLE,
    "reciprocal": lambda beta: ReciprocalWeight(_TABLE, 2.0),
    "reciprocal-power": lambda beta: ReciprocalWeight(PowerWeight(beta), 3.0),
}


# a norm-workload-shaped call: the first cell from 0 (a quadrature), 2,000
# finite cells across s = 1 (the log panels) and the tail to inf (a quadrature)
_EDGES = (0.05 * 1.005 ** np.arange(2001)).tolist()
_NORM_CELLS = [(0.0, _EDGES[0])] + list(zip(_EDGES, _EDGES[1:])) + [(_EDGES[-1], math.inf)]


def _intervals(pairs, shape):
    pairs = pairs[: math.prod(shape)]
    a = np.array([min(x, y) for x, y in pairs]).reshape(shape)
    b = np.array([max(x, y) for x, y in pairs]).reshape(shape)
    return a, b


class TestArrayMoment:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @settings(max_examples=150, deadline=None)
    @given(beta=_EXPONENTS, e=_EXPONENTS, pairs=_PAIRS, shape=_SHAPES)
    # a = 0 with q + 1 in (0, 1e-3): the expm1 branch must not form 0 * inf
    @example(beta=0.0, e=-0.9995, pairs=[(0.0, 2.0), (0.0, 0.25), (0.0, 8.0)] * 2, shape=(6,))
    @example(beta=-0.9995, e=0.0, pairs=[(0.0, 2.0)] * 6, shape=())
    # q = -1: the logarithm, divergent at both ends
    @example(beta=0.0, e=-1.0, pairs=[(0.5, 2.0), (0.0, 1.0), (1.0, math.inf)] * 2, shape=(2, 3))
    # b = inf: a finite tail and a divergent one
    @example(beta=0.0, e=-3.0, pairs=[(1.0, math.inf), (0.0, math.inf), (4.0, math.inf)] * 2, shape=(6,))
    @example(beta=0.5, e=0.0, pairs=[(2.0, math.inf)] * 6, shape=())
    # a == b, at 0, inside and at inf
    @example(beta=0.5, e=-2.0, pairs=[(2.0, 2.0), (0.0, 0.0), (math.inf, math.inf)] * 2, shape=(2, 3))
    def test_matches_the_scalar_moments(self, family, beta, e, pairs, shape):
        w = _FAMILIES[family](beta)
        a, b = _intervals(pairs, shape)
        got = np.asarray(w.moment(e, a, b))
        assert got.shape == shape and got.dtype == np.float64
        want = np.array([_scalar_moment(w, e, x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())])
        np.testing.assert_allclose(got, want.reshape(shape), rtol=1e-13, atol=0.0)

    @settings(max_examples=15, deadline=None)
    @given(beta=_EXPONENTS, gamma=st.integers(-4, 4).map(lambda k: k / 4), pairs=_PAIRS, shape=_SHAPES)
    @example(beta=-0.5, gamma=1.0, pairs=[(0.0, 2.0), (1.0, math.inf), (2.0, 2.0)] * 2, shape=(2, 3))
    @example(beta=0.5, gamma=0.75, pairs=_NORM_CELLS, shape=(len(_NORM_CELLS),))
    def test_powerlog_matches_its_pairs_exactly(self, beta, gamma, pairs, shape):
        w = PowerLogWeight(beta, gamma)
        a, b = _intervals(pairs, shape)
        got = w.moment(-1.0, a, b)
        want = [float(w.moment(-1.0, x, y)) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
        assert got.shape == shape
        np.testing.assert_array_equal(got.ravel(), want)

    def test_broadcast_and_validation(self):
        # a of shape (3,) against b of shape (2, 1): integral_a^b s^0.5 ds = (b^1.5 - a^1.5) / 1.5
        a, b = np.array([0.0, 1.0, 4.0]), np.array([[4.0], [9.0]])
        want = [[16.0 / 3.0, 14.0 / 3.0, 0.0], [18.0, 52.0 / 3.0, 38.0 / 3.0]]
        for w in (PowerWeight(0.5), ReciprocalWeight(PowerWeight(-1.5), 1.0)):
            np.testing.assert_allclose(w.moment(0.0, a, b), want, rtol=1e-14)
        assert PowerLogWeight(0.5, 1.0).moment(0.0, a, b).shape == (2, 3)
        with pytest.raises(ValueError, match="0 <= a <= b"):
            w.moment(0.0, np.array([1.0, 3.0]), 2.0)
        with pytest.raises(ValueError, match="0 <= a <= b"):
            TabulatedWeight(StepFunction((1.0,), (1.0,))).moment(0.0, -1.0, 2.0)


def _dense_tabulated_moment(w: TabulatedWeight, e: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pairs x cells form that the prefix sums replaced: every pair clipped to every live cell."""
    bps = w.step.breakpoints
    live = w.step.values != 0.0
    lo = np.maximum(a[..., None], np.concatenate(([0.0], bps[:-1]))[live])
    hi = np.maximum(np.minimum(b[..., None], bps[live]), lo)
    with np.errstate(over="ignore"):  # a moment above the largest float is inf
        return weights._power_int(e, lo, hi) @ w.step.values[live]


class TestTabulatedMoment:
    """``TabulatedWeight.moment`` by prefix sums over the whole cells of each pair."""

    @settings(max_examples=100, deadline=None)
    @given(
        widths=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=12),
        values=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=12, max_size=12),
        e=_EXPONENTS,
        pairs=st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, math.inf]), st.floats(0.0, 40.0))] * 2),
                       min_size=1, max_size=8),
    )
    # a subnormal left end: the true moment 2 (1/a - 1) is above the largest float, so inf
    @example(widths=[1.0], values=[2.0] + [0.0] * 11, e=-2.0, pairs=[(1.1125369292536007e-308, 1.0)])
    def test_matches_the_dense_form(self, widths, values, e, pairs):
        bps = np.cumsum(widths)
        vals = values[: bps.size]
        assume(any(vals))
        w = TabulatedWeight(StepFunction(tuple(bps), tuple(vals)))
        a = np.array([min(x, y) for x, y in pairs])
        b = np.array([max(x, y) for x, y in pairs])
        got, want = w.moment(e, a, b), _dense_tabulated_moment(w, e, a, b)
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("e", [-2.0, -3.0])
    def test_a_decaying_table_keeps_its_tail_cells(self, e):
        """Cells that shrink to the right: each pair's sum rounds relative to its
        own moment, not to the cells before it (a difference of prefix sums
        loses the tail cells altogether here)."""
        w = TabulatedWeight(StepFunction((1.0, 2.0, 3.0, 4.0), (1.0, 1.0, 1e-20, 1e-20)))
        # the cells (2, 3] and (3, 4] of 1e-20, and 0 beyond 4
        want = 1e-20 * float(weights._power_int(e, 2.5, 4.0))
        np.testing.assert_allclose(w.moment(e, 2.5, math.inf), want, rtol=1e-14)
        n = 40
        bps = np.geomspace(1.0, 1e4, n)
        decay = TabulatedWeight(StepFunction(tuple(bps), tuple(10.0 ** -np.arange(n))))
        a = np.concatenate(([0.5], bps[:-1] * 1.01, bps[: n // 2]))
        b = np.concatenate(([math.inf], np.full(n - 1, math.inf), bps[n // 2 :] * 0.99))
        got, dense = decay.moment(e, a, b), _dense_tabulated_moment(decay, e, a, b)
        assert (got > 0.0).all()
        np.testing.assert_allclose(got, dense, rtol=1e-13, atol=0.0)

    def test_whole_cells_above_the_largest_float_are_inf(self):
        """A cell on tiny breakpoints whose moment is above the largest float
        (4 (1/1e-308 - 1/2e-308) = 2e308) is inf, with no overflow warning,
        and reaches only the pairs that hold it whole; a zero cell whose piece
        is infinite (s^-3 on (1e-300, 1e-200]) carries 0, not nan."""
        w = TabulatedWeight(StepFunction((1e-308, 2e-308, 1.0), (1.0, 4.0, 1.0)))
        got = w.moment(-2.0, np.array([0.5e-308, 0.5]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(got, [math.inf, 1.0])
        gap = TabulatedWeight(StepFunction((1e-300, 1e-200, 1.0), (1.0, 0.0, 1.0)))
        np.testing.assert_array_equal(gap.moment(-3.0, np.array([1e-310, 0.5]), np.array([2.0, 2.0])),
                                      [math.inf, 1.5])

    def test_a_divergent_first_cell_reaches_only_the_pairs_that_touch_it(self):
        w = TabulatedWeight(StepFunction((1.0, 2.0, 4.0), (3.0, 0.0, 2.0)))
        a = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 0.0])
        b = np.array([3.0, 1.0, 4.0, math.inf, 3.0, 0.0])
        got = w.moment(-1.5, a, b)
        # s^-1.5 integrates to 2 (x^-0.5 - y^-0.5); the cell (1, 2] carries 0
        want = [math.inf, 3.0 * 2.0 * (0.5**-0.5 - 1.0), 2.0 * 2.0 * (2.0**-0.5 - 0.5), 2.0 * 2.0 * (2.0**-0.5 - 0.5),
                2.0 * 2.0 * (2.0**-0.5 - 3.0**-0.5), 0.0]
        np.testing.assert_allclose(got, want, rtol=1e-14)


def _mpmath_powerlog_moment(beta: float, gamma: float, e: float, a: float, b: float) -> float:
    """integral_a^b s^(beta + e) (1 + |log s|)^gamma ds by mpmath.quad in u = log s
    (30 digits), split at u = 0 and at every integer u in between, the integrand scaled
    to its largest value at the ends and the middle times the width (mpmath's tolerance
    is absolute: a moment of 6e-29 was 3.6e-14 off)."""
    with mpmath.workdps(30):
        lo, hi, q1 = mpmath.log(a), mpmath.log(b), mpmath.mpf(beta) + e + 1
        cuts = [lo] + [mpmath.mpf(k) for k in range(math.floor(lo) + 1, math.ceil(hi))] + [hi]
        f = lambda u: mpmath.exp(q1 * u) * (1 + abs(u)) ** gamma
        scale = max(f(lo), f((lo + hi) / 2), f(hi)) * (hi - lo)
        return float(scale * mpmath.quad(lambda u: f(u) / scale, cuts))


def _mpmath_powerlog_from_0(beta: float, gamma: float, e: float, b: float) -> float:
    """integral_0^b s^(beta + e) (1 + |log s|)^gamma ds for b > 1 (30 digits): over (0, 1],
    in v = 1 - log s, e^k k^(-gamma-1) Gamma(gamma + 1, k) with k = beta + e + 1 > 0 (1 / (-gamma - 1)
    at k = 0), plus ``_mpmath_powerlog_moment`` over (1, b)."""
    with mpmath.workdps(30):
        k, g = mpmath.mpf(beta) + e + 1, mpmath.mpf(gamma)
        head = 1 / (-g - 1) if k == 0 else mpmath.exp(k) * k ** (-g - 1) * mpmath.gammainc(g + 1, k)
        return float(head + _mpmath_powerlog_moment(beta, gamma, e, 1.0, b))


class TestPanelMoments:
    """Finite power-log pairs, 0 < a < b < inf, and the remainder (1, b) of a pair
    from 0 by the log-panel Gauss-Legendre sums: against mpmath, and never through
    ``quad``."""

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.floats(-0.9, 2.0),
        gamma=st.floats(-2.0, 3.0),
        e=st.sampled_from([0.0, -1.5, -2.0, -3.0, -4.0]),
        log_a=st.floats(-15.0, 12.0),
        log_ratio=st.floats(-9.0, math.log10(25.0)),
    )
    @example(beta=0.5, gamma=-1.55, e=0.0, log_a=math.log(3.0), log_ratio=-9.0)  # b / a - 1 = 1e-9
    @example(beta=-0.5, gamma=-1.55, e=-1.5, log_a=math.log(0.25), log_ratio=math.log10(math.log(20.0)))
    @example(beta=-0.9, gamma=2.5, e=0.0, log_a=-15.0, log_ratio=math.log10(25.0))  # 25 e-folds from e^-15
    # (1/e, 1], where (1 + |log s|)^gamma bends most; two panels of log-width 0.5 were off by
    # 7.5e-14 at gamma = -2, 5.3e-13 at -3 and 1.1e-11 at -5
    @example(beta=2.0, gamma=-2.0, e=0.0, log_a=-1.0, log_ratio=0.0)
    @example(beta=2.0, gamma=-3.0, e=0.0, log_a=-1.0, log_ratio=0.0)
    @example(beta=2.0, gamma=-5.0, e=0.0, log_a=-1.0, log_ratio=0.0)
    @example(beta=2.0, gamma=-8.0, e=0.0, log_a=-1.0, log_ratio=0.0)
    def test_matches_mpmath(self, beta, gamma, e, log_a, log_ratio):
        a = math.exp(log_a)
        b = a * math.exp(10.0 ** log_ratio)
        got = float(PowerLogWeight(beta, gamma).moment(e, a, b))
        # the nodes' rounding, times beta + e + 1 in e^{(beta + e + 1) log s}, reaches 1e-14 on wide pairs
        assert got == pytest.approx(_mpmath_powerlog_moment(beta, gamma, e, a, b), rel=2e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(-5.0, 5.0),
        gamma=st.floats(-5.0, 5.0),
        p=st.one_of(st.just(0.0), st.floats(1.0, 4.0)),
        pairs=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)), min_size=1, max_size=8),
    )
    def test_each_pair_matches_the_8_point_panels_alone(self, beta, gamma, p, pairs):
        # log a, and the log-width as 10^r times the 4-point limit c4 / K, on both sides of it
        # (r = 0) and of s = 1, up to several 8-point panels
        w, e = PowerLogWeight(beta, gamma), -p
        a = np.exp([la for la, _ in pairs])
        b = a * np.exp(10.0 ** np.array([r for _, r in pairs]) * weights._C4 / w._log_scale(e))
        got = w.moment(e, a, b)
        assert got.tolist() == [float(w.moment(e, x, y)) for x, y in zip(a, b)]  # bit for bit
        # both sums carry the rounding of the nodes u = log s, times beta + e + 1 in e^{(beta + e + 1) u}
        rounding = max(1.0, abs(beta + e + 1.0) * float(np.abs(np.log(np.append(a, b))).max()))
        with mock.patch.object(weights, "_C4", -1.0):  # every piece on 8-point panels
            np.testing.assert_allclose(got, w.moment(e, a, b), rtol=1e-15 * rounding, atol=0.0)

    @pytest.mark.parametrize("beta, gamma, a, b", [(0.0, 0.0, 1e-310, 1.0), (0.5, 1.0, 1e-310, 2.0)])
    def test_subnormal_left_end(self, beta, gamma, a, b):
        # b / a overflows a float, so the pair's log-width is log b - log a
        got = float(PowerLogWeight(beta, gamma).moment(0.0, a, b))
        assert got == pytest.approx(_mpmath_powerlog_moment(beta, gamma, 0.0, a, b), rel=1e-12)

    def test_finite_pairs_call_no_quad(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a finite power-log pair reached quad")

        monkeypatch.setattr(weights, "quad", refuse)
        x = np.geomspace(1e-3, 1e3, 50)
        got = PowerLogWeight(0.5, 1.0).moment(-2.0, x[:-1], x[1:])
        assert got.shape == (49,) and (got > 0.0).all() and np.isfinite(got).all()

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.floats(-0.9, 2.0),
        gamma=st.floats(-2.0, 3.0),
        e=st.sampled_from([0.0, -1.5, -2.0, -3.0]),
        b=st.floats(1.0, 1e20, exclude_min=True),
    )
    @example(beta=0.5, gamma=1.0, e=0.0, b=math.nextafter(1.0, math.inf))
    @example(beta=-0.9, gamma=-2.0, e=0.0, b=1.0 + 1e-12)
    @example(beta=1.2, gamma=2.5, e=-2.0, b=2e6)
    @example(beta=0.7, gamma=-0.5, e=-1.5, b=1e20)
    @example(beta=2.0, gamma=3.0, e=0.0, b=1e20)  # the widest growth: (beta + e + 1) log b = 138
    @example(beta=2.0, gamma=-1.5, e=-3.0, b=1e20)  # q = -1 with gamma < -1: the kernel's closed form
    @example(beta=2.0, gamma=-0.5, e=-3.0, b=2e6)  # q = -1 with gamma >= -1: divergent
    def test_pairs_from_0_past_1_match_mpmath(self, beta, gamma, e, b):
        # (0, 1] by ``_gamma_tail``, (1, b) on log panels; k = beta + e + 1 decides convergence at 0
        k = beta + e + 1.0
        got = float(PowerLogWeight(beta, gamma).moment(e, 0.0, b))
        if k < 0.0 or k == 0.0 <= gamma + 1.0:
            assert got == math.inf
            return
        # 2e-14 as for the finite pairs, and beyond it two float spacings per unit of k log b: the
        # rounding of the nodes u = log s, times k in e^{k u} (2.7e-14 at b = 1e19, beta = 1.99, e = 0)
        rel = max(2e-14, 4.4e-16 * k * math.log(b))
        assert got == pytest.approx(_mpmath_powerlog_from_0(beta, gamma, e, b), rel=rel)

    def test_pairs_from_0_past_1_call_no_quad(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a power-log pair from 0 reached quad")

        monkeypatch.setattr(weights, "quad", refuse)
        w, t = PowerLogWeight(0.5, 1.0), np.geomspace(1e-6, 1e20, 27)
        W = w.moment(0.0, 0.0, t)
        assert (W > 0.0).all() and np.isfinite(W).all() and (np.diff(W) > 0.0).all()
        assert [w.primitive(x) for x in t.tolist()] == W.tolist()
        assert fundamental(w, 2.0)(1e6) == math.sqrt(w.primitive(1e6))
        assert check_delta2(w).holds


def _mpmath_gamma_tail(kappa: float, gamma: float, v0: float) -> float:
    """integral_{v0}^inf e^{-kappa (v - 1)} v^gamma dv by mpmath.quad (30 digits): in
    v = v0 + r, e^{-kappa (v0 - 1)} v0^gamma times the integral of e^{-kappa r}
    (1 + r / v0)^gamma, split at r = {0.1, 1, 10, 100} / kappa (mpmath's tolerance
    is absolute, so the integrand is scaled to be 1 at r = 0)."""
    with mpmath.workdps(30):
        k, g, v = mpmath.mpf(kappa), mpmath.mpf(gamma), mpmath.mpf(v0)
        if kappa == 0.0:
            return float(mpmath.quad(lambda x: x ** g, [v, mpmath.inf]))
        cuts = [0] + [mpmath.mpf(d) / k for d in (0.1, 1, 10, 100)] + [mpmath.inf]
        inner = mpmath.quad(lambda r: mpmath.exp(-k * r) * (1 + r / v) ** g, cuts)
        return float(mpmath.exp(-k * (v - 1)) * v ** g * inner)


class TestGammaTail:
    """The kernel of the power-log pieces from 0 and to inf, G(kappa, gamma, v0) =
    integral_{v0}^inf e^{-kappa (v - 1)} v^gamma dv, against mpmath."""

    @settings(max_examples=60, deadline=None)
    @given(kappa=st.floats(1e-12, 10.0), gamma=st.floats(-3.0, 3.0), v0=st.floats(1.0, 700.0))
    @example(kappa=1e-12, gamma=-2.0, v0=1.0)  # lam = 1e-12: 58 log panels before the unit ones
    @example(kappa=0.0, gamma=-2.0, v0=1.0)
    @example(kappa=0.0, gamma=-1.5, v0=300.0)
    @example(kappa=1.05, gamma=3.0, v0=700.0)  # G near the smallest normal float
    def test_matches_mpmath(self, kappa, gamma, v0):
        got = float(weights._gamma_tail(kappa, gamma, np.array([v0]))[0])
        # below the smallest normal float only the absolute error is small
        assert got == pytest.approx(_mpmath_gamma_tail(kappa, gamma, v0), rel=1e-13, abs=1e-320)

    @pytest.mark.parametrize(
        "beta, gamma, e, a, b",
        [(0.5, 1.0, 0.0, 0.0, 0.3), (-0.9, -0.5, 0.0, 0.0, 1.0), (0.0, -2.0, -1.0, 0.0, 1e-3),
         (0.5, 1.0, -2.0, 1.0, math.inf), (-0.5, 0.5, -2.0, 40.0, math.inf), (0.0, -2.0, -1.0, 1e3, math.inf)],
    )
    def test_unbounded_pieces_are_the_kernel(self, beta, gamma, e, a, b):
        # (0, a] is G(q + 1, gamma, 1 - log a) and [b, inf) is G(-q - 1, gamma, 1 + log b)
        q = beta + e
        want = (_mpmath_gamma_tail(q + 1.0, gamma, 1.0 - math.log(b)) if a == 0.0
                else _mpmath_gamma_tail(-q - 1.0, gamma, 1.0 + math.log(a)))
        assert float(PowerLogWeight(beta, gamma).moment(e, a, b)) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("side", ["from 0", "to inf"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["gamma+1<0", "gamma+1>0"])
    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.floats(0.05, 2.9),
        gap=st.floats(0.05, 2.0),
        e=st.floats(-3.0, 1.0),
        near=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=3),
        far=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        finite=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.01, 5.0)), max_size=3),
        past=st.lists(st.floats(0.0, 46.0), max_size=3),
    )
    def test_an_unbounded_pair_alone_is_its_entry_in_a_batch(self, side, sign, kappa, gap, e, near, far, finite,
                                                             past):
        # the piece from 0 (to inf) has kappa = q + 1 (-q - 1) and starts at v0 = 1 - log b (1 + log a);
        # each v0 lies below 3 / kappa (the kernel's log panels) or above it (unit panels only)
        q, gamma = (kappa - 1.0 if side == "from 0" else -kappa - 1.0), -1.0 + sign * gap
        v0 = np.array([1.0 + (3.0 / kappa - 1.0) * t for t in near] + [3.0 / kappa * (1.001 + 10.0 * t) for t in far])
        edge = np.exp(1.0 - v0) if side == "from 0" else np.exp(v0 - 1.0)
        zero, inf = np.zeros(edge.size), np.full(edge.size, math.inf)
        a, b = (zero, edge) if side == "from 0" else (edge, inf)
        # with finite pairs, pairs from 0 past s = 1 (kernel and log panels; divergent to inf), a piece
        # of the other side (divergent here) and an empty pair
        lo, beyond = np.exp([x for x, _ in finite]), np.nextafter(np.exp(past), math.inf)
        a = np.concatenate((a, lo, np.zeros(beyond.size), [1.0 if side == "from 0" else 0.0, 2.0]))
        b = np.concatenate((b, lo * np.exp([y for _, y in finite]), beyond,
                            [math.inf if side == "from 0" else 1.0, 2.0]))
        w = PowerLogWeight(q - e, gamma)
        batch = w.moment(e, a, b)
        alone = np.array([float(w.moment(e, x, y)) for x, y in zip(a, b)])
        assert batch.tobytes() == alone.tobytes()  # bit for bit

    def test_pieces_from_0_and_to_inf_call_no_quad(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("an unbounded power-log piece reached quad")

        monkeypatch.setattr(weights, "quad", refuse)
        w = PowerLogWeight(0.5, -0.5)
        t = np.geomspace(1e-6, 1.0, 7)
        assert (w.moment(0.0, 0.0, t) > 0.0).all() and (w.moment(-3.0, 1.0 / t, math.inf) > 0.0).all()
        # q = -1 with gamma < -1 converges on both sides: 1 / (-gamma - 1) each
        assert float(PowerLogWeight(0.0, -3.0).moment(-1.0, 0.0, math.inf)) == pytest.approx(1.0, rel=1e-15)


class TestReciprocal:
    def test_power_maps_to_power(self):
        w = reciprocal_weight(PowerWeight(0.5), 2.0)
        assert isinstance(w, PowerWeight)
        assert w.beta == pytest.approx(2.0 - 2.0 - 0.5)

    def test_involution(self):
        for beta in (-0.5, 0.0, 1.2):
            for p in (1.5, 2.0, 3.0):
                w = PowerWeight(beta)
                back = reciprocal_weight(reciprocal_weight(w, p), p)
                assert isinstance(back, PowerWeight)
                assert back.beta == pytest.approx(beta, rel=1e-14)

    def test_powerlog_keeps_log_exponent(self):
        w = reciprocal_weight(PowerLogWeight(0.5, 2.0), 2.0)
        assert isinstance(w, PowerLogWeight)
        assert w.beta == pytest.approx(-0.5) and w.gamma == pytest.approx(2.0)

    def test_moment_substitution_identity(self):
        base = TabulatedWeight(StepFunction((0.5, 2.0), (1.0, 3.0)))
        p = 2.0
        w = reciprocal_weight(base, p)
        assert isinstance(w, ReciprocalWeight)
        # integral_a^b s^e wtilde(s) ds with wtilde(s) = s^{p-2} base(1/s),
        # reference values computed by hand piecewise
        cases = (
            (0.0, 0.25, 1.0, 1.5),
            (1.0, 0.5, 4.0, 11.625),
            (-p, 0.5, math.inf, 5.0),
        )
        for e, a, b, expect in cases:
            assert w.moment(e, a, b) == pytest.approx(expect, rel=1e-12)

    def test_pointwise_density(self):
        base = PowerWeight(0.5)
        w = ReciprocalWeight(base, 2.0)
        assert w(2.0) == pytest.approx(2.0 ** (2.0 - 2.0) * base(0.5), rel=1e-14)
        # the vectorized values match the scalar ones, on the steps and between them
        table = TabulatedWeight(StepFunction((0.5, 2.0), (1.0, 3.0)))
        s = np.array([0.1, 0.5, 0.7, 1.0, 2.0, 3.0])
        for v in (w, PowerLogWeight(0.5, -0.7), table, ReciprocalWeight(table, 3.0)):
            np.testing.assert_allclose(v.at(s), [v(x) for x in s], rtol=1e-14)
        assert ReciprocalWeight(table, 3.0).kinks() == (0.5, 2.0)


class TestFundamentals:
    def test_tail_fundamental_power_closed_form(self):
        psi = tail_fundamental(PowerWeight(0.0), 2.0)
        assert isinstance(psi, PowerLaw)
        assert psi(4.0) == pytest.approx((1.0 / 4.0) ** 0.5, rel=1e-14)

    def test_tail_fundamental_raises_for_divergent(self):
        with pytest.raises(InvalidWeightError):
            tail_fundamental(PowerWeight(1.5), 2.0)

    def test_fundamental_power(self):
        phi = fundamental(PowerWeight(1.0), 2.0)
        assert phi(2.0) == pytest.approx((2.0 ** 2 / 2.0) ** 0.5, rel=1e-14)
        with pytest.raises(InvalidWeightError):
            fundamental(PowerWeight(-1.0), 2.0)

    def test_tail_fundamental_quadrature_matches_power(self):
        # same weight through the quadrature path via a tabulated-free family
        w_log = PowerLogWeight(0.0, 0.0)  # equals the flat power weight
        psi_q = tail_fundamental(w_log, 2.0)
        psi_c = tail_fundamental(PowerWeight(0.0), 2.0)
        for t in (0.5, 1.0, 3.0):
            assert psi_q(t) == pytest.approx(psi_c(t), rel=1e-7)

    def test_theta_ratio_corollary_couple(self):
        cfg = CoupleConfig(2.0, PowerWeight(0.0), 2.0, PowerWeight(-1.0))
        theta = tail_fundamental_ratio(cfg)
        # theta(t) = ((p-1+alpha)/(p-1))^{1/p} t^{alpha/p} with p=2, alpha=1
        for t in (0.5, 1.0, 4.0):
            assert theta(t) == pytest.approx(math.sqrt(2.0) * math.sqrt(t), rel=1e-12)

    def test_theta_beyond_a_tabulated_support(self):
        # psi of the table vanishes from its last step on: x / 0 reads inf, 0 / 0 reads 0
        tab = TabulatedWeight(StepFunction((1.0, 2.0, 5.0), (1.0, 0.5, 2.0)))
        theta = tail_fundamental_ratio(CoupleConfig(2.0, PowerWeight(0.0), 2.0, tab))
        assert 0.0 < theta(4.0) < math.inf
        assert theta(5.0) == theta(6.0) == math.inf
        assert tail_fundamental_ratio(CoupleConfig(2.0, tab, 3.0, tab))(6.0) == 0.0

    def test_power_couples_keep_power_laws(self):
        cfg = CoupleConfig(2.0, PowerWeight(0.0), 3.0, PowerWeight(-0.5))
        assert isinstance(fundamental_ratio(cfg), PowerLaw)
        assert isinstance(tail_fundamental_ratio(cfg), PowerLaw)
        assert check_cond1(cfg).method == "closed-form"
        assert check_cond3(cfg, 0.5).method == "closed-form"


class TestConditionCheckers:
    def test_bp_closed_form_constant(self):
        v = check_bp(PowerWeight(0.5), 2.0)
        assert v.holds and v.method == "closed-form"
        assert v.constant == pytest.approx(1.5 / 0.5, rel=1e-14)

    def test_bp_fails_at_boundary(self):
        assert not check_bp(PowerWeight(1.0), 2.0).holds
        assert not check_bp(PowerWeight(2.0), 2.0).holds

    def test_rbp_closed_form_constant(self):
        v = check_rbp(PowerWeight(0.5), 2.0)
        assert v.holds
        assert v.constant == pytest.approx(0.5 / 1.5, rel=1e-14)

    def test_rbp_fails_for_divergent_tail(self):
        assert not check_rbp(PowerWeight(1.5), 2.0).holds

    def test_delta2_constant(self):
        v = check_delta2(PowerWeight(0.5))
        assert v.holds
        assert v.constant == pytest.approx(2.0 ** 1.5, rel=1e-14)

    def test_delta2_tabulated_grid(self):
        w = TabulatedWeight(StepFunction((1.0,), (1.0,)))
        v = check_delta2(w)
        assert v.holds and v.method == "grid"
        assert v.constant == pytest.approx(2.0, rel=1e-6)

    def test_weight_vanishing_near_zero(self):
        # W(t) = 0 for t <= 1: a ratio x / 0 reads inf for x > 0 and 0 for x = 0
        w = TabulatedWeight(StepFunction((1.0, 2.0), (0.0, 1.0)))
        bp, delta2 = check_bp(w, 2.0), check_delta2(w)
        assert not bp.holds and bp.constant == math.inf and bp.witness_t == 1e-6
        assert not delta2.holds and delta2.constant == math.inf
        assert 0.5 < delta2.witness_t <= 1.0
        assert not check_rbp(w, 2.0).holds

    def test_grid_matches_closed_form(self):
        for beta in (-0.5, 0.0, 0.7):
            closed = check_bp(PowerWeight(beta), 2.0, method="closed-form")
            grid = check_bp(PowerWeight(beta), 2.0, method="grid")
            assert closed.holds == grid.holds
            assert grid.constant == pytest.approx(closed.constant, rel=1e-3)

    def test_cond1_closed_form(self):
        cfg = CoupleConfig(2.0, PowerWeight(0.0), 2.0, PowerWeight(-1.0))
        v = check_cond1(cfg)
        assert v.holds
        # doubling constant of psi: 2^{(p-1-beta)/p} per index, max over both
        expect = max(2.0 ** (1.0 / 2.0), 2.0 ** (2.0 / 2.0))
        assert v.constant == pytest.approx(expect, rel=1e-12)

    def test_cond1_fails_when_a_tail_fundamental_vanishes(self):
        # psi1(2t) = 0 beyond the table's support while psi1(t) > 0: C = inf
        tab = TabulatedWeight(StepFunction((1.0, 2.0, 5.0), (1.0, 0.5, 2.0)))
        v = check_cond1(CoupleConfig(2.0, PowerWeight(0.0), 2.0, tab))
        assert not v.holds and v.constant == math.inf and v.method == "grid"
        assert 2.5 <= v.witness_t < 5.0

    def test_cond1_witness_of_the_attaining_index(self):
        # index 0 attains C = 1.917 at t = 0.1; index 1 is grid-scanned after it
        cfg = CoupleConfig(2.0, PowerLogWeight(-0.5, 1.0), 2.0, PowerLogWeight(0.2, -0.4))
        v = check_cond1(cfg, Grid.log(1e-2, 1e2, 9))
        assert v.constant == pytest.approx(1.917, abs=1e-3)
        assert v.witness_t == pytest.approx(0.1, rel=1e-12)
        # index 1 attains C = 2^{3/4} in closed form, t-independent: witness 1
        cfg = CoupleConfig(2.0, PowerLogWeight(0.0, 0.0), 2.0, PowerWeight(-0.5))
        v = check_cond1(cfg, Grid.log(1e-2, 1e2, 9))
        assert v.constant == pytest.approx(2.0 ** 0.75, rel=1e-12)
        assert v.witness_t == 1.0

    def test_cond3_power_couples(self):
        cfg = CoupleConfig(2.0, PowerWeight(0.0), 2.0, PowerWeight(-1.0))
        assert check_cond3(cfg, 0.25).holds
        # eps too large destroys quasi-monotonicity of theta psi0^eps
        assert not check_cond3(cfg, 3.0).holds
        with pytest.raises(ValueError):
            check_cond3(cfg, 0.0)

    def test_cond3_at_a_large_eps(self):
        # psi_0 = 2^{1/2} t^{-1/4}: 2^{eps/2} overflows, the exponents decide a power couple
        cfg = CoupleConfig(2.0, PowerWeight(0.5), 2.0, PowerWeight(-0.5))
        v = check_cond3(cfg, 5000.0)
        assert (v.holds, v.method) == (False, "closed-form")
        assert "exponent -1249.5;" in v.detail
        mixed = CoupleConfig(2.0, PowerWeight(0.5), 2.0, TabulatedWeight(StepFunction((1.0, 2.0), (1.0, 0.5))))
        with pytest.raises(InvalidWeightError, match="overflows"):
            check_cond3(mixed, 5000.0)

    def test_tail_diverges_at_zero(self):
        assert tail_diverges_at_zero(PowerWeight(0.0), 2.0).holds
        assert not tail_diverges_at_zero(PowerWeight(1.5), 2.0).holds

    def test_tail_diverges_at_zero_when_psi_vanishes_at_the_probe(self):
        # no mass beyond 1e-3, so psi(1e-2) = 0 while psi(1e-8) > 0: x / 0 reads inf
        verdict = tail_diverges_at_zero(TabulatedWeight(StepFunction((1e-3,), (1.0,))), 2.0)
        assert verdict.holds and verdict.constant == math.inf


class TestQuadraturePins:
    """The grid checkers' values on the ROADMAP couple powerlog(0.5, 1) /
    powerlog(-0.5, 0.5) at p = 2.  Each pin agrees with a 25-digit mpmath
    evaluation at its witness t to 2.1e-15 relative (W by closed form and
    ``gammainc``).  W(t) is a ``_gamma_tail`` piece up to 1 plus log panels
    beyond it, so Delta_2 takes no quadrature; the tail moments of B_p and
    RB_p take the remainder (t, 1) of a pair to inf by quadrature, which warns
    on the grid's long ranges."""

    W0 = PowerLogWeight(0.5, 1.0)
    COUPLE = CoupleConfig(2.0, W0, 2.0, PowerLogWeight(-0.5, 0.5))

    def test_sufficient_conditions(self):
        head, tail = check_sufconds(self.COUPLE, grid=Grid.log(1e-4, 1e4, 5))
        assert head.constant == 1.5411013357293069
        assert tail.constant == 0.7406479825297099

    def test_single_weight_checkers(self):
        with pytest.warns(IntegrationWarning):
            assert check_bp(self.W0, 2.0).constant == 7.4269306694082475
            assert check_rbp(self.W0, 2.0).constant == 0.5395799730252667
            assert check_delta2(self.W0).constant == 3.716565949291045

    def test_bp_takes_one_quadrature_per_grid_point_below_1(self, monkeypatch):
        # W(t) none, the tail moment from t the remainder (t, 1) for t < 1 only
        calls = []
        monkeypatch.setattr(weights, "quad", lambda fn, a, b, **kw: calls.append(a) or quad(fn, a, b, **kw))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            check_bp(self.W0, 2.0)
        points = weights.DEFAULT_CHECK_GRID.points
        assert calls == points[points < 1.0].tolist()

    def test_sufficient_conditions_quadratures_do_not_grow_with_the_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(weights, "quad", lambda fn, a, b, **kw: calls.append(a) or quad(fn, a, b, **kw))
        counts = []
        for n in (5, 49):
            calls.clear()
            check_sufconds(self.COUPLE, grid=Grid.log(1e-4, 1e4, n))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_sufficient_conditions_emit_no_integration_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            head, tail = check_sufconds(self.COUPLE)
        assert head.holds and tail.holds


DOUBLING_GRID = Grid.log(1e-3, 1e3, 40)


def _pointwise_cond1(cfg, grid):
    """``check_cond1``'s grid scan one psi at a time, each ratio reading psi(2t) and then psi(t):
    (holds, constant, witness, detail)."""
    found = []
    for w, p in ((cfg.w0, cfg.p0), (cfg.w1, cfg.p1)):
        psi = tail_fundamental(w, p)
        doubling = weights._ratio_fn(psi, lambda t, psi=psi: psi(2.0 * t))
        found.append(weights._sup_scan([(t, doubling(t)) for t in grid.points.tolist()]))
    c, witness = max(found, key=lambda row: row[0])
    return math.isfinite(c), c, witness, "; ".join(f"index{i}: C={row[0]:.6g}" for i, row in enumerate(found))


def _positive_tail_couples(count):
    """Seeded power-log couples at p in [1.5, 3] whose tail moments at every t and 2t of
    ``DOUBLING_GRID`` are positive (the remainder quadrature can read a long range negative)."""
    couples, rng = [], np.random.default_rng(2)
    while len(couples) < count:
        pair = []
        for _ in range(2):
            p = rng.uniform(1.5, 3.0)
            pair += [p, PowerLogWeight(rng.uniform(-0.9, min(0.9, p - 1.2)), rng.uniform(-1.0, 1.0))]
        at = np.multiply.outer(DOUBLING_GRID.points, (2.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            if all((w.moment(-p, at, math.inf) > 0.0).all() for p, w in (pair[:2], pair[2:])):
                couples.append(CoupleConfig(*pair))
    return couples


class TestBatchedTailDoubling:
    """``check_cond1`` takes psi at every t and 2t of its grid from one moment call per weight, in
    the order a pointwise scan asks for them: the verdict is that scan's bit for bit, and so are its
    quadratures and their warnings, in order."""

    def _both(self, cfg, monkeypatch, method="auto"):
        """(verdict fields, quadrature lower limits, warnings) of the batched scan, then the pointwise one."""
        runs = []
        batched = lambda: check_cond1(cfg, DOUBLING_GRID, method=method)
        for scan in (batched, lambda: _pointwise_cond1(cfg, DOUBLING_GRID)):
            calls = []
            monkeypatch.setattr(weights, "quad", lambda fn, a, b, **kw: calls.append(a) or quad(fn, a, b, **kw))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = scan()
            if isinstance(out, weights.ConditionVerdict):
                out = (out.holds, out.constant, out.witness_t, out.detail)
            runs.append((out, calls, [(w.category, str(w.message)) for w in caught]))
        return runs

    def test_power_log_couples_match_the_pointwise_scan(self, monkeypatch):
        points = DOUBLING_GRID.points
        for cfg in _positive_tail_couples(4):
            batched, pointwise = self._both(cfg, monkeypatch)
            assert batched == pointwise
            # per weight, each psi(t) and psi(2t) below s = 1 takes a remainder quadrature, the probe psi(1) none
            assert len(batched[1]) == 2 * (np.count_nonzero(points < 1.0) + np.count_nonzero(points < 0.5))

    def test_a_mixed_couple_keeps_the_power_law(self, monkeypatch):
        cfg = CoupleConfig(2.0, PowerWeight(-0.5), 2.5, PowerLogWeight(0.3, -0.6))
        assert isinstance(tail_fundamental(cfg.w0, cfg.p0), PowerLaw)
        power_moments = []
        monkeypatch.setattr(PowerWeight, "moment", lambda self, *a: power_moments.append(a))
        batched, pointwise = self._both(cfg, monkeypatch, method="grid")
        assert batched == pointwise and power_moments == []
        assert batched[0][3].startswith(f"index0: C={2.0 ** 0.75:.6g};")  # psi0 = c t^{-3/4}

    def test_two_probes_and_two_batches(self, monkeypatch):
        calls, moment = [], PowerLogWeight.moment
        monkeypatch.setattr(PowerLogWeight, "moment", lambda self, *a: calls.append(a) or moment(self, *a))
        cfg = CoupleConfig(2.0, PowerLogWeight(0.5, 1.0), 2.0, PowerLogWeight(-0.5, 0.5))
        assert check_cond1(cfg, Grid.log(1.0, 1e6, 50)).holds
        assert [np.shape(a) for _, a, _ in calls] == [(), (50, 2), (), (50, 2)]
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)  # the remainder (1e-8, 1) is a long range
            tail_diverges_at_zero(cfg.w0, 2.0)
        assert [np.shape(a) for _, a, _ in calls] == [(), (2,)]


class TestSufficientConditions:
    def test_swapped_couple_closed_form(self):
        # p0 = p1 = 2 with w0 = s, w1 = 1: head constant 2, tail constant 1
        cfg = CoupleConfig(2.0, PowerWeight(1.0), 2.0, PowerWeight(0.0))
        head, tail = check_sufconds(cfg)
        assert head.holds and tail.holds
        assert head.constant == pytest.approx(2.0, rel=1e-12)
        assert tail.constant == pytest.approx(1.0, rel=1e-12)

    def test_failing_head(self):
        # denominator (beta0+1) - (p0/p1)(beta1+1) <= 0 fails the head bound
        cfg = CoupleConfig(2.0, PowerWeight(0.0), 2.0, PowerWeight(1.0))
        head, _tail = check_sufconds(cfg)
        assert not head.holds

    def test_grid_path_agrees_with_closed_form(self):
        cfg = CoupleConfig(2.0, PowerWeight(1.0), 2.0, PowerWeight(0.0))
        h_c, t_c = check_sufconds(cfg, method="closed-form")
        h_g, t_g = check_sufconds(cfg, method="grid", grid=Grid.log(1e-3, 1e3, 31))
        assert h_c.holds == h_g.holds and t_c.holds == t_g.holds
        assert h_g.constant == pytest.approx(h_c.constant, rel=0.05)

    def test_a_long_table_takes_memory_linear_in_its_cells(self):
        """1,000 table cells against a power weight: a pairs x cells array of the
        table's moments took about 0.4 GB here; prefix sums take a few MB."""
        n = 1000
        steps = StepFunction(tuple(np.geomspace(1e-3, 1e3, n)), tuple(1.0 + 0.5 * np.sin(np.arange(n))))
        table = TabulatedWeight(steps)
        tracemalloc.start()
        try:
            _head, tail = check_sufconds(CoupleConfig(2.0, PowerWeight(-0.5), 2.0, table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert math.isfinite(tail.constant)


class TestJson:
    def test_round_trip_families(self):
        for w in (
            PowerWeight(0.5),
            PowerLogWeight(0.5, 1.0),
            TabulatedWeight(StepFunction((1.0,), (2.0,))),
            ReciprocalWeight(TabulatedWeight(StepFunction((1.0,), (2.0,))), 2.0),
        ):
            back = weight_from_json_dict(w.to_json_dict())
            assert back == w

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            weight_from_json_dict({"family": "mystery"})

    @pytest.mark.parametrize(
        "data",
        [
            {"family": "power", "beta": "2"},
            {"family": "power", "beta": True},
            {"family": "powerlog", "beta": 0.5, "gamma": "1"},
            {"family": "tabulated", "breakpoints": [1.0], "values": ["2"]},
            {"family": "tabulated", "breakpoints": "1", "values": [2.0]},
            {"family": "reciprocal", "p": False, "base": {"family": "power", "beta": 0.0}},
            {"family": "reciprocal", "p": 2.0, "base": {"family": "power", "beta": None}},
        ],
    )
    def test_rejects_strings_and_booleans(self, data):
        with pytest.raises(ValueError, match="JSON"):
            weight_from_json_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"family": "power"}, "'beta'"),
            ({"family": "reciprocal", "p": 2.0}, "'base'"),
            ({"family": "tabulated", "values": [1.0]}, "'breakpoints'"),
            ({"family": "reciprocal", "p": 2.0, "base": {"family": "powerlog", "beta": 0.5}}, "'gamma'"),
            ([1, 2], "JSON object"),
        ],
        ids=["power-no-beta", "reciprocal-no-base", "tabulated-no-breakpoints", "base-no-gamma", "array"],
    )
    def test_rejects_missing_fields_and_non_objects(self, data, message):
        with pytest.raises(ValueError, match=message):
            weight_from_json_dict(data)

    def test_integers_accepted(self):
        assert weight_from_json_dict({"family": "power", "beta": 1}) == PowerWeight(1.0)


class TestVerdictSerialization:
    def test_inf_constant_serializes_as_string(self):
        v = check_bp(PowerWeight(2.0), 2.0)
        d = v.to_json_dict()
        assert d["constant"] == "inf"
        assert d["holds"] is False

    @pytest.mark.parametrize("verdict", [
        check_bp(PowerWeight(2.0), 2.0),  # infinite constant
        check_rbp(PowerWeight(0.0), 2.0),
        check_rbp(PowerLogWeight(0.5, 1.0), 2.0, grid=Grid.log(1e-3, 1e3, 8)),  # a grid verdict
        check_cond3(CoupleConfig(2.0, PowerWeight(0.0), 2.0, PowerWeight(-1.0)), 0.5),
    ])
    def test_matches_the_asdict_form(self, verdict):
        """The same keys in the same order, the same values and the same types as ``asdict``'s copy."""
        want = {**dataclasses.asdict(verdict), "constant": verdict.constant if math.isfinite(verdict.constant) else "inf"}
        got = verdict.to_json_dict()
        assert list(got.items()) == list(want.items())
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
