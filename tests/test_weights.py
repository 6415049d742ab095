"""Weight moments, duality, and condition checkers against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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

    def test_cond3_power_couples(self):
        cfg = CoupleConfig(2.0, PowerWeight(0.0), 2.0, PowerWeight(-1.0))
        assert check_cond3(cfg, 0.25).holds
        # eps too large destroys quasi-monotonicity of theta psi0^eps
        assert not check_cond3(cfg, 3.0).holds
        with pytest.raises(ValueError):
            check_cond3(cfg, 0.0)

    def test_tail_diverges_at_zero(self):
        assert tail_diverges_at_zero(PowerWeight(0.0), 2.0).holds
        assert not tail_diverges_at_zero(PowerWeight(1.5), 2.0).holds


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
