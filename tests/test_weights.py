"""Weight moments, duality, and condition checkers against closed forms."""

import math

import numpy as np
import pytest
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
