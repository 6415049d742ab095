"""Exact algebra of step functions, rearrangements, and the transform."""

import json
import math

import numpy as np
import pytest

from lorentzk import (
    Grid,
    GridProjectionError,
    StepFunction,
    add,
    dilate,
    equimeasurable,
    maximal,
    osc_transform,
    pointwise_min_with_constant,
    project_to_grid,
    rearrange,
    scale,
    sub_clamped,
)


def random_step(rng, cells=6, monotone=False):
    bps = tuple(sorted(float(x) for x in rng.uniform(0.1, 20.0, size=cells)))
    vals = rng.uniform(0.0, 5.0, size=cells)
    if monotone:
        vals = np.sort(vals)[::-1] + 0.01
    return StepFunction(bps, tuple(float(v) for v in vals))


class TestCanonicalization:
    def test_merges_equal_adjacent_values(self):
        f = StepFunction((1.0, 2.0, 3.0), (2.0, 2.0, 1.0))
        assert f.breakpoints == (2.0, 3.0)
        assert f.values == (2.0, 1.0)

    def test_drops_trailing_zeros(self):
        f = StepFunction((1.0, 2.0, 3.0), (2.0, 0.0, 0.0))
        assert f.breakpoints == (1.0,)
        assert f.values == (2.0,)

    def test_keeps_interior_zeros(self):
        f = StepFunction((1.0, 2.0, 3.0), (2.0, 0.0, 1.0))
        assert f.values == (2.0, 0.0, 1.0)

    def test_zero_function(self):
        z = StepFunction((), ())
        assert z.is_zero
        assert z(1.0) == 0.0
        assert StepFunction((1.0,), (0.0,)).is_zero

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            StepFunction((2.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            StepFunction((1.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            StepFunction((1.0,), (math.inf,))
        with pytest.raises(ValueError):
            StepFunction((1.0,), (-0.5,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StepFunction((1.0, 2.0), (1.0,))


class TestEvaluation:
    def test_left_cell_jump_convention(self):
        f = StepFunction((1.0, 2.0), (3.0, 1.0))
        assert f(0.5) == 3.0
        assert f(1.0) == 3.0  # value at a jump comes from the cell ending there
        assert f(1.5) == 1.0
        assert f(2.0) == 1.0
        assert f(2.5) == 0.0

    def test_value_right_takes_next_cell(self):
        f = StepFunction((1.0, 2.0), (3.0, 1.0))
        assert f.value_right(1.0) == 1.0
        assert f.value_right(2.0) == 0.0
        assert f.value_right(0.5) == 3.0

    def test_rejects_nonpositive_argument(self):
        f = StepFunction.indicator(1.0)
        with pytest.raises(ValueError):
            f(0.0)
        with pytest.raises(ValueError):
            f(-1.0)

    def test_prefix_integral(self):
        f = StepFunction((1.0, 3.0), (2.0, 1.0))
        assert f.prefix_integral(0.5) == 1.0
        assert f.prefix_integral(1.0) == 2.0
        assert f.prefix_integral(2.0) == 3.0
        assert f.prefix_integral(10.0) == 4.0
        assert f.total_integral == 4.0


class TestAlgebra:
    def test_add_on_merged_grid(self):
        f = StepFunction((1.0, 2.0), (1.0, 2.0))
        g = StepFunction((1.5,), (3.0,))
        h = add(f, g)
        assert h(0.5) == 4.0 and h(1.2) == 5.0 and h(1.8) == 2.0

    def test_scale(self):
        f = StepFunction.indicator(2.0, 3.0)
        assert scale(f, 2.0)(1.0) == 6.0
        assert scale(f, 0.0).is_zero

    def test_sub_clamped(self):
        f = StepFunction((2.0,), (1.0,))
        g = StepFunction((1.0,), (3.0,))
        d = sub_clamped(f, g)
        assert d(0.5) == 0.0 and d(1.5) == 1.0

    def test_min_with_constant(self):
        f = StepFunction((1.0, 2.0), (3.0, 1.0))
        m = pointwise_min_with_constant(f, 2.0)
        assert m(0.5) == 2.0 and m(1.5) == 1.0

    def test_dilate(self):
        f = StepFunction.indicator(2.0)
        d = dilate(f, 0.5)  # d(t) = f(t/2): support doubles
        assert d(3.0) == 1.0 and d(5.0) == 0.0
        assert d.support_end == 4.0


class TestRearrangement:
    def test_hand_example(self):
        f = StepFunction((1.0, 3.0, 4.0), (1.0, 3.0, 2.0))
        assert rearrange(f) == StepFunction((2.0, 3.0, 4.0), (3.0, 2.0, 1.0))

    def test_idempotent_and_equimeasurable(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f = random_step(rng)
            fs = rearrange(f)
            assert rearrange(fs) == fs
            assert fs.is_zero or fs.is_nonincreasing()
            assert equimeasurable(f, fs)
            assert math.isclose(f.total_integral, fs.total_integral, rel_tol=1e-12)

    def test_leading_zero_cells_shift_mass_left(self):
        f = StepFunction((1.0, 3.0), (0.0, 2.0))
        assert rearrange(f) == StepFunction((2.0,), (2.0,))


class TestMaximal:
    def test_hand_value(self):
        g = StepFunction((1.0, 2.0), (2.0, 1.0))
        mx = maximal(g)
        assert mx(2.0) == pytest.approx(1.5, rel=1e-15)
        assert mx(0.5) == 2.0
        assert mx(6.0) == pytest.approx(0.5, rel=1e-15)

    def test_dominates_and_nonincreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            fs = rearrange(random_step(rng))
            mx = maximal(fs)
            ts = np.geomspace(0.05, 50.0, 80)
            vals = [mx(t) for t in ts]
            assert all(mx(t) >= fs(t) - 1e-12 for t in ts)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_requires_nonincreasing(self):
        with pytest.raises(ValueError):
            maximal(StepFunction((1.0, 2.0), (1.0, 2.0)))


class TestOscillationTransform:
    def test_indicator_maps_to_indicator(self):
        T = osc_transform(StepFunction.indicator(1.0))
        assert T(0.5) == 1.0 and T(0.999) == 1.0
        assert T(1.0) == 0.0 and T(2.0) == 0.0
        assert T.as_step() == StepFunction.indicator(1.0)

    def test_hand_step_form(self):
        g = StepFunction((1.0, 2.0), (2.0, 1.0))
        assert osc_transform(g).as_step() == StepFunction((0.5, 1.0), (3.0, 1.0))

    def test_involution_exact_on_step_data(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            fs = rearrange(random_step(rng, monotone=True))
            back = osc_transform(osc_transform(fs).as_step()).as_step()
            assert back.breakpoints == pytest.approx(fs.breakpoints, rel=1e-12)
            assert back.values == pytest.approx(fs.values, rel=1e-12)

    def test_as_step_matches_pointwise_evaluation(self):
        fs = StepFunction((0.5, 2.0, 8.0), (4.0, 1.5, 0.25))
        T = osc_transform(fs)
        ts = np.geomspace(0.01, 30.0, 200)
        step = T.as_step()
        for t in ts:
            if any(abs(t - b) < 1e-9 for b in step.breakpoints):
                continue
            assert T(float(t)) == pytest.approx(step(float(t)), abs=1e-12)

    def test_limit_at_zero_is_total_mass(self):
        fs = StepFunction((1.0, 2.0), (2.0, 1.0))
        assert osc_transform(fs).limit_at_zero == 3.0

    def test_requires_nonincreasing(self):
        with pytest.raises(ValueError):
            osc_transform(StepFunction((1.0, 2.0), (1.0, 2.0)))


class TestJsonRoundTrip:
    def test_round_trip(self):
        f = StepFunction((0.5, 2.0), (1.25, 0.75))
        assert StepFunction.from_json(f.to_json()) == f

    def test_rejects_extra_fields(self):
        with pytest.raises(ValueError):
            StepFunction.from_json(json.dumps({"breakpoints": [1.0], "values": [1.0], "x": 1}))

    @pytest.mark.parametrize(
        "data",
        [
            {"breakpoints": ["1.0"], "values": [1.0]},
            {"breakpoints": [1.0], "values": [True]},
            {"breakpoints": [1.0], "values": [None]},
            {"breakpoints": 1.0, "values": [1.0]},
        ],
    )
    def test_rejects_strings_and_booleans(self, data):
        with pytest.raises(ValueError, match="JSON"):
            StepFunction.from_json(json.dumps(data))

    def test_integers_accepted(self):
        text = json.dumps({"breakpoints": [1, 2], "values": [3, 1]})
        assert StepFunction.from_json(text) == StepFunction((1.0, 2.0), (3.0, 1.0))


class TestProjection:
    def test_exact_when_grid_contains_breakpoints(self):
        f = StepFunction((1.0, 2.0), (2.0, 1.0))
        grid = Grid((0.5, 1.0, 1.5, 2.0, 3.0))
        proj = project_to_grid(f, grid)
        for t in (0.3, 0.8, 1.2, 1.8, 2.5):
            assert proj(t) == f(t)

    def test_raises_on_nonmonotone_samples(self):
        bumpy = StepFunction((1.0, 2.0, 3.0), (1.0, 0.0, 2.0))  # rises again
        grid = Grid((0.5, 1.5, 2.5, 3.5))
        with pytest.raises(GridProjectionError):
            project_to_grid(bumpy, grid, tol=1e-9)

    def test_repairs_tiny_wiggles(self):
        base = StepFunction((1.0,), (1.0,))

        class Wiggly:
            def __call__(self, t: float) -> float:
                return base(t) + (1e-12 if 0.4 < t < 0.6 else 0.0)

        proj = project_to_grid(Wiggly(), Grid((0.25, 0.5, 0.75, 1.0)), tol=1e-9)
        assert proj(0.3) == 1.0
        assert proj.is_nonincreasing() or proj.values == (1.0,)
