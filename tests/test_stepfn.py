"""Exact algebra of step functions, rearrangements, and the transform."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentzk import (
    StepFunction,
    TabulatedWeight,
    add,
    dilate,
    maximal,
    osc_transform,
    rearrange,
    scale,
)


def random_step(rng, cells=6, monotone=False):
    bps = tuple(sorted(float(x) for x in rng.uniform(0.1, 20.0, size=cells)))
    vals = rng.uniform(0.0, 5.0, size=cells)
    if monotone:
        vals = np.sort(vals)[::-1] + 0.01
    return StepFunction(bps, tuple(float(v) for v in vals))


def reference_rearrange(f):
    """The cell loop that accumulated each level's measure in a dict."""
    sizes: dict[float, float] = {}
    a = 0.0
    for b, v in zip(f.breakpoints.tolist(), f.values.tolist()):
        if v > 0.0:
            sizes[v] = sizes.get(v, 0.0) + (b - a)
        a = b
    bps, vals, acc = [], [], 0.0
    for v in sorted(sizes, reverse=True):
        acc += sizes[v]
        bps.append(acc)
        vals.append(v)
    return bps, vals


@st.composite
def unsorted_steps(draw):
    """At most 12 cells of widely spread widths; levels from a small pool, so
    they repeat and include zero."""
    n = draw(st.integers(0, 12))
    widths = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    levels = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5, 7.0]), min_size=n, max_size=n))
    return StepFunction(np.cumsum(widths), levels)


@st.composite
def nonincreasing_steps(draw):
    """``unsorted_steps`` with its levels sorted, some of them from any range: runs of equal
    levels merge, and all zero levels, or no cells, give the zero function."""
    n = draw(st.integers(0, 12))
    widths = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    pool = st.sampled_from([0.0, 0.3, 1.0, 2.5, 7.0])
    levels = draw(st.lists(st.one_of(pool, st.floats(0.0, 1e3)), min_size=n, max_size=n))
    return StepFunction(np.cumsum(widths), sorted(levels, reverse=True))


@st.composite
def separated_steps(draw):
    """A non-increasing step function of at most 12 cells whose widths and whose drops between
    values are at least 1e-3, as are its values."""
    n = draw(st.integers(0, 12))
    widths = draw(st.lists(st.floats(1e-3, 20.0), min_size=n, max_size=n))
    drops = draw(st.lists(st.floats(1e-3, 5.0), min_size=n, max_size=n))
    return StepFunction(np.cumsum(widths), np.cumsum(drops)[::-1])


def seeded_monotone_examples(test):
    """The 30 rearranged functions of ``random_step(rng, monotone=True)`` at seed 11, as examples of ``fs``."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        test = example(fs=rearrange(random_step(rng, monotone=True)))(test)
    return test


def plain_merge(bps, vals):
    """Canonical data by a Python loop: runs of equal values merged, a trailing zero cell dropped."""
    out_b, out_v = [], []
    for b, v in zip(bps, vals):
        if out_v and out_v[-1] == v:
            out_b[-1] = b
        else:
            out_b.append(b)
            out_v.append(v)
    if out_v and out_v[-1] == 0.0:
        out_b.pop()
        out_v.pop()
    return out_b, out_v


@st.composite
def runs_with_trailing_zeros(draw):
    """Breakpoints and values whose values come in runs of equal values, then some zero cells."""
    runs = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.0, 2.5]), st.integers(1, 4)), max_size=6))
    vals = [v for v, count in runs for _ in range(count)] + [0.0] * draw(st.integers(0, 3))
    widths = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(vals), max_size=len(vals)))
    return np.cumsum(widths).tolist(), vals


class TestCanonicalization:
    @settings(max_examples=200, deadline=None)
    @given(runs_with_trailing_zeros())
    def test_matches_a_plain_merge(self, data):
        bps, vals = data
        f = StepFunction(bps, vals)
        assert (f.breakpoints.tolist(), f.values.tolist()) == plain_merge(bps, vals)

    def test_merges_equal_adjacent_values(self):
        f = StepFunction((1.0, 2.0, 3.0), (2.0, 2.0, 1.0))
        assert f.breakpoints.tolist() == [2.0, 3.0]
        assert f.values.tolist() == [2.0, 1.0]

    def test_drops_trailing_zeros(self):
        f = StepFunction((1.0, 2.0, 3.0), (2.0, 0.0, 0.0))
        assert f.breakpoints.tolist() == [1.0]
        assert f.values.tolist() == [2.0]

    def test_keeps_interior_zeros(self):
        f = StepFunction((1.0, 2.0, 3.0), (2.0, 0.0, 1.0))
        assert f.values.tolist() == [2.0, 0.0, 1.0]

    def test_zero_function(self):
        z = StepFunction((), ())
        assert z.is_zero
        assert z(1.0) == 0.0
        assert z.is_nonincreasing()
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


class TestRepresentation:
    def test_arrays_are_read_only(self):
        f = StepFunction((1.0, 2.0), (3.0, 1.0))
        with pytest.raises(ValueError):
            f.values[0] = 5.0
        with pytest.raises(ValueError):
            f.breakpoints[0] = 0.5

    def test_caller_array_stays_writable(self):
        vals = np.array([3.0, 1.0])
        StepFunction(np.array([1.0, 2.0]), vals)
        vals[0] = 4.0

    def test_noncanonical_input_equals_and_hashes_as_canonical(self):
        raw = StepFunction((1.0, 2.0, 3.0, 4.0), (2.0, 2.0, 1.0, 0.0))
        canon = StepFunction((2.0, 3.0), (2.0, 1.0))
        assert raw == canon
        assert hash(raw) == hash(canon)
        assert raw != StepFunction((2.0, 3.0), (2.0, 0.5))
        assert len({raw, canon}) == 1

    def test_tabulated_weights_on_equal_steps_are_equal(self):
        a = TabulatedWeight(StepFunction((1.0, 2.0), (2.0, 2.0)))
        b = TabulatedWeight(StepFunction((2.0,), (2.0,)))
        assert a == b

    def test_scalar_queries_are_python_floats(self):
        f = StepFunction((1.0, 2.0), (3.0, 1.0))
        for x in (
            f(1.5),
            f(5.0),
            f.value_right(1.0),
            f.value_right(5.0),
            f.prefix_integral(1.5),
            f.prefix_integral(5.0),
            f.total_integral,
            f.support_end,
            f.first_breakpoint,
            maximal(f)(1.5),
            osc_transform(f)(0.7),
        ):
            assert type(x) is float

    def test_at_matches_pointwise_evaluation(self):
        f = StepFunction((0.5, 1.0, 2.0, 3.0), (1.0, 0.0, 3.0, 0.5))
        points = np.array([0.1, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 100.0])
        assert f.at(points).tolist() == [f(x) for x in points]
        assert StepFunction.zero().at(points).tolist() == [0.0] * points.size


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
            assert fs.is_nonincreasing()
            assert math.isclose(f.total_integral, fs.total_integral, rel_tol=1e-12)

    def test_leading_zero_cells_shift_mass_left(self):
        f = StepFunction((1.0, 3.0), (0.0, 2.0))
        assert rearrange(f) == StepFunction((2.0,), (2.0,))

    @settings(max_examples=300, deadline=None)
    @given(nonincreasing_steps())
    # summing the lengths again gives 1025.8561067645242 for the second breakpoint
    @example(StepFunction((1.0272946251110397, 1025.856106764524), (1.0, 0.3)))
    def test_a_nonincreasing_function_is_its_own_rearrangement(self, f):
        assert rearrange(f) is f
        # the cell loop sums the cells' lengths again, a + (b - a), which can miss b by one ulp
        bps, vals = reference_rearrange(f)
        assert vals == f.values.tolist()
        np.testing.assert_array_max_ulp(np.array(bps), f.breakpoints, maxulp=1)

    @settings(max_examples=300, deadline=None)
    @given(unsorted_steps())
    def test_matches_the_cell_loop_exactly(self, f):
        # a non-increasing f is its own rearrangement, exactly (the test above)
        bps, vals = (f.breakpoints.tolist(), f.values.tolist()) if f.is_nonincreasing() else reference_rearrange(f)
        fs = rearrange(f)
        assert fs.breakpoints.tolist() == bps
        assert fs.values.tolist() == vals

    @settings(max_examples=200, deadline=None)
    @given(unsorted_steps())
    def test_a_function_keeps_its_rearrangement(self, f):
        fs = rearrange(f)
        assert rearrange(f) is fs and rearrange(fs) is fs
        # f keeps f* unless it is its own: keeping itself would make a reference cycle
        assert f.__dict__["_rearranged"] is (None if fs is f else fs)
        if fs is not f:
            assert (fs.breakpoints.tolist(), fs.values.tolist()) == tuple(reference_rearrange(f))

    @pytest.mark.parametrize("f, want", [
        # 1 + (1e16 - 2) rounds to 1e16, and the last level's unit length is below the spacing there
        (StepFunction((1.0, 2.0, 1e16), (1.0, 3.0, 2.0)), StepFunction((1.0, 1e16), (3.0, 2.0))),
        (StepFunction((1e-5, 1e16), (1.0, 2.0)), StepFunction((1e16,), (2.0,))),
    ])
    def test_a_level_below_the_float_spacing_is_dropped(self, f, want):
        assert rearrange(f) == want


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

    @settings(max_examples=300, deadline=None)
    @seeded_monotone_examples
    @given(separated_steps())
    def test_involution_exact_on_step_data(self, fs):
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

