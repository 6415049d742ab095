"""Evaluation grids: validation and log spacing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzk import Grid


class TestGrid:
    @pytest.mark.parametrize(
        "points, message",
        [
            ((), "at least one point"),
            ((0.0, 1.0), "positive and finite"),
            ((-1.0, 1.0), "positive and finite"),
            ((1.0, math.inf), "positive and finite"),
            ((1.0, math.nan), "positive and finite"),
            ((1.0, 1.0), "strictly increasing"),
            ((2.0, 1.0), "strictly increasing"),
            (((1.0, 2.0), (3.0, 4.0)), "flat sequence"),
        ],
        ids=["empty", "zero", "negative", "inf", "nan", "repeated", "decreasing", "nested"],
    )
    def test_rejects_bad_points(self, points, message):
        with pytest.raises(ValueError, match=message):
            Grid(points)

    def test_points_become_floats(self):
        g = Grid((1, 2))
        np.testing.assert_array_equal(g.points, [1.0, 2.0])
        assert g.points.dtype == np.float64
        assert len(g) == 2

    def test_points_are_a_read_only_copy_of_an_array_input(self):
        source = np.array([0.5, 1.0, 4.0])
        g = Grid(source)
        source[0] = 0.25
        np.testing.assert_array_equal(g.points, [0.5, 1.0, 4.0])
        with pytest.raises(ValueError, match="read-only"):
            g.points[0] = 0.1

    def test_log_hits_its_ends_exactly(self):
        for lo, hi, n in ((1e-6, 1e6, 400), (0.3, 7.0, 2), (1e-2, 1e2, 9)):
            g = Grid.log(lo, hi, n)
            assert len(g) == n
            assert g.points[0] == lo and g.points[-1] == hi
        assert Grid.log(1e-2, 1e2, 9).points[2] == pytest.approx(0.1, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-30.0, 30.0), st.floats(1e-3, 30.0), st.integers(2, 500))
    def test_log_points_are_libm_exp_bit_for_bit(self, log_lo, width, n):
        lo, hi = math.exp(log_lo), math.exp(log_lo + width)
        la, lb = math.log(lo), math.log(hi)
        want = [lo] + [math.exp(la + (lb - la) * i / (n - 1)) for i in range(1, n - 1)] + [hi]
        assert Grid.log(lo, hi, n).points.tolist() == want

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 3), (2.0, 1.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 1)])
    def test_log_rejects_bad_ranges(self, lo, hi, n):
        with pytest.raises(ValueError):
            Grid.log(lo, hi, n)
