"""Evaluation grids: validation, log spacing and unions."""

import math

import pytest

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
        ],
        ids=["empty", "zero", "negative", "inf", "nan", "repeated", "decreasing"],
    )
    def test_rejects_bad_points(self, points, message):
        with pytest.raises(ValueError, match=message):
            Grid(points)

    def test_points_become_floats(self):
        g = Grid((1, 2))
        assert g.points == (1.0, 2.0) and all(type(x) is float for x in g)
        assert len(g) == 2

    def test_log_hits_its_ends_exactly(self):
        for lo, hi, n in ((1e-6, 1e6, 400), (0.3, 7.0, 2), (1e-2, 1e2, 9)):
            g = Grid.log(lo, hi, n)
            assert len(g) == n
            assert g.points[0] == lo and g.points[-1] == hi
        assert Grid.log(1e-2, 1e2, 9).points[2] == pytest.approx(0.1, rel=1e-14)

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 3), (2.0, 1.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 1)])
    def test_log_rejects_bad_ranges(self, lo, hi, n):
        with pytest.raises(ValueError):
            Grid.log(lo, hi, n)

    def test_union_merges_and_drops_non_positive_extras(self):
        g = Grid((1.0, 4.0)).union((0.0, -2.0, 2.0, 4.0))
        assert g.points == (1.0, 2.0, 4.0)
