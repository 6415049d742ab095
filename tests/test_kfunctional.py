"""Tests for explicit K-values, constructive decompositions, and the oracles."""

import itertools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference as reference
from lorentzk import kfunctional, norms
from lorentzk.kfunctional import (
    Decomposition,
    KQuery,
    _CoupleObjective,
    _GridProblem,
    _SpaceOnGrid,
    corollary_1,
    corollary_couple,
    curve_violations,
    decomposition_lemma,
    k_curve,
    k_curve_s_couple,
    k_explicit_curve,
    k_explicit_general,
    k_explicit_s,
    k_oracle,
    k_oracle_s_couple,
    near_optimal_s_decomposition,
    s_couple_hypotheses,
    truncation_decomposition,
)
from lorentzk.norms import LorentzSpace, _powered, cell_moments, cell_sums, norm
from lorentzk.grids import Grid
from lorentzk.stepfn import StepFunction, add, osc_transform, rearrange
from lorentzk.verify import _default_couple, make_corpus, run_theorem_suite, t_sweep
from lorentzk.weights import (
    CoupleConfig,
    InvalidWeightError,
    PowerLogWeight,
    PowerWeight,
    TabulatedWeight,
    fundamental_ratio,
    reciprocal_weight,
)

FLAT = PowerWeight(0.0)
STAIR = StepFunction((1.0, 2.0, 4.0), (3.0, 2.0, 1.0))


def random_nonincreasing(rng, n=5, lo=0.1, hi=20.0):
    bps = tuple(sorted(rng.uniform(lo, hi, n)))
    vals = tuple(sorted(rng.uniform(0.1, 5.0, n), reverse=True))
    return StepFunction(bps, vals)


class TestTruncation:
    def test_hand_example(self):
        dec = truncation_decomposition(STAIR, 2.0)
        assert dec.provenance == "truncation"
        # level = value just right of the cut, here 1 on (2, 4]
        assert dec.f0 == StepFunction((1.0, 2.0), (2.0, 1.0))
        assert dec.f1 == StepFunction((4.0,), (1.0,))
        dec.validate_sum(STAIR)
        assert dec.is_monotone()

    def test_cut_beyond_support(self):
        dec = truncation_decomposition(STAIR, 10.0)
        assert dec.f1.is_zero
        assert dec.f0 == STAIR

    def test_cut_before_first_breakpoint(self):
        dec = truncation_decomposition(STAIR, 0.5)
        # level is f*(0.5+) = 3, so nothing sticks out above it
        assert dec.f0.is_zero
        assert dec.f1 == STAIR

    def test_random_cuts_sum_and_stay_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_nonincreasing(rng)
            t = float(rng.uniform(0.05, 25.0))
            dec = truncation_decomposition(f, t)
            dec.validate_sum(f)
            assert dec.is_monotone()

    def test_rejects_bad_cut(self):
        with pytest.raises(ValueError, match="cut point"):
            truncation_decomposition(STAIR, 0.0)


class TestDecompositionLemma:
    def test_hand_example(self):
        f = StepFunction((2.0,), (3.0,))
        g = StepFunction((1.0,), (2.0,))
        h = StepFunction((2.0,), (3.0,))
        dec = decomposition_lemma(f, g, h)
        assert dec.provenance == "decomposition-lemma"
        # (f - g)+ is 1 then 3; its running sup from the right is 3 everywhere
        assert dec.f1 == StepFunction((2.0,), (3.0,))
        assert dec.f0.is_zero
        dec.validate_sum(f)

    def test_split_tracks_both_majorants(self):
        f = StepFunction((1.0, 3.0), (4.0, 1.0))
        g = StepFunction((3.0,), (2.0,))
        h = StepFunction((1.0, 3.0), (3.0, 1.0))
        dec = decomposition_lemma(f, g, h)
        merged = sorted(set(dec.f0.breakpoints) | set(g.breakpoints))
        for x in merged:
            assert dec.f0(x) <= g(x) + 1e-12
        merged = sorted(set(dec.f1.breakpoints) | set(h.breakpoints))
        for x in merged:
            assert dec.f1(x) <= h(x) + 1e-12
        dec.validate_sum(f)
        assert dec.is_monotone()

    def test_random_majorized_splits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_nonincreasing(rng, n=4)
            h = random_nonincreasing(rng, n=4)
            total = add(g, h)
            # shrink the target below g + h so the hypothesis holds
            f = StepFunction(total.breakpoints, tuple(v * 0.9 for v in total.values))
            dec = decomposition_lemma(f, g, h)
            dec.validate_sum(f)
            assert dec.is_monotone()

    def test_rejects_unmajorized_target(self):
        f = StepFunction((2.0,), (3.0,))
        g = StepFunction((1.0,), (1.0,))
        h = StepFunction((2.0,), (1.0,))
        with pytest.raises(ValueError, match="majorization"):
            decomposition_lemma(f, g, h)

    def test_rejects_increasing_input(self):
        f = StepFunction((1.0, 2.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="non-increasing"):
            decomposition_lemma(f, f, f)


class TestEqualCouple:
    def test_oracle_matches_min_one_t_times_norm(self):
        space = LorentzSpace("lambda", 1.0, FLAT)
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = random_nonincreasing(rng, n=4)
            mass = norm(space, f)
            for t in (0.25, 1.0, 4.0):
                res = k_oracle(KQuery(f, t, space, space))
                assert res.value == pytest.approx(min(1.0, t) * mass, rel=1e-6)

    def test_zero_function(self):
        space = LorentzSpace("lambda", 2.0, FLAT)
        res = k_oracle(KQuery(StepFunction.zero(), 1.0, space, space))
        assert res.value == 0.0
        assert res.decomposition.f0.is_zero and res.decomposition.f1.is_zero


class TestExplicitGeneral:
    COUPLE = CoupleConfig(2.0, PowerWeight(1.0), 2.0, PowerWeight(0.0))

    def test_tracks_oracle_within_constant(self):
        space0 = LorentzSpace("lambda", 2.0, PowerWeight(1.0))
        space1 = LorentzSpace("lambda", 2.0, FLAT)
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = random_nonincreasing(rng)
            t = float(rng.uniform(0.2, 5.0))
            explicit = k_explicit_general(f, t, self.COUPLE)
            oracle = k_oracle(KQuery(f, explicit.param, space0, space1))
            ratio = explicit.value / oracle.value
            assert 1.0 / 8.0 <= ratio <= 8.0

    def test_sigma_degenerate_weight_flag(self):
        # w1 with exponent -1 has no finite fundamental, so sigma collapses to 0
        cfg = CoupleConfig(2.0, FLAT, 1.0, PowerWeight(-1.0))
        res = k_explicit_general(STAIR, 1.0, cfg)
        assert "sigma-degenerate" in res.flags
        assert res.right == 0.0

    def test_a_vanishing_tail_adds_zero_at_infinite_sigma(self):
        # w1 vanishes on (0, 1], so phi1(0.8) = 0 and sigma(0.8) = inf, and f* vanishes past 0.5
        cfg = CoupleConfig(2.0, FLAT, 2.0, TabulatedWeight(StepFunction((1.0, 10.0), (0.0, 1.0))))
        res = k_explicit_general(StepFunction.indicator(0.5), 0.8, cfg)
        assert math.isinf(res.param) and res.tail_root == 0.0
        assert res.right == 0.0 and res.value == res.left == math.sqrt(0.5)

    def test_rejects_non_monotone_input(self):
        bumpy = StepFunction((1.0, 2.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="non-increasing"):
            k_explicit_general(bumpy, 1.0, self.COUPLE)


class TestExplicitS:
    def test_hypotheses_reported_for_good_couple(self):
        res = k_explicit_s(STAIR, 1.0, corollary_couple(2.0, 1.0))
        assert res.hypotheses is not None
        for name in ("tail-doubling", "reverse-balance-w0", "ratio-quasi-monotone"):
            assert res.hypotheses[name].holds
        assert not any(fl.startswith("hypothesis-violated") for fl in res.flags)

    def test_violated_hypothesis_flagged(self):
        # theta grows like sqrt(t) here, so quasi-monotonicity of order 3 fails
        res = k_explicit_s(STAIR, 1.0, corollary_couple(2.0, 1.0), eps=3.0)
        assert "hypothesis-violated:ratio-quasi-monotone" in res.flags
        assert not res.hypotheses["ratio-quasi-monotone"].holds

    def test_check_can_be_skipped(self):
        res = k_explicit_s(STAIR, 1.0, corollary_couple(2.0, 1.0), check_hypotheses=False)
        assert res.hypotheses is None

    def test_a_checker_outside_its_weight_range_fails_its_hypothesis(self):
        # W_0 of s^{-1} diverges at 0: reverse balance is not checked but failed, "inapplicable"
        res = k_explicit_s(STAIR, 1.0, CoupleConfig(2.0, PowerWeight(-1.0), 2.0, PowerWeight(-1.5)))
        assert res.value == 1.353553390593274
        assert res.flags == ("hypothesis-violated:reverse-balance-w0",)
        verdict = res.hypotheses["reverse-balance-w0"]
        assert (verdict.holds, verdict.constant, verdict.method) == (False, math.inf, "inapplicable")
        assert verdict.detail == "power weight s^-1 is not integrable near zero; W(t) diverges"
        assert all(v.holds for name, v in res.hypotheses.items() if name != "reverse-balance-w0")

    def test_a_power_couple_takes_the_midpoint_eps(self):
        # at p = 2 on (1, s^-alpha) psi0 falls like t^{-1/2} and theta = psi0 / psi1 grows like t^{alpha/2}
        assert kfunctional._auto_eps(corollary_couple(2.0, 1.0)) == 0.5
        assert kfunctional._auto_eps(corollary_couple(2.0, 0.5)) == 0.25

    def test_a_non_power_couple_takes_eps_one_half_without_a_moment_call(self):
        cfg = CoupleConfig(2.0, PowerLogWeight(0.5, 1.0), 2.0, PowerLogWeight(-0.5, 0.5))
        with mock.patch.object(PowerLogWeight, "moment", autospec=True, side_effect=PowerLogWeight.moment) as moment:
            assert kfunctional._auto_eps(cfg) == 0.5
        assert moment.call_count == 0  # 3 probes, thrown away, when theta and psi0 were built to be looked at

    def test_corollary_1_shortcut(self):
        a = corollary_1(STAIR, 2.0, p=2.0, alpha=1.0)
        b = k_explicit_s(STAIR, 2.0, corollary_couple(2.0, 1.0))
        assert a.value == b.value and a.param == b.param

    def test_corollary_couple_validation(self):
        with pytest.raises(ValueError, match="p in"):
            corollary_couple(1.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            corollary_couple(2.0, -0.5)

    def test_head_and_tail_windows_are_monotone_in_t(self):
        cfg = corollary_couple(2.0, 1.0)
        res = [k_explicit_s(STAIR, t, cfg) for t in np.geomspace(0.05, 50.0, 12)]
        lefts = [r.left for r in res]
        tails = [r.tail_root for r in res]
        assert all(b >= a - 1e-12 for a, b in zip(lefts, lefts[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))


def _explicit_weights(draw, p: float):
    """A power, power-log, tabulated or reciprocal-tabulated weight; the power exponents reach past both
    divergences (beta <= -1 at 0, beta >= p - 1 at infinity)."""
    kind = draw(st.sampled_from(["power", "powerlog", "tabulated", "reciprocal"]))
    if kind == "power":
        return PowerWeight(draw(st.one_of(st.sampled_from([-1.25, -1.0, 1.0, 2.0]), st.floats(-0.9, 0.9))))
    if kind == "powerlog":
        return PowerLogWeight(draw(st.floats(-0.5, min(0.5, p - 1.2))), draw(st.floats(-1.0, 1.0)))
    n = draw(st.integers(1, 4))
    steps = StepFunction(tuple(np.cumsum(draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))),
                         tuple(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n).filter(any))))
    return TabulatedWeight(steps) if kind == "tabulated" else reciprocal_weight(TabulatedWeight(steps), p)


@st.composite
def explicit_sweeps(draw):
    """(f, ts, couple, flavor, check_hypotheses): f of 0 to 6 cells in any order, with zero values; ts
    unsorted, with repeats and jumps of f; hypotheses checked on power couples."""
    n = draw(st.sampled_from(range(7)))
    f = StepFunction(tuple(np.cumsum(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))),
                     tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, 7.0, 0.0]), min_size=n, max_size=n))))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    p0, p1 = draw(st.floats(1.2, 3.0)), draw(st.floats(1.2, 3.0))
    cfg = CoupleConfig(p0, _explicit_weights(draw, p0), p1, _explicit_weights(draw, p1))
    pool = np.geomspace(0.01, 100.0, 9).tolist() + f.breakpoints.tolist()
    ts = draw(st.lists(st.sampled_from(pool), max_size=8))
    powers = isinstance(cfg.w0, PowerWeight) and isinstance(cfg.w1, PowerWeight)
    return f, ts, cfg, flavor, powers and draw(st.booleans())


def _outcome(call):
    """What a call returns, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


DIVERGENT_HEAD = CoupleConfig(2.0, PowerWeight(-1.0), 2.0, FLAT)  # W_0 diverges at 0, and so does phi_0
SIGMA_DEGENERATE = CoupleConfig(2.0, FLAT, 1.0, PowerWeight(-1.0))  # W_1 diverges at 0: phi_1 is infinite


class TestExplicitCurve:
    """``k_explicit_curve`` is its one-t calls, each integral of a sweep from one moment call."""

    @settings(max_examples=60, deadline=None)
    @given(explicit_sweeps())
    @example((STAIR, [0.5, 2.0, 0.5, 8.0], DIVERGENT_HEAD, "lambda", False))
    @example((STAIR, [4.0, 1.0, 0.3], SIGMA_DEGENERATE, "lambda", False))
    @example((STAIR, [3.0, 0.2, 3.0], corollary_couple(2.0, 1.0), "s", True))
    def test_each_entry_is_its_one_t_call(self, case):
        f, ts, cfg, flavor, check = case
        got = _outcome(lambda: k_explicit_curve(f, ts, cfg, flavor, check_hypotheses=check))
        if flavor == "lambda":  # which takes f* only
            if not f.is_nonincreasing():
                with pytest.raises(ValueError, match="non-increasing"):
                    k_explicit_general(f, 1.0, cfg)
            want = [_outcome(lambda t=t: k_explicit_general(rearrange(f), t, cfg)) for t in ts]
        else:
            want = [_outcome(lambda t=t: k_explicit_s(f, t, cfg, check_hypotheses=check)) for t in ts]
        if isinstance(got, tuple):  # a ValueError: every one-t call raises it too
            assert want == [got] * len(ts)
            return
        assert len(got) == len(ts)
        for a, b in zip(got, want):
            assert (a.value, a.param, a.left, a.right, a.tail_root, a.flags) == (
                b.value, b.param, b.left, b.right, b.tail_root, b.flags)
            assert (a.hypotheses is None) == (b.hypotheses is None) == (flavor == "lambda" or not check)
            assert repr(a.hypotheses) == repr(b.hypotheses)  # repr: a verdict's witness may be nan

    def test_divergent_head_and_degenerate_sigma_are_flagged(self):
        res = k_explicit_curve(STAIR, [0.5, 8.0], DIVERGENT_HEAD, "lambda")
        assert [r.flags for r in res] == [("divergent-head", "sigma-degenerate")] * 2
        assert all(math.isinf(r.value) and r.param == 0.0 and r.right == 0.0 for r in res)
        res = k_explicit_curve(STAIR, [0.3, 1.0, 4.0], SIGMA_DEGENERATE, "lambda")
        assert [r.flags for r in res] == [("sigma-degenerate",)] * 3
        assert [r.value for r in res] == [r.left for r in res]

    def test_rejects_an_unknown_flavor_and_a_bad_t(self):
        with pytest.raises(ValueError, match="flavor"):
            k_explicit_curve(STAIR, [1.0], TestExplicitGeneral.COUPLE, "gamma")
        with pytest.raises(ValueError, match="split point"):
            k_explicit_curve(STAIR, [1.0, math.inf], TestExplicitGeneral.COUPLE, "lambda")

    @pytest.mark.parametrize("flavor", ["lambda", "s"])
    @pytest.mark.parametrize("w", [PowerWeight(0.3), PowerLogWeight(-0.4, 0.7),
                                   TabulatedWeight(StepFunction((0.5, 2.0, 9.0), (1.0, 0.0, 3.0)))],
                             ids=["power", "powerlog", "tabulated"])
    def test_window_arrays_are_one_call_per_window(self, flavor, w):
        x = STAIR.breakpoints
        ts = np.array([0.3, 4.0, 1.0, 2.0, 1.0, 50.0])
        for lo, hi in ((0.0, ts), (ts, math.inf), (ts / 2.0, ts)):
            lengths, left, moments, tail = cell_moments(flavor, 2.5, w, x, lo, hi)
            for k in range(ts.size):
                one = cell_moments(flavor, 2.5, w, x, float(np.broadcast_to(lo, ts.shape)[k]),
                                   float(np.broadcast_to(hi, ts.shape)[k]))
                np.testing.assert_array_equal(lengths, one[0])
                np.testing.assert_array_equal(left, one[1])
                np.testing.assert_array_equal(moments[k], one[2])
                assert (tail[k] if flavor == "s" else tail) == one[3]

    @pytest.mark.parametrize("flavor", ["lambda", "s"])
    def test_windowed_integrals_are_the_one_window_values_bit_for_bit(self, flavor):
        """A sweep's window takes its own one-row product: a gemv or an elementwise sum of the
        moment rows would differ from the one-window dot in the last bit on some of these."""
        for entry, w in itertools.product(make_corpus(7, 20), (PowerWeight(0.3), PowerLogWeight(-0.4, 0.7))):
            fstar, ts = rearrange(entry.fn), np.array(t_sweep(entry.fn, 9))
            for p in (1.5, 2.5):
                assert _powered(flavor, fstar, p, w, 0.0, ts).tolist() == [
                    _powered(flavor, fstar, p, w, 0.0, t) for t in ts.tolist()]
                assert _powered(flavor, fstar, p, w, ts, math.inf).tolist() == [
                    _powered(flavor, fstar, p, w, t, math.inf) for t in ts.tolist()]

    @pytest.mark.parametrize("flavor", ["lambda", "s"])
    def test_two_moment_calls_per_sweep(self, flavor):
        real = PowerWeight.moment
        with mock.patch.object(PowerWeight, "moment", autospec=True, side_effect=real) as moment:
            cfg = CoupleConfig(2.0, PowerWeight(0.5), 2.0, PowerWeight(-0.5))
            k_explicit_curve(STAIR, np.geomspace(0.1, 40.0, 15), cfg, flavor, check_hypotheses=False)
        assert moment.call_count == 2

    @pytest.mark.parametrize("flavor", ["lambda", "s"])
    def test_a_power_log_sweep_takes_r_from_one_moment_call_per_weight(self, flavor):
        """A probe at t = 1 and one sweep call per weight for r(t), one call per integral: 6, where r(t)
        taken point by point made 34."""
        cfg = CoupleConfig(2.0, PowerLogWeight(0.5, 1.0), 2.0, PowerLogWeight(-0.5, 0.5))
        with mock.patch.object(PowerLogWeight, "moment", autospec=True, side_effect=PowerLogWeight.moment) as moment:
            k_explicit_curve(STAIR, Grid.log(1.0, 100.0, 15).points, cfg, flavor, check_hypotheses=False)
        assert moment.call_count <= 6


class TestOracle:
    SPACE0 = LorentzSpace("lambda", 2.0, FLAT)
    SPACE1 = LorentzSpace("lambda", 2.0, PowerWeight(0.5))

    def test_value_monotone_in_t(self):
        vals = [k_oracle(KQuery(STAIR, t, self.SPACE0, self.SPACE1)).value for t in np.geomspace(0.1, 10.0, 8)]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_beats_or_matches_truncation(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            f = random_nonincreasing(rng)
            t = float(rng.uniform(0.2, 5.0))
            res = k_oracle(KQuery(f, t, self.SPACE0, self.SPACE1))
            assert res.value <= res.truncation_value + 1e-12
            assert res.converged

    def test_decomposition_is_feasible(self):
        res = k_oracle(KQuery(STAIR, 1.3, self.SPACE0, self.SPACE1))
        res.decomposition.validate_sum(STAIR, rel_tol=1e-9)
        assert res.decomposition.is_monotone()
        direct = norm(self.SPACE0, res.decomposition.f0) + 1.3 * norm(
            self.SPACE1, res.decomposition.f1
        )
        assert direct == pytest.approx(res.value, rel=1e-6)

    def test_nonmono_never_exceeds_mono(self):
        for t in (0.3, 1.0, 3.0):
            q = KQuery(STAIR, t, self.SPACE0, self.SPACE1)
            mono = k_oracle(q)
            free = reference.free_oracle(q, m=24)
            assert free.value <= mono.value + 1e-12

    def test_seed_is_deterministic(self):
        q = KQuery(STAIR, 0.7, self.SPACE0, self.SPACE1)
        # the seed draws the reference search's last start
        a = reference.free_oracle(q, seed=42)
        b = reference.free_oracle(q, seed=42)
        assert (a.value, a.decomposition) == (b.value, b.decomposition)

    def test_monotone_oracle_refuses_gamma_spaces(self):
        gamma = LorentzSpace("gamma", 2.0, FLAT)
        for space0, space1 in ((gamma, LAMBDA2), (LAMBDA2, gamma)):
            with pytest.raises(InvalidWeightError, match="gamma"):
                k_oracle(KQuery(STAIR, 1.0, space0, space1))


def _brute_truncation_family(F, monotone):
    """Every (cut, level) pair, duplicates included, then np.unique."""
    m = F.size
    rows = []
    for k in range(m + 1):
        for c in np.unique(np.concatenate((F, [0.0]))):
            if monotone and 1 <= k < m and c < F[k]:
                continue
            rows.append(np.where(np.arange(m) < k, np.maximum(F - c, 0.0), 0.0))
    return np.unique(np.array(rows), axis=0)


class TestTruncationFamily:
    @pytest.mark.parametrize("monotone", [True, False])
    def test_matches_brute_force_construction(self, monotone):
        """The reference's on a grid finer than f*; the oracle's on the steps of f*, where the family is
        the head corners d = hi on the cells < k, with the parts (F - F_k)^+."""
        rng = np.random.default_rng(41)
        for _ in range(25):
            m = int(rng.integers(1, 12))
            # repeated values and trailing zeros, as on a grid finer than f*
            F = np.sort(rng.choice(np.append(rng.uniform(0.1, 5.0, 4), 0.0), m))[::-1]
            if not monotone:
                np.testing.assert_array_equal(reference.truncation_family(F), _brute_truncation_family(F, False))
                continue
            f = StepFunction(np.arange(1.0, m + 1.0), F)  # the steps of f*: runs merged, no zero tail
            if f.is_zero:
                continue
            problem = _GridProblem(f, LAMBDA2, LAMBDA2)
            D = problem.family[0]
            hi = problem.objective.hi
            np.testing.assert_array_equal(D, [np.where(np.arange(hi.size) < k, hi, 0.0) for k in range(hi.size + 1)])
            parts = problem.parts(np.arange(hi.size + 1))
            np.testing.assert_array_equal(parts, _brute_truncation_family(problem.F, True))
            np.testing.assert_allclose(D[:, ::-1].cumsum(axis=1)[:, ::-1], parts, rtol=1e-14, atol=1e-14 * F[0])


@st.composite
def head_corner_cases(draw):
    """A function of 1 to 8 strictly decreasing cells, a lambda or s couple of power or power-log
    weights at exponents in [1, 4], and a parameter."""
    n = draw(st.integers(1, 8))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(sorted(values, reverse=True)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    spaces = []
    for _ in range(2):
        p = draw(st.floats(1.0, 4.0))
        # lambda needs beta > -1 at 0, s needs beta < p - 1 at infinity
        beta = draw(st.floats(-0.5, 0.5) if flavor == "lambda" else st.floats(-0.5, p - 1.1))
        w = PowerLogWeight(beta, draw(st.floats(-1.0, 1.0))) if draw(st.booleans()) else PowerWeight(beta)
        spaces.append(LorentzSpace(flavor, p, w))
    return f, spaces, draw(st.floats(0.05, 20.0))


class TestHeadCorners:
    """The monotone truncation candidates are the head corners, evaluated from y = Bd."""

    @settings(max_examples=100, deadline=None)
    @given(head_corner_cases())
    def test_values_match_the_cell_kernel(self, case):
        """N0 + t N1 of each head corner, from y = Bd, is the cell kernel's N0((F - F_k)^+) + t N1 of
        the rest min(F, F_k), to a few ulps."""
        f, (space0, space1), t = case
        problem = _GridProblem(f, space0, space1)
        _, n0, n1 = problem.family
        levels = np.append(f.values, 0.0)[:, None]

        def kernel(space, V):
            cells = cell_moments(space.flavor, space.p, space.w, f.breakpoints)
            return cell_sums(space.flavor, space.p, V, *cells)[0] ** (1.0 / space.p)

        expected = kernel(space0, np.maximum(f.values - levels, 0.0)) + t * kernel(space1, np.minimum(f.values, levels))
        np.testing.assert_allclose(n0 + t * n1, expected, rtol=2e-15, atol=0.0)

    def test_the_exhaustive_reference_does_not_evaluate_from_y(self, monkeypatch):
        """Scaling the y = Bd norms moves the oracle, not the lattice search, which takes the cell kernel."""
        f, grid = StepFunction((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)), Grid((1.0, 2.0, 3.0))
        queries = [KQuery(f, t, LorentzSpace("lambda", 1.0, FLAT), LorentzSpace("lambda", 1.0, PowerWeight(0.5)))
                   for t in (0.4, 1.1, 2.5)]
        before = [(k_oracle(q).value, reference.exhaustive(q, grid, quantum=1.0)) for q in queries]
        real = _SpaceOnGrid.norms
        monkeypatch.setattr(_SpaceOnGrid, "norms", lambda self, D: 1.01 * real(self, D))
        for q, (oracle, exhaustive) in zip(queries, before):
            assert k_oracle(q).value == pytest.approx(1.01 * oracle, rel=1e-14)
            assert reference.exhaustive(q, grid, quantum=1.0) == exhaustive


@st.composite
def oracle_queries(draw):
    n = draw(st.integers(1, 4))
    widths = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(sorted(values, reverse=True)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    # the s flavor needs beta < p - 1 at infinity
    exponents = [1.0, 1.5, 2.0, 3.0] if flavor == "lambda" else [1.5, 2.0, 3.0]
    betas = [-0.5, 0.0, 0.5] if flavor == "lambda" else [-0.5, 0.0, 0.3]
    spaces = [
        LorentzSpace(flavor, draw(st.sampled_from(exponents)), PowerWeight(draw(st.sampled_from(betas))))
        for _ in range(2)
    ]
    return KQuery(f, draw(st.floats(0.05, 20.0)), *spaces)


class TestOracleProperties:
    @settings(max_examples=40, deadline=None)
    @given(oracle_queries())
    def test_oracle_invariants(self, q):
        res = k_oracle(q)
        # the trivial splits (f, 0) and (0, f) are candidates
        bound = min(norm(q.space0, q.f), q.t * norm(q.space1, q.f))
        assert res.value <= bound * (1.0 + 1e-9)
        assert res.value <= res.truncation_value
        dec = res.decomposition
        assert dec.is_monotone()
        dec.validate_sum(q.f)
        direct = norm(q.space0, dec.f0) + q.t * norm(q.space1, dec.f1)
        assert direct == pytest.approx(res.value, rel=1e-9)


def _monotone_problem(q, m=16):
    """The reference objective on the padded grid ``oracle_reference.oracle_grid(f*, m)`` and its best
    truncation candidate: the same minimum as ``k_oracle``'s problem on the steps of f*, with more
    coordinates.  Its rows are non-increasing, so the reference's sort leaves them in place."""
    fstar = rearrange(q.f)
    g = reference.oracle_grid(fstar, m).points
    obj = reference.Objective(q.space0, q.space1, g, fstar.at(g), q.t)
    U = _brute_truncation_family(obj.F, monotone=True)
    return obj, obj.F, U[int(np.argmin(obj.values(U)))]


def _gap(obj, u):
    """The certificate of ``_CoupleObjective.point`` at the monotone candidate u of the reference
    objective's problem."""
    lib = _CoupleObjective(_SpaceOnGrid(obj.space0, obj.g), _SpaceOnGrid(obj.space1, obj.g), obj.F, obj.t)
    return lib.point(np.minimum(u - np.append(u[1:], 0.0), lib.hi))[2]


def _five_start_search(obj, F, u_trunc, seed=0):
    """The monotone search without the early exit: (best value, each start's end point as u)."""
    hi = F - np.append(F[1:], 0.0)

    def to_u(d):
        return np.minimum(np.maximum(np.cumsum(d[::-1])[::-1], 0.0), F)

    def vg(d):
        val, gu = obj.value_grad(to_u(d))
        return val, gu.cumsum()

    rng = np.random.default_rng(seed)
    x_trunc = u_trunc - np.append(u_trunc[1:], 0.0)
    starts = [x_trunc, hi, np.zeros_like(hi), hi / 2.0, rng.uniform(size=hi.size) * hi]
    best, ends = obj.values(u_trunc)[0], []
    for x0 in starts:
        res = reference.lbfgsb(vg, x0, hi)
        best = min(best, float(res.fun))
        ends.append(to_u(res.x))
    return best, ends


LAMBDA2 = LorentzSpace("lambda", 2.0, FLAT)
# a couple on which the optimizer beats STAIR's best truncation candidate at t = 1, by 9%
BEATEN = (LorentzSpace("lambda", 2.0, PowerWeight(-0.5)), LorentzSpace("lambda", 1.5, PowerWeight(0.3)))


class TestOracleCertificate:
    """``_CoupleObjective.gap`` bounds J(u) - min J, and the early exit it drives."""

    @settings(max_examples=40, deadline=None)
    @given(oracle_queries())
    # equal spaces: the optimum is u = 0 below t = 1 and u = f* above
    @example(KQuery(STAIR, 0.05, LAMBDA2, LAMBDA2))
    @example(KQuery(STAIR, 20.0, LAMBDA2, LAMBDA2))
    @example(KQuery(STAIR, 1.0, *BEATEN))
    def test_gap_bounds_every_candidate(self, q):
        obj, F, u_trunc = _monotone_problem(q)
        res = k_oracle(q)
        hi = F - np.append(F[1:], 0.0)
        # box points: each difference at 0, at its bound or in between
        rng = np.random.default_rng(0)
        W = rng.uniform(size=(200, F.size))
        pick = rng.uniform(size=W.shape)
        W[pick < 0.25], W[pick > 0.75] = 0.0, 1.0
        U = np.minimum(np.cumsum((W * hi)[:, ::-1], axis=1)[:, ::-1], F)
        _, ends = _five_start_search(obj, F, u_trunc)
        lowest = min(obj.values(U).min(), obj.values(ends).min())
        for value, gap in ((obj.values(u_trunc)[0], _gap(obj, u_trunc)), (res.value, res.gap)):
            assert gap >= 0.0
            assert lowest >= value - gap - 1e-12 * value

    @pytest.mark.parametrize("p0,p1,t,value", [(0.5, 2.0, 1.0, 4.5334517648099535), (0.7, 0.7, 3.0, 12.265963273248264)])
    def test_below_exponent_one_there_is_no_certificate(self, p0, p1, t, value):
        """Below exponent 1 the oracle takes the best corner of the box and runs no search.  At
        p_0, p_1 <= 1, J is concave and that corner is exact; a mixed couple, neither convex nor
        concave, has no certificate and is not converged."""
        q = KQuery(STAIR, t, LorentzSpace("lambda", p0, FLAT), LorentzSpace("lambda", p1, PowerWeight(-0.5)))
        res = k_oracle(q)
        concave = max(p0, p1) <= 1.0
        assert (res.starts, res.converged, res.gap) == (0, concave, 0.0 if concave else math.inf)
        assert res.value == pytest.approx(value, rel=1e-14)

    def test_below_exponent_one_verify_flags_nothing(self):
        report = run_theorem_suite("generalk", corpus=make_corpus(7, 8), p=0.5, alpha=0.5, t_count=5)
        assert not any(r.flags for r in report.records)

    @pytest.mark.parametrize("t,zero_part", [(0.05, "f0"), (20.0, "f1")])
    def test_vanishing_part_is_certified_at_truncation(self, t, zero_part):
        res = k_oracle(KQuery(STAIR, t, LAMBDA2, LAMBDA2))
        assert (res.starts, res.iterations, res.gap) == (0, 0, 0.0)
        assert getattr(res.decomposition, zero_part).is_zero
        assert res.value == pytest.approx(min(1.0, t) * norm(LAMBDA2, STAIR), rel=1e-12)

    def test_unconstrained_mode_runs_every_start_and_has_no_certificate(self):
        """The reference's unconstrained search adds its distinct starts to the oracle's, and certifies nothing."""
        q = KQuery(STAIR, 1.3, TestOracle.SPACE0, TestOracle.SPACE1)
        mono, free = k_oracle(q), reference.free_oracle(q, m=16)
        # the distinct starts: the truncation candidate repeats a corner here
        assert free.starts == mono.starts + 4
        assert free.gap == math.inf and math.isfinite(mono.gap)

    def test_early_exit_matches_five_starts_on_verify_queries(self):
        """The t11 and cor1 queries of a small verify corpus at m = 16."""
        cfg = corollary_couple(2.0, 1.0)
        s0, s1 = LorentzSpace("s", cfg.p0, cfg.w0), LorentzSpace("s", cfg.p1, cfg.w1)
        tilde0, tilde1 = (
            LorentzSpace("lambda", p, reciprocal_weight(w, p)) for p, w in ((cfg.p0, cfg.w0), (cfg.p1, cfg.w1))
        )
        queries = []
        for entry in make_corpus(seed=7, size=14):
            fstar = rearrange(entry.fn)
            for t in t_sweep(entry.fn, 3):
                theta = k_explicit_s(entry.fn, t, cfg, check_hypotheses=False).param
                queries += [KQuery(fstar, t, s0, s1), KQuery(osc_transform(fstar).as_step(), t, tilde0, tilde1),
                            KQuery(fstar, theta, s0, s1)]
        starts = []
        for q in queries:
            res = k_oracle(q)
            obj, F, u_trunc = _monotone_problem(q)
            expected, _ = _five_start_search(obj, F, u_trunc, seed=7)
            assert res.value == pytest.approx(expected, rel=1e-10, abs=0.0)
            assert res.gap >= 0.0
            assert res.gap <= 1e-10 * res.value or res.starts == 5
            starts.append(res.starts)
        assert starts.count(0) > len(queries) // 2


@st.composite
def concave_curves(draw):
    """A non-increasing function of at most 6 steps, a lambda or s couple with power weights at
    exponents in (0, 1], and a parameter."""
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(sorted(values, reverse=True)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    spaces = []
    for _ in range(2):
        p = draw(st.floats(0.1, 1.0))
        # lambda needs beta > -1 at 0, s needs beta < p - 1 at infinity
        beta = draw(st.floats(-0.5, 0.5) if flavor == "lambda" else st.floats(-1.5, p - 1.1))
        spaces.append(LorentzSpace(flavor, p, PowerWeight(beta)))
    return f, tuple(spaces), draw(st.floats(0.05, 20.0))


def _objective_from_y(space0, space1, f, t, D):
    """J at the differences in the rows of D, from y = Bd and y = B(hi - d): sums of
    non-negative terms, so a vanishing y is exactly 0 and no digits cancel."""
    ev0, ev1 = _SpaceOnGrid(space0, f.breakpoints), _SpaceOnGrid(space1, f.breakpoints)
    hi = f.values - np.append(f.values[1:], 0.0)
    n0, n1 = ((((X @ ev.B.T) ** ev.p) @ ev.omega) ** (1.0 / ev.p) for ev, X in ((ev0, D), (ev1, hi - D)))
    return n0 + t * n1


LAMBDA_HALF = (LorentzSpace("lambda", 0.5, PowerWeight(-0.5)), LorentzSpace("lambda", 0.5, PowerWeight(0.3)))
# six steps; at t = 0.2154 L-BFGS-B from the centre and both corners stops at 196.44275257338668,
# 2.16 times the minimum
RANDOM_MONOTONE_1 = next(e.fn for e in make_corpus(7, 20) if e.f_id == "random-monotone-1")


class TestCorners:
    """At p_0, p_1 <= 1 the objective is concave in the differences, so its minimum over the box
    lies at a corner, d_k in {0, hi_k}; at p_0 = p_1 = 1 it is linear."""

    @settings(max_examples=60, deadline=None)
    @given(concave_curves())
    @example((RANDOM_MONOTONE_1, LAMBDA_HALF, 0.21544346900318834))
    def test_the_best_corner_is_exact(self, case):
        f, (space0, space1), t = case
        (res,) = k_curve(f, space0, space1, [t])
        hi = f.values - np.append(f.values[1:], 0.0)
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=hi.size))) * hi
        assert res.value == pytest.approx(_objective_from_y(space0, space1, f, t, corners).min(), rel=1e-14)
        assert (res.gap, res.converged, res.starts) == (0.0, True, 0)
        # u jumps only where f* does, each time by 0 or the whole jump
        d = res.u - np.append(res.u[1:], 0.0)
        assert np.all(np.isclose(d, 0.0, rtol=0.0, atol=1e-12 * f.values[0]) | np.isclose(d, hi, rtol=1e-12))
        # box points: each difference at 0, at its bound or in between
        rng = np.random.default_rng(0)
        W = rng.uniform(size=(200, hi.size))
        pick = rng.uniform(size=W.shape)
        W[pick < 0.25], W[pick > 0.75] = 0.0, 1.0
        assert _objective_from_y(space0, space1, f, t, W * hi).min() >= res.value * (1.0 - 1e-13)

    def test_the_case_the_search_missed(self):
        res = k_oracle(KQuery(RANDOM_MONOTONE_1, 0.21544346900318834, *LAMBDA_HALF))
        assert res.value == pytest.approx(90.86458431896317, rel=1e-14)

    def test_above_the_table_the_descent_is_flagged(self):
        """17 steps: each t descends one flip at a time from its truncation candidate, with no certificate."""
        f = random_nonincreasing(np.random.default_rng(5), n=17)
        assert f.values.size == 17
        ts = np.logspace(-2.0, 2.0, 7).tolist()
        for res in k_curve(f, *LAMBDA_HALF, ts):
            assert (res.converged, res.gap, res.starts) == (False, math.inf, 0)
            assert res.value <= res.truncation_value
        report = run_theorem_suite("generalk", corpus=[replace(make_corpus(7, 1)[0], fn=f)], p=0.5, alpha=0.5, t_count=3)
        assert all("oracle-unconverged" in r.flags for r in report.records)

    def test_a_linear_couple_descends_to_the_slope_sign_corner(self):
        """At p_0 = p_1 = 1, J(d) = c_0 d + t c_1 (hi - d) with c = omega B: the descent from the
        truncation candidate ends at d_k = hi_k where c_0k < t c_1k, 0 elsewhere, above the table too."""
        f = random_nonincreasing(np.random.default_rng(3), n=20, lo=0.5, hi=20.0)
        space0, space1 = LorentzSpace("lambda", 1.0, PowerWeight(-0.5)), LorentzSpace("lambda", 1.0, PowerWeight(0.3))
        ev0, ev1 = _SpaceOnGrid(space0, f.breakpoints), _SpaceOnGrid(space1, f.breakpoints)
        c0, c1 = ev0.omega @ ev0.B, ev1.omega @ ev1.B
        hi = f.values - np.append(f.values[1:], 0.0)
        ts = [0.1, 0.3, 0.6, 1.0, 3.0]
        mixed = 0
        for res, t in zip(k_curve(f, space0, space1, ts), ts):
            d = np.where(c0 < t * c1, hi, 0.0)
            mixed += 0 < np.count_nonzero(d) < d.size
            assert (res.gap, res.converged) == (0.0, True)
            assert res.value == pytest.approx(c0 @ d + t * (c1 @ (hi - d)), rel=1e-13)
        assert mixed  # some corner is neither u = 0 nor u = f*


@st.composite
def one_step_cases(draw):
    """A one-step function, a lambda or s couple of power or power-log weights at exponents in [1, 3], and t."""
    f = StepFunction((draw(st.floats(0.05, 20.0)),), (draw(st.floats(0.1, 10.0)),))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    spaces = []
    for _ in range(2):
        p = draw(st.floats(1.0, 3.0))
        # lambda needs beta > -1 at 0, s needs beta < p - 1 at infinity
        beta = draw(st.floats(-0.5, 0.5) if flavor == "lambda" else st.floats(-0.5, p - 1.1))
        w = PowerWeight(beta) if draw(st.booleans()) else PowerLogWeight(beta, draw(st.floats(-1.0, 1.0)))
        spaces.append(LorentzSpace(flavor, p, w))
    return f, spaces, draw(st.floats(0.05, 20.0))


class TestOneStep:
    """On one step, y = Bd is one column, so J(d) = N0(Ld) + t N1(L(hi - d)) is linear in d at any
    exponents: the corners d = 0 and d = hi are exact, with gap 0 and no Newton run."""

    @staticmethod
    def _assert_exact(res, f, space0, space1, t):
        best = min(norm(space0, f), t * norm(space1, f))
        assert abs(res.value - best) <= 4 * math.ulp(best)
        assert (res.gap, res.starts, res.converged) == (0.0, 0, True)

    @settings(max_examples=80, deadline=None)
    @given(one_step_cases())
    def test_the_best_corner_is_exact(self, case):
        f, (space0, space1), t = case
        (res,) = k_curve(f, space0, space1, [t])
        self._assert_exact(res, f, space0, space1, t)
        if space0.flavor == "s":
            (pair,) = k_curve_s_couple(f, space0, space1, [t])
            self._assert_exact(pair.direct, f, space0, space1, t)
            tilde = [LorentzSpace("lambda", sp.p, reciprocal_weight(sp.w, sp.p)) for sp in (space0, space1)]
            self._assert_exact(pair.transformed, osc_transform(f).as_step(), *tilde, t)


def _verify_spaces():
    """The s-couple of the t11 and cor1 suites (p = 2, alpha = 1) and its reciprocal lambda-couple."""
    cfg = corollary_couple(2.0, 1.0)
    tilde = (LorentzSpace("lambda", p, reciprocal_weight(w, p)) for p, w in ((cfg.p0, cfg.w0), (cfg.p1, cfg.w1)))
    return LorentzSpace("s", cfg.p0, cfg.w0), LorentzSpace("s", cfg.p1, cfg.w1), *tilde


@st.composite
def dual_problems(draw):
    """A lambda or s space on a grid, a coefficient per difference, and which differences are free
    (a tied cell, f*_k = f*_{k+1}, pins d_k at 0)."""
    n = draw(st.integers(1, 8))
    g = np.cumsum(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    beta = draw(st.sampled_from([-0.5, 0.0, 0.5] if flavor == "lambda" else [-0.5, 0.0, 0.3]))
    space = LorentzSpace(flavor, draw(st.sampled_from([1.5, 2.0, 3.0])), PowerWeight(beta))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    free = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return space, g, c, free


def _block_maximizer(c, X, p, free):
    """Differences d (0 off ``free``) whose suffix sums are (sigma^+)^{p'-1} at the free points:
    the maximizer of <c, d> over sum_i W_i (sum_{k>=i} d_k)^p <= 1, up to scale."""
    k = np.flatnonzero(free)
    sigma = np.maximum(kfunctional._level_slopes(c[k], X[k]), 0.0)
    level = (sigma / sigma.max() if sigma.any() else sigma) ** (1.0 / (p - 1.0))
    d = np.zeros(c.size)
    d[k] = level - np.append(level[1:], 0.0)
    return d


class TestLevelDual:
    """``_SpaceOnGrid.cone_dual``: the exact dual norm over the cone for the lambda and s flavors."""

    @settings(max_examples=80, deadline=None)
    @given(dual_problems(), st.integers(0, 2**32 - 1), st.integers(-300, 300))
    # subnormal coefficients, on which both the dual and <c, d> / N(Ld) round
    @example((LorentzSpace("s", 2.0, FLAT), np.array([1.0, 2.0, 3.0]),
              np.array([0.0, 2.22507386e-313, 0.0]), np.ones(3, dtype=bool)), 0, 1)
    @example((LorentzSpace("lambda", 2.0, FLAT), np.array([1.0, 2.0, 3.0, 4.0]),
              np.array([0.0, 0.0, 2.22507386e-311, -1.0]), np.array([False, False, True, True])), 0, 0)
    def test_sound_and_attained(self, problem, seed, k):
        space, g, c, free = problem
        ev, cells = _SpaceOnGrid(space, g), cell_moments(space.flavor, space.p, space.w, g)
        n, p = c.size, ev.p
        # The checks run on c scaled by a power of two that brings its largest
        # positive free coefficient into [1/2, 1), as far as the others allow:
        # below the normal range no relative tolerance holds.  The dual is
        # positively homogeneous, exactly so under powers of two.
        top = float(np.maximum(c[free], 0.0).max(initial=0.0))
        c = np.ldexp(np.where(free, c, 0.0), min(-math.frexp(top)[1], 600))
        D, direction = ev.cone_dual(c, free)
        assert 0.0 <= D < math.inf
        assert ev.cone_dual(np.ldexp(c, k), free)[0] == np.ldexp(D, k)

        def ratio(d):  # <c, d> / N(Ld), the norm by the cell kernel
            u = np.cumsum(d[::-1])[::-1]
            return float(c @ d) / cell_sums(space.flavor, p, u, *cells)[0] ** (1.0 / p)

        # soundness on drawn differences, some of them zero
        rng = np.random.default_rng(seed)
        for _ in range(50):
            d = rng.exponential(size=n) * (rng.uniform(size=n) < 0.6) * free
            if d.any():
                assert ratio(d) <= D * (1.0 + 1e-12)
        # attainment by the block maximizer, mapped to differences of u for the s flavor
        lengths, left, moments, tail = cells
        if ev.flavor == "lambda":
            d = _block_maximizer(c, moments.cumsum(), p, free)
        else:
            x = left + lengths
            X = np.append(moments[1:], tail)[::-1].cumsum()
            d = _block_maximizer((c / x)[::-1], X, p, free[::-1])[::-1] / x
        if D > 0.0:
            assert ratio(d) == pytest.approx(D, rel=1e-12)
            # the maximizer that the exit from a corner follows
            assert (direction >= 0.0).all() and not direction[~free].any()
            assert ratio(direction) == pytest.approx(D, rel=1e-12)
        else:
            assert not d.any() and direction is None

    def test_subnormal_coefficients_scale_exactly(self):
        # the hull and its slopes are taken on c scaled into the normal range
        c, X = np.array([0.0, 0.7, -0.2]), np.array([0.3, 1.3, 2.0])
        D = kfunctional._level_dual(c, X, 2.0)[0]
        for k in (-1030, -1050, -1070):
            assert kfunctional._level_dual(np.ldexp(c, k), X, 2.0)[0] == np.ldexp(D, k)

    def test_jump_at_zero_weight_is_unbounded(self):
        # a free difference whose cells carry no weight: <c, d> > 0 at norm 0
        assert kfunctional._level_dual(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 2.0) == (math.inf, None)
        assert kfunctional._level_dual(np.array([-1.0, 2.0]), np.array([0.0, 1.0]), 2.0)[0] == 2.0


def _verify_queries():
    """The t11 and cor1 oracle queries of the seed-7 verify corpus of 14 entries at t-count 3."""
    cfg = corollary_couple(2.0, 1.0)
    s0, s1, tilde0, tilde1 = _verify_spaces()
    queries = []
    for entry in make_corpus(seed=7, size=14):
        fstar = rearrange(entry.fn)
        for t in t_sweep(entry.fn, 3):
            theta = k_explicit_s(entry.fn, t, cfg, check_hypotheses=False).param
            queries += [KQuery(fstar, t, s0, s1), KQuery(osc_transform(fstar).as_step(), t, tilde0, tilde1),
                        KQuery(fstar, theta, s0, s1)]
    return queries


def _degenerate_verify_queries():
    """The ten queries of a seed-7 verify-oracle pass whose optimum is a vanishing part.

    The two staircases' middle parameter on the s-couple and on the transform
    side, and the cor1 parameter theta of the longer one, each at m = 64 and
    refined at m = 128.
    """
    cfg = corollary_couple(2.0, 1.0)
    s0, s1, tilde0, tilde1 = _verify_spaces()
    entries = {e.f_id: e.fn for e in make_corpus(seed=7, size=14)}
    queries = []
    for f_id in ("staircase-arith-3", "staircase-arith-5"):
        fstar = rearrange(entries[f_id])
        t = t_sweep(fstar, 3)[1]
        queries += [KQuery(fstar, t, s0, s1), KQuery(osc_transform(fstar).as_step(), t, tilde0, tilde1)]
    theta = k_explicit_s(fstar, t, cfg, check_hypotheses=False).param
    queries.append(KQuery(fstar, theta, s0, s1))
    return queries


class TestCertifiedValues:
    """A certified value is never above what the search without the early exit finds."""

    @staticmethod
    def _every_start(q):
        with mock.patch.object(kfunctional, "_GAP_REL_TOL", -1.0):  # no gap passes, so every start runs
            return k_oracle(q)

    @settings(max_examples=30, deadline=None)
    @given(oracle_queries())
    def test_random_queries(self, q):
        res = k_oracle(q)
        if res.converged:
            assert res.value <= self._every_start(q).value * (1.0 + 1e-12)

    def test_every_verify_query_is_certified(self):
        """The exact dual certifies the vanishing parts, the Newton polish the smooth optima."""
        results = [k_oracle(q) for q in _verify_queries()]
        assert all(res.converged and res.gap <= 1e-10 * res.value for res in results)
        assert sum(res.starts for res in results) < len(results) // 2

    def test_degenerate_verify_queries(self):
        for q in _degenerate_verify_queries():
            res = k_oracle(q)
            assert (res.starts, res.converged) == (0, True)
            assert res.decomposition.f0.is_zero or res.decomposition.f1.is_zero
            assert res.value <= self._every_start(q).value * (1.0 + 1e-12)


@st.composite
def hessian_problems(draw):
    """A monotone lambda or s couple objective on a grid whose differences are all free,
    and a point strictly inside the box 0 <= d <= hi."""
    n = draw(st.integers(1, 6))
    g = np.cumsum(draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n)))
    hi = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    # the s flavor needs beta < p - 1 at infinity
    betas = [-0.5, 0.0, 0.5] if flavor == "lambda" else [-0.5, 0.0, 0.3]
    spaces = [LorentzSpace(flavor, draw(st.sampled_from([1.5, 2.0, 3.0])), PowerWeight(draw(st.sampled_from(betas))))
              for _ in range(2)]
    obj = _CoupleObjective(*(_SpaceOnGrid(space, g) for space in spaces), hi[::-1].cumsum()[::-1], 1.0)
    refs = [reference.Space(space, g) for space in spaces]
    return obj, refs, hi * np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))


class TestNewtonPolish:
    """The exact Hessian of the monotone objective, and the search it makes deterministic."""

    @settings(max_examples=60, deadline=None)
    @given(hessian_problems())
    def test_hessian_matches_central_differences(self, problem):
        obj, refs, d = problem
        # the polish takes H0(d) + t H1(hi - d); each part against the reference cell kernel's gradient
        # of Ly, a decreasing row, in differences
        for ev, ref, x in zip((obj.ev0, obj.ev1), refs, (d, obj.hi - d)):
            def grad(y):
                return ref.grad(y[::-1].cumsum()[::-1])[1].cumsum()

            H = ev.forward(x, hess=True)[2]
            h = 1e-4 * x.min()
            fd = np.array([(grad(x + h * e) - grad(x - h * e)) / (2.0 * h) for e in np.eye(x.size)]).T
            # a norm is homogeneous of degree 1, so its Hessian is of the size of gradient / u;
            # on one cell it vanishes, and the differences show only their own rounding
            scale = np.abs(H).max() + np.abs(grad(x)).max() / x.sum()
            np.testing.assert_allclose(H, H.T, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(H, fd, rtol=0.0, atol=1e-7 * scale)

    def test_vanishing_truncation_candidate_takes_one_start(self):
        """A t11 query of the CLI defaults whose best truncation candidate, u = 0, is uncertified:
        Newton from the centre certifies the optimum."""
        f = StepFunction((1.0, 1.5, 2.5), (3.0, 1.0, 0.5))
        s0, s1, _, _ = _verify_spaces()
        q = KQuery(f, t_sweep(f, 15)[7], s0, s1)
        obj, _, u_trunc = _monotone_problem(q, m=64)
        assert not u_trunc.any() and _gap(obj, u_trunc) > 1e-10 * obj.values(u_trunc)[0]
        res = k_oracle(q)
        assert (res.starts, res.converged) == (1, True)
        assert res.gap <= 1e-10 * res.value and res.value < res.truncation_value

    def test_a_start_that_collapses_onto_the_vertex_u_0(self):
        """The transformed lambda-couple of t11 at p = 1.5, alpha = 0.4 (reciprocal weights s^-0.5
        and s^-0.1) on random-monotone-3 of the seed-7 corpus, five steps: L-BFGS-B from the centre
        ends at d = 0, where N0 has its kink, and Newton from the centre certifies the optimum."""
        cfg = corollary_couple(1.5, 0.4)
        (entry,) = (e for e in make_corpus(seed=7, size=20) if e.f_id == "random-monotone-3")
        tstep = osc_transform(rearrange(entry.fn)).as_step()
        spaces = [LorentzSpace("lambda", 1.5, reciprocal_weight(w, 1.5)) for w in (cfg.w0, cfg.w1)]
        q = KQuery(tstep, 2.6355253153338025, *spaces)
        g = tstep.breakpoints
        obj = _CoupleObjective(_SpaceOnGrid(q.space0, g), _SpaceOnGrid(q.space1, g), tstep.values, q.t)
        ref = reference.Objective(q.space0, q.space1, g, tstep.values, q.t)

        def value_grad(d):  # J(Ld) and its gradient in the differences, by the reference cell kernel
            val, gu = ref.value_grad(obj.to_u(d))
            return val, gu.cumsum()

        centre = reference.lbfgsb(value_grad, obj.hi / 2.0, obj.hi)
        assert not centre.x.any() and obj.point(centre.x)[2] > 1.0
        res = k_oracle(q)
        assert len(res.grid) == 5 and (res.starts, res.converged) == (1, True)
        assert res.gap <= 1e-10 * res.value
        assert res.value == pytest.approx(40.718159121103334, rel=1e-12)


    def test_newton_leaves_the_kink_at_u_0_along_the_level_maximizer(self):
        """cor1 on staircase-arith-3 of the seed-7 corpus at its middle parameter: the optimum,
        u = (0.00876, 0.00161, 0), lies next to the corner u = 0, whose cone dual exceeds 1."""
        s0, s1, _, _ = _verify_spaces()
        (entry,) = (e for e in make_corpus(seed=7, size=14) if e.f_id == "staircase-arith-3")
        f, t = rearrange(entry.fn), 1.8612097182041993
        assert k_explicit_s(f, t_sweep(f, 3)[1], corollary_couple(2.0, 1.0), check_hypotheses=False).param == t
        res = k_oracle(KQuery(f, t, s0, s1))
        assert res.converged and res.gap <= 1e-10 * res.value
        assert res.value <= 3.2237045816858823 * (1.0 + 1e-12)
        # from the corner itself
        obj = _CoupleObjective(_SpaceOnGrid(s0, f.breakpoints), _SpaceOnGrid(s1, f.breakpoints), f.values, t)
        zero = np.zeros_like(obj.hi)
        vertex = obj.vertex(zero, obj.hi)
        assert vertex.gap(t) > 1e-10 * vertex.value(t) and t * vertex.dual > 1.0
        _, _, value, gap, _ = obj.newton(zero, obj.hi.copy())
        assert gap <= 1e-10 * value and value <= 3.2237045816858823 * (1.0 + 1e-12)
        # the mirror: the swapped couple at 1/t, K(f, t; X0, X1) = t K(f, 1/t; X1, X0), from the corner u = f*
        swapped = _CoupleObjective(obj.ev1, obj.ev0, f.values, 1.0 / t)
        vertex = swapped.vertex(swapped.hi, zero)
        assert vertex.gap(1.0 / t) > 1e-10 * vertex.value(1.0 / t) and t * vertex.dual > 1.0
        _, _, mirrored, mirrored_gap, _ = swapped.newton(swapped.hi.copy(), zero.copy())
        assert mirrored_gap <= 1e-10 * mirrored
        # within the gaps, and the rounding of the product by t
        assert abs(t * mirrored - value) <= gap + t * mirrored_gap + 4.0 * np.finfo(float).eps * value


@st.composite
def k_sweeps(draw):
    """A non-increasing function of at most 6 cells, a lambda or s couple with
    power weights, and three sorted parameters."""
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(sorted(values, reverse=True)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    spaces = []
    for _ in range(2):
        p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
        # the s flavor needs beta < p - 1 at infinity
        betas = [-0.5, 0.0, 0.5] if flavor == "lambda" else [b for b in (-0.5, 0.0, 0.3) if b < p - 1.1]
        spaces.append(LorentzSpace(flavor, p, PowerWeight(draw(st.sampled_from(betas)))))
    ts = sorted(draw(st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3, unique=True)))
    return f, spaces, ts


@st.composite
def fused_cases(draw):
    """A lambda or s space at p in {1, 1.5, 2, 3} on a grid of unequal widths, and differences
    d >= 0, some of them 0, so that rows of y = Bd vanish and u = Ld has runs of equal values."""
    n = draw(st.integers(1, 8))
    g = np.cumsum(draw(st.lists(st.floats(1e-3, 40.0), min_size=n, max_size=n)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    # the s flavor needs beta < p - 1 at infinity
    betas = [-0.5, 0.0, 0.5] if flavor == "lambda" else [b for b in (-0.5, 0.0, 0.3) if b < p - 1.1]
    space = LorentzSpace(flavor, p, PowerWeight(draw(st.sampled_from(betas))))
    d = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 3.0)), min_size=n, max_size=n))
    return space, g, np.array(d)


def _direct_gap(obj, ref, u):
    """The certificate at u from the reference cell kernel (``ref``, the objective's problem) and the cone
    dual at the objective's t."""
    val, gu = ref.value_grad(u)
    g = gu.cumsum()
    gap = max(float(g @ (u - np.append(u[1:], 0.0)) - np.minimum(g, 0.0) @ obj.hi), 0.0)
    if obj.ev0.p > 1.0 and not u.any():
        ev, c, scale = obj.ev0, -g, 1.0
    elif obj.ev1.p > 1.0 and np.array_equal(u, obj.F):
        ev, c, scale = obj.ev1, g, obj.t
    else:
        return gap
    return min(gap, max(ev.cone_dual(c, obj.hi > 0.0)[0] / scale - 1.0, 0.0) * val)


class TestFusedPass:
    """``_SpaceOnGrid.forward`` evaluates the monotone objective from y = Bd, as the cell kernel
    does on the values Ld, and ``_Vertex`` certifies the two corners of the box in closed form."""

    @settings(max_examples=80, deadline=None)
    @given(fused_cases())
    # u is a run of four equal values: the cell kernel took C = A - u x, which lost all its digits
    # where it vanishes, and C^(1/2) of that rounding moved the s gradient by 5.6e-9 relative
    @example((
        LorentzSpace("s", 1.5, PowerWeight(-0.5)),
        np.array([1.962709538354162, 24.230537487596358, 46.83691105615143, 63.837687270172346, 95.38795294754404]),
        np.array([0.0, 0.0, 0.0, 1.6014529429280226, 0.0]),
    ))
    def test_matches_the_cell_kernel(self, case):
        space, g, d = case
        ev, kernel = _SpaceOnGrid(space, g), reference.Space(space, g)
        u = d[::-1].cumsum()[::-1]
        value, grad, _ = ev.forward(d)
        assert value == pytest.approx(kernel.norm_pow(u)[0] ** (1.0 / ev.p), rel=1e-12, abs=0.0)
        ref = kernel.grad(u)[1].cumsum()  # u is sorted, so its cells stay in place
        np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(initial=0.0))

    @settings(max_examples=40, deadline=None)
    @given(k_sweeps())
    def test_vertex_certificates_match_the_direct_gap(self, case):
        f, (space0, space1), ts = case
        g, F = f.breakpoints, f.values
        base = _CoupleObjective(_SpaceOnGrid(space0, g), _SpaceOnGrid(space1, g), F, ts[0])
        for t in ts:
            obj = base.at(t)  # the corners, built at the first t, shared by the others
            ref = reference.Objective(space0, space1, g, F, t)
            for u in (np.zeros_like(F), F):
                d = np.minimum(u - np.append(u[1:], 0.0), obj.hi)
                vertex = obj.vertex(d, obj.hi - d)
                value = vertex.value(t)
                assert value == pytest.approx(ref.values(u)[0], rel=1e-12)
                # the gap can be a difference of near-equal terms (p = 1, t near 1): J sets its rounding
                assert vertex.gap(t) == pytest.approx(_direct_gap(obj, ref, u), rel=1e-12, abs=1e-14 * value)
                assert obj.point(d)[2] == vertex.gap(t)


class TestNewtonOnly:
    """The monotone oracle's flagged records on the CI configurations: Newton at p >= 1, the corners of the
    box below."""

    # the most flagged records each configuration may carry, as its CI step allows
    @pytest.mark.parametrize("suites,kwargs,most", [
        (("t11", "cor1", "t2", "generalk"), dict(seed=7, size=20, p=2.0, alpha=1.0, t_count=15), 0),
        (("t11", "cor1", "generalk"), dict(seed=7, size=20, p=1.5, alpha=0.4, t_count=15), 0),
        (("t11", "cor1", "generalk"), dict(seed=11, size=30, p=1.2, alpha=0.5, t_count=7), 0),
        (("t11", "cor1", "generalk"), dict(seed=11, size=30, p=1.1, alpha=0.5, t_count=7), 28),
        (("generalk",), dict(seed=7, size=20, p=0.5, alpha=0.5, t_count=15), 0),
        (("generalk",), dict(seed=7, size=20, p=0.8, alpha=0.5, t_count=15), 0),
        (("generalk",), dict(seed=7, size=20, p=1.0, alpha=0.5, t_count=15), 0),
    ], ids=["cli-defaults", "p-1.5", "p-1.2", "p-1.1", "p-0.5", "p-0.8", "p-1"])
    def test_the_ci_oracle_configurations(self, suites, kwargs, most):
        corpus = make_corpus(kwargs.pop("seed"), kwargs.pop("size"))
        flagged = 0
        for tag in suites:
            report = run_theorem_suite(tag, corpus=corpus, seed=7, **kwargs)
            flagged += sum(bool(r.flags) for r in report.records)
        assert flagged <= most


class TestOracleWork:
    """The monotone oracle's work on a verify-oracle pass: t11 and cor1 on the seed-7 corpus of 14
    entries, one entry per call, at p = 2, alpha = 1 and t-count 3, refined, as the benchmark runs it."""

    # the most Newton runs, Newton steps, ``point`` evaluations and ``_Vertex`` constructions per pass; and
    # the set-up: couple verdicts taken (one ``check_cond1`` each), ``np.geomspace`` and ``cell_moments``
    # calls (28, 28 and 112 when every call took its couple's verdicts and its sweep from np.geomspace)
    BUDGET = {"runs": 11, "steps": 65, "points": 86, "vertices": 32, "verdicts": 1, "geomspace": 0,
              "cell_moments": 112}

    def test_a_pass_stays_within_the_budget(self, monkeypatch):
        work = dict.fromkeys(self.BUDGET, 0)
        newton, point, vertex = _CoupleObjective.newton, _CoupleObjective.point, kfunctional._Vertex.__init__

        def counted_newton(obj, *args):
            out = newton(obj, *args)
            work["runs"], work["steps"] = work["runs"] + 1, work["steps"] + out[-1]
            return out

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                work[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(_CoupleObjective, "newton", counted_newton)
        monkeypatch.setattr(_CoupleObjective, "point", counted("points", point))
        monkeypatch.setattr(kfunctional._Vertex, "__init__", counted("vertices", vertex))
        monkeypatch.setattr(kfunctional, "check_cond1", counted("verdicts", kfunctional.check_cond1))
        monkeypatch.setattr(np, "geomspace", counted("geomspace", np.geomspace))
        for module in (kfunctional, norms):
            monkeypatch.setattr(module, "cell_moments", counted("cell_moments", module.cell_moments))
        for entry in make_corpus(7, 14):
            for tag in ("t11", "cor1"):
                run_theorem_suite(tag, (entry,), p=2.0, alpha=1.0, m=64, t_count=3, seed=7, refine=True)
        assert all(work[key] <= most for key, most in self.BUDGET.items()), work
        assert work["runs"] > 0 and work["verdicts"] == 1


class TestCoupleVerdicts:
    """``s_couple_hypotheses`` takes a couple's verdicts once per (cfg, eps) and hands every call a fresh dict."""

    TABLE = TabulatedWeight(StepFunction((0.5, 2.0, 9.0), (1.0, 0.5, 3.0)))
    COUPLES = {
        "power": corollary_couple(2.0, 1.0),
        "powerlog": CoupleConfig(2.0, PowerLogWeight(-0.5, -0.5), 2.0, PowerLogWeight(-1.0, -0.5)),
        "tabulated": CoupleConfig(2.0, TABLE, 1.5, TabulatedWeight(StepFunction((1.0, 4.0), (2.0, 1.0)))),
        "reciprocal": CoupleConfig(2.0, reciprocal_weight(TABLE, 2.0), 2.0, PowerWeight(-0.5)),
    }

    @pytest.mark.parametrize("eps", ["auto", 3.0])
    @pytest.mark.parametrize("name", COUPLES)
    def test_the_memoized_verdicts_are_a_fresh_evaluation(self, name, eps):
        cfg = self.COUPLES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the grid checks' quadrature may warn
            fresh = dict(kfunctional._couple_verdicts.__wrapped__(cfg, eps))
            first, again = s_couple_hypotheses(cfg, eps), s_couple_hypotheses(cfg, eps)
        assert repr(first) == repr(again) == repr(fresh)  # repr: a witness may be nan
        assert first is not again
        assert kfunctional._couple_verdicts.cache_info()[:2] == (1, 1)  # one hit, one miss

    def test_a_caller_s_edits_reach_no_other_caller(self):
        cfg = corollary_couple(2.0, 1.0)
        verdicts = s_couple_hypotheses(cfg)
        want = repr(verdicts)
        verdicts.pop("tail-doubling")
        verdicts["extra"] = None
        k_explicit_s(STAIR, 1.0, cfg).hypotheses.clear()
        assert repr(s_couple_hypotheses(cfg)) == want
        assert repr(k_explicit_s(STAIR, 2.0, cfg).hypotheses) == want

    def test_a_raising_couple_raises_on_every_call(self):
        # power-log tail moments that come out negative make a complex psi, which cannot be compared
        cfg = CoupleConfig(2.0, PowerLogWeight(0.5, 1.0), 2.0, PowerLogWeight(-0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2):
                with pytest.raises(TypeError, match="complex"):
                    s_couple_hypotheses(cfg)
        assert kfunctional._couple_verdicts.cache_info().currsize == 0


class TestKFunctionalLaws:
    """K(f, t) is non-decreasing and concave in t, and K(f, t)/t is non-increasing
    (Bergh-Lofstrom, Interpolation Spaces, Lemma 3.1.1)."""

    @settings(max_examples=30, deadline=None)
    @given(k_sweeps())
    def test_monotone_concave_and_ratio_non_increasing(self, case):
        f, (space0, space1), (t1, t2, t3) = case
        k1, k2, k3 = (k_oracle(KQuery(f, t, space0, space1)).value for t in (t1, t2, t3))
        rel = 1e-9
        assert k1 <= k2 * (1.0 + rel) and k2 <= k3 * (1.0 + rel)
        assert k3 / t3 <= k2 / t2 * (1.0 + rel) and k2 / t2 <= k1 / t1 * (1.0 + rel)
        chord = k1 + (k3 - k1) * (t2 - t1) / (t3 - t1)
        assert k2 >= chord - rel * k3

    @settings(max_examples=40, deadline=None)
    @given(oracle_queries())
    # the best truncation candidates of the two problems differ in value by 4%
    @example(KQuery(StepFunction((1.0, 5.0), (2.0, 1.0)), 2.0,
                    LorentzSpace("lambda", 1.0, PowerWeight(-0.5)), LorentzSpace("lambda", 2.0, PowerWeight(-0.5))))
    def test_swap_law_within_the_gaps(self, q):
        """K(f, t; X0, X1) = t K(f, 1/t; X1, X0): on the steps of f*, u -> f* - u maps one
        problem onto the other, so the two values differ by no more than their gaps."""
        a = k_oracle(q)
        b = k_oracle(KQuery(q.f, 1.0 / q.t, q.space1, q.space0))
        assert abs(a.value - q.t * b.value) <= a.gap + q.t * b.gap + 1e-12 * a.value


@st.composite
def unsorted_candidates(draw):
    n = draw(st.integers(1, 10))
    g = np.cumsum(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    u = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=n, max_size=n)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    p = draw(st.floats(1.0, 4.0))
    # lambda needs beta > -1, s needs beta < p - 1
    lo, hi = (-0.7, 2.0) if flavor == "lambda" else (-1.5, p - 1.3)
    beta = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
    family = draw(st.sampled_from(["power", "powerlog", "tabulated", "reciprocal"]))
    if family == "power":
        w = PowerWeight(beta)
    elif family == "powerlog":
        w = PowerLogWeight(beta, draw(st.floats(-1.0, 1.0)))
    else:  # a table of 1 to 4 cells, not all 0; its reciprocal at exponent p keeps the s tail finite
        k = draw(st.integers(1, 4))
        edges = np.cumsum(draw(st.lists(st.floats(0.1, 5.0), min_size=k, max_size=k)))
        values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 5.0)), min_size=k, max_size=k).filter(any))
        w = TabulatedWeight(StepFunction(tuple(edges), tuple(values)))
        w = w if family == "tabulated" else reciprocal_weight(w, p)
    return LorentzSpace(flavor, p, w), g, u


class TestRearrangedCandidates:
    @settings(max_examples=60, deadline=None)
    @given(unsorted_candidates())
    def test_norm_matches_norms_module(self, case):
        space, g, u = case
        ev = reference.Space(space, g)
        expected = norm(space, StepFunction(tuple(g), tuple(u)))
        assert ev.norm_pow(u)[0] ** (1.0 / ev.p) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_unconstrained_oracle_refuses_gamma_only(self, monkeypatch):
        """The reference's unconstrained search takes every weight family that ``cell_moments`` takes; a
        gamma space is refused before any search."""
        calls = []
        real_minimize = reference.minimize

        def counting_minimize(*args, **kwargs):
            calls.append(1)
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(reference, "minimize", counting_minimize)
        gamma = LorentzSpace("gamma", 2.0, FLAT)
        with pytest.raises(InvalidWeightError, match="gamma"):
            reference.free_oracle(KQuery(STAIR, 1.0, gamma, gamma), m=8)
        assert not calls  # refused before the monotone search
        tab0 = TabulatedWeight(StepFunction((0.5, 3.0), (2.0, 1.0)))
        tab1 = TabulatedWeight(StepFunction((1.5, 6.0), (0.5, 3.0)))
        for flavor, w0, w1 in (
            ("lambda", PowerLogWeight(0.5, 1.0), PowerLogWeight(-0.5, 0.5)),
            ("s", tab0, tab1),
            ("lambda", reciprocal_weight(tab0, 2.0), reciprocal_weight(tab1, 1.5)),
        ):
            space0, space1 = LorentzSpace(flavor, 2.0, w0), LorentzSpace(flavor, 1.5, w1)
            q = KQuery(STAIR, 1.0, space0, space1)
            mono, free = k_oracle(q), reference.free_oracle(q, m=8)
            free.decomposition.validate_sum(STAIR)
            assert free.value <= mono.value
        assert calls


class TestExhaustive:
    def test_matches_continuous_oracle_on_linear_instance(self):
        # p = 1 makes the objective linear, so the lattice contains an optimum
        f = StepFunction((1.0, 2.0, 3.0), (3.0, 2.0, 1.0))
        grid = Grid((1.0, 2.0, 3.0))
        space0 = LorentzSpace("lambda", 1.0, FLAT)
        space1 = LorentzSpace("lambda", 1.0, PowerWeight(0.5))
        for t in (0.4, 1.1, 2.5):
            q = KQuery(f, t, space0, space1)
            exact = reference.exhaustive(q, grid, quantum=1.0)
            cont = k_oracle(q)
            assert cont.value == pytest.approx(exact, rel=1e-9)
            assert cont.value >= exact - 1e-12

    def test_rejects_off_lattice_values(self):
        f = StepFunction((1.0, 2.0), (1.5, 0.7))
        q = KQuery(f, 1.0, LorentzSpace("lambda", 1.0, FLAT), LorentzSpace("lambda", 1.0, FLAT))
        with pytest.raises(ValueError, match="multiples"):
            reference.exhaustive(q, Grid((1.0, 2.0)), quantum=1.0)

    def test_rejects_large_grids(self):
        f = StepFunction((1.0,), (1.0,))
        q = KQuery(f, 1.0, LorentzSpace("lambda", 1.0, FLAT), LorentzSpace("lambda", 1.0, FLAT))
        with pytest.raises(ValueError, match="at most 6"):
            reference.exhaustive(q, Grid(tuple(float(i) for i in range(1, 9))), quantum=1.0)


class TestSCoupleOracle:
    def test_routes_agree(self):
        cfg = corollary_couple(2.0, 1.0)
        space0 = LorentzSpace("s", cfg.p0, cfg.w0)
        space1 = LorentzSpace("s", cfg.p1, cfg.w1)
        rng = np.random.default_rng(23)
        for _ in range(3):
            f = random_nonincreasing(rng, n=4)
            t = float(rng.uniform(0.3, 3.0))
            res = k_oracle_s_couple(KQuery(f, t, space0, space1))
            assert abs(res.ratio - 1.0) < 0.05
            assert res.direct.converged and res.transformed.converged

    def test_rejects_other_flavors(self):
        sp = LorentzSpace("lambda", 2.0, FLAT)
        with pytest.raises(ValueError, match="s-flavor"):
            k_oracle_s_couple(KQuery(STAIR, 1.0, sp, sp))


@st.composite
def s_couple_cases(draw):
    """A non-increasing function of 1 to 6 steps, an s couple of power or power-log weights with both
    exponents at most 1 or both in [1.05, 3], and 0 to 4 parameters."""
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(sorted(values, reverse=True)))
    exponents = st.floats(0.5, 1.0) if draw(st.booleans()) else st.floats(1.05, 3.0)
    spaces = []
    for _ in range(2):
        p = draw(exponents)
        beta = draw(st.floats(min(-0.5, p - 1.6), p - 1.1))  # the s flavor needs beta < p - 1 at infinity
        w = PowerWeight(beta) if draw(st.booleans()) else PowerLogWeight(beta, draw(st.floats(-1.0, 1.0)))
        spaces.append(LorentzSpace("s", p, w))
    return f, spaces, draw(st.lists(st.floats(0.05, 20.0), max_size=4))


class TestMappedTransform:
    """``k_curve_s_couple`` solves the s couple once and maps the optimal parts by the oscillation
    transform: the transformed curve, solved again under the reciprocal lambda couple, agrees within
    both gaps, and the mapped parts are a monotone split of Tf*."""

    @settings(max_examples=40, deadline=None)
    @given(s_couple_cases())
    @example((StepFunction.zero(), _verify_spaces()[:2], [0.5, 2.0]))
    @example((STAIR, _verify_spaces()[:2], []))
    @example((StepFunction.indicator(2.0, 3.0), _verify_spaces()[:2], [0.1, 1.0, 10.0]))
    # below exponent 1 a part whose values should run equal but differ by an ulp took 1.4e-9 relative
    # into its s-norm, so the corner route builds both parts from the differences
    @example((
        StepFunction((0.32892972334919773, 1.5523375038765248, 4.304775040711325, 8.699277466644494),
                     (6.609694202282977, 6.1120602236393475, 5.030564510040548, 0.4145470081770781)),
        [LorentzSpace("s", 0.6737082133248711, PowerWeight(-0.4465977639242226)),
         LorentzSpace("s", 0.5441838588792534, PowerLogWeight(-0.9032715607825836, -0.4607828304336288))],
        [14.131126165378255, 13.9170827976235],
    ))
    def test_the_mapped_curve_matches_a_second_solve(self, case):
        f, (space0, space1), ts = case
        tstep = osc_transform(rearrange(f)).as_step()
        tilde = [LorentzSpace("lambda", sp.p, reciprocal_weight(sp.w, sp.p)) for sp in (space0, space1)]
        pairs, again = k_curve_s_couple(f, space0, space1, ts), k_curve(tstep, *tilde, ts)
        assert len(pairs) == len(again) == len(ts)
        for pair, solved in zip(pairs, again):
            direct, mapped = pair.direct, pair.transformed
            assert abs(mapped.value - solved.value) <= direct.gap + solved.gap + 1e-12 * solved.value
            assert (mapped.gap, mapped.converged, mapped.starts, mapped.iterations) == (direct.gap, direct.converged, 0, 0)
            for part in (mapped.u, mapped.rest):
                assert (part[1:] <= part[:-1]).all() and part.min(initial=0.0) >= 0.0
            target = tstep.at(mapped.grid.points)
            # Tf* is at most the mass of f*, its value next to 0
            np.testing.assert_allclose(mapped.u + mapped.rest, target, rtol=0.0, atol=1e-12 * rearrange(f).total_integral)


def _suite_curves(t_count):
    """The oracle sweeps of the t2, cor1 and generalk suites on the seed-7 corpus of
    14 entries, as ``verify`` runs them: (f, space0, space1, parameters)."""
    curves = []
    for tag in ("t2", "cor1", "generalk"):
        cfg = _default_couple(tag, 2.0, 1.0)
        flavor = "lambda" if tag == "generalk" else "s"
        spaces = (LorentzSpace(flavor, cfg.p0, cfg.w0), LorentzSpace(flavor, cfg.p1, cfg.w1))
        for entry in make_corpus(seed=7, size=14):
            ts = t_sweep(entry.fn, t_count)
            if tag == "generalk":
                params = [fundamental_ratio(cfg)(t) for t in ts]
            else:
                params = [k_explicit_s(entry.fn, t, cfg, check_hypotheses=False).param for t in ts]
            curves.append((entry.fn, *spaces, params))
    return curves


def _t11_curves(t_count):
    s0, s1, _, _ = _verify_spaces()
    return [(entry.fn, s0, s1, t_sweep(entry.fn, t_count)) for entry in make_corpus(seed=7, size=14)]


def _same_result(a, b):
    return (a.value, a.gap, a.truncation_value, a.decomposition) == (b.value, b.gap, b.truncation_value, b.decomposition)


@st.composite
def curve_cases(draw):
    """A non-increasing function of 1 to 8 steps, a lambda or s couple with power weights at
    exponents in [1, 3], and 1 to 7 parameters, unsorted and with repeats."""
    n = draw(st.integers(1, 8))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(sorted(values, reverse=True)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    spaces = []
    for _ in range(2):
        p = draw(st.floats(1.0, 3.0))
        # lambda needs beta > -1 at 0, s needs beta < p - 1 at infinity
        beta = draw(st.floats(-0.5, 0.5) if flavor == "lambda" else st.floats(-0.5, p - 1.1))
        spaces.append(LorentzSpace(flavor, p, PowerWeight(beta)))
    pool = draw(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4))
    return f, spaces, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))


# a t11 query of the CLI defaults whose best truncation candidate, u = 0, Newton improves on
NEWTON_F = StepFunction((1.0, 1.5, 2.5), (3.0, 1.0, 0.5))
CURVE_ROUTES = {
    "corner": (STAIR, (LAMBDA2, LAMBDA2), [0.05, 20.0, 0.05]),  # u = 0, then u = f*
    "interior": (STAIR, (LorentzSpace("lambda", 1.0, FLAT), LAMBDA2), [2.0]),
    "newton": (NEWTON_F, _verify_spaces()[:2], [t_sweep(NEWTON_F, 15)[7]]),
}


class TestKCurve:
    """``k_curve`` shares the set-up of one sweep; each value is the per-t oracle's, up to its gap."""

    def test_verify_sweeps_at_t_count_3_are_bit_identical(self):
        for f, s0, s1, params in _suite_curves(3):
            curve = k_curve(f, s0, s1, params)
            assert all(_same_result(res, k_oracle(KQuery(f, t, s0, s1))) for res, t in zip(curve, params))
        for f, s0, s1, ts in _t11_curves(3):
            for pair, t in zip(k_curve_s_couple(f, s0, s1, ts), ts):
                single = k_oracle_s_couple(KQuery(f, t, s0, s1))
                assert _same_result(pair.direct, single.direct)
                assert _same_result(pair.transformed, single.transformed)
                assert pair.ratio == single.ratio

    def test_verify_sweeps_at_t_count_15_are_within_the_gaps(self):
        s0, s1, tilde0, tilde1 = _verify_spaces()
        curves = _suite_curves(15) + [
            (osc_transform(rearrange(f)).as_step(), tilde0, tilde1, ts) for f, _, _, ts in _t11_curves(15)
        ]
        for f, space0, space1, params in curves:
            for res, t in zip(k_curve(f, space0, space1, params), params):
                assert res.converged
                assert _same_result(res, k_oracle(KQuery(f, t, space0, space1)))

    def test_unsorted_and_repeated_parameters(self):
        s0, s1, _, _ = _verify_spaces()
        f = StepFunction((1.0, 2.0, 4.0, 8.0), (8.0, 4.0, 2.0, 1.0))
        ts = [math.sqrt(8.0), 0.1, math.sqrt(8.0), 80.0, 0.1]
        curve = k_curve(f, s0, s1, ts)
        assert len(curve) == len(ts)
        for res, t in zip(curve, ts):
            assert _same_result(res, k_oracle(KQuery(f, t, s0, s1)))
        assert not curve_violations(ts, curve).any()

    @settings(max_examples=60, deadline=None)
    @given(curve_cases())
    @example(CURVE_ROUTES["corner"])
    @example(CURVE_ROUTES["interior"])
    @example(CURVE_ROUTES["newton"])
    def test_each_point_is_the_single_query_bit_for_bit(self, case):
        f, (space0, space1), ts = case
        for res, t in zip(k_curve(f, space0, space1, ts), ts):
            single = k_oracle(KQuery(f, t, space0, space1))
            fields = ("value", "gap", "truncation_value", "converged", "starts", "iterations")
            assert [getattr(res, k) for k in fields] == [getattr(single, k) for k in fields]
            assert np.array_equal(res.u, single.u) and np.array_equal(res.rest, single.rest)

    def test_the_examples_take_each_route(self):
        """The examples of the bit-for-bit test: truncation candidates certified at a corner of
        the box and inside it, and one that Newton improves on."""
        for route, (f, (space0, space1), ts) in CURVE_ROUTES.items():
            for res in k_curve(f, space0, space1, ts):
                corner = not res.u.any() or not res.rest.any()
                assert res.converged and corner == (route == "corner")
                assert (res.starts > 0, res.provenance == "optimizer") == ((route == "newton"),) * 2

    def test_an_empty_sweep_is_empty_on_every_route(self):
        """No parameter, no result: the truncation, corner and Newton routes at p >= 1, the corner
        route below exponent 1 and at p0 = p1 = 1, and the s-couple curve below exponent 1."""
        half, one = (LorentzSpace("lambda", p, FLAT) for p in (0.5, 1.0))
        cases = [(f, spaces) for f, spaces, _ in CURVE_ROUTES.values()] + [(STAIR, (half, half)), (STAIR, (one, one))]
        for f, (space0, space1) in cases:
            assert k_curve(f, space0, space1, []) == []
        s08 = LorentzSpace("s", 0.8, PowerWeight(-0.5))
        assert k_curve_s_couple(STAIR, s08, s08, []) == []

    def test_one_parameter_is_the_single_query(self):
        s0, s1, _, _ = _verify_spaces()
        q = KQuery(STAIR, 0.7, s0, s1)
        (res,) = k_curve(STAIR, s0, s1, [0.7])
        single = k_oracle(q)
        assert _same_result(res, single)
        assert (res.converged, res.iterations, res.starts) == (single.converged, single.iterations, single.starts)
        assert np.array_equal(res.grid.points, single.grid.points)
        (pair,) = k_curve_s_couple(STAIR, s0, s1, [0.7])
        assert pair.ratio == k_oracle_s_couple(q).ratio

    def test_zero_function(self):
        s0, s1, _, _ = _verify_spaces()
        curve = k_curve(StepFunction.zero(), s0, s1, [0.5, 2.0])
        assert [(r.value, r.gap, r.converged) for r in curve] == [(0.0, 0.0, True)] * 2
        assert [p.ratio for p in k_curve_s_couple(StepFunction.zero(), s0, s1, [0.5, 2.0])] == [1.0, 1.0]
        assert not curve_violations([0.5, 2.0], curve).any()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_parameters(self, bad):
        space = LorentzSpace("lambda", 2.0, FLAT)
        with pytest.raises(ValueError, match="positive and finite"):
            k_curve(STAIR, space, space, [1.0, bad])

    def test_exported(self):
        import lorentzk

        for name in ("k_curve", "k_curve_s_couple", "curve_violations"):
            assert name in kfunctional.__all__ and name in lorentzk.__all__


@st.composite
def grid_independence_cases(draw):
    """A non-increasing function of at most 8 steps, a lambda or s couple with exponents
    in [1.5, 3], one power weight and one power-log weight, and three parameters."""
    n = draw(st.integers(1, 8))
    widths = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n, unique=True))
    f = StepFunction(tuple(np.cumsum(widths)), tuple(sorted(values, reverse=True)))
    flavor = draw(st.sampled_from(["lambda", "s"]))
    p0, p1 = (draw(st.floats(1.5, 3.0)) for _ in range(2))
    # lambda needs beta > -1 at 0, s needs beta < p - 1 at infinity
    beta = st.floats(-0.5, 0.5) if flavor == "lambda" else st.floats(-0.5, 0.4)
    weights = [PowerWeight(draw(beta)), PowerLogWeight(draw(beta), draw(st.floats(-1.0, 1.0)))]
    if draw(st.booleans()):
        weights.reverse()
    spaces = (LorentzSpace(flavor, p0, weights[0]), LorentzSpace(flavor, p1, weights[1]))
    ts = draw(st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3))
    return f, spaces, ts


class TestStepsOfFstar:
    """The monotone oracle solves on the steps of f*."""

    @settings(max_examples=25, deadline=None)
    @given(grid_independence_cases())
    def test_the_monotone_oracle_does_not_depend_on_the_grid(self, case):
        f, (space0, space1), ts = case
        base = k_curve(f, space0, space1, ts)
        assert all(res.grid.points.tolist() == rearrange(f).breakpoints.tolist() for res in base)
        for a, t in zip(base, ts):
            assert _same_result(a, k_oracle(KQuery(f, t, space0, space1)))


class TestArrayResults:
    """An oracle result holds its parts as arrays on its grid, checked to sum to f* at every
    cell; the parts as step functions are built only when ``decomposition`` is read."""

    ENTRY = next(e.fn for e in make_corpus(7, 20) if e.f_id == "random-monotone-4")
    TS = (0.01, 0.1, 0.5, 1.0, 3.0, 20.0)

    @pytest.mark.parametrize("spoiled", [2.0, math.nan, -1.0], ids=["no-sum", "nan", "negative"])
    def test_a_spoiled_part_fails_the_sum_check(self, spoiled, monkeypatch):
        """u_0 above f*_0 leaves rest_0 = 0, so the parts do not sum; a nan or a negative u_0 fails
        even though rest_0 = f*_0 - u_0 makes the sum right."""
        def spoil(problem, u):
            return np.where(np.arange(problem.F.size) == 0, problem.F[0] * spoiled, u)

        real_curve = _GridProblem.curve

        def curve(problem, ts):
            value, U, *rest = real_curve(problem, ts)
            return (value, spoil(problem, U), *rest)

        monkeypatch.setattr(_GridProblem, "curve", curve)
        q = KQuery(STAIR, 1.0, LAMBDA2, LorentzSpace("lambda", 1.5, FLAT))
        with pytest.raises(ValueError, match="does not sum to the target at t="):
            k_oracle(q)

    def test_parts_are_read_only_and_stay_out_of_repr_and_eq(self):
        res = k_oracle(KQuery(STAIR, 1.0, LAMBDA2, LAMBDA2))
        for part in (res.u, res.rest):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0
        assert "u=" not in repr(res) and "rest=" not in repr(res)
        assert res == replace(res, u=res.u + 1.0)

    @pytest.mark.parametrize("space0,space1", [
        (LorentzSpace("lambda", 2.0, FLAT), LorentzSpace("lambda", 1.5, PowerWeight(-0.5))),
        (LorentzSpace("s", 2.0, FLAT), LorentzSpace("s", 2.0, PowerWeight(-1.0))),
    ], ids=["lambda", "s"])
    def test_a_curve_builds_no_step_function_until_a_decomposition_is_read(self, space0, space1, monkeypatch):
        created = []
        real = StepFunction.__post_init__
        monkeypatch.setattr(StepFunction, "__post_init__", lambda self: (created.append(1), real(self))[1])
        fstar = rearrange(self.ENTRY)
        assert fstar is self.ENTRY  # a non-increasing corpus entry
        results = k_curve(self.ENTRY, space0, space1, self.TS)
        assert not created
        for res in results:
            dec = res.decomposition
            assert len(created) == 2 and res.decomposition is dec
            created.clear()
            g = res.grid.points
            assert dec == Decomposition(StepFunction(g, res.u), StepFunction(g, res.rest), res.provenance)
            dec.validate_sum(fstar)
            created.clear()

    def test_the_zero_function_reads_a_zero_decomposition(self):
        res = k_oracle(KQuery(StepFunction.zero(), 1.0, LAMBDA2, LAMBDA2))
        assert not res.u.any() and not res.rest.any() and res.provenance == "optimizer"
        assert res.decomposition == Decomposition(StepFunction.zero(), StepFunction.zero(), "optimizer")


class TestCurveViolations:
    """The grid K(t) is non-decreasing and concave and K(t)/t non-increasing; a point
    is flagged only when no value within the gaps obeys that."""

    TS = [0.3, 0.8, 2.0, 5.0]

    def _curve(self):
        space = LorentzSpace("lambda", 2.0, FLAT)
        return k_curve(STAIR, space, LorentzSpace("lambda", 2.0, PowerWeight(-0.5)), self.TS)

    def test_a_computed_curve_has_none(self):
        assert not curve_violations(self.TS, self._curve()).any()

    def test_a_dent_is_flagged_unless_a_gap_explains_it(self):
        curve = self._curve()
        (t0, t1, t2, _), (k0, _, k2, _) = self.TS, [r.value for r in curve]
        chord = k0 + (k2 - k0) * (t1 - t0) / (t2 - t0)
        dent = chord - 0.1 * (chord - k0)  # still above its left neighbour
        broken = curve[:1] + [replace(curve[1], value=dent, gap=0.0)] + curve[2:]
        # below the chord of its neighbours: the triple around it is flagged, not the last point
        assert curve_violations(self.TS, broken).tolist() == [True, True, True, False]
        # order follows the input, not t
        assert curve_violations(self.TS[::-1], broken[::-1]).tolist() == [False, True, True, True]
        # a value is an upper bound, so only the neighbours' gaps can lower the chord
        assert curve_violations(self.TS, curve[:1] + [replace(broken[1], gap=math.inf)] + curve[2:])[:3].all()
        explained = [replace(curve[0], gap=k0), broken[1], replace(curve[2], gap=k2 - dent), curve[3]]
        assert not curve_violations(self.TS, explained).any()
        unbounded = [replace(curve[0], gap=math.inf), broken[1], replace(curve[2], gap=math.inf), curve[3]]
        assert not curve_violations(self.TS, unbounded).any()

    @staticmethod
    def _array_reference(ts, results):
        """The laws as whole-array comparisons; an infinite gap or equal outer t gives nan, never a flag."""
        order = np.argsort(np.asarray(ts, dtype=float), kind="stable")
        t = np.asarray(ts, dtype=float)[order]
        hi = np.array([results[i].value for i in order])
        lo = hi - np.array([results[i].gap for i in order])
        slack, bad = 1.0 + kfunctional._CURVE_REL_TOL, np.zeros(t.size, dtype=bool)
        pair = (lo[:-1] > hi[1:] * slack) | (lo[1:] / t[1:] > hi[:-1] / t[:-1] * slack)
        bad[:-1] |= pair
        bad[1:] |= pair
        with np.errstate(invalid="ignore", divide="ignore"):
            triple = hi[1:-1] * slack < lo[:-2] + (lo[2:] - lo[:-2]) * ((t[1:-1] - t[:-2]) / (t[2:] - t[:-2]))
        for k in range(3):
            bad[k : k + triple.size] |= triple
        flags = np.empty_like(bad)
        flags[order] = bad
        return flags

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.1, 0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 3.0),
                              st.sampled_from([0.0, 1e-3, 0.5, math.inf])), max_size=7))
    def test_matches_the_array_form(self, points):
        """Repeated t, infinite gaps and every order, against the laws taken on whole arrays."""
        base = self._curve()[0]
        curve = [replace(base, value=v, gap=g) for _, v, g in points]
        ts = [t for t, _, _ in points]
        assert curve_violations(ts, curve).tolist() == self._array_reference(ts, curve).tolist()

    def test_ratio_and_order_laws(self):
        curve = self._curve()
        # K(t)/t rising between the last two points
        steep = replace(curve[3], value=curve[2].value * self.TS[3] / self.TS[2] * 1.01, gap=0.0)
        assert curve_violations(self.TS, curve[:3] + [steep])[2:].all()
        # K(t) falling between the first two
        fall = replace(curve[1], value=curve[0].value * 0.9, gap=0.0)
        assert curve_violations(self.TS, curve[:1] + [fall] + curve[2:])[:2].all()


class TestNearOptimal:
    def test_bounds_oracle_within_modest_factor(self):
        cfg = corollary_couple(2.0, 1.0)
        space0 = LorentzSpace("s", cfg.p0, cfg.w0)
        space1 = LorentzSpace("s", cfg.p1, cfg.w1)
        rng = np.random.default_rng(31)
        for _ in range(3):
            f = random_nonincreasing(rng, n=4)
            t = float(rng.uniform(0.3, 3.0))
            res = near_optimal_s_decomposition(f, t, cfg)
            oracle = k_oracle(KQuery(f, t, space0, space1))
            assert res.objective >= oracle.value - 1e-9 * max(oracle.value, 1.0)
            assert res.objective <= 8.0 * oracle.value

    def test_parts_and_records(self):
        cfg = corollary_couple(2.0, 1.0)
        res = near_optimal_s_decomposition(STAIR, 1.0, cfg)
        assert res.decomposition.provenance == "decomposition-lemma"
        assert res.initial.provenance == "truncation"
        res.decomposition.validate_sum(rearrange(STAIR))
        assert res.decomposition.is_monotone()
        assert not res.transform_parts.f0.is_zero or not res.transform_parts.f1.is_zero

    def test_zero_function(self):
        res = near_optimal_s_decomposition(StepFunction.zero(), 1.0, corollary_couple(2.0, 1.0))
        assert res.objective == 0.0


def finite_difference(fn, u, h=1e-6):
    g = np.zeros_like(u)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (fn(up) - fn(um)) / (2.0 * h)
    return g


class TestGradients:
    GRID = np.array([0.5, 1.0, 2.0, 4.0, 7.0])
    U_MONO = np.array([3.1, 2.4, 1.6, 0.9, 0.3])
    U_FREE = np.array([1.0, 2.5, 0.3, 1.8, 0.6])

    def _direct(self, space):
        """The norm of Ld, the step function on GRID of differences d, by ``norms.norm``."""
        return lambda d: norm(space, StepFunction(self.GRID, d[::-1].cumsum()[::-1]))

    @pytest.mark.parametrize(
        "flavor,p,w",
        [
            pytest.param("lambda", 2.0, PowerWeight(0.3), id="lambda-2.0-0.3"),
            pytest.param("lambda", 1.5, PowerWeight(-0.4), id="lambda-1.5--0.4"),
            pytest.param("s", 2.0, PowerWeight(0.2), id="s-2.0-0.2"),
        ],
    )
    def test_monotone_gradient_matches_finite_differences(self, flavor, p, w):
        """The gradient in the differences from y = Bd."""
        space = LorentzSpace(flavor, p, w)
        d = self.U_MONO - np.append(self.U_MONO[1:], 0.0)
        val, grad, _ = _SpaceOnGrid(space, self.GRID).forward(d)
        assert val == pytest.approx(self._direct(space)(d), rel=1e-12)
        fd = finite_difference(self._direct(space), d)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("flavor,p,beta", [("lambda", 2.0, 0.3), ("s", 2.0, 0.2)])
    def test_rearranged_gradient_matches_finite_differences(self, flavor, p, beta):
        space = LorentzSpace(flavor, p, PowerWeight(beta))
        val, grad = reference.Space(space, self.GRID).grad(self.U_FREE)
        assert val == pytest.approx(norm(space, StepFunction(self.GRID, self.U_FREE)), rel=1e-12)
        fd = finite_difference(lambda u: norm(space, StepFunction(self.GRID, u)), self.U_FREE)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("flavor,beta", [("lambda", 0.3), ("s", -0.4)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_monotone_gradient_is_one_sided_at_zero_cells(self, flavor, beta, p):
        """At a zero difference (u with zero cells) from y = Bd, at a zero value unconstrained (the reference)."""
        space = LorentzSpace(flavor, p, PowerWeight(beta))
        ev, ref = _SpaceOnGrid(space, self.GRID), reference.Space(space, self.GRID)
        u = np.array([3.1, 2.4, 1.6, 0.0, 0.0])
        cases = [(lambda x: ev.forward(x)[:2], self._direct(space), u - np.append(u[1:], 0.0)),
                 (ref.grad, lambda x: norm(space, StepFunction(self.GRID, x)), np.array([1.0, 2.5, 0.0, 1.8, 0.6]))]
        for monotone, (value_grad, norm_of, x) in zip((True, False), cases):
            val, grad = value_grad(x)
            assert val == pytest.approx(norm_of(x), rel=1e-12)
            h = 1e-7
            for i in range(x.size):
                up = x.copy()
                up[i] += h
                if x[i] > 0.0:
                    um = x.copy()
                    um[i] -= h
                    fd = (norm_of(up) - norm_of(um)) / (2.0 * h)
                    tol = 1e-5 * abs(fd) + 1e-7
                else:
                    # a value may not go negative: compare with the right derivative,
                    # whose difference quotient is off by O(h^(p-1)) when p > 1
                    fd = (norm_of(up) - val) / h
                    tol = 1e-5 * abs(fd) + 1e-6 + (10.0 * h ** (p - 1.0) if p > 1.0 else 0.0)
                assert grad[i] == pytest.approx(fd, abs=tol), (monotone, i)

    def test_couple_objective_gradient(self):
        space0, space1 = LorentzSpace("lambda", 2.0, FLAT), LorentzSpace("lambda", 2.0, PowerWeight(-0.5))
        F = np.array([4.0, 3.0, 2.2, 1.5, 0.8])
        obj = reference.Objective(space0, space1, self.GRID, F, 1.7)

        def value(u):
            return norm(space0, StepFunction(self.GRID, u)) + 1.7 * norm(space1, StepFunction(self.GRID, F - u))

        u = 0.6 * F
        val, grad = obj.value_grad(u)
        assert val == pytest.approx(value(u), rel=1e-12)
        fd = finite_difference(value, u)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


class TestQueryValidation:
    def test_bad_parameter_rejected(self):
        sp = LorentzSpace("lambda", 2.0, FLAT)
        with pytest.raises(ValueError, match="K-parameter"):
            KQuery(STAIR, 0.0, sp, sp)
        with pytest.raises(ValueError, match="K-parameter"):
            KQuery(STAIR, math.inf, sp, sp)

    def test_decomposition_provenance_checked(self):
        with pytest.raises(ValueError, match="provenance"):
            Decomposition(STAIR, STAIR, "guesswork")

    def test_validate_sum_catches_mismatch(self):
        dec = Decomposition(STAIR, STAIR, "manual")
        with pytest.raises(ValueError, match="does not sum"):
            dec.validate_sum(STAIR)
