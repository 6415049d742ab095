"""End-to-end acceptance checks for the package.

Each criterion is one test function so that ``pytest -v`` prints exactly one
pass/fail line per criterion.  Tolerances and runtime budgets are asserted
inside the tests; nothing here is allowed to weaken them.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

import oracle_reference as reference
from identity_reference import transform_side
from weight_reference import GridOnly
from lorentzk.cli import main as cli_main
from lorentzk.kfunctional import KQuery, k_oracle
from lorentzk.norms import (
    LorentzSpace,
    TruncatedNorm,
    gamma_equals_s_check,
    s_lambda_identity_check,
    truncated_norm,
)
from lorentzk.grids import Grid
from lorentzk.stepfn import StepFunction, maximal, osc_transform, rearrange
from lorentzk.verify import _reconstruction_rhs, make_corpus, run_theorem_suite, t_sweep
from lorentzk.weights import (
    InvalidWeightError,
    PowerWeight,
    check_bp,
    check_delta2,
    check_rbp,
    reciprocal_weight,
)

CORPUS = make_corpus(seed=7, size=20)
FLAT = PowerWeight(0.0)


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _continuity_points(fstar, extra_jumps, n=1000):
    """n log-spaced sample points nudged off every jump location.

    Reciprocal round trips shift breakpoints by an ulp, so points are kept a
    relative 1e-9 clear of every jump of the compared functions.
    """
    lo = fstar.first_breakpoint / 10.0
    hi = fstar.support_end * 10.0
    pts = np.geomspace(lo, hi, n)
    jumps = np.array(sorted(set(fstar.breakpoints) | set(extra_jumps)))
    for _ in range(3):
        near = (np.abs(pts[:, None] - jumps[None, :]) <= 1e-9 * jumps[None, :]).any(axis=1)
        if not near.any():
            break
        pts[near] *= 1.0 + 1e-6
    return pts


def _fifty_power_cases():
    """(p, beta) pairs straddling the beta = p - 1 verdict boundary."""
    cases = []
    for p in (1.1, 1.5, 2.0, 3.0, 4.0):
        edge = p - 1.0
        betas = (
            -0.999, -0.75, -0.5, -0.25,
            edge - 0.5, edge - 0.01, edge, edge + 0.01, edge + 0.5, edge + 2.0,
        )
        cases.extend((p, beta) for beta in betas)
    return cases


def test_criterion_01_transform_involution_and_oscillation_identity():
    """T(Tf*) = f* and Tf*(t) = (f**(1/t) - f*(1/t))/t, pointwise to 1e-9."""
    t0 = time.monotonic()
    for entry in CORPUS:
        fstar = rearrange(entry.fn)
        transform = osc_transform(fstar)
        step = transform.as_step()
        back = osc_transform(step)
        mean = maximal(fstar)
        jumps = [1.0 / b for b in step.breakpoints]
        for x in _continuity_points(fstar, jumps):
            x = float(x)
            assert abs(back(x) - fstar(x)) <= 1e-9
            y = 1.0 / x
            assert abs(transform(x) - (mean(y) - fstar(y)) / x) <= 1e-9
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_window_identity_both_sides_agree():
    """s-flavor window integrals match the transform-side quadrature of the tests' reference, rel 1e-6."""
    t0 = time.monotonic()
    for entry in CORPUS:
        for p in (1.5, 2.0, 3.0):  # w = 1 keeps the full s-norm finite from p > 1 on
            for t in (*t_sweep(entry.fn, 4), math.inf):
                left, _ = s_lambda_identity_check(entry.fn, p, FLAT, t)
                right = transform_side(entry.fn, p, FLAT, t)
                assert _rel_close(left, right, 1e-6), (entry.f_id, p, t, left, right)
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_running_mean_reconstruction():
    """f**(t) equals the tail integral of the oscillation over s, rel 1e-6."""
    for entry in CORPUS:
        fstar = rearrange(entry.fn)
        mean = maximal(fstar)
        for t in t_sweep(entry.fn, 10):
            assert _rel_close(mean(t), _reconstruction_rhs(fstar, t), 1e-6)


def test_criterion_04_closed_form_matches_grid_checkers():
    """Closed-form and grid condition checkers agree on 50 power-weight cases; the grid scans a
    power weight's own moments through ``GridOnly``."""
    cases = _fifty_power_cases()
    assert len(cases) == 50
    for p, beta in cases:
        w = PowerWeight(beta)
        for checker in (check_bp, check_rbp):
            closed = checker(w, p)
            gridded = checker(GridOnly(w), p)
            assert (closed.method, gridded.method) == ("closed-form", "grid")
            assert closed.holds == gridded.holds, (checker.__name__, p, beta)
            if math.isfinite(closed.constant):
                assert gridded.constant == pytest.approx(closed.constant, rel=1e-3)
            else:
                assert math.isinf(gridded.constant)
        d_closed = check_delta2(w)
        d_grid = check_delta2(GridOnly(w))
        assert d_closed.holds == d_grid.holds
        assert d_grid.constant == pytest.approx(d_closed.constant, rel=1e-3)
    # below the integrable range both routes refuse identically
    for beta in (-1.0, -1.5):
        for w in (PowerWeight(beta), GridOnly(PowerWeight(beta))):
            with pytest.raises(InvalidWeightError):
                check_bp(w, 2.0)


def test_criterion_05_reverse_balance_tilde_duality():
    """check_rbp(w, p) agrees with check_bp on the reciprocal weight."""
    for p, beta in _fifty_power_cases():
        w = PowerWeight(beta)
        reverse = check_rbp(w, p)
        if beta < p - 1.0:
            dual = check_bp(reciprocal_weight(w, p), p)
            assert reverse.holds == dual.holds, (p, beta)
            assert dual.constant == pytest.approx(reverse.constant, rel=1e-6)
        else:
            # divergent tail on one side is a non-integrable head on the other
            assert not reverse.holds
            with pytest.raises(InvalidWeightError):
                check_bp(reciprocal_weight(w, p), p)


def test_criterion_06_oracle_matches_exhaustive_search():
    """Descent K values sit within 1e-6 of lattice exhaustion on tiny instances."""
    rng = np.random.default_rng(20240601)
    quantum = 0.25
    space0 = LorentzSpace("lambda", 1.0, PowerWeight(0.0))
    t0 = time.monotonic()
    for _ in range(30):
        cells = int(rng.integers(2, 7))
        # lattice size is prod(levels + 1); cap levels so it stays enumerable
        cap = {2: 15, 3: 15, 4: 15, 5: 11, 6: 8}[cells]
        levels = np.sort(rng.integers(1, cap + 1, cells))[::-1] * quantum
        bps = np.sort(rng.uniform(0.3, 8.0, cells))
        f = StepFunction(tuple(float(b) for b in bps), tuple(float(v) for v in levels))
        space1 = LorentzSpace("lambda", 1.0, PowerWeight(float(rng.choice([-0.5, 0.0, 0.5]))))
        q = KQuery(f, float(rng.uniform(0.2, 5.0)), space0, space1)
        grid = Grid(f.breakpoints)
        exact = reference.exhaustive(q, grid, quantum=quantum)
        solved = k_oracle(q)
        assert abs(solved.value - exact) <= 1e-6 * max(1.0, abs(exact))
    assert time.monotonic() - t0 < 60.0


def test_criterion_07_equal_couple_closed_form():
    """K(f, t; L1, L1) = min(1, t) * mass, rel 1e-6, on 10 functions x 10 t."""
    space = LorentzSpace("lambda", 1.0, FLAT)
    for entry in CORPUS[:10]:
        f = rearrange(entry.fn)
        mass = f.total_integral
        for t in np.geomspace(0.1, 10.0, 10):
            res = k_oracle(KQuery(f, float(t), space, space))
            assert _rel_close(res.value, min(1.0, float(t)) * mass, 1e-6)


def test_criterion_08_s_couple_oracle_band():
    """Direct and transformed s-couple oracles stay in a stable band, C <= 100."""
    t0 = time.monotonic()
    report = run_theorem_suite("t11", m=64, t_count=15, seed=7, refine=True)
    elapsed = time.monotonic() - t0
    assert len(report.records) == 20 * 15
    constant = report.equivalence_constant()
    assert math.isfinite(constant) and constant <= 100.0
    drift = report.drift()
    assert drift is not None and drift <= 0.10
    assert elapsed < 600.0


def test_criterion_09_explicit_vs_oracle_band():
    """Explicit K formula vs descent oracle: C <= 100 with <= 10% grid drift."""
    report = run_theorem_suite("cor1", m=64, t_count=15, seed=7, refine=True)
    assert len(report.records) == 20 * 15
    constant = report.equivalence_constant()
    assert math.isfinite(constant) and constant <= 100.0
    drift = report.drift()
    assert drift is not None and drift <= 0.10


def test_criterion_10_gamma_s_ratio_bounds():
    """Gamma/s ratio is >= 1 exactly and bounded when the reverse balance
    condition holds; with it broken, the ratio grows with support length."""
    worst = 1.0
    for p in (1.5, 2.0, 3.0):
        for entry in CORPUS:
            gam_pow, s_pow = gamma_equals_s_check(entry.fn, p, FLAT)
            assert gam_pow >= s_pow
            if s_pow > 0.0:
                worst = max(worst, (gam_pow / s_pow) ** (1.0 / p))
    assert math.isfinite(worst) and worst <= 100.0
    # negative control: beta >= p - 1, fixed head window, growing support
    bad = PowerWeight(1.5)
    ratios = []
    for length in (4.0, 16.0, 64.0):
        indicator = StepFunction((length,), (1.0,))
        gam = truncated_norm(TruncatedNorm(LorentzSpace("gamma", 2.0, bad), "head", 640.0), indicator)
        s = truncated_norm(TruncatedNorm(LorentzSpace("s", 2.0, bad), "head", 640.0), indicator)
        ratios.append(gam / s)
    assert ratios[0] < ratios[1] < ratios[2]


def test_criterion_11_monotone_restriction_never_wins():
    """The monotone-restricted oracle is >= the unrestricted one on every query."""
    space0 = LorentzSpace("lambda", 2.0, PowerWeight(1.0))
    space1 = LorentzSpace("lambda", 2.0, PowerWeight(0.0))
    for entry in CORPUS[:8]:
        f = rearrange(entry.fn)
        for t in (0.3, 1.0, 3.0):
            q = KQuery(f, t, space0, space1)
            mono = k_oracle(q)
            free = reference.free_oracle(q, m=32, seed=11)
            assert mono.value >= free.value


def test_criterion_12_verify_cli_deterministic_csv(tmp_path):
    """Two identical verify invocations write byte-identical CSV."""
    runner = CliRunner()
    payloads = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main, ["verify", "--suite", "cor1", "--seed", "7", "--csv", str(out)]
        )
        assert result.exit_code == 0, result.output
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
