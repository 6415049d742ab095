"""The benchmark's three workloads.

Each workload builds one fixed set of inputs from the seed and runs it in
passes: a pass calls every op once, in the same order, with one closed-loop
caller that waits for every result.  The harness runs a fixed number of
passes, so a run's work, its ops and its failures depend only on the seed and
the run length, never on how fast the machine was.  Every pass must produce
the same outputs; the first pass's outputs are checked.

Library calls go through the module attributes (``weights.check_bp``, not a
local name bound at import), so the tracer's rebinding catches them.
"""

import json
import math
import statistics
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning

import calibrate
from lorentzk import grids, norms, stepfn, verify, weights

DEFAULT_SEED = 7
WEIGHTS_REFERENCE_PATH = Path(__file__).resolve().parent / "reference_check_weights.json"
REL_TOL = 1e-6  # ROADMAP direction 4's tolerance for verdict constants
ORACLE_REFERENCE_PATH = Path(__file__).resolve().parent / "reference_verify_oracle.json"
ORACLE_SEED = 7  # the oracle's own seed, the CLI default; the harness seed only shapes the corpus
K_GMEAN_TOL = 1e-6  # how far the fixed entries' K geometric mean may rise above the reference


@dataclass
class Op:
    seconds: float
    attempted: int
    failed: int
    error: str | None = None
    integration_warnings: int = 0


def timed(label, fn, tracer=None):
    """Run fn once; return (result, error, seconds, IntegrationWarning count).

    Any exception is the op's outcome, not the harness's: the run goes on
    and the op counts as failed.  The calibration kernel runs after the op,
    outside its time.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = tracer.op(label, caught, fn) if tracer is not None else fn()
            error = None
        except Exception as exc:  # recorded per op and reported as a failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    count = sum(1 for w in caught if issubclass(w.category, IntegrationWarning))
    calibrate.after(seconds)
    return result, error, seconds, count


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Workload:
    """What the three workloads share: passes, and the check that they agree.

    A subclass sets ``PASS_SECONDS`` (the length of one pass on the machine
    the benchmark was sized on, used only to turn ``--seconds`` into a
    number of passes) and implements ``_pass(tracer)``, which runs every op
    once and returns ``(ops, outputs)``.
    """

    name = ""
    PASS_SECONDS = 1.0

    def __init__(self):
        self.outputs: list = []  # one entry per pass

    def run_pass(self, tracer=None) -> list[Op]:
        ops, outputs = self._pass(tracer)
        self.outputs.append(outputs)
        return ops

    def repeat_problems(self) -> list[str]:
        return [f"pass {j}: outputs differ from pass 0"
                for j, out in enumerate(self.outputs[1:], start=1) if out != self.outputs[0]]


# ---------------------------------------------------------------------------
# verify-oracle


class VerifyOracle(Workload):
    """``lorentz-k verify --suite t11 --suite cor1 --refine`` on one seeded corpus.

    A pass runs both suites, entry by entry, on ``make_corpus(s, 14)`` with s
    drawn from the seed: the 13 fixed indicator and staircase entries and
    one seeded random-monotone one, at the default p=2, alpha=1 couples,
    t-count 3 and m=64 (refined at m=128).  The oracle's own seed stays at
    the CLI default, so the fixed entries give the same K values at every
    harness seed; their geometric mean is checked against
    ``reference_verify_oracle.json``.  One op is one suite call on one
    entry; it yields 2 x t-count records, refined ones included, and a record
    flagged ``oracle-unconverged`` counts as failed.
    """

    name = "verify-oracle"
    PASS_SECONDS = 9.5  # at least MIN_PASSES passes run, so a 20 s run takes about 28 s
    SUITES = ("t11", "cor1")

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.tiny = tiny
        self.size, self.t_count, self.m = (2, 3, 64) if tiny else (14, 3, 64)
        corpus_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
        self.corpus = verify.make_corpus(corpus_seed, self.size)
        self.records = {tag: ([], []) for tag in self.SUITES}  # first pass: base, refined
        self.errors: list[str] = []

    def _pass(self, tracer):
        first = not self.outputs
        ops, outputs = [], []
        for entry in self.corpus:
            for tag in self.SUITES:
                report, error, seconds, n_warn = timed(
                    f"{tag}:{entry.f_id}",
                    lambda: verify.run_theorem_suite(
                        tag, (entry,), p=2.0, alpha=1.0, m=self.m, t_count=self.t_count,
                        seed=ORACLE_SEED, refine=True,
                    ),
                    tracer,
                )
                expected = 2 * self.t_count
                if error is not None:
                    if first:
                        self.errors.append(f"{tag} on {entry.f_id}: {error}")
                    ops.append(Op(seconds, expected, expected, error, n_warn))
                    outputs.append((tag, entry.f_id, error))
                    continue
                base, refined = list(report.records), list(report.refined_records or ())
                if first:
                    self.records[tag][0].extend(base)
                    self.records[tag][1].extend(refined)
                outputs.append((tag, [(r.f_id, r.t, r.lhs, r.rhs, r.flags) for r in base + refined]))
                flagged = sum(1 for r in base + refined if "oracle-unconverged" in r.flags)
                attempted = len(base) + len(refined)
                failed = attempted if n_warn else flagged
                ops.append(Op(seconds, attempted, failed, None, n_warn))
        return ops, outputs

    def oracle_values(self, fixed_only: bool = False) -> list[float]:
        """Oracle K values of the first pass: both sides of t11, the right side of cor1."""
        def keep(r):
            return not (fixed_only and r.f_id.startswith("random-"))

        t11 = [v for recs in self.records["t11"] for r in recs if keep(r) for v in (r.lhs, r.rhs)]
        return t11 + [r.rhs for recs in self.records["cor1"] for r in recs if keep(r)]

    def fixed_k_gmean(self) -> float:
        return statistics.geometric_mean([v for v in self.oracle_values(fixed_only=True) if v > 0.0])

    def write_reference(self) -> None:
        ORACLE_REFERENCE_PATH.write_text(json.dumps({
            "oracle_seed": ORACLE_SEED, "t_count": self.t_count, "m": self.m,
            "values": len(self.oracle_values(fixed_only=True)),
            "fixed_k_gmean": self.fixed_k_gmean(),
        }, indent=1) + "\n")

    def check(self) -> list[str]:
        problems = self.errors + self.repeat_problems()
        for tag in self.SUITES:
            base, refined = self.records[tag]
            for what, recs in (("records", base), ("refined records", refined)):
                if len(recs) != self.size * self.t_count:
                    problems.append(f"{tag}: {len(recs)} {what}, expected {self.size} x {self.t_count}")
                bad = [r for r in recs if not math.isfinite(r.ratio)]
                if bad:
                    problems.append(f"{tag}: {len(bad)} {what} with a non-finite ratio")
            report = verify.EquivalenceReport(tag, {}, None, tuple(base), tuple(refined))
            constant, drift = report.equivalence_constant(), report.drift()
            if not (math.isfinite(constant) and constant <= 100.0):
                problems.append(f"{tag}: equivalence constant {constant!r} > 100")
            if drift is None or not drift <= 0.10:
                problems.append(f"{tag}: refinement drift {drift!r} > 0.10")
        if self.tiny or not ORACLE_REFERENCE_PATH.is_file():
            return problems
        # the oracle minimizes: one that stops early returns larger K values
        want = json.loads(ORACLE_REFERENCE_PATH.read_text())["fixed_k_gmean"]
        got = self.fixed_k_gmean()
        if not got <= want * (1.0 + K_GMEAN_TOL):
            problems.append(f"fixed entries: oracle K geometric mean {got!r} is above the reference "
                            f"{want!r} by more than {K_GMEAN_TOL:g}")
        return problems

    def summary(self) -> list[str]:
        lines = []
        for tag in self.SUITES:
            base, refined = self.records[tag]
            report = verify.EquivalenceReport(tag, {}, None, tuple(base), tuple(refined))
            lo, hi = report.band()
            lines.append(
                f"suite={tag} entries={self.size} records={len(base)}+{len(refined)} "
                f"band=[{lo:.6g},{hi:.6g}] constant={report.equivalence_constant():.6g} "
                f"drift={report.drift():.6g}"
            )
        return lines + [f"fixed entries: oracle K geometric mean {self.fixed_k_gmean():.10g}"]


# ---------------------------------------------------------------------------
# check-weights


ROADMAP_P = 2.0
EPS = 0.5  # the CLI default for the quasi-monotone ratio check
SUF_GRID = grids.Grid.log(1e-4, 1e4, 5)  # every twelfth point of check_sufconds' default 49-point grid


class CheckWeights(Workload):
    """Every checker ``lorentz-k check-weights`` runs, on the ROADMAP couple and seeded weights.

    A pass is the couple powerlog(0.5,1) / powerlog(-0.5,0.5) at p=2 (B_p,
    RB_p and Delta_2 on each weight, tail doubling, the quasi-monotone ratio,
    both sufficient conditions, tail blow-up on each weight), then B_p, RB_p,
    Delta_2 and tail blow-up on three power-log weights drawn from the seed,
    beta in (-0.9, 0.9) and log exponent in (-1, 1).
    The sufficient conditions run on ``SUF_GRID``, with the default grid's
    end points, so one call takes about a second rather than most of a pass.  One op
    is one verdict; an op that raises or emits an IntegrationWarning counts
    as failed and the run goes on.
    """

    name = "check-weights"
    PASS_SECONDS = 4.0
    SEEDED = 3

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.tiny = tiny
        self.w0 = weights.PowerLogWeight(0.5, 1.0)
        self.w1 = weights.PowerLogWeight(-0.5, 0.5)
        self.cfg = weights.CoupleConfig(ROADMAP_P, self.w0, ROADMAP_P, self.w1)
        # a tiny run (the smoke check) uses coarse grids; full runs use the defaults
        self.grid = grids.Grid.log(1e-6, 1e6, 12) if tiny else None
        self.suf_grid = grids.Grid.log(1e-4, 1e4, 3) if tiny else SUF_GRID
        # a Latin square: each third of the beta range and of the log exponent's
        # range gets one weight, so every seed gets a similar spread of weights
        rng = np.random.default_rng([seed, 0])
        k = self.SEEDED
        betas = [-0.9 + 1.8 * (j + rng.uniform()) / k for j in rng.permutation(k)]
        logs = [-1.0 + 2.0 * (j + rng.uniform()) / k for j in rng.permutation(k)]
        self.seeded = [weights.PowerLogWeight(float(b), float(g)) for b, g in zip(betas, logs)]
        self.raised: list[str] = []

    def _single(self, tag: str, w):
        g = self.grid
        return [
            (f"{tag}:bp", lambda: weights.check_bp(w, ROADMAP_P, grid=g)),
            (f"{tag}:rbp", lambda: weights.check_rbp(w, ROADMAP_P, grid=g)),
            (f"{tag}:delta2", lambda: weights.check_delta2(w, grid=g)),
            (f"{tag}:tail-blowup", lambda: weights.tail_diverges_at_zero(w, ROADMAP_P)),
        ]

    def _pass(self, tracer):
        cfg, g = self.cfg, self.grid
        plan = self._single("couple-w0", self.w0) + self._single("couple-w1", self.w1) + [
            ("couple:tail-doubling", lambda: weights.check_cond1(cfg, grid=g)),
            ("couple:ratio-quasi-monotone", lambda: weights.check_cond3(cfg, EPS, grid=g)),
            ("couple:sufficient", lambda: weights.check_sufconds(cfg, grid=self.suf_grid)),
        ]
        for j, w in enumerate(self.seeded):
            plan += self._single(f"seeded{j}", w)
        first = not self.outputs
        ops, outputs = [], {}
        for label, fn in plan:
            result, error, seconds, n_warn = timed(label, fn, tracer)
            verdicts = result if isinstance(result, tuple) else (result,)
            n = 2 if label == "couple:sufficient" else 1
            if error is not None:
                outputs[label] = ("error", error.split(":")[0])
                if first:
                    self.raised.append(f"{label}: {error}")
            else:
                outputs[label] = tuple(
                    ("verdict", v.holds, v.constant) if isinstance(v, weights.ConditionVerdict)
                    else ("not-a-verdict", repr(v)) for v in verdicts
                )
            failed = n if (error is not None or n_warn) else 0
            ops.append(Op(seconds, n, failed, error, n_warn))
        return ops, outputs

    def _json_outcomes(self) -> dict:
        return {key: [list(v) for v in val] if val[0] != "error" else list(val)
                for key, val in self.outputs[0].items()}

    def write_reference(self) -> None:
        outcomes = self._json_outcomes()
        lines = [f"  {json.dumps(key)}: {json.dumps(outcomes[key])}" for key in sorted(outcomes)]
        WEIGHTS_REFERENCE_PATH.write_text(f'{{"seed": {self.seed}, "outcomes": {{\n' + ",\n".join(lines) + "\n}}\n")

    def check(self) -> list[str]:
        problems = self.repeat_problems()
        for key, val in self.outputs[0].items():
            if val[0] != "error" and any(v[0] != "verdict" for v in val):
                problems.append(f"{key}: returned neither a ConditionVerdict nor an error: {val}")
        if self.tiny or not WEIGHTS_REFERENCE_PATH.is_file():
            return problems
        ref = json.loads(WEIGHTS_REFERENCE_PATH.read_text())["outcomes"]
        for key, val in self._json_outcomes().items():
            # the couple is the same at every seed; seeded weights only at the reference seed
            if not key.startswith("couple") and self.seed != DEFAULT_SEED:
                continue
            if key in ref:
                problems += _compare_outcome(key, val, ref[key])
        return problems

    def summary(self) -> list[str]:
        distinct = sorted(set(self.raised))
        return [f"raised: {len(self.raised)} verdicts per pass"] + [f"  {e}" for e in distinct[:12]]


def _compare_outcome(key: str, got, want) -> list[str]:
    if want[0] == "error":
        if got[0] == "error" and got[1] != want[1]:
            return [f"{key}: raised {got[1]}, reference raised {want[1]}"]
        return []  # same error, or the checker now returns a verdict
    if got[0] == "error":
        return [f"{key}: raised {got[1]}, reference returned a verdict"]
    problems = []
    for g, w in zip(got, want):
        if g[1] != w[1] or not _same(float(g[2]), float(w[2])):
            problems.append(f"{key}: holds={g[1]} constant={g[2]!r}, reference holds={w[1]} constant={w[2]!r}")
    return problems


# ---------------------------------------------------------------------------
# norm


FLAVORS = ("lambda", "s", "gamma")
PS = (1.5, 2.0, 3.0)
FAMILIES = ("power", "powerlog")
FUNCTIONS = 48  # 8 of each (p, family); each has its own stratum of the log cell count
REARRANGE_EVERY = 8  # functions whose rearrangement invariance is checked


class Norm(Workload):
    """``norms.norm_result`` on seeded step functions that are not monotone.

    A pass is 48 functions, each one op per flavor (lambda, s, gamma).  The
    cell counts are log-uniform over 10^2..10^4, one per 1/48 stratum of
    that range; each (p, family) pair, p in {1.5, 2, 3} and a power or
    power-log weight, gets one stratum of every six neighbouring ones.
    Exponents are drawn inside the convergent range -1 < beta < p - 1 (with
    a 0.1 margin), each pair's eight one per eighth of that range; a tenth
    of the cells are zero.  So every seed gets nearly the same mix of sizes,
    weights and exponents, in a seeded order.
    """

    name = "norm"
    PASS_SECONDS = 5.0

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        lo, hi = (1.0, 2.0) if tiny else (2.0, 4.0)
        n_funcs = 6 if tiny else FUNCTIONS
        rng = np.random.default_rng([seed, 0])
        pairs = [(p, fam) for p in PS for fam in FAMILIES]
        blocks = n_funcs // len(pairs)
        # each block of len(pairs) neighbouring size strata holds every pair once,
        # and each pair's exponents fall one per stratum of their range
        combos = [pairs[j] for _ in range(blocks) for j in rng.permutation(len(pairs))]
        beta_strata = {pair: list(rng.permutation(blocks)) for pair in pairs}
        self.items = []
        for stratum, (p, fam) in enumerate(combos):
            u = (stratum + rng.uniform()) / n_funcs
            n = int(round(10.0 ** (lo + (hi - lo) * u)))
            lengths = np.exp(rng.uniform(math.log(0.01), 0.0, n))
            vals = np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(0.1, 10.0, n))
            fn = stepfn.StepFunction(tuple(np.cumsum(lengths).tolist()), tuple(vals.tolist()))
            v = (beta_strata[(p, fam)].pop() + rng.uniform()) / blocks
            beta = -0.9 + (p - 1.1 + 0.9) * v
            w = (weights.PowerWeight(beta) if fam == "power"
                 else weights.PowerLogWeight(beta, float(rng.uniform(-1.0, 1.0))))
            self.items.append((fn, p, w))
        # the strata above give item i the i-th size; run them in a seeded order
        self.items = [self.items[i] for i in rng.permutation(len(self.items))]
        self.problems: list[str] = []
        self.results: list[dict] = []  # first pass: flavor -> NormResult, per item

    def _pass(self, tracer):
        first = not self.outputs
        ops, outputs = [], []
        for i, (fn, p, w) in enumerate(self.items):
            got = {}
            for flavor in FLAVORS:
                space = norms.LorentzSpace(flavor, p, w)
                res, error, seconds, n_warn = timed(flavor, lambda: norms.norm_result(space, fn), tracer)
                failed = int(error is not None or n_warn > 0)
                ops.append(Op(seconds, 1, failed, error, n_warn))
                if error is not None:
                    if first:
                        self.problems.append(f"item {i} {flavor}: raised {error}")
                    continue
                got[flavor] = res
            outputs.append(tuple((f, r.value, r.diverged) for f, r in sorted(got.items())))
            if first:
                self.results.append(got)
        return ops, outputs

    def check(self) -> list[str]:
        """Per-function checks on the first pass, then rearrangement invariance (untimed)."""
        problems = self.problems + self.repeat_problems()
        for i, got in enumerate(self.results):
            for flavor, res in got.items():
                if not (math.isfinite(res.value) or res.diverged):
                    problems.append(f"item {i} {flavor}: value {res.value!r} without the diverged flag")
            if "gamma" in got and "s" in got and not got["gamma"].value >= got["s"].value:
                problems.append(f"item {i}: gamma {got['gamma'].value!r} < s {got['s'].value!r}")
        for i in range(0, len(self.items), REARRANGE_EVERY):
            fn, p, w = self.items[i]
            fstar = stepfn.rearrange(fn)
            for flavor, res in self.results[i].items():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", IntegrationWarning)  # counted in the op
                    again = norms.norm_result(norms.LorentzSpace(flavor, p, w), fstar)
                if again != res:
                    problems.append(f"item {i} {flavor}: norm of f* {again!r} differs from norm of f {res!r}")
        return problems

    def summary(self) -> list[str]:
        cells = sorted(len(fn.values) for fn, _, _ in self.items)
        return [f"functions={len(self.items)} cells {cells[0]}..{cells[-1]} "
                f"rearrangement-checked={len(range(0, len(self.items), REARRANGE_EVERY))}"]


WORKLOADS = {cls.name: cls for cls in (VerifyOracle, CheckWeights, Norm)}
