"""Empirical equivalence suites over a deterministic corpus of step functions.

Each suite evaluates a claimed identity or two-sided bound on every corpus
function (and a log-spaced sweep of parameters t), records both sides and
their ratio, and summarizes the observed equivalence band.  The reported
constant is max(band_max, 1/band_min), so 1.0 means the identity held
exactly on the corpus.  Output is deterministic for a fixed seed: no
timestamps, ordered records, repr-formatted floats.

Suites
------
* identity suite: rearrangement invariance (f* against the rearrangement of
  f with its cells in reverse order), the s-norm as a reciprocal
  lambda-norm of the oscillation transform (the s-flavor cell sums against
  the lambda-flavor sums of the transform's step form; where both diverge,
  as for w = 1 at p < 1, the record reads inf = inf and leaves the band),
  and reconstruction of f** from the oscillation tail integral;
* ``t11``: the s-couple K-functional of the monotone oracle versus its optimal
  parts mapped by the oscillation transform and measured in the reciprocal
  lambda-couple: one problem in two coordinates, so the ratio checks the
  s-lambda norm identity on those parts, not the oracle;
* ``t2``: the explicit head/tail s-couple formula at split t versus the
  oracle at the matched parameter theta(t);
* ``cor1``: the same with w_0 = 1, w_1 = s^{-alpha};
* ``generalk``: the explicit lambda-couple formula at split t versus the
  oracle at the matched parameter sigma(t);
* ``gammaeqs``: the gamma-norm against the s-norm (ratio >= 1 always;
  bounded when the reverse balance condition holds).

The oracle suites take one oracle curve per entry and suite
(``kfunctional.k_curve``; in ``t11`` ``k_curve_s_couple``, whose mapped side
keeps the curve's gaps) over the sweep's parameters t, theta(t) or sigma(t);
``t2``, ``cor1`` and ``generalk`` take the explicit formula over the sweep in
one ``kfunctional.k_explicit_curve`` call, which gives theta(t) or sigma(t).
The monotone oracle solves exactly on the steps of f*, so the resolution m
changes no value: it is only recorded in the config, and with ``refine`` the
refined records are the base records, so the drift is 0 by construction.  A
record is flagged ``oracle-unconverged`` when its oracle value is uncertified,
and ``oracle-nonconcave`` when its curve breaks the concavity of K(t) or the
monotonicity of K(t)/t beyond the gaps (``kfunctional.curve_violations``).
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from statistics import median

import numpy as np

from .kfunctional import (
    corollary_couple,
    curve_violations,
    k_curve,
    k_curve_s_couple,
    k_explicit_curve,
    s_couple_hypotheses,
)
from .norms import LorentzSpace, gamma_equals_s_check, s_lambda_identity_check
from .stepfn import StepFunction, add, rearrange
from .weights import CoupleConfig, PowerWeight, check_rbp, fundamental_ratio

__all__ = [
    "CorpusEntry",
    "make_corpus",
    "EquivalenceRecord",
    "EquivalenceReport",
    "run_identity_suite",
    "run_theorem_suite",
    "report_to_json",
    "records_to_csv",
    "SUITE_TAGS",
]

SUITE_TAGS = ("identity", "t11", "t2", "cor1", "generalk", "gammaeqs")


@dataclass(frozen=True)
class CorpusEntry:
    f_id: str
    fn: StepFunction


def _random_monotone(rng: np.random.Generator, cells: int) -> StepFunction:
    bps = np.sort(np.exp(rng.uniform(math.log(0.05), math.log(50.0), size=cells)))
    vals = np.sort(rng.uniform(0.1, 8.0, size=cells))[::-1]
    return StepFunction(bps, vals)


def make_corpus(seed: int = 7, size: int = 20) -> tuple[CorpusEntry, ...]:
    """Deterministic mix of indicators, staircases, and seeded random shapes.

    Entries are not all non-increasing: shifted and gapped shapes exercise
    the rearrangement path of every consumer.
    """
    rng = np.random.default_rng(seed)
    entries: list[CorpusEntry] = []

    def put(f_id: str, fn: StepFunction) -> None:
        entries.append(CorpusEntry(f_id, fn))

    for length in (0.5, 1.0, 4.0, 10.0, 32.0):
        put(f"indicator-{length}", StepFunction.indicator(length))
    put(
        "staircase-geometric-4",
        StepFunction((1.0, 2.0, 4.0, 8.0), (8.0, 4.0, 2.0, 1.0)),
    )
    put(
        "staircase-geometric-6",
        StepFunction(
            (0.25, 0.5, 1.0, 2.0, 4.0, 8.0), (6.4, 3.2, 1.6, 0.8, 0.4, 0.2)
        ),
    )
    put("staircase-arith-3", StepFunction((1.0, 2.0, 3.0), (3.0, 2.0, 1.0)))
    put(
        "staircase-arith-5",
        StepFunction((2.0, 4.0, 6.0, 8.0, 10.0), (5.0, 4.0, 3.0, 2.0, 1.0)),
    )
    put("shifted-indicator", StepFunction((1.0, 3.0), (0.0, 2.0)))
    put("gapped", StepFunction((0.5, 1.0, 2.0, 3.0), (1.0, 0.0, 3.0, 0.5)))
    put(
        "two-scale",
        StepFunction((0.01, 20.0), (50.0, 0.02)),
    )
    put(
        "tall-thin-plus-long-low",
        add(StepFunction.indicator(0.1, 9.0), StepFunction.indicator(25.0, 0.3)),
    )
    n_random = max(size - len(entries), 0)
    for i in range(n_random):
        cells = int(rng.integers(2, 9))
        put(f"random-monotone-{i}", _random_monotone(rng, cells))
    return tuple(entries[:size])


def _geomspace(lo: float, hi: float, count: int) -> list[float]:
    """``np.geomspace(lo, hi, count).tolist()`` for 0 < lo, hi, bit for bit, from its ufuncs without its wrapper:
    log10 of the ends, k step + log10(lo), numpy's 10 ** that (Python's differs in the last bit), the ends exact."""
    a, b = np.log10((lo, hi)).tolist()
    inner = np.power(10.0, np.arange(1, count - 1) * ((b - a) / max(count - 1, 1)) + a).tolist()
    return [lo, *inner, hi][:count]


def t_sweep(fn: StepFunction, count: int = 15) -> tuple[float, ...]:
    """Log-spaced parameters from a decade below the support to a decade beyond it; (0.1, 10) for a zero
    function."""
    fstar = rearrange(fn)
    lo, hi = (0.1, 10.0) if fstar.is_zero else (fstar.first_breakpoint / 10.0, fstar.support_end * 10.0)
    # a t on a breakpoint moves off it, by a set lookup (np.isin costs more than the sweep)
    jumps = set(fstar.breakpoints.tolist())
    return tuple(t * (1.0 + 1e-7) if t in jumps else t for t in _geomspace(lo, hi, count))


@dataclass(frozen=True)
class EquivalenceRecord:
    f_id: str
    t: float
    lhs: float
    rhs: float
    ratio: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquivalenceReport:
    theorem: str
    config: dict
    hypotheses: dict | None
    records: tuple[EquivalenceRecord, ...]
    # with refine, the oracle suites' records themselves (a pass at 2m solves the same problems)
    refined_records: tuple[EquivalenceRecord, ...] | None = None

    def band(self) -> tuple[float, float]:
        ratios = [r.ratio for r in self.records if math.isfinite(r.ratio)]
        if not ratios:
            return (math.inf, 0.0)
        return (min(ratios), max(ratios))

    def median_ratio(self) -> float:
        ratios = [r.ratio for r in self.records if math.isfinite(r.ratio)]
        return median(ratios) if ratios else math.nan

    def equivalence_constant(self) -> float:
        """max(band_max, 1 / band_min); nan when no record has a finite ratio."""
        lo, hi = self.band()
        if lo > hi:  # the empty band (inf, 0)
            return math.nan
        if lo <= 0.0:
            return math.inf
        return max(hi, 1.0 / lo)

    def refined_constant(self) -> float | None:
        if self.refined_records is None:
            return None
        return EquivalenceReport(
            self.theorem, self.config, None, self.refined_records
        ).equivalence_constant()

    def drift(self) -> float | None:
        refined = self.refined_constant()
        if refined is None:
            return None
        base = self.equivalence_constant()
        if math.isnan(base) or math.isnan(refined):
            return math.nan
        if not (math.isfinite(base) and math.isfinite(refined)) or base == 0.0:
            return math.inf
        return abs(refined - base) / base

    def hypothesis_failures(self) -> tuple[str, ...]:
        if not self.hypotheses:
            return ()
        return tuple(
            name for name, v in sorted(self.hypotheses.items()) if not v.get("holds", True)
        )


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def report_to_json(report: EquivalenceReport) -> str:
    lo, hi = report.band()
    payload = {
        "theorem": report.theorem,
        "config": report.config,
        "hypotheses": report.hypotheses,
        "band_min": lo,
        "band_max": hi,
        "median_ratio": report.median_ratio(),
        "equivalence_constant": report.equivalence_constant(),
        "refined_constant": report.refined_constant(),
        "drift": report.drift(),
        "records": [
            {
                "f_id": r.f_id,
                "t": r.t,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "ratio": r.ratio,
                "flags": list(r.flags),
            }
            for r in report.records
        ],
    }
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def records_to_csv(reports: list[EquivalenceReport]) -> str:
    """One row per record across reports, stable order, no timestamps."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["theorem", "f_id", "t", "lhs", "rhs", "ratio", "flags"])
    for report in reports:
        for r in report.records:
            writer.writerow(
                [report.theorem, r.f_id, repr(r.t), repr(r.lhs), repr(r.rhs), repr(r.ratio), "|".join(r.flags)]
            )
    return out.getvalue()


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 1.0 if lhs == 0.0 else math.inf
    return lhs / rhs


# ---------------------------------------------------------------------------
# identity suite


def _reconstruction_rhs(fstar: StepFunction, t: float) -> float:
    """integral_t^inf (f** - f*)(s) ds / s, evaluated exactly on cells."""
    b, v = fstar.breakpoints, fstar.values
    a = np.concatenate(([0.0], b[:-1]))
    # c_i = A_{i-1} - v_i x_{i-1}, f** - f* = c_i / s on cell i; sums run from the left
    c = np.cumsum(np.concatenate(([0.0], v * (b - a))))[:-1] - v * a
    lo = np.maximum(a, t)
    live = b > lo
    total = float(np.cumsum(np.append(0.0, c[live] * (1.0 / lo[live] - 1.0 / b[live])))[-1])
    mass = fstar.total_integral
    if mass > 0.0:
        total += mass / max(fstar.support_end, t)
    return total


def _reversed_cells(f: StepFunction) -> StepFunction:
    """f with its cells in reverse order: the same values on the same lengths, so the same f*."""
    return StepFunction(np.cumsum(np.diff(f.breakpoints, prepend=0.0)[::-1]), f.values[::-1])


def run_identity_suite(
    corpus: tuple[CorpusEntry, ...] | None = None,
    p: float = 2.0,
    t_count: int = 15,
    seed: int = 7,
) -> EquivalenceReport:
    """Exact structural identities: rearrangement invariance (the records keep their
    name "idempotence"), transform norm under the flat weight, reconstruction."""
    corpus = corpus if corpus is not None else make_corpus(seed)
    w = PowerWeight(0.0)

    def one(entry: CorpusEntry) -> list[EquivalenceRecord]:
        recs: list[EquivalenceRecord] = []
        fstar = rearrange(entry.fn)
        fstar2 = rearrange(_reversed_cells(entry.fn))  # sorts the cells, even of a monotone f
        for t in t_sweep(entry.fn, t_count):
            lhs, rhs = fstar2(t), fstar(t)
            recs.append(
                EquivalenceRecord(entry.f_id, t, lhs, rhs, _ratio(lhs, rhs), ("idempotence",))
            )
            lhs_r = fstar.prefix_integral(t) / t
            rhs_r = _reconstruction_rhs(fstar, t)
            recs.append(
                EquivalenceRecord(entry.f_id, t, lhs_r, rhs_r, _ratio(lhs_r, rhs_r), ("reconstruction",))
            )
        lhs_n, rhs_n = s_lambda_identity_check(entry.fn, p, w)
        recs.append(
            EquivalenceRecord(entry.f_id, math.inf, lhs_n, rhs_n, _ratio(lhs_n, rhs_n), ("s-as-transform-norm",))
        )
        return recs

    all_recs = [r for entry in corpus for r in one(entry)]
    return EquivalenceReport(
        "identity",
        {"p": p, "weight": "power:0.0", "seed": seed},
        None,
        tuple(all_recs),
    )


# ---------------------------------------------------------------------------
# theorem suites


def _default_couple(tag: str, p: float, alpha: float) -> CoupleConfig:
    if tag in ("cor1", "t11", "gammaeqs"):
        return corollary_couple(p, alpha)
    if tag == "t2":
        return CoupleConfig(p, PowerWeight(0.5), p, PowerWeight(-alpha))
    if tag == "generalk":
        return CoupleConfig(p, PowerWeight(1.0), p, PowerWeight(0.0))
    raise ValueError(f"unknown suite tag {tag!r}")


def _hypotheses_json(cfg: CoupleConfig, tag: str) -> dict | None:
    if tag in ("t2", "cor1", "t11"):
        return {name: v.to_json_dict() for name, v in s_couple_hypotheses(cfg).items()}
    if tag == "gammaeqs":
        verdict = check_rbp(cfg.w0, cfg.p0)
        return {"reverse-balance": verdict.to_json_dict()}
    return None


def run_theorem_suite(
    tag: str,
    corpus: tuple[CorpusEntry, ...] | None = None,
    p: float = 2.0,
    alpha: float = 1.0,
    couple: CoupleConfig | None = None,
    m: int = 64,
    t_count: int = 15,
    seed: int = 7,
    refine: bool = False,
) -> EquivalenceReport:
    """Run one empirical theorem suite; see the module docstring for tags.

    ``m`` is only recorded in the config.  With ``refine``, an oracle suite's
    refined records are its records, so ``drift()`` is 0.
    """
    if tag == "identity":
        return run_identity_suite(corpus, p=p, t_count=t_count, seed=seed)
    if tag not in SUITE_TAGS:
        raise ValueError(f"unknown suite tag {tag!r}; expected one of {SUITE_TAGS}")
    corpus = corpus if corpus is not None else make_corpus(seed)
    cfg = couple if couple is not None else _default_couple(tag, p, alpha)
    if tag == "generalk":
        fundamental_ratio(cfg)  # sigma(t) is the oracle's parameter: raises InvalidWeightError where W diverges
    config = {
        "tag": tag,
        "couple": cfg.to_json_dict(),
        "m": m,
        "t_count": t_count,
        "seed": seed,
    }

    flavor = "lambda" if tag == "generalk" else "s"  # of the oracle's couple
    spaces = (LorentzSpace(flavor, cfg.p0, cfg.w0), LorentzSpace(flavor, cfg.p1, cfg.w1))

    def one(entry: CorpusEntry) -> list[EquivalenceRecord]:
        if tag == "gammaeqs":
            gam_pow, s_pow = gamma_equals_s_check(entry.fn, cfg.p0, cfg.w0)
            lhs = gam_pow ** (1.0 / cfg.p0)
            rhs = s_pow ** (1.0 / cfg.p0)
            return [EquivalenceRecord(entry.f_id, math.inf, lhs, rhs, _ratio(lhs, rhs))]
        ts = t_sweep(entry.fn, t_count)
        if tag == "t11":
            pairs = k_curve_s_couple(entry.fn, *spaces, ts)
            sides = [(res.direct.value, res.transformed.value) for res in pairs]
            curves = [(ts, [res.direct for res in pairs]), (ts, [res.transformed for res in pairs])]
        else:  # the oracle at the matched parameters, sigma(t) (generalk) or theta(t) (t2, cor1)
            explicit = k_explicit_curve(entry.fn, ts, cfg, flavor, check_hypotheses=False)
            params = [e.param for e in explicit]
            oracle = k_curve(entry.fn, *spaces, params)
            sides = [(e.value, res.value) for e, res in zip(explicit, oracle)]
            curves = [(params, oracle)]
        unconverged = np.logical_or.reduce([[not res.converged for res in results] for _, results in curves])
        nonconcave = np.logical_or.reduce([curve_violations(params, results) for params, results in curves])
        recs = []
        for t, (lhs, rhs), *marks in zip(ts, sides, unconverged, nonconcave):
            flags = tuple(f for f, on in zip(("oracle-unconverged", "oracle-nonconcave"), marks) if on)
            recs.append(EquivalenceRecord(entry.f_id, t, lhs, rhs, _ratio(lhs, rhs), flags))
        return recs

    records = tuple(r for entry in corpus for r in one(entry))
    refined = records if (refine and tag != "gammaeqs") else None
    return EquivalenceReport(tag, config, _hypotheses_json(cfg, tag), records, refined)
