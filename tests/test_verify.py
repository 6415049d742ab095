"""Tests for the empirical suites: corpus, records, reports, and serialization."""

import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from lorentzk import verify
from lorentzk.stepfn import rearrange
from lorentzk.verify import (
    SUITE_TAGS,
    EquivalenceRecord,
    EquivalenceReport,
    _ratio,
    make_corpus,
    records_to_csv,
    report_to_json,
    run_identity_suite,
    run_theorem_suite,
    t_sweep,
)

SMALL = make_corpus(seed=7, size=6)
GOLDEN = Path(__file__).parent / "data" / "verify_golden.csv"


class TestCorpus:
    def test_deterministic(self):
        a = make_corpus(seed=7)
        b = make_corpus(seed=7)
        assert [e.f_id for e in a] == [e.f_id for e in b]
        assert all(x.fn == y.fn for x, y in zip(a, b))

    def test_size_and_unique_ids(self):
        corpus = make_corpus(seed=7, size=20)
        assert len(corpus) == 20
        ids = [e.f_id for e in corpus]
        assert len(set(ids)) == len(ids)

    def test_contains_non_monotone_shapes(self):
        corpus = make_corpus(seed=7)
        by_id = {e.f_id: e.fn for e in corpus}
        assert not by_id["gapped"].is_nonincreasing()
        assert not by_id["shifted-indicator"].is_nonincreasing()

    def test_seed_changes_random_entries(self):
        a = make_corpus(seed=7, size=20)
        b = make_corpus(seed=8, size=20)
        assert any(
            x.fn != y.fn for x, y in zip(a, b) if x.f_id.startswith("random-monotone")
        )


class TestSweep:
    def test_count_and_range(self):
        fn = SMALL[3].fn
        ts = t_sweep(fn, 15)
        assert len(ts) == 15
        fstar = rearrange(fn)
        assert ts[0] == pytest.approx(fstar.first_breakpoint / 10.0, rel=1e-9)
        assert ts[-1] == pytest.approx(fstar.support_end * 10.0, rel=1e-9)
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_avoids_exact_breakpoints(self):
        fn = SMALL[1].fn  # indicator-1.0 has breakpoint 1.0 inside the sweep
        fstar = rearrange(fn)
        assert not set(t_sweep(fn, 15)) & set(fstar.breakpoints)


class TestIdentitySuite:
    def test_record_count_and_tight_band(self):
        report = run_identity_suite(SMALL, t_count=5)
        # per function: 5 idempotence + 5 reconstruction + 1 transform norm
        assert len(report.records) == len(SMALL) * 11
        lo, hi = report.band()
        assert lo >= 1.0 - 1e-6 and hi <= 1.0 + 1e-6
        assert report.theorem == "identity"
        assert report.hypotheses is None

    def test_a_broken_rearrangement_fails_the_invariance_records(self, monkeypatch):
        # a rearrange that does not sort: it returns every monotone entry as it is, but
        # the staircase's reversed cells stay increasing
        monkeypatch.setattr(verify, "rearrange", lambda f: f)
        report = run_identity_suite(SMALL, t_count=5)
        ratios = [r.ratio for r in report.records if r.flags == ("idempotence",)]
        assert len(ratios) == len(SMALL) * 5
        assert max(abs(r - 1.0) for r in ratios) > 0.5

    def test_deterministic(self):
        a = run_identity_suite(SMALL, t_count=4)
        b = run_identity_suite(SMALL, t_count=4)
        assert a.records == b.records


class TestTheoremSuites:
    def test_cor1_band_and_refinement(self):
        report = run_theorem_suite(
            "cor1", corpus=SMALL[:3], m=16, t_count=4, refine=True
        )
        assert len(report.records) == 12
        assert report.refined_records is not None
        assert math.isfinite(report.equivalence_constant())
        assert report.equivalence_constant() < 100.0
        assert report.drift() is not None
        assert report.hypotheses is not None
        assert report.hypothesis_failures() == ()

    def test_t11_routes_close(self):
        report = run_theorem_suite("t11", corpus=SMALL[:2], m=16, t_count=3)
        assert report.equivalence_constant() < 1.5
        assert all(r.flags == () for r in report.records)

    def test_gammaeqs_one_record_per_function(self):
        report = run_theorem_suite("gammaeqs", corpus=SMALL[:4])
        assert len(report.records) == 4
        # the gamma-flavor norm dominates the s-flavor norm pointwise
        assert all(r.ratio >= 1.0 - 1e-12 for r in report.records)

    def test_generalk_runs(self):
        report = run_theorem_suite("generalk", corpus=SMALL[:2], m=16, t_count=3)
        assert len(report.records) == 6
        assert math.isfinite(report.equivalence_constant())

    def test_identity_tag_dispatches(self):
        report = run_theorem_suite("identity", corpus=SMALL[:2], t_count=3)
        assert report.theorem == "identity"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown suite tag"):
            run_theorem_suite("nope", corpus=SMALL)

    def test_all_tags_declared(self):
        assert SUITE_TAGS == ("identity", "t11", "t2", "cor1", "generalk", "gammaeqs")


class TestRefineReusesRecords:
    @pytest.mark.parametrize("tag", ["t11", "t2", "cor1", "generalk"])
    def test_one_oracle_curve_per_entry_and_route(self, tag, monkeypatch):
        """The refined records are the base records: refine runs no oracle curve
        of its own, and the records do not depend on it."""
        calls = {"k_curve": 0, "k_curve_s_couple": 0}

        def counted(name):
            real = getattr(verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(verify, name, counted(name))
        corpus = SMALL[:3]
        base = run_theorem_suite(tag, corpus=corpus, t_count=3)
        counts = dict(calls)
        # one curve per entry: k_curve_s_couple for t11 (both routes), k_curve otherwise
        assert counts == {"k_curve": 0 if tag == "t11" else 3, "k_curve_s_couple": 3 if tag == "t11" else 0}
        refined = run_theorem_suite(tag, corpus=corpus, t_count=3, refine=True)
        assert {name: calls[name] - counts[name] for name in calls} == counts
        assert refined.records == base.records
        assert refined.refined_records == refined.records
        assert refined.drift() == 0.0
        assert base.refined_records is None and base.drift() is None


class TestCurveFlags:
    def test_nonconcave_oracle_curve_flags_its_records(self, monkeypatch):
        real = verify.k_curve

        def dented(*args, **kwargs):
            # the middle value down to the first, below the chord of its neighbours
            curve = real(*args, **kwargs)
            return [curve[0], replace(curve[1], value=curve[0].value, gap=0.0), *curve[2:]]

        monkeypatch.setattr(verify, "k_curve", dented)
        report = run_theorem_suite("cor1", corpus=SMALL[3:4], m=16, t_count=3)
        assert [r.flags for r in report.records] == [("oracle-nonconcave",)] * 3
        monkeypatch.setattr(verify, "k_curve", real)
        report = run_theorem_suite("cor1", corpus=SMALL[3:4], m=16, t_count=3)
        assert [r.flags for r in report.records] == [()] * 3


class TestGolden:
    # which of (lhs, rhs) come from the oracle, per suite; the other sides are
    # explicit formulas, norms and identities
    ORACLE_SIDES = {"t11": (True, True), "t2": (False, True), "cor1": (False, True), "generalk": (False, True)}

    def test_rows_match_golden_file(self):
        """The rows of ``lorentz-k verify --suite identity --suite t11 --suite t2
        --suite cor1 --suite generalk --suite gammaeqs --refine --size 14
        --t-count 3 --csv`` (refined records are not written to the CSV).

        Oracle values may move by rel 1e-9, so that another BLAS or libm does
        not fail the test; everything else by rel 1e-12.
        """
        corpus = make_corpus(seed=7, size=14)
        reports = [run_theorem_suite(tag, corpus, t_count=3) for tag in SUITE_TAGS]
        got = list(csv.reader(io.StringIO(records_to_csv(reports))))
        with open(GOLDEN, newline="") as fh:
            want = list(csv.reader(fh))
        assert got[0] == want[0]
        assert len(got) == len(want)
        for g, w in zip(got[1:], want[1:]):
            assert (g[0], g[1], g[6]) == (w[0], w[1], w[6])
            rel_l, rel_r = (1e-9 if oracle else 1e-12 for oracle in self.ORACLE_SIDES.get(w[0], (False, False)))
            (t, lhs, rhs, ratio), (t_w, lhs_w, rhs_w, ratio_w) = ([float(x) for x in row[2:6]] for row in (g, w))
            assert t == pytest.approx(t_w, rel=1e-12, abs=0.0)
            assert lhs == pytest.approx(lhs_w, rel=rel_l, abs=0.0)
            assert rhs == pytest.approx(rhs_w, rel=rel_r, abs=0.0)
            assert ratio == pytest.approx(ratio_w, rel=rel_l + rel_r, abs=0.0)


class TestSerialization:
    def test_csv_header_and_shape(self):
        report = run_identity_suite(SMALL[:2], t_count=3)
        text = records_to_csv([report])
        lines = text.splitlines()
        assert lines[0] == "theorem,f_id,t,lhs,rhs,ratio,flags"
        assert len(lines) == 1 + len(report.records)
        assert lines[1].startswith("identity,indicator-0.5,")

    def test_csv_uses_repr_floats(self):
        rec = EquivalenceRecord("x", 0.1, 1.0, 3.0, 1.0 / 3.0, ("a", "b"))
        report = EquivalenceReport("demo", {}, None, (rec,))
        row = records_to_csv([report]).splitlines()[1]
        assert row == "demo,x,0.1,1.0,3.0,0.3333333333333333,a|b"

    def test_csv_deterministic(self):
        a = records_to_csv([run_identity_suite(SMALL[:3], t_count=4)])
        b = records_to_csv([run_identity_suite(SMALL[:3], t_count=4)])
        assert a == b

    def test_json_round_trip_with_inf(self):
        rec = EquivalenceRecord("x", math.inf, 1.0, 0.0, math.inf)
        report = EquivalenceReport("demo", {"p": 2.0}, None, (rec,))
        payload = json.loads(report_to_json(report))
        assert payload["theorem"] == "demo"
        assert payload["records"][0]["t"] == "inf"
        assert payload["records"][0]["ratio"] == "inf"
        assert payload["band_min"] == "inf"  # no finite ratios at all

    def test_json_sorted_keys(self):
        report = run_identity_suite(SMALL[:2], t_count=3)
        payload = report_to_json(report)
        keys = list(json.loads(payload).keys())
        assert keys == sorted(keys)


class TestReportStatistics:
    def mk(self, ratios, flags=()):
        recs = tuple(
            EquivalenceRecord(f"f{i}", 1.0, r, 1.0, r, flags) for i, r in enumerate(ratios)
        )
        return EquivalenceReport("demo", {}, None, recs)

    def test_band_and_constant(self):
        report = self.mk([0.5, 1.0, 1.6])
        assert report.band() == (0.5, 1.6)
        assert report.equivalence_constant() == 2.0

    def test_empty_report_has_no_constant(self):
        for report in (self.mk([]), self.mk([math.inf])):
            assert math.isnan(report.equivalence_constant())
        empty = EquivalenceReport("demo", {}, None, (), ())
        assert math.isnan(empty.drift())

    def test_median(self):
        assert self.mk([1.0, 2.0, 4.0]).median_ratio() == 2.0

    def test_infinite_ratios_excluded_from_band(self):
        report = self.mk([1.0, math.inf, 1.2])
        assert report.band() == (1.0, 1.2)

    def test_drift(self):
        base = self.mk([1.0, 2.0])
        refined = tuple(
            EquivalenceRecord(f"f{i}", 1.0, r, 1.0, r) for i, r in enumerate([1.0, 1.9])
        )
        report = EquivalenceReport("demo", {}, None, base.records, refined)
        assert report.refined_constant() == pytest.approx(1.9)
        assert report.drift() == pytest.approx(0.05)

    def test_hypothesis_failures(self):
        report = EquivalenceReport(
            "demo",
            {},
            {"good": {"holds": True}, "bad": {"holds": False}},
            (),
        )
        assert report.hypothesis_failures() == ("bad",)


class TestRatio:
    def test_zero_over_zero_is_one(self):
        assert _ratio(0.0, 0.0) == 1.0

    def test_positive_over_zero_is_inf(self):
        assert _ratio(2.0, 0.0) == math.inf

    def test_plain_division(self):
        assert _ratio(1.0, 4.0) == 0.25
