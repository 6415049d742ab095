"""End-to-end tests of the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from scipy.integrate import IntegrationWarning

from lorentzk import cli
from lorentzk.cli import main
from lorentzk.stepfn import StepFunction
from lorentzk.verify import EquivalenceRecord, EquivalenceReport


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def fn_file(tmp_path):
    path = tmp_path / "ind4.json"
    path.write_text(StepFunction.indicator(4.0).to_json())
    return str(path)


class TestNorm:
    def test_text_output(self, runner, fn_file):
        result = runner.invoke(main, ["norm", "--flavor", "s", "--p", "2", "--fn", fn_file])
        assert result.exit_code == 0
        assert result.output == "2.0\n"

    def test_json_output_is_stable(self, runner, fn_file):
        result = runner.invoke(
            main, ["norm", "--flavor", "lambda", "--fn", fn_file, "--format", "json"]
        )
        assert result.exit_code == 0
        assert result.output == (
            "{\n"
            '  "diverged": false,\n'
            '  "flags": [],\n'
            '  "space": {\n'
            '    "flavor": "lambda",\n'
            '    "p": 2.0,\n'
            '    "w": {\n'
            '      "beta": 0.0,\n'
            '      "family": "power"\n'
            "    }\n"
            "  },\n"
            '  "value": 2.0\n'
            "}\n"
        )

    def test_divergent_norm_reported(self, runner, fn_file):
        result = runner.invoke(
            main,
            ["norm", "--flavor", "s", "--weight", "power:1.5", "--fn", fn_file, "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["diverged"] is True
        assert payload["value"] == "inf"

    def test_infinite_exponent_refused(self, runner, fn_file):
        result = runner.invoke(main, ["norm", "--flavor", "lambda", "--p", "inf", "--fn", fn_file])
        assert result.exit_code == 1
        assert "exponent p must be positive and finite" in result.output

    @pytest.mark.parametrize(
        "weight, message",
        [
            ("nope:1", "unknown weight kind"),
            ({"family": "power"}, "bad weight spec"),
            ([1, 2], "bad weight spec"),
        ],
        ids=["unknown-kind", "file-missing-field", "file-not-object"],
    )
    def test_bad_weight_spec_exits_one(self, runner, fn_file, tmp_path, weight, message):
        if not isinstance(weight, str):
            path = tmp_path / "w.json"
            path.write_text(json.dumps(weight))
            weight = f"file:{path}"
        result = runner.invoke(main, ["norm", "--flavor", "lambda", "--weight", weight, "--fn", fn_file])
        assert result.exit_code == 1
        assert message in result.output
        assert isinstance(result.exception, SystemExit)

    def test_missing_fn_file_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main, ["norm", "--flavor", "lambda", "--fn", str(tmp_path / "absent.json")]
        )
        assert result.exit_code == 1
        assert "cannot load step function" in result.output

    def test_bad_exponent_exits_one(self, runner, fn_file):
        result = runner.invoke(main, ["norm", "--flavor", "lambda", "--p", "two", "--fn", fn_file])
        assert result.exit_code == 1
        assert "bad exponent" in result.output


class TestCheckWeights:
    def test_single_weight_closed_forms(self, runner):
        result = runner.invoke(main, ["check-weights", "--p", "2", "--weight", "power:0.5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "bp: holds constant=3 [closed-form]"
        assert lines[1] == "rbp: holds constant=0.333333 [closed-form]"

    def test_failing_condition_reported(self, runner):
        result = runner.invoke(main, ["check-weights", "--p", "2", "--weight", "power:1.5"])
        assert result.exit_code == 0
        assert "bp: fails" in result.output

    def test_couple_conditions(self, runner):
        result = runner.invoke(
            main,
            ["check-weights", "--p", "2", "--weight", "power:0", "--weight2", "power:-0.5"],
        )
        assert result.exit_code == 0
        for name in ("tail-doubling", "ratio-quasi-monotone", "sufficient-head", "sufficient-tail"):
            assert f"{name}: holds" in result.output

    def test_p2_without_a_second_weight_is_refused(self, runner):
        result = runner.invoke(main, ["check-weights", "--weight", "power:0", "--p2", "3"])
        assert result.exit_code == 1
        assert "--weight2" in result.output and "bp:" not in result.output

    def test_couple_with_non_integrable_head_is_inapplicable(self, runner):
        result = runner.invoke(
            main,
            ["check-weights", "--p", "2", "--weight", "power:0", "--weight2", "power:-1"],
        )
        assert result.exit_code == 0
        assert "sufficient-head: fails constant=inf [inapplicable]" in result.output

    def test_weight_vanishing_near_zero(self, runner, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"family": "tabulated", "breakpoints": [1, 2], "values": [0, 1]}))
        result = runner.invoke(main, ["check-weights", "--p", "2", "--weight", f"file:{path}"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            "bp: fails constant=inf [grid]",
            "rbp: fails constant=inf [grid]",
            "delta2: fails constant=inf [grid]",
        ]

    def test_vanishing_fundamental_ratio(self, runner, tmp_path):
        # phi0 = 0 on (0, 1], so sigma = phi0 / phi1 vanishes there: the head ratio
        # reads x / 0 by the checkers' rule and the tail term is 0
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"family": "tabulated", "breakpoints": [1, 2], "values": [0, 1]}))
        with pytest.warns(IntegrationWarning):  # the far piece's quadrature
            result = runner.invoke(main, ["check-weights", "--weight", f"file:{path}", "--weight2", "power:0"])
        assert result.exit_code == 0, result.output
        # the head sup is t ln 2 at t = 1e4: phi1(s)^-2 = 1/s integrates to ln 2 over (1, 2], sigma(t)^2 = 1/t
        assert "sufficient-head: fails constant=6931.47 [grid]" in result.output.splitlines()

    def test_overflowing_quasi_monotone_power_exits_one(self, runner, tmp_path):
        # psi_0 = 2^{1/2} t^{-1/4} for w0 = s^{1/2} at p = 2, and w1 is not a power: the grid
        # scan would need 2^{eps/2}
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"family": "tabulated", "breakpoints": [1, 2], "values": [1, 0.5]}))
        result = runner.invoke(
            main, ["check-weights", "--weight", "power:0.5", "--weight2", f"file:{path}", "--eps", "5000"]
        )
        assert result.exit_code == 1
        assert "overflows at eps=5000" in result.output

    def test_second_weight_vanishing_near_zero(self, runner, tmp_path):
        # w1 = 0 on (0, 1], so W1^-1 w0 = x / 0 there reads inf: the head integral diverges
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"family": "tabulated", "breakpoints": [1, 2], "values": [0, 1]}))
        result = runner.invoke(main, ["check-weights", "--weight", "power:0", "--weight2", f"file:{path}"])
        assert result.exit_code == 0, result.output
        assert "sufficient-head: fails constant=inf [grid]" in result.output.splitlines()

    def test_vanishing_tail_fundamental_fails_doubling(self, runner, tmp_path):
        # the table's tail fundamental is 0 from t = 5 on, so psi1(t) / psi1(2t) reads inf
        path = tmp_path / "tab.json"
        path.write_text(json.dumps({"family": "tabulated", "breakpoints": [1, 2, 5], "values": [1, 0.5, 2]}))
        result = runner.invoke(main, ["check-weights", "--weight", "power:0", "--weight2", f"file:{path}"])
        assert result.exit_code == 0, result.output
        assert "tail-doubling: fails constant=inf [grid]" in result.output.splitlines()

    def test_divergent_tail_integral_fails(self, runner, tmp_path):
        # phi0 is constant from s = 2 on, so integral_t^inf phi0^-2 w1 diverges for w1 = 1
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"family": "tabulated", "breakpoints": [1, 2], "values": [1, 1]}))
        with pytest.warns(IntegrationWarning):  # the far piece's quadrature of the divergent integral
            result = runner.invoke(main, ["check-weights", "--weight", f"file:{path}", "--weight2", "power:0"])
        assert result.exit_code == 0, result.output
        assert "sufficient-tail: fails constant=inf [grid]" in result.output.splitlines()

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["check-weights", "--p", "2", "--weight", "power:0", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["bp"]["holds"] is True
        assert payload["bp"]["constant"] == 1.0


class TestK:
    def test_explicit_text(self, runner, fn_file):
        result = runner.invoke(main, ["k", "--fn", fn_file, "--t", "2"])
        assert result.exit_code == 0
        assert result.output.startswith("explicit ")

    def test_both_reports_ratio_one_for_indicator(self, runner, fn_file):
        result = runner.invoke(
            main, ["k", "--fn", fn_file, "--t", "2", "--method", "both"]
        )
        assert result.exit_code == 0
        lines = dict(line.split(" ", 1) for line in result.output.splitlines())
        assert float(lines["explicit"]) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert float(lines["ratio"]) == pytest.approx(1.0, rel=1e-9)

    def test_json_payload(self, runner, fn_file):
        result = runner.invoke(
            main, ["k", "--fn", fn_file, "--t", "4", "--method", "explicit", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        # theta(t) = sqrt(2 t) for the default couple, so theta(4) = 2 sqrt(2)
        assert payload["theta"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        assert payload["t"] == 4.0
        assert "explicit" in payload and "oracle" not in payload

    def test_json_reports_the_oracle_certificate(self, runner, fn_file):
        result = runner.invoke(
            main, ["k", "--fn", fn_file, "--t", "2", "--method", "oracle", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["oracle_converged"] is True
        assert 0.0 <= payload["oracle_gap"] <= 1e-10 * payload["oracle"]
        assert isinstance(payload["oracle_starts"], int) and 0 <= payload["oracle_starts"] <= 5

    def test_json_writes_an_infinite_gap_as_a_string(self, runner, fn_file, monkeypatch):
        real = cli.k_oracle
        monkeypatch.setattr(cli, "k_oracle", lambda *a, **k: replace(real(*a, **k), gap=math.inf))
        result = runner.invoke(
            main, ["k", "--fn", fn_file, "--t", "2", "--method", "oracle", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["oracle_gap"] == "inf"

    def test_invalid_p_for_couple_exits_one(self, runner, fn_file):
        result = runner.invoke(main, ["k", "--fn", fn_file, "--t", "1", "--p", "1"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("p", ["1.001", "1.0000001"])
    def test_borderline_exponent_runs(self, runner, tmp_path, p):
        # eps of the quasi-monotone check is about 1 / (2 (p - 1)) here, so c^eps would overflow
        path = tmp_path / "f.json"
        path.write_text(StepFunction((1.0, 2.0), (2.0, 1.0)).to_json())
        result = runner.invoke(main, ["k", "--fn", str(path), "--t", "1", "--p", p])
        assert result.exit_code == 0, result.output
        lines = dict(line.split(" ", 1) for line in result.output.splitlines())
        assert list(lines) == ["explicit", "oracle", "ratio"]
        assert float(lines["ratio"]) == pytest.approx(1.0, rel=1e-9)


class TestVerify:
    def test_identity_suite_summary(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "identity", "--size", "4", "--t-count", "3"]
        )
        assert result.exit_code == 0
        assert result.output == "suite=identity records=28 band=[1,1] median=1 constant=1\n"

    def test_identity_suite_below_exponent_one(self, runner, tmp_path):
        # w = 1 at p < 1: every full s-norm diverges, and so does its transform side; inf = inf leaves the band
        csv_file = tmp_path / "records.csv"
        result = runner.invoke(
            main, ["verify", "--suite", "identity", "--p", "0.7", "--size", "6", "--t-count", "3", "--csv", str(csv_file)]
        )
        assert result.exit_code == 0, result.output
        assert result.output == "suite=identity records=42 band=[1,1] median=1 constant=1\n"
        rows = [r for r in csv.DictReader(csv_file.read_text().splitlines()) if r["flags"] == "s-as-transform-norm"]
        assert len(rows) == 6
        assert all((r["lhs"], r["rhs"], r["ratio"]) == ("inf", "inf", "nan") for r in rows)

    def test_empty_corpus_is_not_a_pass(self, runner):
        # no records would print band=[inf,0] and constant=nan and exit 0: a usage error instead
        result = runner.invoke(main, ["verify", "--suite", "cor1", "--size", "0", "--refine"])
        assert result.exit_code == 2
        assert "Invalid value for '--size'" in result.output

    def test_empty_sweep_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "t11", "--t-count", "0"])
        assert result.exit_code == 2
        assert "Invalid value for '--t-count'" in result.output

    def test_out_and_csv_files(self, runner, tmp_path):
        out = tmp_path / "report.json"
        csv_file = tmp_path / "records.csv"
        result = runner.invoke(
            main,
            [
                "verify", "--suite", "identity", "--size", "3", "--t-count", "3",
                "--out", str(out), "--csv", str(csv_file),
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["theorem"] == "identity"
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "theorem,f_id,t,lhs,rhs,ratio,flags"
        assert len(lines) == 1 + 3 * 7

    def test_multiple_suites(self, runner):
        result = runner.invoke(
            main,
            [
                "verify", "--suite", "identity", "--suite", "gammaeqs",
                "--size", "3", "--t-count", "3",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("suite=identity")
        assert lines[1].startswith("suite=gammaeqs")

    def test_suite_order_changes_no_report(self, runner, tmp_path):
        """t11 and cor1 share the corollary couple, whose verdicts the first suite takes and the second
        reuses: in either order each suite writes the same report."""
        payloads = []
        for order in (("t11", "cor1"), ("cor1", "t11")):
            out = tmp_path / f"{order[0]}-first.json"
            args = ["verify", "--size", "4", "--t-count", "3", "--refine", "--out", str(out)]
            result = runner.invoke(main, args + [arg for tag in order for arg in ("--suite", tag)])
            assert result.exit_code == 0
            payloads.append(json.loads(out.read_text()))
        assert [r["theorem"] for r in payloads[0]] == ["t11", "cor1"]
        assert payloads[0] == payloads[1][::-1]

    def test_csv_runs_are_identical(self, runner, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            result = runner.invoke(
                main,
                [
                    "verify", "--suite", "identity", "--seed", "7",
                    "--size", "4", "--t-count", "4", "--csv", str(path),
                ],
            )
            assert result.exit_code == 0
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_unknown_suite_rejected_as_usage(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "nope"])
        assert result.exit_code != 0

    def test_strict_exits_two_on_violated_hypothesis(self, runner, monkeypatch):
        record = EquivalenceRecord("f0", 1.0, 1.0, 1.0, 1.0)
        report = EquivalenceReport(
            "cor1",
            {},
            {"reverse-balance-w0": {"holds": False}},
            (record,),
        )
        monkeypatch.setattr(cli, "run_theorem_suite", lambda *a, **k: report)
        result = runner.invoke(main, ["verify", "--suite", "cor1", "--strict"])
        assert result.exit_code == 2
        assert "hypothesis-failures=reverse-balance-w0" in result.output

    def test_violation_without_strict_exits_zero(self, runner, monkeypatch):
        record = EquivalenceRecord("f0", 1.0, 1.0, 1.0, 1.0)
        report = EquivalenceReport(
            "cor1", {}, {"reverse-balance-w0": {"holds": False}}, (record,)
        )
        monkeypatch.setattr(cli, "run_theorem_suite", lambda *a, **k: report)
        result = runner.invoke(main, ["verify", "--suite", "cor1"])
        assert result.exit_code == 0


class TestConfig:
    def test_config_supplies_defaults(self, runner, fn_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"norm": {"flavor": "s", "weight": "power:0"}}))
        result = runner.invoke(main, ["--config", str(cfg), "norm", "--fn", fn_file])
        assert result.exit_code == 0
        assert result.output == "2.0\n"

    def test_flags_override_config(self, runner, fn_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"norm": {"flavor": "s", "p": "2"}}))
        result = runner.invoke(
            main, ["--config", str(cfg), "norm", "--flavor", "gamma", "--fn", fn_file]
        )
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(math.sqrt(8.0), rel=1e-9)

    def test_dashed_field_names_accepted(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"verify": {"t-count": 3, "size": 3, "suite": ["identity"]}}))
        result = runner.invoke(main, ["--config", str(cfg), "verify"])
        assert result.exit_code == 0
        assert "records=21" in result.output

    def test_unknown_section_rejected(self, runner, fn_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"normz": {"flavor": "s"}}))
        result = runner.invoke(main, ["--config", str(cfg), "norm", "--fn", fn_file])
        assert result.exit_code == 1
        assert "unknown config section" in result.output

    def test_unknown_field_rejected(self, runner, fn_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"norm": {"flavour": "s"}}))
        result = runner.invoke(main, ["--config", str(cfg), "norm", "--fn", fn_file])
        assert result.exit_code == 1
        assert "unknown field" in result.output

    def test_malformed_config_exits_one(self, runner, fn_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        result = runner.invoke(main, ["--config", str(cfg), "norm", "--fn", fn_file])
        assert result.exit_code == 1
        assert "cannot read config" in result.output


# runs the command given as arguments, if any, after ``import lorentzk``; prints the heavy scipy modules loaded
_LOADED = """
import sys
import lorentzk
if sys.argv[1:]:
    from lorentzk.cli import main
    try:
        main(sys.argv[1:])
    except SystemExit as exc:
        assert not exc.code, exc.code
print(sorted({"scipy.optimize", "scipy.integrate"} & set(sys.modules)))
"""


class TestLeanImport:
    """The norms, the monotone oracle and the closed-form weight checks need neither the optimizer
    nor quadrature, which take most of a second to load; they are imported where they are called."""

    @pytest.mark.parametrize("args", [
        [],
        ["norm", "--flavor", "gamma", "--weight", "power:0.5", "--fn", "f.json"],
        ["verify", "--suite", "t11", "--size", "3", "--t-count", "2"],
        ["k", "--fn", "f.json", "--t", "1.5"],
        ["verify", "--suite", "t11", "--suite", "cor1", "--suite", "t2", "--suite", "generalk"],
        # below exponent 1 the monotone oracle takes the best corner of the box, with no search
        ["verify", "--suite", "generalk", "--p", "0.5", "--alpha", "0.5"],
        # power weights: every checker has a closed form
        ["check-weights", "--weight", "power:0.5", "--weight2", "power:-1"],
        # power-log: the first cell from 0 below s = 1 and the tail past 1 take the incomplete-gamma kernel
        *(["norm", "--flavor", flavor, "--weight", "powerlog:0.3:0.5", "--fn", "g.json"] for flavor in ("lambda", "s", "gamma")),
        # a first cell across s = 1: the kernel up to 1, log panels beyond
        *(["norm", "--flavor", flavor, "--weight", "powerlog:0.3:0.5", "--fn", "h.json"] for flavor in ("lambda", "gamma")),
        # both sides of the s-lambda identity are exact cell sums
        ["verify", "--suite", "identity", "--suite", "gammaeqs"],
    ], ids=["import", "norm", "verify", "k", "verify-oracle-suites", "verify-below-one", "check-weights-power",
            "norm-powerlog-lambda", "norm-powerlog-s", "norm-powerlog-gamma",
            "norm-powerlog-lambda-first-cell-past-1", "norm-powerlog-gamma-first-cell-past-1", "verify-identity-gammaeqs"])
    def test_loads_no_scipy_optimize_or_integrate(self, args, tmp_path):
        (tmp_path / "f.json").write_text(StepFunction((1.0, 2.5), (3.0, 1.0)).to_json())
        (tmp_path / "g.json").write_text(StepFunction((0.5, 1.2, 3.0), (1.0, 3.0, 2.0)).to_json())
        (tmp_path / "h.json").write_text(StepFunction((2.0, 3.0), (3.0, 1.0)).to_json())
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _LOADED, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
