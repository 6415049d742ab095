#!/usr/bin/env python3
"""Smoke check of the benchmark harness at a tiny size (about a minute).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--tiny --seconds 1``, untraced
and traced, and asserts that each run passes its output checks and emits
exactly the metrics BENCHMARK.json names, with their units, as finite
numbers; that the metrics which apply to a workload are nonzero there; and
that the harness refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's files.
"""

import fnmatch
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics that must be nonzero on the workload that exercises their layer
APPLIES = {
    "verify-oracle": [
        "kfunctional.k_oracle.calls", "kfunctional.k_oracle.ms_*", "kfunctional.k_oracle.self_share",
        "kfunctional.k_oracle.iterations_mean", "kfunctional.k_oracle.grid_points_mean",
        "kfunctional.k_oracle_s_couple.self_share", "kfunctional.k_explicit_s.*",
        "verify.run_theorem_suite.self_share", "stepfn.rearrange.calls",
        "stepfn.OscillationTransform.as_step.self_share", "stepfn.StepFunction.created",
        "weights.moment.calls", "op_p50_ms", "oracle_k_gmean",
    ],
    "check-weights": [
        "weights.check_*.ms", "weights.tail_diverges_at_zero.ms", "weights.quad.*",
        "weights.integration_warnings", "weights.verdicts_raised", "weights.moment.*",
        "failed_share", "op_p50_ms", "op_p95_ms",
    ],
    "norm": [
        "norms.norm_result.*", "norms.quad.*", "stepfn.rearrange.*", "stepfn.StepFunction.created",
        "weights.moment.*", "op_p50_ms", "op_p95_ms",
    ],
}
ALWAYS = ["setup_s", "ops_per_ref_s", "peak_rss_mb", "ops_per_s"]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or not result["attempted"] >= 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {entry.get('unit')!r}, not {m['unit']!r}")
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {m['name']} = {value!r} is not a finite number")
        patterns = ALWAYS + APPLIES[workload]
        if any(fnmatch.fnmatchcase(m["name"], p) for p in patterns) and not value:
            problems.append(f"{where}: {m['name']} is 0 on a workload it applies to")
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, printed a result: {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    problems = check_bare_directory()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_run(w["name"], trace)
            print(f"{w['name']} trace={trace}: done", flush=True)
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
