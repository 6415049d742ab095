#!/usr/bin/env python3
"""Benchmark of lorentzk: verify-oracle, check-weights and norm workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload norm --seed 1 --seconds 20 --trace 0

One process, one closed-loop caller.  The workload runs a fixed set of seeded
inputs in passes; ``--seconds`` sets how many (at least two), so the work of
a run depends only on its arguments.  Times are also given in reference
seconds, scaled by a calibration kernel timed after every op (see
``calibrate.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
per-layer ones: the workload first runs untraced passes for half the time,
then one more pass with spans recorded around each layer's public functions
(see ``tracing.py``).  Spans go to
``perfbench/out/``.  The exit code is 1 when an output check fails and 2 when
the library sources are missing.  ``--workload all`` runs the three workloads
one after another and exits non-zero if any of them did.

``--write-reference`` stores what the output checks compare with: the
check-weights verdicts at the default seed, and the verify-oracle K values of
the fixed corpus entries.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# pinned before numpy loads: one BLAS/OpenMP thread, and the library's
# thread pool left at its default of one worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LORENTZK_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5  # fresh processes that time set-up; the run reports their median
MIN_PASSES = 2  # so that every run checks that a pass repeats the first one's outputs

WORKLOAD_NAMES = ("verify-oracle", "check-weights", "norm")
END_TO_END = (("setup_s", "s"), ("ops_per_ref_s", "1/s"), ("peak_rss_mb", "MB"))
SETUP_KERNELS = 100  # kernel timings before and after each set-up probe, to scale its time

CHECKERS = ("check_bp", "check_rbp", "check_delta2", "check_cond1", "check_cond3",
            "check_sufconds", "tail_diverges_at_zero")
PER_LAYER = (
    [("kfunctional.k_oracle.calls", "count"), ("kfunctional.k_oracle.ms_p50", "ms"),
     ("kfunctional.k_oracle.ms_p90", "ms"), ("kfunctional.k_oracle.ms_max", "ms"),
     ("kfunctional.k_oracle.self_share", "share"), ("kfunctional.k_oracle.iterations_mean", "count"),
     ("kfunctional.k_oracle.grid_points_mean", "count"),
     ("kfunctional.k_oracle.unconverged_share", "share"),
     ("kfunctional.k_oracle.optimizer_win_share", "share"),
     ("kfunctional.k_oracle_s_couple.self_share", "share"),
     ("kfunctional.k_explicit_s.ms_p50", "ms"), ("kfunctional.k_explicit_s.self_share", "share")]
    + [(f"norms.norm_result.{fl}.{q}", "ms") for fl in ("lambda", "s", "gamma") for q in ("ms_p50", "ms_p95")]
    + [("norms.norm_result.self_share", "share"), ("norms.quad.calls", "count"),
       ("norms.quad.self_share", "share"), ("norms.integration_warnings", "count")]
    + [(f"weights.{c}.ms", "ms") for c in CHECKERS]
    + [("weights.quad.calls", "count"), ("weights.quad.self_share", "share"),
       ("weights.integration_warnings", "count"), ("weights.verdicts_raised", "count"),
       ("weights.moment.calls", "count"), ("weights.moment.self_share", "share"),
       ("stepfn.rearrange.calls", "count"), ("stepfn.rearrange.self_share", "share"),
       ("stepfn.OscillationTransform.as_step.self_share", "share"),
       ("stepfn.StepFunction.created", "count"),
       ("verify.run_theorem_suite.self_share", "share"),
       ("trace_overhead_share", "share"), ("failed_share", "share"),
       ("op_p50_ms", "ms"), ("op_p95_ms", "ms"), ("oracle_k_gmean", "1"), ("ops_per_s", "1/s")]
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="'all' runs the three workloads one after another")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke check")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the reference the output checks compare with "
                         "(check-weights verdicts, verify-oracle K values; one pass)")
    return ap.parse_args(argv)


def _import_library():
    if not (SRC / "lorentzk" / "__init__.py").is_file():
        print(f"perfbench: no lorentzk sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lorentzk

    if Path(lorentzk.__file__).resolve().parent != (SRC / "lorentzk").resolve():
        sys.exit(f"perfbench: imported lorentzk from {lorentzk.__file__}, not from {SRC}")
    return lorentzk


def _environment(lorentzk) -> str:
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"env nproc={os.cpu_count()} affinity={affinity} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} lorentzk={lorentzk.__version__} "
            f"OMP/BLAS threads=1 LORENTZK_THREADS=unset")


def _pass_count(wl, seconds, least):
    """Passes that fill about ``seconds`` on the machine the workloads were sized on.

    A count, not a deadline: the same arguments always give the same work,
    so a run's ops and failures do not depend on the machine's speed.
    """
    return max(least, round(seconds / wl.PASS_SECONDS))


def _run_passes(wl, passes, tracer=None):
    """Closed loop over ``passes`` passes; returns the ops of each pass and the wall time."""
    start = time.perf_counter()
    done = [wl.run_pass(tracer=tracer) for _ in range(passes)]
    return done, time.perf_counter() - start


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _workload_figures(wl, passes):
    ops = [o for ps in passes for o in ps]
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    busy = sum(o.seconds for o in ops)
    per_pass = sum(o.attempted for o in passes[0])
    # per-op latency; an op that yields several records (verify) is split evenly
    lat = [1e3 * o.seconds / o.attempted for o in ops for _ in range(o.attempted)]
    k_values = [v for v in getattr(wl, "oracle_values", lambda: [])() if v > 0.0]
    gmean = statistics.geometric_mean(k_values) if k_values else 0.0
    return {
        "attempted": attempted, "failed": failed, "busy_s": busy,
        "ops_per_s": attempted / busy, "failed_share": failed / attempted,
        "op_p50_ms": _pct(lat, 50), "op_p95_ms": _pct(lat, 95), "op_samples": len(lat),
        "oracle_k_gmean": gmean, "oracle_k_count": len(k_values),
        "per_pass": [per_pass / sum(o.seconds for o in ps) for ps in passes],
        "integration_warnings": sum(o.integration_warnings for o in ops),
        "raised": sum(1 for o in ops if o.error is not None),
    }


def _setup_probes(args, calibrate):
    """Set-up time of fresh processes, in seconds and in reference seconds.

    Each probe's time is scaled by the mean of the kernel timings just
    before it (here) and just after its set-up (in the probe).
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_PROBES):
        before = statistics.fmean(calibrate.kernel() for _ in range(SETUP_KERNELS))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        seconds, after = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append((seconds, seconds * calibrate.scale([before, after])))
    return times


def _layer_metrics(tracer, wall, fig_a, busy_a, busy_b):
    spans = defaultdict(list)  # a call that raised still took its time
    for s in tracer.spans:
        spans[s["name"]].append(s)
    tot = tracer.totals

    def calls(name):
        return float(tot[name][0]) if name in tot else 0.0

    def share(name):
        return tot[name][2] / wall if name in tot else 0.0

    def ms(name, keep=lambda s: True):
        return [1e3 * s["duration"] for s in spans[name] if keep(s)]

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    oracle = [s for s in spans["kfunctional.k_oracle"] if s["error"] is None]
    m = {
        "kfunctional.k_oracle.calls": calls("kfunctional.k_oracle"),
        "kfunctional.k_oracle.ms_p50": _pct(ms("kfunctional.k_oracle"), 50),
        "kfunctional.k_oracle.ms_p90": _pct(ms("kfunctional.k_oracle"), 90),
        "kfunctional.k_oracle.ms_max": max(ms("kfunctional.k_oracle"), default=0.0),
        "kfunctional.k_oracle.self_share": share("kfunctional.k_oracle"),
        "kfunctional.k_oracle.iterations_mean": mean(s["iterations"] for s in oracle if "iterations" in s),
        "kfunctional.k_oracle.grid_points_mean": mean(s["grid_points"] for s in oracle if "grid_points" in s),
        "kfunctional.k_oracle.unconverged_share": mean(not s["converged"] for s in oracle if "converged" in s),
        "kfunctional.k_oracle.optimizer_win_share":
            mean(s["provenance"] == "optimizer" for s in oracle if "provenance" in s),
        "kfunctional.k_oracle_s_couple.self_share": share("kfunctional.k_oracle_s_couple"),
        "kfunctional.k_explicit_s.ms_p50": _pct(ms("kfunctional.k_explicit_s"), 50),
        "kfunctional.k_explicit_s.self_share": share("kfunctional.k_explicit_s"),
    }
    for fl in ("lambda", "s", "gamma"):
        durations = ms("norms.norm_result", lambda s, fl=fl: s.get("flavor") == fl)
        m[f"norms.norm_result.{fl}.ms_p50"] = _pct(durations, 50)
        m[f"norms.norm_result.{fl}.ms_p95"] = _pct(durations, 95)
    m["norms.norm_result.self_share"] = share("norms.norm_result")
    m["norms.quad.calls"] = calls("norms.quad")
    m["norms.quad.self_share"] = share("norms.quad")
    m["norms.integration_warnings"] = float(tracer.integration_warnings["norms"])
    for c in CHECKERS:
        m[f"weights.{c}.ms"] = mean(ms(f"weights.{c}"))
    m["weights.quad.calls"] = calls("weights.quad")
    m["weights.quad.self_share"] = share("weights.quad")
    m["weights.integration_warnings"] = float(tracer.integration_warnings["weights"])
    m["weights.verdicts_raised"] = float(sum(tot[f"weights.{c}"][3] for c in CHECKERS if f"weights.{c}" in tot))
    m["weights.moment.calls"] = calls("weights.moment")
    m["weights.moment.self_share"] = share("weights.moment")
    m["stepfn.rearrange.calls"] = calls("stepfn.rearrange")
    m["stepfn.rearrange.self_share"] = share("stepfn.rearrange")
    m["stepfn.OscillationTransform.as_step.self_share"] = share("stepfn.OscillationTransform.as_step")
    m["stepfn.StepFunction.created"] = float(tracer.counters["stepfn.StepFunction.created"])
    m["verify.run_theorem_suite.self_share"] = share("verify.run_theorem_suite")
    m["trace_overhead_share"] = busy_b / busy_a - 1.0
    for key in ("failed_share", "op_p50_ms", "op_p95_ms", "oracle_k_gmean"):
        m[key] = fig_a[key]
    return m


def _oracle_breakdown(tracer):
    by_m = defaultdict(list)
    for s in tracer.spans:
        if s["name"] == "kfunctional.k_oracle" and s["error"] is None:
            by_m[s.get("m")].append(1e3 * s["duration"])
    return [f"k_oracle m={m}: calls={len(v)} ms_p50={_pct(v, 50):.1f} ms_p90={_pct(v, 90):.1f} "
            f"ms_max={max(v):.1f}" for m, v in sorted(by_m.items(), key=lambda kv: str(kv[0]))]


def _emit(correct, fig, metrics, units):
    for name, unit in units:
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    payload = {
        "correct": correct,
        "attempted": int(fig["attempted"]),
        "failed": int(fig["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units},
    }
    print(json.dumps(payload))


def _run_all(args) -> int:
    """Each workload in its own process, so each has its own set-up and peak memory."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    lorentzk = _import_library()
    import calibrate
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, tiny=args.tiny)
    setup_own = time.perf_counter() - _START
    if args.setup_probe:
        print(f"{setup_own!r} {statistics.fmean(calibrate.kernel() for _ in range(SETUP_KERNELS))!r}")
        return 0
    if args.write_reference:
        if not hasattr(wl, "write_reference") or args.tiny:
            sys.exit("perfbench: --write-reference is for the full check-weights and verify-oracle workloads")
        wl.run_pass()
        wl.write_reference()
        print("reference written")
        return 0

    print(_environment(lorentzk))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + (" tiny" if args.tiny else ""))
    if args.trace:  # untraced passes for the figures, then one traced pass
        passes, wall = _run_passes(wl, _pass_count(wl, args.seconds / 2.0, 1))
        kernel = list(calibrate.samples)
        tracer = tracing.Tracer()
        tracer.install()
        traced, wall_b = _run_passes(wl, 1, tracer=tracer)
    else:
        passes, wall = _run_passes(wl, _pass_count(wl, args.seconds, MIN_PASSES))
        kernel = list(calibrate.samples)
    fig = _workload_figures(wl, passes)
    # the kernel ran after every untraced op
    run_scale = calibrate.scale(kernel)
    # the traced pass is held to the same outputs as the others
    problems = wl.check()
    print(f"passes={len(passes)} wall_s={wall:.3f} busy_s={fig['busy_s']:.3f} attempted={fig['attempted']} "
          f"failed={fig['failed']} failed_share={fig['failed_share']:.4g} "
          f"integration_warnings={fig['integration_warnings']} raised={fig['raised']}")
    print("pass ops_per_s: " + " ".join(f"{x:.4g}" for x in fig["per_pass"]))
    print(f"ops_per_s={fig['ops_per_s']:.6g}; calibration kernel mean {1e3 * statistics.fmean(kernel):.4g} ms "
          f"over {len(kernel)} timings, {run_scale:.4g} reference seconds per second")
    print(f"op latency over {fig['op_samples']} ops: op_p50_ms={fig['op_p50_ms']:.4g} "
          f"op_p95_ms={fig['op_p95_ms']:.4g}")
    if fig["oracle_k_count"]:
        print(f"oracle_k_gmean={fig['oracle_k_gmean']:.10g} over {fig['oracle_k_count']} oracle values")
    for line in wl.summary():
        print(line)

    if args.trace:
        busy_a = statistics.median(sum(o.seconds for o in ps) for ps in passes)
        busy_b = sum(o.seconds for o in traced[0])
        metrics = _layer_metrics(tracer, wall_b, fig, busy_a, busy_b)
        metrics["ops_per_s"] = fig["ops_per_s"]
        for line in _oracle_breakdown(tracer):
            print(line)
        if tracer.skipped:
            print(f"trace: not found, skipped: {', '.join(tracer.skipped)}")
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "passes": len(passes),
                           "wall_s": wall_b, "env": _environment(lorentzk)})
        print(f"spans written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        setups = _setup_probes(args, calibrate)
        print(f"set-up seconds of this run {setup_own:.4f}; of the probes (in reference seconds): "
              + " ".join(f"{s:.4f} ({r:.4f})" for s, r in setups))
        metrics = {
            "setup_s": statistics.median(r for _, r in setups),
            "ops_per_ref_s": fig["ops_per_s"] / run_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"output checks: {'ok' if not problems else f'{len(problems)} failed'}")
    _emit(not problems, fig, metrics, units)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
