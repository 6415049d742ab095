"""Spans around the public functions of each lorentzk layer, recorded from outside.

The tracer rebinds each traced name in every ``lorentzk`` module that holds
it, so internal calls are caught too (``k_oracle_s_couple`` calling
``k_oracle`` through the ``kfunctional`` module globals, for example).  A
name the library no longer defines is skipped, not an error: a later change
may delete a helper without editing the benchmark.

Spans nest by call stack (the benchmark is single-threaded).  A span's self
time is its duration minus the durations of the spans directly inside it.
Coarse spans (suite runs, oracle queries, norms, condition checks, ops) are
kept one by one; fine-grained ones (quadrature, weight moments,
rearrangement) are summed per name, since there are hundreds of thousands of
them per run.  Everything stays in memory until ``dump``.
"""

import json
import sys
import time
from collections import Counter

from scipy.integrate import IntegrationWarning

# (span name, defining module, attribute, keep each span)
FUNCTIONS = (
    ("verify.run_theorem_suite", "lorentzk.verify", "run_theorem_suite", True),
    ("kfunctional.k_oracle", "lorentzk.kfunctional", "k_oracle", True),
    ("kfunctional.k_oracle_s_couple", "lorentzk.kfunctional", "k_oracle_s_couple", True),
    ("kfunctional.k_explicit_s", "lorentzk.kfunctional", "k_explicit_s", True),
    ("norms.norm_result", "lorentzk.norms", "norm_result", True),
    ("weights.check_bp", "lorentzk.weights", "check_bp", True),
    ("weights.check_rbp", "lorentzk.weights", "check_rbp", True),
    ("weights.check_delta2", "lorentzk.weights", "check_delta2", True),
    ("weights.check_cond1", "lorentzk.weights", "check_cond1", True),
    ("weights.check_cond3", "lorentzk.weights", "check_cond3", True),
    ("weights.check_sufconds", "lorentzk.weights", "check_sufconds", True),
    ("weights.tail_diverges_at_zero", "lorentzk.weights", "tail_diverges_at_zero", True),
    ("stepfn.rearrange", "lorentzk.stepfn", "rearrange", False),
)

# scipy's quad is one object imported by two modules; each binding gets its
# own span name so the warnings and time land on the right layer
MODULE_LOCAL = (
    ("weights.quad", "lorentzk.weights", "quad"),
    ("norms.quad", "lorentzk.norms", "quad"),
)

METHODS = (("stepfn.OscillationTransform.as_step", "lorentzk.stepfn", "OscillationTransform", "as_step"),)


def _oracle_extra(args, kwargs, result):
    extra = {"m": kwargs.get("m", 64)}
    for key, get in (
        ("iterations", lambda r: r.iterations),
        ("grid_points", lambda r: len(r.grid)),
        ("converged", lambda r: bool(r.converged)),
        ("provenance", lambda r: r.decomposition.provenance),
        ("value", lambda r: float(r.value)),
    ):
        try:
            extra[key] = get(result)
        except AttributeError:
            pass
    return extra


def _norm_extra(args, kwargs, result):
    space = args[0] if args else kwargs.get("space")
    return {"flavor": getattr(space, "flavor", "?")}


EXTRAS = {"kfunctional.k_oracle": _oracle_extra, "norms.norm_result": _norm_extra}


class _Frame:
    __slots__ = ("child_time", "warn_start", "warn_child")

    def __init__(self, warn_start):
        self.child_time = 0.0
        self.warn_start = warn_start
        self.warn_child = 0


class Tracer:
    """Records nested spans; ``install`` wraps the library, ``dump`` writes them."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s, errors]
        self.counters: Counter = Counter()
        self.integration_warnings: Counter = Counter()
        self.caught: list | None = None  # warnings recorded for the current op
        self.installed: list[str] = []
        self.skipped: list[str] = []

    # -- recording -------------------------------------------------------

    def _integration_count(self, start: int) -> int:
        if self.caught is None or len(self.caught) == start:
            return 0
        return sum(1 for w in self.caught[start:] if issubclass(w.category, IntegrationWarning))

    def wrap(self, name, fn, keep: bool, warn_layer: str | None = None):
        extra_fn = EXTRAS.get(name)
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            caught = self.caught
            frame = _Frame(len(caught) if (warn_layer and caught is not None) else 0)
            stack.append(frame)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                duration = clock() - start
                stack.pop()
                self_time = duration - frame.child_time
                if stack:
                    stack[-1].child_time += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += self_time
                if error is not None:
                    totals[3] += 1
                # a warning belongs to the innermost quad that emitted it; the
                # count of warnings already charged travels up the stack
                charged = frame.warn_child
                if warn_layer and caught is not None:
                    new = self._integration_count(frame.warn_start)
                    self.integration_warnings[warn_layer] += new - charged
                    charged = new
                if stack:
                    stack[-1].warn_child += charged
                if keep:
                    span = {"name": name, "start": start, "duration": duration, "self": self_time,
                            "depth": len(stack), "error": error}
                    if extra_fn is not None and error is None:
                        span.update(extra_fn(args, kwargs, result))
                    self.spans.append(span)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def op(self, label: str, caught: list, fn):
        """Run one benchmark op as a root span; warnings are read from ``caught``."""
        self.caught = caught
        try:
            return self.wrap("op", fn, keep=True)()
        finally:
            self.caught = None
            self.spans[-1]["label"] = label

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "lorentzk" or n.startswith("lorentzk.")}
        for name, mod_name, attr, keep in FUNCTIONS:
            original = getattr(mods.get(mod_name), attr, None)
            if original is None:
                self.skipped.append(name)
                continue
            wrapper = self.wrap(name, original, keep)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
            self.installed.append(name)
        for name, mod_name, attr in MODULE_LOCAL:
            mod = mods.get(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                self.skipped.append(name)
                continue
            setattr(mod, attr, self.wrap(name, original, keep=False, warn_layer=name.split(".")[0]))
            self.installed.append(name)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(mods.get(mod_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.skipped.append(name)
                continue
            setattr(cls, attr, self.wrap(name, original, keep=False))
            self.installed.append(name)
        self._install_moments(mods.get("lorentzk.weights"))
        self._install_step_counter(mods.get("lorentzk.stepfn"))

    def _install_moments(self, weights_mod) -> None:
        base = getattr(weights_mod, "Weight", None)
        if base is None:
            self.skipped.append("weights.moment")
            return
        seen = [base]
        for cls in seen:  # breadth-first over every Weight subclass
            seen.extend(c for c in cls.__subclasses__() if c not in seen)
        wrapped = 0
        for cls in seen:
            original = cls.__dict__.get("moment")
            if original is not None:
                setattr(cls, "moment", self.wrap("weights.moment", original, keep=False))
                wrapped += 1
        (self.installed if wrapped else self.skipped).append("weights.moment")

    def _install_step_counter(self, stepfn_mod) -> None:
        cls = getattr(stepfn_mod, "StepFunction", None)
        original = cls.__dict__.get("__post_init__") if cls is not None else None
        if original is None:
            self.skipped.append("stepfn.StepFunction.created")
            return
        counters = self.counters

        def counted(obj):
            counters["stepfn.StepFunction.created"] += 1
            return original(obj)

        cls.__post_init__ = counted
        self.installed.append("stepfn.StepFunction.created")

    # -- output ----------------------------------------------------------

    def dump(self, path, meta: dict) -> None:
        payload = {
            "meta": meta,
            "installed": self.installed,
            "skipped": self.skipped,
            "totals": {n: {"calls": t[0], "total_s": t[1], "self_s": t[2], "errors": t[3]}
                       for n, t in sorted(self.totals.items())},
            "counters": dict(self.counters),
            "integration_warnings": dict(self.integration_warnings),
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, default=str))
