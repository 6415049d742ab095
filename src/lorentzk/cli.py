"""Command-line interface: norms, weight conditions, K-values, suites.

Weights are given as ``power:<beta>``, ``powerlog:<beta>:<gamma>``, or
``file:<path>`` (a JSON weight description).  Step functions are JSON files
with ``breakpoints`` and ``values`` arrays.  All JSON output is sorted and
timestamp-free; infinities serialize as the string "inf".

Exit codes: 0 on success, 1 on any input or computation error, 2 when
``verify --strict`` detects a violated hypothesis.
"""

import json
import math

import click

from .kfunctional import (
    KQuery,
    corollary_couple,
    k_explicit_s,
    k_oracle,
)
from .norms import LorentzSpace, norm_result
from .stepfn import StepFunction
from .verify import (
    SUITE_TAGS,
    _jsonable,
    make_corpus,
    records_to_csv,
    report_to_json,
    run_theorem_suite,
)
from .weights import (
    ConditionVerdict,
    CoupleConfig,
    InvalidWeightError,
    PowerLogWeight,
    PowerWeight,
    Weight,
    check_bp,
    check_cond1,
    check_cond3,
    check_delta2,
    check_rbp,
    check_sufconds,
    weight_from_json_dict,
)

__all__ = ["main"]


def _parse_weight(spec: str) -> Weight:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "power":
            return PowerWeight(float(rest))
        if kind == "powerlog":
            beta, _, gamma = rest.partition(":")
            return PowerLogWeight(float(beta), float(gamma))
        if kind == "file":
            with open(rest) as fh:
                return weight_from_json_dict(json.load(fh))
    except (ValueError, OSError) as exc:
        raise click.ClickException(f"bad weight spec {spec!r}: {exc}") from exc
    raise click.ClickException(
        f"unknown weight kind {kind!r}; expected power:<beta>, powerlog:<beta>:<gamma>, or file:<path>"
    )


def _parse_p(value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise click.ClickException(f"bad exponent {value!r}") from exc


def _load_fn(path: str) -> StepFunction:
    try:
        with open(path) as fh:
            return StepFunction.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"cannot load step function from {path}: {exc}")


def _dump_json(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def _load_config(ctx: click.Context, _param, value):
    if not value:
        return None
    try:
        with open(value) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise click.ClickException("config must be a JSON object of command sections")
    group = ctx.command
    normalized: dict = {}
    for section, fields in data.items():
        cmd = group.commands.get(section) if isinstance(group, click.Group) else None
        if cmd is None:
            raise click.ClickException(f"unknown config section {section!r}")
        if not isinstance(fields, dict):
            raise click.ClickException(f"config section {section!r} must be an object")
        aliases = {}
        for param in cmd.params:
            aliases[param.name] = param.name
            for opt in param.opts:
                if opt.startswith("--"):
                    aliases[opt[2:].replace("-", "_")] = param.name
        sub = {}
        for key, val in fields.items():
            name = aliases.get(key.replace("-", "_"))
            if name is None:
                raise click.ClickException(
                    f"unknown field {key!r} in config section {section!r}"
                )
            sub[name] = val
        normalized[section] = sub
    ctx.default_map = normalized
    return value


@click.group()
@click.option(
    "--config",
    type=click.Path(dir_okay=False),
    callback=_load_config,
    is_eager=True,
    expose_value=False,
    help="JSON file of per-command default options.",
)
def main() -> None:
    """Weighted Lorentz norms and K-functionals of step functions."""


@main.command("norm")
@click.option("--flavor", type=click.Choice(["lambda", "gamma", "s"]), required=True)
@click.option("--p", "p_str", default="2", show_default=True, help="Exponent, positive and finite.")
@click.option("--weight", "weight_spec", default="power:0", show_default=True)
@click.option("--fn", "fn_path", type=click.Path(dir_okay=False), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def norm_cmd(flavor: str, p_str: str, weight_spec: str, fn_path: str, fmt: str) -> None:
    """Norm of a step function in one weighted Lorentz space."""
    p = _parse_p(p_str)
    w = _parse_weight(weight_spec)
    f = _load_fn(fn_path)
    try:
        space = LorentzSpace(flavor, p, w)
        result = norm_result(space, f)
    except (ValueError, InvalidWeightError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "text":
        click.echo(str(result.value))
        return
    click.echo(
        _dump_json(
            {
                "space": space.to_json_dict(),
                "value": result.value,
                "diverged": result.diverged,
                "flags": list(result.flags),
            }
        )
    )


@main.command("check-weights")
@click.option("--weight", "weight_spec", required=True)
@click.option("--p", "p_str", default="2", show_default=True)
@click.option("--weight2", "weight2_spec", default=None, help="Second weight: couple conditions too.")
@click.option("--p2", "p2_str", default=None)
@click.option("--eps", type=float, default=0.5, show_default=True, help="Exponent for the quasi-monotone ratio check.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def check_weights_cmd(
    weight_spec: str, p_str: str, weight2_spec: str | None, p2_str: str | None, eps: float, fmt: str
) -> None:
    """Integrability and doubling conditions for one weight or a couple."""
    w = _parse_weight(weight_spec)
    p = _parse_p(p_str)
    try:
        verdicts = {
            "bp": check_bp(w, p),
            "rbp": check_rbp(w, p),
            "delta2": check_delta2(w),
        }
        if weight2_spec is not None:
            w2 = _parse_weight(weight2_spec)
            p2 = _parse_p(p2_str) if p2_str is not None else p
            cfg = CoupleConfig(p, w, p2, w2)
            verdicts["tail-doubling"] = check_cond1(cfg)
            verdicts["ratio-quasi-monotone"] = check_cond3(cfg, eps)
            try:
                head, tail = check_sufconds(cfg)
            except InvalidWeightError as exc:
                head = ConditionVerdict("sufficient-head", False, math.inf, math.nan, "inapplicable", str(exc))
                tail = ConditionVerdict("sufficient-tail", False, math.inf, math.nan, "inapplicable", str(exc))
            verdicts["sufficient-head"] = head
            verdicts["sufficient-tail"] = tail
    except (ValueError, InvalidWeightError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        click.echo(_dump_json({name: v.to_json_dict() for name, v in verdicts.items()}))
        return
    for name, v in verdicts.items():
        constant = "inf" if math.isinf(v.constant) else f"{v.constant:.6g}"
        click.echo(f"{name}: {'holds' if v.holds else 'fails'} constant={constant} [{v.method}]")


@main.command("k")
@click.option("--fn", "fn_path", type=click.Path(dir_okay=False), required=True)
@click.option("--t", type=float, required=True, help="Split point of the explicit formula.")
@click.option("--p", "p_str", default="2", show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["explicit", "oracle", "both"]),
    default="both",
    show_default=True,
)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def k_cmd(fn_path: str, t: float, p_str: str, alpha: float, method: str, fmt: str) -> None:
    """K-functional of the flat/power s-couple at the matched parameter.

    The explicit head/tail formula at split point t approximates the
    K-functional at parameter theta(t); the oracle takes the least value over
    monotone step decompositions at that same parameter, on the steps of f*, by a
    deterministic search that certifies its value by a duality gap (JSON:
    oracle_converged, oracle_gap, oracle_starts).
    """
    p = _parse_p(p_str)
    f = _load_fn(fn_path)
    try:
        cfg = corollary_couple(p, alpha)
        explicit = k_explicit_s(f, t, cfg)
        payload: dict = {
            "t": t,
            "theta": explicit.param,
            "couple": cfg.to_json_dict(),
        }
        if method in ("explicit", "both"):
            payload["explicit"] = explicit.value
            payload["flags"] = list(explicit.flags)
        if method in ("oracle", "both"):
            q = KQuery(
                f,
                explicit.param,
                LorentzSpace("s", cfg.p0, cfg.w0),
                LorentzSpace("s", cfg.p1, cfg.w1),
            )
            res = k_oracle(q)
            payload["oracle"] = res.value
            payload["oracle_converged"] = res.converged
            payload["oracle_gap"] = res.gap
            payload["oracle_starts"] = res.starts
        if method == "both" and payload["oracle"] > 0.0:
            payload["ratio"] = payload["explicit"] / payload["oracle"]
    except (ValueError, InvalidWeightError) as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        click.echo(_dump_json(payload))
        return
    for key in ("explicit", "oracle", "ratio"):
        if key in payload:
            click.echo(f"{key} {payload[key]}")


@main.command("verify")
@click.option(
    "--suite",
    "suites",
    type=click.Choice(list(SUITE_TAGS)),
    multiple=True,
    default=("identity",),
    show_default=True,
)
@click.option("--p", "p_str", default="2", show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--size", type=click.IntRange(min=1), default=20, show_default=True, help="Corpus size.")
@click.option("--t-count", type=click.IntRange(min=1), default=15, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--strict", is_flag=True, help="Exit 2 if a suite hypothesis fails.")
@click.option("--refine", is_flag=True,
              help="Report refined records for the oracle suites: the base records, as the monotone oracle "
                   "solves exactly on the steps of f* at any resolution, so drift is 0 by construction.")
@click.pass_context
def verify_cmd(
    ctx: click.Context,
    suites: tuple[str, ...],
    p_str: str,
    alpha: float,
    seed: int,
    size: int,
    t_count: int,
    out_path: str | None,
    csv_path: str | None,
    strict: bool,
    refine: bool,
) -> None:
    """Run empirical equivalence suites and summarize the observed bands.

    The explicit formulas (t2, cor1, generalk) take each function's sweep of t
    in one call, the oracle then the matched parameters in one curve.
    """
    p = _parse_p(p_str)
    corpus = make_corpus(seed, size)
    reports = []
    try:
        for tag in suites:
            reports.append(
                run_theorem_suite(
                    tag,
                    corpus,
                    p=p,
                    alpha=alpha,
                    t_count=t_count,
                    seed=seed,
                    refine=refine,
                )
            )
    except (ValueError, InvalidWeightError) as exc:
        raise click.ClickException(str(exc))
    violated = []
    for report in reports:
        lo, hi = report.band()
        parts = [
            f"suite={report.theorem}",
            f"records={len(report.records)}",
            f"band=[{lo:.6g},{hi:.6g}]",
            f"median={report.median_ratio():.6g}",
            f"constant={report.equivalence_constant():.6g}",
        ]
        if report.drift() is not None:
            parts.append(f"drift={report.drift():.6g}")
        failures = report.hypothesis_failures()
        if failures:
            parts.append(f"hypothesis-failures={','.join(failures)}")
            violated.extend(failures)
        click.echo(" ".join(parts))
    if out_path is not None:
        body = (
            report_to_json(reports[0])
            if len(reports) == 1
            else _dump_json([json.loads(report_to_json(r)) for r in reports])
        )
        with open(out_path, "w") as fh:
            fh.write(body + "\n")
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(records_to_csv(reports))
    if strict and violated:
        ctx.exit(2)


if __name__ == "__main__":
    main()
