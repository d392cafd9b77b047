"""Command-line entry point.

Single-analysis subcommands synthesize a one-analysis plan and run it through
the same orchestration as plan mode, so a command line and the equivalent
plan file produce the same report. Exit codes: 0 success, 1 plan or data
validation failure, 2 when the report contains a failed analysis.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Any, Sequence

from .dataset import serialize_records
from .report import (
    ANALYSES,
    IngestError,
    PlanError,
    emit_report,
    load_plan,
    plan_from_dict,
    render_markdown,
    report_to_dict,
    run_plan,
)
from .resample import (
    SeededGenerator,
    _simulated_table,
    simulate_binary_study,
    simulate_risk_scores,
    simulate_survival,
)

__all__ = ["main"]


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for analysis
    # failures here, so argument problems are rerouted to exit code 1.
    def error(self, message: str):
        raise CliError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help="CSV dataset in the canonical schema")
    p.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")
    p.add_argument(
        "--ci-method",
        choices=("cp", "wilson"),
        default="cp",
        help="interval method for proportions (default cp)",
    )
    p.add_argument("--out", help="directory for report and plot files (default: print to stdout)")
    p.add_argument("--format", choices=("json", "md"), default="json", help="report format")
    p.add_argument("--seed", type=int, default=None, help="seed recorded in the report (or DAVAL_SEED)")


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser() -> _Parser:
    parser = _Parser(prog="daval", description="Diagnostic device validation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # One subcommand per analysis; each flag is the plan parameter of the same name.
    for name, analysis in ANALYSES.items():
        p = sub.add_parser(name, help=analysis.title)
        _add_common(p)
        for param in analysis.params:
            p.add_argument(
                "--" + param.name.replace("_", "-"),
                dest=param.name,
                type=param.kind.parse,
                default=param.default,
                required=param.required,
                help=param.help if param.default is None else f"{param.help} (default {param.default})",
            )
        p.set_defaults(func=_run_analysis)

    p = sub.add_parser("simulate", help="write a seeded synthetic dataset in the canonical schema")
    p.add_argument("--kind", choices=("binary", "scores", "survival"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prevalence", type=float)
    p.add_argument("--sensitivity", type=float)
    p.add_argument("--specificity", type=float)
    p.add_argument("--auc", type=float)
    p.add_argument("--baseline-hazard", type=float)
    p.add_argument("--log-hazard-ratio", type=float, default=0.0)
    p.add_argument("--censor-rate", type=float)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="generator seed (or DAVAL_SEED; default 0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("run", help="execute an analysis plan")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--out", help="directory for report and plot files")
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--seed", type=int, default=None, help="overrides the plan's seed")
    p.set_defaults(func=_cmd_run)

    return parser


def _resolve_seed(explicit: int | None) -> int | None:
    if explicit is not None:
        return explicit
    env = os.environ.get("DAVAL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"DAVAL_SEED must be an integer, got {env!r}") from None
    return None


def _finish(report, args) -> int:
    if args.out:
        try:
            written = emit_report(report, args.out, args.format)
        except FileExistsError:
            raise CliError(f"--out {args.out} is a file, not a directory") from None
        except OSError as exc:
            raise CliError(f"cannot write the report to {args.out}: {exc.strerror}") from None
        for path in written:
            print(path)
    elif args.format == "md":
        print(render_markdown(report))
    else:
        print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    if report.has_failures:
        for name, block in report.results.items():
            if "error" in block:
                print(f"analysis {name} failed: {block['error']}", file=sys.stderr)
        return 2
    return 0


def _run_analysis(args) -> int:
    """Run the one-analysis plan that the subcommand's flags spell out."""
    analysis = args.command
    params = {
        param.name: getattr(args, param.name)
        for param in ANALYSES[analysis].params
        if getattr(args, param.name) is not None
    }
    raw: dict[str, Any] = {
        "dataset": args.dataset,
        "analyses": [analysis],
        "level": args.level,
        "ci_method": args.ci_method,
    }
    if params:
        raw["params"] = {analysis: params}
    seed = _resolve_seed(args.seed)
    if seed is not None:
        raw["seed"] = seed
    report = run_plan(plan_from_dict(raw))
    return _finish(report, args)


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    gen = SeededGenerator(seed=0 if seed is None else seed)

    def need(*names: str) -> list:
        values = [getattr(args, name) for name in names]
        if None in values:
            flag = "--" + names[values.index(None)].replace("_", "-")
            raise CliError(f"simulate --kind {args.kind} needs {flag}")
        return values

    try:
        if args.kind == "binary":
            table = simulate_binary_study(args.n, *need("prevalence", "sensitivity", "specificity"), gen)
        elif args.kind == "scores":
            scores, outcomes = simulate_risk_scores(args.n, *need("prevalence", "auc"), gen)
            table = _simulated_table(args.n, truth=outcomes, score=scores)
        else:
            table = simulate_survival(args.n, *need("baseline_hazard", "log_hazard_ratio", "censor_rate"), gen)
    except ValueError as exc:  # a parameter out of its range
        raise CliError(f"simulate --kind {args.kind}: {exc}") from None
    try:
        serialize_records(table, args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror}") from None
    print(args.out)
    return 0


def _cmd_run(args) -> int:
    plan = load_plan(args.plan)
    seed = _resolve_seed(args.seed)
    if seed is not None:
        plan = dataclasses.replace(plan, seed=seed)
    report = run_plan(plan)
    return _finish(report, args)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, PlanError, IngestError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
