"""Analysis plans, pipeline orchestration, and report emission.

A plan is a flat JSON document naming the dataset, the analyses to run, and
their parameters. Its hash (over the canonicalized document: sorted keys, no
insignificant whitespace) is computed before anything executes and embedded
in the report as the pre-specification fingerprint. Reports are fully
deterministic: the same plan, data, seed, and tool version reproduce every
output byte. JSON is the machine-readable source of truth; Markdown is a
rendering of the same numbers at 4 significant digits; plot data goes to CSV
sidecar files.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from ._version import __version__
from .accuracy import (
    CIMethod,
    accuracy_metrics,
    confusion_from_records,
    likelihood_ratios,
    posttest_risk,
    test_vs_goal,
)
from .agreement import bland_altman, deming, variance_components
from .dataset import (
    CANONICAL_COLUMNS,
    IngestResult,
    OutputKind,
    StudyTable,
    _csv_text,
    _read_rows,
    first_row,
    ingest_csv,
    validate_records,
)
from .qc import triage_report, triage_table
from .riskscore import (
    DEFAULT_DCA_GRID,
    CalibrationMode,
    auc_ci,
    decision_curve,
    fit_recalibration,
    prevalence_scale,
    risk_strata_analysis,
    roc_curve,
    sort_scores,
    threshold_grid,
)
from .survival import (
    KMCurve,
    added_value_lrt,
    covariate_matrix,
    cox_fit,
    km_estimate,
    km_risk_at,
    logrank,
    survival_arrays,
)

__all__ = [
    "PlanError",
    "IngestError",
    "AnalysisPlan",
    "ValidationReport",
    "ANALYSES",
    "load_plan",
    "plan_from_dict",
    "run_plan",
    "report_to_dict",
    "render_markdown",
    "emit_report",
]

_PLAN_KEYS = {"dataset", "analyses", "mapping", "level", "ci_method", "seed", "params"}
_RECORD_GROUP_FIELDS = ("site_id", "operator_id", "device_unit_id", "replicate_index")
# Column kinds: the record fields a column parameter may name, and whether it
# may name a numeric dataset column instead.
_NUMERIC = ((), True)
_FIELD = (_RECORD_GROUP_FIELDS, False)
_EITHER = (_RECORD_GROUP_FIELDS, True)


class PlanError(ValueError):
    """The analysis plan is invalid."""


class IngestError(ValueError):
    """The dataset could not be ingested cleanly."""


@dataclass(frozen=True)
class AnalysisPlan:
    dataset: Path
    analyses: tuple[str, ...]
    mapping: dict[str, str]
    level: float
    ci_method: CIMethod
    seed: int | None
    params: dict[str, dict[str, Any]]
    plan_hash: str


def canonical_hash(obj: Any) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_name(value: Any) -> bool:
    return isinstance(value, str) and bool(value)


def _is_names(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_name, value))


def _require_unit(value: Any, name: str) -> float:
    if not _is_number(value):
        raise PlanError(f"{name} must be a number, got {value!r}")
    if not 0.0 < float(value) < 1.0:
        raise PlanError(f"{name} must lie in (0, 1), got {value}")
    return float(value)


def _require_units(value: Any, name: str) -> None:
    if not isinstance(value, list) or not value:
        raise PlanError(f"{name} must be a nonempty list")
    for v in value:
        _require_unit(v, f"{name} entry")


def _must(test: Callable[[Any], bool], what: str) -> Callable[[Any, str], None]:
    def check(value: Any, name: str) -> None:
        if not test(value):
            raise PlanError(f"{name} must be {what}")

    return check


def _names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _numbers(text: str) -> list[float]:
    return [float(tok) for tok in _names(text)]


@dataclass(frozen=True)
class Kind:
    """A parameter's value type: its plan check and how a flag's text parses."""

    check: Callable[[Any, str], None]  # raises PlanError naming the parameter
    parse: Callable[[str], Any] = float


_UNIT = Kind(_require_unit)
_UNITS = Kind(_require_units, _numbers)
_POSITIVE = Kind(_must(lambda v: _is_number(v) and v > 0, "a positive number"))
_NONNEGATIVE = Kind(_must(lambda v: _is_number(v) and v >= 0, "a nonnegative number"))
_CALIBRATION = Kind(_must(lambda v: v in ("large", "slope"), "'large' or 'slope'"), str)
_BINS = Kind(_must(lambda v: type(v) is int and v >= 2, "an integer >= 2"), int)
_COLUMN = Kind(_must(_is_name, "a column name"), str)
_GROUP = Kind(_must(_is_name, "a field or covariate name"), str)
_FIELDS = Kind(_must(lambda v: _is_names(v) and v != [], "a list of field names"), _names)
_COVARIATES = Kind(_must(_is_names, "a list of covariate names"), _names)


@dataclass(frozen=True)
class Param:
    """One plan parameter of an analysis; its CLI flag is `--` + name with `_` -> `-`.

    `default` is what an absent parameter means: the CLI writes it into the
    plan it builds, and a validated plan carries it. `column` says what the
    value names: the record fields it may be, and whether it may instead be
    a numeric column of the dataset.
    """

    name: str
    kind: Kind
    help: str
    default: Any = None
    required: bool = False
    column: tuple[tuple[str, ...], bool] | None = None  # _NUMERIC, _FIELD or _EITHER


# What an analysis runner returns: its result block, plot CSVs and warnings.
Outcome = tuple[dict, dict, list[str]]


@dataclass(frozen=True)
class Analysis:
    """One analysis: its report section, CLI subcommand, parameters and runner.

    `run(table, params, level, method)` computes the result block, and
    `check(params)` holds the rules across parameters.
    """

    title: str  # the report section heading and the subcommand's help
    params: tuple[Param, ...]
    run: Callable[[StudyTable, dict, float, CIMethod], Outcome]
    render: Callable[[dict], list[str]]  # the section's paragraphs and tables
    check: Callable[[dict], None] = lambda params: None


def plan_from_dict(raw: dict, base_dir: Path | None = None) -> AnalysisPlan:
    """Validate a plan document; the hash is taken before validation rewrites anything."""
    if not isinstance(raw, dict):
        raise PlanError("plan must be a JSON object")
    plan_hash = canonical_hash(raw)
    unknown = set(raw) - _PLAN_KEYS
    if unknown:
        raise PlanError(f"unknown plan keys: {sorted(unknown)}")
    dataset = raw.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise PlanError("plan needs a 'dataset' path")
    path = Path(dataset)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    analyses = raw.get("analyses")
    if not isinstance(analyses, list):
        raise PlanError("plan needs an 'analyses' list")
    # An empty list is allowed: the run still fingerprints the dataset and
    # reports integrity warnings, it just computes no analysis blocks.
    bad = [a for a in analyses if a not in ANALYSES]
    if bad:
        raise PlanError(f"unknown analyses {bad}; choose from {list(ANALYSES)}")
    if len(set(analyses)) != len(analyses):
        raise PlanError("duplicate analyses in plan")
    mapping = raw.get("mapping", {})
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise PlanError("mapping must be a string-to-string object")
    bad_canon = set(mapping) - set(CANONICAL_COLUMNS)
    if bad_canon:
        raise PlanError(f"mapping keys are not canonical columns: {sorted(bad_canon)}")
    level = _require_unit(raw.get("level", 0.95), "level")
    method_raw = raw.get("ci_method", "cp")
    try:
        ci_method = CIMethod(method_raw)
    except ValueError:
        raise PlanError(f"ci_method must be 'cp' or 'wilson', got {method_raw!r}") from None
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise PlanError("seed must be an integer")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise PlanError("params must be an object keyed by analysis name")
    stray = [name for name in params if name not in analyses]
    if stray:
        raise PlanError(f"params given for analysis {stray[0]!r} that is not enabled")
    validated = {}
    for name in analyses:
        spec, given = ANALYSES[name].params, params.get(name, {})
        if not isinstance(given, dict):
            raise PlanError(f"params for {name!r} must be an object")
        unknown = set(given) - {param.name for param in spec}
        if unknown:
            raise PlanError(f"unknown {name} parameters: {sorted(unknown)}")
        for param in spec:
            if param.name in given:
                param.kind.check(given[param.name], f"{name}.{param.name}")
            elif param.required:
                required = " and ".join(repr(param.name) for param in spec if param.required)
                raise PlanError(f"{name} analysis needs {required} parameters")
        ANALYSES[name].check(given)
        defaults = {param.name: param.default for param in spec if param.default is not None}
        validated[name] = {**defaults, **given}
    return AnalysisPlan(
        dataset=path,
        analyses=tuple(analyses),
        mapping=dict(mapping),
        level=level,
        ci_method=ci_method,
        seed=seed,
        params=validated,
        plan_hash=plan_hash,
    )


def load_plan(path: str | Path) -> AnalysisPlan:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PlanError(f"plan file not found: {p}") from None
    except OSError as exc:
        raise PlanError(f"cannot read plan file {p}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise PlanError(f"plan file {p} is not UTF-8 text: byte {exc.start} is 0x{byte:02x}") from None
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan file is not valid JSON: {exc}") from None
    return plan_from_dict(raw, base_dir=p.parent)


# A plot CSV column: a 1-d float or int array, or a list of text fields.
PlotColumn = np.ndarray | list[str]


@dataclass
class ValidationReport:
    plan_hash: str
    dataset_fingerprint: dict[str, Any]
    tool_version: str
    level: float
    ci_method: str
    seed: int | None
    results: dict[str, dict[str, Any]]
    warnings: list[str]
    plots: dict[str, tuple[tuple[str, ...], list[PlotColumn]]]

    @property
    def has_failures(self) -> bool:
        return any("error" in block for block in self.results.values())


def _check_columns(plan: AnalysisPlan, header: list[str], result: IngestResult) -> None:
    """Refuse a plan whose column parameter names a record field the dataset
    has no column for, or leaves empty in every row, or whose numeric
    parameter names anything but a covariate column of the ingested table: a
    column the dataset lacks, one ingest excluded as text, or one it read as
    a canonical column."""
    table = result.table
    covariates = set(table.covariate_names)
    unfilled: list[str] = []
    for name in plan.analyses:
        params = plan.params[name]
        for param in ANALYSES[name].params:
            if param.column is None or param.name not in params:
                continue
            fields, numeric = param.column
            key, value = f"{name}.{param.name}", params[param.name]
            for col in value if isinstance(value, list) else [value]:
                if col in fields and plan.mapping.get(col, col) not in header:
                    raise PlanError(f"{key} record field {col!r} has no column in the dataset")
                if col in fields and len(table) and all(v is None for v in getattr(table, col)):
                    unfilled.append(f"{key} record field {col!r} has no value in any row")
                if col in fields or (numeric and col in covariates):
                    continue
                if not numeric:
                    raise PlanError(f"{key} {col!r} is not a record field")
                if col in result.excluded_columns:
                    raise PlanError(
                        f"{key} column {col!r} was excluded by ingest as non-numeric; "
                        f"{key} needs a numeric column"
                    )
                if col in header:
                    raise PlanError(
                        f"{key} column {col!r} is a canonical column, not a numeric covariate"
                    )
                if fields:
                    raise PlanError(f"{key} {col!r} is neither a record field nor a column")
                raise PlanError(f"{key} column {col!r} not in dataset")
    # Raised last, so a column the plan misnames is reported first.
    if unfilled:
        raise PlanError(unfilled[0])


def _block(result: Any, *names: str) -> Any:
    """A kernel result as report data: the named fields of a result dataclass
    (all of them when none are named), nested results, mappings and sequences
    converted alike, enums as their values."""
    fields = getattr(type(result), "__dataclass_fields__", None)
    if fields is not None:
        return {name: _block(getattr(result, name)) for name in names or fields}
    if isinstance(result, Enum):
        return result.value
    if isinstance(result, dict):
        return {key: _block(v) for key, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [_block(v) for v in result]
    return result


def _posttest(pretest: float, lr: float) -> float:
    # An empty fn (or fp) cell gives LR = 0, and with it zero post-test odds;
    # when both of its cells are empty the LR is 0/0 and the risk undefined.
    if math.isnan(lr):
        return math.nan
    return 0.0 if lr == 0 else posttest_risk(pretest, lr)


def _run_accuracy(table: StudyTable, params: dict, level: float, method: CIMethod) -> Outcome:
    conf = confusion_from_records(table)
    metrics = accuracy_metrics(conf, level=level, method=method)
    lrs = likelihood_ratios(conf, level=level)
    block: dict[str, Any] = {"counts": _block(conf), **_block(metrics), **_block(lrs)}
    pretest = params.get("pretest")
    if pretest is not None:
        block["posttest"] = {
            "pretest": pretest,
            "after_positive": _posttest(pretest, lrs["lr_pos"].estimate),
            "after_negative": _posttest(pretest, lrs["lr_neg"].estimate),
        }
    goal = params.get("goal")
    if goal is not None:
        block["goal_tests"] = {
            name: _block(test_vs_goal(x, n, goal, alpha=params["alpha"]))
            for name, x, n in (
                ("sensitivity", conf.tp, conf.n_positive),
                ("specificity", conf.tn, conf.n_negative),
            )
        }
    return block, {}, []


def _run_qc(table: StudyTable, params: dict, level: float, method: CIMethod) -> Outcome:
    tri = triage_table(table)
    rep = triage_report(tri, level=level, method=method)
    block = {
        "table": _block(tri, "a", "b", "c", "d", "e", "f", "total"),
        "rows": [
            _block(row, "name", "diseased", "healthy", "posttest_risk", "likelihood_ratio")
            for row in rep.rows
        ],
        "worst_case": _block(rep.worst, "sensitivity", "specificity", "pretest_risk"),
        "gradable_only": {
            "sensitivity": _block(rep.gradable_sensitivity),
            "specificity": _block(rep.gradable_specificity),
        },
        "ungradable_proportion": _block(rep.ungradable),
    }
    return block, {}, []


def _score_outcome_arrays(table: StudyTable) -> tuple[np.ndarray, np.ndarray]:
    not_score = ~table.is_kind(OutputKind.SCORE)
    i = first_row(not_score | (table.truth == -1))
    if i >= 0:
        if not_score[i]:
            raise ValueError(
                f"risk-score analysis needs Score outputs; subject {table.subject_id[i]!r} "
                f"has {table.kind_at(i).value!r}"
            )
        raise ValueError(f"subject {table.subject_id[i]!r} has no reference truth")
    return table.score, table.truth == 1


def _calibration_dict(scores, outcomes, view, mode: CalibrationMode, n_bins: int) -> dict:
    block = _block(fit_recalibration(scores, outcomes, mode=mode, n_bins=n_bins, view=view))
    block["mode"] = block.pop("constrained")
    return block


def _run_riskscore(table: StudyTable, params: dict, level: float, method: CIMethod) -> Outcome:
    scores, outcomes = _score_outcome_arrays(table)
    mode = CalibrationMode.INTERCEPT_ONLY if params["calibration"] == "large" else CalibrationMode.INTERCEPT_AND_SLOPE
    n_bins = params["bins"]
    block: dict[str, Any] = {
        "n": len(scores),
        "prevalence": int(np.count_nonzero(outcomes)) / len(outcomes),
    }
    view = sort_scores(scores, outcomes)
    block["calibration"] = _calibration_dict(scores, outcomes, view, mode, n_bins)

    roc = roc_curve(scores, outcomes, view=view)
    auc_block = _block(roc, "auc", "auc_se", "n_pos", "n_neg")
    if roc.n_pos >= 2 and roc.n_neg >= 2:
        lo, hi = auc_ci(roc, level=level)
        auc_block["lower"], auc_block["upper"] = lo, hi
    block["discrimination"] = auc_block

    thresholds = params.get("thresholds", [round(0.1 * k, 1) for k in range(1, 10)])
    block["threshold_grid"] = _block(
        threshold_grid(scores, outcomes, thresholds, level=level, method=method, view=view)
    )

    dca = decision_curve(scores, outcomes, params.get("dca_grid") or DEFAULT_DCA_GRID, view=view)
    block["decision_curve"] = {"n_thresholds": len(dca.thresholds), "prevalence": dca.prevalence}

    if "cutoffs" in params:
        strata = risk_strata_analysis(scores, outcomes, params["cutoffs"], level=level, method=method, view=view)
        block["risk_strata"] = [
            _block(st, "lower", "upper", "n", "n_diseased", "posttest_risk", "dlr")
            for st in strata.strata
        ]

    if "train_prev" in params:
        train, target = params["train_prev"], params["target_prev"]
        # A score of exactly 0 or 1 is certain at any prevalence: p' = p there.
        inside = (scores > 0.0) & (scores < 1.0)
        scaled = scores.copy()
        scaled[inside] = prevalence_scale(scores[inside], train, target)
        scaled_view = sort_scores(scaled, outcomes)
        # The cited methodology leaves the order of recalibration and scaling
        # open, so both orders are reported side by side.
        block["prevalence_scaling"] = {
            "train_prev": train,
            "target_prev": target,
            "calibration_before_scaling": block["calibration"],
            "calibration_after_scaling": _calibration_dict(scaled, outcomes, scaled_view, mode, n_bins),
            "auc_after_scaling": roc_curve(scaled, outcomes, view=scaled_view).auc,
        }

    bins = block["calibration"]["bins"]
    plots = {
        "roc.csv": (("threshold", "fpr", "tpr"), [roc.thresholds, roc.fpr, roc.tpr]),
        "calibration.csv": (
            ("mean_pred", "obs_rate", "n"),
            [
                np.array([b["mean_predicted"] for b in bins], dtype=float),
                np.array([b["observed_rate"] for b in bins], dtype=float),
                np.array([b["n"] for b in bins], dtype=np.int64),
            ],
        ),
        "dca.csv": (
            ("t", "nb_model", "nb_all", "nb_none", "snb"),
            [dca.thresholds, dca.nb_model, dca.nb_all, dca.nb_none, dca.snb_model],
        ),
    }
    return block, plots, []


def _run_agreement(table: StudyTable, params: dict, level: float, method: CIMethod) -> Outcome:
    x_col, y_col = params["x_col"], params["y_col"]
    x, y = table.covariate(x_col), table.covariate(y_col)
    i = first_row(np.isnan(x) | np.isnan(y))
    if i >= 0:
        raise ValueError(
            f"subject {table.subject_id[i]!r} lacks a value for {x_col!r}/{y_col!r}"
        )
    ba = bland_altman(x, y, level=level)
    lam = params.get("lambda")
    fit = deming(x, y, lam=1.0 if lam is None else lam)
    block = {
        "x_col": x_col,
        "y_col": y_col,
        "bland_altman": _block(ba),
        "deming": {**_block(fit, "slope", "intercept", "n"), "lambda": fit.lam, "lambda_defaulted": lam is None},
    }
    plots = {"bland_altman.csv": (("mean", "difference"), [(x + y) / 2.0, x - y])}
    return block, plots, []


def _run_precision(table: StudyTable, params: dict, level: float, method: CIMethod) -> Outcome:
    fields = tuple(params["condition_fields"])
    comp = variance_components(table, condition_fields=fields)
    return {"condition_fields": list(fields), **_block(comp)}, {}, []


def _groups(table: StudyTable, groups_by: str) -> dict[str, np.ndarray]:
    """Row indices of each group, keyed by the group's name."""
    if groups_by in _RECORD_GROUP_FIELDS:
        names = ["?" if v is None else str(v) for v in getattr(table, groups_by)]
    else:
        values = table.covariate(groups_by)
        i = first_row(np.isnan(values))
        if i >= 0:
            raise ValueError(f"subject {table.subject_id[i]!r} has no {groups_by!r} value")
        names = list(map(repr, values.tolist()))
    codes: dict[str, int] = {}
    row_codes = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=np.intp)
    return {name: np.flatnonzero(row_codes == code) for name, code in codes.items()}


def _km_columns(named_curves: list[tuple[str, KMCurve]]) -> list[PlotColumn]:
    """The km.csv columns: each curve's rows in turn, led by its group name."""
    groups: list[str] = []
    for name, curve in named_curves:
        groups += [name] * len(curve.times)
    columns: list[PlotColumn] = [groups]
    for field in ("times", "survival", "lower", "upper", "at_risk"):
        columns.append(np.concatenate([getattr(curve, field) for _, curve in named_curves]))
    return columns


_COX_FIELDS = ("coefficients", "log_partial_likelihood", "converged", "iterations", "ties_method")


def _run_survival(table: StudyTable, params: dict, level: float, method: CIMethod) -> Outcome:
    times, events = survival_arrays(table)
    # One sort of the times for every curve, the log-rank test and both fits.
    view = sort_scores(times, events)
    curve = km_estimate(times, events, level=level, view=view)
    block: dict[str, Any] = {
        "n": int(curve.n),
        "n_events": int(curve.events.sum()),
        "max_followup": curve.max_followup,
    }
    warnings: list[str] = []
    curves = [("all", curve)]

    horizon = params.get("horizon")
    if horizon is not None:
        block["risk_at_horizon"] = _block(km_risk_at(curve, horizon))

    groups_by = params.get("groups_by")
    if groups_by is not None:
        groups = _groups(table, groups_by)
        group_blocks = {}
        label = np.empty(len(times), dtype=np.intp)
        for i, name in enumerate(sorted(groups)):
            rows = groups[name]
            label[rows] = i
            g_curve = km_estimate(times[rows], events[rows], level=level, view=view.subset(rows))
            curves.append((name, g_curve))
            entry: dict[str, Any] = {
                "n": int(g_curve.n),
                "n_events": int(g_curve.events.sum()),
            }
            if horizon is not None:
                g_at = km_risk_at(g_curve, horizon)
                entry["risk_at_horizon"] = _block(g_at, "risk", "lower", "upper", "extrapolated")
            group_blocks[name] = entry
        block["groups_by"] = groups_by
        block["groups"] = group_blocks
        if len(groups) >= 2:
            block["logrank"] = _block(logrank(times, events, label, view=view))

    baseline_names = params.get("baseline_covariates", [])
    added_names = params.get("added_covariates", [])
    if baseline_names or added_names:
        base_x = covariate_matrix(table, baseline_names)
        base_fit = cox_fit(base_x, times, events, names=baseline_names, view=view)
        cox_block: dict[str, Any] = {"baseline": _block(base_fit, *_COX_FIELDS)}
        if base_fit.tie_fraction > 0.10:
            warnings.append(
                f"survival: {base_fit.tie_fraction:.0%} of events are tied; the Breslow "
                "approximation degrades with heavy ties"
            )
        if added_names:
            full_names = list(baseline_names) + list(added_names)
            full_x = covariate_matrix(table, full_names)
            full_fit = cox_fit(full_x, times, events, names=full_names, view=view)
            cox_block["full"] = _block(full_fit, *_COX_FIELDS)
            cox_block["lrt"] = _block(added_value_lrt(base_fit, full_fit, added_df=len(added_names)))
        block["cox"] = cox_block

    plots = {
        "km.csv": (("group", "time", "survival", "lower", "upper", "at_risk"), _km_columns(curves))
    }
    return block, plots, warnings


def run_plan(plan: AnalysisPlan) -> ValidationReport:
    """Execute the enabled analyses in fixed order against the plan's dataset.

    Per-analysis failures are recorded in their result block and do not stop
    the other analyses; plan or ingestion problems raise instead, before any
    analysis runs.
    """
    # One read: the fingerprint, the header check and the parse all see the
    # same bytes.
    try:
        data_bytes = Path(plan.dataset).read_bytes()
    except FileNotFoundError:
        raise IngestError(f"dataset not found: {plan.dataset}") from None
    except OSError as exc:
        raise IngestError(f"cannot read dataset {plan.dataset}: {exc.strerror}") from None
    sha256 = hashlib.sha256(data_bytes).hexdigest()
    if not data_bytes.isascii():
        try:
            data_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(
                f"{plan.dataset} is not UTF-8 text: byte {exc.start} is 0x{data_bytes[exc.start]:02x}"
            ) from None
    try:  # the column names as ingest reads them, from the header alone
        header = next(_read_rows(data_bytes, plan.dataset))
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    for canonical, actual in plan.mapping.items():
        if actual not in header:
            raise PlanError(f"mapped column {actual!r} (for {canonical}) not in dataset")
    source = SimpleNamespace(read=[data_bytes].pop)  # read() hands the bytes over for ingest to free
    del data_bytes
    try:
        result = ingest_csv(source, mapping=plan.mapping or None)
    except ValueError as exc:
        raise IngestError(f"{plan.dataset}: {exc}") from None
    _check_columns(plan, header, result)
    if result.errors:
        first = "; ".join(f"row {e.row}: {e.message}" for e in result.errors[:5])
        raise IngestError(f"{len(result.errors)} bad rows in {plan.dataset} ({first})")
    table = result.table
    if not len(table):
        raise IngestError(f"no data rows in {plan.dataset}")

    fingerprint = {
        "rows": len(table),
        "sha256": sha256,
    }
    warnings: list[str] = []
    for col in result.excluded_columns:
        warnings.append(f"ingest: column {col!r} excluded (non-numeric values)")
    integrity = validate_records(table)
    warnings.extend(f"data: {w}" for w in integrity.warnings)

    results: dict[str, dict] = {}
    plots: dict[str, tuple[tuple[str, ...], list[PlotColumn]]] = {}
    for name, analysis in ANALYSES.items():
        if name not in plan.analyses:
            continue
        try:
            block, p, extra = analysis.run(table, plan.params[name], plan.level, plan.ci_method)
            warnings.extend(extra)
        except Exception as exc:
            block, p = {"error": f"{type(exc).__name__}: {exc}"}, {}
        results[name] = block
        plots.update(p)

    return ValidationReport(
        plan_hash=plan.plan_hash,
        dataset_fingerprint=fingerprint,
        tool_version=__version__,
        level=plan.level,
        ci_method=plan.ci_method.value,
        seed=plan.seed,
        results=results,
        warnings=warnings,
        plots=plots,
    )


def _sanitize(obj: Any) -> Any:
    """Make a structure JSON-safe: non-finite floats become strings."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def report_to_dict(report: ValidationReport) -> dict[str, Any]:
    return _sanitize(
        {
            "tool_version": report.tool_version,
            "plan_hash": report.plan_hash,
            "dataset": report.dataset_fingerprint,
            "level": report.level,
            "ci_method": report.ci_method,
            "seed": report.seed,
            "results": report.results,
            "warnings": report.warnings,
        }
    )


def _fmt(x: Any) -> str:
    if x is None:
        return "-"
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)


def _fmt_ci(ci: dict | None, estimate: str = "estimate") -> str:
    if ci is None:
        return "-"
    return f"{_fmt(ci[estimate])} ({_fmt(ci['lower'])}, {_fmt(ci['upper'])})"


def _cell(value: Any) -> str:
    text = re.sub(r"\r\n|\r|\n", "<br>", str(value).replace("|", "\\|"))
    return f" {text} |" if text else " |"


def _table(head: tuple[str, ...], rows: list[tuple]) -> str:
    """A GFM table: the header row, its rule and one line per row of cells.

    A cell sits between single spaces (an empty one is one space); a `|` in it
    is `\\|` and a line break `<br>`, so lines keep the header's column count.
    """
    lines = ["|" + "".join(map(_cell, head)), "|" + "---|" * len(head)]
    return "\n".join(lines + ["|" + "".join(map(_cell, row)) for row in rows])


def _md_accuracy(block: dict) -> list[str]:
    c = block["counts"]
    metrics = ("sensitivity", "specificity", "ppv", "npv", "lr_pos", "lr_neg")
    parts = [
        _table(("", "Reference +", "Reference -"),
               [("Device +", c["tp"], c["fp"]), ("Device -", c["fn"], c["tn"])]),
        _table(("Metric", "Estimate (CI)"), [(key, _fmt_ci(block[key])) for key in metrics]),
    ]
    if "posttest" in block:
        p = block["posttest"]
        parts.append(
            f"Post-test risk at pre-test {_fmt(p['pretest'])}: "
            f"{_fmt(p['after_positive'])} after a positive, "
            f"{_fmt(p['after_negative'])} after a negative."
        )
    if "goal_tests" in block:
        parts.append(_table(
            ("Goal test", "x/n", "goal", "p-value", "reject"),
            [(name, f"{gt['x']}/{gt['n']}", _fmt(gt["goal"]), _fmt(gt["p_value"]), _fmt(gt["reject"]))
             for name, gt in block["goal_tests"].items()],
        ))
    return parts


def _md_qc(block: dict) -> list[str]:
    w, g = block["worst_case"], block["gradable_only"]
    return [
        _table(
            ("Output", "Diseased", "Healthy", "Post-test risk (CI)", "Likelihood ratio (CI)"),
            [(row["name"].capitalize(), row["diseased"], row["healthy"],
              _fmt_ci(row["posttest_risk"]), _fmt_ci(row["likelihood_ratio"])) for row in block["rows"]],
        ),
        "Worst-case (ungradable counted as wrong):",
        _table(("Quantity", "Estimate (CI)"), [
            ("sensitivity", _fmt_ci(w["sensitivity"])),
            ("specificity", _fmt_ci(w["specificity"])),
            ("pre-test risk", _fmt_ci(w["pretest_risk"])),
            ("gradable-only sensitivity", _fmt_ci(g["sensitivity"])),
            ("gradable-only specificity", _fmt_ci(g["specificity"])),
            ("ungradable proportion", _fmt_ci(block["ungradable_proportion"])),
        ]),
    ]


def _md_riskscore(block: dict) -> list[str]:
    cal, d = block["calibration"], block["discrimination"]
    auc = f"AUC {_fmt(d['auc'])} (se {_fmt(d['auc_se'])})"
    if "lower" in d:
        auc += f", CI ({_fmt(d['lower'])}, {_fmt(d['upper'])})"
    parts = [
        f"Calibration ({cal['mode']}): intercept {_fmt(cal['intercept'])}, "
        f"slope {_fmt(cal['slope'])}, converged {_fmt(cal['converged'])} "
        f"in {cal['iterations']} iterations, {cal['n_clipped']} scores clipped.",
        auc + ".",
        _table(("Threshold", "Sensitivity (CI)", "Specificity (CI)"),
               [(_fmt(tm["threshold"]), _fmt_ci(tm["sensitivity"]), _fmt_ci(tm["specificity"]))
                for tm in block["threshold_grid"]]),
    ]
    if "risk_strata" in block:
        parts.append(_table(
            ("Stratum", "n", "Diseased", "Post-test risk (CI)", "DLR (CI)"),
            [(f"[{_fmt(st['lower'])}, {_fmt(st['upper'])}{']' if st['upper'] == 1 else ')'}",
              st["n"], st["n_diseased"], _fmt_ci(st["posttest_risk"]), _fmt_ci(st["dlr"]))
             for st in block["risk_strata"]],
        ))
    if "prevalence_scaling" in block:
        ps = block["prevalence_scaling"]
        after = ps["calibration_after_scaling"]
        parts.append(
            f"Prevalence scaling {_fmt(ps['train_prev'])} -> {_fmt(ps['target_prev'])}: "
            f"recalibration after scaling gives intercept {_fmt(after['intercept'])}, "
            f"slope {_fmt(after['slope'])}; AUC unchanged at {_fmt(ps['auc_after_scaling'])}."
        )
    return parts


def _md_agreement(block: dict) -> list[str]:
    ba, dm = block["bland_altman"], block["deming"]
    note = " (defaulted)" if dm["lambda_defaulted"] else ""
    return [
        f"Bland-Altman ({block['x_col']} vs {block['y_col']}, n={ba['n']}): "
        f"mean difference {_fmt(ba['mean_difference'])}, sd {_fmt(ba['sd_difference'])}, "
        f"limits of agreement ({_fmt(ba['loa_lower'])}, {_fmt(ba['loa_upper'])}) "
        f"with CI halfwidth {_fmt(ba['loa_ci_halfwidth'])}.",
        f"Deming fit: slope {_fmt(dm['slope'])}, intercept {_fmt(dm['intercept'])}, "
        f"lambda {_fmt(dm['lambda'])}{note}.",
    ]


def _md_precision(block: dict) -> list[str]:
    clipped = " Negative component clipped to zero." if block["negative_component_clipped"] else ""
    return [
        _table(("Component", "SD", "%CV"), [
            ("repeatability", _fmt(block["repeatability_sd"]), _fmt(block["cv_repeatability"])),
            ("between-condition", _fmt(block["between_condition_sd"]), "-"),
            ("reproducibility", _fmt(block["reproducibility_sd"]), _fmt(block["cv_reproducibility"])),
        ]),
        f"Grand mean {_fmt(block['grand_mean'])}, {block['n_subjects']} subjects, "
        f"conditions {', '.join(block['condition_fields'])}.{clipped}",
    ]


def _md_survival(block: dict) -> list[str]:
    parts = [
        f"{block['n']} subjects, {block['n_events']} events, "
        f"max follow-up {_fmt(block['max_followup'])}."
    ]
    if "risk_at_horizon" in block:
        r = block["risk_at_horizon"]
        extra = " (extrapolated)" if r["extrapolated"] else ""
        parts.append(f"Risk at t={_fmt(r['time'])}: {_fmt_ci(r, 'risk')}{extra}.")
    if "groups" in block:
        parts.append(f"Groups by {block['groups_by']}:")
        parts.append(_table(
            ("Group", "n", "Events", "Risk at horizon (CI)"),
            [(name, g["n"], g["n_events"], _fmt_ci(g.get("risk_at_horizon"), "risk"))
             for name, g in block["groups"].items()],
        ))
        if "logrank" in block:
            lr = block["logrank"]
            parts.append(
                f"Log-rank: statistic {_fmt(lr['statistic'])}, df {lr['df']}, p {_fmt(lr['p_value'])}."
            )
    if "cox" in block:
        cox = block["cox"]
        parts.append(_table(("Model", "Coefficients", "log-PL"), [
            (model, ", ".join(f"{k}={_fmt(v)}" for k, v in cox[model]["coefficients"].items()) or "(none)",
             _fmt(cox[model]["log_partial_likelihood"]))
            for model in ("baseline", "full") if model in cox
        ]))
        if "lrt" in cox:
            lrt = cox["lrt"]
            parts.append(
                f"Added-value LRT: statistic {_fmt(lrt['statistic'])}, df {lrt['df']}, p {_fmt(lrt['p_value'])}."
            )
    return parts


def _check_riskscore(params: dict) -> None:
    if ("train_prev" in params) != ("target_prev" in params):
        raise PlanError("riskscore.train_prev and riskscore.target_prev must be given together "
                        "(--train-prev, --target-prev)")
    if "cutoffs" in params and sorted(params["cutoffs"]) != params["cutoffs"]:
        raise PlanError("riskscore.cutoffs must be ascending")


def _check_survival(params: dict) -> None:
    names = params.get("baseline_covariates", []) + params.get("added_covariates", [])
    for i, name in enumerate(names):
        if name in names[:i]:
            # A repeated column makes the Cox information matrix singular.
            raise PlanError(
                f"survival covariate {name!r} is named more than once across baseline_covariates "
                "and added_covariates (--baseline-covariates, --added-covariates)"
            )


# Every analysis in report order. Each is described here once: the plan
# validator, the column checks, the CLI subcommands, `run_plan` and
# `render_markdown` all read this registry.
ANALYSES: dict[str, Analysis] = {
    "accuracy": Analysis(
        "Binary accuracy",
        (
            Param("goal", _UNIT, "performance goal tested one-sided for sensitivity and specificity"),
            Param("alpha", _UNIT, "goal-test significance level", default=0.05),
            Param("pretest", _UNIT, "pre-test risk for post-test risk read-off"),
        ),
        _run_accuracy,
        _md_accuracy,
    ),
    "qc": Analysis(
        "QC-failure triage",
        (),
        _run_qc,
        _md_qc,
    ),
    "riskscore": Analysis(
        "Risk-score validation",
        (
            Param("calibration", _CALIBRATION, "recalibrate the intercept ('large') or also the slope",
                  default="slope"),
            Param("bins", _BINS, "calibration bins", default=10),
            Param("train_prev", _UNIT, "development prevalence for scaling"),
            Param("target_prev", _UNIT, "deployment prevalence for scaling"),
            Param("cutoffs", _UNITS, "ascending risk-strata cutoffs, e.g. 0.2,0.5"),
            Param("thresholds", _UNITS, "threshold-grid thresholds (default 0.1,0.2,...,0.9)"),
            Param("dca_grid", _UNITS, "decision-curve thresholds"),
        ),
        _run_riskscore,
        _md_riskscore,
        _check_riskscore,
    ),
    "agreement": Analysis(
        "Method agreement",
        (
            Param("x_col", _COLUMN, "column with the first method's values", required=True, column=_NUMERIC),
            Param("y_col", _COLUMN, "column with the second method's values", required=True, column=_NUMERIC),
            Param("lambda", _POSITIVE, "error-variance ratio (default 1)"),
        ),
        _run_agreement,
        _md_agreement,
    ),
    "precision": Analysis(
        "Precision components",
        (
            Param("condition_fields", _FIELDS, "record fields whose combinations define a condition",
                  default=["operator_id", "device_unit_id"], column=_FIELD),
        ),
        _run_precision,
        _md_precision,
    ),
    "survival": Analysis(
        "Time-to-event validation",
        (
            Param("groups_by", _GROUP, "record field or covariate defining risk groups", column=_EITHER),
            Param("horizon", _NONNEGATIVE, "time for risk read-off"),
            Param("baseline_covariates", _COVARIATES, "baseline model columns", column=_NUMERIC),
            Param("added_covariates", _COVARIATES, "columns added on top of baseline", column=_NUMERIC),
        ),
        _run_survival,
        _md_survival,
        _check_survival,
    ),
}


def render_markdown(report: ValidationReport) -> str:
    """report.md: the title, the front matter, the warnings, then each
    analysis's heading and parts, every part separated from the next by one
    blank line."""
    fp = report.dataset_fingerprint
    parts = [
        "# Validation report",
        f"- tool version: {report.tool_version}\n"
        f"- plan hash: `{report.plan_hash}`\n"
        f"- dataset: {fp['rows']} rows, sha256 `{fp['sha256']}`\n"
        f"- confidence level: {_fmt(report.level)} ({report.ci_method})\n"
        f"- seed: {_fmt(report.seed)}",
    ]
    if report.warnings:
        parts += ["## Warnings", "\n".join(f"- {w}" for w in report.warnings)]
    for name, analysis in ANALYSES.items():
        if name in report.results:
            block = report.results[name]
            parts.append(f"## {analysis.title}")
            parts += [f"Analysis failed: {block['error']}"] if "error" in block else analysis.render(block)
    return "\n\n".join(parts) + "\n"


def emit_report(
    report: ValidationReport, out_dir: str | Path, format: str = "json"
) -> list[Path]:
    """Write report.json (always), report.md when asked, and plot CSVs.

    Returns the written paths. Every file is reproduced byte-identically by a
    rerun of the same plan on the same data with the same tool version.
    """
    if format not in ("json", "md"):
        raise ValueError("format must be 'json' or 'md'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    json_path = out / "report.json"
    payload = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    json_path.write_text(payload, encoding="utf-8", newline="\n")
    written.append(json_path)
    if format == "md":
        md_path = out / "report.md"
        md_path.write_text(render_markdown(report), encoding="utf-8", newline="\n")
        written.append(md_path)
    for filename, (header, columns) in sorted(report.plots.items()):
        plot_path = out / filename
        plot_path.write_text(_csv_text(header, columns, "\n"), encoding="utf-8", newline="")
        written.append(plot_path)
    return written
