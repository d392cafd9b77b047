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

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from ._version import __version__
from .accuracy import (
    CIMethod,
    ProportionCI,
    RatioCI,
    accuracy_metrics,
    confusion_from_records,
    likelihood_ratios,
    posttest_risk,
    test_vs_goal,
)
from .agreement import bland_altman, deming, variance_components
from .dataset import (
    CANONICAL_COLUMNS,
    OutputKind,
    StudyTable,
    first_row,
    ingest_csv,
    validate_records,
)
from .qc import triage_report, triage_table
from .riskscore import (
    CalibrationMode,
    auc_ci,
    decision_curve,
    fit_recalibration,
    prevalence_scale,
    risk_strata_analysis,
    roc_curve,
    threshold_grid,
)
from .survival import (
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

ANALYSES = ("accuracy", "qc", "riskscore", "agreement", "precision", "survival")

_PLAN_KEYS = {"dataset", "analyses", "mapping", "level", "ci_method", "seed", "params"}
_PARAM_KEYS = {
    "accuracy": {"goal", "alpha", "pretest"},
    "qc": set(),
    "riskscore": {
        "calibration",
        "bins",
        "train_prev",
        "target_prev",
        "cutoffs",
        "thresholds",
        "dca_grid",
    },
    "agreement": {"x_col", "y_col", "lambda"},
    "precision": {"condition_fields"},
    "survival": {"groups_by", "horizon", "baseline_covariates", "added_covariates"},
}
_RECORD_GROUP_FIELDS = ("site_id", "operator_id", "device_unit_id")


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


def _require_unit(value: Any, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise PlanError(f"{name} must be a number, got {value!r}")
    if not 0.0 < float(value) < 1.0:
        raise PlanError(f"{name} must lie in (0, 1), got {value}")
    return float(value)


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
    for name, p in params.items():
        if name not in analyses:
            raise PlanError(f"params given for analysis {name!r} that is not enabled")
        if not isinstance(p, dict):
            raise PlanError(f"params for {name!r} must be an object")
        unknown = set(p) - _PARAM_KEYS[name]
        if unknown:
            raise PlanError(f"unknown {name} parameters: {sorted(unknown)}")
    _validate_params(params)
    if "agreement" in analyses:
        ap = params.get("agreement", {})
        if "x_col" not in ap or "y_col" not in ap:
            raise PlanError("agreement analysis needs 'x_col' and 'y_col' parameters")
    return AnalysisPlan(
        dataset=path,
        analyses=tuple(analyses),
        mapping=dict(mapping),
        level=level,
        ci_method=ci_method,
        seed=seed,
        params={k: dict(v) for k, v in params.items()},
        plan_hash=plan_hash,
    )


def _validate_params(params: dict[str, dict[str, Any]]) -> None:
    acc = params.get("accuracy", {})
    for key in ("goal", "alpha", "pretest"):
        if key in acc:
            _require_unit(acc[key], f"accuracy.{key}")
    rs = params.get("riskscore", {})
    if "calibration" in rs and rs["calibration"] not in ("large", "slope"):
        raise PlanError("riskscore.calibration must be 'large' or 'slope'")
    if "bins" in rs and (isinstance(rs["bins"], bool) or not isinstance(rs["bins"], int) or rs["bins"] < 2):
        raise PlanError("riskscore.bins must be an integer >= 2")
    if ("train_prev" in rs) != ("target_prev" in rs):
        raise PlanError("riskscore scaling needs both train_prev and target_prev")
    for key in ("train_prev", "target_prev"):
        if key in rs:
            _require_unit(rs[key], f"riskscore.{key}")
    for key in ("cutoffs", "thresholds", "dca_grid"):
        if key in rs:
            vals = rs[key]
            if not isinstance(vals, list) or not vals:
                raise PlanError(f"riskscore.{key} must be a nonempty list")
            for v in vals:
                _require_unit(v, f"riskscore.{key} entry")
            if key == "cutoffs" and sorted(vals) != vals:
                raise PlanError("riskscore.cutoffs must be ascending")
    ag = params.get("agreement", {})
    for key in ("x_col", "y_col"):
        if key in ag and (not isinstance(ag[key], str) or not ag[key]):
            raise PlanError(f"agreement.{key} must be a column name")
    if "lambda" in ag:
        lam = ag["lambda"]
        if not isinstance(lam, (int, float)) or isinstance(lam, bool) or lam <= 0:
            raise PlanError("agreement.lambda must be a positive number")
    pr = params.get("precision", {})
    if "condition_fields" in pr:
        cf = pr["condition_fields"]
        if not isinstance(cf, list) or not all(isinstance(c, str) for c in cf) or not cf:
            raise PlanError("precision.condition_fields must be a list of field names")
    sv = params.get("survival", {})
    if "groups_by" in sv and (not isinstance(sv["groups_by"], str) or not sv["groups_by"]):
        raise PlanError("survival.groups_by must be a field or covariate name")
    if "horizon" in sv:
        h = sv["horizon"]
        if not isinstance(h, (int, float)) or isinstance(h, bool) or h < 0:
            raise PlanError("survival.horizon must be a nonnegative number")
    for key in ("baseline_covariates", "added_covariates"):
        if key in sv:
            names = sv[key]
            if not isinstance(names, list) or not all(isinstance(c, str) and c for c in names):
                raise PlanError(f"survival.{key} must be a list of covariate names")


def load_plan(path: str | Path) -> AnalysisPlan:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PlanError(f"plan file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan file is not valid JSON: {exc}") from None
    return plan_from_dict(raw, base_dir=p.parent)


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
    plots: dict[str, tuple[tuple[str, ...], list[tuple]]]

    @property
    def has_failures(self) -> bool:
        return any("error" in block for block in self.results.values())


def _header_columns(text: str, path: Path) -> list[str]:
    """The dataset's column names, stripped as ingest strips them."""
    header = next(csv.reader(io.StringIO(text, newline="")), None)
    if header is None:
        raise IngestError(f"{path} is empty")
    return [name.strip() for name in header]


def _check_referenced_columns(plan: AnalysisPlan, header: list[str]) -> None:
    present = set(header)
    for canonical, actual in plan.mapping.items():
        if actual not in present:
            raise PlanError(f"mapped column {actual!r} (for {canonical}) not in dataset")
    ag = plan.params.get("agreement", {})
    for key in ("x_col", "y_col"):
        col = ag.get(key)
        if col is not None and col not in present:
            raise PlanError(f"agreement.{key} column {col!r} not in dataset")
    sv = plan.params.get("survival", {})
    for key in ("baseline_covariates", "added_covariates"):
        for col in sv.get(key, []):
            if col not in present:
                raise PlanError(f"survival covariate column {col!r} not in dataset")
    groups_by = sv.get("groups_by")
    if groups_by is not None and groups_by not in _RECORD_GROUP_FIELDS and groups_by not in present:
        raise PlanError(f"survival.groups_by {groups_by!r} is neither a record field nor a column")
    pr = plan.params.get("precision", {})
    for f in pr.get("condition_fields", []):
        if f not in _RECORD_GROUP_FIELDS and f != "replicate_index":
            raise PlanError(f"precision condition field {f!r} is not a record field")


def _ci_dict(ci: ProportionCI | None) -> dict[str, Any] | None:
    if ci is None:
        return None
    return {
        "estimate": ci.estimate,
        "lower": ci.lower,
        "upper": ci.upper,
        "level": ci.level,
        "method": ci.method.value,
        "numerator": ci.numerator,
        "denominator": ci.denominator,
    }


def _ratio_dict(rc: RatioCI | None) -> dict[str, Any] | None:
    if rc is None:
        return None
    return {
        "estimate": rc.estimate,
        "lower": rc.lower,
        "upper": rc.upper,
        "level": rc.level,
        "degenerate": rc.degenerate,
    }


def _posttest(pretest: float, lr: float) -> float:
    # An empty fn (or fp) cell gives LR = 0, and with it zero post-test odds;
    # when both of its cells are empty the LR is 0/0 and the risk undefined.
    if math.isnan(lr):
        return math.nan
    return 0.0 if lr == 0 else posttest_risk(pretest, lr)


def _run_accuracy(
    table: StudyTable, params: dict, level: float, method: CIMethod
) -> tuple[dict, dict]:
    conf = confusion_from_records(table)
    metrics = accuracy_metrics(conf, level=level, method=method)
    lrs = likelihood_ratios(conf, level=level)
    block: dict[str, Any] = {
        "counts": {"tp": conf.tp, "fp": conf.fp, "fn": conf.fn, "tn": conf.tn},
        "sensitivity": _ci_dict(metrics.sensitivity),
        "specificity": _ci_dict(metrics.specificity),
        "ppv": _ci_dict(metrics.ppv),
        "npv": _ci_dict(metrics.npv),
        "lr_pos": _ratio_dict(lrs["lr_pos"]),
        "lr_neg": _ratio_dict(lrs["lr_neg"]),
    }
    pretest = params.get("pretest")
    if pretest is not None:
        block["posttest"] = {
            "pretest": pretest,
            "after_positive": _posttest(pretest, lrs["lr_pos"].estimate),
            "after_negative": _posttest(pretest, lrs["lr_neg"].estimate),
        }
    goal = params.get("goal")
    if goal is not None:
        alpha = params.get("alpha", 0.05)
        goal_tests = {}
        for name, x, n in (
            ("sensitivity", conf.tp, conf.n_positive),
            ("specificity", conf.tn, conf.n_negative),
        ):
            gt = test_vs_goal(x, n, goal, alpha=alpha)
            goal_tests[name] = {
                "x": gt.x,
                "n": gt.n,
                "goal": gt.goal,
                "alpha": gt.alpha,
                "p_value": gt.p_value,
                "reject": gt.reject,
                "critical_count": gt.critical_count,
            }
        block["goal_tests"] = goal_tests
    return block, {}


def _run_qc(
    table: StudyTable, params: dict, level: float, method: CIMethod
) -> tuple[dict, dict]:
    tri = triage_table(table)
    rep = triage_report(tri, level=level, method=method)
    rows = []
    for row in rep.rows:
        rows.append(
            {
                "name": row.name,
                "diseased": row.diseased,
                "healthy": row.healthy,
                "posttest_risk": _ci_dict(row.posttest_risk),
                "likelihood_ratio": _ratio_dict(row.likelihood_ratio),
            }
        )
    block = {
        "table": {
            "a": tri.a,
            "b": tri.b,
            "c": tri.c,
            "d": tri.d,
            "e": tri.e,
            "f": tri.f,
            "total": tri.total,
        },
        "rows": rows,
        "worst_case": {
            "sensitivity": _ci_dict(rep.worst.sensitivity),
            "specificity": _ci_dict(rep.worst.specificity),
            "pretest_risk": _ci_dict(rep.worst.pretest_risk),
        },
        "gradable_only": {
            "sensitivity": _ci_dict(rep.gradable_sensitivity),
            "specificity": _ci_dict(rep.gradable_specificity),
        },
        "ungradable_proportion": _ci_dict(rep.ungradable),
    }
    return block, {}


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
    if not len(table):
        raise ValueError("no records")
    return table.score, table.truth == 1


def _calibration_dict(scores, outcomes, mode: CalibrationMode, n_bins: int) -> dict:
    fit = fit_recalibration(scores, outcomes, mode=mode, n_bins=n_bins)
    return {
        "mode": fit.constrained.value,
        "intercept": fit.intercept,
        "slope": fit.slope,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "log_likelihood": fit.log_likelihood,
        "n_clipped": fit.n_clipped,
        "bins": [
            {"mean_predicted": b.mean_predicted, "observed_rate": b.observed_rate, "n": b.n}
            for b in fit.bins
        ],
    }


def _run_riskscore(
    table: StudyTable, params: dict, level: float, method: CIMethod
) -> tuple[dict, dict]:
    scores, outcomes = _score_outcome_arrays(table)
    mode = CalibrationMode.INTERCEPT_ONLY if params.get("calibration") == "large" else CalibrationMode.INTERCEPT_AND_SLOPE
    n_bins = params.get("bins", 10)
    block: dict[str, Any] = {
        "n": len(scores),
        "prevalence": int(np.count_nonzero(outcomes)) / len(outcomes),
    }
    block["calibration"] = _calibration_dict(scores, outcomes, mode, n_bins)

    roc = roc_curve(scores, outcomes)
    auc_block: dict[str, Any] = {
        "auc": roc.auc,
        "auc_se": roc.auc_se,
        "n_pos": roc.n_pos,
        "n_neg": roc.n_neg,
    }
    if roc.n_pos >= 2 and roc.n_neg >= 2:
        lo, hi = auc_ci(roc, level=level)
        auc_block["lower"], auc_block["upper"] = lo, hi
    block["discrimination"] = auc_block

    thresholds = params.get("thresholds", [round(0.1 * k, 1) for k in range(1, 10)])
    block["threshold_grid"] = [
        {
            "threshold": tm.threshold,
            "sensitivity": _ci_dict(tm.sensitivity),
            "specificity": _ci_dict(tm.specificity),
        }
        for tm in threshold_grid(scores, outcomes, thresholds, level=level, method=method)
    ]

    dca_grid = params.get("dca_grid")
    dca = decision_curve(scores, outcomes, dca_grid) if dca_grid else decision_curve(scores, outcomes)
    block["decision_curve"] = {"n_thresholds": len(dca.thresholds), "prevalence": dca.prevalence}

    if "cutoffs" in params:
        strata = risk_strata_analysis(scores, outcomes, params["cutoffs"], level=level, method=method)
        block["risk_strata"] = [
            {
                "lower": st.lower,
                "upper": st.upper,
                "n": st.n,
                "n_diseased": st.n_diseased,
                "posttest_risk": _ci_dict(st.posttest_risk),
                "dlr": _ratio_dict(st.dlr),
            }
            for st in strata.strata
        ]

    if "train_prev" in params:
        train, target = params["train_prev"], params["target_prev"]
        scaled = prevalence_scale(scores, train, target)
        # The cited methodology leaves the order of recalibration and scaling
        # open, so both orders are reported side by side.
        block["prevalence_scaling"] = {
            "train_prev": train,
            "target_prev": target,
            "calibration_before_scaling": block["calibration"],
            "calibration_after_scaling": _calibration_dict(scaled, outcomes, mode, n_bins),
            "auc_after_scaling": roc_curve(scaled, outcomes).auc,
        }

    plots = {
        "roc.csv": (
            ("threshold", "fpr", "tpr"),
            [(t, f, r) for t, r, f in zip(roc.thresholds.tolist(), roc.tpr.tolist(), roc.fpr.tolist())],
        ),
        "calibration.csv": (
            ("mean_pred", "obs_rate", "n"),
            [
                (b["mean_predicted"], b["observed_rate"], b["n"])
                for b in block["calibration"]["bins"]
            ],
        ),
        "dca.csv": (
            ("t", "nb_model", "nb_all", "nb_none", "snb"),
            list(
                zip(
                    dca.thresholds.tolist(),
                    dca.nb_model.tolist(),
                    dca.nb_all.tolist(),
                    dca.nb_none.tolist(),
                    dca.snb_model.tolist(),
                )
            ),
        ),
    }
    return block, plots


def _run_agreement(
    table: StudyTable, params: dict, level: float, method: CIMethod
) -> tuple[dict, dict]:
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
        "bland_altman": {
            "mean_difference": ba.mean_difference,
            "sd_difference": ba.sd_difference,
            "loa_lower": ba.loa_lower,
            "loa_upper": ba.loa_upper,
            "loa_ci_halfwidth": ba.loa_ci_halfwidth,
            "n": ba.n,
        },
        "deming": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "lambda": fit.lam,
            "lambda_defaulted": lam is None,
            "n": fit.n,
        },
    }
    pairs = list(zip(((x + y) / 2.0).tolist(), (x - y).tolist()))
    plots = {"bland_altman.csv": (("mean", "difference"), pairs)}
    return block, plots


def _run_precision(
    table: StudyTable, params: dict, level: float, method: CIMethod
) -> tuple[dict, dict]:
    fields = tuple(params.get("condition_fields", ("operator_id", "device_unit_id")))
    comp = variance_components(table, condition_fields=fields)
    block = {
        "condition_fields": list(fields),
        "grand_mean": comp.grand_mean,
        "repeatability_sd": comp.repeatability_sd,
        "between_condition_sd": comp.between_condition_sd,
        "reproducibility_sd": comp.reproducibility_sd,
        "cv_repeatability": comp.cv_repeatability,
        "cv_reproducibility": comp.cv_reproducibility,
        "n_subjects": comp.n_subjects,
        "df_repeatability": comp.df_repeatability,
        "df_condition": comp.df_condition,
        "negative_component_clipped": comp.negative_component_clipped,
    }
    return block, {}


def _groups(table: StudyTable, groups_by: str) -> dict[str, np.ndarray]:
    """Row indices of each group, keyed by the group's name."""
    if groups_by in _RECORD_GROUP_FIELDS:
        names = [str(v) for v in getattr(table, groups_by)]
    else:
        values = table.covariate(groups_by)
        i = first_row(np.isnan(values))
        if i >= 0:
            raise ValueError(f"subject {table.subject_id[i]!r} has no {groups_by!r} value")
        names = list(map(repr, values.tolist()))
    codes: dict[str, int] = {}
    row_codes = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=np.intp)
    return {name: np.flatnonzero(row_codes == code) for name, code in codes.items()}


def _km_rows(group: str, curve) -> list[tuple]:
    return [
        (
            group,
            float(curve.times[i]),
            float(curve.survival[i]),
            float(curve.lower[i]),
            float(curve.upper[i]),
            int(curve.at_risk[i]),
        )
        for i in range(len(curve.times))
    ]


def _run_survival(
    table: StudyTable, params: dict, level: float, method: CIMethod
) -> tuple[dict, dict, list[str]]:
    times, events = survival_arrays(table)
    curve = km_estimate(times, events, level=level)
    block: dict[str, Any] = {
        "n": int(curve.n),
        "n_events": int(curve.events.sum()),
        "max_followup": curve.max_followup,
    }
    warnings: list[str] = []
    rows = _km_rows("all", curve)

    horizon = params.get("horizon")
    if horizon is not None:
        at = km_risk_at(curve, horizon, level=level)
        block["risk_at_horizon"] = {
            "time": at.time,
            "risk": at.risk,
            "lower": at.lower,
            "upper": at.upper,
            "extrapolated": at.extrapolated,
        }

    groups_by = params.get("groups_by")
    if groups_by is not None:
        groups = _groups(table, groups_by)
        group_blocks = {}
        group_arrays = []
        for name in sorted(groups):
            g_times, g_events = times[groups[name]], events[groups[name]]
            g_curve = km_estimate(g_times, g_events, level=level)
            rows.extend(_km_rows(name, g_curve))
            group_arrays.append((g_times, g_events))
            entry: dict[str, Any] = {
                "n": int(g_curve.n),
                "n_events": int(g_curve.events.sum()),
            }
            if horizon is not None:
                g_at = km_risk_at(g_curve, horizon, level=level)
                entry["risk_at_horizon"] = {
                    "risk": g_at.risk,
                    "lower": g_at.lower,
                    "upper": g_at.upper,
                    "extrapolated": g_at.extrapolated,
                }
            group_blocks[name] = entry
        block["groups_by"] = groups_by
        block["groups"] = group_blocks
        if len(group_arrays) >= 2:
            lr = logrank(group_arrays)
            block["logrank"] = {
                "statistic": lr.statistic,
                "df": lr.df,
                "p_value": lr.p_value,
                "degenerate": lr.degenerate,
            }

    baseline_names = params.get("baseline_covariates", [])
    added_names = params.get("added_covariates", [])
    if baseline_names or added_names:
        base_x = covariate_matrix(table, baseline_names)
        base_fit = cox_fit(base_x, times, events, names=baseline_names)
        cox_block: dict[str, Any] = {
            "baseline": {
                "coefficients": base_fit.coefficients,
                "log_partial_likelihood": base_fit.log_partial_likelihood,
                "converged": base_fit.converged,
                "iterations": base_fit.iterations,
                "ties_method": base_fit.ties_method,
            }
        }
        if base_fit.tie_fraction > 0.10:
            warnings.append(
                f"survival: {base_fit.tie_fraction:.0%} of events are tied; the Breslow "
                "approximation degrades with heavy ties"
            )
        if added_names:
            full_names = list(baseline_names) + list(added_names)
            full_x = covariate_matrix(table, full_names)
            full_fit = cox_fit(full_x, times, events, names=full_names)
            lrt = added_value_lrt(base_fit, full_fit, added_df=len(added_names))
            cox_block["full"] = {
                "coefficients": full_fit.coefficients,
                "log_partial_likelihood": full_fit.log_partial_likelihood,
                "converged": full_fit.converged,
                "iterations": full_fit.iterations,
                "ties_method": full_fit.ties_method,
            }
            cox_block["lrt"] = {
                "statistic": lrt.statistic,
                "df": lrt.df,
                "p_value": lrt.p_value,
            }
        block["cox"] = cox_block

    plots = {"km.csv": (("group", "time", "survival", "lower", "upper", "at_risk"), rows)}
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
    text = data_bytes.decode("utf-8")
    _check_referenced_columns(plan, _header_columns(text, plan.dataset))
    result = ingest_csv(io.StringIO(text, newline=""), mapping=plan.mapping or None)
    del text
    if result.errors:
        first = "; ".join(f"row {e.row}: {e.message}" for e in result.errors[:5])
        raise IngestError(f"{len(result.errors)} bad rows in {plan.dataset} ({first})")
    table = result.table
    if not len(table):
        raise IngestError(f"no data rows in {plan.dataset}")

    fingerprint = {
        "rows": len(table),
        "sha256": hashlib.sha256(data_bytes).hexdigest(),
    }
    warnings: list[str] = []
    for col in result.excluded_columns:
        warnings.append(f"ingest: column {col!r} excluded (non-numeric values)")
    integrity = validate_records(table)
    warnings.extend(f"data: {w}" for w in integrity.warnings)
    if integrity.duplicate_keys:
        warnings.append(
            f"data: {len(integrity.duplicate_keys)} duplicate (subject, replicate) keys"
        )

    runners = {
        "accuracy": _run_accuracy,
        "qc": _run_qc,
        "riskscore": _run_riskscore,
        "agreement": _run_agreement,
        "precision": _run_precision,
    }
    results: dict[str, dict] = {}
    plots: dict[str, tuple[tuple[str, ...], list[tuple]]] = {}
    for name in ANALYSES:
        if name not in plan.analyses:
            continue
        params = plan.params.get(name, {})
        try:
            if name == "survival":
                block, p, extra = _run_survival(table, params, plan.level, plan.ci_method)
                warnings.extend(extra)
            else:
                block, p = runners[name](table, params, plan.level, plan.ci_method)
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
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.4g}"
    return str(x)


def _fmt_ci(ci: dict | None) -> str:
    if ci is None:
        return "-"
    return f"{_fmt(ci['estimate'])} ({_fmt(ci['lower'])}, {_fmt(ci['upper'])})"


def _md_accuracy(block: dict, lines: list[str]) -> None:
    c = block["counts"]
    lines.append("| | Reference + | Reference - |")
    lines.append("|---|---|---|")
    lines.append(f"| Device + | {c['tp']} | {c['fp']} |")
    lines.append(f"| Device - | {c['fn']} | {c['tn']} |")
    lines.append("")
    lines.append("| Metric | Estimate (CI) |")
    lines.append("|---|---|")
    for key in ("sensitivity", "specificity", "ppv", "npv"):
        lines.append(f"| {key} | {_fmt_ci(block[key])} |")
    for key in ("lr_pos", "lr_neg"):
        lines.append(f"| {key} | {_fmt_ci(block[key])} |")
    if "posttest" in block:
        p = block["posttest"]
        lines.append("")
        lines.append(
            f"Post-test risk at pre-test {_fmt(p['pretest'])}: "
            f"{_fmt(p['after_positive'])} after a positive, "
            f"{_fmt(p['after_negative'])} after a negative."
        )
    if "goal_tests" in block:
        lines.append("")
        lines.append("| Goal test | x/n | goal | p-value | reject |")
        lines.append("|---|---|---|---|---|")
        for name, gt in block["goal_tests"].items():
            lines.append(
                f"| {name} | {gt['x']}/{gt['n']} | {_fmt(gt['goal'])} "
                f"| {_fmt(gt['p_value'])} | {_fmt(gt['reject'])} |"
            )


def _md_qc(block: dict, lines: list[str]) -> None:
    lines.append("| Output | Diseased | Healthy | Post-test risk (CI) | Likelihood ratio (CI) |")
    lines.append("|---|---|---|---|---|")
    for row in block["rows"]:
        lines.append(
            f"| {row['name'].capitalize()} | {row['diseased']} | {row['healthy']} "
            f"| {_fmt_ci(row['posttest_risk'])} | {_fmt_ci(row['likelihood_ratio'])} |"
        )
    w = block["worst_case"]
    lines.append("")
    lines.append("Worst-case (ungradable counted as wrong):")
    lines.append("")
    lines.append("| Quantity | Estimate (CI) |")
    lines.append("|---|---|")
    lines.append(f"| sensitivity | {_fmt_ci(w['sensitivity'])} |")
    lines.append(f"| specificity | {_fmt_ci(w['specificity'])} |")
    lines.append(f"| pre-test risk | {_fmt_ci(w['pretest_risk'])} |")
    g = block["gradable_only"]
    lines.append(f"| gradable-only sensitivity | {_fmt_ci(g['sensitivity'])} |")
    lines.append(f"| gradable-only specificity | {_fmt_ci(g['specificity'])} |")
    lines.append(f"| ungradable proportion | {_fmt_ci(block['ungradable_proportion'])} |")


def _md_riskscore(block: dict, lines: list[str]) -> None:
    cal = block["calibration"]
    lines.append(
        f"Calibration ({cal['mode']}): intercept {_fmt(cal['intercept'])}, "
        f"slope {_fmt(cal['slope'])}, converged {_fmt(cal['converged'])} "
        f"in {cal['iterations']} iterations, {cal['n_clipped']} scores clipped."
    )
    d = block["discrimination"]
    auc_line = f"AUC {_fmt(d['auc'])} (se {_fmt(d['auc_se'])})"
    if "lower" in d:
        auc_line += f", CI ({_fmt(d['lower'])}, {_fmt(d['upper'])})"
    lines.append("")
    lines.append(auc_line + ".")
    lines.append("")
    lines.append("| Threshold | Sensitivity (CI) | Specificity (CI) |")
    lines.append("|---|---|---|")
    for tm in block["threshold_grid"]:
        lines.append(
            f"| {_fmt(tm['threshold'])} | {_fmt_ci(tm['sensitivity'])} | {_fmt_ci(tm['specificity'])} |"
        )
    if "risk_strata" in block:
        lines.append("")
        lines.append("| Stratum | n | Diseased | Post-test risk (CI) | DLR (CI) |")
        lines.append("|---|---|---|---|---|")
        for st in block["risk_strata"]:
            closer = "]" if st["upper"] == 1 else ")"
            lines.append(
                f"| [{_fmt(st['lower'])}, {_fmt(st['upper'])}{closer} | {st['n']} | {st['n_diseased']} "
                f"| {_fmt_ci(st['posttest_risk'])} | {_fmt_ci(st['dlr'])} |"
            )
    if "prevalence_scaling" in block:
        ps = block["prevalence_scaling"]
        after = ps["calibration_after_scaling"]
        lines.append("")
        lines.append(
            f"Prevalence scaling {_fmt(ps['train_prev'])} -> {_fmt(ps['target_prev'])}: "
            f"recalibration after scaling gives intercept {_fmt(after['intercept'])}, "
            f"slope {_fmt(after['slope'])}; AUC unchanged at {_fmt(ps['auc_after_scaling'])}."
        )


def _md_agreement(block: dict, lines: list[str]) -> None:
    ba = block["bland_altman"]
    lines.append(
        f"Bland-Altman ({block['x_col']} vs {block['y_col']}, n={ba['n']}): "
        f"mean difference {_fmt(ba['mean_difference'])}, sd {_fmt(ba['sd_difference'])}, "
        f"limits of agreement ({_fmt(ba['loa_lower'])}, {_fmt(ba['loa_upper'])}) "
        f"with CI halfwidth {_fmt(ba['loa_ci_halfwidth'])}."
    )
    dm = block["deming"]
    note = " (defaulted)" if dm["lambda_defaulted"] else ""
    lines.append("")
    lines.append(
        f"Deming fit: slope {_fmt(dm['slope'])}, intercept {_fmt(dm['intercept'])}, "
        f"lambda {_fmt(dm['lambda'])}{note}."
    )


def _md_precision(block: dict, lines: list[str]) -> None:
    lines.append("| Component | SD | %CV |")
    lines.append("|---|---|---|")
    lines.append(
        f"| repeatability | {_fmt(block['repeatability_sd'])} | {_fmt(block['cv_repeatability'])} |"
    )
    lines.append(
        f"| between-condition | {_fmt(block['between_condition_sd'])} | - |"
    )
    lines.append(
        f"| reproducibility | {_fmt(block['reproducibility_sd'])} | {_fmt(block['cv_reproducibility'])} |"
    )
    lines.append("")
    lines.append(
        f"Grand mean {_fmt(block['grand_mean'])}, {block['n_subjects']} subjects, "
        f"conditions {', '.join(block['condition_fields'])}."
        + (" Negative component clipped to zero." if block["negative_component_clipped"] else "")
    )


def _md_survival(block: dict, lines: list[str]) -> None:
    lines.append(
        f"{block['n']} subjects, {block['n_events']} events, "
        f"max follow-up {_fmt(block['max_followup'])}."
    )
    if "risk_at_horizon" in block:
        r = block["risk_at_horizon"]
        extra = " (extrapolated)" if r["extrapolated"] else ""
        lines.append("")
        lines.append(
            f"Risk at t={_fmt(r['time'])}: {_fmt(r['risk'])} "
            f"({_fmt(r['lower'])}, {_fmt(r['upper'])}){extra}."
        )
    if "groups" in block:
        lines.append("")
        lines.append(f"Groups by {block['groups_by']}:")
        lines.append("")
        lines.append("| Group | n | Events | Risk at horizon (CI) |")
        lines.append("|---|---|---|---|")
        for name, g in block["groups"].items():
            risk = "-"
            if "risk_at_horizon" in g:
                gr = g["risk_at_horizon"]
                risk = f"{_fmt(gr['risk'])} ({_fmt(gr['lower'])}, {_fmt(gr['upper'])})"
            lines.append(f"| {name} | {g['n']} | {g['n_events']} | {risk} |")
        if "logrank" in block:
            lr = block["logrank"]
            lines.append("")
            lines.append(
                f"Log-rank: statistic {_fmt(lr['statistic'])}, df {lr['df']}, "
                f"p {_fmt(lr['p_value'])}."
            )
    if "cox" in block:
        cox = block["cox"]
        lines.append("")
        lines.append("| Model | Coefficients | log-PL |")
        lines.append("|---|---|---|")
        for model in ("baseline", "full"):
            if model not in cox:
                continue
            coefs = ", ".join(
                f"{k}={_fmt(v)}" for k, v in cox[model]["coefficients"].items()
            ) or "(none)"
            lines.append(
                f"| {model} | {coefs} | {_fmt(cox[model]['log_partial_likelihood'])} |"
            )
        if "lrt" in cox:
            lrt = cox["lrt"]
            lines.append("")
            lines.append(
                f"Added-value LRT: statistic {_fmt(lrt['statistic'])}, "
                f"df {lrt['df']}, p {_fmt(lrt['p_value'])}."
            )


_MD_SECTIONS = {
    "accuracy": ("Binary accuracy", _md_accuracy),
    "qc": ("QC-failure triage", _md_qc),
    "riskscore": ("Risk-score validation", _md_riskscore),
    "agreement": ("Method agreement", _md_agreement),
    "precision": ("Precision components", _md_precision),
    "survival": ("Time-to-event validation", _md_survival),
}


def render_markdown(report: ValidationReport) -> str:
    lines = [
        "# Validation report",
        "",
        f"- tool version: {report.tool_version}",
        f"- plan hash: `{report.plan_hash}`",
        f"- dataset: {report.dataset_fingerprint['rows']} rows, "
        f"sha256 `{report.dataset_fingerprint['sha256']}`",
        f"- confidence level: {_fmt(report.level)} ({report.ci_method})",
        f"- seed: {report.seed if report.seed is not None else '-'}",
    ]
    if report.warnings:
        lines.append("")
        lines.append("## Warnings")
        lines.append("")
        for w in report.warnings:
            lines.append(f"- {w}")
    for name in ANALYSES:
        if name not in report.results:
            continue
        title, renderer = _MD_SECTIONS[name]
        lines.append("")
        lines.append(f"## {title}")
        lines.append("")
        block = report.results[name]
        if "error" in block:
            lines.append(f"Analysis failed: {block['error']}")
        else:
            renderer(_sanitize(block), lines)
    lines.append("")
    return "\n".join(lines)


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    for filename, (header, rows) in sorted(report.plots.items()):
        plot_path = out / filename
        with open(plot_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(v) for v in row])
        written.append(plot_path)
    return written
