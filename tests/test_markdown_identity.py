"""`render_markdown` writes the bytes of the line-by-line renderers it replaced.

The oracle below is the earlier renderer: each `_md_*` appended its lines,
blank separators included, to one shared list, and built its tables row by
row; `render_markdown` converted non-finite floats to strings before any
renderer saw them. The parts-based renderer must return the same text for
every drawn report: each analysis present, absent or failed, every optional
key present and absent, None intervals, NaN and +-inf. Drawn names hold no
`|` (tests/test_report_tables.py covers its escape) and are never empty, as
ingest never yields an empty group name; a line break in a table cell is
written `<br>` in both, the one rule added since the oracle was copied.
"""

import math
import re
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from daval.qc import ROW_NAMES
from daval.report import ValidationReport, render_markdown

# ---------------------------------------------------------------- oracle


def _sanitize(obj: Any) -> Any:
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


def _br(cell):
    return re.sub(r"\r\n|\r|\n", "<br>", cell)


def _fmt_ci(ci):
    if ci is None:
        return "-"
    return f"{_fmt(ci['estimate'])} ({_fmt(ci['lower'])}, {_fmt(ci['upper'])})"


def _md_accuracy(block, lines):
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


def _md_qc(block, lines):
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


def _md_riskscore(block, lines):
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
        for st_ in block["risk_strata"]:
            closer = "]" if st_["upper"] == 1 else ")"
            lines.append(
                f"| [{_fmt(st_['lower'])}, {_fmt(st_['upper'])}{closer} | {st_['n']} | {st_['n_diseased']} "
                f"| {_fmt_ci(st_['posttest_risk'])} | {_fmt_ci(st_['dlr'])} |"
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


def _md_agreement(block, lines):
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


def _md_precision(block, lines):
    lines.append("| Component | SD | %CV |")
    lines.append("|---|---|---|")
    lines.append(
        f"| repeatability | {_fmt(block['repeatability_sd'])} | {_fmt(block['cv_repeatability'])} |"
    )
    lines.append(f"| between-condition | {_fmt(block['between_condition_sd'])} | - |")
    lines.append(
        f"| reproducibility | {_fmt(block['reproducibility_sd'])} | {_fmt(block['cv_reproducibility'])} |"
    )
    lines.append("")
    lines.append(
        f"Grand mean {_fmt(block['grand_mean'])}, {block['n_subjects']} subjects, "
        f"conditions {', '.join(block['condition_fields'])}."
        + (" Negative component clipped to zero." if block["negative_component_clipped"] else "")
    )


def _md_survival(block, lines):
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
            lines.append(f"| {_br(name)} | {g['n']} | {g['n_events']} | {risk} |")
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
            coefs = ", ".join(f"{k}={_fmt(v)}" for k, v in cox[model]["coefficients"].items()) or "(none)"
            lines.append(f"| {model} | {_br(coefs)} | {_fmt(cox[model]['log_partial_likelihood'])} |")
        if "lrt" in cox:
            lrt = cox["lrt"]
            lines.append("")
            lines.append(
                f"Added-value LRT: statistic {_fmt(lrt['statistic'])}, "
                f"df {lrt['df']}, p {_fmt(lrt['p_value'])}."
            )


_SECTIONS = (
    ("accuracy", "Binary accuracy", _md_accuracy),
    ("qc", "QC-failure triage", _md_qc),
    ("riskscore", "Risk-score validation", _md_riskscore),
    ("agreement", "Method agreement", _md_agreement),
    ("precision", "Precision components", _md_precision),
    ("survival", "Time-to-event validation", _md_survival),
)


def oracle_markdown(report: ValidationReport) -> str:
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
    for name, title, render in _SECTIONS:
        if name not in report.results:
            continue
        lines.append("")
        lines.append(f"## {title}")
        lines.append("")
        block = report.results[name]
        if "error" in block:
            lines.append(f"Analysis failed: {block['error']}")
        else:
            render(_sanitize(block), lines)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------- strategies

NAME = st.text(st.characters(blacklist_characters="|", blacklist_categories=("Cs",)), min_size=1, max_size=6)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
COUNT = st.integers(0, 10_000)
NUM = st.none() | st.floats() | st.sampled_from([0.0, -0.0, 1.0, 1, math.nan, math.inf, -math.inf])
CI = st.none() | st.fixed_dictionaries({"estimate": NUM, "lower": NUM, "upper": NUM})


def _fields(*names, value=NUM, **more):
    return st.fixed_dictionaries({**{name: value for name in names}, **more})


ACCURACY = st.fixed_dictionaries(
    {
        "counts": _fields("tp", "fp", "fn", "tn", value=COUNT),
        **{key: CI for key in ("sensitivity", "specificity", "ppv", "npv", "lr_pos", "lr_neg")},
    },
    optional={
        "posttest": _fields("pretest", "after_positive", "after_negative"),
        "goal_tests": st.fixed_dictionaries({
            name: st.fixed_dictionaries(
                {"x": COUNT, "n": COUNT, "goal": NUM, "p_value": NUM, "reject": st.booleans()}
            )
            for name in ("sensitivity", "specificity")
        }),
    },
)

QC = st.fixed_dictionaries({
    "rows": st.lists(st.fixed_dictionaries({
        "name": st.sampled_from(ROW_NAMES), "diseased": COUNT, "healthy": COUNT,
        "posttest_risk": CI, "likelihood_ratio": CI,
    }), max_size=3),
    "worst_case": _fields("sensitivity", "specificity", "pretest_risk", value=CI),
    "gradable_only": _fields("sensitivity", "specificity", value=CI),
    "ungradable_proportion": CI,
})

RISKSCORE = st.fixed_dictionaries(
    {
        "calibration": st.fixed_dictionaries({
            "mode": st.sampled_from(["intercept_only", "intercept_and_slope"]),
            "intercept": NUM, "slope": NUM, "converged": st.booleans(),
            "iterations": COUNT, "n_clipped": COUNT,
        }),
        "discrimination": _fields("auc", "auc_se") | _fields("auc", "auc_se", "lower", "upper"),
        "threshold_grid": st.lists(
            st.fixed_dictionaries({"threshold": NUM, "sensitivity": CI, "specificity": CI}), max_size=3
        ),
    },
    optional={
        "risk_strata": st.lists(st.fixed_dictionaries({
            "lower": NUM, "upper": NUM | st.sampled_from([1, 1.0]), "n": COUNT, "n_diseased": COUNT,
            "posttest_risk": CI, "dlr": CI,
        }), max_size=3),
        "prevalence_scaling": st.fixed_dictionaries({
            "train_prev": NUM, "target_prev": NUM, "auc_after_scaling": NUM,
            "calibration_after_scaling": _fields("intercept", "slope"),
        }),
    },
)

AGREEMENT = st.fixed_dictionaries({
    "x_col": NAME, "y_col": NAME,
    "bland_altman": _fields(
        "mean_difference", "sd_difference", "loa_lower", "loa_upper", "loa_ci_halfwidth", n=COUNT
    ),
    "deming": _fields("slope", "intercept", "lambda", lambda_defaulted=st.booleans()),
})

PRECISION = st.fixed_dictionaries({
    **{key: NUM for key in ("repeatability_sd", "cv_repeatability", "between_condition_sd",
                            "reproducibility_sd", "cv_reproducibility", "grand_mean")},
    "n_subjects": COUNT,
    "condition_fields": st.lists(NAME, min_size=1, max_size=3),
    "negative_component_clipped": st.booleans(),
})

STAT = _fields("statistic", "p_value", df=COUNT)
MODEL = st.fixed_dictionaries({
    "coefficients": st.dictionaries(NAME, NUM, max_size=3), "log_partial_likelihood": NUM,
})
GROUPS = st.fixed_dictionaries(
    {
        "groups_by": NAME,
        "groups": st.dictionaries(NAME, st.fixed_dictionaries(
            {"n": COUNT, "n_events": COUNT},
            optional={"risk_at_horizon": _fields("risk", "lower", "upper", extrapolated=st.booleans())},
        ), max_size=3),
    },
    optional={"logrank": STAT},
)
COX = st.fixed_dictionaries({"baseline": MODEL}) | st.fixed_dictionaries(
    {"baseline": MODEL, "full": MODEL, "lrt": STAT}
)
SURVIVAL = st.builds(
    lambda base, groups: {**base, **groups},
    st.fixed_dictionaries(
        {"n": COUNT, "n_events": COUNT, "max_followup": NUM},
        optional={
            "risk_at_horizon": _fields("time", "risk", "lower", "upper", extrapolated=st.booleans()),
            "cox": COX,
        },
    ),
    st.just({}) | GROUPS,
)

BLOCKS = {
    "accuracy": ACCURACY, "qc": QC, "riskscore": RISKSCORE,
    "agreement": AGREEMENT, "precision": PRECISION, "survival": SURVIVAL,
}


@st.composite
def reports(draw):
    results = {}
    for name, block in BLOCKS.items():
        state = draw(st.sampled_from(["absent", "present", "failed"]))
        if state == "present":
            results[name] = draw(block)
        elif state == "failed":
            results[name] = {"error": draw(TEXT)}
    return ValidationReport(
        plan_hash=draw(st.text("0123456789abcdef", max_size=64)),
        dataset_fingerprint={"rows": draw(COUNT), "sha256": draw(st.text("0123456789abcdef", max_size=64))},
        tool_version=draw(TEXT),
        level=draw(st.floats()),
        ci_method=draw(st.sampled_from(["cp", "wilson"])),
        seed=draw(st.none() | st.integers(-(2**63), 2**63)),
        results=results,
        warnings=draw(st.lists(TEXT, max_size=3)),
        plots={},
    )


@settings(max_examples=300, deadline=None)
@given(reports())
def test_render_markdown_matches_line_renderer(report):
    assert render_markdown(report) == oracle_markdown(report)
