"""Independent checks of every benchmark operation, using numpy and scipy only.

Each check takes the operation's report (parsed report.json), whatever the
worker returned, and the generated inputs, and returns a list of mismatch
messages; an empty list means the operation verified. A message that starts
with "unconverged:" reports a solver that did not converge rather than a
wrong number. Nothing here imports daval.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import stats

import workloads as W

REL_TOL = 1e-9
# Cox coefficients must sit where the Breslow score statistic U' I^-1 U is
# below this: invariant to covariate scale, and about 1e-3 standard errors
# from the maximum.
COX_SCORE_TOL = 1e-6


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _check(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def _bland_altman(errors: list[str], block: dict, x: np.ndarray, y: np.ndarray) -> None:
    d = x - y
    ba = block["bland_altman"]
    _check(errors, ba["n"] == len(d), f"bland_altman n {ba['n']} != {len(d)}")
    _check(errors, _close(ba["mean_difference"], float(np.mean(d))), "bland_altman mean differs from numpy")
    _check(errors, _close(ba["sd_difference"], float(np.std(d, ddof=1))), "bland_altman sd differs from numpy")


def _clopper_pearson(errors: list[str], name: str, ci: dict | None, x: int, n: int) -> None:
    if n == 0:
        _check(errors, ci is None, f"{name}: interval reported for an empty margin")
        return
    if ci is None:
        errors.append(f"{name}: no interval for {x}/{n}")
        return
    _check(errors, (ci["numerator"], ci["denominator"]) == (x, n),
           f"{name}: counts {ci['numerator']}/{ci['denominator']} != {x}/{n}")
    ref = stats.binomtest(x, n).proportion_ci(confidence_level=ci["level"], method="exact")
    _check(errors, _close(ci["lower"], ref.low) and _close(ci["upper"], ref.high),
           f"{name}: Clopper-Pearson ({ci['lower']}, {ci['upper']}) != binomtest ({ref.low}, {ref.high})")


# ---------------------------------------------------------------- cohort


def _km_risk(times: np.ndarray, events: np.ndarray, horizon: float) -> float:
    sample = stats.CensoredData.right_censored(times, ~events)
    return 1.0 - float(stats.ecdf(sample).sf.evaluate(horizon))


def breslow_score(beta: np.ndarray, x: np.ndarray, times: np.ndarray, events: np.ndarray):
    """Breslow-ties Cox score vector U and information I at ``beta``, vectorised.

    The risk set at an event time is every subject whose time is at least it,
    so the sums are reverse cumulative sums over ascending times, read at the
    first subject of each tie block.
    """
    order = np.argsort(times, kind="stable")
    t, e, xs = times[order], events[order], x[order]
    eta = xs @ beta
    w = np.exp(eta - eta.max())
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum((w[:, None] * xs)[::-1], axis=0)[::-1]
    s2 = np.cumsum((w[:, None, None] * xs[:, :, None] * xs[:, None, :])[::-1], axis=0)[::-1]
    first = np.searchsorted(t, t, side="left")
    s0, s1, s2 = s0[first][e], s1[first][e], s2[first][e]
    xbar = s1 / s0[:, None]
    u = (xs[e] - xbar).sum(axis=0)
    info = (s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :]).sum(axis=0)
    return u, info


def check_cohort(report: dict, data: dict) -> list[str]:
    errors: list[str] = []
    res = report["results"]
    for name in ("qc", "agreement", "survival"):
        if name not in res:
            errors.append(f"{name} block missing")
    if errors:
        return errors

    truth, out = data["truth"], data["output"]
    expect = {
        "a": (out == "pos") & truth, "b": (out == "neg") & truth, "c": (out == "ungradable") & truth,
        "d": (out == "pos") & ~truth, "e": (out == "neg") & ~truth, "f": (out == "ungradable") & ~truth,
    }
    table = res["qc"]["table"]
    for cell, mask in expect.items():
        _check(errors, table[cell] == int(mask.sum()), f"qc cell {cell}: {table[cell]} != {int(mask.sum())}")

    _bland_altman(errors, res["agreement"], data["marker"], data["marker_lab_b"])

    sv = res["survival"]
    t, ev, site = data["time"], data["event"], data["site"]
    h = W.COHORT_HORIZON_DAYS
    _check(errors, _close(sv["risk_at_horizon"]["risk"], _km_risk(t, ev, h)), "KM risk at horizon differs from scipy ecdf")
    for g in W.COHORT_SITES:
        m = site == g
        got = sv["groups"][g]["risk_at_horizon"]["risk"]
        _check(errors, _close(got, _km_risk(t[m], ev[m], h)), f"KM risk at horizon for {g} differs from scipy ecdf")

    cox = sv["cox"]
    for model, names in (("baseline", ["age"]), ("full", ["age", "marker"])):
        fit = cox[model]
        if not fit["converged"]:
            errors.append(f"unconverged: cox {model} fit reports converged false after {fit['iterations']} iterations")
            continue
        beta = np.array([fit["coefficients"][k] for k in names])
        x = np.column_stack([data[k] for k in names])
        u, info = breslow_score(beta, x, t, ev)
        score = float(u @ np.linalg.solve(info, u))
        _check(errors, score < COX_SCORE_TOL, f"cox {model}: score statistic {score:.3g} at the reported coefficients")
    return errors


# ---------------------------------------------------------------- scores


def check_scores(report: dict, data: dict) -> list[str]:
    errors: list[str] = []
    rs = report["results"].get("riskscore")
    if rs is None:
        return ["riskscore block missing"]
    s, y = data["score"], data["outcome"]
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    u = stats.mannwhitneyu(s[y], s[~y]).statistic
    auc = rs["discrimination"]["auc"]
    _check(errors, _close(auc, u / (n_pos * n_neg)), f"AUC {auc} != Mann-Whitney {u / (n_pos * n_neg)}")
    grid = rs["threshold_grid"]
    _check(errors, [g["threshold"] for g in grid] == list(W.SCORES_THRESHOLDS), "threshold grid differs")
    for g in grid:
        called = s >= g["threshold"]
        tp, tn = int((called & y).sum()), int((~called & ~y).sum())
        sens, spec = g["sensitivity"], g["specificity"]
        _check(errors, (sens["numerator"], sens["denominator"]) == (tp, n_pos), f"threshold {g['threshold']}: TP count")
        _check(errors, (spec["numerator"], spec["denominator"]) == (tn, n_neg), f"threshold {g['threshold']}: TN count")
    ps = rs["prevalence_scaling"]
    _check(errors, _close(ps["auc_after_scaling"], auc, 1e-12), "AUC changed under monotone prevalence scaling")
    for key in ("calibration_before_scaling", "calibration_after_scaling"):
        _check(errors, ps[key]["converged"], f"unconverged: recalibration {key}")
    return errors


# ---------------------------------------------------------------- sweep


def check_design(report: dict, reply: dict, csv_path, goal: float, assumed: float) -> list[str]:
    errors: list[str] = []
    res = report["results"]
    if "accuracy" not in res or "qc" not in res:
        return ["accuracy or qc block missing"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n_sub, crit, power = reply["power"]
    _check(errors, len(rows) == n_sub, f"simulated {len(rows)} subjects, power_and_n asked for {n_sub}")
    alpha = 0.05
    _check(errors, stats.binom.sf(crit - 1, n_sub, goal) <= alpha, "critical count does not reach alpha")
    _check(errors, crit == 0 or stats.binom.sf(crit - 2, n_sub, goal) > alpha, "critical count is not the smallest")
    _check(errors, _close(power, float(stats.binom.sf(crit - 1, n_sub, assumed)), 1e-8) and power >= 0.8,
           "power differs from the binomial tail or misses the target")

    pos = np.array([r["truth"] == "pos" for r in rows])
    called = np.array([r["output"] == "pos" for r in rows])
    tp, fn = int((pos & called).sum()), int((pos & ~called).sum())
    fp, tn = int((~pos & called).sum()), int((~pos & ~called).sum())
    acc = res["accuracy"]
    _check(errors, acc["counts"] == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}, f"2x2 {acc['counts']} != CSV tally")
    _clopper_pearson(errors, "sensitivity", acc["sensitivity"], tp, tp + fn)
    _clopper_pearson(errors, "specificity", acc["specificity"], tn, tn + fp)
    _clopper_pearson(errors, "ppv", acc["ppv"], tp, tp + fp)
    _clopper_pearson(errors, "npv", acc["npv"], tn, tn + fn)
    table = res["qc"]["table"]
    _check(errors, (table["a"], table["b"], table["d"], table["e"], table["c"], table["f"]) == (tp, fn, fp, tn, 0, 0),
           "qc table differs from the CSV tally")

    # A resample with no diseased subject has no sensitivity; bootstrap_ci
    # records it as missing and refuses an interval past 5% missing.
    lo, hi, n_rep, n_missing = reply["bootstrap"]
    _check(errors, 0.0 <= lo <= hi <= 1.0 and n_rep + n_missing == W.SWEEP_BOOTSTRAP_REPLICATES
           and n_missing <= 0.05 * W.SWEEP_BOOTSTRAP_REPLICATES,
           f"bootstrap interval ({lo}, {hi}) over {n_rep} replicates, {n_missing} missing")
    return errors


def check_precision(report: dict, data: dict) -> list[str]:
    errors: list[str] = []
    res = report["results"]
    if "agreement" not in res or "precision" not in res:
        return ["agreement or precision block missing"]
    _bland_altman(errors, res["agreement"], data["method_a"], data["method_b"])
    pr = res["precision"]
    score, cell = data["score"], data["cell"]
    ss = df = 0.0
    for c in np.unique(cell):
        v = score[cell == c]
        ss += float(np.sum((v - v.mean()) ** 2))
        df += len(v) - 1
    _check(errors, pr["n_subjects"] == data["n_subjects"], "precision subject count")
    _check(errors, _close(pr["repeatability_sd"], math.sqrt(ss / df), 1e-8), "repeatability sd differs from pooled within-cell sd")
    return errors
