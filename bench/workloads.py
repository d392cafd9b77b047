"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of the workload seed. The generators write
the CSVs and plan files daval reads, and keep the values exactly as written
(parsed back from their text) so the oracles check daval against the bytes
it actually ingested. Nothing here imports daval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COHORT_N = 20_000
COHORT_SITES = ("site-a", "site-b", "site-c", "site-d")
COHORT_SITE_SHARES = (0.40, 0.30, 0.20, 0.10)
COHORT_HORIZON_DAYS = 730

SCORES_N = 100_000
# The scores and outcomes are drawn from this fixed seed, not the workload's;
# make_scores says why.
SCORES_POPULATION_SEED = 0
SCORES_PREVALENCE = 0.25
SCORES_TRAIN_PREV = 0.25
SCORES_TARGET_PREV = 0.10
SCORES_CUTOFFS = (0.1, 0.25, 0.5)
# The plan leaves the threshold grid at daval's default, 0.1 .. 0.9.
SCORES_THRESHOLDS = tuple(round(0.1 * k, 1) for k in range(1, 10))

SWEEP_BOOTSTRAP_REPLICATES = 200
STRATA = 16
PRECISION_OPERATORS = ("op1", "op2")
PRECISION_UNITS = ("unit1", "unit2")
PRECISION_REPLICATES = 3

LEVEL = 0.95

HEADER = "subject_id,site_id,truth,output,score,time,event,operator_id,device_unit_id,replicate_index"


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _stratified(seed: int, stream: int, j: int, lo: float, hi: float) -> float:
    """Draw j of a stratified sample on [lo, hi): each block of STRATA draws
    puts one draw in each of STRATA equal slices, in a seeded order. Every
    run then sees nearly the same mix of op sizes, whatever the seed."""
    block, pos = divmod(j, STRATA)
    perm = _rng(seed, stream, block).permutation(STRATA)
    u = (perm[pos] + _rng(seed, stream, block, pos).random()) / STRATA
    return lo + (hi - lo) * float(u)


def _parsed(strings: list[str]) -> np.ndarray:
    return np.array([float(s) for s in strings])


def _write_plan(path: Path, plan: dict) -> None:
    path.write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass
class Op:
    """One benchmark operation: the request the worker runs, plus what the oracles need.

    ``key`` names the operation's inputs: two operations with the same key
    must write byte-identical files to ``out``.
    """

    request: dict
    key: str
    out: Path
    subjects: int  # design ops learn theirs from power_and_n, in the worker
    expect: dict


# ---------------------------------------------------------------- cohort


def make_cohort(seed: int, work: Path) -> dict:
    """Prognostic cohort: four unequal sites, ~5% ungradable binary calls,
    exponential event times in whole days (so events tie), age in years
    (not centred) and a marker read by two labs."""
    rng = _rng(seed, 1)
    n = COHORT_N
    site = rng.choice(len(COHORT_SITES), size=n, p=COHORT_SITE_SHARES)
    age = np.clip(np.rint(rng.normal(62.0, 11.0, n)), 30, 95).astype(int)
    marker_true = rng.normal(0.0, 1.0, n)
    marker_a = [f"{v:.3f}" for v in marker_true + rng.normal(0.0, 0.2, n)]
    marker_b = [f"{v:.3f}" for v in 0.05 + 1.02 * marker_true + rng.normal(0.0, 0.2, n)]

    truth = rng.random(n) < 0.30
    called_pos = rng.random(n) < np.where(truth, 0.86, 0.11)
    ungradable = rng.random(n) < 0.05
    output = np.where(ungradable, "ungradable", np.where(called_pos, "pos", "neg"))

    site_log_hr = np.array([0.0, 0.15, -0.10, 0.30])
    log_hazard = 0.035 * (age - 62) + 0.40 * marker_true + site_log_hr[site]
    event_days = rng.exponential(1.0, n) / (2.5e-4 * np.exp(log_hazard))
    censor_days = np.minimum(rng.exponential(2500.0, n), 3650.0)
    days = np.maximum(1, np.ceil(np.minimum(event_days, censor_days))).astype(int)
    event = event_days <= censor_days

    lines = [HEADER + ",age,marker,marker_lab_b"]
    for i in range(n):
        lines.append(
            f"c{i:06d},{COHORT_SITES[site[i]]},{'pos' if truth[i] else 'neg'},{output[i]},,"
            f"{days[i]},{int(event[i])},,,,{age[i]},{marker_a[i]},{marker_b[i]}"
        )
    (work / "cohort.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_plan(
        work / "cohort_plan.json",
        {
            "dataset": "cohort.csv",
            "analyses": ["qc", "agreement", "survival"],
            "level": LEVEL,
            "ci_method": "cp",
            "seed": seed,
            "params": {
                "agreement": {"x_col": "marker", "y_col": "marker_lab_b"},
                "survival": {
                    "groups_by": "site_id",
                    "horizon": COHORT_HORIZON_DAYS,
                    "baseline_covariates": ["age"],
                    "added_covariates": ["marker"],
                },
            },
        },
    )
    return {
        "site": np.array(COHORT_SITES)[site],
        "truth": truth,
        "output": output,
        "time": days.astype(float),
        "event": event,
        "age": age.astype(float),
        "marker": _parsed(marker_a),
        "marker_lab_b": _parsed(marker_b),
    }


# ---------------------------------------------------------------- scores


def make_scores(seed: int, work: Path) -> dict:
    """Risk scores at 25% prevalence, quantised to 3 or 4 decimals so many
    subjects share a threshold.

    The workload seed goes into the plan only; the data are the same for
    every seed. At the seed commit the recalibration's Newton loop stops on
    an absolute gradient tolerance that rounding in the data decides whether
    it reaches, so its iteration count, and with it the op time, was a
    lottery over seeds: 9 iterations on most, 16-42 on about a quarter (up
    to 2 s more per op) and no convergence within 50 on about one in fifty.
    Ten runs on ten seeded datasets then spread by more than the benchmark's
    bounds, and their failure counts could not agree.
    """
    rng = _rng(SCORES_POPULATION_SEED, 2)
    n = SCORES_N
    outcome = rng.random(n) < SCORES_PREVALENCE
    delta = math.sqrt(2.0) * 0.77  # binormal shift for a population AUC near 0.78
    latent = rng.normal(0.0, 1.0, n) + delta * outcome - 1.3
    raw = np.clip(1.0 / (1.0 + np.exp(-latent)), 0.001, 0.999)
    four = rng.random(n) < 0.5
    text = [f"{v:.4f}" if f else f"{v:.3f}" for v, f in zip(raw, four)]
    site = rng.integers(0, 3, n)
    lines = [HEADER]
    for i in range(n):
        lines.append(f"q{i:06d},site-{site[i]},{'pos' if outcome[i] else 'neg'},,{text[i]},,,,,")
    (work / "scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_plan(
        work / "scores_plan.json",
        {
            "dataset": "scores.csv",
            "analyses": ["riskscore"],
            "level": LEVEL,
            "ci_method": "cp",
            "seed": seed,
            "params": {
                "riskscore": {
                    "calibration": "slope",
                    "bins": 10,
                    "cutoffs": list(SCORES_CUTOFFS),
                    "train_prev": SCORES_TRAIN_PREV,
                    "target_prev": SCORES_TARGET_PREV,
                }
            },
        },
    )
    return {"score": _parsed(text), "outcome": outcome}


# ---------------------------------------------------------------- sweep


def _design_op(seed: int, i: int, d: Path) -> Op:
    """Sample-size search, a simulated binary study at that size, its
    accuracy + qc report, and a bootstrap interval for sensitivity."""
    rng = _rng(seed, 3, i)
    goal = round(_stratified(seed, 5, i // 2, 0.70, 0.85), 3)
    assumed = round(min(goal + _stratified(seed, 6, i // 2, 0.08, 0.14), 0.98), 3)
    prevalence = round(float(rng.uniform(0.30, 0.50)), 3)
    specificity = round(float(rng.uniform(0.80, 0.95)), 3)
    sim_seed = int(rng.integers(1, 2**31 - 1))
    csv_path = d / "sim.csv"
    _write_plan(
        d / "plan.json",
        {
            "dataset": "sim.csv",
            "analyses": ["accuracy", "qc"],
            "level": LEVEL,
            "ci_method": "cp",
            "seed": sim_seed,
            # No "pretest": at the seed commit accuracy.posttest_risk raises on
            # the negative likelihood ratio of 0 that a simulated study with no
            # false negatives has, and which studies hit that is down to chance.
            "params": {"accuracy": {"goal": goal}},
        },
    )
    request = {
        "kind": "design",
        "goal": goal,
        "assumed": assumed,
        "simulate": [
            "simulate", "--kind", "binary", "--prevalence", str(prevalence),
            "--sensitivity", str(assumed), "--specificity", str(specificity),
            "--out", str(csv_path), "--seed", str(sim_seed),
        ],
        "run": ["run", "--plan", str(d / "plan.json"), "--format", "md", "--out", str(d / "out")],
        "csv": str(csv_path),
        "replicates": SWEEP_BOOTSTRAP_REPLICATES,
        "level": LEVEL,
        "seed": sim_seed,
    }
    return Op(request, str(i), d / "out", 0, {"check": "design", "csv": csv_path, "goal": goal, "assumed": assumed})


def _precision_op(seed: int, i: int, d: Path) -> Op:
    """A replicated precision design (subjects x 2 operators x 2 units x 3
    replicates) with two method columns."""
    rng = _rng(seed, 4, i)
    n_subj = int(_stratified(seed, 7, i // 2, 20, 81))
    level = rng.uniform(0.2, 0.8, n_subj)
    op_eff = rng.normal(0.0, 0.015, len(PRECISION_OPERATORS))
    unit_eff = rng.normal(0.0, 0.010, len(PRECISION_UNITS))
    lines = [HEADER + ",method_a,method_b"]
    scores, cells, meth_a, meth_b = [], [], [], []
    for s in range(n_subj):
        k = 0
        for o, op in enumerate(PRECISION_OPERATORS):
            for u, unit in enumerate(PRECISION_UNITS):
                for _ in range(PRECISION_REPLICATES):
                    v = min(max(level[s] + op_eff[o] + unit_eff[u] + rng.normal(0.0, 0.02), 0.001), 0.999)
                    a = level[s] + rng.normal(0.0, 0.03)
                    b = 1.03 * level[s] - 0.01 + rng.normal(0.0, 0.03)
                    v_t, a_t, b_t = f"{v:.4f}", f"{a:.4f}", f"{b:.4f}"
                    lines.append(f"m{s:03d},lab,,,{v_t},,,{op},{unit},{k},{a_t},{b_t}")
                    scores.append(v_t)
                    cells.append((s * len(PRECISION_OPERATORS) + o) * len(PRECISION_UNITS) + u)
                    meth_a.append(a_t)
                    meth_b.append(b_t)
                    k += 1
    (d / "precision.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_plan(
        d / "plan.json",
        {
            "dataset": "precision.csv",
            "analyses": ["agreement", "precision"],
            "level": LEVEL,
            "ci_method": "cp",
            "seed": seed,
            "params": {
                "agreement": {"x_col": "method_a", "y_col": "method_b"},
                "precision": {"condition_fields": ["operator_id", "device_unit_id"]},
            },
        },
    )
    data = {
        "score": _parsed(scores),
        "cell": np.array(cells),
        "method_a": _parsed(meth_a),
        "method_b": _parsed(meth_b),
        "n_subjects": n_subj,
    }
    request = {"kind": "plan", "argv": ["run", "--plan", str(d / "plan.json"), "--format", "md", "--out", str(d / "out")]}
    return Op(request, str(i), d / "out", n_subj, {"check": "precision", "data": data})


# ---------------------------------------------------------------- workloads


class _OnePlan:
    """Every op reruns one plan on one generated dataset, so every op after
    the first is also a reproducibility check."""

    repeat = ("0",)  # op keys rerun after the window unless already repeated
    fit_limit_s = None  # time allowed from an op's first Cox fit; None: no such limit

    @staticmethod
    def seed_defect(failures) -> bool:
        """Whether an op's whole list of (kind, message) failures is a
        recorded defect of the seed commit: counted as failed, but it does
        not make the run's ``correct`` false. Any other failure does."""
        return False

    def op(self, i: int, d: Path) -> Op:
        request = {"kind": "plan", "argv": ["run", "--plan", str(self.plan), "--out", str(d / "out")]}
        return Op(request, "0", d / "out", self.subjects, {"check": self.name, "data": self.data})


class Cohort(_OnePlan):
    """Survival-heavy: KM x5, a 4-group log-rank and two Cox fits on 20,000 subjects."""

    name, subjects = "cohort", COHORT_N
    limit_s = 60.0
    # The Cox fits get fit_limit_s from the start of the first one, and at the
    # seed commit every cohort op overruns it. There a Cox pair that converges
    # takes 1.8-2.9 s on a 2-vCPU VM, and one that stalls on the absolute
    # gradient tolerance runs for minutes. Which of the two happens depends
    # on rounding in the data, so a longer limit would make the workload's
    # figures depend on the seed. Two Cox fits with vectorised risk-set sums
    # should take well under this limit. The part of the op before the first
    # fit (ingest, qc, agreement, KM x5, log-rank: 1.3-2.1 s) runs in full.
    fit_limit_s = 0.5
    trace_ops = 1  # ops in the traced run, each run untraced and traced

    @staticmethod
    def seed_defect(failures) -> bool:
        """The stalled Cox fit: an op stopped at its limit and nothing else."""
        return all(kind == "limit" for kind, _ in failures)

    def __init__(self, seed: int, work: Path):
        self.data = make_cohort(seed, work)
        self.plan = work / "cohort_plan.json"


class Scores(_OnePlan):
    """Riskscore-heavy: calibration, ROC, grids, strata and prevalence scaling on 100,000 subjects."""

    name, subjects = "scores", SCORES_N
    limit_s = 60.0
    trace_ops = 2

    def __init__(self, seed: int, work: Path):
        self.data = make_scores(seed, work)
        self.plan = work / "scores_plan.json"


class Sweep:
    """Many small studies, alternating design ops (even) and precision ops (odd)."""

    limit_s = 10.0
    fit_limit_s = None
    trace_ops = 200
    repeat = ("0", "1")

    @staticmethod
    def seed_defect(failures) -> bool:
        return False

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def op(self, i: int, d: Path) -> Op:
        return _design_op(self.seed, i, d) if i % 2 == 0 else _precision_op(self.seed, i, d)


WORKLOADS = {"cohort": Cohort, "scores": Scores, "sweep": Sweep}
