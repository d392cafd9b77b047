"""Shared record builders and the acceptance-summary terminal hook."""

from __future__ import annotations

import json

import numpy as np
import pytest

from daval.dataset import DeviceOutput, Label, Survival, ValidationRecord


def pytest_configure(config):
    config._acceptance_lines = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(lines):
        terminalreporter.write_line(lines[number])


@pytest.fixture(scope="session")
def acceptance_log(request):
    """Mutable criterion-number -> summary-line mapping shown after the run."""
    return request.config._acceptance_lines


SCORES_10K_HEADER = (
    "subject_id,site_id,truth,output,score,time,event,operator_id,device_unit_id,replicate_index"
)


@pytest.fixture(scope="session")
def scores_10k_plan(tmp_path_factory):
    """A seeded 10,000-row risk-score CSV and its plan; returns the plan path.

    Scores are quantised to 3 or 4 decimals, so many subjects share a
    threshold, and the default thresholds and the cutoffs equal some scores.
    """
    d = tmp_path_factory.mktemp("scores_10k")
    rng = np.random.default_rng([20261018, 10_000])
    n = 10_000
    outcome = rng.random(n) < 0.25
    latent = rng.normal(0.0, 1.0, n) + 1.1 * outcome - 1.3
    raw = np.clip(1.0 / (1.0 + np.exp(-latent)), 0.001, 0.999)
    four = rng.random(n) < 0.5
    site = rng.integers(0, 3, n)
    lines = [SCORES_10K_HEADER]
    for i in range(n):
        score = f"{raw[i]:.4f}" if four[i] else f"{raw[i]:.3f}"
        truth = "pos" if outcome[i] else "neg"
        lines.append(f"r{i:05d},site-{site[i]},{truth},,{score},,,,,")
    (d / "scores_10k.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    plan = {
        "dataset": "scores_10k.csv",
        "analyses": ["riskscore"],
        "level": 0.95,
        "ci_method": "cp",
        "seed": 42,
        "params": {
            "riskscore": {
                "calibration": "slope",
                "bins": 10,
                "cutoffs": [0.1, 0.25, 0.5],
                "train_prev": 0.25,
                "target_prev": 0.1,
            }
        },
    }
    (d / "plan_scores_10k.json").write_text(json.dumps(plan, indent=2), encoding="utf-8")
    return d / "plan_scores_10k.json"


@pytest.fixture(scope="session")
def cohort_10k_plan(tmp_path_factory):
    """A seeded 10,000-subject cohort CSV and its plan; returns the plan path.

    The plan enables accuracy, qc, agreement and survival (site groups, a
    horizon, and a baseline plus an added covariate). Follow-up is in whole
    days, so the KM curves, and km.csv with them, stay short; the two lab
    columns are integers, so bland_altman.csv holds short values.
    """
    d = tmp_path_factory.mktemp("cohort_10k")
    rng = np.random.default_rng([20261018, 10_001])
    n = 10_000
    site = rng.integers(0, 3, n)
    diseased = rng.random(n) < 0.3
    flagged = rng.random(n) < np.where(diseased, 0.85, 0.1)
    age = rng.integers(40, 90, n)
    marker = np.round(rng.normal(0.0, 1.0, n), 2)
    hazard = 0.002 * np.exp(0.03 * (age - 65) + 0.4 * marker)
    event_time = rng.exponential(1.0 / hazard)
    censor_time = rng.uniform(30.0, 365.0, n)
    event = event_time <= censor_time
    days = np.maximum(1, np.ceil(np.minimum(event_time, censor_time))).astype(int)
    lab_a = rng.integers(50, 200, n)
    lab_b = lab_a + rng.integers(-6, 8, n)
    lines = ["subject_id,site_id,truth,output,time,event,age,marker,lab_a,lab_b"]
    for i in range(n):
        truth = "pos" if diseased[i] else "neg"
        output = "pos" if flagged[i] else "neg"
        lines.append(
            f"c{i:05d},site-{'abc'[site[i]]},{truth},{output},{days[i]},{int(event[i])},"
            f"{age[i]},{marker[i]:.2f},{lab_a[i]},{lab_b[i]}"
        )
    (d / "cohort_10k.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    plan = {
        "dataset": "cohort_10k.csv",
        "analyses": ["accuracy", "qc", "agreement", "survival"],
        "level": 0.95,
        "ci_method": "cp",
        "seed": 42,
        "params": {
            "accuracy": {"goal": 0.8, "pretest": 0.2},
            "agreement": {"x_col": "lab_a", "y_col": "lab_b"},
            "survival": {
                "groups_by": "site_id",
                "horizon": 180,
                "baseline_covariates": ["age"],
                "added_covariates": ["marker"],
            },
        },
    }
    (d / "plan_cohort_10k.json").write_text(json.dumps(plan, indent=2), encoding="utf-8")
    return d / "plan_cohort_10k.json"


def binary_record(subject_id, truth, label, site_id="site-1", **kwargs):
    return ValidationRecord(
        subject_id=subject_id,
        site_id=site_id,
        output=DeviceOutput.binary(label),
        truth=truth,
        **kwargs,
    )


def score_record(subject_id, value, truth=None, site_id="site-1", **kwargs):
    return ValidationRecord(
        subject_id=subject_id,
        site_id=site_id,
        output=DeviceOutput.score(value),
        truth=truth,
        **kwargs,
    )


def ungradable_record(subject_id, truth, site_id="site-1", **kwargs):
    return ValidationRecord(
        subject_id=subject_id,
        site_id=site_id,
        output=DeviceOutput.ungradable(),
        truth=truth,
        **kwargs,
    )


def survival_record(subject_id, time, event, value=0.5, site_id="site-1", **kwargs):
    return ValidationRecord(
        subject_id=subject_id,
        site_id=site_id,
        output=DeviceOutput.score(value),
        survival=Survival(time=time, event=event),
        **kwargs,
    )


def triage_records(a, b, c, d, e, f):
    """Records realizing a 3x2 triage table with the given cell counts."""
    records = []
    specs = [
        (a, Label.POSITIVE, "binary", Label.POSITIVE),
        (b, Label.POSITIVE, "binary", Label.NEGATIVE),
        (c, Label.POSITIVE, "ungradable", None),
        (d, Label.NEGATIVE, "binary", Label.POSITIVE),
        (e, Label.NEGATIVE, "binary", Label.NEGATIVE),
        (f, Label.NEGATIVE, "ungradable", None),
    ]
    i = 0
    for count, truth, kind, label in specs:
        for _ in range(count):
            if kind == "binary":
                records.append(binary_record(f"s{i:04d}", truth, label))
            else:
                records.append(ungradable_record(f"s{i:04d}", truth))
            i += 1
    return records
