"""Plan parameters: one description behind validation, column checks and the CLI.

Each single-analysis subcommand synthesizes a plan and runs it through
`run_plan`, so a command line and the equivalent plan document must give the
same report, and the synthesized plans (hence their hashes) are pinned. Every
parameter error the plan validator and the column checks raise has a row here.
"""

import argparse
import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from daval.cli import build_parser
from daval.cli import main as cli_main
from daval.report import (
    ANALYSES,
    PlanError,
    canonical_hash,
    plan_from_dict,
    report_to_dict,
    run_plan,
)
from daval.riskscore import fit_recalibration, prevalence_scale

DEMO = Path(__file__).resolve().parent.parent / "demo"

BINARY_ROWS = [
    "s1,a,pos,pos", "s2,a,pos,pos", "s3,a,pos,neg", "s4,b,neg,neg",
    "s5,b,neg,neg", "s6,b,neg,pos", "s7,c,pos,pos", "s8,c,neg,neg",
]


@pytest.fixture
def datasets(tmp_path, monkeypatch):
    """The working directory holds binary.csv and the demo CSVs, named relatively."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DAVAL_SEED", raising=False)
    lines = ["subject_id,site_id,truth,output"] + BINARY_ROWS
    (tmp_path / "binary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name in ("demo.csv", "scores.csv", "precision.csv"):
        shutil.copy(DEMO / name, tmp_path / name)
    return tmp_path


# (subcommand, dataset, every analysis flag, the plan parameters those flags mean)
ALL_FLAGS = [
    ("accuracy", "binary.csv", ["--goal", "0.6", "--alpha", "0.1", "--pretest", "0.3"],
     {"goal": 0.6, "alpha": 0.1, "pretest": 0.3}),
    ("qc", "demo.csv", [], {}),
    ("riskscore", "scores.csv",
     ["--calibration", "large", "--bins", "5", "--train-prev", "0.4", "--target-prev", "0.2",
      "--cutoffs", "0.2,0.5", "--dca-grid", "0.1,0.2,0.3"],
     {"calibration": "large", "bins": 5, "train_prev": 0.4, "target_prev": 0.2,
      "cutoffs": [0.2, 0.5], "dca_grid": [0.1, 0.2, 0.3]}),
    ("agreement", "precision.csv", ["--x-col", "method_a", "--y-col", "method_b", "--lambda", "2.0"],
     {"x_col": "method_a", "y_col": "method_b", "lambda": 2.0}),
    ("precision", "precision.csv", ["--condition-fields", "operator_id"],
     {"condition_fields": ["operator_id"]}),
    ("survival", "demo.csv",
     ["--groups-by", "site_id", "--horizon", "1.0", "--baseline-covariates", "age",
      "--added-covariates", "marker"],
     {"groups_by": "site_id", "horizon": 1.0, "baseline_covariates": ["age"],
      "added_covariates": ["marker"]}),
]

# The smallest command line of each subcommand: required flags only.
DEFAULT_FLAGS = {
    "accuracy": ("binary.csv", []),
    "qc": ("demo.csv", []),
    "riskscore": ("scores.csv", []),
    "agreement": ("precision.csv", ["--x-col", "method_a", "--y-col", "method_b"]),
    "precision": ("precision.csv", []),
    "survival": ("demo.csv", []),
}

# The plan each smallest command line synthesizes: the CLI writes its flag
# defaults (alpha, calibration, bins, condition_fields) and nothing else unset.
DEFAULT_PARAMS = {
    "accuracy": {"alpha": 0.05},
    "qc": None,
    "riskscore": {"calibration": "slope", "bins": 10},
    "agreement": {"x_col": "method_a", "y_col": "method_b"},
    "precision": {"condition_fields": ["operator_id", "device_unit_id"]},
    "survival": None,
}
DEFAULT_HASHES = {
    "accuracy": "a4e3cda83533c00ba5912206d4654efcd68ce0166d6bd973ee79bc47205ea68c",
    "qc": "650e65f2c1521b81ec5f4aa3b2df3aff4549e87dee58dcfebbca7b9183b25409",
    "riskscore": "adbd58e4109ff70a5ae63f480c65790059321fe08df442503a599be59a226bb2",
    "agreement": "096ec7d2c7a9e4b4624df767091422f61061b42aaf57001adf4010491221ba4e",
    "precision": "fc53f402a17e0316c680cb85eae36996cf99781c6e6875c09b94848665ac5358",
    "survival": "41c579d6e02672743244fde11cf44aeef82b6dde5710733c8274858b48522348",
}
ALL_FLAG_HASHES = {
    "accuracy": "c164da078c45c0415308fba8bef6e4e36cd698b0463556ebc0b94c9eec60c7f3",
    "qc": "2f1ad4dcabbc84eb1b5ed579eac4412cc8a61698a6895025526bfd5c891f81db",
    "riskscore": "e67f627512adb8151b8153dd6b9d7b977dcc669c42ae537848a0e921fd6fb0b4",
    "agreement": "2ed99a23bbb46a478a6b5495d7d45aabdab315d148542a60a1ecddf4eb8e278d",
    "precision": "5dbb0e849d53604b2b2e7d2450081defc4b3a70215994667e9fe2ee8e034680a",
    "survival": "e67be8192e6a071bcde40fa97888d8304ee607636a027bd0d030ee2637413072",
}


def _cli_json(capsys, argv):
    rc = cli_main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("command, dataset, flags, params", ALL_FLAGS, ids=[r[0] for r in ALL_FLAGS])
def test_cli_with_every_flag_matches_the_equivalent_plan(datasets, capsys, command, dataset, flags, params):
    common = ["--level", "0.9", "--ci-method", "wilson", "--seed", "7"]
    rc, out = _cli_json(capsys, [command, dataset, *flags, *common])
    raw = {"dataset": dataset, "analyses": [command], "level": 0.9, "ci_method": "wilson", "seed": 7}
    if params:
        raw["params"] = {command: params}
    report = run_plan(plan_from_dict(raw))
    assert rc == (2 if report.has_failures else 0)
    assert not report.has_failures
    assert out == json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["plan_hash"] == ALL_FLAG_HASHES[command]


@pytest.mark.parametrize("command", list(DEFAULT_FLAGS))
def test_cli_default_plan_hash_is_pinned(datasets, capsys, command):
    dataset, flags = DEFAULT_FLAGS[command]
    rc, out = _cli_json(capsys, [command, dataset, *flags])
    assert rc == 0
    assert json.loads(out)["plan_hash"] == DEFAULT_HASHES[command]
    raw = {"dataset": dataset, "analyses": [command], "level": 0.95, "ci_method": "cp"}
    if DEFAULT_PARAMS[command] is not None:
        raw["params"] = {command: DEFAULT_PARAMS[command]}
    assert canonical_hash(raw) == DEFAULT_HASHES[command]


def _exact(message):
    return "^" + re.escape(message) + "$"


# (analysis, parameters, pattern the PlanError message must match)
PARAM_ERRORS = [
    ("accuracy", {"goal": "high"}, _exact("accuracy.goal must be a number, got 'high'")),
    ("accuracy", {"alpha": 1.0}, _exact("accuracy.alpha must lie in (0, 1), got 1.0")),
    ("accuracy", {"pretest": True}, _exact("accuracy.pretest must be a number, got True")),
    ("accuracy", {"oops": 1}, _exact("unknown accuracy parameters: ['oops']")),
    ("riskscore", {"calibration": "steep"}, _exact("riskscore.calibration must be 'large' or 'slope'")),
    ("riskscore", {"bins": 1}, _exact("riskscore.bins must be an integer >= 2")),
    ("riskscore", {"bins": True}, _exact("riskscore.bins must be an integer >= 2")),
    ("riskscore", {"bins": 2.0}, _exact("riskscore.bins must be an integer >= 2")),
    ("riskscore", {"train_prev": 0.4}, r"train_prev and \S*target_prev"),
    ("riskscore", {"target_prev": 0.2}, r"train_prev and \S*target_prev"),
    ("riskscore", {"train_prev": 0, "target_prev": 0.2},
     _exact("riskscore.train_prev must lie in (0, 1), got 0")),
    ("riskscore", {"train_prev": 0.4, "target_prev": "0.2"},
     _exact("riskscore.target_prev must be a number, got '0.2'")),
    ("riskscore", {"cutoffs": []}, _exact("riskscore.cutoffs must be a nonempty list")),
    ("riskscore", {"thresholds": "0.5"}, _exact("riskscore.thresholds must be a nonempty list")),
    ("riskscore", {"dca_grid": [0.1, 2]}, _exact("riskscore.dca_grid entry must lie in (0, 1), got 2")),
    ("riskscore", {"thresholds": [0.1, None]},
     _exact("riskscore.thresholds entry must be a number, got None")),
    ("riskscore", {"cutoffs": [0.5, 0.2]}, _exact("riskscore.cutoffs must be ascending")),
    ("agreement", {"x_col": "", "y_col": "b"}, _exact("agreement.x_col must be a column name")),
    ("agreement", {"x_col": "a", "y_col": 3}, _exact("agreement.y_col must be a column name")),
    ("agreement", {"x_col": "a", "y_col": "b", "lambda": 0},
     _exact("agreement.lambda must be a positive number")),
    ("agreement", {"x_col": "a", "y_col": "b", "lambda": True},
     _exact("agreement.lambda must be a positive number")),
    ("agreement", {"y_col": "b"}, _exact("agreement analysis needs 'x_col' and 'y_col' parameters")),
    ("precision", {"condition_fields": []},
     _exact("precision.condition_fields must be a list of field names")),
    ("precision", {"condition_fields": ["operator_id", 1]},
     _exact("precision.condition_fields must be a list of field names")),
    ("survival", {"groups_by": ""}, _exact("survival.groups_by must be a field or covariate name")),
    ("survival", {"horizon": -1}, _exact("survival.horizon must be a nonnegative number")),
    ("survival", {"horizon": "2"}, _exact("survival.horizon must be a nonnegative number")),
    ("survival", {"baseline_covariates": "age"},
     _exact("survival.baseline_covariates must be a list of covariate names")),
    ("survival", {"added_covariates": ["age", ""]},
     _exact("survival.added_covariates must be a list of covariate names")),
]


@pytest.mark.parametrize("analysis, params, pattern", PARAM_ERRORS)
def test_plan_parameter_errors(analysis, params, pattern):
    raw = {"dataset": "d.csv", "analyses": [analysis], "params": {analysis: params}}
    with pytest.raises(PlanError, match=pattern):
        plan_from_dict(raw)


# (analysis, parameters, mapping, pattern): each names a column demo.csv lacks
# (run without its operator_id column), or where numbers are needed, one that
# ingest reads as a canonical column; the last two name its device_unit_id
# column, which is empty in every row. A pattern with alternatives accepts the
# key-named wording of the message.
COLUMN_ERRORS = [
    ("qc", {}, {"truth": "gold"}, _exact("mapped column 'gold' (for truth) not in dataset")),
    ("agreement", {"x_col": "lab_z", "y_col": "age"}, {},
     _exact("agreement.x_col column 'lab_z' not in dataset")),
    ("agreement", {"x_col": "age", "y_col": "lab_z"}, {},
     _exact("agreement.y_col column 'lab_z' not in dataset")),
    ("survival", {"baseline_covariates": ["age", "zzz"]}, {}, r"^survival(\.\w+| covariate) column 'zzz' not in dataset$"),
    ("survival", {"added_covariates": ["zzz"]}, {}, r"^survival(\.\w+| covariate) column 'zzz' not in dataset$"),
    ("survival", {"groups_by": "zzz"}, {},
     _exact("survival.groups_by 'zzz' is neither a record field nor a column")),
    ("precision", {"condition_fields": ["device_unit_id", "age"]}, {},
     r"^precision(\.condition_fields| condition field) 'age' is not a record field$"),
    ("agreement", {"x_col": "time", "y_col": "age"}, {},
     _exact("agreement.x_col column 'time' is a canonical column, not a numeric covariate")),
    ("agreement", {"x_col": "age", "y_col": "score"}, {},
     _exact("agreement.y_col column 'score' is a canonical column, not a numeric covariate")),
    ("survival", {"baseline_covariates": ["time"]}, {},
     _exact("survival.baseline_covariates column 'time' is a canonical column, not a numeric covariate")),
    ("survival", {"baseline_covariates": ["age"], "added_covariates": ["event"]}, {},
     _exact("survival.added_covariates column 'event' is a canonical column, not a numeric covariate")),
    ("survival", {"groups_by": "subject_id"}, {},
     _exact("survival.groups_by column 'subject_id' is a canonical column, not a numeric covariate")),
    ("survival", {"baseline_covariates": ["marker"]}, {"time": "marker"},
     _exact("survival.baseline_covariates column 'marker' is a canonical column, not a numeric covariate")),
    ("survival", {"groups_by": "operator_id"}, {},
     _exact("survival.groups_by record field 'operator_id' has no column in the dataset")),
    ("precision", {"condition_fields": ["device_unit_id", "operator_id"]}, {},
     _exact("precision.condition_fields record field 'operator_id' has no column in the dataset")),
    ("precision", {"condition_fields": ["device_unit_id"]}, {},
     _exact("precision.condition_fields record field 'device_unit_id' has no value in any row")),
    ("survival", {"groups_by": "device_unit_id"}, {},
     _exact("survival.groups_by record field 'device_unit_id' has no value in any row")),
]


@pytest.fixture(scope="module")
def demo_without_operator(tmp_path_factory):
    with (DEMO / "demo.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index("operator_id")
    path = tmp_path_factory.mktemp("columns") / "demo.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(row[:j] + row[j + 1:] for row in rows)
    return path


@pytest.mark.parametrize("analysis, params, mapping, pattern", COLUMN_ERRORS)
def test_plan_column_errors(demo_without_operator, analysis, params, mapping, pattern):
    raw = {"dataset": str(demo_without_operator), "analyses": [analysis], "params": {analysis: params}}
    if mapping:
        raw["mapping"] = mapping
    plan = plan_from_dict(raw)
    with pytest.raises(PlanError, match=pattern):
        run_plan(plan)


def test_riskscore_thresholds_flag_matches_the_plan_parameter(datasets, capsys):
    rc, out = _cli_json(capsys, ["riskscore", "scores.csv", "--thresholds", "0.25,0.5"])
    raw = {
        "dataset": "scores.csv", "analyses": ["riskscore"], "level": 0.95, "ci_method": "cp",
        "params": {"riskscore": {"calibration": "slope", "bins": 10, "thresholds": [0.25, 0.5]}},
    }
    assert rc == 0
    assert out == json.dumps(report_to_dict(run_plan(plan_from_dict(raw))), indent=2, sort_keys=True) + "\n"
    grid = json.loads(out)["results"]["riskscore"]["threshold_grid"]
    assert [row["threshold"] for row in grid] == [0.25, 0.5]


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


COMMON_DESTS = {"help", "dataset", "level", "ci_method", "out", "format", "seed"}


@pytest.mark.parametrize("analysis", list(ANALYSES))
def test_subcommand_flags_are_the_plan_parameters(analysis):
    flags = {
        action.dest: action.option_strings
        for action in _subcommands()[analysis]._actions
        if action.dest not in COMMON_DESTS
    }
    # One flag per plan parameter, named after it, and nothing else.
    assert set(flags) == {param.name for param in ANALYSES[analysis].params}
    for dest, options in flags.items():
        assert options == ["--" + dest.replace("_", "-")]
        # The plan accepts the key: a bad value fails its check, not as unknown.
        raw = {"dataset": "d.csv", "analyses": [analysis], "params": {analysis: {dest: {"bad": 1}}}}
        with pytest.raises(PlanError) as exc:
            plan_from_dict(raw)
        assert "unknown" not in str(exc.value)
    raw = {"dataset": "d.csv", "analyses": [analysis], "params": {analysis: {"no_such_flag": 1}}}
    with pytest.raises(PlanError, match=f"unknown {analysis} parameters"):
        plan_from_dict(raw)


def test_every_analysis_has_a_subcommand():
    assert set(_subcommands()) == set(ANALYSES) | {"simulate", "run"}


def test_prevalence_scaling_keeps_scores_of_exactly_zero_and_one(tmp_path, capsys):
    # Scores of 0 and 1 are certain at any prevalence, so scaling maps them to
    # themselves; the scores inside (0, 1) scale exactly as prevalence_scale does.
    scores = [0.0, 0.1, 0.3, 0.4, 0.6, 0.7, 0.9, 1.0]
    truth = ["neg", "neg", "pos", "neg", "pos", "neg", "pos", "pos"]
    lines = ["subject_id,truth,score"] + [f"s{i},{t},{v}" for i, (t, v) in enumerate(zip(truth, scores))]
    data = tmp_path / "edges.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli_main(["riskscore", str(data), "--train-prev", "0.5", "--target-prev", "0.2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)["results"]["riskscore"]
    assert "error" not in doc

    raw = {"dataset": str(data), "analyses": ["riskscore"],
           "params": {"riskscore": {"train_prev": 0.5, "target_prev": 0.2}}}
    block = run_plan(plan_from_dict(raw)).results["riskscore"]
    values = np.array(scores)
    scaled = np.concatenate([[0.0], prevalence_scale(values[1:-1], 0.5, 0.2), [1.0]])
    fit = fit_recalibration(scaled, np.array(truth) == "pos")
    after = block["prevalence_scaling"]["calibration_after_scaling"]
    assert (after["intercept"], after["slope"]) == (fit.intercept, fit.slope)
    # Scaling is strictly increasing inside (0, 1), so the ranking is kept.
    assert block["prevalence_scaling"]["auc_after_scaling"] == block["discrimination"]["auc"]
