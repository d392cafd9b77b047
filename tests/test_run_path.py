"""`run_plan` on the study table: no per-row records, the same messages.

The plan runner reads every analysis's arrays from the ingested
`StudyTable`. These tests count record constructions and `sort_scores` calls
during whole runs, pin the per-analysis error strings to the wording of the
record-based runners, and cover plan-level behaviour that depends on reading
the dataset once.
"""

import json
import math
from pathlib import Path

import pytest

from daval import dataset
from daval.cli import main as cli_main
from daval.report import PlanError, load_plan, plan_from_dict, report_to_dict, run_plan
from daval.riskscore import sort_scores

DEMO = Path(__file__).resolve().parent.parent / "demo"


def _write(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def _run(data, analyses, **params):
    raw = {"dataset": str(data), "analyses": analyses}
    if params:
        raw["params"] = params
    return run_plan(plan_from_dict(raw))


@pytest.fixture
def record_count(monkeypatch):
    """Number of ValidationRecord and DeviceOutput objects built so far."""
    built = {"n": 0}
    for cls in (dataset.ValidationRecord, dataset.DeviceOutput):
        original = cls.__post_init__

        def counting(self, _original=original):
            built["n"] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return built


@pytest.mark.parametrize("plan", ["plan.json", "plan_scores.json"])
def test_demo_plans_build_no_records(record_count, plan):
    report = run_plan(load_plan(DEMO / plan))
    assert not report.has_failures
    assert record_count["n"] == 0


@pytest.fixture
def sort_count(monkeypatch):
    """Number of `riskscore.sort_scores` calls so far, through every module
    that binds the name."""
    calls = {"n": 0}

    def counting(*args, **kwargs):
        calls["n"] += 1
        return sort_scores(*args, **kwargs)

    for module in ("riskscore", "report", "survival"):
        monkeypatch.setattr(f"daval.{module}.sort_scores", counting)
    return calls


@pytest.mark.parametrize("plan", ["demo", "10k"])
def test_riskscore_run_sorts_each_score_vector_once(tmp_path, sort_count, scores_10k_plan, plan, capsys):
    # One sort of the scores and one of the prevalence-scaled scores: both
    # plans scale, and every kernel reads the shared sorts.
    path = DEMO / "plan_scores.json" if plan == "demo" else scores_10k_plan
    rc = cli_main(["run", "--plan", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc == 0
    assert sort_count["n"] == 2


def test_every_table_runner_builds_no_records(tmp_path, record_count):
    calls = _write(
        tmp_path / "d.csv",
        "subject_id,site_id,truth,output",
        ["s1,a,pos,pos", "s2,a,pos,neg", "s3,b,neg,neg", "s4,b,neg,pos", "s5,b,neg,neg"],
    )
    accuracy = _run(calls, ["accuracy"], accuracy={"goal": 0.4, "pretest": 0.2})
    binary = run_plan(
        plan_from_dict(
            {
                "dataset": str(DEMO / "demo.csv"),
                "analyses": ["qc", "agreement", "survival"],
                "params": {
                    "agreement": {"x_col": "age", "y_col": "marker"},
                    "survival": {
                        "groups_by": "site_id",
                        "horizon": 2.0,
                        "baseline_covariates": ["age"],
                        "added_covariates": ["marker"],
                    },
                },
            }
        )
    )
    replicated = run_plan(
        plan_from_dict(
            {
                "dataset": str(DEMO / "precision.csv"),
                "analyses": ["agreement", "precision"],
                "params": {
                    "agreement": {"x_col": "method_a", "y_col": "method_b"},
                    "precision": {"condition_fields": ["operator_id", "device_unit_id"]},
                },
            }
        )
    )
    assert not any(r.has_failures for r in (accuracy, binary, replicated))
    assert "cox" in binary.results["survival"] and "logrank" in binary.results["survival"]
    assert record_count["n"] == 0


def test_the_same_study_as_records_builds_them(record_count):
    # The counter sees constructions: reading the records of an ingest does.
    result = dataset.ingest_csv(DEMO / "scores.csv")
    assert len(result.records) == len(result.table) and record_count["n"] == 0
    assert result.records[0].subject_id == "q001"
    assert record_count["n"] == 2 * len(result.table)


def test_riskscore_on_binary_outputs_error(tmp_path):
    data = _write(tmp_path / "d.csv", "subject_id,truth,output", ["s1,pos,pos", "s2,neg,neg"])
    block = _run(data, ["riskscore"]).results["riskscore"]
    assert block["error"] == (
        "ValueError: risk-score analysis needs Score outputs; subject 's1' has 'binary'"
    )


def test_riskscore_on_missing_truth_error(tmp_path):
    data = _write(tmp_path / "d.csv", "subject_id,truth,score", ["s1,pos,0.2", "s2,,0.4", "s3,neg,0.9"])
    block = _run(data, ["riskscore"]).results["riskscore"]
    assert block["error"] == "ValueError: subject 's2' has no reference truth"


def test_survival_duplicate_subject_error(tmp_path):
    data = _write(
        tmp_path / "d.csv",
        "subject_id,output,time,event",
        ["s1,pos,1.0,1", "s2,neg,2.0,0", "s3,neg,3.0,1", "s2,pos,4.0,1"],
    )
    block = _run(data, ["survival"]).results["survival"]
    assert block["error"] == (
        "ValueError: duplicate subject 's2': recurrent-event data is not supported"
    )


def test_survival_missing_follow_up_error(tmp_path):
    data = _write(
        tmp_path / "d.csv",
        "subject_id,output,time,event",
        ["s1,pos,1.0,1", "s2,neg,,", "s1,pos,4.0,1"],
    )
    block = _run(data, ["survival"]).results["survival"]
    assert block["error"] == "ValueError: subject 's2' has no follow-up data"


def test_survival_covariate_and_group_errors(tmp_path):
    data = _write(
        tmp_path / "d.csv",
        "subject_id,output,time,event,age,arm",
        ["s1,pos,1.0,1,50,1", "s2,neg,2.0,0,,2", "s3,neg,3.0,1,70,"],
    )
    cox = _run(data, ["survival"], survival={"baseline_covariates": ["age"]})
    assert cox.results["survival"]["error"] == "ValueError: subject 's2' lacks covariate 'age'"
    grouped = _run(data, ["survival"], survival={"groups_by": "arm"})
    assert grouped.results["survival"]["error"] == "ValueError: subject 's3' has no 'arm' value"


def test_agreement_missing_value_error(tmp_path):
    data = _write(
        tmp_path / "d.csv",
        "subject_id,output,m1,m2",
        ["s1,pos,1.0,1.1", "s2,neg,2.0,", "s3,neg,3.0,2.9"],
    )
    block = _run(data, ["agreement"], agreement={"x_col": "m1", "y_col": "m2"}).results["agreement"]
    assert block["error"] == "ValueError: subject 's2' lacks a value for 'm1'/'m2'"


def test_qc_on_score_outputs_error(tmp_path):
    data = _write(tmp_path / "d.csv", "subject_id,truth,output,score", ["s1,pos,,0.7", "s2,neg,neg,"])
    block = _run(data, ["qc"]).results["qc"]
    assert block["error"] == (
        "ValueError: record 's1' has a score output; threshold scores before triage"
    )


def test_accuracy_and_precision_output_errors(tmp_path):
    data = _write(
        tmp_path / "d.csv",
        "subject_id,truth,output,operator_id,device_unit_id",
        ["s1,pos,pos,op1,u1", "s2,neg,ungradable,op1,u1"],
    )
    report = _run(data, ["accuracy", "precision"])
    assert report.results["accuracy"]["error"] == (
        "ValueError: record 's2' has ungradable output; 2x2 accuracy requires binary "
        "outputs (route ungradables to qc triage)"
    )
    assert report.results["precision"]["error"] == (
        "ValueError: precision analysis needs Score outputs, got 'binary' for subject 's1'"
    )


def test_padded_header_resolves_plan_columns(tmp_path):
    data = _write(
        tmp_path / "d.csv",
        "subject_id, site_id, truth, output, m1, m2",
        ["s1,a,pos,pos,1.0,1.2", "s2,a,neg,neg,2.0,1.9", "s3,b,pos,pos,3.0,3.1"],
    )
    report = _run(data, ["agreement"], agreement={"x_col": "m1", "y_col": "m2"})
    block = report.results["agreement"]
    assert "error" not in block
    assert block["bland_altman"]["n"] == 3


def test_pretest_with_undefined_likelihood_ratio_reports_nan(tmp_path):
    # Every output positive: fn = tn = 0, so LR- = 0/0 and the risk after a
    # negative result is undefined; the rest of the block still reports.
    data = _write(
        tmp_path / "d.csv",
        "subject_id,truth,output",
        ["s1,pos,pos", "s2,pos,pos", "s3,neg,pos", "s4,neg,pos"],
    )
    report = _run(data, ["accuracy"], accuracy={"goal": 0.5, "pretest": 0.3})
    assert not report.has_failures
    block = report.results["accuracy"]
    assert block["counts"] == {"tp": 2, "fp": 2, "fn": 0, "tn": 0}
    assert math.isnan(block["posttest"]["after_negative"])
    assert block["posttest"]["after_positive"] == pytest.approx(0.3)
    assert "goal_tests" in block
    assert report_to_dict(report)["results"]["accuracy"]["posttest"]["after_negative"] == "nan"


def test_non_utf8_dataset_exits_one_naming_file_and_byte(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(
        "subject_id,site_id,truth,output\ns1,Zürich,pos,pos\ns2,a,neg,neg\n".encode("latin-1")
    )
    plan = tmp_path / "plan.json"
    plan.write_text(f'{{"dataset": "{data.name}", "analyses": ["qc"]}}', encoding="utf-8")
    assert cli_main(["run", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "latin1.csv is not UTF-8 text: byte 36 is 0xfc" in err
    assert "Traceback" not in err


def test_survival_groups_by_text_column_fails_before_any_analysis(tmp_path):
    data = _write(
        tmp_path / "d.csv",
        "subject_id,output,time,event,arm",
        ["s1,pos,1.0,1,A", "s2,neg,2.0,0,B", "s3,neg,3.0,1,A"],
    )
    with pytest.raises(PlanError, match=r"survival.groups_by column 'arm' was excluded by "
                       r"ingest as non-numeric"):
        _run(data, ["qc", "survival"], survival={"groups_by": "arm"})


REPLICATE_ROWS = ["s1,pos,1.0,1,0", "s2,neg,2.0,0,1", "s3,neg,3.0,1,0"]


def test_survival_groups_by_replicate_index_reads_the_record_field(tmp_path):
    data = _write(tmp_path / "d.csv", "subject_id,output,time,event,replicate_index", REPLICATE_ROWS)
    report = _run(data, ["survival"], survival={"groups_by": "replicate_index"})
    assert not report.has_failures
    groups = report.results["survival"]["groups"]
    assert sorted(groups) == ["0", "1"]
    assert (groups["0"]["n"], groups["1"]["n"]) == (2, 1)


def test_survival_groups_by_replicate_index_from_the_command_line(tmp_path, capsys):
    data = _write(tmp_path / "d.csv", "subject_id,output,time,event,replicate_index", REPLICATE_ROWS)
    assert cli_main(["survival", str(data), "--groups-by", "replicate_index"]) == 0
    block = json.loads(capsys.readouterr().out)["results"]["survival"]
    assert block["groups_by"] == "replicate_index"
    assert sorted(block["groups"]) == ["0", "1"]


@pytest.mark.parametrize(
    "analysis, params, key",
    [
        ("agreement", {"x_col": "arm", "y_col": "age"}, "agreement.x_col"),
        ("agreement", {"x_col": "age", "y_col": "arm"}, "agreement.y_col"),
        ("survival", {"baseline_covariates": ["age", "arm"]}, "survival.baseline_covariates"),
        (
            "survival",
            {"baseline_covariates": ["age"], "added_covariates": ["arm"]},
            "survival.added_covariates",
        ),
        ("survival", {"groups_by": "arm"}, "survival.groups_by"),
    ],
)
def test_text_column_where_numbers_are_needed_exits_one(tmp_path, capsys, analysis, params, key):
    data = _write(
        tmp_path / "d.csv",
        "subject_id,output,time,event,age,arm",
        ["s1,pos,1.0,1,50,A", "s2,neg,2.0,0,60,B", "s3,neg,3.0,1,70,A"],
    )
    with pytest.raises(PlanError, match=rf"^{key} column 'arm' was excluded by ingest as non-numeric"):
        _run(data, ["qc", analysis], **{analysis: params})
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({"dataset": data.name, "analyses": [analysis], "params": {analysis: params}}),
        encoding="utf-8",
    )
    assert cli_main(["run", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {key} column 'arm' was excluded" in err
    assert not (tmp_path / "out").exists()
