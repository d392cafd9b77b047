"""Plan validation, report assembly, file emission, and the command line."""

import argparse
import csv
import json
import os

import pytest

from daval import cli
from daval.cli import main as cli_main
from daval.dataset import ingest_csv
from daval.report import (
    ANALYSES,
    IngestError,
    PlanError,
    canonical_hash,
    emit_report,
    load_plan,
    plan_from_dict,
    render_markdown,
    report_to_dict,
    run_plan,
)


def write_binary_csv(path, rows=None):
    """A small gradable dataset: header plus (truth, output) rows."""
    if rows is None:
        rows = [
            ("s1", "positive", "positive"),
            ("s2", "positive", "positive"),
            ("s3", "positive", "negative"),
            ("s4", "negative", "negative"),
            ("s5", "negative", "negative"),
            ("s6", "negative", "positive"),
            ("s7", "positive", "positive"),
            ("s8", "negative", "negative"),
        ]
    lines = ["subject_id,truth,output"]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_paired_csv(path):
    """Scores plus two extra numeric columns for method-agreement runs."""
    lines = ["subject_id,truth,score,lab_a,lab_b"]
    vals = [0.12, 0.35, 0.51, 0.66, 0.74, 0.83, 0.29, 0.58, 0.91, 0.44]
    flags = [0, 0, 1, 0, 1, 1, 1, 1, 1, 0]
    for i, (v, f) in enumerate(zip(vals, flags)):
        truth = "positive" if f else "negative"
        lines.append(f"p{i},{truth},{v},{v * 10:.3f},{v * 10 + 0.5:.3f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def plan_dict(dataset, analyses, **extra):
    raw = {"dataset": str(dataset), "analyses": analyses}
    raw.update(extra)
    return raw


def test_canonical_hash_is_order_invariant():
    a = {"dataset": "d.csv", "analyses": ["accuracy"], "level": 0.95}
    b = {"level": 0.95, "analyses": ["accuracy"], "dataset": "d.csv"}
    assert canonical_hash(a) == canonical_hash(b)
    assert len(canonical_hash(a)) == 64
    assert set(canonical_hash(a)) <= set("0123456789abcdef")
    c = dict(a, level=0.9)
    assert canonical_hash(c) != canonical_hash(a)


def test_plan_defaults_and_relative_paths(tmp_path):
    plan = plan_from_dict({"dataset": "data.csv", "analyses": []}, base_dir=tmp_path)
    assert plan.level == 0.95
    assert plan.ci_method.value == "cp"
    assert plan.seed is None
    assert plan.dataset == tmp_path / "data.csv"

    absolute = tmp_path / "elsewhere.csv"
    plan2 = plan_from_dict({"dataset": str(absolute), "analyses": []}, base_dir=tmp_path / "sub")
    assert plan2.dataset == absolute


@pytest.mark.parametrize(
    "raw, fragment",
    [
        (["not", "a", "dict"], "JSON object"),
        ({"dataset": "d.csv", "analyses": [], "bogus": 1}, "unknown plan keys"),
        ({"analyses": []}, "'dataset' path"),
        ({"dataset": "", "analyses": []}, "'dataset' path"),
        ({"dataset": "d.csv"}, "'analyses' list"),
        ({"dataset": "d.csv", "analyses": ["sorcery"]}, "unknown analyses"),
        ({"dataset": "d.csv", "analyses": ["qc", "qc"]}, "duplicate"),
        ({"dataset": "d.csv", "analyses": [], "mapping": {"nonsense": "x"}}, "canonical columns"),
        ({"dataset": "d.csv", "analyses": [], "mapping": {"truth": 3}}, "string-to-string"),
        ({"dataset": "d.csv", "analyses": [], "level": 1.2}, "lie in (0, 1)"),
        ({"dataset": "d.csv", "analyses": [], "level": True}, "must be a number"),
        ({"dataset": "d.csv", "analyses": [], "ci_method": "exactish"}, "'cp' or 'wilson'"),
        ({"dataset": "d.csv", "analyses": [], "seed": True}, "seed must be an integer"),
        ({"dataset": "d.csv", "analyses": [], "seed": 1.5}, "seed must be an integer"),
        ({"dataset": "d.csv", "analyses": [], "params": {"qc": {}}}, "not enabled"),
        ({"dataset": "d.csv", "analyses": ["accuracy"], "params": {"accuracy": {"oops": 1}}},
         "unknown accuracy parameters"),
        ({"dataset": "d.csv", "analyses": ["agreement"]}, "x_col"),
        ({"dataset": "d.csv", "analyses": ["agreement"],
          "params": {"agreement": {"x_col": "a"}}}, "y_col"),
    ],
)
def test_plan_rejects_malformed_documents(raw, fragment):
    with pytest.raises(PlanError) as exc:
        plan_from_dict(raw)
    assert fragment in str(exc.value).replace("'y_col'", "y_col").replace("'x_col'", "x_col")


def test_run_plan_pretest_without_false_negatives(tmp_path):
    # Sensitivity 1 leaves the fn cell empty, so LR- = 0 and the post-test
    # risk after a negative result is 0 rather than an error.
    data = tmp_path / "sim.csv"
    assert cli_main([
        "simulate", "--kind", "binary", "--n", "200", "--prevalence", "0.3",
        "--sensitivity", "1.0", "--specificity", "0.8", "--seed", "5", "--out", str(data),
    ]) == 0
    plan = plan_from_dict(
        plan_dict(data, ["accuracy"], params={"accuracy": {"pretest": 0.25}})
    )
    report = run_plan(plan)

    assert not report.has_failures
    block = report.results["accuracy"]
    assert block["counts"]["fn"] == 0 and block["counts"]["tp"] > 0
    assert block["lr_neg"]["estimate"] == 0.0
    assert block["posttest"]["after_negative"] == 0.0
    assert 0.25 < block["posttest"]["after_positive"] < 1.0


def test_load_plan_errors(tmp_path):
    with pytest.raises(PlanError, match="not found"):
        load_plan(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(PlanError, match="not valid JSON"):
        load_plan(bad)


def test_run_plan_accuracy_block(tmp_path):
    data = write_binary_csv(tmp_path / "d.csv")
    plan = plan_from_dict(
        plan_dict(data, ["accuracy"], params={"accuracy": {"goal": 0.5, "pretest": 0.25}})
    )
    report = run_plan(plan)

    assert not report.has_failures
    block = report.results["accuracy"]
    assert block["counts"] == {"tp": 3, "fp": 1, "fn": 1, "tn": 3}
    assert block["sensitivity"]["estimate"] == pytest.approx(0.75)
    assert block["sensitivity"]["lower"] < 0.75 < block["sensitivity"]["upper"]
    assert block["specificity"]["estimate"] == pytest.approx(0.75)
    assert set(block["posttest"]) == {"pretest", "after_positive", "after_negative"}
    assert set(block["goal_tests"]) == {"sensitivity", "specificity"}

    assert report.plan_hash == canonical_hash(
        plan_dict(data, ["accuracy"], params={"accuracy": {"goal": 0.5, "pretest": 0.25}})
    )
    assert report.dataset_fingerprint["rows"] == 8
    assert len(report.dataset_fingerprint["sha256"]) == 64
    assert report.tool_version


def test_run_plan_dataset_errors(tmp_path):
    plan = plan_from_dict(plan_dict(tmp_path / "missing.csv", ["qc"]))
    with pytest.raises(IngestError, match="not found"):
        run_plan(plan)

    bad = tmp_path / "bad.csv"
    bad.write_text("subject_id,truth,score\ns1,positive,1.4\n", encoding="utf-8")
    with pytest.raises(IngestError, match="row 1: score out of range"):
        run_plan(plan_from_dict(plan_dict(bad, ["riskscore"])))

    empty = tmp_path / "empty.csv"
    empty.write_text("subject_id,truth,score\n", encoding="utf-8")
    with pytest.raises(IngestError, match="no data rows"):
        run_plan(plan_from_dict(plan_dict(empty, ["riskscore"])))


def test_referenced_columns_checked_before_compute(tmp_path):
    data = write_binary_csv(tmp_path / "d.csv")
    plan = plan_from_dict(
        plan_dict(
            data,
            ["agreement"],
            params={"agreement": {"x_col": "lab_a", "y_col": "score"}},
        )
    )
    with pytest.raises(PlanError, match="lab_a"):
        run_plan(plan)

    plan2 = plan_from_dict(
        plan_dict(data, ["survival"], params={"survival": {"groups_by": "arm"}})
    )
    with pytest.raises(PlanError, match="arm"):
        run_plan(plan2)

    plan3 = plan_from_dict(
        plan_dict(data, ["accuracy"], mapping={"truth": "gold_standard"})
    )
    with pytest.raises(PlanError, match="gold_standard"):
        run_plan(plan3)


def test_km_group_name_with_a_bare_carriage_return_reads_back(tmp_path):
    # csv.writer with a `\n` terminator leaves a bare `\r` unquoted, and a
    # reader then splits the row there; the plot CSVs quote it.
    data = tmp_path / "d.csv"
    data.write_text(
        "subject_id,site_id,output,time,event\n"
        's1,"a\rb",pos,1.0,1\n'
        's2,"a\rb",neg,2.0,1\n'
        's3,c,neg,1.5,1\n',
        encoding="utf-8",
        newline="",
    )
    plan = plan_from_dict(plan_dict(data, ["survival"], params={"survival": {"groups_by": "site_id"}}))
    emit_report(run_plan(plan), tmp_path / "out")
    with open(tmp_path / "out" / "km.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "time", "survival", "lower", "upper", "at_risk"]
    assert [r[0] for r in rows[1:]] == ["all"] * 3 + ["a\rb"] * 2 + ["c"]
    assert [r[1] for r in rows[1:]] == ["1.0", "1.5", "2.0", "1.0", "2.0", "1.5"]
    assert all(len(r) == 6 for r in rows)


def test_analysis_failure_is_isolated(tmp_path):
    # Scores but no binary labels: accuracy cannot tally a 2x2 table while
    # the risk-score block still runs, so the report carries both outcomes.
    data = write_paired_csv(tmp_path / "scores.csv")
    plan = plan_from_dict(plan_dict(data, ["accuracy", "riskscore"]))
    report = run_plan(plan)

    assert report.has_failures
    assert "error" in report.results["accuracy"]
    assert "error" not in report.results["riskscore"]
    assert report.results["riskscore"]["discrimination"]["auc"] == pytest.approx(19 / 24)

    md = render_markdown(report)
    assert "Analysis failed:" in md
    assert "## Risk-score validation" in md


def test_report_dict_survives_json_with_inf(tmp_path):
    # Every healthy subject flagged negative makes the positive-row
    # likelihood ratio infinite; the JSON document must still be valid.
    rows = [
        ("s1", "positive", "positive"),
        ("s2", "positive", "positive"),
        ("s3", "positive", "negative"),
        ("s4", "negative", "negative"),
        ("s5", "negative", "negative"),
    ]
    data = write_binary_csv(tmp_path / "d.csv", rows)
    report = run_plan(plan_from_dict(plan_dict(data, ["qc"])))
    doc = report_to_dict(report)
    payload = json.dumps(doc, sort_keys=True)
    parsed = json.loads(payload)
    positive = next(r for r in parsed["results"]["qc"]["rows"] if r["name"] == "positive")
    assert positive["likelihood_ratio"]["estimate"] == "inf"
    assert set(doc) == {
        "tool_version",
        "plan_hash",
        "dataset",
        "level",
        "ci_method",
        "seed",
        "results",
        "warnings",
    }


def test_render_markdown_structure(tmp_path):
    data = write_binary_csv(tmp_path / "d.csv")
    raw = plan_dict(data, ["accuracy", "qc"], seed=11)
    report = run_plan(plan_from_dict(raw))
    md = render_markdown(report)

    assert md.startswith("# Validation report")
    assert f"- plan hash: `{report.plan_hash}`" in md
    assert "- seed: 11" in md
    assert "- confidence level: 0.95 (cp)" in md
    assert md.index("## Binary accuracy") < md.index("## QC-failure triage")
    assert "| Reference + | Reference - |" in md
    assert "| Output | Diseased | Healthy |" in md

    # Printed numbers are the JSON numbers at four significant digits.
    sens = report.results["accuracy"]["sensitivity"]["estimate"]
    assert f"{sens:.4g}" in md


def test_emit_report_files_and_determinism(tmp_path):
    data = write_paired_csv(tmp_path / "scores.csv")
    raw = plan_dict(
        data,
        ["riskscore", "agreement"],
        params={"agreement": {"x_col": "lab_a", "y_col": "lab_b"}},
        seed=5,
    )
    report = run_plan(plan_from_dict(raw))
    assert not report.has_failures

    out1 = tmp_path / "out1"
    paths = emit_report(report, out1, "md")
    names = sorted(p.name for p in paths)
    assert names == sorted(
        ["report.json", "report.md", "roc.csv", "calibration.csv", "dca.csv", "bland_altman.csv"]
    )
    for p in paths:
        assert p.exists()

    roc = (out1 / "roc.csv").read_text(encoding="utf-8").splitlines()
    assert roc[0] == "threshold,fpr,tpr"
    assert len(roc) > 2
    ba = (out1 / "bland_altman.csv").read_text(encoding="utf-8").splitlines()
    assert ba[0] == "mean,difference"
    assert len(ba) == 11

    doc = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    assert doc["seed"] == 5

    # The same plan run again writes byte-identical artifacts.
    report2 = run_plan(plan_from_dict(raw))
    out2 = tmp_path / "out2"
    emit_report(report2, out2, "md")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_emit_report_survival_plot(tmp_path):
    lines = ["subject_id,truth,score,time,event"]
    times = [3.0, 5.0, 2.0, 8.0, 6.0, 4.0, 7.0, 1.5]
    for i, t in enumerate(times):
        truth = "positive" if i % 2 else "negative"
        event = "1" if i != 3 else "0"
        lines.append(f"s{i},{truth},{0.1 + 0.1 * i:.2f},{t},{event}")
    data = tmp_path / "surv.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    report = run_plan(plan_from_dict(plan_dict(data, ["survival"])))
    assert not report.has_failures
    out = tmp_path / "out"
    paths = emit_report(report, out, "json")
    assert sorted(p.name for p in paths) == ["km.csv", "report.json"]
    km = (out / "km.csv").read_text(encoding="utf-8").splitlines()
    assert km[0] == "group,time,survival,lower,upper,at_risk"
    assert len(km) > 2


def test_empty_analyses_still_fingerprints(tmp_path):
    data = write_binary_csv(tmp_path / "d.csv")
    report = run_plan(plan_from_dict(plan_dict(data, [])))
    assert report.results == {}
    assert not report.has_failures
    assert report.dataset_fingerprint["rows"] == 8
    assert "# Validation report" in render_markdown(report)


def test_cli_accuracy_stdout(tmp_path, capsys):
    data = write_binary_csv(tmp_path / "d.csv")
    rc = cli_main(["accuracy", str(data), "--goal", "0.5", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["seed"] == 3
    assert doc["results"]["accuracy"]["counts"]["tp"] == 3


def test_cli_markdown_format(tmp_path, capsys):
    data = write_binary_csv(tmp_path / "d.csv")
    rc = cli_main(["qc", str(data), "--format", "md"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# Validation report")
    assert "## QC-failure triage" in out


def test_cli_out_dir(tmp_path, capsys):
    data = write_binary_csv(tmp_path / "d.csv")
    out_dir = tmp_path / "report"
    rc = cli_main(["accuracy", str(data), "--out", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out_dir / "report.json") in printed
    assert (out_dir / "report.json").exists()


def test_cli_error_exits_one(tmp_path, capsys):
    rc = cli_main(["accuracy", str(tmp_path / "ghost.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")

    rc = cli_main(["riskscore", str(tmp_path / "ghost.csv"), "--train-prev", "0.4"])
    assert rc == 1
    assert "--target-prev" in capsys.readouterr().err


def test_cli_analysis_failure_exits_two(tmp_path, capsys):
    data = write_paired_csv(tmp_path / "scores.csv")
    rc = cli_main(["accuracy", str(data)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "analysis accuracy failed:" in captured.err
    # The report itself is still printed for inspection.
    assert "error" in json.loads(captured.out)["results"]["accuracy"]


def test_cli_simulate_roundtrip(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    args = [
        "simulate", "--kind", "binary", "--n", "40",
        "--prevalence", "0.4", "--sensitivity", "0.85", "--specificity", "0.9",
        "--out", str(out), "--seed", "12",
    ]
    assert cli_main(args) == 0
    capsys.readouterr()
    first = out.read_bytes()
    dataset = ingest_csv(out)
    assert len(dataset.records) == 40
    assert all(r.truth is not None and r.output.label is not None for r in dataset.records)

    assert cli_main(args) == 0
    capsys.readouterr()
    assert out.read_bytes() == first

    assert cli_main(args[:-1] + ["13"]) == 0
    capsys.readouterr()
    assert out.read_bytes() != first

    rc = cli_main(["simulate", "--kind", "scores", "--n", "10", "--out", str(out)])
    assert rc == 1
    assert "--prevalence" in capsys.readouterr().err



SIMULATE_KINDS = {
    "binary": ["--prevalence", "0.4", "--sensitivity", "0.85", "--specificity", "0.9"],
    "scores": ["--prevalence", "0.4", "--auc", "0.8"],
    "survival": ["--baseline-hazard", "0.5", "--censor-rate", "0.2"],
}


@pytest.mark.parametrize(
    "kind, flag, value, message",
    [
        ("binary", "--n", "0", "n must be >= 1"),
        ("binary", "--prevalence", "1.0", "prevalence must lie in (0, 1)"),
        ("binary", "--sensitivity", "0.0", "sensitivity must lie in (0, 1]"),
        ("scores", "--n", "-3", "n must be >= 1"),
        ("scores", "--prevalence", "0.0", "prevalence must lie in (0, 1)"),
        ("scores", "--auc", "0.5", "auc_target must lie in (0.5, 1)"),
        ("survival", "--n", "0", "n must be >= 1"),
        ("survival", "--censor-rate", "0", "rates must be positive"),
        ("survival", "--baseline-hazard", "-1", "rates must be positive"),
    ],
)
def test_cli_simulate_rejects_parameters_out_of_range(tmp_path, capsys, kind, flag, value, message):
    out = tmp_path / "sim.csv"
    args = ["simulate", "--kind", kind, "--n", "10", *SIMULATE_KINDS[kind], "--out", str(out)]
    args[args.index(flag) + 1] = value
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: simulate --kind {kind}: ") and message in err
    assert not out.exists()


def test_precision_fails_on_condition_fields_without_columns(tmp_path, capsys):
    # 4 subjects x 6 replicates, and neither default condition field has a column.
    lines = ["subject_id,score"]
    lines += [f"s{s},{0.3 + 0.1 * s + 0.01 * r:.2f}" for s in range(4) for r in range(6)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli_main(["precision", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: precision.condition_fields record field 'operator_id' has no column in the dataset\n"
    )
    raw = plan_dict(data, ["precision"], params={"precision": {"condition_fields": ["device_unit_id"]}})
    with pytest.raises(PlanError, match="^precision.condition_fields record field 'device_unit_id' has no"):
        run_plan(plan_from_dict(raw))


def write_precision_ids_csv(path, filled):
    """4 subjects x 6 scores with operator and device columns, no replicate_index."""
    lines = ["subject_id,score,operator_id,device_unit_id"]
    for s in range(4):
        for r in range(6):
            ids = f"op{r // 3},dev{r // 3}" if filled else ","
            lines.append(f"s{s},{0.3 + 0.1 * s + 0.01 * r:.2f},{ids}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_precision_warns_once_about_duplicate_keys(tmp_path, capsys):
    data = write_precision_ids_csv(tmp_path / "d.csv", filled=True)
    assert cli_main(["precision", str(data)]) == 0
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    assert [w for w in warnings if "duplicate" in w] == [
        "data: 4 duplicate (subject_id, replicate_index) keys"
    ]


def test_precision_fails_on_condition_columns_without_values(tmp_path, capsys):
    data = write_precision_ids_csv(tmp_path / "d.csv", filled=False)
    assert cli_main(["precision", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: precision.condition_fields record field 'operator_id' has no value in any row\n"
    )
    # A column with values in some rows still groups its empty cells under "?".
    text = data.read_text(encoding="utf-8").replace("s0,0.30,,", "s0,0.30,op0,dev0", 1)
    data.write_text(text, encoding="utf-8")
    assert cli_main(["precision", str(data)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["precision"]["df_condition"] == 1


def test_cli_seed_env_fallback(tmp_path, capsys, monkeypatch):
    data = write_binary_csv(tmp_path / "d.csv")
    monkeypatch.setenv("DAVAL_SEED", "7")
    assert cli_main(["accuracy", str(data)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7

    assert cli_main(["accuracy", str(data), "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9

    monkeypatch.setenv("DAVAL_SEED", "lucky")
    assert cli_main(["accuracy", str(data)]) == 1
    assert "DAVAL_SEED" in capsys.readouterr().err


def test_cli_run_plan(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DAVAL_SEED", raising=False)
    data = write_binary_csv(tmp_path / "d.csv")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        json.dumps({"dataset": "d.csv", "analyses": ["accuracy", "qc"], "seed": 2}),
        encoding="utf-8",
    )
    assert cli_main(["run", "--plan", str(plan_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 2
    assert set(doc["results"]) == {"accuracy", "qc"}

    # A command-line seed overrides the plan without touching its hash.
    assert cli_main(["run", "--plan", str(plan_path), "--seed", "44"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["seed"] == 44
    assert doc2["plan_hash"] == doc["plan_hash"]

    assert cli_main(["run", "--plan", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_demo_plans_run_clean(capsys):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("plan.json", "plan_scores.json"):
        plan = load_plan(os.path.join(here, "demo", name))
        report = run_plan(plan)
        assert not report.has_failures, name
        assert report.results


def test_cli_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF.
    plain = write_paired_csv(tmp_path / "plain.csv")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    reports = []
    for path in (plain, marked):
        assert cli_main(["riskscore", str(path), "--bins", "2"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    # The fingerprint is over the file's bytes, mark included.
    assert reports[0]["dataset"]["rows"] == reports[1]["dataset"]["rows"] == 10
    assert reports[0]["dataset"]["sha256"] != reports[1]["dataset"]["sha256"]
    assert reports[0]["results"] == reports[1]["results"]


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
def test_cli_refuses_an_oversize_field_with_its_row(tmp_path, capsys, quoted):
    data = write_paired_csv(tmp_path / "d.csv")
    lines = data.read_text(encoding="utf-8").splitlines()
    field = "x" * (csv.field_size_limit() + 1)
    lines[2] = lines[2].replace("p1", f'"{field}"' if quoted else field)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli_main(["riskscore", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"row 2: field larger than field limit ({csv.field_size_limit()})" in err


def test_cli_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DAVAL_SEED", raising=False)
    data = write_binary_csv(tmp_path / "d.csv")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"dataset": "d.csv", "analyses": ["accuracy"], "seed": 2}), encoding="utf-8")
    built = {"n": 0}
    original = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built["n"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()

    assert cli_main(["run", "--plan", str(plan_path), "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    first_build = built["n"]  # the top-level parser and one per subcommand
    assert first_build == len(ANALYSES) + 3
    # No state carries over: without --seed the plan's own seed is reported.
    assert cli_main(["run", "--plan", str(plan_path)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2

    # A bad flag (exit 1) leaves the parser usable for the next call.
    assert cli_main(["accuracy", str(data), "--no-such-flag"]) == 1
    assert "--no-such-flag" in capsys.readouterr().err
    assert cli_main(["accuracy", str(data), "--goal", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["accuracy"]["counts"]["tp"] == 3
    assert built["n"] == first_build

    # --help prints what a freshly built parser prints.
    fresh = cli.build_parser.__wrapped__()
    fresh_sub = next(a for a in fresh._actions if isinstance(a, argparse._SubParsersAction)).choices
    for argv, expected in ((["--help"], fresh), (["precision", "--help"], fresh_sub["precision"])):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected.format_help()


def _fails_on_a_file(capsys, argv, path, fragment):
    """The command exits 1 with one `error:` line naming the path, and no traceback."""
    assert cli_main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err and fragment in err


def _unreadable(monkeypatch, target, method):
    """Reading ``target`` through Path.<method> fails as a file without read permission does."""
    original = getattr(type(target), method)

    def read(self, *args, **kwargs):
        if self == target:
            raise PermissionError(13, "Permission denied", str(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(type(target), method, read)


def test_cli_plan_file_not_utf8(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_bytes(b'{"dataset": "caf\xe9.csv", "analyses": []}')
    _fails_on_a_file(capsys, ["run", "--plan", plan], plan, "not UTF-8 text: byte 16 is 0xe9")


def test_cli_plan_path_is_a_directory(tmp_path, capsys):
    _fails_on_a_file(capsys, ["run", "--plan", tmp_path], tmp_path, "cannot read plan file")


def test_cli_plan_file_unreadable(tmp_path, capsys, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_dict(write_binary_csv(tmp_path / "d.csv"), ["qc"])), encoding="utf-8")
    _unreadable(monkeypatch, plan, "read_text")
    _fails_on_a_file(capsys, ["run", "--plan", plan], plan, "Permission denied")


def test_cli_dataset_path_is_a_directory(tmp_path, capsys):
    _fails_on_a_file(capsys, ["accuracy", tmp_path], tmp_path, "cannot read dataset")


def test_cli_dataset_file_unreadable(tmp_path, capsys, monkeypatch):
    data = write_binary_csv(tmp_path / "d.csv")
    _unreadable(monkeypatch, data, "read_bytes")
    _fails_on_a_file(capsys, ["accuracy", data], data, "Permission denied")


def test_cli_run_out_names_an_existing_file(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_dict(write_binary_csv(tmp_path / "d.csv"), ["qc"])), encoding="utf-8")
    out = tmp_path / "taken.txt"
    out.write_text("keep\n", encoding="utf-8")
    _fails_on_a_file(capsys, ["run", "--plan", plan, "--out", out], out, "not a directory")
    assert out.read_text(encoding="utf-8") == "keep\n"


def test_cli_simulate_out_names_a_directory(tmp_path, capsys):
    argv = ["simulate", "--kind", "binary", "--n", "10", "--prevalence", "0.5"]
    argv += ["--sensitivity", "0.8", "--specificity", "0.9", "--out", tmp_path]
    _fails_on_a_file(capsys, argv, tmp_path, "Is a directory")
