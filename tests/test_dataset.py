"""Ingest, serialization round-trip, and integrity checks."""

import csv

import pytest

from daval.dataset import (
    CANONICAL_COLUMNS,
    DeviceOutput,
    Label,
    OutputKind,
    StudyTable,
    Survival,
    ValidationRecord,
    ingest_csv,
    serialize_records,
    validate_records,
)
from conftest import binary_record, score_record, survival_record, ungradable_record


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_basic_ingest_three_rows(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "site_id", "truth", "output"],
        [
            ["s1", "a", "pos", "pos"],
            ["s2", "a", "neg", "neg"],
            ["s3", "b", "positive", "ungradable"],
        ],
    )
    result = ingest_csv(p)
    assert len(result.records) == 3
    assert result.errors == ()
    assert result.excluded_columns == ()
    r1, r2, r3 = result.records
    assert r1.truth is Label.POSITIVE
    assert r1.output.kind is OutputKind.BINARY
    assert r1.output.label is Label.POSITIVE
    assert r2.truth is Label.NEGATIVE
    assert r3.truth is Label.POSITIVE
    assert r3.output.kind is OutputKind.UNGRADABLE


def test_out_of_range_score_is_quarantined_with_row_number(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "score"],
        [["s1", "0.4"], ["s2", "1.2"], ["s3", "0.9"]],
    )
    result = ingest_csv(p)
    assert len(result.records) == 2
    assert len(result.errors) == 1
    err = result.errors[0]
    assert err.row == 2
    assert "score out of range" in err.message


def test_strict_mode_raises_on_first_bad_row(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["subject_id", "score"], [["s1", "0.4"], ["s2", "1.2"]])
    with pytest.raises(ValueError, match="row 2"):
        ingest_csv(p, strict=True)


def test_header_only_file_gives_empty_result(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("subject_id,output\n", encoding="utf-8")
    result = ingest_csv(p)
    assert result.records == ()
    assert result.errors == ()


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_csv(tmp_path / "nope.csv")


def test_column_mapping_renames_headers(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["pid", "ground_truth", "device_call"],
        [["s1", "POS", "neg"], ["s2", "Negative", "pos"]],
    )
    result = ingest_csv(
        p, mapping={"subject_id": "pid", "truth": "ground_truth", "output": "device_call"}
    )
    assert len(result.records) == 2
    assert result.records[0].truth is Label.POSITIVE
    assert result.records[0].output.label is Label.NEGATIVE
    assert result.records[0].site_id == "unknown"


def test_mapping_to_missing_column_raises(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["subject_id", "output"], [["s1", "pos"]])
    with pytest.raises(ValueError, match="not in header"):
        ingest_csv(p, mapping={"truth": "ground_truth"})


def test_mapping_with_unknown_canonical_name_raises(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["subject_id", "output"], [["s1", "pos"]])
    with pytest.raises(ValueError, match="unknown canonical"):
        ingest_csv(p, mapping={"diagnosis": "output"})


def test_numeric_extras_become_covariates_text_extras_are_excluded(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "output", "age", "comment"],
        [["s1", "pos", "61", "ok"], ["s2", "neg", "48.5", "blurry image"]],
    )
    result = ingest_csv(p)
    assert result.excluded_columns == ("comment",)
    assert result.records[0].covariates == {"age": 61.0}
    assert result.records[1].covariates == {"age": 48.5}


def test_both_output_and_score_is_an_error(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["subject_id", "output", "score"], [["s1", "pos", "0.7"]])
    result = ingest_csv(p)
    assert result.records == ()
    assert "single variant" in result.errors[0].message


def test_neither_output_nor_score_is_an_error(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["subject_id", "truth"], [["s1", "pos"]])
    result = ingest_csv(p)
    assert "no device output" in result.errors[0].message


def test_time_requires_event_and_vice_versa(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "score", "time", "event"],
        [["s1", "0.5", "3.5", ""], ["s2", "0.5", "", "1"], ["s3", "0.5", "2.0", "1"]],
    )
    result = ingest_csv(p)
    assert len(result.records) == 1
    assert len(result.errors) == 2
    assert result.records[0].survival == Survival(time=2.0, event=True)


def test_bad_event_flag_and_negative_time_are_errors(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "score", "time", "event"],
        [["s1", "0.5", "-1", "1"], ["s2", "0.5", "2", "yes"]],
    )
    result = ingest_csv(p)
    assert len(result.errors) == 2
    assert "negative survival time" in result.errors[0].message
    assert "event must be 0 or 1" in result.errors[1].message


def test_padded_header_names_still_resolve(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "subject_id, site_id, truth, score, age\n"
        "s1,a,pos,0.8,61\n"
        "s2,b,neg,0.3,48.5\n",
        encoding="utf-8",
    )
    result = ingest_csv(p)
    assert result.errors == ()
    r1, r2 = result.records
    assert (r1.subject_id, r1.site_id, r1.truth, r1.output.value) == ("s1", "a", Label.POSITIVE, 0.8)
    assert (r2.site_id, r2.truth, r2.output.value) == ("b", Label.NEGATIVE, 0.3)
    assert r2.covariates == {"age": 48.5}


@pytest.mark.parametrize("raw", ["inf", "nan", "-inf"])
def test_non_finite_time_is_quarantined_with_row_number(tmp_path, raw):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "score", "time", "event"],
        [["s1", "0.5", "2.0", "1"], ["s2", "0.5", raw, "0"]],
    )
    result = ingest_csv(p)
    assert len(result.records) == 1
    (err,) = result.errors
    assert err.row == 2
    assert "not finite" in err.message


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_covariate_is_quarantined_with_row_number(tmp_path, raw):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "output", "age"],
        [["s1", "pos", "61"], ["s2", "neg", "48"], ["s3", "neg", raw]],
    )
    result = ingest_csv(p)
    assert [r.subject_id for r in result.records] == ["s1", "s2"]
    (err,) = result.errors
    assert err.row == 3
    assert "'age'" in err.message and "not finite" in err.message


def test_score_value_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        DeviceOutput.score(1.5)
    with pytest.raises(ValueError):
        DeviceOutput.score(-0.1)


def test_round_trip_preserves_records(tmp_path):
    records = [
        binary_record("s1", Label.POSITIVE, Label.POSITIVE, site_id="a"),
        ungradable_record("s2", Label.NEGATIVE, site_id="b"),
        score_record(
            "s3",
            0.25,
            truth=Label.NEGATIVE,
            site_id="a",
            operator_id="op1",
            device_unit_id="unit-7",
            replicate_index=2,
            covariates={"age": 61.0, "marker": 0.4},
        ),
        survival_record("s4", 12.5, True, value=0.8, covariates={"age": 40.0}),
    ]
    p = tmp_path / "out.csv"
    serialize_records(StudyTable.from_records(records), p)
    back = ingest_csv(p)
    assert back.errors == ()
    assert list(back.records) == records

    # serializing the reread records reproduces the file byte for byte
    p2 = tmp_path / "out2.csv"
    serialize_records(back.table, p2)
    assert p2.read_bytes() == p.read_bytes()


def test_serialized_header_is_canonical_plus_sorted_covariates(tmp_path):
    records = [score_record("s1", 0.5, covariates={"b_mark": 1.0, "a_mark": 2.0})]
    p = tmp_path / "out.csv"
    serialize_records(StudyTable.from_records(records), p)
    header = p.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(CANONICAL_COLUMNS) + ",a_mark,b_mark"


def test_duplicate_subject_replicate_pairs_are_flagged():
    records = [
        binary_record("s1", Label.POSITIVE, Label.POSITIVE),
        binary_record("s1", Label.POSITIVE, Label.NEGATIVE),
        binary_record("s2", Label.NEGATIVE, Label.NEGATIVE),
    ]
    report = validate_records(StudyTable.from_records(records))
    assert report.duplicate_keys == (("s1", None),)
    assert not report.clean
    assert any("duplicate" in w for w in report.warnings)


def test_distinct_replicate_indices_are_not_duplicates():
    records = [
        score_record("s1", 0.5, replicate_index=0),
        score_record("s1", 0.6, replicate_index=1),
    ]
    report = validate_records(StudyTable.from_records(records))
    assert report.duplicate_keys == ()


def test_single_site_and_missing_truth_warnings():
    records = [
        binary_record("s1", Label.POSITIVE, Label.POSITIVE),
        binary_record("s2", None, Label.NEGATIVE),
    ]
    report = validate_records(StudyTable.from_records(records))
    assert report.n_missing_truth == 1
    assert any("single-site" in w for w in report.warnings)
    assert any("lack a reference-standard truth" in w for w in report.warnings)


def test_clean_two_site_dataset_has_no_warnings():
    records = [
        binary_record(f"s{i}", Label.POSITIVE, Label.POSITIVE, site_id="a")
        for i in range(3)
    ] + [
        binary_record(f"t{i}", Label.NEGATIVE, Label.NEGATIVE, site_id="b")
        for i in range(3)
    ]
    report = validate_records(StudyTable.from_records(records))
    assert report.clean
    assert report.warnings == ()
    assert report.site_counts == (("a", 3), ("b", 3))


def test_site_imbalance_warning():
    records = [
        binary_record(f"s{i}", Label.POSITIVE, Label.POSITIVE, site_id="big")
        for i in range(9)
    ] + [binary_record("t0", Label.NEGATIVE, Label.NEGATIVE, site_id="small")]
    report = validate_records(StudyTable.from_records(records))
    assert any("imbalance" in w for w in report.warnings)


def test_record_constructor_validation():
    with pytest.raises(ValueError):
        ValidationRecord(subject_id="", site_id="a", output=DeviceOutput.ungradable())
    with pytest.raises(ValueError):
        ValidationRecord(
            subject_id="s1",
            site_id="a",
            output=DeviceOutput.score(0.5),
            replicate_index=-1,
        )
    with pytest.raises(ValueError):
        Survival(time=-2.0, event=True)
    with pytest.raises(ValueError):
        DeviceOutput(kind=OutputKind.BINARY, label=None)


def test_truth_values_accept_long_and_short_forms(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["subject_id", "truth", "output"],
        [["s1", "Positive", "pos"], ["s2", "NEG", "neg"], ["s3", "negative", "pos"]],
    )
    result = ingest_csv(p)
    assert [r.truth for r in result.records] == [
        Label.POSITIVE,
        Label.NEGATIVE,
        Label.NEGATIVE,
    ]


def test_leading_byte_order_mark_is_dropped(tmp_path):
    text = "subject_id,truth,score\ns1,pos,0.5\ns2,neg,0.25\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    result = ingest_csv(marked)
    assert result.errors == () and result.records == ingest_csv(plain).records
    assert result.table.subject_id == ("s1", "s2")


@pytest.mark.parametrize(
    "body",
    ["s1,pos,0.5\n{field},neg,0.25\n", 's1,pos,0.5\n\n"{field}",neg,0.25\n', "s1,pos,0.5\r\n{field},neg,0.25\r\n"],
    ids=["split", "csv-reader", "split-crlf"],
)
def test_oversize_field_is_refused_with_its_data_row(tmp_path, body):
    limit = csv.field_size_limit()
    path = tmp_path / "d.csv"
    path.write_text("subject_id,truth,score\n" + body.format(field="x" * (limit + 1)), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^row 2: field larger than field limit \({limit}\)$"):
        ingest_csv(path)
    # A field at the limit is read.
    path.write_text("subject_id,truth,score\n" + body.format(field="x" * limit), encoding="utf-8")
    assert len(ingest_csv(path).table.subject_id[1]) == limit


def test_oversize_header_field_is_refused(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("subject_id,score," + "x" * (csv.field_size_limit() + 1) + "\ns1,0.5,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"d\.csv header row: field larger than field limit"):
        ingest_csv(path)
