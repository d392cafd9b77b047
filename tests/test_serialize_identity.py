r"""The columnar `serialize_records` against the row-wise writer it replaces.

`reference_serialize` below is the earlier writer: one `csv.writer.writerow`
per record, covariate columns in sorted name order, rows ended by `\r\n`.
`reference_simulate` is the earlier `daval simulate`: the same draws as the
simulators, turned into one `ValidationRecord` per subject. Both must give
the same bytes as today's table writer, for `daval simulate` and for
generated tables, and reading a written table back must give the same table.

The one difference: a table may hold a covariate column with no value in any
row, which the records of that table cannot show. The table writer writes it
as an empty column, and ingest reads it back, so the round trip keeps it; the
byte comparison draws tables where every covariate has a value.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from daval.cli import main as cli_main
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
)
from daval.resample import SeededGenerator

PROPERTY = settings(max_examples=150, deadline=None)


def reference_serialize(records, path) -> None:
    records = list(records)
    covariate_names = sorted({name for r in records for name in r.covariates})
    columns = list(CANONICAL_COLUMNS) + covariate_names
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in records:
            row = {
                "subject_id": r.subject_id,
                "site_id": r.site_id,
                "truth": r.truth.value if r.truth else "",
                "operator_id": r.operator_id or "",
                "device_unit_id": r.device_unit_id or "",
                "replicate_index": "" if r.replicate_index is None else str(r.replicate_index),
            }
            if r.output.kind is OutputKind.BINARY:
                row["output"], row["score"] = r.output.label.value, ""
            elif r.output.kind is OutputKind.SCORE:
                row["output"], row["score"] = "", repr(r.output.value)
            else:
                row["output"], row["score"] = "ungradable", ""
            if r.survival is not None:
                row["time"] = repr(r.survival.time)
                row["event"] = "1" if r.survival.event else "0"
            else:
                row["time"] = row["event"] = ""
            for name in covariate_names:
                row[name] = "" if name not in r.covariates else repr(r.covariates[name])
            writer.writerow([row.get(c, "") for c in columns])


def reference_simulate(kind: str, n: int, seed: int, params: dict) -> list[ValidationRecord]:
    rng = SeededGenerator(seed).generator()
    records = []
    if kind == "binary":
        truth = rng.random(n) < params["prevalence"]
        correct_if_pos = rng.random(n) < params["sensitivity"]
        correct_if_neg = rng.random(n) < params["specificity"]
        for i in range(n):
            if truth[i]:
                label = Label.POSITIVE if correct_if_pos[i] else Label.NEGATIVE
            else:
                label = Label.NEGATIVE if correct_if_neg[i] else Label.POSITIVE
            records.append(
                ValidationRecord(
                    subject_id=f"s{i:06d}",
                    site_id="sim",
                    output=DeviceOutput.binary(label),
                    truth=Label.POSITIVE if truth[i] else Label.NEGATIVE,
                )
            )
    elif kind == "scores":
        delta = float(np.sqrt(2.0) * stats.norm.ppf(params["auc"]))
        outcomes = rng.random(n) < params["prevalence"]
        scores = 1.0 / (1.0 + np.exp(-(rng.normal(0.0, 1.0, n) + delta * outcomes)))
        for i in range(n):
            records.append(
                ValidationRecord(
                    subject_id=f"s{i:06d}",
                    site_id="sim",
                    output=DeviceOutput.score(float(scores[i])),
                    truth=Label.POSITIVE if outcomes[i] else Label.NEGATIVE,
                )
            )
    else:
        z = rng.random(n) < 0.5
        hazard = params["baseline_hazard"] * np.exp(params["log_hazard_ratio"] * z)
        event_time = rng.exponential(1.0, n) / hazard
        censor_time = rng.exponential(1.0 / params["censor_rate"], n)
        for i in range(n):
            observed = min(event_time[i], censor_time[i])
            records.append(
                ValidationRecord(
                    subject_id=f"s{i:06d}",
                    site_id="sim",
                    output=DeviceOutput.score(float(1.0 - np.exp(-hazard[i]))),
                    survival=Survival(time=float(observed), event=bool(event_time[i] <= censor_time[i])),
                    covariates={"z": float(z[i])},
                )
            )
    return records


SIMULATIONS = {
    "binary": {"prevalence": 0.3, "sensitivity": 0.85, "specificity": 0.9},
    "scores": {"prevalence": 0.25, "auc": 0.8},
    "survival": {"baseline_hazard": 0.4, "log_hazard_ratio": 0.7, "censor_rate": 0.2},
}


@pytest.mark.parametrize("kind", list(SIMULATIONS))
@pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (7, 60), (42, 193), (123, 2500)])
def test_simulate_writes_the_bytes_of_the_row_wise_writer(tmp_path, capsys, kind, seed, n):
    params = SIMULATIONS[kind]
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in params.items()]
    out = tmp_path / "sim.csv"
    assert cli_main(["simulate", "--kind", kind, "--n", str(n), "--seed", str(seed), "--out", str(out), *flags]) == 0
    capsys.readouterr()
    reference_serialize(reference_simulate(kind, n, seed, params), tmp_path / "ref.csv")
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------- tables

# Ids that need quoting, as ingest reads them back (stripped, nonempty).
_ids = st.text('ab1 ,"\r\n-é', min_size=1, max_size=6).filter(lambda s: s == s.strip())
_finite = st.floats(allow_nan=False, allow_infinity=False)
_names = st.text("abcxyz_-", min_size=1, max_size=6).filter(lambda n: n not in CANONICAL_COLUMNS)


@st.composite
def tables(draw, every_covariate_has_a_value: bool = False) -> StudyTable:
    n = draw(st.integers(0, 8))
    names = draw(st.lists(_names, max_size=3, unique=True))
    kinds = draw(st.lists(st.sampled_from(list(OutputKind)), min_size=n, max_size=n))
    labels = [draw(st.sampled_from([0, 1])) if kind is OutputKind.BINARY else -1 for kind in kinds]
    scores = [draw(st.floats(0.0, 1.0)) if kind is OutputKind.SCORE else np.nan for kind in kinds]
    events = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    times = [np.nan if event < 0 else draw(st.floats(0.0, 1e9)) for event in events]
    covariates = np.array(
        [[draw(st.none() | _finite) for _ in names] for _ in range(n)], dtype=float
    ).reshape(n, len(names))
    if every_covariate_has_a_value and n:
        for j in range(len(names)):
            if np.isnan(covariates[:, j]).all():
                covariates[draw(st.integers(0, n - 1)), j] = draw(_finite)
    elif every_covariate_has_a_value:
        names, covariates = [], covariates[:, :0]
    return StudyTable(
        subject_id=tuple(draw(st.lists(_ids, min_size=n, max_size=n))),
        site_id=tuple(draw(st.lists(_ids, min_size=n, max_size=n))),
        truth=np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)), dtype=np.int8),
        output_kind=np.array([list(OutputKind).index(kind) for kind in kinds], dtype=np.int8),
        label=np.array(labels, dtype=np.int8),
        score=np.array(scores, dtype=float),
        time=np.array(times, dtype=float),
        event=np.array(events, dtype=np.int8),
        operator_id=tuple(draw(st.lists(st.none() | _ids, min_size=n, max_size=n))),
        device_unit_id=tuple(draw(st.lists(st.none() | _ids, min_size=n, max_size=n))),
        replicate_index=tuple(draw(st.lists(st.none() | st.integers(0, 10**12), min_size=n, max_size=n))),
        covariates=covariates,
        covariate_names=tuple(names),
    )


def assert_same_table(a: StudyTable, b: StudyTable) -> None:
    for name in ("subject_id", "site_id", "operator_id", "device_unit_id", "replicate_index"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("truth", "output_kind", "label", "event"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tolist() == y.tolist(), name
    for name in ("score", "time"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert sorted(a.covariate_names) == sorted(b.covariate_names)
    for name in a.covariate_names:
        assert np.array_equal(a.covariate(name), b.covariate(name), equal_nan=True), name


@PROPERTY
@given(tables())
def test_ingest_reads_back_the_written_table(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    serialize_records(table, path)
    result = ingest_csv(path)
    assert result.errors == () and result.excluded_columns == ()
    assert_same_table(result.table, table)


@PROPERTY
@given(tables(every_covariate_has_a_value=True))
def test_table_writer_matches_the_row_wise_writer(tmp_path_factory, table):
    d = tmp_path_factory.mktemp("identity")
    serialize_records(table, d / "table.csv")
    reference_serialize(table.to_records(), d / "records.csv")
    assert (d / "table.csv").read_bytes() == (d / "records.csv").read_bytes()


def test_covariate_without_values_is_written_and_read_back(tmp_path):
    table = StudyTable.from_records(
        [ValidationRecord("s1", "a", DeviceOutput.score(0.5), covariates={"age": 61.0})]
    )
    empty = StudyTable(**{**vars(table), "covariates": np.full((1, 1), np.nan)})
    serialize_records(empty, tmp_path / "d.csv")
    text = (tmp_path / "d.csv").read_text(encoding="utf-8")
    assert text.splitlines() == [",".join(CANONICAL_COLUMNS) + ",age", "s1,a,,,0.5,,,,,,"]
    assert_same_table(ingest_csv(tmp_path / "d.csv").table, empty)
