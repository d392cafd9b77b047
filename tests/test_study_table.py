"""Column kernels against the record loops they replace.

Each `loop_*` function below is the seed's record-at-a-time implementation of
a public kernel. The kernels run on `StudyTable` columns (each test hands
them `StudyTable.from_records` of the records), and must return the same
values, or raise the same error naming the same first offending subject.
"""

import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import daval
from daval.accuracy import Confusion2x2, confusion_from_records
from daval.agreement import precision_cells
from daval.dataset import (
    DeviceOutput,
    IntegrityReport,
    Label,
    OutputKind,
    StudyTable,
    Survival,
    ValidationRecord,
    validate_records,
)
from daval.qc import ROW_NAMES, TriageConfusion, triage_table
from daval.survival import covariate_matrix, survival_arrays

PROPERTY = settings(max_examples=120, deadline=None)


def loop_validate_records(records: Sequence[ValidationRecord]) -> IntegrityReport:
    """Report-only integrity check: duplicates, truth missingness, site balance."""
    key_counts = Counter((r.subject_id, r.replicate_index) for r in records)
    duplicates = tuple(sorted(k for k, c in key_counts.items() if c > 1))
    n_missing_truth = sum(1 for r in records if r.truth is None)
    site_counts = Counter(r.site_id for r in records)

    warnings: list[str] = []
    if duplicates:
        warnings.append(f"{len(duplicates)} duplicate (subject_id, replicate_index) keys")
    if n_missing_truth:
        warnings.append(f"{n_missing_truth} records lack a reference-standard truth label")
    if records and len(site_counts) == 1:
        warnings.append("single-site dataset: external validity expects multi-site data")
    elif len(site_counts) > 1:
        top_site, top_n = site_counts.most_common(1)[0]
        if top_n / len(records) >= 0.8:
            warnings.append(
                f"site imbalance: {top_site!r} holds {top_n}/{len(records)} records"
            )
    return IntegrityReport(
        duplicate_keys=duplicates,
        n_missing_truth=n_missing_truth,
        site_counts=tuple(sorted(site_counts.items())),
        warnings=tuple(warnings),
    )


def loop_confusion_from_records(records: Sequence[ValidationRecord]) -> Confusion2x2:
    """Tally records with truth and binary output into a 2x2 table.

    Ungradable or score outputs are rejected: score outputs belong to the
    risk-score analyses, and ungradable cases must go through the QC triage
    table so they are not silently dropped from accuracy estimates.
    """
    tp = fp = fn = tn = 0
    for r in records:
        if r.truth is None:
            raise ValueError(f"record {r.subject_id!r} lacks a truth label")
        if r.output.kind is not OutputKind.BINARY:
            raise ValueError(
                f"record {r.subject_id!r} has {r.output.kind.value} output; "
                "2x2 accuracy requires binary outputs (route ungradables to qc triage)"
            )
        if r.output.label is Label.POSITIVE:
            if r.truth is Label.POSITIVE:
                tp += 1
            else:
                fp += 1
        else:
            if r.truth is Label.POSITIVE:
                fn += 1
            else:
                tn += 1
    return Confusion2x2(tp=tp, fp=fp, fn=fn, tn=tn)


def loop_triage_table(records: Sequence[ValidationRecord]) -> TriageConfusion:
    """Partition records into the six triage cells.

    Score outputs are rejected: a continuous score must be thresholded into a
    binary call upstream before QC triage applies.
    """
    cells = {name: [0, 0] for name in ROW_NAMES}
    for r in records:
        if r.truth is None:
            raise ValueError(f"record {r.subject_id!r} lacks a truth label")
        if r.output.kind is OutputKind.SCORE:
            raise ValueError(
                f"record {r.subject_id!r} has a score output; threshold scores before triage"
            )
        if r.output.kind is OutputKind.UNGRADABLE:
            row = "ungradable"
        else:
            row = "positive" if r.output.label is Label.POSITIVE else "negative"
        cells[row][0 if r.truth is Label.POSITIVE else 1] += 1
    (a, d), (b, e), (c, f) = (cells[name] for name in ROW_NAMES)
    return TriageConfusion(a=a, b=b, c=c, d=d, e=e, f=f)


def loop_precision_cells(
    records: Iterable[ValidationRecord],
    condition_fields: Sequence[str] = ("operator_id", "device_unit_id"),
) -> dict[tuple[str, tuple], list[float]]:
    """Group Score outputs into (subject, condition) cells of replicate values.

    The condition key is the tuple of the named record fields; a missing
    field value contributes "?" so partially annotated studies still group
    deterministically.
    """
    cells: dict[tuple[str, tuple], list[float]] = {}
    for rec in records:
        if rec.output.kind is not OutputKind.SCORE:
            raise ValueError(
                f"precision analysis needs Score outputs, got {rec.output.kind.value!r} "
                f"for subject {rec.subject_id!r}"
            )
        for f in condition_fields:
            if not hasattr(rec, f):
                raise ValueError(f"unknown condition field {f!r}")
        cond = tuple(getattr(rec, f) or "?" for f in condition_fields)
        cells.setdefault((rec.subject_id, cond), []).append(float(rec.output.value))
    return cells


def loop_survival_arrays(
    records: Iterable[ValidationRecord],
) -> tuple[np.ndarray, np.ndarray]:
    """Times and event indicators from records, one row per subject.

    Duplicate subject ids are rejected: repeated follow-up intervals describe
    recurrent-event data, which this model does not cover.
    """
    seen: set[str] = set()
    times, events = [], []
    for rec in records:
        if rec.survival is None:
            raise ValueError(f"subject {rec.subject_id!r} has no follow-up data")
        if rec.subject_id in seen:
            raise ValueError(
                f"duplicate subject {rec.subject_id!r}: recurrent-event data "
                "is not supported"
            )
        seen.add(rec.subject_id)
        times.append(rec.survival.time)
        events.append(rec.survival.event)
    if not times:
        raise ValueError("no records")
    return np.asarray(times, dtype=float), np.asarray(events, dtype=bool)


def loop_covariate_matrix(
    records: Sequence[ValidationRecord], names: Sequence[str]
) -> np.ndarray:
    """Covariate columns by name, erroring on any missing value."""
    rows = []
    for rec in records:
        row = []
        for name in names:
            if name not in rec.covariates:
                raise ValueError(f"subject {rec.subject_id!r} lacks covariate {name!r}")
            row.append(float(rec.covariates[name]))
        rows.append(row)
    return np.asarray(rows, dtype=float).reshape(len(rows), len(names))


# ---------------------------------------------------------------- strategy

_output = st.one_of(
    st.builds(DeviceOutput.binary, st.sampled_from(list(Label))),
    st.builds(DeviceOutput.score, st.floats(0.0, 1.0)),
    st.just(DeviceOutput.ungradable()),
)


def _records(kinds=_output, truth=st.none() | st.sampled_from(list(Label)), survival=None):
    if survival is None:
        survival = st.none() | st.builds(Survival, time=st.floats(0.0, 50.0), event=st.booleans())
    record = st.builds(
        ValidationRecord,
        subject_id=st.sampled_from(["s1", "s2", "s3", "s4", "s5", "s6"]),
        site_id=st.sampled_from(["a", "b", "c"]),
        output=kinds,
        truth=truth,
        survival=survival,
        operator_id=st.none() | st.sampled_from(["op1", "op2"]),
        device_unit_id=st.none() | st.sampled_from(["u1", "u2"]),
        replicate_index=st.none() | st.integers(0, 2),
        covariates=st.dictionaries(st.sampled_from(["age", "marker"]), st.floats(-1e6, 1e6)),
    )
    return st.lists(record, max_size=12)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(a[0], np.ndarray):
        return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return list(a.items()) == list(b.items())
    return a == b


@PROPERTY
@given(_records())
def test_validate_records(records):
    table = StudyTable.from_records(records)
    assert _same(_outcome(validate_records, table), _outcome(loop_validate_records, records))


@PROPERTY
@given(_records(truth=st.sampled_from([None] + list(Label) * 6)))
def test_confusion_and_triage(records):
    table = StudyTable.from_records(records)
    for kernel, loop in ((confusion_from_records, loop_confusion_from_records), (triage_table, loop_triage_table)):
        assert _same(_outcome(kernel, table), _outcome(loop, records))


_fields = st.lists(
    st.sampled_from(["operator_id", "device_unit_id", "replicate_index", "site_id", "shift"]),
    max_size=3,
)


@PROPERTY
@given(_records(kinds=st.one_of(_output, st.builds(DeviceOutput.score, st.floats(0.0, 1.0)))), _fields)
def test_precision_cells(records, fields):
    table = StudyTable.from_records(records)
    assert _same(_outcome(precision_cells, table, fields), _outcome(loop_precision_cells, records, fields))


@PROPERTY
@given(_records(), st.lists(st.sampled_from(["age", "marker", "weight"]), max_size=3))
def test_survival_arrays_and_covariate_matrix(records, names):
    table = StudyTable.from_records(records)
    assert _same(_outcome(survival_arrays, table), _outcome(loop_survival_arrays, records))
    assert _same(_outcome(covariate_matrix, table, names), _outcome(loop_covariate_matrix, records, names))


@PROPERTY
@given(_records())
def test_table_round_trips_records(records):
    table = StudyTable.from_records(records)
    assert len(table) == len(records)
    assert list(table.to_records()) == records


def test_table_columns_are_read_only():
    table = StudyTable.from_records(
        [ValidationRecord("s1", "a", DeviceOutput.score(0.5), truth=Label.POSITIVE)]
    )
    for column in (table.truth, table.score, table.covariates):
        assert not column.flags.writeable


def test_only_dataset_names_the_record_types():
    # The table is the one data form in the package: records exist only in
    # dataset.py (ingest's records view and the table's conversions), and
    # the package re-exports their types.
    pattern = re.compile(r"\b(ValidationRecord|DeviceOutput|Survival)\b")
    package = Path(daval.__file__).parent
    naming = {path.name for path in package.glob("*.py") if pattern.search(path.read_text(encoding="utf-8"))}
    assert naming == {"dataset.py", "__init__.py"}
