"""Column ingest against the seed's row-at-a-time parser.

`reference_ingest` below is the seed's `ingest_csv`: a `csv.DictReader` dict
per row, parsed by `_parse_row` into a `ValidationRecord`. The column ingest
must give the same records, errors (row number and the first fault of each
row), excluded columns and strict-mode message on any CSV, including blank
lines, short and long rows, duplicated and padded headers, column mappings and
every spelling Python's `float()` and `int()` accept.
"""

import csv
import io
import math
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from daval.dataset import (
    CANONICAL_COLUMNS,
    DeviceOutput,
    Label,
    RowError,
    StudyTable,
    Survival,
    ValidationRecord,
    ingest_csv,
    serialize_records,
)

_TRUTH_VALUES = {"pos": True, "positive": True, "neg": False, "negative": False}


def _resolve_mapping(
    header: Sequence[str], mapping: Mapping[str, str] | None
) -> dict[str, str]:
    """Canonical name -> actual header name, defaulting to identity where present."""
    mapping = dict(mapping or {})
    unknown = set(mapping) - set(CANONICAL_COLUMNS)
    if unknown:
        raise ValueError(f"mapping refers to unknown canonical columns: {sorted(unknown)}")
    resolved: dict[str, str] = {}
    for canonical in CANONICAL_COLUMNS:
        actual = mapping.get(canonical, canonical)
        if canonical in mapping and actual not in header:
            raise ValueError(f"mapped column {actual!r} (for {canonical!r}) not in header")
        if actual in header:
            resolved[canonical] = actual
    return resolved


def _parse_row(
    row: Mapping[str, str],
    resolved: Mapping[str, str],
    covariate_cols: Sequence[str],
) -> ValidationRecord:
    def cell(canonical: str) -> str:
        actual = resolved.get(canonical)
        if actual is None:
            return ""
        return (row.get(actual) or "").strip()

    subject_id = cell("subject_id")
    if not subject_id:
        raise ValueError("subject_id missing")
    site_id = cell("site_id") or "unknown"

    truth_raw = cell("truth").lower()
    truth: Label | None = None
    if truth_raw:
        if truth_raw not in _TRUTH_VALUES:
            raise ValueError(f"unrecognized truth value {truth_raw!r}")
        truth = Label.POSITIVE if _TRUTH_VALUES[truth_raw] else Label.NEGATIVE

    out_raw = cell("output").lower()
    score_raw = cell("score")
    if out_raw and score_raw:
        raise ValueError("both output and score present; device output must be a single variant")
    if out_raw:
        if out_raw in ("pos", "positive"):
            output = DeviceOutput.binary(Label.POSITIVE)
        elif out_raw in ("neg", "negative"):
            output = DeviceOutput.binary(Label.NEGATIVE)
        elif out_raw == "ungradable":
            output = DeviceOutput.ungradable()
        else:
            raise ValueError(f"unrecognized output value {out_raw!r}")
    elif score_raw:
        try:
            score = float(score_raw)
        except ValueError:
            raise ValueError(f"score {score_raw!r} is not a number") from None
        if not 0.0 <= score <= 1.0:
            raise ValueError("score out of range")
        output = DeviceOutput.score(score)
    else:
        raise ValueError("no device output (output and score both empty)")

    time_raw, event_raw = cell("time"), cell("event")
    survival: Survival | None = None
    if time_raw or event_raw:
        if not (time_raw and event_raw):
            raise ValueError("time and event must be present together")
        try:
            time = float(time_raw)
        except ValueError:
            raise ValueError(f"time {time_raw!r} is not a number") from None
        if not math.isfinite(time):
            raise ValueError(f"time {time_raw!r} is not finite")
        if time < 0:
            raise ValueError("negative survival time")
        if event_raw not in ("0", "1"):
            raise ValueError(f"event must be 0 or 1, got {event_raw!r}")
        survival = Survival(time=time, event=event_raw == "1")

    rep_raw = cell("replicate_index")
    replicate_index: int | None = None
    if rep_raw:
        try:
            replicate_index = int(rep_raw)
        except ValueError:
            raise ValueError(f"replicate_index {rep_raw!r} is not an integer") from None
        if replicate_index < 0:
            raise ValueError("replicate_index must be nonnegative")

    covariates = {}
    for col in covariate_cols:
        raw = (row.get(col) or "").strip()
        if raw:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"covariate {col!r} value {raw!r} is not finite")
            covariates[col] = value

    return ValidationRecord(
        subject_id=subject_id,
        site_id=site_id,
        output=output,
        truth=truth,
        survival=survival,
        operator_id=cell("operator_id") or None,
        device_unit_id=cell("device_unit_id") or None,
        replicate_index=replicate_index,
        covariates=covariates,
    )


def reference_ingest(
    path: str | Path,
    mapping: Mapping[str, str] | None = None,
    strict: bool = False,
) -> tuple[tuple[ValidationRecord, ...], tuple[RowError, ...], tuple[str, ...]]:
    """The seed's ingest_csv: records, errors and excluded columns."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path} is empty (no header row)")
        # Rows are keyed by the stripped names, the same ones columns resolve to.
        reader.fieldnames = header = [name.strip() for name in reader.fieldnames]
        rows = list(reader)

    resolved = _resolve_mapping(header, mapping)
    claimed = set(resolved.values())
    extra = [col for col in header if col not in claimed]

    covariate_cols, excluded = [], []
    for col in extra:
        cells = [(r.get(col) or "").strip() for r in rows]
        try:
            for c in cells:
                if c:
                    float(c)
        except ValueError:
            excluded.append(col)
        else:
            covariate_cols.append(col)

    records: list[ValidationRecord] = []
    errors: list[RowError] = []
    for i, row in enumerate(rows, start=1):
        try:
            records.append(_parse_row(row, resolved, covariate_cols))
        except ValueError as exc:
            if strict:
                raise ValueError(f"row {i}: {exc}") from exc
            errors.append(RowError(row=i, message=str(exc)))
    return tuple(records), tuple(errors), tuple(excluded)




# ---------------------------------------------------------------- CSV strategy

# Per column: cells that parse, then cells that do not (or that quarantine
# the row). Good cells are drawn more often, so many rows get past the early
# checks and reach the later ones.
_CELLS = {
    "subject_id": (["s1", "s2", " s3 ", "a,b", 'q"t'], ["", "  "]),
    "site_id": (["a", " b", "", "site-c"], []),
    "truth": (["pos", "NEG", "Positive", " negative ", ""], ["maybe"]),
    "output": (["pos", "neg", "ungradable", " Negative ", "POS", ""], ["x"]),
    "score": (["0.5", "1e-1", " 0.25 ", "1", "-0", ".5", "1_0e-1", ""], ["1.5", "nan", "inf", "abc", "0_5"]),
    "time": (["3", "2.5", " 2 ", "1e3", "1_0", "0", ""], ["-1", "inf", "nan", "-inf", "x"]),
    "event": (["0", "1", " 1 ", ""], ["2", "yes"]),
    "operator_id": (["op1", " op2 ", ""], []),
    "device_unit_id": (["u1", "u 2", ""], []),
    "replicate_index": (["0", "1", " 2 ", "+3", "1_0", ""], ["-1", "x", "1.0"]),
}
_NUMERIC = (["1", "2.5", " 2 ", "1e3", "1_0", "-0", "", "  "], ["inf", "nan", "-inf"])
_EXTRA = {
    "age": _NUMERIC,
    "marker": _NUMERIC,
    "note": (_NUMERIC[0], _NUMERIC[1] + ["ok", "n/a"]),
    "pid": _CELLS["subject_id"],
}
_ALIASES = [" truth", "score ", " age ", "subject_id", "age"]


def _cell(draw, name: str) -> str:
    good, bad = _CELLS.get(name.strip()) or _EXTRA[name.strip()]
    return draw(st.sampled_from(bad if bad and draw(st.integers(0, 4)) == 0 else good))


@st.composite
def csv_files(draw):
    """CSV text and a mapping: header names from the canonical columns,
    padded and duplicated aliases and extras; rows that may be short, long
    or blank; cells from per-column pools of good and bad values."""
    names = [n for n in CANONICAL_COLUMNS if draw(st.integers(0, 2))]
    names += draw(st.lists(st.sampled_from(_ALIASES + list(_EXTRA)), max_size=3))
    header = draw(st.permutations(names)) if names else [draw(st.sampled_from(list(_EXTRA)))]
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append([])  # a blank line
            continue
        row = [_cell(draw, name) for name in header]
        cut = draw(st.sampled_from([len(row)] * 6 + [0, 1, len(row) - 1, len(row) + 2]))
        lines.append((row + ["9", "extra"])[: max(cut, 1)])
    mapping = draw(
        st.sampled_from(
            [None, {}, {"subject_id": "pid"}, {"truth": "note"}, {"output": "missing"}]
        )
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(lines)
    return out.getvalue(), mapping


def _outcome(ingest, path, mapping, strict):
    try:
        return ingest(path, mapping=mapping, strict=strict)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _columns_agree(table: StudyTable, records) -> bool:
    """The ingested table holds what StudyTable.from_records makes of its records."""
    other = StudyTable.from_records(records)
    arrays = ("truth", "output_kind", "label", "score", "time", "event")
    ids = ("subject_id", "site_id", "operator_id", "device_unit_id", "replicate_index")
    return (
        all(np.array_equal(getattr(table, a), getattr(other, a), equal_nan=True) for a in arrays)
        and all(getattr(table, f) == getattr(other, f) for f in ids)
        and all(
            np.array_equal(table.covariate(n), other.covariate(n), equal_nan=True)
            for n in table.covariate_names + other.covariate_names
        )
    )


@settings(max_examples=250, deadline=None)
@given(csv_files())
def test_column_ingest_matches_the_row_parser(tmp_path_factory, case):
    text, mapping = case
    path = tmp_path_factory.mktemp("ingest") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for strict in (False, True):
        expected = _outcome(reference_ingest, path, mapping, strict)
        got = _outcome(ingest_csv, path, mapping, strict)
        if isinstance(expected, str):
            assert got == expected
            continue
        records, errors, excluded = expected
        assert not isinstance(got, str), got
        assert got.errors == errors
        assert got.excluded_columns == excluded
        assert len(got.records) == len(records)
        assert repr(list(got.records)) == repr(list(records))
        assert got.records == records
        assert _columns_agree(got.table, records)


_GOOD_ROW = {
    "subject_id": "s", "site_id": "a", "truth": "pos", "output": "", "score": "0.5",
    "time": "1", "event": "1", "operator_id": "op", "device_unit_id": "u",
    "replicate_index": "0", "age": "61",
}
_FAULTS = [
    {"subject_id": " "}, {"truth": "maybe"}, {"output": "pos"}, {"output": "x", "score": ""},
    {"score": "abc"}, {"score": "1.5"}, {"score": "nan"}, {"score": ""}, {"time": ""},
    {"event": ""}, {"time": "x"}, {"time": "inf"}, {"time": "-1"}, {"event": "2"},
    {"replicate_index": "x"}, {"replicate_index": "-1"}, {"age": "inf"}, {"age": "nan"},
]


def test_each_row_reports_its_first_fault(tmp_path):
    # Every pair of faults in one row: the message is the one the row parser
    # meets first.
    rows = [{**_GOOD_ROW, **a, **b} for a in _FAULTS for b in _FAULTS]
    path = tmp_path / "d.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(_GOOD_ROW))
        writer.writeheader()
        writer.writerows([_GOOD_ROW] + rows)
    records, errors, excluded = reference_ingest(path)
    result = ingest_csv(path)
    assert len(errors) > len(rows) // 2 and result.errors == errors
    assert result.records == records and result.excluded_columns == excluded


def test_ingest_reads_a_text_stream_like_its_file(tmp_path):
    text = "subject_id, truth ,score,age\r\ns1,pos,0.5,61\r\n\r\ns2,neg,,\r\ns3,neg,0.25,1_0\r\n"
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    from_file = ingest_csv(path)
    from_stream = ingest_csv(io.StringIO(text, newline=""))
    assert from_file.records == from_stream.records == reference_ingest(path)[0]
    assert from_file.errors == from_stream.errors == (RowError(2, "no device output (output and score both empty)"),)


def test_records_are_built_once_and_only_when_read(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("subject_id,score\ns1,0.5\ns2,0.7\n", encoding="utf-8")
    result = ingest_csv(path)
    assert len(result.records) == 2 and result.records._records is None
    first = result.records[0]
    assert result.records[0] is first and list(result.records)[1].output.value == 0.7
    assert result.records == list(result.records) and result.records != ()


# ---------------------------------------------------------------- round trip

_names = st.text("abcxyz_-", min_size=1, max_size=6)
_ids = st.text("abc123 ,\"-", min_size=1, max_size=6).filter(lambda s: s == s.strip())
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_lists(draw):
    covariates = draw(
        st.lists(_names.filter(lambda n: n not in CANONICAL_COLUMNS), max_size=3, unique=True)
    )
    records = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["binary", "score", "ungradable"]))
        if kind == "binary":
            output = DeviceOutput.binary(draw(st.sampled_from(list(Label))))
        elif kind == "score":
            output = DeviceOutput.score(draw(st.floats(0.0, 1.0)))
        else:
            output = DeviceOutput.ungradable()
        survival = draw(
            st.none() | st.builds(Survival, time=st.floats(0.0, 1e9), event=st.booleans())
        )
        records.append(
            ValidationRecord(
                subject_id=draw(_ids),
                site_id=draw(_ids),
                output=output,
                truth=draw(st.none() | st.sampled_from(list(Label))),
                survival=survival,
                operator_id=draw(st.none() | _ids),
                device_unit_id=draw(st.none() | _ids),
                replicate_index=draw(st.none() | st.integers(0, 10**12)),
                covariates={n: draw(_finite) for n in covariates if draw(st.booleans())},
            )
        )
    return records


@settings(max_examples=80, deadline=None)
@given(record_lists())
def test_serialize_then_ingest_is_the_identity(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    serialize_records(StudyTable.from_records(records), path)
    result = ingest_csv(path)
    assert result.errors == ()
    assert list(result.records) == records
