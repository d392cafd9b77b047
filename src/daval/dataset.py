"""Canonical data model and CSV ingestion for validation datasets.

A validation dataset is one :class:`StudyTable`: a column per field, entry i
of every column describing row i (one subject/case). Ingest fills the table
column by column, and every analysis reads its arrays from it. Columns are
read-only after construction, so a table is safe to share across threads.

:class:`ValidationRecord` is the same data one row at a time. Analyses that
are handed a record sequence turn it into a table first
(:meth:`StudyTable.from_records`), and :attr:`IngestResult.records` builds
the records of an ingested table only when they are asked for.

The CSV schema is remappable: callers supply a column mapping (canonical name
-> actual header name) and any unmapped extra column is treated as a numeric
covariate. Malformed rows are quarantined with their row number instead of
being silently dropped; ``strict=True`` turns any quarantined row into a hard
failure.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Label",
    "OutputKind",
    "DeviceOutput",
    "Survival",
    "ValidationRecord",
    "RowError",
    "IngestResult",
    "StudyTable",
    "IntegrityReport",
    "StratumSummary",
    "DatasetSummary",
    "CANONICAL_COLUMNS",
    "ingest_csv",
    "serialize_records",
    "validate_records",
    "descriptive_summary",
]

CANONICAL_COLUMNS = (
    "subject_id",
    "site_id",
    "truth",
    "output",
    "score",
    "time",
    "event",
    "operator_id",
    "device_unit_id",
    "replicate_index",
)

_TRUTH_VALUES = {"pos": True, "positive": True, "neg": False, "negative": False}


class Label(Enum):
    """Binary state used for both the reference standard and binary device output."""

    POSITIVE = "pos"
    NEGATIVE = "neg"

    def flipped(self) -> "Label":
        return Label.NEGATIVE if self is Label.POSITIVE else Label.POSITIVE


class OutputKind(Enum):
    BINARY = "binary"
    SCORE = "score"
    UNGRADABLE = "ungradable"


@dataclass(frozen=True)
class DeviceOutput:
    """Tagged union over the three device output forms.

    Exactly one variant is populated: a binary label, a score in [0, 1], or
    the ungradable marker emitted when the device's quality-control step
    rejects the case.
    """

    kind: OutputKind
    label: Label | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind is OutputKind.BINARY:
            if self.label is None or self.value is not None:
                raise ValueError("binary output carries a label and no score")
        elif self.kind is OutputKind.SCORE:
            if self.value is None or self.label is not None:
                raise ValueError("score output carries a value and no label")
            if not 0.0 <= self.value <= 1.0:
                raise ValueError(f"score {self.value} outside [0, 1]")
        else:
            if self.label is not None or self.value is not None:
                raise ValueError("ungradable output carries no payload")

    @staticmethod
    def binary(label: Label) -> "DeviceOutput":
        return DeviceOutput(OutputKind.BINARY, label=label)

    @staticmethod
    def score(value: float) -> "DeviceOutput":
        return DeviceOutput(OutputKind.SCORE, value=float(value))

    @staticmethod
    def ungradable() -> "DeviceOutput":
        return DeviceOutput(OutputKind.UNGRADABLE)


@dataclass(frozen=True)
class Survival:
    """Right-censored time-to-event outcome: ``event=False`` means censored at ``time``."""

    time: float
    event: bool

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"survival time {self.time} is negative")


@dataclass(frozen=True)
class ValidationRecord:
    """One subject/case of a validation study."""

    subject_id: str
    site_id: str
    output: DeviceOutput
    truth: Label | None = None
    survival: Survival | None = None
    operator_id: str | None = None
    device_unit_id: str | None = None
    replicate_index: int | None = None
    covariates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.subject_id:
            raise ValueError("subject_id must be nonempty")
        if self.replicate_index is not None and self.replicate_index < 0:
            raise ValueError("replicate_index must be nonnegative")


@dataclass(frozen=True)
class RowError:
    """A quarantined CSV row: 1-based data row number plus the reason."""

    row: int
    message: str


_KINDS = tuple(OutputKind)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_LABEL_CODE = {Label.POSITIVE: 1, Label.NEGATIVE: 0, None: -1}
_LABELS = {code: label for label, code in _LABEL_CODE.items()}


def first_row(mask: np.ndarray) -> int:
    """Index of the first True entry of a row mask, or -1 when there is none."""
    rows = np.flatnonzero(mask)
    return int(rows[0]) if rows.size else -1


@dataclass(frozen=True, eq=False)
class StudyTable:
    """A validation dataset as columns; entry i of each column is row i.

    ``truth`` and ``label`` hold 1 (positive), 0 (negative) or -1 (none);
    ``output_kind`` holds the position of the kind in :class:`OutputKind`
    (binary, score, ungradable). ``score`` and ``time`` are NaN where absent
    and ``event`` is -1 without follow-up. The optional id columns and
    ``replicate_index`` hold None where absent. ``covariates`` has one column
    per name in ``covariate_names``, NaN where a row has no value.
    """

    subject_id: tuple[str, ...]
    site_id: tuple[str, ...]
    truth: np.ndarray
    output_kind: np.ndarray
    label: np.ndarray
    score: np.ndarray
    time: np.ndarray
    event: np.ndarray
    operator_id: tuple[str | None, ...]
    device_unit_id: tuple[str | None, ...]
    replicate_index: tuple[int | None, ...]
    covariates: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("truth", "output_kind", "label", "score", "time", "event", "covariates"):
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.subject_id)

    @classmethod
    def from_records(cls, records: Iterable[ValidationRecord]) -> "StudyTable":
        """The table of a record sequence, in its order.

        A covariate a record lacks (or holds as NaN) reads as missing.
        """
        records = list(records)
        outputs = [r.output for r in records]
        names = tuple(dict.fromkeys(name for r in records for name in r.covariates))
        nan = math.nan
        return cls(
            subject_id=tuple(r.subject_id for r in records),
            site_id=tuple(r.site_id for r in records),
            truth=np.array([_LABEL_CODE[r.truth] for r in records], dtype=np.int8),
            output_kind=np.array([_KIND_CODE[o.kind] for o in outputs], dtype=np.int8),
            label=np.array([_LABEL_CODE[o.label] for o in outputs], dtype=np.int8),
            score=np.array([nan if o.value is None else o.value for o in outputs], dtype=float),
            time=np.array([nan if r.survival is None else r.survival.time for r in records], dtype=float),
            event=np.array([-1 if r.survival is None else int(r.survival.event) for r in records], dtype=np.int8),
            operator_id=tuple(r.operator_id for r in records),
            device_unit_id=tuple(r.device_unit_id for r in records),
            replicate_index=tuple(r.replicate_index for r in records),
            covariates=np.array(
                [[r.covariates.get(name, nan) for name in names] for r in records], dtype=float
            ).reshape(len(records), len(names)),
            covariate_names=names,
        )

    @classmethod
    def of(cls, data: "StudyTable | Iterable[ValidationRecord]") -> "StudyTable":
        """``data`` itself when it is a table, else the table of its records."""
        return data if isinstance(data, StudyTable) else cls.from_records(data)

    def is_kind(self, kind: OutputKind) -> np.ndarray:
        """Row mask of the rows whose device output is of ``kind``."""
        return self.output_kind == _KIND_CODE[kind]

    def kind_at(self, row: int) -> OutputKind:
        return _KINDS[self.output_kind[row]]

    def covariate(self, name: str) -> np.ndarray:
        """Values of covariate ``name``, NaN where absent (all NaN if unknown)."""
        if name not in self.covariate_names:
            return np.full(len(self), math.nan)
        return self.covariates[:, self.covariate_names.index(name)].copy()

    def to_records(self) -> tuple[ValidationRecord, ...]:
        """One :class:`ValidationRecord` per row, in row order."""
        names = self.covariate_names
        records = []
        for sid, site, truth, kind, label, score, time, event, op, unit, rep, cov in zip(
            self.subject_id,
            self.site_id,
            self.truth.tolist(),
            self.output_kind.tolist(),
            self.label.tolist(),
            self.score.tolist(),
            self.time.tolist(),
            self.event.tolist(),
            self.operator_id,
            self.device_unit_id,
            self.replicate_index,
            self.covariates.tolist(),
        ):
            output = DeviceOutput(
                _KINDS[kind], label=_LABELS[label], value=None if math.isnan(score) else score
            )
            records.append(
                ValidationRecord(
                    subject_id=sid,
                    site_id=site,
                    output=output,
                    truth=_LABELS[truth],
                    survival=None if event < 0 else Survival(time=time, event=event == 1),
                    operator_id=op,
                    device_unit_id=unit,
                    replicate_index=rep,
                    covariates={n: v for n, v in zip(names, cov) if not math.isnan(v)},
                )
            )
        return tuple(records)


class IngestedRecords(Sequence):
    """The rows of an ingested table as records, built on first element access.

    ``len()`` reads the table; indexing or iterating builds every record once
    and keeps them. Compares equal to a tuple or list of the same records.
    """

    def __init__(self, table: StudyTable):
        self._table = table
        self._records: tuple[ValidationRecord, ...] | None = None

    def _built(self) -> tuple[ValidationRecord, ...]:
        if self._records is None:
            self._records = self._table.to_records()
        return self._records

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index):
        records = self._records
        return (self._built() if records is None else records)[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, IngestedRecords)):
            return NotImplemented
        return len(self) == len(other) and self._built() == tuple(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"IngestedRecords(<{len(self)} rows>)"


@dataclass(frozen=True)
class IngestResult:
    """The table of a file's good rows, its quarantined rows and the extra
    columns left out; ``records`` reads the table as records."""

    table: StudyTable
    errors: tuple[RowError, ...]
    excluded_columns: tuple[str, ...] = ()

    @cached_property
    def records(self) -> IngestedRecords:
        return IngestedRecords(self.table)


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


def _decode(
    cells: Sequence[str], decode: Callable[[str], object], failed: object, dtype=None
) -> tuple[list | np.ndarray, dict[str, str]]:
    """Decode each distinct cell of a column once.

    Returns the decoded cells in row order (a list, or an array of ``dtype``)
    and the message of each distinct cell whose decode raised ValueError;
    those cells decode to ``failed``.
    """
    values: dict[str, object] = {}
    failures: dict[str, str] = {}
    for raw in set(cells):
        try:
            values[raw] = decode(raw)
        except ValueError as exc:
            values[raw], failures[raw] = failed, str(exc)
    if len(values) == 1:  # a constant or empty column
        (value,) = values.values()
        if dtype is not None:
            return np.full(len(cells), value, dtype=dtype), failures
        return [value] * len(cells), failures
    if dtype is None and all(raw is value for raw, value in values.items()):
        return list(cells), failures  # every cell decodes to itself
    decoded = list(map(values.__getitem__, cells))
    return (decoded if dtype is None else np.array(decoded, dtype=dtype)), failures


def _truth_code(raw: str) -> int:
    text = raw.strip().lower()
    if not text:
        return -1
    if text not in _TRUTH_VALUES:
        raise ValueError(f"unrecognized truth value {text!r}")
    return 1 if _TRUTH_VALUES[text] else 0


# Output cell codes: 0 empty (the row's output is its score), 1 positive,
# 2 negative, 3 ungradable, 4 unrecognized; mapped to kind and label codes.
_OUTPUT_CODES = {"": 0, "pos": 1, "positive": 1, "neg": 2, "negative": 2, "ungradable": 3}
_OUTPUT_KIND = np.array(
    [_KIND_CODE[k] for k in (OutputKind.SCORE, OutputKind.BINARY, OutputKind.BINARY, OutputKind.UNGRADABLE)]
    + [-1],
    dtype=np.int8,
)
_OUTPUT_LABEL = np.array([-1, 1, 0, -1, -1], dtype=np.int8)


def _output_code(raw: str) -> int:
    text = raw.strip().lower()
    if text not in _OUTPUT_CODES:
        raise ValueError(f"unrecognized output value {text!r}")
    return _OUTPUT_CODES[text]


def _score_value(raw: str) -> float:
    text = raw.strip()
    if not text:
        return math.nan
    try:
        score = float(text)
    except ValueError:
        raise ValueError(f"score {text!r} is not a number") from None
    if not 0.0 <= score <= 1.0:
        raise ValueError("score out of range")
    return score


def _time_value(raw: str) -> float:
    text = raw.strip()
    if not text:
        return math.nan
    try:
        time = float(text)
    except ValueError:
        raise ValueError(f"time {text!r} is not a number") from None
    if not math.isfinite(time):
        raise ValueError(f"time {text!r} is not finite")
    if time < 0:
        raise ValueError("negative survival time")
    return time


def _event_code(raw: str) -> int:
    text = raw.strip()
    if not text:
        return -1
    if text not in ("0", "1"):
        raise ValueError(f"event must be 0 or 1, got {text!r}")
    return int(text)


def _replicate_value(raw: str) -> int | None:
    text = raw.strip()
    if not text:
        return None
    try:
        replicate_index = int(text)
    except ValueError:
        raise ValueError(f"replicate_index {text!r} is not an integer") from None
    if replicate_index < 0:
        raise ValueError("replicate_index must be nonnegative")
    return replicate_index


def _id_value(raw: str) -> str | None:
    return raw.strip() or None


def _covariate_column(cells: Sequence[str], name: str) -> tuple[np.ndarray, dict[str, str]] | None:
    """An extra column's values (NaN where empty) and the messages of its
    non-finite cells, or None when a nonempty cell is not a number."""
    non_finite: dict[str, str] = {}

    def decode(raw: str) -> float:
        text = raw.strip()
        if not text:
            return math.nan
        value = float(text)
        if not math.isfinite(value):
            non_finite[raw] = f"covariate {name!r} value {text!r} is not finite"
        return value

    values, failures = _decode(cells, decode, math.nan, float)
    return None if failures else (values, non_finite)


def _read_columns(text: str, source: object) -> tuple[list[str], int, dict[str, list[str]]]:
    """Stripped header names, the data row count and each name's cells, from
    one csv pass.

    As with ``csv.DictReader``: blank lines are skipped and not counted, a
    short row reads empty cells, cells past the header are ignored, and a
    name that heads two columns reads the last of them.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{source} is empty (no header row)")
    header = [name.strip() for name in header]
    # The row lists hold only strings, so they cannot form reference cycles.
    # They are built and freed with the collector off: its passes over them
    # would find nothing and cost about as much as the parse itself.
    collect = gc.isenabled()
    gc.disable()
    try:
        rows = list(reader)
        if [] in rows:
            rows = [row for row in rows if row]
        width = len(header)
        if set(map(len, rows)) - {width}:
            rows = [row[:width] + [""] * (width - len(row)) for row in rows]
        n = len(rows)
        cells = list(chain.from_iterable(rows))
        del rows
        columns = [cells[j::width] for j in range(width)]
    finally:
        if collect:
            gc.enable()
    return header, n, dict(zip(header, columns))


def ingest_csv(
    path: str | os.PathLike | IO[str],
    mapping: Mapping[str, str] | None = None,
    strict: bool = False,
) -> IngestResult:
    """Read a validation dataset from a UTF-8 CSV file into a :class:`StudyTable`.

    ``path`` is a file path, or an open text stream of the file's contents.
    ``mapping`` translates canonical column names to the file's actual headers;
    unmapped canonical names are matched by identity when present. Every header
    not claimed by a canonical column is treated as a covariate column if all
    of its nonempty cells parse as numbers, and excluded (reported in
    ``excluded_columns``) otherwise.

    Rows that fail to parse, including non-finite time and covariate cells,
    are collected into ``errors`` with their 1-based data-row number and the
    first fault in the row; with ``strict=True`` the first quarantined row
    raises. The table holds the other rows, in file order.
    """
    if isinstance(path, (str, os.PathLike)):
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"dataset file not found: {path}")
        text = path.read_bytes().decode("utf-8")
    else:
        text = path.read()
    header, n, by_name = _read_columns(text, path)
    del text
    resolved = _resolve_mapping(header, mapping)
    blank = ("",) * n

    def cells(canonical: str) -> Sequence[str]:
        actual = resolved.get(canonical)
        return blank if actual is None else by_name[actual]

    claimed = set(resolved.values())
    covariates: dict[str, tuple[np.ndarray, dict[str, str]]] = {}
    excluded = []
    for col in header:
        if col not in claimed:
            parsed = covariates.get(col) or _covariate_column(by_name[col], col)
            if parsed is None:
                excluded.append(col)
            else:
                covariates[col] = parsed

    # Checks run in the order the fields are read, and each files its message
    # for a row only when no earlier check has, so a row reports its first fault.
    errors: dict[int, str] = {}

    def file(mask: np.ndarray, message: str) -> None:
        for i in np.flatnonzero(mask).tolist():
            errors.setdefault(i, message)

    def file_failures(column: Sequence[str], failures: dict[str, str]) -> None:
        if failures:
            for i, raw in enumerate(column):
                if raw in failures:
                    errors.setdefault(i, failures[raw])

    subject_id = list(map(str.strip, cells("subject_id")))
    if "" in subject_id:
        file(np.array(subject_id) == "", "subject_id missing")
    site_id, _ = _decode(cells("site_id"), lambda raw: raw.strip() or "unknown", None)
    truth, failures = _decode(cells("truth"), _truth_code, -1, np.int8)
    file_failures(cells("truth"), failures)
    output, output_failures = _decode(cells("output"), _output_code, 4, np.int8)
    score, score_failures = _decode(cells("score"), _score_value, -1.0, float)
    has_output, has_score = output != 0, ~np.isnan(score)
    file(has_output & has_score, "both output and score present; device output must be a single variant")
    file_failures(cells("output"), output_failures)
    file_failures(cells("score"), score_failures)
    file(~has_output & ~has_score, "no device output (output and score both empty)")
    time, time_failures = _decode(cells("time"), _time_value, -1.0, float)
    event, event_failures = _decode(cells("event"), _event_code, 2, np.int8)
    file(np.isnan(time) != (event == -1), "time and event must be present together")
    file_failures(cells("time"), time_failures)
    file_failures(cells("event"), event_failures)
    replicate_index, failures = _decode(cells("replicate_index"), _replicate_value, None)
    file_failures(cells("replicate_index"), failures)
    for col, (_, non_finite) in covariates.items():
        file_failures(by_name[col], non_finite)

    if strict and errors:
        first = min(errors)
        raise ValueError(f"row {first + 1}: {errors[first]}")

    kept: slice | list[int] = slice(None)
    if errors:
        kept = sorted(set(range(n)).difference(errors))

    def kept_rows(values: list) -> tuple:
        return tuple(values if not errors else [values[i] for i in kept])

    names = tuple(covariates)
    table = StudyTable(
        subject_id=kept_rows(subject_id),
        site_id=kept_rows(site_id),
        truth=truth[kept],
        output_kind=_OUTPUT_KIND[output[kept]],
        label=_OUTPUT_LABEL[output[kept]],
        score=score[kept],
        time=time[kept],
        event=event[kept],
        operator_id=kept_rows(_decode(cells("operator_id"), _id_value, None)[0]),
        device_unit_id=kept_rows(_decode(cells("device_unit_id"), _id_value, None)[0]),
        replicate_index=kept_rows(replicate_index),
        covariates=np.array([covariates[name][0][kept] for name in names], dtype=float)
        .reshape(len(names), n - len(errors))
        .T.copy(),
        covariate_names=names,
    )
    row_errors = tuple(RowError(row=i + 1, message=errors[i]) for i in sorted(errors))
    return IngestResult(table=table, errors=row_errors, excluded_columns=tuple(excluded))


def serialize_records(records: Iterable[ValidationRecord], path: str | Path) -> None:
    """Write records back out in the canonical CSV schema (inverse of ingest_csv)."""
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


@dataclass(frozen=True)
class IntegrityReport:
    duplicate_keys: tuple[tuple[str, int | None], ...]
    n_missing_truth: int
    site_counts: tuple[tuple[str, int], ...]
    warnings: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.duplicate_keys and not self.warnings and self.n_missing_truth == 0


def validate_records(records: StudyTable | Sequence[ValidationRecord]) -> IntegrityReport:
    """Report-only integrity check: duplicates, truth missingness, site balance."""
    table = StudyTable.of(records)
    n = len(table)
    duplicates: tuple[tuple[str, int | None], ...] = ()
    if len(set(table.subject_id)) < n:
        key_counts = Counter(zip(table.subject_id, table.replicate_index))
        duplicates = tuple(sorted(k for k, c in key_counts.items() if c > 1))
    n_missing_truth = int(np.count_nonzero(table.truth == -1))
    site_counts = Counter(table.site_id)

    warnings: list[str] = []
    if duplicates:
        warnings.append(f"{len(duplicates)} duplicate (subject_id, replicate_index) keys")
    if n_missing_truth:
        warnings.append(f"{n_missing_truth} records lack a reference-standard truth label")
    if n and len(site_counts) == 1:
        warnings.append("single-site dataset: external validity expects multi-site data")
    elif len(site_counts) > 1:
        top_site, top_n = site_counts.most_common(1)[0]
        if top_n / n >= 0.8:
            warnings.append(f"site imbalance: {top_site!r} holds {top_n}/{n} records")
    return IntegrityReport(
        duplicate_keys=duplicates,
        n_missing_truth=n_missing_truth,
        site_counts=tuple(sorted(site_counts.items())),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class StratumSummary:
    stratum: tuple[tuple[str, str], ...]  # (field, value) pairs, empty for pooled
    n: int
    n_with_truth: int
    prevalence: float | None
    output_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class DatasetSummary:
    n: int
    pooled: StratumSummary
    strata: tuple[StratumSummary, ...]
    missingness: tuple[tuple[str, float], ...]
    site_counts: tuple[tuple[str, int], ...]


_RECORD_FIELDS = ("site_id", "operator_id", "device_unit_id", "subject_id")


def _stratum_value(record: ValidationRecord, fld: str) -> str:
    if fld in _RECORD_FIELDS:
        value = getattr(record, fld)
        return "missing" if value is None else str(value)
    if fld in record.covariates:
        return repr(record.covariates[fld])
    return "missing"


def _summarize(records: Sequence[ValidationRecord], key: tuple) -> StratumSummary:
    with_truth = [r for r in records if r.truth is not None]
    n_pos = sum(1 for r in with_truth if r.truth is Label.POSITIVE)
    counts = Counter(r.output.kind.value for r in records)
    return StratumSummary(
        stratum=key,
        n=len(records),
        n_with_truth=len(with_truth),
        prevalence=n_pos / len(with_truth) if with_truth else None,
        output_counts=tuple(sorted(counts.items())),
    )


def descriptive_summary(
    records: Sequence[ValidationRecord], strata_fields: Sequence[str] = ()
) -> DatasetSummary:
    """Per-stratum counts, prevalence, and device-output distribution.

    ``strata_fields`` may name record keys (site_id, operator_id,
    device_unit_id) or covariate columns; strata are the observed joint
    values, so empty strata never appear.
    """
    known_covariates = {name for r in records for name in r.covariates}
    for fld in strata_fields:
        if fld not in _RECORD_FIELDS and fld not in known_covariates:
            raise ValueError(f"unknown stratum field {fld!r}")

    groups: dict[tuple, list[ValidationRecord]] = {}
    for r in records:
        key = tuple((fld, _stratum_value(r, fld)) for fld in strata_fields)
        groups.setdefault(key, []).append(r)

    strata = tuple(
        _summarize(group, key) for key, group in sorted(groups.items()) if strata_fields
    )

    n = len(records)
    missingness: list[tuple[str, float]] = []
    if n:
        missingness.append(("truth", sum(r.truth is None for r in records) / n))
        missingness.append(("survival", sum(r.survival is None for r in records) / n))
        for fld in ("operator_id", "device_unit_id", "replicate_index"):
            missingness.append((fld, sum(getattr(r, fld) is None for r in records) / n))
        for name in sorted(known_covariates):
            missingness.append((name, sum(name not in r.covariates for r in records) / n))

    return DatasetSummary(
        n=n,
        pooled=_summarize(records, ()),
        strata=strata,
        missingness=tuple(missingness),
        site_counts=tuple(sorted(Counter(r.site_id for r in records).items())),
    )
