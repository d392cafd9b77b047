"""Canonical data model and CSV ingestion for validation datasets.

A validation dataset is one :class:`StudyTable`: a column per field, entry i
of every column describing row i (one subject/case). Ingest fills the table
column by column, and every analysis reads its arrays from it. Columns are
read-only after construction, so a table is safe to share across threads.
The simulators build their studies as tables too, and :func:`serialize_records`
writes a table through the same columnar CSV writer as the report's plot
files.

:class:`ValidationRecord` is the same data one row at a time. Records exist
only at the edges: :attr:`IngestResult.records` builds the records of an
ingested table when they are asked for, and :meth:`StudyTable.to_records`
and :meth:`StudyTable.from_records` convert between the two forms.

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
from itertools import chain, islice, repeat
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

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
    "CANONICAL_COLUMNS",
    "ingest_csv",
    "serialize_records",
    "validate_records",
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


_CHUNK_ROWS = 65_536  # lines ingest splits and decodes at a time


class _Column:
    """A column decoded chunk by chunk, each distinct cell once: ``values``
    maps cells to values, ``failures`` maps each cell whose decode raised
    ValueError (it decodes to ``failed``) to the message. Both carry over to
    the next chunk until they pass ``_CHUNK_ROWS`` cells, so equal cells share
    one value and the cache stays bounded. ``parts`` holds each chunk's values.
    """

    def __init__(self, decode: Callable[[str], object], failed: object, dtype=None):
        self.decode, self.failed, self.dtype = decode, failed, dtype
        self.values, self.failures, self.parts = {}, {}, []

    def add(self, cells: Sequence[str]) -> list | np.ndarray:
        """The values of one chunk's cells (a list, or an array of ``dtype``), kept."""
        values = self.values
        if len(values) > _CHUNK_ROWS:
            values.clear()
            self.failures.clear()
        distinct = set(cells)
        for raw in distinct.difference(values):
            try:
                values[raw] = self.decode(raw)
            except ValueError as exc:
                values[raw], self.failures[raw] = self.failed, str(exc)
        if len(distinct) == 1:  # a constant or empty column
            value = values[cells[0]]
            decoded = [value] * len(cells) if self.dtype is None else np.full(len(cells), value, self.dtype)
        else:
            decoded = list(map(values.__getitem__, cells))
            if self.dtype is not None:
                decoded = np.array(decoded, dtype=self.dtype)
        self.parts.append(decoded)
        return decoded

    def joined(self) -> list | np.ndarray:
        """Every chunk's values, in row order."""
        if self.dtype is None:
            return list(chain.from_iterable(self.parts))
        return np.concatenate(self.parts or [np.empty(0, self.dtype)])


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


# The canonical fields decoded by _Column: decode, failed value and dtype.
_FIELDS = {
    "site_id": (lambda raw: raw.strip() or "unknown", None),
    "truth": (_truth_code, -1, np.int8),
    "output": (_output_code, 4, np.int8),
    "score": (_score_value, -1.0, float),
    "time": (_time_value, -1.0, float),
    "event": (_event_code, 2, np.int8),
    "replicate_index": (_replicate_value, None),
    "operator_id": (_id_value, None),
    "device_unit_id": (_id_value, None),
}


def _covariate_column(name: str) -> tuple[_Column, dict[str, str]]:
    """An extra column's decoder (NaN where empty; a nonempty cell that is not
    a number fails) and the messages of its non-finite cells, filled as it
    decodes."""
    non_finite: dict[str, str] = {}

    def decode(raw: str) -> float:
        text = raw.strip()
        if not text:
            return math.nan
        value = float(text)
        if not math.isfinite(value):
            non_finite[raw] = f"covariate {name!r} value {text!r} is not finite"
        return value

    return _Column(decode, math.nan, float), non_finite


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` as a file opened with newline="" reads them, from
    blocks of about ``_CHUNK_ROWS`` 64-character lines, each ending in "\n"."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + 64 * _CHUNK_ROWS) + 1 or len(text)
        yield from io.StringIO(text[start:end], newline="")
        start = end


def _strided(cells: list[str], width: int) -> list[list[str]]:
    """One list of cells per header position, from the cells of whole rows."""
    return [cells[j::width] for j in range(width)]


def _columns(rows: list[list[str]], width: int) -> list[list[str]]:
    """One list of cells per header position, from rows cut or padded to ``width``."""
    if set(map(len, rows)) - {width}:
        rows = [row[:width] + [""] * (width - len(row)) for row in rows]
    return _strided(list(chain.from_iterable(rows)), width)


def _read_rows(text: str, source: object) -> Iterator:
    r"""Yield the stripped header names (parsed from the first line alone,
    unless it holds a quote), then the data rows in chunks of up to
    ``_CHUNK_ROWS`` lines: each chunk's row count and its cells, one list per
    header position. Text with no quote, no ``\r`` outside a ``\r\n`` and no
    line over ``csv.field_size_limit()`` is split on newlines and commas, other
    text goes through ``csv.reader``; either way, as with ``csv.DictReader``,
    blank lines are skipped and not counted, a short row reads empty cells and
    cells past the header are ignored. A field over the limit raises
    ValueError naming its data row.
    """
    end = text.find("\n") + 1
    try:
        header = next(csv.reader(_lines(text[:end] if end and '"' not in text[:end] else text)), None)
    except csv.Error as exc:
        raise ValueError(f"{source} header row: {exc}") from None
    if header is None:
        raise ValueError(f"{source} is empty (no header row)")
    yield [name.strip() for name in header]
    width, limit, returns = len(header), csv.field_size_limit(), text.count("\r")
    lines = None
    if '"' not in text and (not returns or returns == text.count("\r\n")):
        lines = (text.replace("\r\n", "\n") if returns else text).split("\n")
        if len(text) > limit and max(map(len, lines)) > limit:
            lines = None  # csv.reader refuses a field over the limit with its row
    if lines is None:
        rows, n = csv.reader(_lines(text)), 0
        next(rows)
        while True:
            chunk: list[list[str]] = []
            try:
                chunk.extend(islice(rows, _CHUNK_ROWS))  # keeps the rows read before an error
            except csv.Error as exc:
                raise ValueError(f"row {n + sum(map(bool, chunk)) + 1}: {exc}") from None
            if not chunk:
                return
            chunk = list(filter(None, chunk))
            n += len(chunk)
            if chunk:
                yield len(chunk), _columns(chunk, width)
    del text
    lines.reverse()  # chunks are cut from the end, so each line is freed once read
    lines.pop()  # the header
    while lines:
        chunk = list(filter(None, reversed(lines[-_CHUNK_ROWS:])))
        del lines[-_CHUNK_ROWS:]
        if chunk and set(map(str.count, chunk, repeat(","))) == {width - 1}:
            yield len(chunk), _strided(",".join(chunk).split(","), width)
        elif chunk:
            yield len(chunk), _columns([line.split(",") for line in chunk], width)


def ingest_csv(
    path: str | os.PathLike | IO[str],
    mapping: Mapping[str, str] | None = None,
    strict: bool = False,
) -> IngestResult:
    """Read a validation dataset from a UTF-8 CSV file into a :class:`StudyTable`.

    ``path`` is a file path, or an open text stream of the file's contents; a
    leading byte-order mark is dropped. ``mapping`` translates canonical column
    names to the file's actual headers; unmapped canonical names are matched by
    identity when present. Every header not claimed by a canonical column is
    treated as a covariate column if all of its nonempty cells parse as
    numbers, and excluded (reported in ``excluded_columns``) otherwise.

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
    chunks = _read_rows(text.removeprefix("\ufeff"), path)
    del text
    header = next(chunks)
    resolved = _resolve_mapping(header, mapping)
    claimed = set(resolved.values())
    fields = {name: _Column(*spec) for name, spec in _FIELDS.items()}
    covariates = {col: _covariate_column(col) for col in dict.fromkeys(header) if col not in claimed}
    # Non-finite covariate cells, filed once it is known which columns are kept.
    late: list[tuple[int, str, str]] = []

    # Checks run in the order the fields are read, and each files its message
    # for a row only when no earlier check has, so a row reports its first fault.
    errors: dict[int, str] = {}
    subject_id: list[str] = []
    n = 0

    def file(mask: np.ndarray, message: str) -> None:
        for i in np.flatnonzero(mask).tolist():
            errors.setdefault(n + i, message)

    def file_failures(*names: str) -> None:
        for name in names:
            if failures := fields[name].failures:
                for i, raw in enumerate(cells[name], n):
                    if raw in failures:
                        errors.setdefault(i, failures[raw])

    # The row lists parsed here hold only strings: collector passes would find nothing.
    collect = gc.isenabled()
    gc.disable()
    try:
        for rows, columns in chunks:
            by_name = dict(zip(header, columns))
            blank = ("",) * rows
            cells = {name: by_name[resolved[name]] if name in resolved else blank for name in CANONICAL_COLUMNS}
            values = {name: column.add(cells[name]) for name, column in fields.items()}
            sids = list(map(str.strip, cells["subject_id"]))
            if "" in sids:
                file(np.array(sids) == "", "subject_id missing")
            subject_id += sids
            file_failures("truth")
            has_output, has_score = values["output"] != 0, ~np.isnan(values["score"])
            file(has_output & has_score, "both output and score present; device output must be a single variant")
            file_failures("output", "score")
            file(~has_output & ~has_score, "no device output (output and score both empty)")
            file(np.isnan(values["time"]) != (values["event"] == -1), "time and event must be present together")
            file_failures("time", "event", "replicate_index")
            for col, (decoder, non_finite) in covariates.items():
                if not decoder.failures:  # once a cell is not a number, the column is excluded
                    decoder.add(by_name[col])
                    if non_finite:
                        late += [(i, col, non_finite[raw]) for i, raw in enumerate(by_name[col], n) if raw in non_finite]
            n += rows
            del by_name, columns, cells
    finally:
        if collect:
            gc.enable()

    names = tuple(col for col, (decoder, _) in covariates.items() if not decoder.failures)
    for i, col, message in late:
        if col in names:
            errors.setdefault(i, message)
    if strict and errors:
        first = min(errors)
        raise ValueError(f"row {first + 1}: {errors[first]}")

    kept: slice | list[int] = slice(None)
    if errors:
        kept = sorted(set(range(n)).difference(errors))

    def kept_rows(values: list | np.ndarray) -> tuple | np.ndarray:
        if isinstance(values, np.ndarray):
            return values[kept]
        return tuple(values if not errors else [values[i] for i in kept])

    table_columns = {name: kept_rows(column.joined()) for name, column in fields.items()}
    output = table_columns.pop("output")
    table = StudyTable(
        subject_id=kept_rows(subject_id),
        output_kind=_OUTPUT_KIND[output],
        label=_OUTPUT_LABEL[output],
        covariates=np.array([kept_rows(covariates[name][0].joined()) for name in names], dtype=float)
        .reshape(len(names), n - len(errors))
        .T.copy(),
        covariate_names=names,
        **table_columns,
    )
    row_errors = tuple(RowError(row=i + 1, message=errors[i]) for i in sorted(errors))
    excluded = tuple(col for col in header if col in covariates and col not in names)
    return IngestResult(table=table, errors=row_errors, excluded_columns=excluded)


def _csv_row(fields: Iterable[str], end: str) -> str:
    r"""One row as `csv.writer` writes it, ended by ``end``.

    The writer quotes the characters of its terminator, so it writes with
    `\r\n`: a `\n` one would leave a bare `\r` unquoted, where a reader
    splits the row.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + end


def _csv_column(column: np.ndarray | Sequence[str]) -> list[str]:
    """One column as CSV fields.

    An array's values are written as their Python `repr`: the shortest text
    that reads back to the same float, and an integer's digits.
    """
    if isinstance(column, np.ndarray):
        return list(map(repr, column.tolist()))
    distinct = list(set(column))
    if _csv_row(distinct, "") == ",".join(distinct):  # no text is quoted
        return list(column)
    # Each distinct text quoted once, as one field of a row of several.
    fields = {text: _csv_row((text, ""), "")[:-1] for text in distinct}
    return list(map(fields.__getitem__, column))


def _csv_text(header: Sequence[str], columns: Sequence[np.ndarray | Sequence[str]], end: str) -> str:
    """A CSV file's text from its header and columns, each row ended by ``end``."""
    cells = [_csv_column(column) for column in columns]
    if len(cells) == 1:
        # csv.writer writes a row made of one empty field as `""`.
        cells[0] = [cell or '""' for cell in cells[0]]
    # Fields in the even slots, separators in the odd ones: one join makes the
    # body. A column of another length fails the slice assignment.
    k, rows = len(cells), len(cells[0])
    body = [","] * (2 * k * rows)
    for j, column in enumerate(cells):
        body[2 * j :: 2 * k] = column
    body[2 * k - 1 :: 2 * k] = [end] * rows
    return _csv_row(header, end) + "".join(body)


# The text of truth and label codes -1, 0, 1, by code + 1.
_CODE_TEXT = np.array(["", "neg", "pos"], dtype=object)


def _float_fields(values: np.ndarray) -> list[str]:
    """The `repr` of each value, and an empty field where it is NaN (absent)."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def serialize_records(table: StudyTable, path: str | Path) -> None:
    r"""Write a table in the canonical CSV schema (inverse of ingest_csv): the
    canonical columns, then the covariates in name order, rows ended by
    `\r\n`, and an empty field wherever a value is absent."""
    names = sorted(table.covariate_names)
    output = _CODE_TEXT[table.label + 1]
    output[table.is_kind(OutputKind.UNGRADABLE)] = "ungradable"
    columns = [
        table.subject_id,
        table.site_id,
        _CODE_TEXT[table.truth + 1].tolist(),
        output.tolist(),
        _float_fields(table.score),
        _float_fields(table.time),
        ["" if value < 0 else str(value) for value in table.event.tolist()],
        [value or "" for value in table.operator_id],
        [value or "" for value in table.device_unit_id],
        ["" if value is None else str(value) for value in table.replicate_index],
        *(_float_fields(table.covariate(name)) for name in names),
    ]
    text = _csv_text(CANONICAL_COLUMNS + tuple(names), columns, "\r\n")
    Path(path).write_text(text, encoding="utf-8", newline="")


@dataclass(frozen=True)
class IntegrityReport:
    duplicate_keys: tuple[tuple[str, int | None], ...]
    n_missing_truth: int
    site_counts: tuple[tuple[str, int], ...]
    warnings: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.duplicate_keys and not self.warnings and self.n_missing_truth == 0


def validate_records(table: StudyTable) -> IntegrityReport:
    """Report-only integrity check: duplicates, truth missingness, site balance."""
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
