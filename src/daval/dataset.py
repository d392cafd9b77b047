r"""Canonical data model and CSV ingestion for validation datasets.

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

Ingest reads the file's UTF-8 bytes ``_CHUNK_ROWS`` lines at a time, and makes
one Python string per distinct cell rather than one per cell (subject ids
aside). A text with no quote, no NUL byte and no ``\r`` outside a ``\r\n`` is
split in bytes: numpy finds each chunk's line ends and commas, and a chunk
whose nonblank lines each hold one cell per header name gives each cell's
offset and length. A column's distinct cells come from ``np.unique`` over its
cells' bytes, read as one integer per cell of up to 8 bytes (longer cells are
compared as text), and each distinct cell is decoded once, its value taken for
every row that holds it. A chunk with a ragged row or a line over
``csv.field_size_limit()``, and all of any other text, is read by
``csv.reader`` and factorised the same way.
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
from itertools import islice
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


def _rows_marked(codes: np.ndarray, marks: Mapping[int, str]) -> list[tuple[int, str]]:
    """(row, message) for each row whose code has a message in ``marks``."""
    if not marks:
        return []
    rows = np.flatnonzero(np.isin(codes, list(marks)))
    return list(zip(rows.tolist(), map(marks.__getitem__, codes[rows].tolist())))


class _Column:
    """A column decoded chunk by chunk, each distinct cell once.

    A chunk comes factorised: its distinct cells, and per row the code (the
    position among them) of the row's cell. ``values`` maps cells to values,
    ``failures`` maps each cell whose decode raised ValueError (it decodes to
    ``failed``) to the message. Both carry over to the next chunk until they
    pass ``_CHUNK_ROWS`` cells, so equal cells share one value and the cache
    stays bounded. A chunk's values are its distinct values taken by the
    codes; ``parts`` holds each chunk's values, and ``faults`` the (row,
    message) pairs of the last chunk's failing cells.
    """

    def __init__(self, decode: Callable[[str], object], failed: object, dtype=object):
        self.decode, self.failed, self.dtype = decode, failed, dtype
        self.values, self.failures, self.parts = {}, {}, []
        self.faults: list[tuple[int, str]] = []

    def add(self, distinct: Sequence[str], codes: np.ndarray) -> np.ndarray:
        """The values (an array of ``dtype``) of one chunk's cells, kept."""
        values, failures = self.values, self.failures
        if len(values) > _CHUNK_ROWS:
            values.clear()
            failures.clear()
        for raw in distinct:
            if raw not in values:
                try:
                    values[raw] = self.decode(raw)
                except ValueError as exc:
                    values[raw], failures[raw] = self.failed, str(exc)
        if len(distinct) == 1:  # a constant or empty column: its one value, shared
            decoded = np.empty(len(codes), self.dtype)
            decoded.fill(values[distinct[0]])
        else:
            decoded = np.array([values[raw] for raw in distinct], self.dtype)[codes]
        self.parts.append(decoded)
        marks = {d: failures[raw] for d, raw in enumerate(distinct) if raw in failures} if failures else {}
        self.faults = _rows_marked(codes, marks)
        return decoded

    def joined(self) -> np.ndarray:
        """Every chunk's values, in row order."""
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


def _factorised(cells: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct cells, in order of first appearance, and each cell's code."""
    index = dict.fromkeys(cells)
    for code, raw in enumerate(index):
        index[raw] = code
    return list(index), np.array(list(map(index.__getitem__, cells)), np.intp)


class _TextChunk:
    """Rows read by ``csv.reader``, cut or padded to ``width`` cells: one
    sequence of cells per header position."""

    def __init__(self, rows: list[list[str]], width: int):
        if set(map(len, rows)) - {width}:
            rows = [row[:width] + [""] * (width - len(row)) for row in rows]
        self.columns = list(zip(*rows))

    def texts(self, j: int) -> Sequence[str]:
        return self.columns[j]

    def cells(self, j: int) -> tuple[list[str], np.ndarray]:
        return _factorised(self.columns[j])


def _cell_texts(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The text of each cell of ``buf``, given by its start and length: the
    cells' bytes joined by newlines, decoded once and split."""
    ends = np.cumsum(lengths + 1)  # each cell's end in the joined bytes, past its newline
    index = np.arange(lengths.sum() + len(lengths)) + np.repeat(starts - ends + lengths + 1, lengths + 1)
    joined = buf[index]
    joined[ends - 1] = 10
    return joined.tobytes().decode("utf-8").split("\n")[:-1]


# Masks that keep the first 0 to 8 bytes of a little-endian 8-byte word.
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _key_texts(keys: np.ndarray) -> list[str]:
    """The text of each key's cell: the keys' nonzero bytes, each key's
    followed by a newline, decoded once and split."""
    grid = np.full((len(keys), 9), 10, np.uint8)
    grid[:, :8] = keys.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return grid[grid != 0].tobytes().decode("utf-8").split("\n")[:-1]


class _ByteChunk:
    """Rows of one cell per header position, as offsets into the chunk's bytes
    ``buf``, which end in at least 7 zero bytes: each row's first byte and
    end (``starts``, ``ends``), and a row of ``commas`` per row."""

    def __init__(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, commas: np.ndarray):
        self.buf, self.starts, self.ends, self.commas = buf, starts, ends, commas
        # The 8 bytes from each offset on, as one word: an unaligned view.
        self.words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))
        # Each column's bytes in all: the sum of the delimiters after its
        # cells less the sum of those before them, less one per row.
        rows = len(starts)
        bounds = np.concatenate(([starts.sum() - rows], commas.sum(axis=0), [ends.sum()]))
        self.filled = (np.diff(bounds) - rows).tolist()

    def _spans(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The starts and lengths of column ``j``'s cells."""
        commas = self.commas
        starts = self.starts if j == 0 else commas[:, j - 1] + 1
        ends = self.ends if j == commas.shape[1] else commas[:, j]
        return starts, ends - starts

    def texts(self, j: int) -> list[str]:
        starts, lengths = self._spans(j)
        if lengths.max() <= 8:
            return _key_texts(self.words[starts] & _KEY_MASKS[lengths])
        return _cell_texts(self.buf, starts, lengths)

    def cells(self, j: int) -> tuple[list[str], np.ndarray]:
        """The distinct cells of column ``j`` and each row's code.

        A cell of up to 8 bytes is keyed by its bytes, read as one word and
        masked to its length; no NUL byte reaches this path, so the key fixes
        the cell, and ``np.unique`` factorises the keys. Longer cells are
        factorised as text.
        """
        if not self.filled[j]:  # an empty column
            return [""], np.zeros(len(self.starts), np.intp)
        starts, lengths = self._spans(j)
        longest = lengths.max()
        short = slice(None) if longest <= 8 else lengths <= 8
        codes = np.empty(len(starts), np.intp)
        keys = self.words[starts[short]] & _KEY_MASKS[lengths[short]]
        keys, codes[short] = np.unique(keys, return_inverse=True)
        distinct = _key_texts(keys)
        if longest > 8:
            long = lengths > 8
            more, more_codes = _factorised(_cell_texts(self.buf, starts[long], lengths[long]))
            codes[long] = more_codes + len(distinct)
            distinct += more
        return distinct, codes


def _reader_chunks(rows: Iterator[list[str]], width: int, n: int) -> Iterator[tuple[int, _TextChunk]]:
    """``csv.reader`` rows in chunks of up to ``_CHUNK_ROWS`` lines, blank lines
    left out: each chunk's row count and the chunk. ``n`` data rows precede
    them, so a csv.Error names its data row."""
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
            yield len(chunk), _TextChunk(chunk, width)


_BOM = b"\xef\xbb\xbf"


def _read_rows(data: bytes, source: object) -> Iterator:
    r"""Yield the stripped header names, then the data rows in chunks of up to
    ``_CHUNK_ROWS`` lines: each chunk's row count and the chunk, which gives
    the cells of each header position as text (``texts``) or as distinct
    cells and codes (``cells``). ``data`` is UTF-8 text; a leading byte-order
    mark is dropped.

    A text with no quote, no NUL byte and no ``\r`` outside a ``\r\n`` is
    split in bytes: numpy finds each chunk's line ends and commas, and a
    chunk whose nonblank lines each hold one cell per header position, and
    none more than ``csv.field_size_limit()`` bytes, is a :class:`_ByteChunk`.
    Any other chunk of such a text, and all of any other text, goes through
    ``csv.reader``. The header is parsed by ``csv.reader`` too, from the first
    line alone when the text is split in bytes. Either way, as with
    ``csv.DictReader``, blank lines are skipped and not counted, a short row
    reads empty cells and cells past the header are ignored. A field over the
    limit raises ValueError naming its data row.
    """
    start = len(_BOM) if data.startswith(_BOM) else 0
    bare_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    plain = not (b'"' in data or b"\0" in data or bare_cr)
    text = None if plain else data[start:].decode("utf-8")
    first = data[start : data.find(b"\n", start) + 1 or len(data)].decode("utf-8") if plain else text
    try:
        header = next(csv.reader(_lines(first)), None)
    except csv.Error as exc:
        raise ValueError(f"{source} header row: {exc}") from None
    if header is None:
        raise ValueError(f"{source} is empty (no header row)")
    yield [name.strip() for name in header]
    width = len(header)
    if text is not None:
        rows = csv.reader(_lines(text))
        next(rows)
        yield from _reader_chunks(rows, width, 0)
        return
    buf = np.frombuffer(data, np.uint8)
    line_ends = np.flatnonzero(buf[start:] == 10) + start
    if not data.endswith(b"\n"):
        line_ends = np.append(line_ends, len(data))
    has_cr, limit, n = b"\r" in data, csv.field_size_limit(), 0
    for first_line in range(1, len(line_ends), _CHUNK_ROWS):  # line 0 is the header
        lo = line_ends[first_line - 1] + 1
        ends = line_ends[first_line : first_line + _CHUNK_ROWS] - lo
        chunk = np.zeros(ends[-1] + 8, np.uint8)  # the lines, and room to read 8 bytes at any offset
        chunk[: ends[-1]] = buf[lo : lo + ends[-1]]
        chunk[ends[-1]] = 10
        starts = np.concatenate(([0], ends[:-1] + 1))
        if has_cr:
            ends -= chunk[ends - 1] == 13
        nonblank = ends > starts
        starts, ends = starts[nonblank], ends[nonblank]
        rows = len(starts)
        if not rows:
            continue
        commas = np.flatnonzero(chunk == 44)
        if width and len(commas) == rows * (width - 1) and (ends[-1] <= limit or (ends - starts).max() <= limit):
            commas = commas.reshape(rows, width - 1)
            # The commas of each row's slot lie in its line, so every line holds its own.
            if (commas[:, :1] >= starts[:, None]).all() and (commas[:, -1:] < ends[:, None]).all():
                n += rows
                yield rows, _ByteChunk(chunk, starts, ends, commas)
                continue
        # Ragged rows, or a line over the field limit: csv.reader reads the chunk.
        lines = io.StringIO(chunk[: ends[-1]].tobytes().decode("utf-8"), newline="")
        for rows, text_chunk in _reader_chunks(csv.reader(lines), width, n):
            n += rows
            yield rows, text_chunk


def ingest_csv(
    path: str | os.PathLike | IO[str] | IO[bytes],
    mapping: Mapping[str, str] | None = None,
    strict: bool = False,
) -> IngestResult:
    """Read a validation dataset from a UTF-8 CSV file into a :class:`StudyTable`.

    ``path`` is a file path, or an open stream of the file's contents as text
    or as bytes; a leading byte-order mark is dropped. ``mapping`` translates
    canonical column names to the file's actual headers; unmapped canonical
    names are matched by identity when present. Every header not claimed by a
    canonical column is treated as a covariate column if all of its nonempty
    cells parse as numbers, and excluded (reported in ``excluded_columns``)
    otherwise.

    Rows that fail to parse, including non-finite time and covariate cells,
    are collected into ``errors`` with their 1-based data-row number and the
    first fault in the row; with ``strict=True`` the first quarantined row
    raises. The table holds the other rows, in file order.
    """
    if isinstance(path, (str, os.PathLike)):
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"dataset file not found: {path}")
        data = path.read_bytes()
    else:
        data = path.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    if not data.isascii():
        data.decode("utf-8")  # UnicodeDecodeError for a file that is not UTF-8
    chunks = _read_rows(data, path)
    del data
    header = next(chunks)
    resolved = _resolve_mapping(header, mapping)
    position = {name: j for j, name in enumerate(header)}  # a repeated name reads its last column
    column_of = {name: position[actual] for name, actual in resolved.items()}
    fields = {name: _Column(*spec) for name, spec in _FIELDS.items()}
    claimed = set(resolved.values())
    covariates = {col: _covariate_column(col) for col in position if col not in claimed}
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
            for i, message in fields[name].faults:
                errors.setdefault(n + i, message)

    # csv.reader's row lists hold only strings: collector passes would find nothing.
    collect = gc.isenabled()
    gc.disable()
    try:
        for rows, chunk in chunks:
            blank = ([""], np.zeros(rows, np.intp))
            values = {
                name: column.add(*(chunk.cells(column_of[name]) if name in column_of else blank))
                for name, column in fields.items()
            }
            sids = [""] * rows
            if "subject_id" in column_of:
                sids = list(map(str.strip, chunk.texts(column_of["subject_id"])))
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
                    distinct, codes = chunk.cells(position[col])
                    decoder.add(distinct, codes)
                    if non_finite:
                        marks = {d: non_finite[raw] for d, raw in enumerate(distinct) if raw in non_finite}
                        late += [(n + i, col, message) for i, message in _rows_marked(codes, marks)]
            n += rows
            del chunk
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

    def kept_rows(values: np.ndarray) -> tuple | np.ndarray:
        values = values[kept]
        return tuple(values.tolist()) if values.dtype == object else values

    table_columns = {name: kept_rows(column.joined()) for name, column in fields.items()}
    output = table_columns.pop("output")
    table = StudyTable(
        subject_id=kept_rows(np.array(subject_id, dtype=object)),
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


# A float64 column of at least this many values formats each distinct value
# once (see _csv_column). The shorter plot columns are mostly distinct, and
# there repr of every value is the faster way.
_FACTOR_MIN_ROWS = 1024


def _csv_column(column: np.ndarray | Sequence[str]) -> list[str]:
    """One column as CSV fields.

    An array's values are written as their Python `repr`: the shortest text
    that reads back to the same float, and an integer's digits. A large
    float64 column formats each distinct bit pattern once, so -0.0 stays
    apart from 0.0 and every NaN still reads ``nan``. Integer columns keep
    the plain map: an int's repr costs less than finding its repeats.
    """
    if isinstance(column, np.ndarray):
        if len(column) >= _FACTOR_MIN_ROWS and column.dtype == np.float64:
            bits, codes = np.unique(column.view(np.int64), return_inverse=True)
            texts = list(map(repr, bits.view(np.float64).tolist()))
            return list(map(texts.__getitem__, codes.tolist()))
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
        # An absent replicate index sorts before every index (all are nonnegative).
        dup_keys = (k for k, c in key_counts.items() if c > 1)
        duplicates = tuple(sorted(dup_keys, key=lambda k: (k[0], -1 if k[1] is None else k[1])))
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
