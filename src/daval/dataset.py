"""Canonical data model and CSV ingestion for validation datasets.

A validation dataset is a flat list of :class:`ValidationRecord`, one per
subject/case. Records are immutable after construction; every analysis module
consumes them read-only, so record lists are safe to share across threads.

The CSV schema is remappable: callers supply a column mapping (canonical name
-> actual header name) and any unmapped extra column is treated as a numeric
covariate. Malformed rows are quarantined with their row number instead of
being silently dropped; ``strict=True`` turns any quarantined row into a hard
failure.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Label",
    "OutputKind",
    "DeviceOutput",
    "Survival",
    "ValidationRecord",
    "RowError",
    "IngestResult",
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


@dataclass(frozen=True)
class IngestResult:
    records: tuple[ValidationRecord, ...]
    errors: tuple[RowError, ...]
    excluded_columns: tuple[str, ...] = ()


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


def ingest_csv(
    path: str | Path,
    mapping: Mapping[str, str] | None = None,
    strict: bool = False,
) -> IngestResult:
    """Read a validation dataset from a UTF-8 CSV file.

    ``mapping`` translates canonical column names to the file's actual headers;
    unmapped canonical names are matched by identity when present. Every header
    not claimed by a canonical column is treated as a covariate column if all
    of its nonempty cells parse as numbers, and excluded (reported in
    ``excluded_columns``) otherwise.

    Rows that fail to parse, including non-finite time and covariate cells,
    are collected into ``errors`` with their 1-based data-row number; with
    ``strict=True`` the first quarantined row raises.
    Row order is preserved.
    """
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
    return IngestResult(
        records=tuple(records), errors=tuple(errors), excluded_columns=tuple(excluded)
    )


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


def validate_records(records: Sequence[ValidationRecord]) -> IntegrityReport:
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
