"""Seeded synthetic studies, percentile bootstrap, and the test-reuse guard.

All randomness flows through SeededGenerator, a thin wrapper over numpy's
counter-based Philox bit generator keyed by (seed, stream_id). Identical keys
reproduce identical sequences on every platform, and distinct stream ids give
independent streams, so every simulator and the bootstrap are pure functions
of their parameters plus the generator key.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np
from scipy.special import ndtri

from .dataset import OutputKind, StudyTable

__all__ = [
    "SeededGenerator",
    "QueryBudgetError",
    "NoisyQueryLedger",
    "BootstrapCI",
    "simulate_binary_study",
    "simulate_risk_scores",
    "simulate_survival",
    "bootstrap_ci",
    "noisy_query",
]

_SUBSTREAM_SPAN = 2**32


@dataclass(frozen=True)
class SeededGenerator:
    """Reproducible random source keyed by a seed and a stream id."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> "SeededGenerator":
        """Derived stream for replicate ``index``; collision-free for index < 2**32."""
        if not 0 <= index < _SUBSTREAM_SPAN:
            raise ValueError("substream index out of range")
        return SeededGenerator(
            seed=self.seed, stream_id=(self.stream_id + 1) * _SUBSTREAM_SPAN + index
        )


def _check_unit_open(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _check_unit_half_open(value: float, name: str) -> None:
    # Accuracy parameters may sit at 1.0 (a perfect device is a legitimate
    # simulation target); 0.0 is not, since it flips the label semantics.
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def _simulated_table(n: int, **columns: np.ndarray) -> StudyTable:
    """The table of a simulated study of subjects s000000, s000001, ... at
    site "sim", from boolean ``truth``, ``label`` and ``event`` columns,
    ``score`` and ``time`` columns and a covariate ``z``; an absent column
    reads as missing in every row. The outputs are the ``label`` calls when
    there are any, else the ``score`` values.
    """
    codes = {
        name: columns[name].astype(np.int8) if name in columns else np.full(n, -1, np.int8)
        for name in ("truth", "label", "event")
    }
    kind = OutputKind.BINARY if "label" in columns else OutputKind.SCORE
    names = ("z",) if "z" in columns else ()
    return StudyTable(
        subject_id=tuple(f"s{i:06d}" for i in range(n)),
        site_id=("sim",) * n,
        output_kind=np.full(n, list(OutputKind).index(kind), np.int8),
        score=columns.get("score", np.full(n, np.nan)),
        time=columns.get("time", np.full(n, np.nan)),
        operator_id=(None,) * n,
        device_unit_id=(None,) * n,
        replicate_index=(None,) * n,
        covariates=np.array([columns[name] for name in names], dtype=float).reshape(len(names), n).T,
        covariate_names=names,
        **codes,
    )


def simulate_binary_study(
    n: int,
    prevalence: float,
    sensitivity: float,
    specificity: float,
    gen: SeededGenerator,
) -> StudyTable:
    """Synthetic binary study: truth ~ Bernoulli(prevalence), output correct
    with probability sensitivity (diseased) or specificity (healthy)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_unit_open(prevalence, "prevalence")
    _check_unit_half_open(sensitivity, "sensitivity")
    _check_unit_half_open(specificity, "specificity")
    rng = gen.generator()
    truth = rng.random(n) < prevalence
    correct_if_pos = rng.random(n) < sensitivity
    correct_if_neg = rng.random(n) < specificity
    return _simulated_table(n, truth=truth, label=np.where(truth, correct_if_pos, ~correct_if_neg))


def simulate_risk_scores(
    n: int, prevalence: float, auc_target: float, gen: SeededGenerator
) -> tuple[np.ndarray, np.ndarray]:
    """Binormal scores whose population AUC equals ``auc_target``.

    Diseased latent values sit sqrt(2) * Phi^-1(auc) above healthy ones; the
    logistic map squashes the latent scale into (0, 1) without changing rank
    order, so the AUC carries over exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_unit_open(prevalence, "prevalence")
    if not 0.5 < auc_target < 1.0:
        raise ValueError(f"auc_target must lie in (0.5, 1), got {auc_target}")
    delta = float(np.sqrt(2.0) * ndtri(auc_target))
    rng = gen.generator()
    outcomes = rng.random(n) < prevalence
    latent = rng.normal(0.0, 1.0, n) + delta * outcomes
    scores = 1.0 / (1.0 + np.exp(-latent))
    return scores, outcomes


def simulate_survival(
    n: int,
    baseline_hazard: float,
    log_hazard_ratio: float,
    censor_rate: float,
    gen: SeededGenerator,
) -> StudyTable:
    """Exponential event times with a binary covariate scaling the hazard.

    The covariate z ~ Bernoulli(1/2) is the table's one covariate; censoring is
    an independent exponential clock. The device output is the analytic
    one-year event risk 1 - exp(-hazard_z), so the simulated score is
    calibrated by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if baseline_hazard <= 0 or censor_rate <= 0:
        raise ValueError("rates must be positive")
    rng = gen.generator()
    z = rng.random(n) < 0.5
    hazard = baseline_hazard * np.exp(log_hazard_ratio * z)
    event_time = rng.exponential(1.0, n) / hazard
    censor_time = rng.exponential(1.0 / censor_rate, n)
    return _simulated_table(
        n,
        score=1.0 - np.exp(-hazard),
        time=np.minimum(event_time, censor_time),
        event=event_time <= censor_time,
        z=z,
    )


T = TypeVar("T")


@dataclass(frozen=True)
class BootstrapCI:
    lower: float
    upper: float
    n_replicates: int
    n_missing: int

    def __iter__(self):
        return iter((self.lower, self.upper))


def bootstrap_ci(
    statistic: Callable[[list[T]], float],
    records: Sequence[T],
    replicates: int,
    level: float,
    gen: SeededGenerator,
) -> BootstrapCI:
    """Percentile interval of a statistic over case-resampled replicates.

    Replicate r draws its indices from gen.substream(r), so the interval does
    not depend on evaluation order. A replicate where the statistic raises or
    returns a non-finite value is recorded as missing; more than 5% missing
    aborts the interval.
    """
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rows = tuple(records)
    n = len(rows)
    if n == 0:
        raise ValueError("no records")
    values = []
    n_missing = 0
    for r in range(replicates):
        idx = gen.substream(r).generator().integers(0, n, n)
        sample = [rows[i] for i in idx.tolist()]
        try:
            value = float(statistic(sample))
        except Exception:
            value = math.nan
        if math.isfinite(value):
            values.append(value)
        else:
            n_missing += 1
    if n_missing > 0.05 * replicates:
        raise RuntimeError(
            f"statistic failed on {n_missing}/{replicates} resamples; "
            "interval would be unreliable"
        )
    if n_missing:
        warnings.warn(f"{n_missing} bootstrap replicates missing", stacklevel=2)
    alpha = 1.0 - level
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapCI(
        lower=float(lo), upper=float(hi), n_replicates=replicates - n_missing, n_missing=n_missing
    )


class QueryBudgetError(RuntimeError):
    """The noisy-reuse ledger's query budget is exhausted."""


@dataclass
class NoisyQueryLedger:
    """Budgeted access guard that perturbs every value it hands out.

    Repeated metric queries against a held-out set leak information; the
    ledger adds Gaussian noise per query and refuses queries past the budget.
    """

    noise_sd: float
    query_budget: int
    generator: SeededGenerator
    queries_used: int = field(default=0)

    def __post_init__(self) -> None:
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if self.query_budget < 1:
            raise ValueError("query_budget must be >= 1")


def noisy_query(ledger: NoisyQueryLedger, value: float) -> float:
    """Return value plus ledger noise, consuming one unit of budget."""
    if ledger.queries_used >= ledger.query_budget:
        raise QueryBudgetError(
            f"query budget of {ledger.query_budget} exhausted"
        )
    rng = ledger.generator.substream(ledger.queries_used).generator()
    noise = float(rng.normal(0.0, 1.0)) * ledger.noise_sd
    ledger.queries_used += 1
    return value + noise
