"""Seeded simulators, percentile bootstrap, and the noisy-reuse ledger."""

import math
from pathlib import Path

import numpy as np
import pytest

from daval.accuracy import accuracy_metrics, confusion_from_records, proportion_ci
from daval.dataset import Label, OutputKind, StudyTable, ingest_csv
from daval.resample import (
    NoisyQueryLedger,
    QueryBudgetError,
    SeededGenerator,
    bootstrap_ci,
    noisy_query,
    simulate_binary_study,
    simulate_risk_scores,
    simulate_survival,
)
from daval.riskscore import roc_curve
from daval.survival import km_estimate, survival_arrays


def test_same_key_same_stream():
    a = SeededGenerator(42).generator().random(10)
    b = SeededGenerator(42).generator().random(10)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = SeededGenerator(42, stream_id=0).generator().random(10)
    b = SeededGenerator(42, stream_id=1).generator().random(10)
    c = SeededGenerator(43, stream_id=0).generator().random(10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substreams_are_distinct_and_reproducible():
    base = SeededGenerator(7)
    keys = {base.substream(i).stream_id for i in range(100)}
    assert len(keys) == 100
    again = SeededGenerator(7).substream(50).generator().random(5)
    assert np.array_equal(base.substream(50).generator().random(5), again)
    # derived streams never collide with the parent's sibling ids
    assert SeededGenerator(7, stream_id=1).stream_id not in keys


def test_substream_index_bounds():
    base = SeededGenerator(7)
    with pytest.raises(ValueError):
        base.substream(-1)
    with pytest.raises(ValueError):
        base.substream(2**32)


def test_binary_study_reproducible_and_sized():
    a = simulate_binary_study(50, 0.4, 0.8, 0.9, SeededGenerator(1)).to_records()
    b = simulate_binary_study(50, 0.4, 0.8, 0.9, SeededGenerator(1)).to_records()
    assert a == b
    assert len(a) == 50
    assert all(r.truth is not None for r in a)
    assert all(r.output.kind is OutputKind.BINARY for r in a)


def test_binary_study_hits_target_operating_point():
    table = simulate_binary_study(10000, 0.4, 0.8, 0.9, SeededGenerator(2))
    records = table.to_records()
    m = accuracy_metrics(confusion_from_records(table))
    assert m.sensitivity.estimate == pytest.approx(0.8, abs=0.02)
    assert m.specificity.estimate == pytest.approx(0.9, abs=0.02)
    prevalence = sum(r.truth is Label.POSITIVE for r in records) / 10000
    assert prevalence == pytest.approx(0.4, abs=0.02)


def test_perfect_device_simulates_exactly():
    table = simulate_binary_study(60, 0.4, 1.0, 1.0, SeededGenerator(3))
    m = accuracy_metrics(confusion_from_records(table))
    assert m.sensitivity.estimate == 1.0
    assert m.specificity.estimate == 1.0
    assert m.ppv.estimate == 1.0
    assert m.npv.estimate == 1.0


def test_binary_study_parameter_validation():
    gen = SeededGenerator(4)
    with pytest.raises(ValueError):
        simulate_binary_study(0, 0.4, 0.8, 0.9, gen)
    with pytest.raises(ValueError):
        simulate_binary_study(10, 0.0, 0.8, 0.9, gen)
    with pytest.raises(ValueError):
        simulate_binary_study(10, 1.0, 0.8, 0.9, gen)
    with pytest.raises(ValueError):
        simulate_binary_study(10, 0.4, 0.0, 0.9, gen)
    # an exactly perfect device is a legitimate target
    simulate_binary_study(10, 0.4, 1.0, 1.0, gen)


def test_risk_scores_hit_target_auc_and_prevalence():
    scores, outcomes = simulate_risk_scores(5000, 0.4, 0.9, SeededGenerator(5))
    assert np.all((scores > 0.0) & (scores < 1.0))
    roc = roc_curve(scores, outcomes)
    assert roc.auc == pytest.approx(0.9, abs=0.02)
    assert float(np.mean(outcomes)) == pytest.approx(0.4, abs=0.02)


def test_risk_scores_weak_signal_near_chance():
    scores, outcomes = simulate_risk_scores(5000, 0.5, 0.51, SeededGenerator(6))
    assert roc_curve(scores, outcomes).auc == pytest.approx(0.51, abs=0.03)


def test_risk_scores_validation():
    gen = SeededGenerator(7)
    with pytest.raises(ValueError):
        simulate_risk_scores(100, 0.4, 0.5, gen)
    with pytest.raises(ValueError):
        simulate_risk_scores(100, 0.4, 1.0, gen)


def test_survival_sim_censoring_trend():
    fractions = []
    for rate in (2.0, 0.5, 0.1):
        table = simulate_survival(1500, 0.5, 0.0, rate, SeededGenerator(8))
        _, events = survival_arrays(table)
        fractions.append(float(np.mean(~events)))
    assert fractions[0] > fractions[1] > fractions[2]


def test_survival_sim_null_hazard_ratio_balances_groups():
    table = simulate_survival(3000, 0.5, 0.0, 0.1, SeededGenerator(9))
    records = table.to_records()
    times, events = survival_arrays(table)
    z = np.array([r.covariates["z"] for r in records])
    km1 = km_estimate(times[z == 1.0], events[z == 1.0])
    km0 = km_estimate(times[z == 0.0], events[z == 0.0])
    t = np.log(2.0) / 0.5
    assert km1.survival_at(t) == pytest.approx(km0.survival_at(t), abs=0.05)


def test_survival_sim_score_is_the_analytic_risk():
    records = simulate_survival(100, 0.5, 0.7, 0.2, SeededGenerator(10)).to_records()
    for r in records:
        z = r.covariates["z"]
        hazard = 0.5 * np.exp(0.7 * z)
        assert r.output.value == pytest.approx(1.0 - np.exp(-hazard), abs=1e-12)


def test_survival_sim_validates_rates():
    with pytest.raises(ValueError):
        simulate_survival(10, 0.0, 0.0, 0.1, SeededGenerator(11))
    with pytest.raises(ValueError):
        simulate_survival(10, 0.5, 0.0, 0.0, SeededGenerator(11))


def test_bootstrap_constant_statistic_zero_width():
    records = list(range(20))
    ci = bootstrap_ci(lambda s: 3.25, records, replicates=200, level=0.95, gen=SeededGenerator(12))
    assert (ci.lower, ci.upper) == (3.25, 3.25)
    assert ci.n_replicates == 200
    assert ci.n_missing == 0


def test_bootstrap_same_seed_identical():
    records = list(np.random.default_rng(0).normal(size=30))
    a = bootstrap_ci(np.mean, records, replicates=300, level=0.9, gen=SeededGenerator(13))
    b = bootstrap_ci(np.mean, records, replicates=300, level=0.9, gen=SeededGenerator(13))
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_bootstrap_interval_is_iterable_pair():
    records = list(range(10))
    lo, hi = bootstrap_ci(
        lambda s: float(np.mean(s)), records, replicates=150, level=0.95, gen=SeededGenerator(14)
    )
    assert lo <= hi


def test_bootstrap_overlaps_exact_interval_for_a_proportion():
    table = simulate_binary_study(100, 0.4, 0.85, 0.9, SeededGenerator(15))
    records = table.to_records()

    def sens(sample):
        c = confusion_from_records(StudyTable.from_records(sample))
        if c.n_positive == 0:
            raise ValueError("no positives in resample")
        return c.tp / c.n_positive

    boot = bootstrap_ci(sens, records, replicates=1000, level=0.95, gen=SeededGenerator(16))
    conf = confusion_from_records(table)
    cp = proportion_ci(conf.tp, conf.n_positive)
    assert max(boot.lower, cp.lower) < min(boot.upper, cp.upper)
    assert abs(boot.lower - cp.lower) < 0.1
    assert abs(boot.upper - cp.upper) < 0.1


def test_bootstrap_aborts_when_statistic_fails_often():
    records = [1.0, 0.0, 0.0]  # resamples often lack the single positive

    def fragile(sample):
        if 1.0 not in sample:
            raise ValueError("no positive")
        return sum(sample)

    with pytest.raises(RuntimeError, match="unreliable"):
        bootstrap_ci(fragile, records, replicates=200, level=0.95, gen=SeededGenerator(17))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bootstrap_counts_a_non_finite_statistic_as_missing(bad):
    # Both statistics fail exactly when a resample starts with record 0: 7 of
    # 200 replicates at seed 3 (under the 5% limit) and 15 at seed 2 (over it).
    def returning(sample):
        return bad if sample[0] == 0 else float(np.mean(sample))

    def raising(sample):
        if sample[0] == 0:
            raise ValueError("first draw is record 0")
        return float(np.mean(sample))

    records = list(range(20))
    cis = []
    for statistic in (returning, raising):
        with pytest.warns(UserWarning, match="^7 bootstrap replicates missing$"):
            cis.append(bootstrap_ci(statistic, records, 200, 0.95, SeededGenerator(3)))
    assert cis[0] == cis[1]
    assert math.isfinite(cis[0].lower) and math.isfinite(cis[0].upper)
    assert (cis[0].n_missing, cis[0].n_replicates) == (7, 193)
    with pytest.raises(RuntimeError, match="^statistic failed on 15/200 resamples"):
        bootstrap_ci(returning, records, 200, 0.95, SeededGenerator(2))


def test_bootstrap_validates_inputs():
    with pytest.raises(ValueError):
        bootstrap_ci(np.mean, [1.0, 2.0], replicates=50, level=0.95, gen=SeededGenerator(18))
    with pytest.raises(ValueError):
        bootstrap_ci(np.mean, [], replicates=200, level=0.95, gen=SeededGenerator(18))
    with pytest.raises(ValueError):
        bootstrap_ci(np.mean, [1.0], replicates=200, level=1.0, gen=SeededGenerator(18))


def _reference_bootstrap(statistic, records, replicates, level, gen):
    """The per-index resampling loop: (lower, upper, n_missing)."""
    n = len(records)
    values = []
    n_missing = 0
    for r in range(replicates):
        idx = gen.substream(r).generator().integers(0, n, n)
        try:
            values.append(float(statistic([records[i] for i in idx])))
        except Exception:
            n_missing += 1
    lo, hi = np.quantile(values, [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0])
    return float(lo), float(hi), n_missing


def _positive_rate(sample):
    positives = sum(r.truth is Label.POSITIVE for r in sample)
    if positives < 8:
        raise ValueError("too few positives in resample")
    return positives / len(sample)


@pytest.mark.parametrize("source", ["list", "ingested"])
def test_bootstrap_matches_per_index_loop_bit_for_bit(source):
    if source == "list":
        records = list(np.random.default_rng(7).normal(size=193))
        statistic = np.median
    else:
        records = ingest_csv(Path(__file__).resolve().parent.parent / "demo" / "demo.csv").records
        statistic = _positive_rate
    gen = SeededGenerator(21, stream_id=3)
    lo, hi, n_missing = _reference_bootstrap(statistic, records, 200, 0.9, gen)
    if source == "list":
        ci = bootstrap_ci(statistic, records, replicates=200, level=0.9, gen=gen)
    else:  # a few resamples lack positives, so the missing-replicate path runs too
        with pytest.warns(UserWarning, match=f"^{n_missing} bootstrap replicates missing"):
            ci = bootstrap_ci(statistic, records, replicates=200, level=0.9, gen=gen)
        assert n_missing > 0
    assert (ci.lower.hex(), ci.upper.hex()) == (lo.hex(), hi.hex())
    assert (ci.n_missing, ci.n_replicates) == (n_missing, 200 - n_missing)


def test_noisy_query_zero_sd_is_identity_with_budget():
    ledger = NoisyQueryLedger(noise_sd=0.0, query_budget=3, generator=SeededGenerator(19))
    assert noisy_query(ledger, 0.8123) == 0.8123
    assert noisy_query(ledger, 0.5) == 0.5
    assert ledger.queries_used == 2
    noisy_query(ledger, 0.1)
    with pytest.raises(QueryBudgetError):
        noisy_query(ledger, 0.1)


def test_noisy_query_empirical_sd_matches_parameter():
    ledger = NoisyQueryLedger(
        noise_sd=0.05, query_budget=10000, generator=SeededGenerator(20)
    )
    draws = np.array([noisy_query(ledger, 0.0) for _ in range(10000)])
    assert 0.045 < float(np.std(draws, ddof=1)) < 0.055
    assert abs(float(np.mean(draws))) < 0.002


def test_noisy_query_is_reproducible_per_position():
    a = NoisyQueryLedger(noise_sd=0.1, query_budget=5, generator=SeededGenerator(21))
    b = NoisyQueryLedger(noise_sd=0.1, query_budget=5, generator=SeededGenerator(21))
    assert [noisy_query(a, 1.0) for _ in range(5)] == [
        noisy_query(b, 1.0) for _ in range(5)
    ]


def test_ledger_validation():
    with pytest.raises(ValueError):
        NoisyQueryLedger(noise_sd=-0.1, query_budget=5, generator=SeededGenerator(22))
    with pytest.raises(ValueError):
        NoisyQueryLedger(noise_sd=0.1, query_budget=0, generator=SeededGenerator(22))
