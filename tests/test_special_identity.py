"""daval's distribution calls against the scipy.stats calls they replace.

daval takes every quantile and tail from ``scipy.special`` and never imports
``scipy.stats``, whose import is most of a cold start. Here ``scipy.stats``
is the oracle: each test runs the code that used ``stats.norm.ppf``,
``stats.beta.ppf``, ``stats.binom.sf`` and ``stats.binom.isf`` and requires
the same result to the bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from test_power_search import GUARD_CASES

from daval import accuracy
from daval.accuracy import CIMethod, proportion_ci
from daval.resample import SeededGenerator, simulate_risk_scores

SRC = Path(__file__).resolve().parent.parent / "src"


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


def test_normal_quantile_matches_norm_ppf_tails_included():
    tails = [10.0**-k for k in range(1, 17)] + [2.0**-k for k in range(1, 60)]
    levels = np.concatenate(
        [np.linspace(0.0005, 0.9995, 1999), tails, 1 - np.array(tails), [0.9, 0.95, 0.99]]
    )
    levels = levels[(levels > 0) & (levels < 1)]
    ours = [accuracy._normal_quantile(level) for level in levels.tolist()]
    assert all(type(z) is float for z in ours)
    assert bits(ours) == bits(stats.norm.ppf(1 - (1 - levels) / 2))


@pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
def test_clopper_pearson_matches_beta_ppf_for_every_count_up_to_300(level):
    alpha = 1.0 - level
    for n in range(1, 301):
        x = np.arange(n + 1)
        with np.errstate(invalid="ignore"):
            lower = np.where(x == 0, 0.0, stats.beta.ppf(alpha / 2, x, n - x + 1))
            upper = np.where(x == n, 1.0, stats.beta.ppf(1 - alpha / 2, x + 1, n - x))
        cis = [proportion_ci(k, n, level, CIMethod.CLOPPER_PEARSON) for k in range(n + 1)]
        assert bits([ci.lower for ci in cis]) == bits(lower), n
        assert bits([ci.upper for ci in cis]) == bits(upper), n


def test_binomial_tail_matches_binom_sf_beyond_both_ends():
    rng = np.random.default_rng(15)
    for p in np.concatenate([rng.random(20), [1e-9, 0.05, 0.5, 0.95, 1 - 1e-9]]).tolist():
        for size in (1, 2, 7, 40, 301, 2000):
            x = np.arange(-3, size + 4)
            n = np.full(x.size, size)
            expected = np.where(x <= 0, 1.0, stats.binom.sf(x - 1, n, p))
            assert bits(accuracy._sf_at_least(x, n, p)) == bits(expected), (p, size)


def isf_critical_counts(n: np.ndarray, goal: float, alpha: float) -> np.ndarray:
    """The critical-count search that started from binom.isf, with its two
    guard loops over binom.sf."""

    def sf_at_least(x, n):
        return np.where(x <= 0, 1.0, stats.binom.sf(x - 1, n, goal))

    c = stats.binom.isf(alpha, n, goal).astype(np.int64) + 1
    i = np.flatnonzero(c > 0)
    while i.size:
        i = i[sf_at_least(c[i] - 1, n[i]) <= alpha]
        c[i] -= 1
        i = i[c[i] > 0]
    i = np.flatnonzero(c <= n)
    while i.size:
        i = i[sf_at_least(c[i], n[i]) > alpha]
        c[i] += 1
        i = i[c[i] <= n[i]]
    return c


# Eight goals at alpha 0.05, 0.01 and 1e-6 for n up to 2,000, then the pairs
# where binom.isf itself lands off the critical count, for n up to 300.
CRITICAL_COUNT_CASES = [
    (goal, alpha, 2000)
    for goal in (0.05, 0.3, 0.5, 0.7, 0.85, 0.9, 0.95, 0.99)
    for alpha in (0.05, 0.01, 1e-6)
] + [(goal, alpha, 300) for goal, alpha in GUARD_CASES]


@pytest.mark.parametrize("goal, alpha, n_max", CRITICAL_COUNT_CASES)
def test_critical_counts_match_the_isf_seeded_search(goal, alpha, n_max):
    n = np.arange(1, n_max + 1)
    counts = accuracy._critical_counts(n, goal, alpha)
    assert counts.tolist() == isf_critical_counts(n, goal, alpha).tolist()


@pytest.mark.parametrize("n, prevalence, auc, seed", [
    (1, 0.5, 0.75, 0),
    (500, 0.25, 0.51, 1),
    (2000, 0.1, 0.8, 2),
    (2000, 0.6, 0.999999, 3),
])
def test_simulated_risk_scores_match_the_norm_ppf_shift(n, prevalence, auc, seed):
    gen = SeededGenerator(seed, stream_id=2)
    rng = gen.generator()
    outcomes = rng.random(n) < prevalence
    latent = rng.normal(0.0, 1.0, n) + float(np.sqrt(2.0) * stats.norm.ppf(auc)) * outcomes
    scores, got_outcomes = simulate_risk_scores(n, prevalence, auc, gen)
    assert got_outcomes.tolist() == outcomes.tolist()
    assert bits(scores) == bits(1.0 / (1.0 + np.exp(-latent)))


def test_importing_daval_leaves_scipy_stats_unloaded():
    code = "import sys, daval, daval.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"
    for path in sorted((SRC / "daval").glob("*.py")):
        text = path.read_text()
        assert "scipy.stats" not in text and "from scipy import stats" not in text, path.name
