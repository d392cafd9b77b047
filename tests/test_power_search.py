"""The blocked sample-size search against the n-by-n scan it replaces.

``power_and_n`` evaluates blocks of consecutive sample sizes with a few array
calls into ``scipy.special`` per block: ``ndtri`` for the start of the
critical-count search and ``betainc`` for each binomial tail. The reference
here is the scalar scan: n = 1, 2, ... with one critical count and one power
per n, each from scalar ``scipy.stats.binom`` calls. Both compute every
element on its own, and the binomial tail is the same incomplete beta, so the
two must agree field for field, and the power to the bit.
"""

import numpy as np
import pytest
from scipy import stats

from daval import accuracy
from daval.accuracy import power_and_n, test_vs_goal as goal_test


def ref_sf_at_least(x: int, n: int, p: float) -> float:
    """P(X >= x) for X ~ Binomial(n, p), one scalar scipy call."""
    if x <= 0:
        return 1.0
    return float(stats.binom.sf(x - 1, n, p))


def ref_critical_count(n: int, goal: float, alpha: float) -> int:
    """Smallest c with P(X >= c | p=goal) <= alpha; n+1 when no count rejects."""
    c = int(stats.binom.isf(alpha, n, goal)) + 1
    while c > 0 and ref_sf_at_least(c - 1, n, goal) <= alpha:
        c -= 1
    while c <= n and ref_sf_at_least(c, n, goal) > alpha:
        c += 1
    return c


def ref_power_and_n(goal, assumed_true, alpha=0.05, target_power=0.8, max_n=100_000):
    """(sample_size, critical_count, power) of the first n reaching the power."""
    for n in range(1, max_n + 1):
        c = ref_critical_count(n, goal, alpha)
        if c > n:
            continue
        power = ref_sf_at_least(c, n, assumed_true)
        if power >= target_power:
            return n, c, power
    raise ValueError(f"no n <= {max_n} reaches power {target_power}")


# (goal, assumed_true, alpha, target_power): a grid of easy and hard
# alternatives, then cases whose answer sits at or next to a block edge
# (blocks end at n = 128 and n = 384), then the largest n the benchmark asks for.
GRID = [
    (goal, round(goal + delta, 3), alpha, power)
    for goal in (0.5, 0.7, 0.85)
    for delta in (0.1, 0.14)
    for alpha in (0.05, 0.01)
    for power in (0.8, 0.9)
] + [
    (0.5, 0.99, 0.05, 0.8),
    (0.95, 0.99, 0.05, 0.8),
    (0.6, 0.725, 0.05, 0.9),  # n = 127
    (0.5, 0.611, 0.05, 0.8),  # n = 128
    (0.6, 0.705, 0.05, 0.8),  # n = 129
    (0.5, 0.61, 0.05, 0.8),  # n = 130
    (0.6, 0.68, 0.025, 0.9),  # n = 383
    (0.7, 0.757, 0.05, 0.8),  # n = 384
    (0.5, 0.581, 0.01, 0.8),  # n = 385
    (0.5, 0.572, 0.025, 0.8),  # n = 386
    (0.9, 0.91, 0.05, 0.8),  # n = 5,354
]


@pytest.mark.parametrize("goal, assumed, alpha, power", GRID)
def test_power_and_n_matches_the_scalar_scan(goal, assumed, alpha, power):
    n, c, p = ref_power_and_n(goal, assumed, alpha, power)
    res = power_and_n(goal, assumed, alpha, power)
    assert (res.sample_size, res.critical_count) == (n, c)
    assert type(res.power) is float and res.power.hex() == p.hex()
    assert (res.alpha, res.goal, res.assumed_true) == (alpha, goal, assumed)


@pytest.mark.parametrize("max_n", [5, 127, 128, 129, 130])
def test_power_and_n_honours_max_n_at_block_edges(max_n):
    # n = 129 is the answer, the first n of the second block.
    args = (0.6, 0.705, 0.05, 0.8)
    if max_n < 129:
        with pytest.raises(ValueError, match=rf"^no n <= {max_n} reaches power 0\.8$"):
            ref_power_and_n(*args, max_n=max_n)
        with pytest.raises(ValueError, match=rf"^no n <= {max_n} reaches power 0\.8$"):
            power_and_n(*args, max_n=max_n)
    else:
        res = power_and_n(*args, max_n=max_n)
        assert (res.sample_size, res.critical_count, res.power) == ref_power_and_n(*args, max_n=max_n)


@pytest.mark.parametrize("goal", [0.5, 0.7, 0.85, 0.97])
def test_goal_test_matches_the_scalar_reference(goal):
    for n in range(1, 401):
        c = ref_critical_count(n, goal, 0.05)
        for x in sorted({0, n // 2, min(c, n) - 1, min(c, n), n}):
            res = goal_test(x, n, goal)
            assert res.critical_count == c, (x, n)
            p = ref_sf_at_least(x, n, goal)
            assert type(res.p_value) is float and res.p_value.hex() == p.hex(), (x, n)
            assert res.reject == (p <= 0.05)


@pytest.mark.parametrize("goal", [0.5, 0.7, 0.85, 0.97])
def test_critical_counts_of_a_block_match_one_n_at_a_time(goal):
    n = np.arange(1, 400)
    counts = accuracy._critical_counts(n, goal, 0.05)
    assert counts.tolist() == [ref_critical_count(k, goal, 0.05) for k in range(1, 400)]


# (goal, alpha) where binom.isf lands off the critical count for some n, so a
# search started there must move: at tiny alphas c walks down as many as 19
# steps, and one ulp below an sf value it steps up once.
GUARD_CASES = [
    (0.3, 5.277642575776606e-18),
    (0.3, 1.2157665459056911e-21),
    (0.5, 0.49999999999999994),
    (0.5, 0.9843749999999999),
]


@pytest.mark.parametrize("goal, alpha", GUARD_CASES)
def test_critical_counts_where_isf_needs_the_guards(goal, alpha):
    n = np.arange(1, 81)
    counts = accuracy._critical_counts(n, goal, alpha)
    assert (counts != stats.binom.isf(alpha, n, goal).astype(int) + 1).any()
    assert counts.tolist() == [ref_critical_count(k, goal, alpha) for k in range(1, 81)]
    for k in (1, 6, 40, 80):
        assert goal_test(k // 2, k, goal, alpha).critical_count == ref_critical_count(k, goal, alpha)


@pytest.fixture
def binom_calls(monkeypatch):
    """Number of calls so far to the scipy.special functions the search makes:
    ``ndtri`` starts each block's critical counts and ``betainc`` is each
    binomial tail."""
    calls = {"n": 0}
    for name in ("ndtri", "betainc"):
        original = getattr(accuracy, name)

        def counting(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(accuracy, name, counting)
    return calls


@pytest.mark.parametrize("goal, assumed, n, most", [(0.9, 0.91, 5354, 30), (0.7, 0.78, 193, 10)])
def test_power_search_makes_a_few_scipy_calls_per_block(binom_calls, goal, assumed, n, most):
    # The n-by-n scan made 21,360 and 756 calls for these two searches.
    assert power_and_n(goal, assumed).sample_size == n
    assert 0 < binom_calls["n"] <= most
