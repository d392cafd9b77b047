"""The chi-square tails moved from a local incomplete gamma to scipy's.

The log-rank and likelihood-ratio p-values are Q(df / 2, stat / 2), the
regularized upper incomplete gamma, now `scipy.special.gammaincc`. Until then
they came from the power series and modified Lentz continued fraction kept
below as the reference. The switch moved the last bits of four reported
floats (listed in CHANGES.md) and nothing else; these tests bound that move:

(a) the reference and scipy agree within 1e-12 relative, across degrees of
    freedom and statistics, and on both sides of the x = a + 1 crossover
    where the reference changes expansion;
(b) a report made with the reference patched in for scipy differs from the
    shipped one only in float tokens of the two p-value fields, each within
    1e-12 relative, with report.md and every plot CSV byte-identical.
"""

import json
import math
from pathlib import Path

import pytest
from scipy import stats
from scipy.special import gammaincc

import daval.survival
from daval.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
REL = 1e-12
P_VALUE_PATHS = {
    ("results", "survival", "logrank", "p_value"),
    ("results", "survival", "cox", "lrt", "p_value"),
}
_EPS = 1e-15
_MAX_ITER = 10_000


def _lower_series(a, x):
    """Regularized lower incomplete gamma P(a, x) by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_cf(a, x):
    """Regularized upper incomplete gamma Q(a, x) by modified Lentz (x >= a + 1)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reference_q(a, x):
    """Q(a, x) as the reports computed it before scipy: 1 at x <= 0, clipped to [0, 1]."""
    if x <= 0.0:
        return 1.0
    q = 1.0 - _lower_series(a, x) if x < a + 1.0 else _upper_cf(a, x)
    return min(1.0, max(0.0, q))


def test_reference_and_scipy_tails_agree():
    for df in (1, 2, 3.5, 7, 20):
        for x in (0.1, 0.5, 1.0, 2.3, 5.0, 11.7, 40.0):
            ref = reference_q(df / 2, x / 2)
            assert float(gammaincc(df / 2, x / 2)) == pytest.approx(ref, rel=REL, abs=1e-300)
            assert float(stats.chi2.sf(x, df)) == pytest.approx(ref, rel=REL, abs=1e-300)
    for a in (0.5, 1.5, 3.5):
        assert reference_q(a, 0.0) == 1.0
        assert float(gammaincc(a, 0.0)) == 1.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0])
@pytest.mark.parametrize("offset", [-0.5, -1e-9, 0.0, 1e-9, 0.5])
def test_reference_and_scipy_agree_at_crossover(a, offset):
    # Both expansions hold in a band around x = a + 1, where the reference
    # switches from one to the other; each must match scipy there.
    x = a + 1.0 + offset
    q = float(gammaincc(a, x))
    assert 1.0 - _lower_series(a, x) == pytest.approx(q, rel=REL)
    assert _upper_cf(a, x) == pytest.approx(q, rel=REL)
    assert reference_q(a, x) == pytest.approx(q, rel=REL)


class _Float(str):
    """A float token of report.json, kept as written."""


def _moved_floats(shipped, reference, path=()):
    """Paths of the float tokens that differ; fails on any other difference."""
    assert type(shipped) is type(reference), path
    if isinstance(shipped, dict):
        assert list(shipped) == list(reference), path
        return [
            moved
            for key in shipped
            for moved in _moved_floats(shipped[key], reference[key], path + (key,))
        ]
    if isinstance(shipped, list):
        assert len(shipped) == len(reference), path
        return [
            moved
            for i, (a, b) in enumerate(zip(shipped, reference))
            for moved in _moved_floats(a, b, path + (i,))
        ]
    if isinstance(shipped, _Float) and shipped != reference:
        assert float(shipped) == pytest.approx(float(reference), rel=REL, abs=0.0), path
        return [path]
    assert shipped == reference, path
    return []


def _run(plan, out):
    rc = cli_main(["run", "--plan", str(plan), "--seed", "42", "--format", "md", "--out", str(out)])
    assert rc == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("which", ["demo", "cohort_10k"])
def test_reports_move_only_in_p_value_bits(which, tmp_path, monkeypatch, capsys, request):
    if which == "demo":
        plan = ROOT / "demo" / "plan.json"
    else:
        plan = request.getfixturevalue("cohort_10k_plan")
    shipped = _run(plan, tmp_path / "shipped")
    calls = []

    def counted_reference(a, x):
        calls.append((a, x))
        return reference_q(a, x)

    monkeypatch.setattr(daval.survival, "gammaincc", counted_reference)
    reference = _run(plan, tmp_path / "reference")
    capsys.readouterr()

    assert len(calls) == 2  # the log-rank test and the added-value LRT
    assert sorted(shipped) == sorted(reference)
    for name in shipped:
        if name != "report.json":
            assert shipped[name] == reference[name], name
    moved = _moved_floats(
        json.loads(shipped["report.json"], parse_float=_Float),
        json.loads(reference["report.json"], parse_float=_Float),
    )
    assert set(moved) <= P_VALUE_PATHS
