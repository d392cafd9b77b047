"""Golden reports: the demo plans reproduce their committed files byte for byte.

The files under `tests/goldens/<plan>/` are `daval run --plan demo/<plan>.json
--seed 42 --format md` output. A change that alters any reported number, its
formatting or a plot CSV fails here; regenerate the goldens only for a change
that is meant to alter reports, and say why in CHANGES.md.

`tests/goldens/plan_scores_10k/` is the same output for the seeded
10,000-row risk-score plan that the `scores_10k_plan` fixture writes, and
`tests/goldens/plan_cohort_10k/` for the 10,000-subject accuracy, qc,
agreement and survival plan that the `cohort_10k_plan` fixture writes.
"""

from pathlib import Path

import pytest

from daval.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.mark.parametrize("plan", ["plan", "plan_scores", "plan_agreement"])
def test_demo_plan_matches_golden_bytes(tmp_path, plan, capsys):
    out = tmp_path / plan
    rc = cli_main([
        "run", "--plan", str(ROOT / "demo" / f"{plan}.json"), "--seed", "42",
        "--format", "md", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    expected = sorted(p.name for p in (GOLDENS / plan).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDENS / plan / name).read_bytes(), name


def test_scores_10k_plan_matches_golden_bytes(tmp_path, scores_10k_plan, capsys):
    out = tmp_path / "plan_scores_10k"
    rc = cli_main([
        "run", "--plan", str(scores_10k_plan), "--seed", "42", "--format", "md", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    expected = sorted(p.name for p in (GOLDENS / "plan_scores_10k").iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDENS / "plan_scores_10k" / name).read_bytes(), name


def test_cohort_10k_plan_matches_golden_bytes(tmp_path, cohort_10k_plan, capsys):
    out = tmp_path / "plan_cohort_10k"
    rc = cli_main([
        "run", "--plan", str(cohort_10k_plan), "--seed", "42", "--format", "md", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    expected = sorted(p.name for p in (GOLDENS / "plan_cohort_10k").iterdir())
    assert expected == ["bland_altman.csv", "km.csv", "report.json", "report.md"]
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDENS / "plan_cohort_10k" / name).read_bytes(), name
