"""Golden reports: the seeded plans reproduce their committed files byte for byte.

A change that alters any reported number, its formatting or a plot CSV fails
here. Regenerate the goldens only for a change that is meant to alter
reports, and list every moved field in CHANGES.md. Each directory is the
complete output of `daval run --seed 42 --format md` (`python -m daval.cli`
without an installed package) into a fresh directory:

- `plan`, `plan_scores`, `plan_agreement`: the demo plans,
  `daval run --plan demo/<plan>.json --seed 42 --format md --out tests/goldens/<plan>`.
- `plan_scores_10k` and `plan_cohort_10k`: the seeded 10,000-row risk-score
  plan and the 10,000-subject accuracy, qc, agreement and survival plan that
  the `scores_10k_plan` and `cohort_10k_plan` fixtures write. Let pytest
  write them, `pytest tests/test_goldens.py -k 10k --basetemp=<dir>`, then
  `daval run --plan <dir>/scores_10k0/plan_scores_10k.json --seed 42 --format md
  --out tests/goldens/plan_scores_10k`, and the same with
  `<dir>/cohort_10k0/plan_cohort_10k.json` into `tests/goldens/plan_cohort_10k`.
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
