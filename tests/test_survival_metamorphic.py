"""Metamorphic relations of a survival run (Chen, Cheung & Yiu 1998).

`cli.main` runs a generated survival study twice, the second time with its
input transformed in a way whose effect on the report is known:

- Doubling every time and the horizon is exact in floating point and keeps
  every order and tie, so it doubles `max_followup`, the pooled
  `risk_at_horizon.time` and `km.csv`'s time column, and leaves every other
  value in `report.json` and `km.csv` bit for bit as it was.
- An extra numeric column that no plan names changes only the dataset's
  fingerprint.

Both runs read the same paths. The plan fingerprint covers the horizon and
the dataset fingerprint the file's bytes, so the first relation sets both
aside.
"""

import csv
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from daval.cli import main

PROPERTY = settings(max_examples=100, deadline=None)

TIME = st.sampled_from([0.0, -0.0, 1.0, 2.5, 5e-324]) | st.floats(0.0, 1e6)
COVARIATE = st.integers(-30, 30).map(lambda v: v / 10)
SUBJECT = st.tuples(TIME, st.booleans(), st.sampled_from(["a", "b", "c"]), COVARIATE, COVARIATE)
STUDY = st.lists(SUBJECT, min_size=2, max_size=30)
PARAMS = st.fixed_dictionaries(
    {"groups_by": st.just("site_id"), "baseline_covariates": st.just(["age"])},
    optional={"horizon": TIME, "added_covariates": st.just(["marker"])},
)


def _csv(subjects, times, spare=None):
    header = ["subject_id", "site_id", "score", "time", "event", "age", "marker"]
    rows = [
        [f"s{i}", site, "0.5", repr(t), str(int(event)), repr(age), repr(marker)]
        for i, (t, (_, event, site, age, marker)) in enumerate(zip(times, subjects))
    ]
    if spare is not None:
        position, values = spare
        header.insert(position, "spare")
        for row, value in zip(rows, values):
            row.insert(position, repr(value))
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def _runs(*inputs):
    """Per (csv_text, params, level): exit code, parsed report.json and km.csv
    rows (None when not written). Every run reads and writes the same paths,
    since the plan's fingerprint covers the dataset's path."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        data, plan, out = Path(tmp) / "study.csv", Path(tmp) / "plan.json", Path(tmp) / "out"
        for csv_text, params, level in inputs:
            shutil.rmtree(out, ignore_errors=True)
            data.write_text(csv_text, encoding="utf-8")
            plan.write_text(json.dumps({
                "dataset": str(data), "analyses": ["survival"], "level": level, "params": {"survival": params},
            }), encoding="utf-8")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["run", "--plan", str(plan), "--out", str(out)])
            report = km = None
            if (out / "report.json").exists():
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if (out / "km.csv").exists():
                km = list(csv.reader(io.StringIO((out / "km.csv").read_text(encoding="utf-8"))))
            results.append((code, report, km))
    return results


def _text(report):
    """report.json's values as their JSON text, floats by repr."""
    return json.dumps(report, sort_keys=True)


@PROPERTY
@given(STUDY, PARAMS, st.sampled_from([0.9, 0.95]))
def test_doubling_times_doubles_only_the_time_fields(subjects, params, level):
    times = [s[0] for s in subjects]
    doubled_params = dict(params)
    if "horizon" in params:
        doubled_params["horizon"] = 2 * params["horizon"]
    (code, base, base_km), (code2, doubled, doubled_km) = _runs(
        (_csv(subjects, times), params, level),
        (_csv(subjects, [2 * t for t in times]), doubled_params, level),
    )
    assert code2 == code
    if base is None:
        assert doubled is None
        return
    for report in (base, doubled):
        del report["plan_hash"], report["dataset"]["sha256"]
    block = base["results"]["survival"]
    if "max_followup" in block:
        block["max_followup"] *= 2
    if "risk_at_horizon" in block:
        block["risk_at_horizon"]["time"] *= 2
    assert _text(doubled) == _text(base)
    if base_km is None:
        assert doubled_km is None
        return
    time = base_km[0].index("time")
    for row in base_km[1:]:
        row[time] = repr(2 * float(row[time]))
    assert doubled_km == base_km


@PROPERTY
@given(
    STUDY,
    PARAMS,
    st.integers(0, 7),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=30, max_size=30),
)
def test_an_unused_column_changes_only_the_dataset_fingerprint(subjects, params, position, values):
    times = [s[0] for s in subjects]
    (code, base, base_km), (code2, spared, spared_km) = _runs(
        (_csv(subjects, times), params, 0.95),
        (_csv(subjects, times, (position, values)), params, 0.95),
    )
    assert code2 == code
    assert spared_km == base_km
    if base is None:
        assert spared is None
        return
    assert spared["dataset"].pop("sha256") != base["dataset"].pop("sha256")
    assert _text(spared) == _text(base)
