"""Non-finite values in `report.json` of the diagnostic analyses.

`cli.main` runs small generated `accuracy`, `qc` and `riskscore` studies:
empty rows, zero cells, strata holding one class or none, and scores of
exactly 0 and 1. Every run must exit 0, 1 or 2 and raise no RuntimeWarning,
and every "nan" or "inf" its report holds must be one that the README's
list of non-finite values names (a degenerate likelihood ratio, a post-test
risk after a 0/0 likelihood ratio, `auc_se` with fewer than two cases in a
class, a p-value of a NaN statistic).
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from daval.cli import main

PROPERTY = settings(max_examples=100, deadline=None)
NON_FINITE = ("nan", "inf", "-inf")


def _named(key, value, parent, results) -> bool:
    """Whether README's list names this non-finite value."""
    if parent.get("degenerate") is True:  # a likelihood ratio with a zero cell
        return (key, value) in (("estimate", "inf"), ("estimate", "nan"), ("upper", "inf"))
    if key in ("after_positive", "after_negative") and value == "nan":
        lr = results["accuracy"]["lr_pos" if key == "after_positive" else "lr_neg"]
        return lr["estimate"] == "nan"
    if key == "auc_se" and value == "nan":
        return min(parent["n_pos"], parent["n_neg"]) < 2 and "lower" not in parent
    if key == "p_value" and value == "nan":
        return parent.get("statistic") == "nan"
    return False


def _unnamed(node, results, path=()):
    """Paths of the non-finite values under ``node`` that README does not name."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    found = []
    for key, value in items:
        if value in NON_FINITE and not _named(key, value, node if isinstance(node, dict) else {}, results):
            found.append((*path, key))
        found.extend(_unnamed(value, results, (*path, key)))
    return found


def _check_run(csv_text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "study.csv", Path(tmp) / "out"
        data.write_text(csv_text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(io.StringIO()), redirect_stderr(
            io.StringIO()
        ):
            warnings.simplefilter("always")
            code = main([argv[0], str(data), "--out", str(out), *argv[1:]])
        assert code in (0, 1, 2)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        if out.exists():
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            assert _unnamed(report, report["results"]) == []
        else:
            assert code == 1


def _binary_csv(cells, rows):
    """One CSV row per case: ``rows`` pairs each cell with its truth and output."""
    lines = ["subject_id,truth,output"]
    for count, (truth, output) in zip(cells, rows):
        lines.extend(f"s{len(lines)},{truth},{output}" for _ in range(count))
    return "\n".join(lines) + "\n"


CELL = st.integers(0, 4)
COMMON = st.tuples(st.sampled_from(["0.9", "0.95", "0.99"]), st.sampled_from(["cp", "wilson"])).map(
    lambda t: ["--level", t[0], "--ci-method", t[1]]
)


@PROPERTY
@given(
    st.lists(CELL, min_size=4, max_size=4),
    COMMON,
    st.sampled_from([[], ["--pretest", "0.3"], ["--goal", "0.8"], ["--pretest", "0.01", "--goal", "0.5"]]),
)
def test_accuracy_reports_only_named_non_finite_values(cells, common, flags):
    rows = [("pos", "pos"), ("neg", "pos"), ("pos", "neg"), ("neg", "neg")]  # tp, fp, fn, tn
    _check_run(_binary_csv(cells, rows), ["accuracy", *common, *flags])


@PROPERTY
@given(st.lists(CELL, min_size=6, max_size=6), COMMON)
def test_qc_reports_only_named_non_finite_values(cells, common):
    rows = [
        ("pos", "pos"), ("pos", "neg"), ("pos", "ungradable"),
        ("neg", "pos"), ("neg", "neg"), ("neg", "ungradable"),
    ]  # a, b, c, d, e, f
    _check_run(_binary_csv(cells, rows), ["qc", *common])


SCORE = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.25, 0.5, 0.9]), st.floats(0.0, 1.0).map(lambda s: round(s, 3)))
CUTOFFS = st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]), min_size=1, max_size=3, unique=True).map(sorted)


@PROPERTY
@given(
    st.lists(st.tuples(SCORE, st.booleans()), min_size=1, max_size=12),
    CUTOFFS,
    COMMON,
    st.sampled_from(["slope", "large"]),
    st.integers(2, 4),
    st.sampled_from([[], ["--train-prev", "0.3", "--target-prev", "0.1"]]),
)
def test_riskscore_reports_only_named_non_finite_values(cases, cutoffs, common, calibration, bins, flags):
    lines = ["subject_id,truth,score"]
    lines.extend(f"s{i},{'pos' if y else 'neg'},{s!r}" for i, (s, y) in enumerate(cases))
    argv = ["riskscore", *common, "--calibration", calibration, "--bins", str(bins)]
    argv += ["--cutoffs", ",".join(map(str, cutoffs)), *flags]
    _check_run("\n".join(lines) + "\n", argv)


def _results(tmp, csv_text, argv):
    data = Path(tmp) / "study.csv"
    data.write_text(csv_text, encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main([argv[0], str(data), "--out", tmp, *argv[1:]]) == 0
    results = json.loads((Path(tmp) / "report.json").read_text(encoding="utf-8"))["results"]
    assert _unnamed(results, results) == []
    return results


def test_the_named_values_occur():
    with tempfile.TemporaryDirectory() as tmp:
        # Every output positive: LR- is 0/0, and so is the risk after a negative.
        acc = _results(tmp, "subject_id,truth,output\ns0,pos,pos\ns1,neg,pos\n", ["accuracy", "--pretest", "0.3"])
        acc = acc["accuracy"]
        assert (acc["lr_neg"]["estimate"], acc["lr_neg"]["upper"]) == ("nan", "inf")
        assert acc["posttest"]["after_negative"] == "nan"
        # One diseased case, in a stratum without healthy ones.
        risk = _results(
            tmp, "subject_id,truth,score\ns0,pos,0.0\ns1,neg,1.0\ns2,neg,0.5\n",
            ["riskscore", "--calibration", "large", "--cutoffs", "0.25"],
        )["riskscore"]
        assert risk["discrimination"]["auc_se"] == "nan"
        assert "lower" not in risk["discrimination"]
        assert (risk["risk_strata"][0]["dlr"]["estimate"], risk["risk_strata"][0]["dlr"]["upper"]) == ("inf", "inf")
