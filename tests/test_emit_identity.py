r"""Columnar plot CSVs are byte-identical to the row-wise writer they replace.

`emit_report` formats each plot column in one pass and writes each file with
one call. The reference below is the earlier writer: one `csv.writer.writerow`
per row, with every float cell written as its `repr` and every other cell as
its `str`. It differs in one way only: that writer's `\n` terminator left a
field holding a bare `\r` unquoted, so a reader split its row there; the
reference quotes such a field, as a `\r\n` terminator does. On generated
columns (floats with their special values, int64 extremes, and text that
needs quoting) both must write the same bytes.
"""

import csv
import io
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from daval.cli import main as cli_main
from daval.report import ValidationReport, emit_report

PROPERTY = settings(max_examples=200, deadline=None)

_SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16,
    1.7976931348623157e308, 0.1, 1 / 3,
]
_INT64 = (-(2**63), 2**63 - 1)
_TEXT_CASES = ["", '""', "a,b", 'q"x', "a\rb", "a\nb", "a\r\nb", " lead", "  ", "all", ","]


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_bytes(header, rows) -> bytes:
    lines = []
    for row in [header] + [[_csv_cell(v) for v in row] for row in rows]:
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def _column(kind: str, n: int):
    floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(width=64))
    if kind == "float":
        return st.lists(floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    if kind == "int":
        ints = st.one_of(st.sampled_from(_INT64), st.integers(*_INT64))
        return st.lists(ints, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    text = st.one_of(
        st.sampled_from(_TEXT_CASES), st.text(alphabet=' ,"\r\nab-é', max_size=6)
    )
    return st.lists(text, min_size=n, max_size=n)


@st.composite
def _plots(draw):
    kinds = draw(st.lists(st.sampled_from(["float", "int", "text"]), min_size=1, max_size=5))
    n = draw(st.integers(min_value=0, max_value=25))
    columns = [draw(_column(kind, n)) for kind in kinds]
    header = tuple(draw(st.sampled_from(["t", "a,b", "x y", 'q"'])) for _ in kinds)
    return header, columns


def _rows(columns):
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return list(zip(*cells))


def _emitted(tmp: Path, plots) -> dict[str, bytes]:
    report = ValidationReport(
        plan_hash="0" * 64, dataset_fingerprint={"rows": 0, "sha256": ""},
        tool_version="0", level=0.95, ci_method="cp", seed=None,
        results={}, warnings=[], plots=plots,
    )
    paths = emit_report(report, tmp)
    return {p.name: p.read_bytes() for p in paths if p.suffix == ".csv"}


@PROPERTY
@given(st.lists(_plots(), min_size=1, max_size=3))
def test_columnar_emit_matches_row_writer(tmp_path_factory, plots):
    named = {f"p{i}.csv": plot for i, plot in enumerate(plots)}
    emitted = _emitted(tmp_path_factory.mktemp("emit"), named)
    assert sorted(emitted) == sorted(named)
    for name, (header, columns) in named.items():
        assert emitted[name] == _reference_bytes(header, _rows(columns)), name


def test_one_column_of_empty_text_is_quoted_like_the_row_writer(tmp_path):
    plot = (("g",), [["", "a", ""]])
    assert _emitted(tmp_path, {"g.csv": plot})["g.csv"] == b'g\n""\na\n""\n'


def test_km_group_names_that_need_quoting_read_back(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(
        "subject_id,site_id,output,time,event\n"
        's1,"a,b",pos,1.0,1\n'
        's2,"a,b",neg,2.0,1\n'
        's3,"q""x",neg,1.5,1\n'
        's4,"q""x",neg,3.0,0\n'
        's5,"a,b",neg,4.0,0\n',
        encoding="utf-8",
    )
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"dataset": "d.csv", "analyses": ["survival"],'
        ' "params": {"survival": {"groups_by": "site_id"}}}',
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--plan", str(plan), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "km.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "time", "survival", "lower", "upper", "at_risk"]
    assert [r[0] for r in rows[1:]] == ["all"] * 3 + ["a,b"] * 2 + ['q"x']
    assert [r[1] for r in rows[1:]] == ["1.0", "1.5", "2.0", "1.0", "2.0", "1.5"]
    assert [r[5] for r in rows[1:]] == ["5", "4", "3", "3", "2", "2"]
