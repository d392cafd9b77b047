"""report.md tables keep their columns (a `|` escaped, a line break as
`<br>`); survival groups named by a numeric covariate keep the covariate's
repr, and absent record-field values group under `?`, in every output."""

import csv
import json
import re

from daval.cli import main as cli_main

UNESCAPED_BAR = re.compile(r"(?<!\\)\|")


def _tables(markdown: str) -> list[list[str]]:
    """Each table of a Markdown document as its lines, header first."""
    tables: list[list[str]] = []
    previous = ""
    for line in markdown.splitlines():
        if line.startswith("|"):
            if not previous.startswith("|"):
                tables.append([])
            tables[-1].append(line)
        previous = line
    return tables


def test_bar_in_a_cell_is_escaped(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(
        "subject_id,site_id,score,time,event,a|b\n"
        "s1,north|south,0.5,1,1,0.5\n"
        "s2,north|south,0.5,2,0,1.0\n"
        "s3,east,0.5,3,1,0.9\n"
        "s4,east,0.5,4,1,0.2\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["survival", str(data), "--groups-by", "site_id", "--baseline-covariates", "a|b"]
    assert cli_main(argv + ["--out", str(out), "--format", "md"]) == 0
    markdown = (out / "report.md").read_text(encoding="utf-8")
    assert "| north\\|south | 2 | 1 | - |" in markdown
    assert "| baseline | a\\|b=" in markdown
    tables = _tables(markdown)
    assert len(tables) == 2
    for table in tables:
        columns = len(UNESCAPED_BAR.findall(table[0]))
        assert all(len(UNESCAPED_BAR.findall(line)) == columns for line in table)
    # report.json keeps the names as they are.
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report["results"]["survival"]["groups"]) == ["east", "north|south"]


def test_groups_by_a_numeric_covariate(tmp_path):
    data = tmp_path / "d.csv"
    rows = [("-0.0", 1, 1), ("-0.0", 3, 0), ("0.0", 2, 1), ("0.0", 5, 1), ("1.5", 4, 1), ("1.5", 6, 0)]
    data.write_text(
        "subject_id,score,time,event,grade\n"
        + "".join(f"s{i},0.5,{t},{e},{g}\n" for i, (g, t, e) in enumerate(rows)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["survival", str(data), "--groups-by", "grade", "--horizon", "3"]
    assert cli_main(argv + ["--out", str(out), "--format", "md"]) == 0
    names = ["-0.0", "0.0", "1.5"]
    block = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]["survival"]
    assert block["groups_by"] == "grade"
    assert list(block["groups"]) == names
    assert [g["n"] for g in block["groups"].values()] == [2, 2, 2]
    assert block["logrank"]["df"] == 2
    with open(out / "km.csv", newline="", encoding="utf-8") as f:
        km_groups = [row["group"] for row in csv.DictReader(f)]
    assert list(dict.fromkeys(km_groups)) == ["all"] + names
    table = _tables((out / "report.md").read_text(encoding="utf-8"))[0]
    assert [line.split(" | ")[0] for line in table[2:]] == [f"| {name}" for name in names]


def test_line_break_in_a_cell_is_br(tmp_path):
    data = tmp_path / "d.csv"
    data.write_bytes(
        b"subject_id,site_id,score,time,event\n"
        b's1,"north\nsouth",0.5,1,1\n'
        b's2,"north\nsouth",0.5,2,0\n'
        b's3,"up\r\ndown",0.5,3,1\n'
        b's4,"cr\rlf",0.5,4,1\n'
    )
    out = tmp_path / "out"
    assert cli_main(["survival", str(data), "--groups-by", "site_id", "--out", str(out), "--format", "md"]) == 0
    markdown = (out / "report.md").read_text(encoding="utf-8")
    assert "| north<br>south | 2 | 1 | - |" in markdown
    assert "| up<br>down | 1 | 1 | - |" in markdown
    assert "| cr<br>lf | 1 | 1 | - |" in markdown
    for table in _tables(markdown):
        columns = len(UNESCAPED_BAR.findall(table[0]))
        assert all(len(UNESCAPED_BAR.findall(line)) == columns for line in table)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert list(report["results"]["survival"]["groups"]) == ["cr\rlf", "north\nsouth", "up\r\ndown"]


def test_absent_group_values_group_under_question_mark(tmp_path):
    # An empty operator_id is absent; a literal "None" is a name like any other.
    data = tmp_path / "d.csv"
    rows = [("None", 1, 1), ("", 2, 0), ("", 3, 1), ("opA", 4, 1), ("None", 5, 1), ("opA", 6, 0)]
    data.write_text(
        "subject_id,score,time,event,operator_id\n"
        + "".join(f"s{i},0.5,{t},{e},{op}\n" for i, (op, t, e) in enumerate(rows)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert cli_main(["survival", str(data), "--groups-by", "operator_id", "--out", str(out), "--format", "md"]) == 0
    names = ["?", "None", "opA"]
    block = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]["survival"]
    assert list(block["groups"]) == names
    assert [g["n"] for g in block["groups"].values()] == [2, 2, 2]
    with open(out / "km.csv", newline="", encoding="utf-8") as f:
        km_groups = [row["group"] for row in csv.DictReader(f)]
    assert list(dict.fromkeys(km_groups)) == ["all"] + names
    table = _tables((out / "report.md").read_text(encoding="utf-8"))[0]
    assert [line.split(" | ")[0] for line in table[2:]] == [f"| {name}" for name in names]
