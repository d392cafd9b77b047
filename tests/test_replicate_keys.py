"""Duplicate-key reporting and precision cells when replicate indices are
absent for some rows of a subject and present (0 included) for others."""

import json

from daval.agreement import precision_cells
from daval.cli import main as cli_main
from daval.dataset import StudyTable
from conftest import score_record

MIXED_KEYS_CSV = """\
subject_id,site_id,truth,output,score,time,event,operator_id,device_unit_id,replicate_index
s1,a,pos,pos,,,,,,
s1,a,pos,pos,,,,,,
s1,b,neg,neg,,,,,,0
s1,b,neg,neg,,,,,,0
s2,b,neg,pos,,,,,,
"""


def test_duplicate_keys_with_and_without_an_index_are_a_warning(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(MIXED_KEYS_CSV, encoding="utf-8")
    assert cli_main(["accuracy", str(data), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert "data: 2 duplicate (subject_id, replicate_index) keys" in report["warnings"]


def test_replicate_zero_is_its_own_condition():
    indices = (0, 0, None, None, 1, 1)
    records = [score_record("s1", k / 10, replicate_index=i) for k, i in enumerate(indices)]
    cells = precision_cells(StudyTable.from_records(records), condition_fields=["replicate_index"])
    assert cells == {
        ("s1", (0,)): [0.0, 0.1],
        ("s1", ("?",)): [0.2, 0.3],
        ("s1", (1,)): [0.4, 0.5],
    }
