"""Chunked ingest against the seed's row parser, with chunks of three lines.

`ingest_csv` splits and decodes a file `_CHUNK_ROWS` lines at a time. Here a
chunk is three lines, so every hypothesis CSV crosses chunk edges: blank lines
at the edges, a fault in the first and in the last row of a chunk, a covariate
that turns non-numeric only in a later chunk (so its non-finite cells in
earlier chunks must quarantine nothing), short rows and duplicated headers.
Most files hold no quote and no bare carriage return, so the comma split reads
them; the others go through `csv.reader`, and each file must take the path
its text calls for.
"""

import csv
import io
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from daval import dataset
from daval.dataset import ingest_csv
from test_ingest_identity import _columns_agree, _outcome, reference_ingest

CHUNK = 3

# Per column: cells that parse, and one that quarantines the row.
_CELLS = {
    "subject_id": (["s1", " s2 ", "s3", "s4"], " "),
    "site_id": (["a", " b", ""], None),
    "truth": (["pos", "NEG", ""], "maybe"),
    "score": (["0.5", "1e-1", " 0.25 ", "1"], "1.5"),
    "time": (["3", "2.5", "0"], "-1"),
    "event": (["0", "1"], "2"),
    "operator_id": (["op1", " op2 ", ""], None),
    "device_unit_id": (["u1", ""], None),
    "replicate_index": (["0", "2", ""], "x"),
    "age": (["61", "1e3", "", "-0"], "inf"),
    # Numeric with non-finite cells in the first chunk; may turn to text later.
    "late": (["1", "2.5", ""], "nan"),
}
_OPTIONAL = ["site_id", "truth", "time", "event", "operator_id", "device_unit_id", "replicate_index"]


def _hazard(draw, text: list[str]) -> None:
    """Give one cell a quote or one line a bare carriage return."""
    i = draw(st.integers(0, len(text) - 1))
    if draw(st.booleans()):
        text[i] = text[i].replace(",", ',"q,t",', 1) if "," in text[i] else '"q"'
    else:
        text[i] += "\r"


@st.composite
def chunked_csv_files(draw):
    header = ["subject_id", "score"] + [n for n in _OPTIONAL if draw(st.booleans())] + ["age", "late"]
    header = draw(st.permutations(header))
    header += draw(st.lists(st.sampled_from(["age", " score", "late "]), max_size=2))
    n_lines = draw(st.integers(0, 4 * CHUNK + 2))
    lines: list[list[str] | None] = []
    for _ in range(n_lines):
        if draw(st.integers(0, 5)) == 0:
            lines.append(None)  # a blank line
            continue
        row = []
        for name in header:
            good, _ = _CELLS[name.strip()]
            row.append(draw(st.sampled_from(good)))
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(1, len(row)))]  # a short row
        lines.append(row)
    # A fault in the first and in the last row of one chunk, and a few more
    # anywhere.
    k = draw(st.integers(0, max(0, (n_lines - 1) // CHUNK)))
    chunk = [i for i in range(k * CHUNK, min(n_lines, (k + 1) * CHUNK)) if lines[i] is not None]
    faulty = set(chunk[:1] + chunk[-1:]) | set(draw(st.lists(st.integers(0, max(n_lines - 1, 0)), max_size=2)))
    for i in faulty:
        if i < n_lines and lines[i] is not None:
            row = lines[i]
            name = draw(st.sampled_from([h.strip() for h in header[: len(row)]]))
            bad = _CELLS[name][1]
            if bad is not None:
                row[[h.strip() for h in header].index(name)] = bad
    # The late covariate turns non-numeric after the first chunk.
    later = [i for i in range(CHUNK, n_lines) if lines[i] is not None]
    if later and draw(st.booleans()):
        i = draw(st.sampled_from(later))
        row = lines[i]
        late = [j for j, h in enumerate(header[: len(row)]) if h.strip() == "late"]
        if late:
            row[late[-1]] = "n/a"
    text = []
    for row in [header] + lines:
        if row is None:
            text.append("")
            continue
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(row)
        text.append(out.getvalue())
    if text[1:] and draw(st.integers(0, 4)) == 0:
        _hazard(draw, text)
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    body = "".join(line if line.endswith("\r") else line + terminator for line in text)
    return body if draw(st.booleans()) else body.rstrip("\r\n")


@settings(max_examples=300, deadline=None)
@given(chunked_csv_files())
def test_chunked_ingest_matches_the_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("chunks") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    fallback = '"' in text or text.count("\r") != text.count("\r\n")
    event("csv.reader" if fallback else "comma split")
    for strict in (False, True):
        expected = _outcome(reference_ingest, path, None, strict)
        with (
            mock.patch.object(dataset, "_CHUNK_ROWS", CHUNK),
            mock.patch.object(dataset, "_lines", wraps=dataset._lines) as lines,
        ):
            got = _outcome(ingest_csv, path, None, strict)
        # csv.reader reads the header line, and the rest only on the fallback.
        assert lines.call_count == 1 + fallback
        if isinstance(expected, str):
            assert got == expected
            continue
        records, errors, excluded = expected
        assert not isinstance(got, str), got
        assert got.errors == errors
        assert got.excluded_columns == excluded
        assert got.records == records
        assert _columns_agree(got.table, records)


def test_equal_ids_share_one_object_across_chunks(tmp_path):
    path = tmp_path / "d.csv"
    rows = [f"s{i},site-{i % 2},0.5" for i in range(4 * CHUNK)]
    path.write_text("subject_id,site_id,score\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with mock.patch.object(dataset, "_CHUNK_ROWS", CHUNK):
        sites = ingest_csv(path).table.site_id
    assert len({id(site) for site in sites}) == 2
