r"""Byte-split ingest against the seed's row parser, with chunks of three lines.

`ingest_csv` splits a text with no quote, no NUL byte and no bare carriage
return in bytes: it keys each cell of up to 8 bytes by its bytes, finds each
column's distinct cells with `np.unique` and decodes each of them once.
Longer cells are factorised as text, a chunk with a ragged row goes through
`csv.reader`, and so does all of a text with a NUL byte. Here a chunk is three
lines, and the cells sit on those edges: 8-, 9- and over-16-byte cells,
multi-byte UTF-8 (é, Arabic-Indic digits that `float()` and `int()` read,
no-break-space padding), `\x1c` padding (`str.strip()` removes it), a NUL
inside a cell, LF and CRLF line ends, blank lines, no final newline, a
byte-order mark, and ragged rows in one chunk among uniform ones.
"""

import sys
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from daval import dataset
from daval.dataset import ingest_csv
from test_ingest_identity import _columns_agree, _outcome, reference_ingest

CHUNK = 3
# csv.reader reads a NUL byte from Python 3.11 on; before, it refuses the
# line, and the reference parser with it.
NUL = sys.version_info >= (3, 11)

_NBSP = "\xa0"
# Per column: cells that parse, then cells that quarantine the row.
_CELLS = {
    "subject_id": (
        ["s1", "s2", "subj0001", "subj00001", "subject-000000001", "é1", "١٢", f"{_NBSP}s3{_NBSP}", "\x1cs4\x1c"],
        ["", f" {_NBSP}"],
    ),
    "site_id": (["a", "site-abc", "site-abcd", "site-é", "مركز", f"{_NBSP}b", "\x1ca", ""], []),
    "truth": (["pos", " NEG ", "\x1cpositive\x1c", f"{_NBSP}negative", ""], ["positives"]),
    "output": (["", "pos", "ungradable", " ungradable ", f"neg{_NBSP}"], ["ungradable!"]),
    "score": (
        ["0.5", "0.123456", "0.1234567", "0.12345678901234567", "١", f"{_NBSP}0.25", "\x1c0.75\x1c", ""],
        ["1.5", "1.5000000", "abc"],
    ),
    "time": (["3", "12345678", "123456789", "1234567890.12345678", "٣", f"{_NBSP}2.5", ""], ["-1", "inf"]),
    "event": (["0", "1", " 1", "\x1c0", ""], ["2"]),
    "operator_id": (["op1", "operator", "operator1", "opé", ""], []),
    "replicate_index": (["0", "12345678", "123456789", "١", f"{_NBSP}7", ""], ["x", "-1"]),
    "age": (["61", "61.12345", "61.123456", "61.1234567890123456", "١٢", f"{_NBSP}61", ""], ["nan", "inf"]),
    "note": (["1", "2.5", "", "text", "a longer text cell"], []),
}
_NAMES = list(_CELLS)


@st.composite
def byte_csv_files(draw):
    """CSV text with no quote: rows of cells from the pools above, one chunk
    of which may hold ragged rows; blank lines; LF, CRLF or mixed line ends;
    maybe no final newline; maybe a NUL byte in one cell."""
    header = ["subject_id", "score"]
    header += [n for n in _NAMES if n not in header and draw(st.booleans())]
    header = draw(st.permutations(header)) if draw(st.integers(0, 9)) else ["subject_id"]
    n_lines = draw(st.integers(1, 5 * CHUNK))
    ragged = draw(st.integers(-1, (n_lines - 1) // CHUNK))  # the chunk whose rows may be ragged, if any
    # Ragged rows of random lengths, or rows one cell long and one cell short
    # in turn, so that the chunk holds as many commas as a uniform one.
    balanced = draw(st.booleans())
    lines = []
    for i in range(n_lines):
        if draw(st.integers(0, 7)) == 0:
            lines.append("")  # a blank line
            continue
        row = []
        for name in header:
            good, bad = _CELLS[name]
            row.append(draw(st.sampled_from(bad if bad and draw(st.integers(0, 9)) == 0 else good)))
        if i // CHUNK == ragged:
            if balanced:
                cut = len(row) + (1 if i % 2 else -1)
            elif draw(st.booleans()):
                cut = draw(st.sampled_from([1, len(row) - 1, len(row) + 1, len(row) + 3]))
            else:
                cut = len(row)
            row = (row + ["9", "x", "7"])[: max(cut, 1)]
        lines.append(",".join(row))
    if NUL and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, n_lines - 1))
        lines[i] = draw(st.sampled_from(["s1\x00", "s\x00x", "\x00"])) + lines[i]
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = ",".join(header)
    for line in lines:
        text += (draw(st.sampled_from(["\n", "\r\n"])) if ends == "mixed" else ends) + line
    if draw(st.booleans()):
        text += "\r\n" if ends == "\r\n" else "\n"
    return text, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(byte_csv_files())
def test_byte_ingest_matches_the_row_parser(tmp_path_factory, case):
    text, bom = case
    d = tmp_path_factory.mktemp("bytes")
    # The row parser reads a byte-order mark as part of the first name, so it
    # reads the file without one.
    plain, marked = d / "plain.csv", d / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    event("csv.reader" if "\x00" in text else "byte split")
    for strict in (False, True):
        expected = _outcome(reference_ingest, plain, None, strict)
        with mock.patch.object(dataset, "_CHUNK_ROWS", CHUNK):
            got = _outcome(ingest_csv, marked, None, strict)
        if isinstance(expected, str):
            assert got == expected
            continue
        records, errors, excluded = expected
        assert not isinstance(got, str), got
        assert got.errors == errors
        assert got.excluded_columns == excluded
        assert got.records == records
        assert _columns_agree(got.table, records)


def test_a_plain_file_takes_the_byte_split(tmp_path):
    # Uniform chunks are split in bytes; the chunk with a short row goes
    # through csv.reader, and the rows still come out in file order.
    path = tmp_path / "d.csv"
    rows = [f"s{i},0.{i}" for i in range(3 * CHUNK)]
    rows[CHUNK] = "s-short"
    path.write_bytes(("subject_id,score\r\n" + "\r\n".join(rows)).encode("utf-8"))
    byte_cells, text_cells = dataset._ByteChunk.cells, dataset._TextChunk.cells
    with (
        mock.patch.object(dataset, "_CHUNK_ROWS", CHUNK),
        mock.patch.object(dataset._ByteChunk, "cells", autospec=True, side_effect=byte_cells) as byte_calls,
        mock.patch.object(dataset._TextChunk, "cells", autospec=True, side_effect=text_cells) as text_calls,
    ):
        result = ingest_csv(path)
    assert byte_calls.call_count and text_calls.call_count
    no_output = "no device output (output and score both empty)"
    assert [(e.row, e.message) for e in result.errors] == [(CHUNK + 1, no_output)]
    assert result.table.subject_id == tuple(row.split(",")[0] for row in rows if row != "s-short")
