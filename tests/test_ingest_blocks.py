"""The event log read a block at a time.

Blocks are cut wherever the block size falls, the plain route (str.split
and whole columns) and the csv.reader route take turns, and the result
must still be the DictReader reference's, from a path, a binary handle or
a text stream. A csv.Error met after plain blocks names the line that
reading the log row by row with `csv_rows` names.
"""
import csv
import io
import operator
import re
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_group_by_admission, ref_parse_event_log
from test_ingest_equivalence import _groups, event_logs
from wardflow import eventlog
from wardflow.eventlog import (
    CategoryMap,
    LogSchema,
    SchemaError,
    apply_category_map,
    csv_rows,
    parse_event_log,
    reconstruct_journeys,
)

HEADER = "admission_id,location,timestamp\n"
BOM = b"\xef\xbb\xbf"
# a path and a binary handle are read in fixed blocks; a caller's text stream in whole lines, as it splits them
SOURCES = ("path", "binary", "text", "text-split-at-newlines-only", "text-universal-newlines")


def _source(text: str, kind: str, directory):
    if kind == "path":
        path = directory / "log.csv"
        path.write_bytes(BOM + text.encode("utf-8"))
        return str(path)
    if kind == "binary":
        return io.BytesIO(BOM + text.encode("utf-8"))
    if kind == "text":
        return io.StringIO(text, newline="")
    if kind == "text-universal-newlines":
        return io.StringIO(text, newline=None)
    return io.StringIO(text)


def _rows(count: int) -> str:
    return "".join(f"a{i // 7},ward{i % 5},2016-03-01T{8 + i % 12:02d}:{i % 60:02d}\n" for i in range(count))


def _read_as_the_reference(parse, text: str, kind: str, directory, schema: LogSchema = LogSchema()):
    """`parse` of the log from a source of the kind: the DictReader reference's groups and tallies, or None."""
    try:
        ref_events, ref_stats = ref_parse_event_log(text, schema)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as caught:
            parse(_source(text, kind, directory), schema)
        assert str(caught.value) == str(exc)
        return None
    groups, stats = parse(_source(text, kind, directory), schema)
    ref_rows = [(e.admission_id, e.location, e.timestamp) for e in ref_events]
    assert _groups(groups) == _groups(ref_group_by_admission(ref_rows))
    assert (stats.rows_read, stats.rows_rejected) == (ref_stats.rows_read, ref_stats.rows_rejected)
    assert list(stats.rejections.items()) == list(ref_stats.rejections.items())
    return groups, stats


@pytest.fixture
def routes(monkeypatch):
    """The routes each parse took, in order: "plain" for a block split without csv, "csv" for a csv.reader."""
    taken = []
    plain_block, rows = eventlog._Ingest.plain_block, eventlog._Ingest.rows

    def spy_plain_block(self, lines):
        lines_taken = plain_block(self, lines)
        if lines_taken:
            taken[-1].append("plain")
        return lines_taken

    def spy_rows(self, source_rows):
        if not isinstance(source_rows, list):  # a plain block's rows to reject come as a list
            taken[-1].append("csv")
        return rows(self, source_rows)

    def parse(source, *args):
        taken.append([])
        return parse_event_log(source, *args)

    monkeypatch.setattr(eventlog._Ingest, "plain_block", spy_plain_block)
    monkeypatch.setattr(eventlog._Ingest, "rows", spy_rows)
    parse.taken = taken
    return parse


def test_cuts_anywhere_read_as_the_dictreader_reference(routes, monkeypatch, tmp_path_factory):
    directory = tmp_path_factory.mktemp("blocks")

    @given(event_logs(), st.sampled_from(SOURCES), st.one_of(st.integers(1, 8), st.integers(9, 400)))
    @settings(max_examples=400, deadline=None)
    def check(log, kind, block_chars):
        text, schema = log
        monkeypatch.setattr(eventlog, "_BLOCK_CHARS", block_chars)
        _read_as_the_reference(routes, text, kind, directory, schema)

    check()
    switches = {pair for taken in routes.taken for pair in zip(taken, taken[1:]) if pair[0] != pair[1]}
    assert switches == {("plain", "csv"), ("csv", "plain")}


@pytest.mark.parametrize("kind", SOURCES)
def test_a_long_row_and_a_short_row_that_balance_the_delimiters_read_as_csv_reader(kind, tmp_path):
    # 3 + 1 delimiters on two lines, as two rows of the header's width would have
    text = HEADER + _rows(40) + "z1,CT,2016-03-01T09:00,x\n" + "z2,ward1\n" + _rows(40)
    groups, stats = _read_as_the_reference(parse_event_log, text, kind, tmp_path)
    assert (stats.rows_read, stats.rejections) == (82, {"timestamp": 1})
    assert groups["z1"] == (["CT"], [datetime(2016, 3, 1, 9)]) and "z2" not in groups


@pytest.mark.parametrize("last", ["z9", "z9,CT", "z9,CT,2016-03-01T09:00", "z9,CT,2016-03-01T09:00,x"])
@pytest.mark.parametrize("kind", SOURCES)
def test_a_last_line_without_a_newline_is_a_row(kind, last, tmp_path):
    _, stats = _read_as_the_reference(parse_event_log, HEADER + _rows(40) + last, kind, tmp_path)
    assert stats.rows_read == 41


@pytest.mark.parametrize("kind", SOURCES)
def test_blank_lines_of_a_one_column_log_are_not_rows(kind, tmp_path):
    # a blank line splits into one empty field, as wide as a row of this header
    text = "when\n" + "2016-03-01T08:00\n\n2016-03-01T09:00\n" * 50
    groups, stats = _read_as_the_reference(parse_event_log, text, kind, tmp_path, LogSchema("when", "when", "when"))
    assert (stats.rows_read, stats.rows_rejected, len(groups)) == (100, 0, 2)


@pytest.mark.parametrize("space", [c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\n\r"])
def test_fields_padded_with_any_whitespace_are_stripped(space):
    # a timestamp that keeps its padding fails to parse and sends the block to the row loop, which strips
    text = HEADER + _rows(20) + f"{space}z1,{space}CT{space},2016-03-01T09:00\n" + _rows(20)
    groups, stats = parse_event_log(io.StringIO(text))
    assert groups == parse_event_log(io.StringIO(text.replace(space, "")))[0]
    assert groups["z1"] == (["CT"], [datetime(2016, 3, 1, 9)]) and stats.rows_rejected == 0


def test_a_log_of_plain_lines_never_reaches_csv_reader(routes):
    groups, stats = routes(io.StringIO(HEADER + _rows(6000)))
    assert (stats.rows_read, len(groups)) == (6000, 858)
    assert set(routes.taken[0]) == {"plain"} and len(routes.taken[0]) > 2


@pytest.mark.parametrize("kind", SOURCES)
def test_a_log_with_crlf_line_ends_never_reaches_csv_reader(routes, kind, tmp_path):
    text = (HEADER + _rows(6000)).replace("\n", "\r\n")
    _, stats = _read_as_the_reference(routes, text, kind, tmp_path)
    assert stats.rows_read == 6000
    assert set(routes.taken[0]) == {"plain"} and len(routes.taken[0]) > 2


@pytest.mark.parametrize("kind", SOURCES)
def test_blocks_after_a_quoted_field_that_runs_over_a_cut_are_plain_again(routes, kind, monkeypatch, tmp_path):
    monkeypatch.setattr(eventlog, "_BLOCK_CHARS", 1000)
    # the csv.reader reads as many rows as its block has lines, so past the quoted row by 5 more
    text = HEADER + _rows(100) + 'z1,"ward\n' + "\n" * 1500 + '1",2016-03-01T08:00\n' + _rows(2000)
    groups, stats = _read_as_the_reference(routes, text, kind, tmp_path)
    assert stats.rows_read == 2101 and groups["z1"][0] == ["ward\n" + "\n" * 1500 + "1"]
    assert routes.taken[0][:2] == ["plain", "plain"] and routes.taken[0][-2:] == ["plain", "plain"]
    assert "csv" in routes.taken[0]


LONG_FIELD = "x" * (csv.field_size_limit() + 1)
ERRORS = {
    # a caller's text stream that ends lines at \n only: a bare carriage return is inside the field
    "bare-carriage-return": (
        HEADER + _rows(9000) + "a1,E\rD,2016-03-01T08:00\n" + _rows(20), "text-split-at-newlines-only",
        "event log line 9002: carriage return inside an unquoted field; a field that holds one must be quoted"),
    "long-field": (HEADER + _rows(9000) + f"a1,{LONG_FIELD},2016-03-01T08:00\n" + _rows(20), "path",
                   f"event log line 9002: field larger than field limit ({csv.field_size_limit()})"),
    "long-field-after-crlf-blocks": (
        HEADER + _rows(3000) + _rows(3000).replace("\n", "\r\n") + _rows(3000) + f"a1,{LONG_FIELD},x\n", "binary",
        f"event log line 9002: field larger than field limit ({csv.field_size_limit()})"),
    "long-field-after-a-quoted-field": (
        HEADER + _rows(3000) + 'a1,"ward\n1",2016-03-01T08:00\n' + _rows(6000) + f"a1,{LONG_FIELD},x\n", "text",
        f"event log line 9004: field larger than field limit ({csv.field_size_limit()})"),
    # a caller's stream that ends lines at \r only: after the header, the rest is one line of many newlines
    "stream-split-at-carriage-returns-only": (
        HEADER.replace("\n", "\r") + _rows(9000), "text-split-at-carriage-returns-only",
        "event log line 2: carriage return inside an unquoted field; a field that holds one must be quoted"),
}


@pytest.mark.parametrize("text, kind, message", ERRORS.values(), ids=ERRORS)
def test_a_csv_error_after_plain_blocks_names_the_line_the_row_by_row_reader_names(text, kind, message, tmp_path):
    def source():
        if kind == "text-split-at-carriage-returns-only":
            return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="\r")
        return _source(text, kind, tmp_path)

    with pytest.raises(ValueError) as row_by_row:
        with csv_rows(source(), "event log") as reader:
            for _ in reader:
                pass
    with pytest.raises(ValueError) as blocks:
        parse_event_log(source())
    assert str(blocks.value) == str(row_by_row.value) == message


def _undecodable_log(line_ends: bytes = b"\n") -> bytes:
    """A 20,000-row log with a 0xff byte at the start of line 10002, byte 300,032 with newline ends."""
    rows = "".join(f"a{i:05d},ward{i % 5},2016-03-01T08:{i % 60:02d}\n" for i in range(20000))
    data = bytearray((HEADER + rows).encode("utf-8").replace(b"\n", line_ends))
    start = data.index(b"a10000,")
    data[start] = 0xFF
    return bytes(data)


@pytest.mark.parametrize("line_ends, offset", [(b"\n", 300_032), (b"\r\n", 310_033), (b"\r", 300_032)])
@pytest.mark.parametrize("kind", ["path", "binary"])
def test_an_undecodable_byte_names_its_line_and_its_offset_in_the_file(kind, line_ends, offset, tmp_path):
    data = _undecodable_log(line_ends)
    assert data.index(b"\xff") == offset
    if kind == "path":
        (tmp_path / "log.csv").write_bytes(data)
        source = str(tmp_path / "log.csv")
    else:
        source = io.BytesIO(data)
    message = f"event log line 10002: byte 0xff at offset {offset} of the file is not UTF-8 (invalid start byte)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_event_log(source)


def test_an_undecodable_byte_from_a_handle_is_counted_from_where_the_handle_stood():
    handle = io.BytesIO(b"skipped\n" + _undecodable_log())
    handle.seek(8)
    message = "event log line 10002: byte 0xff at offset 300040 of the file is not UTF-8 (invalid start byte)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_event_log(handle)


def test_a_bare_carriage_return_from_a_path_ends_a_line(tmp_path):
    text = HEADER + _rows(3000) + "a1,ED\r" + "a1,CT,2016-03-01T08:00\n" + _rows(3000)
    groups, stats = parse_event_log(_source(text, "path", tmp_path))
    assert (stats.rows_read, stats.rejections) == (6002, {"timestamp": 1})
    assert groups == parse_event_log(_source(text, "text", tmp_path))[0]


def test_category_map_relabels_the_locations_in_place_and_leaves_the_times():
    times = [datetime(2016, 3, 1, hour) for hour in (8, 9, 10)]
    groups = {"a1": (["ED", "ward1", "CT"], list(times)), "a2": (["ward1", "ICU", "CT"], list(times))}
    lists = [list_ for group in groups.values() for list_ in group]
    apply_category_map(groups, CategoryMap({"ward1": "medical", "ICU": "medical"}))
    assert all(map(operator.is_, [list_ for group in groups.values() for list_ in group], lists))
    assert groups == {"a1": (["ED", "medical", "CT"], times), "a2": (["medical", "medical", "CT"], times)}
    kept, merged = reconstruct_journeys(groups)
    assert (kept.stops, kept.times) == (("ED", "medical", "CT"), tuple(times))
    assert (merged.stops, merged.times) == (("medical", "CT"), (times[0], times[2]))
