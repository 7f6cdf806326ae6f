import gc
import io
import operator
import re
import warnings
from collections import deque
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RefEvent, ref_apply_category_map, ref_group_by_admission, ref_reconstruct_journeys
from wardflow.eventlog import (
    KEEP_AS_IS,
    REJECT_UNKNOWN,
    AdmissionJourney,
    CategoryMap,
    LogSchema,
    SchemaError,
    UnknownLocationError,
    apply_category_map,
    parse_event_log,
    read_category_map,
    reconstruct_journeys,
)

T0 = datetime(2016, 3, 1, 8, 0)


def ts(minutes: int) -> datetime:
    return T0 + timedelta(minutes=minutes)


def make_csv(rows, header="admission_id,location,timestamp"):
    return io.StringIO(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def test_parse_clean_three_rows():
    groups, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00",
        "a1,ward1,2016-03-01T09:30",
        "a2,ED,2016-03-01T08:15",
    ]))
    assert groups == {"a1": (["ED", "ward1"], [ts(0), ts(90)]), "a2": (["ED"], [ts(15)])}
    assert stats.rows_read == 3
    assert stats.rows_rejected == 0


def test_parse_bad_timestamp_rejected_and_tallied():
    groups, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00",
        "a1,ward1,not-a-date",
        "a2,ED,2016-03-01T08:15",
    ]))
    assert groups == {"a1": (["ED"], [ts(0)]), "a2": (["ED"], [ts(15)])}
    assert stats.rows_rejected == 1
    assert stats.rejections == {"timestamp": 1}


def test_parse_empty_location_and_admission_rejected():
    _, stats = parse_event_log(make_csv([
        "a1,  ,2016-03-01T08:00",
        ",ED,2016-03-01T08:15",
    ]))
    assert stats.rejections == {"location": 1, "admission_id": 1}


def test_parse_missing_column_is_fatal():
    with pytest.raises(SchemaError):
        parse_event_log(io.StringIO("admission_id,where\na1,ED\n"))


def test_parse_custom_schema_and_delimiter():
    schema = LogSchema(admission_column="adm", location_column="loc", timestamp_column="when",
                       delimiter=";", timestamp_format="%d/%m/%Y %H:%M")
    groups, stats = parse_event_log(io.StringIO("adm;loc;when\na1;ED;01/03/2016 08:00\n"), schema)
    assert stats.rows_rejected == 0
    assert groups == {"a1": (["ED"], [ts(0)])}


def test_parse_shuffled_rows_same_event_multiset():
    rows = [
        "a1,ED,2016-03-01T08:00",
        "a2,CT,2016-03-01T08:05",
        "a1,ward1,2016-03-01T09:00",
        "a2,ED,2016-03-01T07:50",
    ]
    shuffled = [rows[2], rows[0], rows[3], rows[1]]
    first, _ = parse_event_log(make_csv(rows))
    second, _ = parse_event_log(make_csv(shuffled))
    events = lambda groups: sorted((a, l, t) for a, (locs, times) in groups.items() for l, t in zip(locs, times))
    assert events(first) == events(second)


def journeys_of(rows):
    groups, stats = parse_event_log(make_csv(rows))
    assert stats.rows_rejected == 0
    return list(reconstruct_journeys(groups))


def test_reconstruct_merges_consecutive_duplicates():
    journeys = journeys_of(["a1,A,2016-03-01T08:00", "a1,A,2016-03-01T08:10", "a1,B,2016-03-01T08:20"])
    assert journeys == [AdmissionJourney("a1", ("A", "B"), (ts(0), ts(20)))]


def test_reconstruct_empty():
    assert list(reconstruct_journeys({})) == []


def test_reconstruct_interleaved_admissions():
    journeys = journeys_of([
        "a2,ED,2016-03-01T08:05",
        "a1,ED,2016-03-01T08:00",
        "a2,CT,2016-03-01T08:25",
        "a1,ward1,2016-03-01T08:30",
    ])
    assert [j.admission_id for j in journeys] == ["a1", "a2"]
    assert journeys[0].stops == ("ED", "ward1")
    assert journeys[1].stops == ("ED", "CT")


def test_reconstruct_equal_timestamps_break_ties_by_source_row():
    journeys = journeys_of(["a1,B,2016-03-01T08:00", "a1,A,2016-03-01T08:00", "a1,C,2016-03-01T07:00"])
    assert journeys[0].stops == ("C", "B", "A")


def test_reconstruct_equal_instants_at_different_offsets_keep_row_order():
    # one UTC instant twice: datetime compares aware values by instant, so the rows tie
    journeys = journeys_of(["a1,B,2016-03-01T08:00+01:00", "a1,A,2016-03-01T07:00+00:00",
                            "a1,C,2016-03-01T06:30+00:00"])
    assert journeys[0].stops == ("C", "B", "A")
    assert list(map(repr, journeys[0].times[1:])) == [
        repr(datetime.fromisoformat("2016-03-01T08:00+01:00")),
        repr(datetime.fromisoformat("2016-03-01T07:00+00:00")),
    ]


def test_reconstruct_sorts_out_of_order_rows_within_an_admission():
    journeys = journeys_of([
        "a1,CT,2016-03-01T09:00",
        "a1,ED,2016-03-01T08:00",
        "a1,ward1,2016-03-01T10:00",
        "a1,ED,2016-03-01T08:30",
    ])
    assert journeys == [AdmissionJourney("a1", ("ED", "CT", "ward1"), (ts(0), ts(60), ts(120)))]


def mapped_journeys(groups, category_map):
    apply_category_map(groups, category_map)
    return list(reconstruct_journeys(groups))


def test_category_map_merges_same_category():
    groups = {"a1": (["ward1", "ward2"], [ts(0), ts(10)])}
    mapped = mapped_journeys(groups, CategoryMap({"ward1": "medical", "ward2": "medical"}))
    assert mapped[0].stops == ("medical",)
    assert mapped[0].times == (ts(0),)


def test_category_map_identity_keeps_journeys():
    journeys = [AdmissionJourney("a1", ("ED", "ward1"), (ts(0), ts(10)))]
    assert mapped_journeys({"a1": (["ED", "ward1"], [ts(0), ts(10)])}, CategoryMap({})) == journeys


def test_category_map_visit_and_return():
    groups = {"a1": (["ED", "ward1", "CT", "ward2"], [ts(i) for i in range(4)])}
    mapped = mapped_journeys(groups, CategoryMap({"ward1": "med", "ward2": "med"}))
    assert mapped[0].stops == ("ED", "med", "CT", "med")


def test_category_map_reject_unknown():
    with pytest.raises(UnknownLocationError, match="ED"):
        apply_category_map({"a1": (["ED"], [ts(0)])}, CategoryMap({"ward1": "med"}, REJECT_UNKNOWN))


def test_category_map_rejects_empty_category():
    with pytest.raises(ValueError):
        CategoryMap({"ward1": " "})


@pytest.mark.parametrize("stops, times, message", [
    ((), (), "journey needs matching, non-empty stops and times"),
    (("ED", "CT"), (ts(0),), "journey needs matching, non-empty stops and times"),
    (("ED", "CT"), (ts(10), ts(0)), "times not non-decreasing in 'a1'"),
    (("ED", "CT", "CT"), (ts(0), ts(1), ts(2)), "consecutive duplicate stop 'CT' in 'a1'"),
])
def test_a_directly_built_journey_is_checked(stops, times, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AdmissionJourney("a1", stops, times)


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_a_delimiter_of_other_than_one_character_is_a_value_error(delimiter):
    message = f"^delimiter must be one character, got {delimiter!r}$"
    with pytest.raises(ValueError, match=message):
        LogSchema(delimiter=delimiter)
    with pytest.raises(ValueError, match=message):
        read_category_map(io.StringIO("ward1;medical\n"), delimiter=delimiter)


def test_read_category_map_skips_header():
    cmap = read_category_map(io.StringIO("location,category\nward1,medical\nward2,surgical\n"))
    assert cmap.entries == {"ward1": "medical", "ward2": "surgical"}
    assert read_category_map(io.StringIO("ward1,medical\n")).entries == {"ward1": "medical"}


def test_read_category_map_skips_a_header_after_blank_lines():
    cmap = read_category_map(io.StringIO("\n  ,\nlocation,category\nward1,medical\n"))
    assert cmap.entries == {"ward1": "medical"}


def test_read_category_map_header_is_only_the_first_non_blank_row():
    cmap = read_category_map(io.StringIO("ward1,medical\nlocation,category\n"))
    assert cmap.entries == {"ward1": "medical", "location": "category"}


@pytest.mark.parametrize("text, row", [(",medical\n", 1), ("location,category\nward1,medical\n\n  ,surgical\n", 4)])
def test_read_category_map_rejects_an_empty_location(text, row):
    with pytest.raises(ValueError, match=f"^category map row {row} has an empty location: "):
        read_category_map(io.StringIO(text))


def undecodable_category_map() -> tuple[bytes, int, int]:
    """A 1,000-row map with a 0xff byte past its first 8 KiB: (bytes, its line, its offset)."""
    rows = [f"w{i:04d},category{i % 7}\n".encode() for i in range(1000)]
    rows[700] = rows[700].replace(b"category", b"categ\xffry")
    data = b"location,category\n" + b"".join(rows)
    return data, 702, data.index(b"\xff")


@pytest.mark.parametrize("kind", ["path", "binary"])
def test_read_category_map_names_the_line_and_file_offset_of_a_byte_that_is_not_utf8(kind, tmp_path):
    data, line, offset = undecodable_category_map()
    assert offset > 8192
    if kind == "path":
        (tmp_path / "map.csv").write_bytes(data)
        source = str(tmp_path / "map.csv")
    else:
        source = io.BytesIO(data)
    message = f"category map line {line}: byte 0xff at offset {offset} of the file is not UTF-8 (invalid start byte)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_category_map(source)


def test_reconstruct_journeys_empties_groups_as_it_is_consumed():
    groups, _ = parse_event_log(make_csv(["a2,ED,2016-03-01T08:00", "a1,ED,2016-03-01T08:00",
                                          "a1,CT,2016-03-01T09:00", "a3,CT,2016-03-01T08:00"]))
    journeys = reconstruct_journeys(groups)
    assert len(groups) == 3
    assert next(journeys).admission_id == "a1"
    assert sorted(groups) == ["a2", "a3"]
    assert [journey.admission_id for journey in journeys] == ["a2", "a3"]
    assert groups == {}


def test_category_map_rejects_the_first_unknown_location_in_grouped_order():
    groups, _ = parse_event_log(make_csv(["a2,ward1,2016-03-01T08:00", "a1,ward1,2016-03-01T08:00",
                                          "a2,ICU,2016-03-01T09:00", "a1,CT,2016-03-01T09:00",
                                          "a2,XR,2016-03-01T07:00"]))
    # a2's first row comes before a1's, and ICU before XR in a2's rows; a1 would come first by id,
    # and XR before ICU by time
    with pytest.raises(UnknownLocationError, match="^location 'ICU' has no category$"):
        apply_category_map(groups, CategoryMap({"ward1": "med", "ward2": "med"}, REJECT_UNKNOWN))


def test_category_map_relabels_each_location_list_in_place():
    groups = {f"a{i:02d}": (["ward1", "CT", "ward2"], [ts(0), ts(i), ts(i + 1)]) for i in range(50)}
    lists = [list_ for group in groups.values() for list_ in group]
    assert apply_category_map(groups, CategoryMap({"ward1": "med", "ward2": "med"})) is None
    assert all(map(operator.is_, [list_ for group in groups.values() for list_ in group], lists))
    assert groups == {f"a{i:02d}": (["med", "CT", "med"], [ts(0), ts(i), ts(i + 1)]) for i in range(50)}
    assert [journey.stops for journey in reconstruct_journeys(groups)] == [("med", "CT", "med")] * 50


def test_category_map_that_rejects_a_location_leaves_the_groups_unchanged():
    groups = {"a1": (["ward1", "ward2"], [ts(0), ts(10)]), "a2": (["ward2", "CT", "ward1"], [ts(5), ts(1), ts(2)])}
    before = {admission: (list(locations), list(times)) for admission, (locations, times) in groups.items()}
    with pytest.raises(UnknownLocationError, match="^location 'CT' has no category$"):
        apply_category_map(groups, CategoryMap({"ward1": "med", "ward2": "med"}, REJECT_UNKNOWN))
    assert groups == before


a_ids = st.sampled_from(["a1", "a2", "a3"])
locations = st.sampled_from(["ED", "CT", "ward1", "ward2", "ICU"])
events_strategy = st.lists(
    st.tuples(a_ids, locations, st.integers(min_value=0, max_value=500)),
    max_size=40,
).map(lambda raw: [(a, l, ts(m)) for a, l, m in raw])


@given(events_strategy)
@settings(max_examples=60, deadline=None)
def test_reconstruct_is_idempotent(events):
    journeys = list(reconstruct_journeys(ref_group_by_admission(events)))
    flattened = [(j.admission_id, stop, time) for j in journeys for stop, time in zip(j.stops, j.times)]
    assert list(reconstruct_journeys(ref_group_by_admission(flattened))) == journeys


@given(events_strategy)
@settings(max_examples=60, deadline=None)
def test_category_mapping_never_adds_stops(events):
    journeys = list(reconstruct_journeys(ref_group_by_admission(events)))
    cmap = CategoryMap({"ward1": "med", "ward2": "med", "CT": "imaging"})
    mapped = mapped_journeys(ref_group_by_admission(events), cmap)
    assert sum(len(j.stops) for j in mapped) <= sum(len(j.stops) for j in journeys)


@given(st.lists(st.tuples(a_ids, locations, st.integers(min_value=0, max_value=6)), max_size=40),
       st.dictionaries(locations, st.sampled_from(["med", "imaging", "ED", "ICU"]), max_size=4))
@settings(max_examples=100, deadline=None)
def test_mapping_the_groups_merges_as_mapping_the_journeys_would(raw, entries):
    """Out-of-order and tied timestamps; keep-as-is maps that lack locations and may map onto one."""
    events = [(a, l, ts(m)) for a, l, m in raw]
    cmap = CategoryMap(entries)
    ref_events = [RefEvent(a, l, t, source_row=i) for i, (a, l, t) in enumerate(events)]
    expected = ref_apply_category_map(ref_reconstruct_journeys(ref_events), cmap)
    mapped = mapped_journeys(ref_group_by_admission(events), cmap)
    assert [(j.admission_id, j.stops, j.times) for j in mapped] == [
        (j.admission_id, j.stops, j.times) for j in expected]


@given(events_strategy, st.randoms())
@settings(max_examples=40, deadline=None)
def test_reconstruct_row_order_only_matters_for_ties(events, rnd):
    journeys = list(reconstruct_journeys(ref_group_by_admission(events)))
    # any permutation of the rows that keeps equal timestamps of an admission in row order
    order = list(range(len(events)))
    rnd.shuffle(order)
    ties = {}
    for i, (admission, _, timestamp) in enumerate(events):
        ties.setdefault((admission, timestamp), deque()).append(i)
    shuffled = [events[ties[events[i][0], events[i][2]].popleft()] for i in order]
    assert list(reconstruct_journeys(ref_group_by_admission(shuffled))) == journeys


def test_parse_mixed_timezone_awareness_rejected_and_tallied():
    groups, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00",
        "a1,ward1,2016-03-01T09:00+00:00",
        "a2,ED,2016-03-01T08:15",
        "a2,CT,2016-03-01T08:45Z",
    ]))
    assert stats.rejections == {"timezone": 2}
    assert groups == {"a1": (["ED"], [ts(0)]), "a2": (["ED"], [ts(15)])}
    assert len(list(reconstruct_journeys(groups))) == 2


def test_parse_all_aware_timestamps_accepted():
    groups, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00+01:00",
        "a1,ward1,2016-03-01T08:30+00:00",
    ]))
    assert stats.rows_rejected == 0
    assert list(reconstruct_journeys(groups))[0].stops == ("ED", "ward1")


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    text = "admission_id,location,timestamp\na1,ED,2016-03-01T08:00\na1,CT,2016-03-01T09:00\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    from_path, _ = parse_event_log(str(path))
    from_bytes, _ = parse_event_log(io.BytesIO(path.read_bytes()))
    assert from_path == from_bytes == parse_event_log(io.StringIO(text))[0]
    categories = tmp_path / "map.csv"
    categories.write_bytes(b"\xef\xbb\xbflocation,category\nCT,imaging\n")
    assert read_category_map(str(categories)).entries == {"CT": "imaging"}


def test_files_opened_from_a_path_are_closed(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("admission_id,location,timestamp\na1,ED,2016-03-01T08:00\n")
    categories = tmp_path / "map.csv"
    categories.write_text("ward1,medical\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_event_log(str(log))
        read_category_map(str(categories))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class _RecordingBytes(io.BytesIO):
    """A binary handle that records the size of every read asked of it."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def read1(self, size=-1):
        self.sizes.append(size)
        return super().read1(size)


def test_binary_handle_is_decoded_in_blocks_and_left_open():
    text = "admission_id,location,timestamp\n" + "".join(
        f"a{i % 7},ward{i % 5},2016-03-01T08:{i % 60:02d}\n" for i in range(2000)
    )
    handle = _RecordingBytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    groups, stats = parse_event_log(handle)
    assert (groups, stats) == parse_event_log(io.StringIO(text))
    assert handle.sizes and all(size is not None and size > 0 for size in handle.sizes)
    assert not handle.closed
    handle.seek(0)
    assert handle.read(3) == b"\xef\xbb\xbf"


def test_parse_keeps_gc_tracked_objects_per_admission_not_per_row():
    text = "admission_id,location,timestamp\n" + "".join(
        f"a{i % 60},ward{i % 7},2016-03-01T{8 + i % 10:02d}:{i % 60:02d}\n" for i in range(6000)
    )
    parse_event_log(io.StringIO(text))  # anything a first call sets up is not counted
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        groups, stats = parse_event_log(io.StringIO(text))
        added = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    # two lists and a tuple per admission; one tracked object per row would add over 6,000
    assert (stats.rows_read, len(groups)) == (6000, 60)
    assert added < 1000
    journeys = list(reconstruct_journeys(groups))
    assert len(journeys) == 60 and groups == {}
