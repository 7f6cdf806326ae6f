import gc
import io
import warnings
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardflow.eventlog import (
    KEEP_AS_IS,
    REJECT_UNKNOWN,
    AdmissionJourney,
    CategoryMap,
    LocationEvent,
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
    events, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00",
        "a1,ward1,2016-03-01T09:30",
        "a2,ED,2016-03-01T08:15",
    ]))
    assert len(events) == 3
    assert stats.rows_read == 3
    assert stats.rows_rejected == 0
    assert events[0] == LocationEvent("a1", "ED", ts(0), 1)


def test_parse_bad_timestamp_rejected_and_tallied():
    events, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00",
        "a1,ward1,not-a-date",
        "a2,ED,2016-03-01T08:15",
    ]))
    assert len(events) == 2
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
    events, stats = parse_event_log(io.StringIO("adm;loc;when\na1;ED;01/03/2016 08:00\n"), schema)
    assert stats.rows_rejected == 0
    assert events[0].timestamp == ts(0)


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
    key = lambda e: (e.admission_id, e.location, e.timestamp)
    assert sorted(map(key, first)) == sorted(map(key, second))


def test_reconstruct_merges_consecutive_duplicates():
    events = [
        LocationEvent("a1", "A", ts(0), 1),
        LocationEvent("a1", "A", ts(10), 2),
        LocationEvent("a1", "B", ts(20), 3),
    ]
    journeys = reconstruct_journeys(events)
    assert journeys == [AdmissionJourney("a1", ("A", "B"), (ts(0), ts(20)))]


def test_reconstruct_empty():
    assert reconstruct_journeys([]) == []


def test_reconstruct_interleaved_admissions():
    events = [
        LocationEvent("a2", "ED", ts(5), 1),
        LocationEvent("a1", "ED", ts(0), 2),
        LocationEvent("a2", "CT", ts(25), 3),
        LocationEvent("a1", "ward1", ts(30), 4),
    ]
    journeys = reconstruct_journeys(events)
    assert [j.admission_id for j in journeys] == ["a1", "a2"]
    assert journeys[0].stops == ("ED", "ward1")
    assert journeys[1].stops == ("ED", "CT")


def test_reconstruct_equal_timestamps_break_ties_by_source_row():
    events = [
        LocationEvent("a1", "B", ts(0), 2),
        LocationEvent("a1", "A", ts(0), 1),
    ]
    assert reconstruct_journeys(events)[0].stops == ("A", "B")


def test_category_map_merges_same_category():
    journeys = [AdmissionJourney("a1", ("ward1", "ward2"), (ts(0), ts(10)))]
    mapped = apply_category_map(journeys, CategoryMap({"ward1": "medical", "ward2": "medical"}))
    assert mapped[0].stops == ("medical",)
    assert mapped[0].times == (ts(0),)


def test_category_map_identity_keeps_journeys():
    journeys = [AdmissionJourney("a1", ("ED", "ward1"), (ts(0), ts(10)))]
    assert apply_category_map(journeys, CategoryMap({})) == journeys


def test_category_map_visit_and_return():
    journeys = [AdmissionJourney("a1", ("ED", "ward1", "CT", "ward2"), tuple(ts(i) for i in range(4)))]
    mapped = apply_category_map(journeys, CategoryMap({"ward1": "med", "ward2": "med"}))
    assert mapped[0].stops == ("ED", "med", "CT", "med")


def test_category_map_reject_unknown():
    journeys = [AdmissionJourney("a1", ("ED",), (ts(0),))]
    with pytest.raises(UnknownLocationError, match="ED"):
        apply_category_map(journeys, CategoryMap({"ward1": "med"}, REJECT_UNKNOWN))


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


a_ids = st.sampled_from(["a1", "a2", "a3"])
locations = st.sampled_from(["ED", "CT", "ward1", "ward2", "ICU"])
events_strategy = st.lists(
    st.tuples(a_ids, locations, st.integers(min_value=0, max_value=500)),
    max_size=40,
).map(lambda raw: [LocationEvent(a, l, ts(m), i + 1) for i, (a, l, m) in enumerate(raw)])


@given(events_strategy)
@settings(max_examples=60, deadline=None)
def test_reconstruct_is_idempotent(events):
    journeys = reconstruct_journeys(events)
    flattened = [
        LocationEvent(j.admission_id, stop, time, row)
        for row, (j, stop, time) in enumerate(
            ((j, s, t) for j in journeys for s, t in zip(j.stops, j.times)), start=1
        )
    ]
    assert reconstruct_journeys(flattened) == journeys


@given(events_strategy)
@settings(max_examples=60, deadline=None)
def test_category_mapping_never_adds_stops(events):
    journeys = reconstruct_journeys(events)
    cmap = CategoryMap({"ward1": "med", "ward2": "med", "CT": "imaging"})
    mapped = apply_category_map(journeys, cmap)
    assert sum(len(j.stops) for j in mapped) <= sum(len(j.stops) for j in journeys)


@given(events_strategy, st.randoms())
@settings(max_examples=40, deadline=None)
def test_reconstruct_row_order_only_matters_for_ties(events, rnd):
    journeys = reconstruct_journeys(events)
    # permuting rows while keeping source_row attached changes nothing
    shuffled = list(events)
    rnd.shuffle(shuffled)
    assert reconstruct_journeys(shuffled) == journeys


def test_parse_mixed_timezone_awareness_rejected_and_tallied():
    events, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00",
        "a1,ward1,2016-03-01T09:00+00:00",
        "a2,ED,2016-03-01T08:15",
        "a2,CT,2016-03-01T08:45Z",
    ]))
    assert stats.rejections == {"timezone": 2}
    assert [e.source_row for e in events] == [1, 3]
    assert len(reconstruct_journeys(events)) == 2


def test_parse_all_aware_timestamps_accepted():
    events, stats = parse_event_log(make_csv([
        "a1,ED,2016-03-01T08:00+01:00",
        "a1,ward1,2016-03-01T08:30+00:00",
    ]))
    assert stats.rows_rejected == 0
    assert reconstruct_journeys(events)[0].stops == ("ED", "ward1")


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
    events, stats = parse_event_log(handle)
    assert (events, stats) == parse_event_log(io.StringIO(text))
    assert handle.sizes and all(size is not None and size > 0 for size in handle.sizes)
    assert not handle.closed
    handle.seek(0)
    assert handle.read(3) == b"\xef\xbb\xbf"
