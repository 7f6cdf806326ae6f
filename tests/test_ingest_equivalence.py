"""The compact ingest agrees with the DictReader-and-dataclass reference in tests/oracles.py.

Generated logs carry blank lines, short and long rows, padded and empty
fields, bad timestamps, naive and offset-aware timestamps mixed, a header
column repeated, `;` delimiters and strptime formats. Parse, journeys,
category map and network must come out equal, tallies included, and the
network's edges in the reference's insertion order.
"""
import csv
import io
import random
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_apply_category_map, ref_build_network, ref_parse_event_log, ref_reconstruct_journeys
from wardflow.eventlog import (
    AdmissionJourney,
    CategoryMap,
    LocationEvent,
    LogSchema,
    SchemaError,
    apply_category_map,
    parse_event_log,
    reconstruct_journeys,
)
from wardflow.network import build_network

COLUMNS = ("admission_id", "location", "timestamp")
ADMISSIONS = ["a1", "a2", " a3 ", "a4", "", "  "]
LOCATIONS = ["ED", "ward1", " ICU ", "CT", "ward,2", "ward\n3", "", " "]
CATEGORIES = CategoryMap({"ward1": "medical", "ICU": "medical", "CT": "imaging", "ward,2": "medical"})
STRPTIME_FORMAT = "%d/%m/%Y %H:%M"


def _iso_stamps():
    minute = st.integers(min_value=0, max_value=9)
    return st.one_of(
        minute.map(lambda m: f"2016-03-01T08:0{m}"),
        minute.map(lambda m: f" 2016-03-01T09:0{m} "),
        minute.map(lambda m: f"2016-03-01T08:0{m}+00:00"),
        minute.map(lambda m: f"2016-03-01T08:0{m}+01:00"),
        minute.map(lambda m: f"2016-03-01T07:0{m}Z"),
        st.sampled_from(["not-a-date", "", "2016-13-01T08:00", "01/03/2016 08:00"]),
    )


def _formatted_stamps():
    minute = st.integers(min_value=0, max_value=9)
    return st.one_of(
        minute.map(lambda m: f"01/03/2016 08:0{m}"),
        minute.map(lambda m: f" 02/03/2016 08:0{m}  "),
        st.sampled_from(["2016-03-01T08:00", "", "32/03/2016 08:00"]),
    )


@st.composite
def event_logs(draw):
    """(text, schema) of a delimited log that exercises every DictReader edge case."""
    fmt = draw(st.sampled_from([None, STRPTIME_FORMAT]))
    delimiter = draw(st.sampled_from([",", ";"]))
    header = list(draw(st.permutations(COLUMNS)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "note")
    if draw(st.booleans()):
        # an earlier column of the same name; the last one is the one read
        header.insert(0, draw(st.sampled_from(COLUMNS)))
    if draw(st.integers(0, 19)) == 0:
        header.remove(draw(st.sampled_from(COLUMNS)))  # a declared column missing
    stamps = _iso_stamps() if fmt is None else _formatted_stamps()
    decoys = st.sampled_from(["x", "", "2016-01-01T00:00", "decoy"])
    pools = {"admission_id": st.sampled_from(ADMISSIONS), "location": st.sampled_from(LOCATIONS),
             "timestamp": stamps, "note": st.sampled_from(["", "n", "a note"])}
    last = {name: i for i, name in enumerate(header)}

    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.integers(0, 19)) == 0:
        writer.writerow([])  # a blank first line is read as an empty header
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["full", "full", "full", "full", "short", "long", "blank"]))
        if kind == "blank":
            writer.writerow([])
            continue
        row = [draw(pools[name] if last[name] == i else decoys) for i, name in enumerate(header)]
        if kind == "short":
            row = row[:draw(st.integers(1, len(row)))]
        elif kind == "long":
            row += draw(st.lists(decoys, min_size=1, max_size=3))
        writer.writerow(row)
    schema = LogSchema(delimiter=delimiter, timestamp_format=fmt)
    return buffer.getvalue(), schema


def _events(events):
    # repr keeps the UTC offset, which datetime equality ignores
    return [(e.admission_id, e.location, repr(e.timestamp), e.source_row) for e in events]


def _journeys(journeys):
    return [(j.admission_id, j.stops, tuple(map(repr, j.times))) for j in journeys]


def _source(text: str, as_bytes: bool):
    if as_bytes:
        return io.BytesIO(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return io.StringIO(text, newline="")


@given(event_logs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_ingest_matches_the_dictreader_reference(log, as_bytes):
    text, schema = log
    try:
        ref_events, ref_stats = ref_parse_event_log(text, schema)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as caught:
            parse_event_log(_source(text, as_bytes), schema)
        assert str(caught.value) == str(exc)
        return
    events, stats = parse_event_log(_source(text, as_bytes), schema)

    assert _events(events) == _events(ref_events)
    # a plain tuple would compare equal too; the events must stay LocationEvents
    assert all(type(event) is LocationEvent for event in events)
    assert (stats.rows_read, stats.rows_rejected) == (ref_stats.rows_read, ref_stats.rows_rejected)
    assert list(stats.rejections.items()) == list(ref_stats.rejections.items())

    journeys = reconstruct_journeys(events)
    ref_journeys = ref_reconstruct_journeys(ref_events)
    assert _journeys(journeys) == _journeys(ref_journeys)
    assert _journeys(reconstruct_journeys(events[::-1])) == _journeys(ref_journeys)

    mapped = apply_category_map(journeys, CATEGORIES)
    ref_mapped = ref_apply_category_map(ref_journeys, CATEGORIES)
    assert _journeys(mapped) == _journeys(ref_mapped)

    for ours, theirs in ((journeys, ref_journeys), (mapped, ref_mapped)):
        net, ref_net = build_network(ours), ref_build_network(theirs)
        assert net.nodes == ref_net.nodes
        # same weights in the same insertion order, which sets the float summation order of `_pearson`
        assert list(net.edges.items()) == list(ref_net.edges.items())
        assert type(net.edges) is dict


@pytest.mark.parametrize("fmt, stamp", [(None, "2016-03-01T08:00"), (STRPTIME_FORMAT, "01/03/2016 08:00")])
def test_events_are_location_events_on_either_timestamp_path(fmt, stamp):
    text = "admission_id,location,timestamp\n" + f"a1,ED,{stamp}\na2,CT,{stamp}\n"
    events, _ = parse_event_log(io.StringIO(text), LogSchema(timestamp_format=fmt))
    assert [type(event) for event in events] == [LocationEvent, LocationEvent]
    assert events[1].location == "CT" and events[1].timestamp == datetime(2016, 3, 1, 8)


def test_build_network_matches_the_loop_on_generated_journeys():
    """Many journeys over shared stops: weights, nodes and edge insertion order as the loop gives them."""
    rng = random.Random(5)
    journeys = []
    for i in range(400):
        stops = [rng.choice("ABCDEFGH")]
        for _ in range(rng.randrange(0, 12)):
            stops.append(rng.choice([s for s in "ABCDEFGH" if s != stops[-1]]))
        journeys.append(AdmissionJourney(f"a{i}", tuple(stops), (datetime(2016, 3, 1),) * len(stops)))
    net, ref = build_network(iter(journeys)), ref_build_network(journeys)
    assert net.nodes == ref.nodes
    assert list(net.edges.items()) == list(ref.edges.items())


def test_generated_logs_reach_every_rejection_reason():
    """The strategy is wide enough to hit each tally; a narrower one would prove less."""
    reasons = set()

    @given(event_logs())
    @settings(max_examples=300, deadline=None)
    def collect(log):
        text, schema = log
        try:
            _, stats = parse_event_log(io.StringIO(text, newline=""), schema)
        except SchemaError:
            return
        reasons.update(stats.rejections)

    collect()
    assert reasons == {"admission_id", "location", "timestamp", "timezone"}


def test_repeated_header_name_reads_its_last_column():
    text = "location,admission_id,location,timestamp\ndecoy,a1,ED,2016-03-01T08:00\nx,a1,,2016-03-01T09:00\n"
    events, stats = parse_event_log(io.StringIO(text))
    assert [e.location for e in events] == ["ED"]
    assert stats.rejections == {"location": 1}


def test_blank_lines_are_not_rows_and_short_rows_read_empty():
    text = "admission_id,location,timestamp\n\na1,ED,2016-03-01T08:00\n\n\na1,CT\na2\n"
    events, stats = parse_event_log(io.StringIO(text))
    assert [e.source_row for e in events] == [1]
    assert stats.rows_read == 3
    assert stats.rejections == {"timestamp": 1, "location": 1}


def test_equal_admission_ids_and_locations_share_one_object():
    text = "admission_id,location,timestamp\n" + "a1,ED,2016-03-01T08:00\n" * 3
    events, _ = parse_event_log(io.StringIO(text))
    assert len({id(part) for e in events for part in e[:2]}) == 2


def test_location_event_compares_and_orders_as_a_tuple():
    # a named tuple: equal to any tuple of the same values, ordered field by
    # field, and immutable; the frozen dataclass it replaced compared only
    # to its own class and could not be ordered
    stamp = datetime(2016, 3, 1, 8)
    event = LocationEvent("a1", "ED", stamp, 1)
    assert event == LocationEvent("a1", "ED", stamp, 1) == ("a1", "ED", stamp, 1)
    assert event != LocationEvent("a1", "ED", stamp, 2)
    assert event < LocationEvent("a1", "ED", stamp, 2)
    with pytest.raises(AttributeError):
        event.location = "CT"
