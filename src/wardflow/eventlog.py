"""Parse raw location-event logs and rebuild per-admission journeys."""
from __future__ import annotations

import csv
import functools
import io
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, compress, groupby
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

KEEP_AS_IS = "keep-as-is"
REJECT_UNKNOWN = "reject-unknown"


class SchemaError(ValueError):
    """A declared column is missing from the input header."""


class UnknownLocationError(ValueError):
    """A location has no category under a reject-unknown map."""


class LocationEvent(NamedTuple):
    """One accepted log row; a tuple, so a million of them stay small."""

    admission_id: str
    location: str
    timestamp: datetime
    source_row: int


@dataclass(frozen=True)
class AdmissionJourney:
    admission_id: str
    stops: tuple[str, ...]
    times: tuple[datetime, ...]

    def __post_init__(self):
        if len(self.stops) < 1 or len(self.stops) != len(self.times):
            raise ValueError("journey needs matching, non-empty stops and times")
        if not all(map(operator.le, self.times, self.times[1:])):
            raise ValueError(f"times not non-decreasing in {self.admission_id!r}")
        if not all(map(operator.ne, self.stops, self.stops[1:])):
            a = next(a for a, b in zip(self.stops, self.stops[1:]) if a == b)
            raise ValueError(f"consecutive duplicate stop {a!r} in {self.admission_id!r}")


@dataclass(frozen=True)
class LogSchema:
    """Column names and formats for a delimiter-separated event log."""

    admission_column: str = "admission_id"
    location_column: str = "location"
    timestamp_column: str = "timestamp"
    delimiter: str = ","
    timestamp_format: str | None = None  # None means ISO-8601


@dataclass
class IngestStats:
    rows_read: int = 0
    rows_rejected: int = 0
    rejections: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rows_rejected += 1
        self.rejections[reason] = self.rejections.get(reason, 0) + 1


@dataclass(frozen=True)
class CategoryMap:
    entries: Mapping[str, str]
    default_policy: str = KEEP_AS_IS

    def __post_init__(self):
        if self.default_policy not in (KEEP_AS_IS, REJECT_UNKNOWN):
            raise ValueError(f"unknown default_policy {self.default_policy!r}")
        for location, category in self.entries.items():
            if not category.strip():
                raise ValueError(f"empty category for location {location!r}")

    def resolve(self, location: str) -> str:
        if location in self.entries:
            return self.entries[location]
        if self.default_policy == REJECT_UNKNOWN:
            raise UnknownLocationError(f"location {location!r} has no category")
        return location


@contextmanager
def _text_stream(source: IO | str) -> Iterator[IO[str]]:
    """A text stream over a path, a text stream or a binary handle.

    A path is opened, and closed on exit. A binary handle is decoded as
    UTF-8, with an optional byte-order mark, as it is read, and is left
    open for the caller.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8-sig", newline="") as stream:
            yield stream
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
        try:
            yield stream
        finally:
            stream.detach()  # closing the wrapper would close the caller's handle


def parse_event_log(source: IO | str, schema: LogSchema = LogSchema()) -> tuple[list[LocationEvent], IngestStats]:
    """Read a delimited event log with a header row into LocationEvents.

    Rows with an unparseable timestamp, an empty location, or an empty
    admission id are rejected and tallied per reason, never silently dropped.
    Timestamps must all be naive or all carry a UTC offset; a row that
    differs from the first accepted row is tallied as "timezone". A missing
    declared column raises SchemaError.

    Rows read as csv.DictReader reads them: blank lines are skipped and not
    counted, a short row's missing fields are empty, and a column name
    repeated in the header means its last column. Equal admission ids and
    locations share one string object.
    """
    with _text_stream(source) as stream:
        reader = csv.reader(stream, delimiter=schema.delimiter)
        header = next(reader, None) or []
        for column in (schema.admission_column, schema.location_column, schema.timestamp_column):
            if column not in header:
                raise SchemaError(f"column {column!r} not in header {header}")
        position = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
        a_col = position[schema.admission_column]
        l_col = position[schema.location_column]
        t_col = position[schema.timestamp_column]
        width = max(a_col, l_col, t_col) + 1

        events: list[LocationEvent] = []
        stats = IngestStats()
        fmt = schema.timestamp_format
        parse_time = datetime.fromisoformat if fmt is None else lambda raw: datetime.strptime(raw, fmt)
        new_event = functools.partial(tuple.__new__, LocationEvent)  # skips the named tuple's Python __new__
        shared = {}.setdefault  # one string object per distinct admission id or location
        aware: bool | None = None
        rows_read = 0
        for row in reader:
            if not row:
                continue
            rows_read += 1
            if len(row) < width:
                row += [""] * (width - len(row))
            admission = row[a_col].strip()
            if not admission:
                stats.reject("admission_id")
                continue
            location = row[l_col].strip()
            if not location:
                stats.reject("location")
                continue
            try:
                timestamp = parse_time(row[t_col].strip())
            except ValueError:
                stats.reject("timestamp")
                continue
            # naive and offset-aware datetimes cannot be ordered against each other
            row_aware = timestamp.utcoffset() is not None
            if aware is None:
                aware = row_aware
            elif row_aware != aware:
                stats.reject("timezone")
                continue
            events.append(new_event((shared(admission, admission), shared(location, location),
                                     timestamp, rows_read)))
    stats.rows_read = rows_read
    return events, stats


def _first_of_runs(labels: list[str]) -> list[bool]:
    """True where a label differs from the one before it; the first always counts."""
    return [True, *map(operator.ne, labels[1:], labels)]


def reconstruct_journeys(events: Iterable[LocationEvent]) -> list[AdmissionJourney]:
    """Group events by admission and order them into journeys.

    Events within an admission are sorted by (timestamp, source_row);
    consecutive identical locations are merged keeping the earliest
    timestamp. Output is sorted by admission id for determinism.
    """
    admission = operator.itemgetter(0)
    order = operator.itemgetter(2, 3)  # (timestamp, source_row)
    journeys = []
    # a stable sort by admission id groups the events in C and keeps their input order
    for admission_id, group in groupby(sorted(events, key=admission), admission):
        _, locations, timestamps, _ = zip(*sorted(group, key=order))
        if not all(map(operator.ne, locations[1:], locations)):
            keep = _first_of_runs(locations)
            locations, timestamps = tuple(compress(locations, keep)), tuple(compress(timestamps, keep))
        journeys.append(AdmissionJourney(admission_id, locations, timestamps))
    return journeys


def apply_category_map(journeys: Iterable[AdmissionJourney], category_map: CategoryMap) -> list[AdmissionJourney]:
    """Relabel stops through the map, re-merging consecutive duplicates."""
    journeys = list(journeys)
    # each distinct stop resolved once, in order of first use, so a
    # reject-unknown map names the same unknown location a stop-by-stop pass would
    distinct = dict.fromkeys(chain.from_iterable(journey.stops for journey in journeys))
    label_of = {stop: category_map.resolve(stop) for stop in distinct}.__getitem__
    mapped = []
    for journey in journeys:
        labels = list(map(label_of, journey.stops))
        keep = _first_of_runs(labels)
        mapped.append(AdmissionJourney(journey.admission_id, tuple(compress(labels, keep)),
                                       tuple(compress(journey.times, keep))))
    return mapped


def read_category_map(source: IO | str, default_policy: str = KEEP_AS_IS, delimiter: str = ",") -> CategoryMap:
    """Load a two-column (location, category) file; a header row is skipped.

    A location listed again with the same category is accepted; with another
    category it is a ValueError.
    """
    entries: dict[str, str] = {}
    with _text_stream(source) as stream:
        for i, row in enumerate(csv.reader(stream, delimiter=delimiter)):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"category map row {i + 1} needs two columns: {row}")
            location, category = row[0].strip(), row[1].strip()
            if i == 0 and (location.lower(), category.lower()) == ("location", "category"):
                continue
            if entries.setdefault(location, category) != category:
                raise ValueError(f"category map lists {location!r} as both {entries[location]!r} and {category!r}")
    return CategoryMap(entries, default_policy)
