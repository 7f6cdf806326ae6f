"""Parse raw location-event logs and rebuild per-admission journeys."""
from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from typing import IO, Iterable, Iterator, Mapping

KEEP_AS_IS = "keep-as-is"
REJECT_UNKNOWN = "reject-unknown"


class SchemaError(ValueError):
    """A declared column is missing from the input header."""


class UnknownLocationError(ValueError):
    """A location has no category under a reject-unknown map."""


@dataclass(frozen=True)
class LocationEvent:
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
        for a, b in zip(self.times, self.times[1:]):
            if b < a:
                raise ValueError(f"times not non-decreasing in {self.admission_id!r}")
        for a, b in zip(self.stops, self.stops[1:]):
            if a == b:
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
    """A text stream over a path or an open file; a path is closed on exit.

    Bytes decode as UTF-8 with an optional byte-order mark.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8-sig", newline="") as stream:
            yield stream
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        data = source.read()
        yield io.StringIO(data.decode("utf-8-sig") if isinstance(data, bytes) else data)


def _parse_timestamp(raw: str, fmt: str | None) -> datetime:
    if fmt is None:
        return datetime.fromisoformat(raw)
    return datetime.strptime(raw, fmt)


def parse_event_log(source: IO | str, schema: LogSchema = LogSchema()) -> tuple[list[LocationEvent], IngestStats]:
    """Read a delimited event log with a header row into LocationEvents.

    Rows with an unparseable timestamp, an empty location, or an empty
    admission id are rejected and tallied per reason, never silently dropped.
    Timestamps must all be naive or all carry a UTC offset; a row that
    differs from the first accepted row is tallied as "timezone". A missing
    declared column raises SchemaError.
    """
    with _text_stream(source) as stream:
        reader = csv.DictReader(stream, delimiter=schema.delimiter)
        header = reader.fieldnames or []
        for column in (schema.admission_column, schema.location_column, schema.timestamp_column):
            if column not in header:
                raise SchemaError(f"column {column!r} not in header {header}")

        events: list[LocationEvent] = []
        stats = IngestStats()
        aware: bool | None = None
        for row in reader:
            stats.rows_read += 1
            admission = (row.get(schema.admission_column) or "").strip()
            if not admission:
                stats.reject("admission_id")
                continue
            location = (row.get(schema.location_column) or "").strip()
            if not location:
                stats.reject("location")
                continue
            raw_ts = (row.get(schema.timestamp_column) or "").strip()
            try:
                timestamp = _parse_timestamp(raw_ts, schema.timestamp_format)
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
            events.append(LocationEvent(admission, location, timestamp, source_row=stats.rows_read))
    return events, stats


def reconstruct_journeys(events: Iterable[LocationEvent]) -> list[AdmissionJourney]:
    """Group events by admission and order them into journeys.

    Events within an admission are sorted by (timestamp, source_row);
    consecutive identical locations are merged keeping the earliest
    timestamp. Output is sorted by admission id for determinism.
    """
    by_admission: dict[str, list[LocationEvent]] = {}
    for event in events:
        by_admission.setdefault(event.admission_id, []).append(event)

    journeys = []
    for admission_id in sorted(by_admission):
        ordered = sorted(by_admission[admission_id], key=lambda e: (e.timestamp, e.source_row))
        stops: list[str] = []
        times: list[datetime] = []
        for event in ordered:
            if stops and stops[-1] == event.location:
                continue
            stops.append(event.location)
            times.append(event.timestamp)
        journeys.append(AdmissionJourney(admission_id, tuple(stops), tuple(times)))
    return journeys


def apply_category_map(journeys: Iterable[AdmissionJourney], category_map: CategoryMap) -> list[AdmissionJourney]:
    """Relabel stops through the map, re-merging consecutive duplicates."""
    mapped = []
    for journey in journeys:
        stops: list[str] = []
        times: list[datetime] = []
        for stop, time in zip(journey.stops, journey.times):
            label = category_map.resolve(stop)
            if stops and stops[-1] == label:
                continue
            stops.append(label)
            times.append(time)
        mapped.append(AdmissionJourney(journey.admission_id, tuple(stops), tuple(times)))
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
