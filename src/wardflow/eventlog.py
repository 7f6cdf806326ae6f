"""Parse raw location-event logs and rebuild per-admission journeys."""
from __future__ import annotations

import csv
import io
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from itertools import compress
from typing import IO, Iterable, Iterator, Mapping

KEEP_AS_IS = "keep-as-is"
REJECT_UNKNOWN = "reject-unknown"


class SchemaError(ValueError):
    """A declared column is missing from the input header."""


class UnknownLocationError(ValueError):
    """A location has no category under a reject-unknown map."""


# admission id -> (locations, timestamps), both in input-row order
AdmissionEvents = dict[str, tuple[list[str], list[datetime]]]


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

    @classmethod
    def _unchecked(cls, admission_id: str, stops: tuple[str, ...], times: tuple[datetime, ...]) -> AdmissionJourney:
        """A journey whose caller guarantees what __post_init__ checks; the ingest builds them sorted and merged."""
        journey = object.__new__(cls)
        # attribute by attribute, as the dataclass __init__ sets them: touching
        # __dict__ would give every journey a dict of its own, about 140 bytes more
        object.__setattr__(journey, "admission_id", admission_id)
        object.__setattr__(journey, "stops", stops)
        object.__setattr__(journey, "times", times)
        return journey


@dataclass(frozen=True)
class LogSchema:
    """Column names and formats for a delimiter-separated event log."""

    admission_column: str = "admission_id"
    location_column: str = "location"
    timestamp_column: str = "timestamp"
    delimiter: str = ","
    timestamp_format: str | None = None  # None means ISO-8601

    def __post_init__(self):
        _check_delimiter(self.delimiter)


def _check_delimiter(delimiter: str) -> None:
    """csv takes a one-character delimiter only, and says so with a TypeError."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")


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


@contextmanager
def csv_rows(source: IO | str, kind: str, delimiter: str = ",") -> Iterator[Iterator[list[str]]]:
    """A csv.reader over `_text_stream(source)`.

    A csv.Error raised in the block, such as a field over the csv module's
    size limit or a bare carriage return in an unquoted field, becomes a
    ValueError that names the file kind and the line the reader reached.
    """
    with _text_stream(source) as stream:
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            yield reader
        except csv.Error as exc:
            message = str(exc)
            if message.startswith("new-line character seen in unquoted field"):
                # the csv module suggests universal-newline mode, which would split the field instead
                message = "carriage return inside an unquoted field; a field that holds one must be quoted"
            raise ValueError(f"{kind} line {reader.line_num}: {message}") from exc


def parse_event_log(source: IO | str, schema: LogSchema = LogSchema()) -> tuple[AdmissionEvents, IngestStats]:
    """Read a delimited event log with a header row, grouping its events by admission.

    Returns a dict from admission id to (locations, timestamps): two lists
    in input-row order. Rows with an unparseable timestamp, an empty
    location, or an empty admission id are rejected and tallied per reason,
    never silently dropped. Timestamps must all be naive or all carry a UTC
    offset; a row that differs from the first accepted row is tallied as
    "timezone". A missing declared column raises SchemaError.

    Rows read as csv.DictReader reads them: blank lines are skipped and not
    counted, a short row's missing fields are empty, and a column name
    repeated in the header means its last column. Equal locations share one
    string object.
    """
    with csv_rows(source, "event log", schema.delimiter) as reader:
        header = next(reader, None) or []
        for column in (schema.admission_column, schema.location_column, schema.timestamp_column):
            if column not in header:
                raise SchemaError(f"column {column!r} not in header {header}")
        position = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
        a_col = position[schema.admission_column]
        l_col = position[schema.location_column]
        t_col = position[schema.timestamp_column]
        width = max(a_col, l_col, t_col) + 1

        groups: AdmissionEvents = {}
        stats = IngestStats()
        fmt = schema.timestamp_format
        parse_time = datetime.fromisoformat if fmt is None else lambda raw: datetime.strptime(raw, fmt)
        shared = {}.setdefault  # one string object per distinct location
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
            group = groups.get(admission)
            if group is None:
                group = groups[admission] = ([], [])
            group[0].append(shared(location, location))
            group[1].append(timestamp)
    stats.rows_read = rows_read
    return groups, stats


def _first_of_runs(labels: list[str]) -> list[bool]:
    """True where a label differs from the one before it; the first always counts."""
    return [True, *map(operator.ne, labels[1:], labels)]


def reconstruct_journeys(groups: AdmissionEvents) -> Iterator[AdmissionJourney]:
    """Order each admission's events into a journey; returns an iterator that empties `groups`.

    Events within an admission are sorted by timestamp, equal timestamps in
    input-row order; consecutive identical locations are merged keeping the
    earliest timestamp. Journeys come out in admission-id order for
    determinism. Each admission is removed from `groups` as the iterator
    reaches it, so its lists are freed as its journey is handed on, and
    `groups` is empty once the iterator is exhausted.
    """
    for admission_id in sorted(groups):
        locations, timestamps = groups.pop(admission_id)
        if not all(map(operator.le, timestamps, timestamps[1:])):
            # a stable sort, so equal timestamps keep input-row order
            order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
            locations, timestamps = [locations[i] for i in order], [timestamps[i] for i in order]
        if not all(map(operator.ne, locations[1:], locations)):
            keep = _first_of_runs(locations)
            locations, timestamps = compress(locations, keep), compress(timestamps, keep)
        yield AdmissionJourney._unchecked(admission_id, tuple(locations), tuple(timestamps))


class _ResolvedOnFirstUse(dict):
    """location -> label; a location is resolved through `resolve` the first time it is looked up."""

    __slots__ = ("resolve",)

    def __init__(self, resolve):
        super().__init__()
        self.resolve = resolve

    def __missing__(self, location: str) -> str:
        label = self[location] = self.resolve(location)
        return label


def apply_category_map(journeys: Iterable[AdmissionJourney], category_map: CategoryMap) -> Iterator[AdmissionJourney]:
    """Relabel stops through the map, re-merging consecutive duplicates; returns an iterator.

    Each journey is mapped as it is pulled. Each distinct stop is resolved
    once, on first use in journey order, so a reject-unknown map raises
    UnknownLocationError for the first unknown stop of the first journey
    that has one, when that journey is pulled.
    """
    label_of = _ResolvedOnFirstUse(category_map.resolve).__getitem__  # dict lookups in C after the first
    for journey in journeys:
        labels = list(map(label_of, journey.stops))
        keep = _first_of_runs(labels)
        yield AdmissionJourney._unchecked(journey.admission_id, tuple(compress(labels, keep)),
                                          tuple(compress(journey.times, keep)))


def read_category_map(source: IO | str, default_policy: str = KEEP_AS_IS, delimiter: str = ",") -> CategoryMap:
    """Load a two-column (location, category) file; a header row is skipped.

    Blank rows are skipped, and the first other row is the header if it
    reads `location,category`. A row with an empty location is a ValueError,
    since no log location is empty. A location listed again with the same
    category is accepted; with another category it is a ValueError.
    """
    _check_delimiter(delimiter)
    entries: dict[str, str] = {}
    first = True
    with csv_rows(source, "category map", delimiter) as reader:
        for i, row in enumerate(reader):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"category map row {i + 1} needs two columns: {row}")
            location, category = row[0].strip(), row[1].strip()
            if first:
                first = False
                if (location.lower(), category.lower()) == ("location", "category"):
                    continue
            if not location:
                raise ValueError(f"category map row {i + 1} has an empty location: {row}")
            if entries.setdefault(location, category) != category:
                raise ValueError(f"category map lists {location!r} as both {entries[location]!r} and {category!r}")
    return CategoryMap(entries, default_policy)
