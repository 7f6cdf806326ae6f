"""Parse raw location-event logs and rebuild per-admission journeys."""
from __future__ import annotations

import csv
import io
import operator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
from itertools import chain, compress, islice
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


def _csv_error(kind: str, line: int, exc: csv.Error) -> ValueError:
    """The ValueError for a csv.Error met at a line of a file of the given kind."""
    message = str(exc)
    if message.startswith("new-line character seen in unquoted field"):
        # the csv module suggests universal-newline mode, which would split the field instead
        message = "carriage return inside an unquoted field; a field that holds one must be quoted"
    return ValueError(f"{kind} line {line}: {message}")


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
            raise _csv_error(kind, reader.line_num, exc) from exc


# Characters asked of the stream per block of the event log. Parsing the 1.24M-row
# ingest-5x log in process, 64 KiB blocks were the fastest of 16 KiB to 256 KiB;
# 1 MiB blocks took a median 0.87 s instead of 0.67 s and raised the peak RSS
# from 115 to 134 MB (6 fresh processes each).
_BLOCK_CHARS = 1 << 16
# the ASCII whitespace that str.strip removes, less the newline and the carriage
# return, which no field of a plain block holds: an ASCII block without any of
# these has no field that strip would change. Not stripping such a block took the
# in-process parse of ingest-5x from a median 0.72 s to 0.63 s (10 runs each).
_ASCII_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _blocks(stream: IO[str], opened_here: bool) -> Iterator[tuple[str | None, Iterable[str]]]:
    """(text, lines) of the rest of the stream, about _BLOCK_CHARS characters at a time, each ending where a line ends.

    `lines` are the block's lines as the stream splits them, for csv.reader.
    `text` is the block's text, or None when a caller's stream has split it
    into other lines than the newline-ended ones `_Ingest.plain_block`
    takes. A stream opened here (newline="") is read in fixed blocks, each
    completed to the end of its last line, since a plain block needs no
    lines: read that way the ingest-5x log took 0.015 s, and 0.11 s with
    readlines. A caller's text stream is read in whole lines, since its
    newline mode decides where they end.
    """
    if opened_here:
        for text in iter(partial(stream.read, _BLOCK_CHARS), ""):
            if text[-1] != "\n":
                text += stream.readline()
            yield text, io.StringIO(text, newline="")
    else:
        for lines in iter(partial(stream.readlines, _BLOCK_CHARS), []):
            text = "".join(lines)
            yield (text if len(lines) == text.count("\n") else None), lines


class _Ingest:
    """The events of one log grouped by admission, with its tallies and timezone rule, taken a block at a time."""

    def __init__(self, header: list[str], schema: LogSchema):
        for column in (schema.admission_column, schema.location_column, schema.timestamp_column):
            if column not in header:
                raise SchemaError(f"column {column!r} not in header {header}")
        position = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
        self.columns = (position[schema.admission_column], position[schema.location_column],
                        position[schema.timestamp_column])
        self.fields = len(header)
        self.delimiter = schema.delimiter
        # a blank line, which csv.reader skips, splits into one empty field: a row of a one-column header
        self.splittable = self.fields > 1 and self.delimiter not in '"\r\n'
        self.field_limit = csv.field_size_limit()
        fmt = schema.timestamp_format
        self.parse_time = datetime.fromisoformat if fmt is None else lambda raw: datetime.strptime(raw, fmt)
        self.shared = {}.setdefault  # one string object per distinct location
        self.groups: AdmissionEvents = {}
        self.stats = IngestStats()
        self.aware: bool | None = None  # set by the first accepted row

    def rows(self, rows: Iterable[list[str]]) -> None:
        """Take rows one at a time, as csv.reader gives them."""
        a_col, l_col, t_col = self.columns
        width = max(self.columns) + 1
        groups, stats, parse_time, shared = self.groups, self.stats, self.parse_time, self.shared
        aware = self.aware
        rows_read = 0
        for row in rows:
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
        self.aware = aware
        stats.rows_read += rows_read

    def plain_block(self, text: str | None) -> int:
        """Take a block by splitting it, without the csv module; its number of lines, 0 if it is not plain.

        The block is plain when it holds no quote, each line ends at its
        one newline or CRLF, with no other carriage return, and has exactly
        the header's number of fields, none longer than
        csv.field_size_limit(): csv.reader would split it the same way. Its
        columns are then converted whole (the fields are stripped only if
        the block holds whitespace besides its line ends), and each run of
        equal admission ids joins its group as one slice. A block that
        holds a row to reject goes through `rows`, so the tallies and the
        first accepted row's timezone rule stay exact.
        """
        if not self.splittable or not text or '"' in text or text[-1] != "\n":
            return 0
        if "\r" in text:
            text = text.replace("\r\n", "\n")  # csv.reader ends a line at CRLF as at a newline
            if "\r" in text:
                return 0
        n = text.count("\n")
        d, k = self.delimiter, self.fields
        # each newline becomes an item of its own, so the lines hold k fields each
        # exactly when every (k + 1)-th item is a newline
        items = text.replace("\n", d + "\n" + d).split(d)
        stop = len(items) - 1  # the last item is the empty one after the last newline
        if stop != n * (k + 1) or items[k::k + 1].count("\n") != n:
            return 0
        if len(text) > self.field_limit and max(map(len, items)) > self.field_limit:
            return 0
        columns = [items[column:stop:k + 1] for column in self.columns]
        if not text.isascii() or any(map(text.__contains__, _ASCII_SPACES)):
            columns = [list(map(str.strip, column)) for column in columns]
        admissions, locations, stamps = columns
        times = None
        if "" not in admissions and "" not in locations:
            try:
                times = list(map(self.parse_time, stamps))
            except ValueError:
                pass
        if times is not None:
            naive = list(map(datetime.utcoffset, times)).count(None)
            aware = naive == 0
            if naive not in (0, n) or self.aware not in (None, aware):
                times = None
        if times is None:
            self.rows([items[i:i + k] for i in range(0, stop, k + 1)])
            return n
        self.aware = aware
        self.stats.rows_read += n
        locations = list(map(self.shared, locations, locations))
        groups = self.groups
        starts = [0, *compress(range(1, n), map(operator.ne, admissions[1:], admissions))]
        for start, end in zip(starts, [*starts[1:], n]):
            group = groups.get(admissions[start])
            if group is None:
                groups[admissions[start]] = (locations[start:end], times[start:end])
            else:
                group[0].extend(locations[start:end])
                group[1].extend(times[start:end])
        return n


def _undecodable_byte(source: IO[bytes] | str, start: int, exc: UnicodeDecodeError) -> ValueError:
    """The ValueError for the log's first byte from `start` that is not UTF-8, naming its line and file offset.

    The decoder names a position in its own chunk, so the log is read again
    as bytes, a line at a time: UTF-8 puts no line end inside a character.
    """
    with open(source, "rb") if isinstance(source, str) else nullcontext(source) as handle:
        handle.seek(start)
        offset = start
        lines = chain.from_iterable(raw.splitlines(keepends=True) for raw in handle)  # ended as csv.reader ends them
        for number, line in enumerate(lines, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as error:
                return ValueError(f"event log line {number}: byte 0x{line[error.start]:02x} at offset "
                                  f"{offset + error.start} of the file is not UTF-8 ({error.reason})")
            offset += len(line)
    return ValueError(f"event log: {exc}")  # the log changed since it was read


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

    The log is read a block of about _BLOCK_CHARS characters at a time,
    each block ending where a line ends. A plain block is split without
    the csv module (`_Ingest.plain_block`). Any other block goes through
    csv.reader, as many rows as it has lines, so the reader ends at the end
    of a row even when a quoted field runs on past the block, and the block
    after those rows is again tried as plain. A csv.Error becomes a
    ValueError that names the line, counted over the whole log, as
    `csv_rows` names it; a byte that is not UTF-8 in a path or a seekable
    binary handle, one that names its line and its offset in the file.
    """
    # where a path or a seekable binary handle starts, to find an undecodable byte again
    start = 0 if isinstance(source, str) else None
    if start is None and not isinstance(source, io.TextIOBase) and source.seekable():
        start = source.tell()
    with _text_stream(source) as stream:
        reader = csv.reader(stream, delimiter=schema.delimiter)
        line_base = 0  # lines of the log before the reader's first
        try:
            ingest = _Ingest(next(reader, None) or [], schema)
            line_base = reader.line_num
            for text, lines in _blocks(stream, not isinstance(source, io.TextIOBase)):
                if taken := ingest.plain_block(text):
                    line_base += taken
                    continue
                # as many rows as the block has lines: each row takes a line or more, so the
                # reader takes the whole block, and rows past it when a quoted field holds a
                # line end, to the end of a row
                lines = list(lines)
                reader = csv.reader(chain(lines, stream), delimiter=schema.delimiter)
                ingest.rows(islice(reader, len(lines)))
                line_base += reader.line_num
        except csv.Error as exc:
            raise _csv_error("event log", line_base + reader.line_num, exc) from exc
        except UnicodeDecodeError as exc:
            if start is None:
                raise
            raise _undecodable_byte(source, start, exc) from exc
    return ingest.groups, ingest.stats


def reconstruct_journeys(groups: AdmissionEvents) -> Iterator[AdmissionJourney]:
    """Order each admission's events into a journey; returns an iterator that empties `groups`.

    Events within an admission are sorted by timestamp, equal timestamps in
    input-row order; consecutive identical locations are merged keeping the
    earliest timestamp; after `apply_category_map`, that merges stays of one
    category. Journeys come out in admission-id order for determinism. Each
    admission is removed from `groups` as the iterator reaches it, so its
    lists are freed as its journey is handed on, and `groups` is empty once
    the iterator is exhausted.
    """
    for admission_id in sorted(groups):
        locations, timestamps = groups.pop(admission_id)
        if not all(map(operator.le, timestamps, timestamps[1:])):
            # a stable sort, so equal timestamps keep input-row order
            order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
            locations, timestamps = [locations[i] for i in order], [timestamps[i] for i in order]
        if not all(map(operator.ne, locations[1:], locations)):
            keep = [True, *map(operator.ne, locations[1:], locations)]  # the first stay of each run
            locations, timestamps = compress(locations, keep), compress(timestamps, keep)
        yield AdmissionJourney._unchecked(admission_id, tuple(locations), tuple(timestamps))


def apply_category_map(groups: AdmissionEvents, category_map: CategoryMap) -> None:
    """Relabel each admission's location list through the map, in place; the timestamps stay as they are.

    Each distinct location is resolved once, so a reject-unknown map raises
    UnknownLocationError for the first unknown location in grouped order
    (admissions in the order of their first accepted row, then each
    admission's rows in log order) before any list is changed. Stays that
    now share a category merge in `reconstruct_journeys`.
    """
    distinct = dict.fromkeys(chain.from_iterable(locations for locations, _ in groups.values()))
    label_of = {location: category_map.resolve(location) for location in distinct}.__getitem__
    for locations, _ in groups.values():
        locations[:] = map(label_of, locations)


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
