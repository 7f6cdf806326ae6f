"""Command-line interface: build, analyze, synth, and export.

`main` parses the command line, checks it before any input is read, and
runs the command; it alone turns a `_UsageError` or `_InputError` that the
check or the command raises into one stderr line and an exit code.

Each command loads what it runs: the analysis modules and `synth` are
registered lazily by the package, so numpy and scipy load when `analyze`
or `synth` first calls into them, and `--version`, `build` and `export`
load neither.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from . import SECTIONS, __version__, metrics as metrics_mod, report as report_mod, synth as synth_mod
from .eventlog import (
    KEEP_AS_IS,
    REJECT_UNKNOWN,
    LogSchema,
    apply_category_map,
    parse_event_log,
    read_category_map,
    reconstruct_journeys,
)
from .network import TransferNetwork, build_network, export_network, import_network, network_format

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ANALYSIS = 3

_FORMATS = ("graphml", "dot", "edgelist")
_NETWORK_HELP = "GraphML or from,to,weight edge list, told apart by the file's first bytes"
_MODEL_FAMILIES = {
    "ba": "preferential-attachment",
    "ws": "ring-rewire",
    "er": "uniform-random",
    "config": "configuration",
}


class _UsageError(Exception):
    """A command line the command cannot run as given, or an output it cannot write: exit 1."""


class _InputError(Exception):
    """An input that cannot be read, parsed or generated: exit 2."""


@contextlib.contextmanager
def _reading_input():
    """Raise an OSError or ValueError met while reading, parsing or generating the input as an `_InputError`."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _InputError(exc) from exc


@contextlib.contextmanager
def _writing_output():
    """Raise an OSError met while writing the output as a `_UsageError`: the path argument is at fault."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write output: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _schema_from_args(args) -> LogSchema:
    return LogSchema(
        admission_column=args.admission_col,
        location_column=args.location_col,
        timestamp_column=args.timestamp_col,
        delimiter=args.delimiter,
        timestamp_format=args.timestamp_format,
    )


def _delimiter(text: str) -> str:
    try:
        LogSchema(delimiter=text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _names(text: str) -> list[str]:
    return [token for token in text.split(",") if token]


def _degrees(text: str) -> tuple[int, ...] | None:
    try:
        return tuple(int(token) for token in text.split(",") if token) or None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


# the event-log options by destination, with their defaults
_LOG_DEFAULTS = {
    "admission_col": "admission_id",
    "location_col": "location",
    "timestamp_col": "timestamp",
    "delimiter": ",",
    "timestamp_format": None,
    "categories": None,
    "category_policy": KEEP_AS_IS,
}


def _add_log_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--admission-col")
    parser.add_argument("--location-col")
    parser.add_argument("--timestamp-col")
    parser.add_argument("--delimiter", type=_delimiter)
    parser.add_argument("--timestamp-format", help="strptime format; default ISO-8601")
    parser.add_argument("--categories", help="two-column location,category file")
    parser.add_argument("--category-policy", choices=[KEEP_AS_IS, REJECT_UNKNOWN])
    parser.set_defaults(**_LOG_DEFAULTS)


def _network_from_log(path: str, args) -> tuple:
    """The network of an event log and its ingest tally, with the cyclic garbage collector paused.

    The category map is read first, so a bad map is reported before the log
    is parsed. The log is parsed a block at a time, and a plain block (no
    quote, no carriage return but in a CRLF, every line as wide as the
    header) is split and converted a column at a time without csv.reader
    (`eventlog.parse_event_log`). The journeys are streamed: one is built, mapped and counted into the network
    before the next is made. The ingest makes no reference cycles, but it
    allocates tracked containers all along: two lists per admission and a
    few per block while parsing, then a journey and its tuples per
    admission. Left running, the collector would rescan them again and
    again. The pause ends with one full collection, which finds no garbage
    but clears CPython's free lists: the freed journey tuples parked there
    pin otherwise empty pymalloc arenas, and once cleared the arenas go back
    to the operating system before `analyze` loads numpy and scipy. The
    caller's collector state comes back on return and on error alike.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        category_map = None
        if args.categories:
            category_map = read_category_map(args.categories, default_policy=args.category_policy,
                                             delimiter=args.delimiter)
        groups, stats = parse_event_log(path, _schema_from_args(args))
        journeys = reconstruct_journeys(groups)
        if category_map is not None:
            journeys = apply_category_map(journeys, category_map)
        return build_network(journeys), stats
    finally:
        gc.collect()
        if enabled:
            gc.enable()


def _file_digest(paths: list[str]) -> str:
    """sha256 hex digest of the concatenated bytes of the files, read in blocks."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def _check_destination(path: str, makes_dirs: bool) -> None:
    """Raise, before any input is read, the OSError that writing the output to `path` would meet.

    `path` is an `-o` file, whose directory must exist, or a `--sidecar-dir`
    directory, made with its missing parents. The nearest existing path at
    or above `path` decides: it must be a directory unless it is an `-o` file
    itself, and this process must be able to write to it.
    """
    target = Path(path)
    existing = next(parent for parent in (target, *target.parents) if parent.exists())
    if existing != target and not existing.is_dir():
        code = errno.ENOTDIR
    elif existing == target and existing.is_dir() != makes_dirs:
        code = errno.EEXIST if makes_dirs else errno.EISDIR
    elif not makes_dirs and existing not in (target, target.parent):
        code = errno.ENOENT
    elif not os.access(existing, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _flags(names: list[str]) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _check_usage(args) -> None:
    """Raise a `_UsageError`, before any input is read, for a command line the command cannot run.

    That is an output it could not write, an option its input cannot use
    (a log option counts as given when it differs from its default), or an
    `analyze` option out of range; `analyze` gets its `AnalysisOptions` here,
    as `args.options`. Whether a network file takes --undirected depends on
    its format, so `_read_network` decides that from the file's bytes.
    """
    for option, path, makes_dirs in (("-o/--output", getattr(args, "output", None), False),
                                     ("--sidecar-dir", getattr(args, "sidecar_dir", None), True)):
        if path == "":
            raise _UsageError(f"{option} needs a path, got an empty one")
        if path is not None and (makes_dirs or path != "-"):  # `-o -` is stdout
            with _writing_output():
                _check_destination(path, makes_dirs)
    if args.command != "analyze":
        return
    if args.from_log and args.undirected:
        raise _UsageError("an event log read with --from-log does not take --undirected")
    given = [name for name, default in _LOG_DEFAULTS.items() if getattr(args, name) != default]
    if given and not args.from_log:
        raise _UsageError(f"only an event log read with --from-log takes {_flags(given)}")
    # argparse holds only the options given; an empty --attack or --skip counts as not given
    names = {field.name for field in dataclasses.fields(report_mod.AnalysisOptions)}
    try:
        args.options = report_mod.AnalysisOptions(
            **{name: value for name, value in vars(args).items() if name in names and value != []})
    except ValueError as exc:
        raise _UsageError(exc) from exc
    # a sidecar directory that is there may already hold a name the run will write, as a directory
    if args.sidecar_dir is not None and Path(args.sidecar_dir).is_dir():
        with _writing_output():
            for name in _sidecar_names(args.options):
                _check_destination(os.path.join(args.sidecar_dir, name), makes_dirs=False)


def _write_output(payload: bytes, destination: str | None) -> None:
    if destination is None or destination == "-":
        sys.stdout.buffer.write(payload)
        return
    with _writing_output():
        Path(destination).write_bytes(payload)


def cmd_build(args) -> int:
    with _reading_input():
        net, stats = _network_from_log(args.log, args)
        payload = export_network(net, args.format)
    print(
        f"rows read: {stats.rows_read}, rejected: {stats.rows_rejected} {dict(sorted(stats.rejections.items()))}",
        file=sys.stderr,
    )
    _write_output(payload, args.output)
    return EXIT_OK


def _read_network(args) -> tuple[TransferNetwork, bytes]:
    """The network of the network file that `analyze` or `export` reads, and the file's bytes.

    The format is read from the bytes (`network_format`), not from the file
    name. A GraphML document takes its direction from its edgedefault, so
    --undirected with one is a usage error before it is parsed.
    """
    data = Path(args.network).read_bytes()
    fmt = network_format(data)
    if fmt == "graphml" and args.undirected:
        raise _UsageError("a GraphML input does not take --undirected: its edgedefault sets the direction")
    return import_network(data, fmt, directed=not args.undirected), data


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sidecar_names(options) -> list[str]:
    """The files that `_write_sidecars` may write for an analysis with these options."""
    attacks = () if "resilience" in options.skip else options.attack_strategies
    return ["degree_distribution.csv", "knn_curve.csv", *(f"attack_{strategy}.csv" for strategy in attacks)]


def _write_sidecars(report: dict, net: TransferNetwork, directory: str) -> None:
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    metrics = report.get("network_metrics") or {}
    distribution = metrics.get("degree_distribution") or {}
    _write_csv(base / "degree_distribution.csv", ["degree", "probability"],
               ([k, distribution[k]] for k in sorted(distribution, key=int)))
    _, curve = metrics_mod.knn(net)  # by projected degree, the curve `fits.knn_degree` fits
    _write_csv(base / "knn_curve.csv", ["degree", "mean_knn_weighted"], curve.items())
    columns = ["fraction_removed", "wcc_fraction", "scc_fraction", "efficiency"]
    for strategy, attack in (report.get("resilience") or {}).items():
        _write_csv(base / f"attack_{strategy}.csv", columns,
                   ([step[column] for column in columns] for step in attack["steps"]))


def cmd_analyze(args) -> int:
    with _reading_input():
        if args.from_log:
            net, stats = _network_from_log(args.network, args)
            digest = _file_digest([args.network] + ([args.categories] if args.categories else []))
        else:
            net, data = _read_network(args)
            stats, digest = None, hashlib.sha256(data).hexdigest()
    report = report_mod.build_report(net, args.options, ingest=stats, digest=digest)
    if args.sidecar_dir is not None:
        with _writing_output():
            _write_sidecars(report, net, args.sidecar_dir)
    text = json.dumps(report, indent=2, allow_nan=False)
    print(text)
    return EXIT_ANALYSIS if report.get("all_sections_failed") else EXIT_OK


def cmd_synth(args) -> int:
    family = _MODEL_FAMILIES[args.model]
    with _reading_input():
        spec = synth_mod.ModelSpec(family=family, n=args.n, seed=args.seed, m=args.m, k=args.k,
                                   p=args.p, degrees=args.degrees)
        net = synth_mod.generate_network(spec)
        journeys, stats = synth_mod.generate_event_log(
            net, args.journeys, synth_mod.geometric_stop_lengths(args.mean_stops), seed=args.seed
        )
    buffer = io.StringIO()
    synth_mod.write_event_log_csv(journeys, buffer)
    print(f"journeys: {len(journeys)}, truncated: {stats.truncated_journeys}", file=sys.stderr)
    _write_output(buffer.getvalue().encode("utf-8"), args.output)
    return EXIT_OK


def cmd_export(args) -> int:
    with _reading_input():
        net, _ = _read_network(args)
        payload = export_network(net, args.to)
    _write_output(payload, args.output)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="wardflow", description="Transfer-network analysis of location event logs")
    parser.add_argument("--version", action="version", version=f"wardflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="event log CSV -> network file")
    build.add_argument("log")
    _add_log_options(build)
    build.add_argument("--format", choices=_FORMATS, default="graphml")
    build.add_argument("-o", "--output", default=None)
    build.set_defaults(func=cmd_build)

    # the analysis options carry no defaults here: AnalysisOptions holds them, and their checks
    analyze = sub.add_parser("analyze", help="network file -> JSON report on stdout",
                             argument_default=argparse.SUPPRESS)
    analyze.add_argument("network", help=_NETWORK_HELP + "; an event log CSV with --from-log")
    analyze.add_argument("--from-log", action="store_true", default=False, help="treat the input as an event log CSV")
    _add_log_options(analyze)
    analyze.add_argument("--undirected", action="store_true", default=False, help="edge-list input is undirected")
    analyze.add_argument("--quantile", type=float)
    analyze.add_argument("--role-threshold-sd", type=float)
    analyze.add_argument("--boot", type=int)
    analyze.add_argument("--seed", type=int)
    analyze.add_argument("--sw-samples", type=int)
    analyze.add_argument("--sw-swaps", type=int)
    analyze.add_argument("--sw-lattice-swaps", type=int)
    analyze.add_argument("--attack", dest="attack_strategies", type=_names, action="extend",
                         help="comma-separated strategies: degree, betweenness, random")
    analyze.add_argument("--attack-step", type=float)
    analyze.add_argument("--skip", type=_names, action="extend",
                         help=f"comma-separated sections: {', '.join(SECTIONS)}")
    analyze.add_argument("--weighted-betweenness", action="store_true")
    analyze.add_argument("--sidecar-dir", default=None, help="write plot-ready curve CSVs here")
    analyze.set_defaults(func=cmd_analyze)

    synth = sub.add_parser("synth", help="generate a synthetic event log CSV")
    synth.add_argument("--model", choices=sorted(_MODEL_FAMILIES), required=True)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--m", type=int, default=None)
    synth.add_argument("--k", type=int, default=None)
    synth.add_argument("--p", type=float, default=None)
    synth.add_argument("--degrees", type=_degrees, default=None, help="comma-separated degree sequence")
    synth.add_argument("--journeys", type=int, required=True)
    synth.add_argument("--mean-stops", type=float, default=14.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("-o", "--output", default=None)
    synth.set_defaults(func=cmd_synth)

    export = sub.add_parser("export", help="convert a network file between formats")
    export.add_argument("network", help=_NETWORK_HELP)
    export.add_argument("--undirected", action="store_true")
    export.add_argument("--to", choices=_FORMATS, required=True)
    export.add_argument("-o", "--output", default=None)
    export.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth" and args.seed < 0:
            parser.error(f"seed must be >= 0, got {args.seed}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_usage(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
