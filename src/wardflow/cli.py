"""Command-line interface: build, analyze, synth, and export.

Each command loads what it runs: the analysis modules and `synth` are
registered lazily by the package, so numpy and scipy load when `analyze`
or `synth` first calls into them, and `--version`, `build` and `export`
load neither.
"""
from __future__ import annotations

import argparse
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
from .network import TransferNetwork, build_network, export_network, import_network

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ANALYSIS = 3

_FORMATS = ("graphml", "dot", "edgelist")
_MODEL_FAMILIES = {
    "ba": "preferential-attachment",
    "ws": "ring-rewire",
    "er": "uniform-random",
    "config": "configuration",
}


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

    The category map is read first, so a bad map is reported before the
    log is parsed. The journeys are streamed: one is built, mapped and
    counted into the network before the next is made. The ingest makes no
    reference cycles, but it allocates tracked containers all along: two
    lists per admission while parsing, then a journey and its tuples per
    admission. Left running, the collector would rescan them again and
    again. The pause ends with one full collection, which finds no
    garbage but clears CPython's free lists: the freed journey tuples
    parked there pin otherwise empty pymalloc arenas, and once cleared the
    arenas go back to the operating system before `analyze` loads numpy
    and scipy. The caller's collector state comes back on return and on
    error alike.
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


def _output_error(exc: OSError) -> int:
    """Report a path the command could not write; the bad path argument is a usage error."""
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _check_destinations(args) -> None:
    """Raise, before any input is read, the OSError that writing the command's output would meet.

    That is an `-o` file whose directory is missing, an `-o` that names an
    existing directory, or a `--sidecar-dir` that names an existing file.
    An empty path for either option is a ValueError that names the option.
    """
    output = getattr(args, "output", None)
    sidecars = getattr(args, "sidecar_dir", None)
    for option, path in (("-o/--output", output), ("--sidecar-dir", sidecars)):
        if path == "":
            raise ValueError(f"{option} needs a path, got an empty one")
    if output not in (None, "-"):
        if not Path(output).parent.is_dir():
            code = errno.ENOTDIR if Path(output).parent.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), output)
        if Path(output).is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), output)
    if sidecars is not None and Path(sidecars).exists() and not Path(sidecars).is_dir():
        raise OSError(errno.EEXIST, os.strerror(errno.EEXIST), sidecars)


def _flags(names: list[str]) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _check_input_options(args) -> None:
    """Raise a ValueError, before any input is read, for an option the command's input cannot use.

    `analyze` reads the event-log options only with --from-log, and --format
    and --undirected only without it; a log option counts as given when it
    differs from its default. A GraphML input takes its direction from its
    edgedefault, so `analyze` and `export` refuse --undirected for one.
    """
    if args.command == "analyze" and args.from_log:
        given = [name for name in ("format", "undirected") if getattr(args, name)]
        if given:
            raise ValueError(f"an event log read with --from-log does not take {_flags(given)}")
        return
    if args.command == "analyze":
        given = [name for name, default in _LOG_DEFAULTS.items() if getattr(args, name) != default]
        if given:
            raise ValueError(f"only an event log read with --from-log takes {_flags(given)}")
    if args.command in ("analyze", "export") and args.undirected and _input_format(args) == "graphml":
        raise ValueError("a GraphML input does not take --undirected: its edgedefault sets the direction")


def _write_output(payload: bytes, destination: str | None) -> int:
    if destination is None or destination == "-":
        sys.stdout.buffer.write(payload)
        return EXIT_OK
    try:
        Path(destination).write_bytes(payload)
    except OSError as exc:
        return _output_error(exc)
    return EXIT_OK


def cmd_build(args) -> int:
    try:
        net, stats = _network_from_log(args.log, args)
        payload = export_network(net, args.format)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(
        f"rows read: {stats.rows_read}, rejected: {stats.rows_rejected} {dict(sorted(stats.rejections.items()))}",
        file=sys.stderr,
    )
    return _write_output(payload, args.output)


def _input_format(args) -> str:
    """The format of a network input: the one given, else `.csv` is an edge list and anything else GraphML."""
    return args.format or ("edgelist" if Path(args.network).suffix.lower() == ".csv" else "graphml")


def _load_network(args):
    """The network, its ingest tally (None for network files), and the digest of every input file."""
    if args.from_log:
        net, stats = _network_from_log(args.network, args)
        return net, stats, _file_digest([args.network] + ([args.categories] if args.categories else []))
    data = Path(args.network).read_bytes()
    net = import_network(data, _input_format(args), directed=not args.undirected)
    return net, None, hashlib.sha256(data).hexdigest()


def _write_sidecars(report: dict, net: TransferNetwork, directory: str) -> None:
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    metrics = report.get("network_metrics") or {}
    distribution = metrics.get("degree_distribution") or {}
    with open(base / "degree_distribution.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["degree", "probability"])
        for k in sorted(distribution, key=int):
            writer.writerow([k, distribution[k]])
    _, curve = metrics_mod.knn(net)  # by projected degree, the curve `fits.knn_degree` fits
    with open(base / "knn_curve.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["degree", "mean_knn_weighted"])
        writer.writerows(curve.items())
    for strategy, attack in (report.get("resilience") or {}).items():
        with open(base / f"attack_{strategy}.csv", "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["fraction_removed", "wcc_fraction", "scc_fraction", "efficiency"])
            for step in attack["steps"]:
                writer.writerow([step["fraction_removed"], step["wcc_fraction"],
                                 step["scc_fraction"], step["efficiency"]])


def cmd_analyze(args) -> int:
    # argparse holds only the options given; an empty --attack or --skip counts as not given
    names = {field.name for field in dataclasses.fields(report_mod.AnalysisOptions)}
    given = {name: value for name, value in vars(args).items() if name in names and value != []}
    try:
        options = report_mod.AnalysisOptions(**given)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        net, stats, digest = _load_network(args)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = report_mod.build_report(net, options, ingest=stats, digest=digest)
    if args.sidecar_dir is not None:
        try:
            _write_sidecars(report, net, args.sidecar_dir)
        except OSError as exc:
            return _output_error(exc)
    text = json.dumps(report, indent=2, allow_nan=False)
    print(text)
    return EXIT_ANALYSIS if report.get("all_sections_failed") else EXIT_OK


def cmd_synth(args) -> int:
    family = _MODEL_FAMILIES[args.model]
    try:
        spec = synth_mod.ModelSpec(family=family, n=args.n, seed=args.seed, m=args.m, k=args.k,
                                   p=args.p, degrees=args.degrees)
        net = synth_mod.generate_network(spec)
        journeys, stats = synth_mod.generate_event_log(
            net, args.journeys, synth_mod.geometric_stop_lengths(args.mean_stops), seed=args.seed
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    buffer = io.StringIO()
    synth_mod.write_event_log_csv(journeys, buffer)
    print(f"journeys: {len(journeys)}, truncated: {stats.truncated_journeys}", file=sys.stderr)
    return _write_output(buffer.getvalue().encode("utf-8"), args.output)


def cmd_export(args) -> int:
    try:
        data = Path(args.network).read_bytes()
        net = import_network(data, _input_format(args), directed=not args.undirected)
        payload = export_network(net, args.to)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _write_output(payload, args.output)


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
    analyze.add_argument("network")
    analyze.add_argument("--from-log", action="store_true", default=False, help="treat the input as an event log CSV")
    _add_log_options(analyze)
    analyze.add_argument("--format", choices=("graphml", "edgelist"), default=None,
                         help="input format override")
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
    export.add_argument("network")
    export.add_argument("--source-format", dest="format", choices=("graphml", "edgelist"), default=None)
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
        _check_destinations(args)
        _check_input_options(args)
    except OSError as exc:
        return _output_error(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
