"""Run one wardflow CLI command in this process with every layer traced.

    python3 perfbench/traced.py SPANS_JSON STDOUT_FILE -- <wardflow CLI args>

Public module-level functions of each wardflow layer are replaced, for the
duration of the command, by wrappers that record a span (name, start, end,
parent) around each call. A function is wrapped at every wardflow module
attribute bound to it, so `from .network import undirected_projection`
callers are traced as well as `metrics_mod.clustering(...)` ones. Spans
stay in memory and are written to SPANS_JSON when the command returns; the
command's standard output goes to STDOUT_FILE. The exit code is the CLI's.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


def _parse_attrs(args, kwargs, result):
    _, stats = result
    return {"rows_read": stats.rows_read, "rows_rejected": stats.rows_rejected}


def _swap_attrs(args, kwargs, result):
    return {"attempted": result.attempted, "accepted": result.accepted}


def _attack_attrs(args, kwargs, result):
    return {"strategy": args[1] if len(args) > 1 else kwargs["strategy"], "steps": len(result.steps)}


# module -> function name -> optional attribute extractor (args, kwargs, result) -> dict
TRACED = {
    "eventlog": {"parse_event_log": _parse_attrs, "reconstruct_journeys": None,
                 "read_category_map": None, "apply_category_map": None},
    "network": {"build_network": None, "export_network": None, "import_network": None,
                "undirected_projection": None, "as_symmetric_directed": None},
    "metrics": {"compute_node_metrics": None, "compute_network_metrics": None, "betweenness": None,
                "clustering": None, "knn": None, "avg_shortest_path": None},
    "powerlaw": {"analyze_tail": None, "fit_tail": None, "fit_strength_degree": None,
                 "fit_betweenness_degree": None, "fit_knn_degree": None},
    "smallworld": {"small_world_report": None, "rewire_random": _swap_attrs, "latticize": _swap_attrs},
    "classify": {"classify_hubs_bottlenecks": None, "label_distributors_receivers": None},
    "resilience": {"attack": _attack_attrs},
    "report": {"build_report": None},
}


class Tracer:
    """Collects spans; `span` is used as a context manager or through `wrap`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "start": self.clock(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "attrs": {}, "error": None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, func, attrs=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if attrs is not None:
                    record["attrs"] = attrs(args, kwargs, result)
                return result
        return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install wrappers on every wardflow attribute bound to a traced function."""
    import importlib

    import wardflow.cli  # noqa: F401 - loads every layer module

    modules = [module for name, module in sorted(sys.modules.items())
               if name == "wardflow" or name.startswith("wardflow.")]
    patched = []
    for layer, functions in TRACED.items():
        owner = importlib.import_module(f"wardflow.{layer}")
        for func_name, attrs in functions.items():
            original = getattr(owner, func_name)
            wrapper = tracer.wrap(f"{layer}.{func_name}", original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, stdout_path, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    with instrumented(tracer):
        import wardflow.cli

        with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            with tracer.span("cli.main"):
                code = wardflow.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
