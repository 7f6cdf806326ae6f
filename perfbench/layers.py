"""Per-layer metrics from the spans a traced run records.

A span is a dict with `name`, `start`, `end` (seconds), `parent` (index of
the enclosing span in the same list, or None), `attrs` (counters taken
from the call's arguments or result) and `error` (exception type name or
None). This module only reads spans; it imports nothing from wardflow.
"""
from __future__ import annotations

# metric -> span names whose outermost occurrences are summed; an entry may
# be (name, {attr: value}) to keep only spans with matching attributes
TIME_METRICS: dict[str, tuple] = {
    "eventlog.parse_s": ("eventlog.parse_event_log",),
    "eventlog.journeys_s": ("eventlog.reconstruct_journeys",),
    "eventlog.categories_s": ("eventlog.read_category_map", "eventlog.apply_category_map"),
    "network.build_s": ("network.build_network",),
    "network.export_s": ("network.export_network",),
    "network.import_s": ("network.import_network",),
    "network.projection_s": ("network.undirected_projection", "network.as_symmetric_directed"),
    "metrics.node_s": ("metrics.compute_node_metrics",),
    "metrics.betweenness_s": ("metrics.betweenness",),
    "metrics.clustering_s": ("metrics.clustering",),
    "metrics.avg_shortest_path_s": ("metrics.avg_shortest_path",),
    "metrics.knn_s": ("metrics.knn",),
    "metrics.network_s": ("metrics.compute_network_metrics",),
    "powerlaw.analyze_tail_s": ("powerlaw.analyze_tail",),
    "powerlaw.fit_tail_s": ("powerlaw.fit_tail",),
    "powerlaw.regressions_s": ("powerlaw.fit_strength_degree", "powerlaw.fit_betweenness_degree",
                               "powerlaw.fit_knn_degree"),
    "smallworld.report_s": ("smallworld.small_world_report",),
    "smallworld.rewire_s": ("smallworld.rewire_random",),
    "smallworld.latticize_s": ("smallworld.latticize",),
    "classify.s": ("classify.classify_hubs_bottlenecks", "classify.label_distributors_receivers"),
    "resilience.attack_degree_s": (("resilience.attack", {"strategy": "degree"}),),
    "resilience.attack_random_s": (("resilience.attack", {"strategy": "random"}),),
    "report.build_s": ("report.build_report",),
}

# metric -> span names whose calls are counted
CALL_METRICS: dict[str, tuple[str, ...]] = {
    "network.projection_calls": TIME_METRICS["network.projection_s"],
    "metrics.clustering_calls": ("metrics.clustering",),
    "metrics.avg_shortest_path_calls": ("metrics.avg_shortest_path",),
    "powerlaw.fit_tail_calls": ("powerlaw.fit_tail",),
}

# metric -> (span names, attribute summed over them)
ATTR_METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "eventlog.rows_read": (("eventlog.parse_event_log",), "rows_read"),
    "eventlog.rows_rejected": (("eventlog.parse_event_log",), "rows_rejected"),
    "smallworld.swaps_attempted": (("smallworld.rewire_random", "smallworld.latticize"), "attempted"),
    "resilience.steps": (("resilience.attack",), "steps"),
}

# metric -> span name whose self time (duration minus its children) is summed
SELF_METRICS: dict[str, str] = {
    "report.self_s": "report.build_report",
    "cli.self_s": "cli.main",
}


def _matches(span: dict, selector) -> bool:
    if isinstance(selector, str):
        return span["name"] == selector
    name, attrs = selector
    return span["name"] == name and all(span["attrs"].get(k) == v for k, v in attrs.items())


def covered_time(spans: list[dict], selectors) -> float:
    """Summed duration of matching spans, not counting one nested in another."""
    chosen = {i for i, span in enumerate(spans) if any(_matches(span, s) for s in selectors)}
    total = 0.0
    for i in chosen:
        parent = spans[i]["parent"]
        while parent is not None and parent not in chosen:
            parent = spans[parent]["parent"]
        if parent is None:
            total += spans[i]["end"] - spans[i]["start"]
    return total


def self_time(spans: list[dict], index: int) -> float:
    """Span duration minus the part of its interval its child spans cover."""
    span = spans[index]
    children = sorted((c["start"], c["end"]) for c in spans if c["parent"] == index)
    covered = 0.0
    cursor = span["start"]
    for start, end in children:
        start = max(start, cursor)
        end = min(end, span["end"])
        if end > start:
            covered += end - start
            cursor = end
    return (span["end"] - span["start"]) - covered


def merge(span_lists: list[list[dict]]) -> list[dict]:
    """Concatenate the span lists of several processes, re-basing parent indices."""
    merged: list[dict] = []
    for spans in span_lists:
        offset = len(merged)
        for span in spans:
            parent = span["parent"]
            merged.append({**span, "parent": None if parent is None else parent + offset})
    return merged


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for metric, selectors in TIME_METRICS.items():
        out[metric] = (covered_time(spans, selectors), "s")
    for metric, names in CALL_METRICS.items():
        out[metric] = (sum(1 for span in spans if span["name"] in names), "count")
    for metric, (names, attr) in ATTR_METRICS.items():
        out[metric] = (sum(span["attrs"].get(attr, 0) for span in spans if span["name"] in names), "count")
    for metric, name in SELF_METRICS.items():
        out[metric] = (sum(self_time(spans, i) for i, span in enumerate(spans) if span["name"] == name), "s")

    out["powerlaw.refits_failed"] = (
        sum(1 for span in spans if span["name"] == "powerlaw.fit_tail" and span["error"] == "ValueError"),
        "count",
    )
    parse_s = out["eventlog.parse_s"][0]
    out["eventlog.rows_per_s"] = (out["eventlog.rows_read"][0] / parse_s if parse_s > 0 else 0.0, "1/s")

    for kind, name in (("random", "smallworld.rewire_random"), ("lattice", "smallworld.latticize")):
        attempted = sum(span["attrs"].get("attempted", 0) for span in spans if span["name"] == name)
        accepted = sum(span["attrs"].get("accepted", 0) for span in spans if span["name"] == name)
        out[f"smallworld.accept_ratio_{kind}"] = (accepted / attempted if attempted else 0.0, "ratio")
    swap_s = out["smallworld.rewire_s"][0] + out["smallworld.latticize_s"][0]
    attempted = out["smallworld.swaps_attempted"][0]
    out["smallworld.swaps_per_s"] = (attempted / swap_s if swap_s > 0 else 0.0, "1/s")
    return out
