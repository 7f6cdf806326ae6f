"""Generate one workload's inputs with wardflow.synth and describe them.

    python3 perfbench/gen.py --locations N --admissions A --categories K --seed S --out DIR

Writes DIR/log.csv (preferential attachment with m=2, geometric stops with
mean 15), DIR/map.csv when K > 0 (each location assigned to one of K
categories by a seeded shuffle), and DIR/manifest.json. The manifest holds
the totals the reports are checked against, computed here from the
generated journeys rather than by the code under test, plus the
environment the benchmark ran in.

The admissions are generated as two halves with seeds derived from
(S, half), each by a child `gen.py --half H` process, so that making the
inputs takes half as long; admission ids carry the half as a prefix. The
output depends only on the arguments.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from wardflow.synth import (
    ModelSpec,
    generate_event_log,
    generate_network,
    geometric_stop_lengths,
    write_event_log_csv,
)

MEAN_STOPS = 15.0
ATTACHMENT_M = 2
HALVES = 2


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _network(locations: int, seed: int):
    return generate_network(ModelSpec("preferential-attachment", n=locations, m=ATTACHMENT_M, seed=seed))


def _category_map(locations: int, seed: int, categories: int) -> dict[str, str]:
    labels = _network(locations, seed).sorted_nodes()
    order = np.random.default_rng((seed, categories)).permutation(len(labels))
    return {labels[int(i)]: f"cat{rank % categories:02d}" for rank, i in enumerate(order)}


def generate_half(args: argparse.Namespace) -> None:
    """Write half H of the log to DIR/log.partH.csv and its totals to DIR/partH.json.

    Consecutive repeats of a stop (after mapping to categories, if any) are
    merged as the parser merges them, so the totals are those of the
    network wardflow should build.
    """
    half = args.half
    size = args.admissions // HALVES + (half < args.admissions % HALVES)
    half_seed = int(np.random.SeedSequence((args.seed, half)).generate_state(1)[0])
    journeys, walk = generate_event_log(_network(args.locations, args.seed), size,
                                        geometric_stop_lengths(MEAN_STOPS), seed=half_seed)
    journeys = [dataclasses.replace(j, admission_id=f"h{half}-{j.admission_id}") for j in journeys]
    with open(args.out / f"log.part{half}.csv", "w", encoding="utf-8", newline="") as handle:
        write_event_log_csv(journeys, handle)
    category = _category_map(args.locations, args.seed, args.categories) if args.categories else None
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    transfers = 0
    for journey in journeys:
        stops = [category[s] for s in journey.stops] if category else journey.stops
        merged = [stop for i, stop in enumerate(stops) if i == 0 or stop != stops[i - 1]]
        nodes.update(merged)
        edges.update(zip(merged, merged[1:]))
        transfers += len(merged) - 1
    totals = {"rows": sum(len(j.stops) for j in journeys), "truncated": walk.truncated_journeys,
              "transfers": transfers, "nodes": sorted(nodes), "edges": sorted(edges)}
    (args.out / f"part{half}.json").write_text(json.dumps(totals), encoding="utf-8")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    versions = {"python": platform.python_version()}
    for name in ("numpy", "scipy", "networkx"):
        versions[name] = importlib.import_module(name).__version__
    try:
        import numba  # noqa: F401
        backend = f"numba {numba.__version__}"
    except ImportError:
        backend = "pure-python (numba not importable)"
    return {
        "versions": versions,
        "swap_kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--locations", type=int, required=True)
    parser.add_argument("--admissions", type=int, required=True)
    parser.add_argument("--categories", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--half", type=int, choices=range(HALVES), default=None,
                        help="write only this half (used by the parent gen.py)")
    args = parser.parse_args(argv)
    if args.half is not None:
        generate_half(args)
        return 0

    children = [subprocess.Popen([sys.executable, __file__, *argv, "--half", str(h)]) for h in range(HALVES)]
    if any([child.wait() for child in children]):  # a list, so every child is waited for
        return 1
    files = {}
    if args.categories:
        category = _category_map(args.locations, args.seed, args.categories)
        with open(args.out / "map.csv", "w", encoding="utf-8", newline="") as handle:
            handle.write("location,category\n")
            handle.writelines(f"{label},{category[label]}\n" for label in sorted(category))
        files["map.csv"] = args.out / "map.csv"

    log_path = args.out / "log.csv"
    halves = []
    with open(log_path, "wb") as log:
        for h in range(HALVES):
            part = args.out / f"log.part{h}.csv"
            with open(part, "rb") as handle:
                if h > 0:
                    handle.readline()  # every part starts with the header
                shutil.copyfileobj(handle, log)
            part.unlink()
            halves.append(json.loads((args.out / f"part{h}.json").read_text(encoding="utf-8")))
            (args.out / f"part{h}.json").unlink()
        log.flush()
        os.fsync(log.fileno())  # write back before timing starts, not during it
    files["log.csv"] = log_path

    network = {
        "transfers": sum(h["transfers"] for h in halves),
        "nodes": len({node for h in halves for node in h["nodes"]}),
        "edges": len({tuple(edge) for h in halves for edge in h["edges"]}),
    }
    manifest = {
        "locations": args.locations,
        "admissions": args.admissions,
        "seed": args.seed,
        "rows": sum(h["rows"] for h in halves),
        "truncated_journeys": sum(h["truncated"] for h in halves),
        "network": network | ({"categories": args.categories} if args.categories else {}),
        "files": {name: {"bytes": path.stat().st_size, "sha256": _sha256(path)} for name, path in files.items()},
        "environment": environment(),
    }
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
