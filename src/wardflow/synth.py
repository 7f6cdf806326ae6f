"""Reference network generators and synthetic event-log production."""
from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import IO, Callable

import numpy as np

from .eventlog import AdmissionJourney, LogSchema
from .network import TransferNetwork

PREFERENTIAL_ATTACHMENT = "preferential-attachment"
RING_REWIRE = "ring-rewire"
UNIFORM_RANDOM = "uniform-random"
CONFIGURATION = "configuration"

_EPOCH = datetime(2015, 1, 1)


@dataclass(frozen=True)
class ModelSpec:
    family: str
    n: int
    seed: int = 0
    m: int | None = None
    k: int | None = None
    p: float | None = None
    degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.family == PREFERENTIAL_ATTACHMENT:
            if self.m is None or self.m < 1 or self.m >= self.n:
                raise ValueError("preferential attachment needs 1 <= m < n")
        elif self.family == RING_REWIRE:
            if self.k is None or self.k % 2 != 0 or not 0 < self.k < self.n:
                raise ValueError("ring rewiring needs even k with 0 < k < n")
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("ring rewiring needs p in [0, 1]")
        elif self.family == UNIFORM_RANDOM:
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("uniform random needs p in [0, 1]")
        elif self.family == CONFIGURATION:
            if not self.degrees or len(self.degrees) != self.n:
                raise ValueError("configuration needs one degree per node")
            if any(d < 0 for d in self.degrees):
                raise ValueError("configuration degrees must be >= 0")
            if sum(self.degrees) % 2 != 0:
                raise ValueError("configuration degrees must sum to an even number")
        else:
            raise ValueError(f"unknown family {self.family!r}")


def node_label(i: int, n: int) -> str:
    return f"w{i:0{len(str(max(n - 1, 1)))}d}"


def generate_network(spec: ModelSpec) -> TransferNetwork:
    """Standard undirected constructions, deterministic per seed, unit weights.

    Each family replays networkx 3.x (`barabasi_albert_graph`, `watts_strogatz_graph`,
    `gnp_random_graph`, `configuration_model` collapsed to a simple graph) draw for draw
    on `random.Random(seed)`; `adj` holds insertion-ordered neighbours as networkx's
    adjacency does, so a seed gives networkx's edges in its order.
    """
    n, rng = spec.n, random.Random(spec.seed)
    adj: list[dict[int, None]] = [{} for _ in range(n)]

    def link(u: int, v: int) -> None:
        adj[u][v] = adj[v][u] = None

    if spec.family == PREFERENTIAL_ATTACHMENT:
        for v in range(1, spec.m + 1):  # the star 0-1..m
            link(0, v)
        # each node once per edge end, so a uniform pick prefers high degree
        repeated = [0] * spec.m + list(range(1, spec.m + 1))
        for source in range(spec.m + 1, n):
            targets: set[int] = set()  # filled and iterated as networkx's `_random_subset` set is
            while len(targets) < spec.m:
                targets.add(rng.choice(repeated))
            for target in targets:
                link(source, target)
            repeated.extend([*targets] + [source] * spec.m)
    elif spec.family == RING_REWIRE:
        ring = [(u, (u + j) % n) for j in range(1, spec.k // 2 + 1) for u in range(n)]
        for u, v in ring:
            link(u, v)
        nodes = list(range(n))
        for u, v in ring:
            if rng.random() < spec.p:
                w = rng.choice(nodes)
                while w == u or w in adj[u]:
                    w = rng.choice(nodes)
                    if len(adj[u]) >= n - 1:
                        break  # u links to every other node: skip this rewiring
                else:
                    del adj[u][v], adj[v][u]
                    link(u, w)
    elif spec.family == UNIFORM_RANDOM:
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < spec.p:
                link(u, v)
    else:
        stubs = [node for node, degree in enumerate(spec.degrees) for _ in range(degree)]
        rng.shuffle(stubs)
        half = len(stubs) // 2
        # a repeated pair keeps its first place; `v > u` below drops self-loops
        for u, v in zip(stubs[:half], stubs[half:]):
            link(u, v)
    labels = [node_label(i, n) for i in range(n)]
    edges = {(labels[u], labels[v]): 1 for u in range(n) for v in adj[u] if v > u}
    return TransferNetwork(frozenset(labels), edges, directed=False)


@dataclass
class WalkStats:
    truncated_journeys: int = 0


def geometric_stop_lengths(mean: float = 14.0, minimum: int = 2) -> Callable[[np.random.Generator], int]:
    """Journey-length sampler: geometric stop counts with the given mean."""
    if not minimum - 1 < mean < math.inf:  # NaN fails both comparisons
        raise ValueError(f"mean must be a finite number above minimum - 1, got {mean}")
    p = 1.0 / (mean - (minimum - 1))
    return lambda rng: (minimum - 1) + int(rng.geometric(p))


def generate_event_log(net: TransferNetwork, n_journeys: int,
                       length_sampler: Callable[[np.random.Generator], int] | None = None,
                       seed: int = 0) -> tuple[list[AdmissionJourney], WalkStats]:
    """Synthesize journeys as weighted random walks over the network.

    Steps move along out-edges with probability proportional to edge weight;
    start nodes are drawn proportionally to out-strength. A walk reaching a
    node without out-edges is truncated there and tallied. Each journey's
    randomness derives from (seed, journey index), so generation order and
    parallelism cannot change the output.
    """
    if n_journeys < 0:
        raise ValueError(f"n_journeys must be >= 0, got {n_journeys}")
    if net.edge_count < 1:
        raise ValueError("network needs at least one edge")
    if length_sampler is None:
        length_sampler = geometric_stop_lengths()
    core = net.core  # an undirected network's core holds each edge in both directions
    labels = core.labels
    rows = [slice(start, end) for start, end in zip(core.weighted.indptr[:-1], core.weighted.indptr[1:])]
    # out-edges in target label order, as CSR stores them
    neighbors = [core.weighted.indices[row] for row in rows]
    cumulative = [np.cumsum(core.weighted.data[row]).astype(float) for row in rows]
    out_strength = np.asarray(core.weighted.sum(axis=1)).ravel().astype(float)

    start_cdf = np.cumsum(out_strength)
    total_strength = start_cdf[-1]
    width = len(str(max(n_journeys - 1, 1)))

    journeys = []
    stats = WalkStats()
    for j in range(n_journeys):
        rng = np.random.default_rng(np.random.SeedSequence((seed, j)))
        target_length = length_sampler(rng)
        node = int(np.searchsorted(start_cdf, rng.random() * total_strength, side="right"))
        stops = [labels[node]]
        while len(stops) < target_length:
            if len(neighbors[node]) == 0:
                stats.truncated_journeys += 1
                break
            draw = rng.random() * cumulative[node][-1]
            node = int(neighbors[node][np.searchsorted(cumulative[node], draw, side="right")])
            stops.append(labels[node])
        base = _EPOCH + timedelta(hours=j)
        times = tuple(base + timedelta(minutes=10 * s) for s in range(len(stops)))
        journeys.append(AdmissionJourney(f"adm{j:0{width}d}", tuple(stops), times))
    return journeys, stats


def write_event_log_csv(journeys: list[AdmissionJourney], stream: IO[str],
                        schema: LogSchema = LogSchema()) -> None:
    """Emit journeys in the event-log CSV format the parser ingests."""
    writer = csv.writer(stream, delimiter=schema.delimiter, lineterminator="\n")
    writer.writerow([schema.admission_column, schema.location_column, schema.timestamp_column])
    for journey in journeys:
        for stop, time in zip(journey.stops, journey.times):
            writer.writerow([journey.admission_id, stop, time.isoformat()])
