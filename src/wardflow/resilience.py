"""Connectivity degradation under random and targeted node removal.

'degree' and 'betweenness' are adaptive, re-ranked on the survivors at every
step; 'random' and 'explicit' are static orders. A static targeted attack is
an explicit order of the intact network's ranking.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from . import paths
from .network import TransferNetwork
from .paths import GraphCore

RANDOM = "random"
DEGREE = "degree"
BETWEENNESS = "betweenness"
EXPLICIT = "explicit"

ADAPTIVE = "adaptive"
STATIC = "static-order"


@dataclass(frozen=True)
class AttackStep:
    fraction_removed: float
    wcc_fraction: float
    scc_fraction: float
    efficiency: float


@dataclass(frozen=True)
class AttackResult:
    strategy: str
    recompute_policy: str
    step_fraction: float
    seed: int | None
    steps: tuple[AttackStep, ...]


def _measure(sub: GraphCore, n_total: int) -> tuple[float, float, float]:
    """Giant WCC and SCC shares of the original node count, and the efficiency, of the alive subgraph."""
    if sub.n == 0:
        return 0.0, 0.0, 0.0
    if sub.n == 1:
        return 1.0 / n_total, 1.0 / n_total, 0.0
    _, weak = connected_components(sub.out, directed=True, connection="weak")
    _, strong = connected_components(sub.out, directed=True, connection="strong")
    wcc = int(np.bincount(weak).max()) / n_total
    scc = int(np.bincount(strong).max()) / n_total
    inv_sum = sum(count / d for d, count in enumerate(paths.distance_counts(sub)) if d)
    efficiency = inv_sum / (sub.n * (sub.n - 1))
    return wcc, scc, efficiency


def _ranking(sub: GraphCore, members: np.ndarray, score: Callable[[GraphCore], np.ndarray]) -> list[int]:
    """The members, indices of `sub`'s nodes in the full graph, by descending score on `sub`, ties broken by label."""
    # a stable sort keeps tied members in index order, which is label order
    return members[np.argsort(-score(sub), kind="stable")].tolist()


def attack(net: TransferNetwork, strategy: str, step_fraction: float = 0.05,
           seed: int | None = None, order: Sequence[str] | None = None) -> AttackResult:
    """Remove nodes in strategy order, tracking giant components and efficiency.

    'degree' and 'betweenness' remove the top-ranked survivors (ties broken
    by label), 'random' a shuffle drawn from `seed`, recorded only for this
    strategy, and 'explicit' follows `order`, a list of distinct labels. Each
    step removes max(1, round(step_fraction * n)) nodes; fractions are of the
    original node count, and step zero records the intact network.
    """
    if not 0.0 < step_fraction <= 1.0:
        raise ValueError("step_fraction must be in (0, 1]")
    if net.node_count < 2:
        raise ValueError("attack needs at least 2 nodes")
    core = net.core  # undirected edges count both ways
    n = core.n

    schedule: list[int] | None = None  # None: re-rank the survivors at every step
    if strategy == RANDOM:
        if seed is None:
            raise ValueError("random strategy needs a seed")
        schedule = [int(i) for i in np.random.default_rng(seed).permutation(n)]
        name = f"random(seed={seed})"
    elif strategy == EXPLICIT:
        if order is None:
            raise ValueError("explicit strategy needs an order of node labels")
        unknown = [label for label in order if label not in core.index]
        if unknown:
            raise ValueError(f"unknown nodes in removal order: {unknown}")
        repeated = sorted(label for label, count in Counter(order).items() if count > 1)
        if repeated:
            raise ValueError(f"repeated nodes in removal order: {repeated}")
        schedule = [core.index[label] for label in order]
        name = "explicit-list"
    elif strategy in (DEGREE, BETWEENNESS):
        name = f"{strategy}-targeted"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    score = GraphCore.degrees if strategy == DEGREE else paths.betweenness

    alive = np.ones(n, dtype=bool)
    per_step = max(1, round(step_fraction * n))
    steps = []
    while True:
        members = np.flatnonzero(alive)
        removed = n - len(members)
        sub = core.subgraph(members)
        steps.append(AttackStep(removed / n, *_measure(sub, n)))
        batch = _ranking(sub, members, score)[:per_step] if schedule is None else schedule[removed:removed + per_step]
        if not batch:
            return AttackResult(name, ADAPTIVE if schedule is None else STATIC, step_fraction,
                                seed if strategy == RANDOM else None, tuple(steps))
        alive[batch] = False


def giant_wcc_area(result: AttackResult) -> float:
    """Trapezoidal area under the (fraction removed, giant-WCC fraction) curve."""
    fractions = [step.fraction_removed for step in result.steps]
    wcc = [step.wcc_fraction for step in result.steps]
    return float(np.trapezoid(wcc, fractions))
