"""Connectivity degradation under random and targeted node removal."""
from __future__ import annotations

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
    steps: tuple[AttackStep, ...]
    seed: int | None = None


def _measure(core: GraphCore, alive: np.ndarray, n_total: int) -> tuple[float, float, float]:
    members = np.flatnonzero(alive)
    if len(members) == 0:
        return 0.0, 0.0, 0.0
    if len(members) == 1:
        return 1.0 / n_total, 1.0 / n_total, 0.0
    sub = core.subgraph(members)
    _, weak = connected_components(sub.out, directed=True, connection="weak")
    _, strong = connected_components(sub.out, directed=True, connection="strong")
    wcc = int(np.bincount(weak).max()) / n_total
    scc = int(np.bincount(strong).max()) / n_total
    inv_sum = sum(count / d for d, count in enumerate(paths.distance_counts(sub)) if d)
    efficiency = inv_sum / (len(members) * (len(members) - 1))
    return wcc, scc, efficiency


def _ranking(core: GraphCore, alive: np.ndarray, score: Callable[[GraphCore], np.ndarray]) -> list[int]:
    """Alive node indices by descending score on the alive subgraph, ties broken by label."""
    members = np.flatnonzero(alive)
    # a stable sort keeps tied members in index order, which is label order
    return members[np.argsort(-score(core.subgraph(members)), kind="stable")].tolist()


def attack(net: TransferNetwork, strategy: str, step_fraction: float = 0.05,
           recompute_policy: str | None = None, seed: int | None = None,
           order: Sequence[str] | None = None) -> AttackResult:
    """Remove nodes in strategy order, tracking giant components and efficiency.

    Strategies: 'degree' and 'betweenness' target the highest-ranked nodes
    (adaptive re-ranking by default), 'random' uses a seeded shuffle, and
    'explicit' follows a caller-supplied label order. Each step removes
    max(1, round(step_fraction * n)) nodes; fractions are relative to the
    original node count, and step zero records the intact network.
    """
    if not 0.0 < step_fraction <= 1.0:
        raise ValueError("step_fraction must be in (0, 1]")
    if net.node_count < 2:
        raise ValueError("attack needs at least 2 nodes")
    core = net.core  # undirected edges count both ways
    n = core.n

    if strategy == RANDOM:
        if seed is None:
            raise ValueError("random strategy needs a seed")
        rng = np.random.default_rng(seed)
        schedule = [int(i) for i in rng.permutation(n)]
        policy = recompute_policy or STATIC
        name = f"random(seed={seed})"
    elif strategy == EXPLICIT:
        if order is None:
            raise ValueError("explicit strategy needs an order of node labels")
        unknown = [label for label in order if label not in core.index]
        if unknown:
            raise ValueError(f"unknown nodes in removal order: {unknown}")
        schedule = [core.index[label] for label in order]
        policy = recompute_policy or STATIC
        name = "explicit-list"
    elif strategy in (DEGREE, BETWEENNESS):
        policy = recompute_policy or ADAPTIVE
        schedule = []  # filled lazily under the adaptive policy
        name = f"{strategy}-targeted"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if policy not in (ADAPTIVE, STATIC):
        raise ValueError(f"unknown recompute policy {policy!r}")

    alive = np.ones(n, dtype=bool)
    per_step = max(1, round(step_fraction * n))
    steps = [AttackStep(0.0, *_measure(core, alive, n))]
    score = GraphCore.degrees if strategy == DEGREE else paths.betweenness

    if strategy in (DEGREE, BETWEENNESS) and policy == STATIC:
        schedule = _ranking(core, alive, score)

    removed = 0
    cursor = 0
    while alive.any():
        if strategy in (DEGREE, BETWEENNESS) and policy == ADAPTIVE:
            batch = _ranking(core, alive, score)[:per_step]
        else:
            batch = schedule[cursor:cursor + per_step]
            cursor += len(batch)
            if not batch:
                break
        alive[batch] = False
        removed += len(batch)
        steps.append(AttackStep(removed / n, *_measure(core, alive, n)))

    return AttackResult(name, policy, step_fraction, tuple(steps), seed=seed)


def giant_wcc_area(result: AttackResult) -> float:
    """Trapezoidal area under the (fraction removed, giant-WCC fraction) curve."""
    fractions = [step.fraction_removed for step in result.steps]
    wcc = [step.wcc_fraction for step in result.steps]
    return float(np.trapezoid(wcc, fractions))
