"""Hub/bottleneck quadrants and distributor/receiver role labels."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .metrics import NodeMetrics

HUB_BOTTLENECK = "hub-bottleneck"
HUB_NON_BOTTLENECK = "hub-non-bottleneck"
NON_HUB_BOTTLENECK = "non-hub-bottleneck"
NEITHER = "neither"

DISTRIBUTOR = "distributor"
RECEIVER = "receiver"
BALANCED = "balanced"

# the values of the tables' label maps; the report schema lists them as enums
Quadrant = Literal[HUB_BOTTLENECK, HUB_NON_BOTTLENECK, NON_HUB_BOTTLENECK, NEITHER]
Role = Literal[DISTRIBUTOR, RECEIVER, BALANCED]


@dataclass(frozen=True)
class HubBottleneckTable:
    quadrants: Mapping[str, Quadrant]
    degree_threshold: float
    betweenness_threshold: float
    quantile: float


@dataclass(frozen=True)
class RoleTable:
    labels: Mapping[str, Role]
    threshold: float
    threshold_sd: float


def _top_quantile_threshold(values: list[float], quantile: float) -> float:
    """Value of the ceil(q*N)-th largest entry; ties above it are included."""
    m = min(max(math.ceil(quantile * len(values)), 1), len(values))
    return sorted(values, reverse=True)[m - 1]


def classify_hubs_bottlenecks(node_metrics: Mapping[str, NodeMetrics],
                              quantile: float = 0.20) -> HubBottleneckTable:
    """Quadrants from top-quantile cuts on degree and betweenness.

    A node is a hub when its degree reaches the threshold for the top
    `quantile` share of degrees (nearest rank, ties included), and a
    bottleneck under the same rule on betweenness.
    """
    if not node_metrics:
        raise ValueError("need at least 1 node")
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    labels = sorted(node_metrics)
    degree_threshold = _top_quantile_threshold([node_metrics[x].degree for x in labels], quantile)
    betweenness_threshold = _top_quantile_threshold([node_metrics[x].betweenness for x in labels], quantile)

    quadrants: dict[str, str] = {}
    for label in labels:
        hub = node_metrics[label].degree >= degree_threshold
        bottleneck = node_metrics[label].betweenness >= betweenness_threshold
        if hub and bottleneck:
            quadrants[label] = HUB_BOTTLENECK
        elif hub:
            quadrants[label] = HUB_NON_BOTTLENECK
        elif bottleneck:
            quadrants[label] = NON_HUB_BOTTLENECK
        else:
            quadrants[label] = NEITHER
    return HubBottleneckTable(quadrants, float(degree_threshold), float(betweenness_threshold), quantile)


def label_distributors_receivers(node_metrics: Mapping[str, NodeMetrics],
                                 threshold_sd: float = 2.0) -> RoleTable:
    """Roles from net connectivity against a standard-deviation cut.

    Nodes at or below -threshold send to many more places than they receive
    from (distributors); nodes at or above +threshold are receivers. Zero
    variance labels everything balanced.
    """
    if len(node_metrics) < 2:
        raise ValueError("need at least 2 nodes")
    if not threshold_sd >= 0.0:
        raise ValueError(f"threshold_sd must be >= 0, got {threshold_sd}")
    labels = sorted(node_metrics)
    values = np.array([node_metrics[x].net_connectivity for x in labels], dtype=float)
    sd = float(values.std())
    threshold = threshold_sd * sd
    roles: dict[str, str] = {}
    for label, value in zip(labels, values):
        if sd == 0.0:
            roles[label] = BALANCED
        elif value <= -threshold:
            roles[label] = DISTRIBUTOR
        elif value >= threshold:
            roles[label] = RECEIVER
        else:
            roles[label] = BALANCED
    return RoleTable(roles, threshold, threshold_sd)
