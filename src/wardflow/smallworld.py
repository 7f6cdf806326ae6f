"""Random and lattice reference ensembles and small-world coefficients.

References are built from the observed network by degree-preserving
double-edge swaps: the random ensemble accepts every legal swap, the
lattice ensemble only swaps that do not loosen a banded edge layout
(nodes ordered by degree, edges scored by negative index distance).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from . import metrics as metrics_mod, pool
from .network import TransferNetwork

_DEFAULT_SWAP_FACTOR = 10
# the greedy no-decrease rule needs far more proposals than free rewiring
# before banded structure (and with it lattice-level clustering) saturates
_DEFAULT_LATTICE_FACTOR = 1000
_RNG_BLOCK = 1 << 20
_LIST_CHUNK = 1 << 14
# once a _LIST_CHUNK of lattice proposals accepts fewer than this share, the
# rest of the member is screened in numpy windows of _WINDOW_MIN to
# _WINDOW_MAX proposals; while the chain accepts more often, screening costs
# more per accepted swap than the Python loop
_SCREEN_BELOW = 0.02
_WINDOW_MIN = 1 << 4
_WINDOW_MAX = 1 << 14


@dataclass(frozen=True)
class RewireResult:
    network: TransferNetwork
    attempted: int
    accepted: int

    @property
    def no_swap_possible(self) -> bool:
        """Warning flag: no proposed swap was ever legal."""
        return self.accepted == 0


@dataclass(frozen=True)
class SmallWorldReport:
    clustering: float | None
    path_length: float | None
    path_coverage: float | None
    path_scope: str
    clustering_random: float | None
    path_length_random: float | None
    clustering_lattice: float | None
    sigma: float | None
    omega: float | None
    n_samples: int
    seed: int
    n_swaps_random: int
    n_swaps_lattice: int
    accepted_swaps_random: tuple[int, ...]
    accepted_swaps_lattice: tuple[int, ...]

    null_reasons: ClassVar[Mapping[str, str]] = {
        "sigma": "needs C, L, and nonzero random-ensemble means",
        "omega": "needs C, L, L_rand, and nonzero lattice clustering",
    }


def _swap_kernel(edge_u, edge_v, pick_a, pick_b, orientation, rank, present, n, limit=None):
    """Apply double-edge-swap proposals in place; returns (accepted, consumed).

    Edges are integer pairs with u < v held in two lists; `present` is the
    set of edge keys u * n + v. With a node rank (the lattice rule), swaps
    that increase the total rank-index span are rejected. With a limit, the
    kernel stops once that many swaps are accepted; `consumed` counts the
    proposals read.
    """
    accepted = 0
    for consumed, (i, j, flip) in enumerate(zip(pick_a, pick_b, orientation), 1):
        if i == j:
            continue
        a = edge_u[i]
        b = edge_v[i]
        c = old_c = edge_u[j]
        d = old_d = edge_v[j]
        if flip:
            c, d = d, c
        if a == d or c == b:
            continue
        u1, v1 = (a, d) if a < d else (d, a)
        u2, v2 = (c, b) if c < b else (b, c)
        key1 = u1 * n + v1
        key2 = u2 * n + v2
        if key1 == key2 or key1 in present or key2 in present:
            continue
        if rank is not None:
            old_span = abs(rank[a] - rank[b]) + abs(rank[old_c] - rank[old_d])
            new_span = abs(rank[u1] - rank[v1]) + abs(rank[u2] - rank[v2])
            if new_span > old_span:
                continue
        present.remove(a * n + b)
        present.remove(old_c * n + old_d)
        present.add(key1)
        present.add(key2)
        edge_u[i] = u1
        edge_v[i] = v1
        edge_u[j] = u2
        edge_v[j] = v2
        accepted += 1
        if accepted == limit:
            return accepted, consumed
    return accepted, len(pick_a)


def _screen_kernel(edge_u, edge_v, rank_u, rank_v, pick_a, pick_b, orientation, rank, present, n):
    """The lattice rule of `_swap_kernel`, with proposals screened in numpy windows.

    `rank_u`, `rank_v` hold the ranks of each edge's endpoints. Per window,
    numpy keeps the proposals that pass the span rule and make no self-loop,
    a necessary condition read from those two arrays alone; `_swap_kernel`
    checks the survivors in order and applies the first that passes. A
    rejected proposal changes nothing, so that is the swap the Python loop
    would accept next, and the scan resumes right after it. Windows halve
    after a hit and double after a miss. Returns the accepted count.
    """
    accepted = 0
    total = len(pick_a)
    start = 0
    width = _WINDOW_MIN
    while start < total:
        stop = min(start + width, total)
        i = pick_a[start:stop]
        j = pick_b[start:stop]
        flip = orientation[start:stop].astype(bool)
        a = rank_u[i]
        b = rank_v[i]
        c = np.where(flip, rank_v[j], rank_u[j])
        d = np.where(flip, rank_u[j], rank_v[j])
        cand = np.flatnonzero((np.abs(a - d) + np.abs(c - b) <= np.abs(a - b) + np.abs(c - d))
                              & (a != d) & (c != b))
        hits, consumed = _swap_kernel(edge_u, edge_v, i[cand].tolist(), j[cand].tolist(),
                                      flip[cand].tolist(), rank, present, n, limit=1)
        if not hits:
            start = stop
            width = min(width * 2, _WINDOW_MAX)
            continue
        hit = int(cand[consumed - 1])
        for slot in (int(i[hit]), int(j[hit])):
            rank_u[slot] = rank[edge_u[slot]]
            rank_v[slot] = rank[edge_v[slot]]
        accepted += 1
        start += hit + 1
        width = max(width // 2, _WINDOW_MIN)
    return accepted


def _swap_edges(net: TransferNetwork, n_swaps: int, rng: np.random.Generator,
                lattice_rank: list[int] | None) -> tuple[TransferNetwork, int]:
    """The network after n_swaps proposals, and the number of them accepted."""
    if net.edge_count < 2 or n_swaps == 0:
        return net, 0
    core = net.core
    labels = core.labels
    n = core.n
    # each edge once, u < v, in sorted order; integer order follows label order
    sources = core.sources()
    upper = sources < core.weighted.indices
    edge_u = sources[upper].tolist()
    edge_v = core.weighted.indices[upper].tolist()
    weights = core.weighted.data[upper].tolist()
    present = {u * n + v for u, v in zip(edge_u, edge_v)}

    # lattice proposals are checked in Python while the chain accepts often;
    # from the first chunk that accepts fewer than _SCREEN_BELOW of its
    # proposals, the rest are screened in numpy. The random rule accepts most
    # proposals, so it stays in Python throughout
    screened = None
    accepted = 0
    done = 0
    while done < n_swaps:
        take = min(_RNG_BLOCK, n_swaps - done)
        pick_a = rng.integers(0, len(edge_u), size=take)
        pick_b = rng.integers(0, len(edge_u), size=take)
        orientation = rng.integers(0, 2, size=take)
        # the kernel runs on Python ints; converting a whole block at once
        # would hold three lists of a million boxed ints
        lo = 0
        while screened is None and lo < take:
            hi = min(lo + _LIST_CHUNK, take)
            hits, _ = _swap_kernel(edge_u, edge_v, pick_a[lo:hi].tolist(), pick_b[lo:hi].tolist(),
                                   orientation[lo:hi].tolist(), lattice_rank, present, n)
            accepted += hits
            if lattice_rank is not None and hits < _SCREEN_BELOW * (hi - lo):
                rank = np.array(lattice_rank, dtype=np.int64)
                screened = (rank[edge_u], rank[edge_v])
            lo = hi
        if lo < take:
            accepted += _screen_kernel(edge_u, edge_v, *screened, pick_a[lo:], pick_b[lo:], orientation[lo:],
                                       lattice_rank, present, n)
        done += take

    edges = {
        (labels[u], labels[v]): weight
        for u, v, weight in zip(edge_u, edge_v, weights)
    }
    rewired = TransferNetwork(net.nodes, edges, directed=False, categories=net.categories)
    return rewired, accepted


def _swap_count(net: TransferNetwork, op: str, name: str, value: int | None, per_edge: int) -> int:
    """The swap count `value`, or per_edge swaps per edge when it is None; checks that net is undirected first."""
    if net.directed:
        raise ValueError(f"{op} expects the undirected projection")
    if value is None:
        value = per_edge * net.edge_count
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _rewire(net: TransferNetwork, op: str, n_swaps: int | None, per_edge: int, seed: int,
            lattice: bool) -> RewireResult:
    """The body of `rewire_random` and of `latticize`, which ranks the nodes for the lattice rule."""
    n_swaps = _swap_count(net, op, "n_swaps", n_swaps, per_edge)
    rank = None
    if lattice:
        # node indices follow label order, so a stable sort by degree breaks ties by label
        by_degree = np.argsort(np.diff(net.core.out.indptr), kind="stable")
        rank = np.empty(net.node_count, dtype=np.int64)
        rank[by_degree] = np.arange(net.node_count)
        rank = rank.tolist()
    rewired, accepted = _swap_edges(net, n_swaps, np.random.default_rng(seed), lattice_rank=rank)
    return RewireResult(rewired, n_swaps, accepted)


def rewire_random(net: TransferNetwork, n_swaps: int | None = None, seed: int = 0) -> RewireResult:
    """Degree-preserving randomization by repeated double-edge swaps.

    Each of n_swaps attempts picks two edges uniformly and exchanges their
    endpoints unless that would create a self-loop or a parallel edge.
    Defaults to 10 swap attempts per edge. Networks admitting no legal swap
    (a star, for instance) come back unchanged with the warning flag set.
    """
    return _rewire(net, "rewire_random", n_swaps, _DEFAULT_SWAP_FACTOR, seed, lattice=False)


def latticize(net: TransferNetwork, seed: int = 0, n_swaps: int | None = None) -> RewireResult:
    """Degree-preserving swaps accepted only when bandedness does not drop.

    Nodes are ranked by (degree, label); an edge scores the negative index
    distance of its endpoints, and a swap must not decrease the total score.
    """
    return _rewire(net, "latticize", n_swaps, _DEFAULT_LATTICE_FACTOR, seed, lattice=True)


_RANDOM_TAG = 1
_LATTICE_TAG = 2


def _ensemble_member(net: TransferNetwork, seed: int, n_swaps: int, lattice_swaps: int,
                     task: tuple[int, int]) -> tuple[int, float | None, float | None]:
    """One reference member: (accepted swaps, C, L); L is None for lattices."""
    tag, index = task
    member_seed = pool.derive_seed(seed, tag, index)
    if tag == _RANDOM_TAG:
        result = rewire_random(net, n_swaps, seed=member_seed)
        path_length, _ = metrics_mod.avg_shortest_path(result.network, metrics_mod.PROJECTION_SCOPE)
    else:
        result = latticize(net, seed=member_seed, n_swaps=lattice_swaps)
        path_length = None
    _, member_c, _ = metrics_mod.clustering(result.network)
    return result.accepted, member_c, path_length


def _mean(values) -> float | None:
    """Mean of the values that are not None, or None if all are.

    An empty network has no clustering and a giant component of fewer than
    2 nodes no path length, so a member can lack either.
    """
    kept = [value for value in values if value is not None]
    return sum(kept) / len(kept) if kept else None


def small_world_report(net: TransferNetwork, n_samples: int = 20, seed: int = 0,
                       n_swaps: int | None = None, lattice_swaps: int | None = None) -> SmallWorldReport:
    """sigma and omega against degree-matched random and lattice ensembles.

    sigma = (C/C_rand) / (L/L_rand); omega = L_rand/L - C/C_lat. All
    clustering and path values are unweighted; path lengths are giant
    component means. Raw values are reported without clamping, and the
    ensemble components are kept so either coefficient can be recomputed.
    Members have their own seeds, so they run in parallel on the CPUs
    available to the process and give the same report as a serial run.
    """
    # a directed network is refused first, by `_swap_count`
    if n_samples < 1 and not net.directed:
        raise ValueError("n_samples must be >= 1")
    n_swaps = _swap_count(net, "small_world_report", "n_swaps", n_swaps, _DEFAULT_SWAP_FACTOR)
    lattice_swaps = _swap_count(net, "small_world_report", "lattice_swaps", lattice_swaps, _DEFAULT_LATTICE_FACTOR)

    _, c_av, _ = metrics_mod.clustering(net)
    l_av, coverage = metrics_mod.avg_shortest_path(net, metrics_mod.PROJECTION_SCOPE)

    tasks = [(tag, i) for i in range(n_samples) for tag in (_RANDOM_TAG, _LATTICE_TAG)]
    members = pool.map_tasks(_ensemble_member, (net, seed, n_swaps, lattice_swaps), tasks)

    # tasks alternate random and lattice members
    random_accepted, random_c, random_l = zip(*members[0::2])
    lattice_accepted, lattice_c, _ = zip(*members[1::2])
    c_rand = _mean(random_c)
    l_rand = _mean(random_l)
    c_lat = _mean(lattice_c)

    sigma = None
    if None not in (c_av, l_av, c_rand, l_rand) and c_rand != 0 and l_rand != 0:
        sigma = (c_av / c_rand) / (l_av / l_rand)
    omega = None
    if None not in (c_av, l_av, l_rand, c_lat) and c_lat != 0:
        omega = l_rand / l_av - c_av / c_lat

    return SmallWorldReport(
        clustering=c_av,
        path_length=l_av,
        path_coverage=coverage,
        path_scope=metrics_mod.PROJECTION_SCOPE,
        clustering_random=c_rand,
        path_length_random=l_rand,
        clustering_lattice=c_lat,
        sigma=sigma,
        omega=omega,
        n_samples=n_samples,
        seed=seed,
        n_swaps_random=n_swaps,
        n_swaps_lattice=lattice_swaps,
        accepted_swaps_random=random_accepted,
        accepted_swaps_lattice=lattice_accepted,
    )
