"""Random and lattice reference ensembles and small-world coefficients.

References are built from the observed network by degree-preserving
double-edge swaps: the random ensemble accepts every legal swap, the
lattice ensemble only swaps that do not loosen a banded edge layout
(nodes ordered by degree, edges scored by negative index distance).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
# rest of the member is checked in numpy windows of _WINDOW_MIN to
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
    reasons: Mapping[str, str]


def _swap_kernel(edge_u, edge_v, pick_a, pick_b, orientation, rank, present, n):
    """Apply double-edge-swap proposals in place; returns accepted count.

    Edges are integer pairs with u < v held in two lists; `present` is the
    set of edge keys u * n + v. With a node rank (the lattice rule), swaps
    that increase the total rank-index span are rejected.
    """
    accepted = 0
    for i, j, flip in zip(pick_a, pick_b, orientation):
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
    return accepted


def _pair_keys(x, y, n):
    """Edge keys min * n + max of node pairs, whichever way round they come."""
    return np.minimum(x, y) * n + np.maximum(x, y)


def _screen_state(edge_u, edge_v, lattice_rank, n):
    """The edges in `_screen_kernel` terms: (rank_u, rank_v, keys, node_of)."""
    rank = np.array(lattice_rank, dtype=np.int64)
    rank_u = rank[edge_u]
    rank_v = rank[edge_v]
    keys = np.append(np.sort(_pair_keys(rank_u, rank_v, n)), n * n)
    return rank_u, rank_v, keys, np.argsort(rank)


def _screen_kernel(rank_u, rank_v, keys, node_of, pick_a, pick_b, orientation, n):
    """The lattice rule of `_swap_kernel`, with proposals checked in numpy windows.

    Every check reads only the current edges and a rejected proposal changes
    nothing, so the first proposal of a window that passes is the one the
    Python loop would accept next: it is applied and the scan resumes right
    after it. Windows halve after a hit and double after a miss.

    Nodes go by rank here, so the span rule reads the edge arrays directly:
    `rank_u`, `rank_v` hold each edge's endpoints in the kernel's order (lower
    node index first; `node_of` maps a rank to its node index). `keys` is the
    sorted array of the edges' `_pair_keys` in rank terms, closed by the
    sentinel n * n so that every lookup lands on an entry. All three arrays
    are updated in place. Returns the accepted count.
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
        c = rank_u[j]
        d = rank_v[j]
        c, d = np.where(flip, d, c), np.where(flip, c, d)
        # the span rule rejects most proposals and needs no lookup, so it runs first
        cand = np.flatnonzero(np.abs(a - d) + np.abs(c - b) <= np.abs(a - b) + np.abs(c - d))
        if len(cand):
            i, j, a, b, c, d = i[cand], j[cand], a[cand], b[cand], c[cand], d[cand]
            key1 = _pair_keys(a, d, n)
            key2 = _pair_keys(c, b, n)
            # the kernel's i != j and key1 != key2 need no test here: either
            # failing makes a == d, c == b, or key1 an edge already present
            legal = ((a != d) & (c != b)
                     & (keys[np.searchsorted(keys, key1)] != key1) & (keys[np.searchsorted(keys, key2)] != key2))
            cand = cand[legal]
        if not len(cand):
            start = stop
            width = min(width * 2, _WINDOW_MAX)
            continue
        hit = start + int(cand[0])
        i = int(pick_a[hit])
        j = int(pick_b[hit])
        a = int(rank_u[i])
        b = int(rank_v[i])
        c = old_c = int(rank_u[j])
        d = old_d = int(rank_v[j])
        if orientation[hit]:
            c, d = d, c
        u1, v1 = (a, d) if node_of[a] < node_of[d] else (d, a)
        u2, v2 = (c, b) if node_of[c] < node_of[b] else (b, c)
        old = [min(a, b) * n + max(a, b), min(old_c, old_d) * n + max(old_c, old_d)]
        keys[np.searchsorted(keys, old)] = [min(a, d) * n + max(a, d), min(c, b) * n + max(c, b)]
        keys.sort(kind="stable")  # adaptive: two entries out of place cost about one pass
        rank_u[i] = u1
        rank_v[i] = v1
        rank_u[j] = u2
        rank_v[j] = v2
        accepted += 1
        start = hit + 1
        width = max(width // 2, _WINDOW_MIN)
    return accepted


def _swap_edges(net: TransferNetwork, n_swaps: int, rng: np.random.Generator,
                lattice_rank: list[int] | None) -> tuple[TransferNetwork, int, int]:
    if net.edge_count < 2 or n_swaps == 0:
        return net, n_swaps, 0
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
            hits = _swap_kernel(edge_u, edge_v, pick_a[lo:hi].tolist(), pick_b[lo:hi].tolist(),
                                orientation[lo:hi].tolist(), lattice_rank, present, n)
            accepted += hits
            if lattice_rank is not None and hits < _SCREEN_BELOW * (hi - lo):
                screened = _screen_state(edge_u, edge_v, lattice_rank, n)
            lo = hi
        if lo < take:
            accepted += _screen_kernel(*screened, pick_a[lo:], pick_b[lo:], orientation[lo:], n)
        done += take
    if screened is not None:
        rank_u, rank_v, _, node_of = screened
        edge_u = node_of[rank_u].tolist()
        edge_v = node_of[rank_v].tolist()

    edges = {
        (labels[u], labels[v]): weight
        for u, v, weight in zip(edge_u, edge_v, weights)
    }
    rewired = TransferNetwork(net.nodes, edges, directed=False, categories=net.categories)
    return rewired, n_swaps, accepted


def _require_undirected(net: TransferNetwork, op: str) -> None:
    if net.directed:
        raise ValueError(f"{op} expects the undirected projection")


def _require_count(value: int, name: str) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def rewire_random(net: TransferNetwork, n_swaps: int | None = None, seed: int = 0) -> RewireResult:
    """Degree-preserving randomization by repeated double-edge swaps.

    Each of n_swaps attempts picks two edges uniformly and exchanges their
    endpoints unless that would create a self-loop or a parallel edge.
    Defaults to 10 swap attempts per edge. Networks admitting no legal swap
    (a star, for instance) come back unchanged with the warning flag set.
    """
    _require_undirected(net, "rewire_random")
    if n_swaps is None:
        n_swaps = _DEFAULT_SWAP_FACTOR * net.edge_count
    _require_count(n_swaps, "n_swaps")
    rng = np.random.default_rng(seed)
    rewired, attempted, accepted = _swap_edges(net, n_swaps, rng, lattice_rank=None)
    return RewireResult(rewired, attempted, accepted)


def latticize(net: TransferNetwork, seed: int = 0, n_swaps: int | None = None) -> RewireResult:
    """Degree-preserving swaps accepted only when bandedness does not drop.

    Nodes are ranked by (degree, label); an edge scores the negative index
    distance of its endpoints, and a swap must not decrease the total score.
    """
    _require_undirected(net, "latticize")
    if n_swaps is None:
        n_swaps = _DEFAULT_LATTICE_FACTOR * net.edge_count
    _require_count(n_swaps, "n_swaps")
    # node indices follow label order, so a stable sort by degree breaks ties by label
    by_degree = np.argsort(np.diff(net.core.out.indptr), kind="stable")
    rank = np.empty(net.node_count, dtype=np.int64)
    rank[by_degree] = np.arange(net.node_count)
    rank = rank.tolist()

    rng = np.random.default_rng(seed)
    rewired, attempted, accepted = _swap_edges(net, n_swaps, rng, lattice_rank=rank)
    return RewireResult(rewired, attempted, accepted)


def _member_seed(seed: int, tag: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, tag, index)).generate_state(1)[0])


_RANDOM_TAG = 1
_LATTICE_TAG = 2


def _ensemble_member(net: TransferNetwork, seed: int, n_swaps: int, lattice_swaps: int,
                     task: tuple[int, int]) -> tuple[int, float | None, float | None]:
    """One reference member: (accepted swaps, C, L); L is None for lattices."""
    tag, index = task
    member_seed = _member_seed(seed, tag, index)
    if tag == _RANDOM_TAG:
        result = rewire_random(net, n_swaps, seed=member_seed)
        path_length, _ = metrics_mod.avg_shortest_path(result.network, metrics_mod.PROJECTION_SCOPE)
    else:
        result = latticize(net, seed=member_seed, n_swaps=lattice_swaps)
        path_length = None
    _, member_c, _ = metrics_mod.clustering(result.network)
    return result.accepted, member_c, path_length


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
    _require_undirected(net, "small_world_report")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_swaps is None:
        n_swaps = _DEFAULT_SWAP_FACTOR * net.edge_count
    if lattice_swaps is None:
        lattice_swaps = _DEFAULT_LATTICE_FACTOR * net.edge_count
    _require_count(n_swaps, "n_swaps")
    _require_count(lattice_swaps, "lattice_swaps")

    _, c_av, _ = metrics_mod.clustering(net)
    l_av, coverage = metrics_mod.avg_shortest_path(net, metrics_mod.PROJECTION_SCOPE)

    tasks = [(tag, i) for i in range(n_samples) for tag in (_RANDOM_TAG, _LATTICE_TAG)]
    members = pool.map_tasks(_ensemble_member, (net, seed, n_swaps, lattice_swaps), tasks)

    random_c: list[float] = []
    random_l: list[float] = []
    random_accepted: list[int] = []
    lattice_c: list[float] = []
    lattice_accepted: list[int] = []
    for (tag, _), (accepted, member_c, member_l) in zip(tasks, members):
        if tag == _RANDOM_TAG:
            random_accepted.append(accepted)
            if member_c is not None:
                random_c.append(member_c)
            if member_l is not None:
                random_l.append(member_l)
        else:
            lattice_accepted.append(accepted)
            if member_c is not None:
                lattice_c.append(member_c)

    c_rand = sum(random_c) / len(random_c) if random_c else None
    l_rand = sum(random_l) / len(random_l) if random_l else None
    c_lat = sum(lattice_c) / len(lattice_c) if lattice_c else None

    reasons: dict[str, str] = {}
    sigma = None
    if None in (c_av, l_av, c_rand, l_rand) or c_rand == 0 or l_rand == 0:
        reasons["sigma"] = "needs C, L, and nonzero random-ensemble means"
    else:
        sigma = (c_av / c_rand) / (l_av / l_rand)
    omega = None
    if None in (c_av, l_av, l_rand, c_lat) or c_lat == 0:
        reasons["omega"] = "needs C, L, L_rand, and nonzero lattice clustering"
    else:
        omega = l_rand / l_av - c_av / c_lat

    return SmallWorldReport(
        clustering=c_av,
        path_length=l_av,
        path_coverage=coverage,
        clustering_random=c_rand,
        path_length_random=l_rand,
        clustering_lattice=c_lat,
        sigma=sigma,
        omega=omega,
        n_samples=n_samples,
        seed=seed,
        n_swaps_random=n_swaps,
        n_swaps_lattice=lattice_swaps,
        accepted_swaps_random=tuple(random_accepted),
        accepted_swaps_lattice=tuple(lattice_accepted),
        reasons=reasons,
    )
