"""A network's indexed `GraphCore`, batched breadth-first searches for unweighted paths on it, and weighted betweenness.

The core numbers the sorted node labels 0..n-1 and keeps the binary
out-adjacency as CSR together with its transpose. Searches run level by
level from a batch of sources at once and never form an n x n matrix:
a batch of `width` sources takes O(width * (n + m)) memory, and one
budget, BATCH_CELLS, sets both engines' widths.

- `distance_counts` needs reach sets only. It keeps one bit per (node,
  source) pair, so a level is a gather along the in-edges and a bitwise or.
  Its batches hold width * (n + m) <= BATCH_CELLS cells: wide, since a
  level costs the same per 64-bit word whatever its frontier.
- `betweenness` also needs shortest-path counts (Brandes 2001, J. Math.
  Sociol. 25:163). `_Batch` pushes counts forward and dependencies back,
  edge by edge while the frontier is small and as one sparse-matrix x
  dense-block product once it is large, so a level costs what its frontier
  costs and long chains stay cheap. Each cell carries floats and ints, so
  its batches take BATCH_CELLS >> _NARROWER cells, which also runs faster
  than wide ones. The batches are split into _GROUPS contiguous groups, one
  `pool.map_tasks` task each: a task sums its batches in order, and the
  caller sums the groups in order, so the result has the same bits for any
  number of workers and the caller holds at most _GROUPS x n floats.
"""
from __future__ import annotations

import functools
import heapq
import itertools
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .network import TransferNetwork
from .pool import map_tasks


class GraphCore:
    """Sorted node labels and the adjacency indexed by them.

    `weighted` is the out-adjacency as CSR with the integer edge weights as
    data; `out` shares its structure with data 1, and `inc` is the transpose
    of `out` (the breadth-first searches multiply with both). An undirected
    network stores each edge in both directions.
    """

    def __init__(self, labels: Sequence[str], weighted: csr_matrix, directed: bool):
        weighted.sum_duplicates()
        self.labels = list(labels)
        self.directed = directed
        self.weighted = weighted
        self.out = csr_matrix((np.ones(weighted.nnz), weighted.indices, weighted.indptr), shape=weighted.shape)
        self.inc = self.out.T.tocsr()

    @classmethod
    def from_network(cls, net: TransferNetwork) -> GraphCore:
        """Index a network; `TransferNetwork.core` calls this once per network."""
        labels = net.sorted_nodes()
        index = {label: i for i, label in enumerate(labels)}
        rows = [index[u] for u, _ in net.edges]
        cols = [index[v] for _, v in net.edges]
        weights = list(net.edges.values())
        if not net.directed:
            rows, cols, weights = rows + cols, cols + rows, weights + weights
        n = len(labels)
        weighted = csr_matrix((np.array(weights, dtype=np.int64), (rows, cols)), shape=(n, n))
        core = cls(labels, weighted, net.directed)
        core.index = index
        return core

    @property
    def n(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def index(self) -> dict[str, int]:
        """Label -> node index."""
        return {label: i for i, label in enumerate(self.labels)}

    @functools.cached_property
    def projection(self) -> GraphCore:
        """The undirected projection: one edge per linked pair, antiparallel weights summed.

        An undirected network is its own projection.
        """
        if not self.directed:
            return self
        return GraphCore(self.labels, (self.weighted + self.weighted.T).tocsr(), directed=False)

    def subgraph(self, members: np.ndarray) -> GraphCore:
        """Core of the subgraph induced by the given (ascending) node indices."""
        return GraphCore([self.labels[i] for i in members], self.weighted[members][:, members], self.directed)

    def sources(self) -> np.ndarray:
        """Source index of every stored edge in CSR order; `out.indices` holds the targets."""
        return np.repeat(np.arange(self.n), np.diff(self.out.indptr))

    def degrees(self) -> np.ndarray:
        """In-degree plus out-degree of every node."""
        return np.diff(self.out.indptr) + np.diff(self.inc.indptr)


# cap on width * (n + m) for a batch of `width` sources
BATCH_CELLS = 1 << 22
# a betweenness batch takes BATCH_CELLS >> _NARROWER cells
_NARROWER = 4
# betweenness folds its batches in this many contiguous groups, whatever the CPU count
_GROUPS = 16
# a frontier with more than width * (n + m) / DENSE_RATIO edges takes the block product
DENSE_RATIO = 16


def _width(core: GraphCore, cells: int) -> int:
    """Sources per batch of at most `cells` cells."""
    return max(1, min(core.n, cells // max(1, core.n + core.out.nnz)))


class _Batch:
    """A BFS from several sources at once.

    The pair (node, j-th source) is the cell node * width + j. order holds
    each reached cell's position in the concatenation of the BFS levels
    (-1 while unreached), so a range of order values is one level.
    """

    def __init__(self, core: GraphCore, sources: np.ndarray, order: np.ndarray):
        self.core = core
        self.width = len(sources)
        self.sources = sources * self.width + np.arange(self.width)
        self.order = order[:core.n * self.width]
        self.order.fill(-1)

    def push(self, cells: np.ndarray, values: np.ndarray, forward: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Push each cell's (positive) value one edge along (forward) or against the edges.

        A small frontier is expanded edge by edge into (target cells, values),
        one entry per edge. A large one takes one sparse-matrix x dense-block
        product, which costs (n + m) * width whatever the frontier, and comes
        back as (the summed block, flat, None).
        """
        along, against = (self.core.out, self.core.inc) if forward else (self.core.inc, self.core.out)
        width = self.width
        nodes, column = np.divmod(cells, width)
        starts = along.indptr[nodes]
        counts = along.indptr[nodes + 1] - starts
        edges = int(counts.sum())
        if DENSE_RATIO * edges > (self.core.n + along.nnz) * width:
            block = np.zeros((self.core.n, width))
            block.ravel()[cells] = values
            return (against @ block).ravel(), None
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        targets = along.indices[offsets + np.arange(edges)] * width + np.repeat(column, counts)
        return targets, np.repeat(values, counts)

    def levels(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield each BFS level's cells with their shortest-path counts; level 0 is the sources."""
        cells = self.sources
        paths = np.ones(self.width)
        seen = 0
        while cells.size:
            self.order[cells] = np.arange(seen, seen + cells.size)
            seen += cells.size
            yield cells, paths
            targets, values = self.push(cells, paths, True)
            if values is None:
                cells = np.flatnonzero((targets != 0) & (self.order == -1))
                paths = targets[cells]
                continue
            fresh = self.order[targets] == -1
            targets, values = targets[fresh], values[fresh]
            # a cell reached along several edges is owned by its last entry
            position = np.arange(targets.size)
            self.order[targets] = -2 - position
            owner = -2 - self.order[targets]
            first = owner == position
            cells = targets[first]
            paths = np.bincount(owner, weights=values, minlength=targets.size)[first]


def distance_counts(core: GraphCore) -> list[int]:
    """counts[d] = ordered pairs (s, t), s != t, with t at d hops from s; counts[0] = 0.

    Reach sets only, so a batch keeps one bit per (node, source) pair: row
    v of a (n, words) uint64 block holds the sources whose search has just
    reached v, and one level is a gather of the frontier rows along the
    in-edges and a bitwise or per row.
    """
    n = core.n
    width = _width(core, BATCH_CELLS)
    words = -(-width // 64)
    # row n of the frontier stays zero; gathering it last keeps every reduceat start in range
    gather = np.append(core.inc.indices, n)
    starts = core.inc.indptr[:-1]
    no_in_edges = np.flatnonzero(np.diff(core.inc.indptr) == 0)
    counts = [0]
    for first in range(0, n, width):
        sources = np.arange(first, min(n, first + width))
        column = sources - first
        frontier = np.zeros((n + 1, words), dtype=np.uint64)
        frontier[sources, column // 64] = np.left_shift(np.uint64(1), (column % 64).astype(np.uint64))
        unreached = ~frontier
        for level in itertools.count(1):
            frontier[:n] = np.bitwise_or.reduceat(frontier[gather], starts, axis=0)
            frontier[no_in_edges] = 0
            frontier &= unreached
            new = int(np.bitwise_count(frontier).sum())
            if not new:
                break
            unreached ^= frontier
            if level == len(counts):
                counts.append(0)
            counts[level] += new
    return counts


def betweenness(core: GraphCore) -> np.ndarray:
    """Normalized directed betweenness, 1/((n-1)(n-2)) scaling, of every node."""
    n = core.n
    width = _width(core, BATCH_CELLS >> _NARROWER)
    starts = range(0, n, width)
    groups = max(1, min(_GROUPS, len(starts)))
    bounds = [len(starts) * k // groups for k in range(groups + 1)]
    total = np.zeros(n)
    for part in map_tasks(_group_dependencies, (core, width), [starts[a:b] for a, b in zip(bounds, bounds[1:])]):
        total += part
    if n > 2:
        total *= 1 / ((n - 1) * (n - 2))
    return total


def _group_dependencies(core: GraphCore, width: int, starts: range) -> np.ndarray:
    """The dependencies of the batches that start at `starts`, summed in order.

    The batches share one order array, so one batch is live at a time.
    """
    total = np.zeros(core.n)
    order = np.empty(core.n * width, dtype=np.int32)
    for start in starts:
        total += _dependencies(_Batch(core, np.arange(start, min(core.n, start + width)), order))
    return total


def _dependencies(batch: _Batch) -> np.ndarray:
    """Each node's dependency (Brandes' delta), summed over the batch's sources."""
    levels = list(batch.levels())
    total = np.zeros(batch.core.n)
    # delta[v] = paths[v] * sum over successors w on the next level of
    # (1 + delta[w]) / paths[w]; the deepest level has none
    delta = np.zeros(levels[-1][0].size)
    end = sum(cells.size for cells, _ in levels[:-1])
    for level in range(len(levels) - 1, 0, -1):
        cells, paths = levels[level]
        total += np.bincount(cells // batch.width, weights=delta, minlength=total.size)
        targets, values = batch.push(cells, (1.0 + delta) / paths, False)
        before, before_paths = levels[level - 1]
        start = end - before.size
        if values is None:
            sums = targets[before]
        else:
            slot = batch.order[targets] - start
            on_path = (slot >= 0) & (slot < before.size)
            sums = np.bincount(slot[on_path], weights=values[on_path], minlength=before.size)
        delta = before_paths * sums
        end = start
    return total


def weighted_betweenness(core: GraphCore) -> list[float]:
    """Normalized betweenness of every node with edge length 1/weight, so heavier traffic is shorter.

    networkx's weighted `betweenness_centrality` operation for operation, so each score has
    its bits: heap entries (distance, push count, predecessor, node), neighbours in CSR order
    (networkx's for edges added sorted), ties by ==, dependencies in reverse settling order.
    """
    n = core.n
    indptr = core.weighted.indptr.tolist()
    indices = core.weighted.indices.tolist()
    lengths = [1.0 / w for w in core.weighted.data.tolist()]
    score = [0.0] * n
    for s in range(n):
        preds: dict[int, list[int]] = {s: []}
        sigma = [0.0] * n
        sigma[s] = 1.0
        settled = [False] * n
        seen: dict[int, float] = {s: 0}
        order = []
        push = itertools.count()
        heap = [(0, next(push), s, s)]
        while heap:
            dist, _, pred, v = heapq.heappop(heap)
            if settled[v]:
                continue
            sigma[v] += sigma[pred]  # the source adds itself: every count doubles, as in networkx
            order.append(v)
            settled[v] = True
            for i in range(indptr[v], indptr[v + 1]):
                w = indices[i]
                length = dist + lengths[i]
                if not settled[w] and (w not in seen or length < seen[w]):
                    seen[w] = length
                    heapq.heappush(heap, (length, next(push), v, w))
                    sigma[w] = 0.0
                    preds[w] = [v]
                elif length == seen[w]:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                score[w] += delta[w]
    scale = 1 / ((n - 1) * (n - 2)) if n > 2 else 1.0
    return [b * scale for b in score]
