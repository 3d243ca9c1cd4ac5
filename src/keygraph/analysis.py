"""Exact structural analysis of sampled graphs.

Vertex connectivity is computed exactly with the classic node-splitting
reduction: every node v becomes an arc v_in -> v_out of capacity one, every
undirected edge becomes a pair of uncapacitated arcs, and the connectivity
between two non-adjacent nodes equals the max flow between them.  Following
Even and Tarjan, the global value is the minimum of those local values over
(a) all nodes non-adjacent to a fixed minimum-degree node s and (b) all
non-adjacent pairs of neighbors of s.  Max flows and graph searches are
delegated to scipy.sparse.csgraph; everything around them (reduction, pair
enumeration, cut recovery, articulation test, degree bookkeeping) is local.

All functions are pure; scratch state is per call, so concurrent use on
distinct graphs is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  depth_first_order, maximum_flow)


class Graph:
    """Compact undirected graph: flat edge list plus CSR adjacency.

    Edges are validated (no self-loops, no duplicates), normalized to u < v
    and stored lexicographically sorted.  Node ids are 0..n-1.
    """

    __slots__ = ("n", "edges", "indptr", "indices")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("graph needs at least one node")
        e = np.asarray(edges, dtype=np.int32).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            e = np.sort(e, axis=1)
            codes = np.sort(e[:, 0].astype(np.int64) * n + e[:, 1])
            if (codes[1:] == codes[:-1]).any():
                raise ValueError("duplicate edges are not allowed")
            e = np.stack([(codes // n).astype(np.int32),
                          (codes % n).astype(np.int32)], axis=1)
        self.n = int(n)
        self.edges = e
        both_u = np.concatenate([e[:, 0], e[:, 1]])
        both_v = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((both_v, both_u))
        self.indices = both_v[order]
        counts = np.bincount(both_u, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < nb.size and nb[i] == v

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


def as_graph(obj) -> Graph:
    """Accept a Graph or anything with .graph() (e.g. a SampledNetwork)."""
    if isinstance(obj, Graph):
        return obj
    return obj.graph()


@dataclass(frozen=True)
class ConnectivityReport:
    """Structural summary of one graph.

    ``min_vertex_cut`` is empty when the graph is disconnected (nothing to
    cut) or complete (no vertex cut exists; connectivity is n-1 by
    convention).  Otherwise removing the cut disconnects the graph and its
    size equals ``vertex_connectivity``.
    """

    min_degree: int
    vertex_connectivity: int
    min_vertex_cut: tuple
    is_connected: bool
    component_count: int


def min_degree(g) -> int:
    g = as_graph(g)
    return int(g.degrees.min())


def _adjacency(g: Graph) -> csr_matrix:
    return csr_matrix((np.ones(g.indices.size, dtype=np.int8), g.indices, g.indptr),
                      shape=(g.n, g.n))


def component_count(g) -> int:
    g = as_graph(g)
    if g.n == 1:
        return 1
    count, _ = connected_components(_adjacency(g), directed=False)
    return int(count)


def is_connected(g) -> bool:
    return component_count(g) == 1


def _split_flow_matrix(g: Graph) -> csr_matrix:
    # Node v -> v_in = 2v, v_out = 2v+1; split arcs capacity 1, edge arcs
    # effectively uncapacitated (any cap > n-1 can never sit on a min cut).
    n, e = g.n, g.edges
    rows = np.concatenate([2 * np.arange(n), 2 * e[:, 0] + 1, 2 * e[:, 1] + 1])
    cols = np.concatenate([2 * np.arange(n) + 1, 2 * e[:, 1], 2 * e[:, 0]])
    caps = np.concatenate([
        np.ones(n, dtype=np.int32),
        np.full(2 * g.m, n, dtype=np.int32),
    ])
    return csr_matrix((caps, (rows, cols)), shape=(2 * n, 2 * n), dtype=np.int32)


def _flow_pairs(g: Graph) -> Iterable[tuple]:
    """Source/sink pairs whose local connectivities attain the global value.

    Fixed deterministic order: first every node non-adjacent to the lowest
    minimum-degree node s (ascending), then every non-adjacent pair of
    neighbors of s (ascending lexicographic).
    """
    s = int(np.argmin(g.degrees))
    nb = g.neighbors(s)
    nb_set = set(nb.tolist())
    for t in range(g.n):
        if t != s and t not in nb_set:
            yield s, t
    for i in range(nb.size):
        for j in range(i + 1, nb.size):
            u, v = int(nb[i]), int(nb[j])
            if not g.has_edge(u, v):
                yield u, v


def _local_connectivity(mat: csr_matrix, src: int, dst: int):
    return maximum_flow(mat, 2 * src + 1, 2 * dst)


def _cut_from_flow(g: Graph, mat: csr_matrix, flow, src: int) -> np.ndarray:
    """Recover the source-side minimum vertex cut of a max flow from ``src``."""
    res = (mat - flow.flow).tocsr()
    res.eliminate_zeros()  # residual capacities are >= 0; keep the open arcs
    reach = np.zeros(2 * g.n, dtype=bool)
    reach[breadth_first_order(res, 2 * src + 1, return_predecessors=False)] = True
    return np.flatnonzero(reach[0::2] & ~reach[1::2]).astype(np.int32)


def vertex_connectivity(g) -> tuple:
    """Exact vertex connectivity and one minimum vertex cut.

    Returns ``(kappa, cut)`` where ``cut`` is a sorted node array: empty for
    disconnected graphs (kappa 0) and complete graphs (kappa n-1), otherwise
    the cut recovered from the first source/sink pair attaining the minimum
    under the fixed enumeration order.
    """
    g = as_graph(g)
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least two nodes")
    empty = np.empty(0, dtype=np.int32)
    if not is_connected(g):
        return 0, empty
    if g.is_complete():
        return g.n - 1, empty
    mat = _split_flow_matrix(g)
    best = None
    for src, dst in _flow_pairs(g):
        flow = _local_connectivity(mat, src, dst)
        value = int(flow.flow_value)
        if best is None or value < best:
            best, best_flow, best_src = value, flow, src
            # Stop at a proven lower bound: 1 (connected), or 2 once the
            # graph is known biconnected; no later pair can improve strictly.
            if best == 1 or (best == 2 and _is_biconnected(g)):
                break
    # A connected non-complete graph always yields at least one pair, and the
    # strict-improvement update keeps the first pair attaining the minimum.
    cut = _cut_from_flow(g, mat, best_flow, best_src)
    if cut.size != best:
        raise AssertionError("recovered cut size disagrees with connectivity")
    return best, cut


def _is_biconnected(g: Graph) -> bool:
    """Connected with no articulation point (Hopcroft-Tarjan on scipy's DFS).

    Every non-tree edge of a depth-first tree joins a node to an ancestor.
    So a non-root node v is an articulation point iff some child c has
    low(c) >= pre(v), low(c) being the least preorder number adjacent to c's
    subtree (the tree edge c-v only reaches pre(v)); the root is one iff it
    has more than one child.
    """
    n = g.n
    if n < 3:
        # Two nodes: biconnected iff the edge exists (complete graph case).
        return g.m == n * (n - 1) // 2
    order, parent = depth_first_order(_adjacency(g), 0, directed=True)
    if order.size < n:
        return False  # disconnected
    pre = np.empty(n, dtype=np.int64)
    pre[order] = np.arange(n)
    # Connected, so every node has a neighbour and no reduceat segment is empty.
    low = np.minimum.reduceat(pre[g.indices], g.indptr[:-1])[order].tolist()
    up = pre[parent[order[1:]]].tolist()  # up[i-1]: parent's preorder, node i
    for i in range(n - 1, 0, -1):
        p = up[i - 1]
        if p and low[i] >= p:
            return False
        if low[i] < low[p]:
            low[p] = low[i]
    return up.count(0) <= 1


def is_k_connected(g, k: int) -> bool:
    """True iff the vertex connectivity is at least k.

    Cheap refutations first (degree bound, then connectivity / biconnectivity
    for k <= 2); the flow-based enumeration runs only for k >= 3 and stops at
    the first local connectivity below k.
    """
    g = as_graph(g)
    if g.n < 2:
        raise ValueError("k-connectivity needs at least two nodes")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > g.n - 1:
        return False
    if int(g.degrees.min()) < k:
        return False
    if k == 1:
        return is_connected(g)
    if not is_connected(g):
        return False
    if k == 2:
        return _is_biconnected(g)
    if g.is_complete():
        return True
    mat = _split_flow_matrix(g)
    for src, dst in _flow_pairs(g):
        if int(_local_connectivity(mat, src, dst).flow_value) < k:
            return False
    return True


def connectivity_report(g) -> ConnectivityReport:
    """Full structural summary: degrees, connectivity, cut, components."""
    g = as_graph(g)
    kappa, cut = vertex_connectivity(g)
    comps = component_count(g)
    return ConnectivityReport(
        min_degree=min_degree(g),
        vertex_connectivity=kappa,
        min_vertex_cut=tuple(int(v) for v in cut),
        is_connected=comps == 1,
        component_count=comps,
    )
