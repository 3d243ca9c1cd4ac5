"""Exact structural analysis of sampled graphs.

Vertex connectivity follows Even and Tarjan: the global value is the minimum
of the local connectivities kappa(s, t) over (a) all nodes non-adjacent to a
fixed minimum-degree node s and (b) all non-adjacent pairs of neighbors of s.
Each local value is a fan: by Menger, kappa(x, y) is the most paths from x
to distinct neighbors of y in G - y that share only x.  :func:`_fan` counts
them exactly, in plain Python lists: one greedy pass over the neighbors
of x of one- and two-edge paths, and only when it falls short augmenting
paths on the node-split residual graph (every node v an arc v_in -> v_out
of capacity one).  :func:`vertex_connectivity` returns the minimum.  A fan
that stops below the bound ends on a failing augmenting search, and the
nodes that search enters but cannot pass are a cut of the pair; the fan of
the minimum pair hands that cut to :func:`minimum_vertex_cut`.

Almost every pair only confirms the bound, so it is skipped and only a pair
that lowers it is evaluated.  With b the least value so far, call u *tied*
when no separator of fewer than b nodes, s and u outside it, puts u apart
from s.  Every neighbor of s is tied, and so is every sink already reached,
whether its fan proved it or its value became b (Menger).  A sink t
with b paths to distinct tied nodes, disjoint apart from t, is tied too: a
separator of fewer than b nodes that avoids s and t misses one whole path,
whose tied end still reaches s.  So kappa(s, t) >= b, t cannot lower b, and
it is skipped.  The largest such fan is at least kappa(s, t), since every
s-t path meets N(s); so a sink whose exact fan stays below b does lower b.
A pair (x, y) of neighbors of s, part (b), takes the fan from x to N(y) in
G - y, which is kappa(x, y) itself.  A tie stays valid when b falls.  Only
pairs that cannot lower b are skipped, so the first pair of least kappa,
and the cut from it, are those of the full enumeration.

The k <= 2 checks of :func:`is_k_connected`, and so :func:`is_connected`,
run Even's test on the same fans (:func:`_even_test`): in a descending
degree order, the first k nodes pairwise and every later node against the
nodes before it.

All functions are pure; scratch state is per call, so concurrent use on
distinct graphs is safe.  scipy is imported only inside the functions that
run one of its searches, :func:`component_count` and the
:func:`maximum_flow` forwarder, so exact kappa, every connectivity check
and every command that needs no more never load it.
"""

from __future__ import annotations

import itertools
from numbers import Integral

import numpy as np

from .model import checked_int


class Graph:
    """Compact undirected graph: flat edge list plus CSR adjacency.

    Edges are validated (no self-loops, no duplicates), normalized to u < v
    and stored lexicographically sorted.  Node ids are 0..n-1.  Input that
    is already in that form (as the sampler emits it) is not sorted again.
    """

    __slots__ = ("n", "edges", "indptr", "indices")

    def __init__(self, n: int, edges):
        n = checked_int(n, "n", 1)
        # numpy casts True and 1.5 to 1, so only a list is read item by item
        e = edges if isinstance(edges, np.ndarray) else np.array(edges, dtype=object)
        e = e.reshape(-1, 2)
        if not (e.dtype.kind in "iu" or e.dtype == object and all(
                isinstance(v, Integral) and not isinstance(v, bool) for v in e.flat)):
            raise ValueError("edge endpoints must be integers")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        e = e.astype(np.int32)
        if e.size:
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            if not (e[:, 0] < e[:, 1]).all():
                e.sort(axis=1)
            codes = e[:, 0].astype(np.int64) * n + e[:, 1]
            if not (codes[1:] > codes[:-1]).all():
                codes.sort()
                if (codes[1:] == codes[:-1]).any():
                    raise ValueError("duplicate edges are not allowed")
                e = np.stack([(codes // n).astype(np.int32),
                              (codes % n).astype(np.int32)], axis=1)
        self.n = n
        self.edges = e
        # Row x lists the neighbors a < x (reversed half, ascending with the
        # sorted edges), then those b > x; a stable sort on x keeps that
        # order, and numpy radix-sorts keys that fit in 16 bits.
        both_u = np.concatenate([e[:, 1], e[:, 0]])
        both_v = np.concatenate([e[:, 0], e[:, 1]])
        key = both_u.astype(np.uint16) if n <= 1 << 16 else both_u
        self.indices = both_v[np.argsort(key, kind="stable")]
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

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


def min_degree(g: Graph) -> int:
    return int(g.degrees.min())


# The adjacency is symmetric, so its strong components are the components and
# a directed search needs no transpose, which scipy's undirected mode adds.
def component_count(g: Graph) -> int:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    adj = csr_matrix((np.ones(g.indices.size, dtype=np.int32), g.indices, g.indptr),
                     shape=(g.n, g.n))
    count, _ = connected_components(adj, directed=True, connection="strong")
    return int(count)


def is_connected(g: Graph) -> bool:
    return g.n == 1 or is_k_connected(g, 1)


def maximum_flow(*args, **kwargs):
    """scipy's maximum_flow, imported on call; perfbench's tracer wraps it."""
    from scipy.sparse.csgraph import maximum_flow
    return maximum_flow(*args, **kwargs)


def _fan(adj: list, t: int, ends: list, need: int, avoid: int = -1,
         cut: list | None = None) -> int:
    """The most paths from ``t`` to distinct nodes of ``ends`` that share
    only t and miss ``avoid``, capped at ``need`` (exact).

    One greedy pass over the neighbors of t first, which returns as soon as
    the count reaches ``need``: a neighbor z in ``ends`` counts at once
    (path t, z), and any other neighbor w takes the first node z of
    ``ends`` next to it that is neither t, a neighbor of t nor an end
    already taken (path t, w, z).  Only when the pass falls short are its
    paths written into a map of predecessors, and one depth-first search
    per step looks for an augmenting path in the residual graph of the
    node-split network (each node v an arc v_in -> v_out of capacity one,
    each edge both ways), checking the neighbors of each node it enters for
    a free end before it goes deeper; when none is left the paths are a
    largest fan (Menger, Ford-Fulkerson).  ``adj`` maps each node to a
    sequence of its neighbors; ``ends`` is a node mask (a list), only read, and t never
    counts as an end.  ``avoid`` is -1 or a node that is neither next to t
    nor an end.

    A search that finds no free end has reached every out node it can.
    When it returns short of ``need``, the contents of a given list ``cut``
    are replaced by the nodes next to a reached node whose own out node was
    not reached, ascending: the minimal cut on t's side, the same for every
    largest fan.  A return at ``need`` leaves ``cut`` as it was.
    """
    nt = adj[t]
    taken = {t, *nt}
    hops = []  # (w, z): the two-edge path t, w, z
    found = 0
    for w in nt:
        if not ends[w]:
            for z in adj[w]:
                if ends[z] and z not in taken:
                    break
            else:
                continue
            taken.add(z)
            hops.append((w, z))
        found += 1
        if found == need:
            return need
    pred = {z: t for z in nt if ends[z]}  # node -> the node before it on its path
    pred[t] = t  # t is never a free end, and its out node is the root
    for w, z in hops:
        pred[w], pred[z] = t, w
    while found < need:
        # back[w] = (v, u): the out node of w was entered from that of v
        # through u_in, and the path makes v the node before u; u is None
        # when it went back through v's own split arc, which frees v.
        back = {t: None, avoid: None}
        stack = [(t, iter(nt))]
        end = -1
        while stack:
            v, rest = stack[-1]
            for u in rest:
                w = pred.get(u, u)  # a used node only leads back to its pred
                if w not in back:
                    back[w] = (v, u)
                    break
            else:  # last, back through v's own split arc if v is used
                stack.pop()
                w = pred.get(v, t)
                if w in back:
                    continue
                back[w] = (v, None)
            nw = adj[w]
            for u in nw:
                if ends[u] and u not in pred:
                    end = u
                    break
            if end >= 0:
                v = w
                break
            stack.append((w, iter(nw)))
        if end < 0:
            if cut is not None:
                cut[:] = sorted({u for w in back if w != avoid
                                 for u in adj[w]}.difference(back))
            return found
        pred[end] = v
        while v != t:
            v, u = back[v]
            if u is None:
                del pred[v]
            else:
                pred[u] = v
        found += 1
    return need


def _weakest_pair(g: Graph) -> tuple:
    """``(kappa, (src, dst), cut)``: the first Even-Tarjan pair of least
    kappa and the minimal cut on its src side, a list of kappa nodes.

    A disconnected graph gives ``(0, None, [])`` and a complete one
    ``(n - 1, None, [])``; fewer than two nodes raise ValueError.

    Fixed deterministic order: first every node t non-adjacent to the lowest
    minimum-degree node s (ascending), then every non-adjacent pair of
    neighbors of s (ascending lexicographic).  With b the least value so
    far, only a pair below b is evaluated, and it replaces the best pair
    (module docstring).  A sink t is skipped when its direct count, its tied
    neighbors in N(s) or below it (known before the loop), reaches b, or
    when ``_fan(adj, t, tied, b) >= b``.  The first sink runs no skip fan,
    since b > delta >= kappa(s, t) there.  Every other pair (src, dst) takes
    ``_fan(adj, src, N(dst), b, dst)``, which is its value when below b;
    such a fan ends on a failing search and leaves the pair's cut in the
    one ``cut`` list every value fan shares.  The neighbor lists ``adj``
    are built once per call and each N(dst) mask once per dst; the tied
    mask holds N(s), and each sink joins it as it is reached, before its
    fan.  The one stop is a value of 0, which returns ``(0, None, [])``; an
    isolated node returns it before the loop.  In a disconnected graph
    the first sink of a component without s has no tied neighbor, so it is
    evaluated and its value is 0.  Otherwise the loop runs to the end.
    """
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least two nodes")
    if g.is_complete():
        return g.n - 1, None, []
    degrees = g.degrees
    s = int(np.argmin(degrees))
    if degrees[s] == 0:
        return 0, None, []
    n, ptr, idx = g.n, g.indptr.tolist(), g.indices.tolist()
    adj = [idx[ptr[v]:ptr[v + 1]] for v in range(n)]
    nb = adj[s]
    tied = [False] * n
    for v in nb:
        tied[v] = True
    # edge (a, b), a < b: a is tied when b is reached unless a == s, and b
    # is tied when a is reached if b is in N(s)
    a, b = g.edges[:, 0], g.edges[:, 1]
    in_nb = np.zeros(n, dtype=bool)
    in_nb[nb] = True
    direct = np.bincount(np.concatenate([b[a != s], a[in_nb[b]]]),
                         minlength=n).tolist()
    masks = {}  # dst -> the mask of N(dst); each y of part (b) recurs
    pairs = itertools.chain(
        [(s, t) for t in range(n) if t != s and not tied[t]],  # tied is N(s)
        ((u, v) for i, u in enumerate(nb) for nu in [set(adj[u])]
         for v in nb[i + 1:] if v not in nu))
    # kappa(s, t) <= delta, so delta + 1 lets the first sink set the pair.
    best = len(nb) + 1
    pair, cut = None, []
    for src, dst in pairs:
        if src == s:
            tied[dst] = True  # its fan or its value proves it below
            if direct[dst] >= best or (
                    best <= len(nb) and _fan(adj, dst, tied, best) >= best):
                continue
        near = masks.get(dst)
        if near is None:
            near = masks[dst] = [False] * n
            for v in adj[dst]:
                near[v] = True
        # kappa(src, dst) is the fan from src to N(dst) in G - dst
        value = _fan(adj, src, near, best, dst, cut=cut)
        if value < best:
            if value == 0:
                return 0, None, []
            best, pair = value, (src, dst)
    return best, pair, cut


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity, from the pair loop alone (no flow).

    0 for a disconnected graph and n-1 for a complete one.
    """
    return _weakest_pair(g)[0]


def minimum_vertex_cut(g: Graph) -> tuple:
    """Exact vertex connectivity and one minimum vertex cut.

    Returns ``(kappa, cut)`` where ``cut`` is a sorted int32 node array:
    empty for disconnected graphs (kappa 0) and complete graphs (kappa
    n-1), otherwise the minimal cut on the source side of the first
    source/sink pair attaining the minimum under the fixed enumeration
    order, read off the failing search of that pair's own fan from the
    source, so it costs no fan beyond those of :func:`vertex_connectivity`.
    Every largest fan of the pair gives that same cut.
    """
    kappa, _, cut = _weakest_pair(g)
    # a complete graph has no cut; any other has one of kappa nodes
    if kappa < g.n - 1 and len(cut) != kappa:
        raise AssertionError("recovered cut size disagrees with connectivity")
    return kappa, np.array(cut, dtype=np.int32)


class _Rows(dict):
    """Neighbour rows, each a slice of the CSR made on its first use."""

    __slots__ = ("indices", "ptr")

    def __init__(self, g: Graph):
        self.indices, self.ptr = memoryview(g.indices), g.indptr.tolist()

    def __missing__(self, v: int):
        row = self[v] = self.indices[self.ptr[v]:self.ptr[v + 1]]
        return row


def _even_test(g: Graph, k: int) -> bool:
    """True iff the vertex connectivity is at least k, for a graph of
    minimum degree at least k (Even's test, SIAM J. Comput. 4, 1975).

    Order the nodes v_1, ..., v_n by descending degree (stable).  G is
    k-connected iff (a) every non-adjacent pair among v_1..v_k has kappa
    >= k, the fan ``_fan(adj, x, N(y), k, y)``, and (b) every later node
    v_j reaches k distinct earlier nodes by paths that share only v_j,
    ``_fan(adj, v_j, earlier, k)``.  Both hold in a k-connected graph
    (Menger, and its fan form: j > k leaves at least k earlier nodes).
    Conversely let S be a separator with |S| < k: some v_i with i <= k lies
    outside S; let v_j be the earliest node outside S and outside v_i's
    side of G - S.  If j <= k, the pair check of (v_i, v_j) fails.
    Otherwise every earlier node lies in S or on v_i's side, so S cuts v_j
    off from all of them and its fan fails.  A node with k earlier
    neighbours needs no fan; one ``bincount`` over the edges counts them.
    The fans enter few nodes, so a node's row is sliced from the CSR only
    when a fan first reads it.
    """
    n, deg = g.n, g.degrees
    # numpy radix-sorts keys that fit in 16 bits
    key = (deg.max() - deg).astype(np.uint16) if n <= 1 << 16 else -deg
    order = np.argsort(key, kind="stable")
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    # earlier_nb[j]: the neighbours of order[j] before it in the order; each
    # edge counts once, at its later end
    pos = np.take(rank, g.edges)
    earlier_nb = np.bincount(np.maximum(pos[:, 0], pos[:, 1]), minlength=n)
    fans = (np.flatnonzero(earlier_nb[k:] < k) + k).tolist()
    order = order.tolist()
    adj = _Rows(g)
    head = order[:k]
    for i, x in enumerate(head):
        for y in head[i + 1:]:
            if y in adj[x]:
                continue
            near = [False] * n
            for v in adj[y]:
                near[v] = True
            if _fan(adj, x, near, k, y) < k:
                return False
    earlier = [False] * n
    done = 0
    for j in fans:
        for v in order[done:j]:
            earlier[v] = True
        done = j
        if _fan(adj, order[j], earlier, k) < k:
            return False
    return True


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff the vertex connectivity is at least k (a positive integer).

    The degree bound refutes first.  For k <= 2 Even's test decides on the
    fans of the few nodes that need one (:func:`_even_test`); for k >= 3
    it reads the exact value from :func:`vertex_connectivity`.
    """
    if g.n < 2:
        raise ValueError("k-connectivity needs at least two nodes")
    if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
        raise ValueError("k must be a positive integer")
    if int(g.degrees.min()) < k:  # delta <= n - 1, so also every k > n - 1
        return False
    if k <= 2:
        return _even_test(g, k)
    return vertex_connectivity(g) >= k
