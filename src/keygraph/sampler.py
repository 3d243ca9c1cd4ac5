"""Seeded sampling of one network realization.

A sample consists of per-node class labels, per-node key rings, and the
secure-link edge set: pairs that share a key *and* whose channel is on.
The draw order is fixed and documented so that a ``(params, seed)`` pair
always reproduces the same network, bit for bit:

1. class labels: one uniform per node, inverted through the cumulative
   class distribution;
2. key rings: nodes in index order, each consuming exactly ``K[class]``
   uniforms.  Rings use Floyd's subset sampling when the ring is small
   relative to the pool (K <= P/64) and a sparse partial Fisher-Yates
   shuffle otherwise; both map each uniform u to an integer below bound b
   as floor(u * b);
3. channel indicators: one uniform per unordered node pair, row-major
   (pairs (0,1)..(0,n-1), then (1,2)..), compared against alpha.

The work is batched without changing that order.  Rings of one size draw
together (only rows with a repeated draw run Floyd's steps).  Key-sharing
pairs come from a key -> holders index, not a test of every pair: each
marks one byte at its own position in the channel stream, so the channel
reads the raw Philox words of whole-row blocks only at the marked
positions, and the marks come out deduplicated and in row-major order.
The result equals the per-node, per-row, per-pair loops over the same
stream, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import Graph
from .model import ModelParams
from .rng import SeedSpec

__all__ = ["SeedSpec", "SampledNetwork", "sample_network", "write_network",
           "read_network"]

# Floyd's sampling avoids O(P) state but degrades as K/P grows; cutoff per pool.
_FLOYD_MAX_RING_FRACTION = 64
# Channel uniforms drawn per rng.random call (whole rows), bounding memory.
_CHANNEL_CHUNK = 1 << 20


@dataclass
class SampledNetwork:
    """One realized network.

    ``classes`` holds 1-based class labels per node.  Key rings are stored
    flat (``ring_data`` sliced by ``ring_indptr``) and exposed per node via
    :meth:`ring`.  ``edges`` is the secure-link edge set, one row per
    unordered pair (u < v), lexicographically sorted.
    """

    params: ModelParams
    classes: np.ndarray
    ring_data: np.ndarray
    ring_indptr: np.ndarray
    edges: np.ndarray

    @property
    def n(self) -> int:
        return self.params.n

    def ring(self, x: int) -> np.ndarray:
        """Sorted key ring of node x (a view, do not mutate)."""
        return self.ring_data[self.ring_indptr[x]:self.ring_indptr[x + 1]]

    def graph(self) -> Graph:
        """A new adjacency structure of the secure-link edges."""
        return Graph(self.n, self.edges)


def _draw_rings(u: np.ndarray, P: int) -> np.ndarray:
    """Sorted key rings of size K from [0, P), one per row of ``u`` (m, K).

    Row i consumes u[i] in order.  Small rings (K <= P/64) use Floyd's subset
    sampling: step s draws t = floor(u[:, s] * (j+1)) with j = P-K+s, and
    takes j instead when t is already in the row.  A row whose K draws are
    distinct never takes j, so it is just its sorted draws.  In the other
    rows each draw equal to an earlier draw takes its j at once; that is
    Floyd's result unless a later draw equals such a j, so only rows left
    with a repeated key run the steps.
    """
    m, K = u.shape
    if K > P // _FLOYD_MAX_RING_FRACTION:
        # Partial Fisher-Yates over an implicit identity array, sparse storage.
        out = np.empty((m, K), dtype=np.int64)
        for row, ur in zip(out, u):
            perm = {}
            for j in range(K):
                t = j + int(ur[j] * (P - j))
                row[j] = perm.get(t, t)
                perm[t] = perm.get(j, j)
        out.sort(axis=1)
        return out
    t = (u * np.arange(P - K + 1, P + 1)).astype(np.int64)
    out = np.sort(t, axis=1)
    repeat = np.flatnonzero((out[:, 1:] == out[:, :-1]).any(axis=1))
    if repeat.size:
        t = t[repeat]
        # a stable sort puts each repeated draw after its first occurrence
        order = np.argsort(t, axis=1, kind="stable")
        rows, cols = np.nonzero(np.diff(np.take_along_axis(t, order, 1), axis=1) == 0)
        later = order[rows, cols + 1]
        ring = t.copy()
        ring[rows, later] = P - K + later
        ring.sort(axis=1)
        left = np.flatnonzero((ring[:, 1:] == ring[:, :-1]).any(axis=1))
        if left.size:
            t = t[left]
            for step, j in enumerate(range(P - K, P)):
                t[(t[:, :step] == t[:, step, None]).any(axis=1), step] = j
            t.sort(axis=1)
            ring[left] = t
        out[repeat] = ring
    return out


def _check_pool(n: int, P: int) -> None:
    """Reject a pool whose largest key, packed ``key << bits | node`` by
    :func:`_pair_positions`, would not fit in int64, or that exceeds 2^53,
    past which the float64 draw floor(u * b) cannot reach every key."""
    bits = (n - 1).bit_length()
    if (P - 1) << bits >= 2**63:
        raise ValueError(f"P={P} is too large for n={n}: the key -> holder "
                         f"index needs (P - 1) << {bits} < 2^63")
    if P > 2**53:
        raise ValueError(f"P={P} is too large for the key draw: floor(u * b) "
                         "with a float64 u reaches every key only for P <= 2^53")


def _channel_start(n: int) -> np.ndarray:
    """start[x] = x(2n-x-1)/2, where row x of the channel stream begins.

    Pair (x, y), x < y, reads word start[x] + y-x-1; start[n-1] = start[n]
    is the stream's length.
    """
    start = np.arange(n + 1, dtype=np.int64)
    return start * (2 * n - start - 1) // 2


def _pair_positions(n: int, ring_data: np.ndarray, ring_node: np.ndarray) -> np.ndarray:
    """Channel positions of the node pairs whose rings intersect.

    A key -> holders index: the (key, node) incidences, packed as
    ``key << bits | node`` and sorted, list each key's holders in ascending
    order.  Holders d apart under one key form a pair x < y, at position
    start[x] + y-x-1 (:func:`_channel_start`); step d keeps only the
    incidences whose key run reaches d further, a set that shrinks as d
    grows.  A pair appears once per shared key, in no particular order.
    """
    bits = (n - 1).bit_length()
    incidence = np.sort(ring_data << bits | ring_node)
    keys = np.append(incidence >> bits, -1)  # the sentinel ends the last run
    nodes = incidence & ((1 << bits) - 1)
    base = (_channel_start(n)[:-1] - np.arange(n) - 1)[nodes]
    pos = []
    i = np.flatnonzero(keys[1:] == keys[:-1])
    d = 1
    while i.size:
        pos.append(base[i] + nodes[i + d])
        d += 1
        i = i[keys[i + d] == keys[i]]
    return np.concatenate(pos) if pos else np.empty(0, dtype=np.int64)


def _mark_shared(pos: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Byte mask over channel positions [lo, hi): True where a pair in
    ``pos`` (from :func:`_pair_positions`) shares a key."""
    mark = np.zeros(hi - lo, dtype=bool)
    mark[pos[(pos >= lo) & (pos < hi)] - lo] = True
    return mark


def _channel_on(words: np.ndarray, alpha: float) -> np.ndarray:
    """Channel states from raw Philox words: ``Generator.random() < alpha``.

    Generator.random turns word w into u = (w >> 11) * 2**-53, exactly, so
    u < alpha iff (w >> 11) < ceil(alpha * 2**53): the same test, bit for
    bit, on the same stream, without converting every word to a double.
    """
    return (words >> 11) < np.uint64(math.ceil(alpha * 2.0 ** 53))


def sample_network(params: ModelParams, seed: SeedSpec) -> SampledNetwork:
    """Draw one network realization, fully determined by (params, seed).

    A pool too large for the key draw or the key index raises ValueError.
    """
    n, P, alpha, r = params.n, params.P, params.alpha, params.r
    _check_pool(n, P)
    rng = seed.stream()

    cum = np.cumsum(params.mu)
    cls0 = np.searchsorted(cum, rng.random(n), side="right")
    np.clip(cls0, 0, r - 1, out=cls0)  # guard the float-rounding tail of cum

    sizes = np.asarray(params.K, dtype=np.int64)[cls0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    u_rings = rng.random(int(indptr[-1]))
    ring_data = np.empty(int(indptr[-1]), dtype=np.int64)
    for K in sorted(set(params.K)):
        pos = indptr[:-1][sizes == K, None] + np.arange(K)
        ring_data[pos] = _draw_rings(u_rings[pos], P)
    ring_node = np.repeat(np.arange(n, dtype=np.int64), sizes)

    shared = _pair_positions(n, ring_data, ring_node)
    start = _channel_start(n)
    kept = []
    x0 = 0
    while x0 < n - 1:
        # Rows [x0, x1): at most _CHANNEL_CHUNK words, or a single long row.
        x1 = int(np.searchsorted(start, start[x0] + _CHANNEL_CHUNK, "right")) - 1
        x1 = max(x0 + 1, x1)
        lo, hi = int(start[x0]), int(start[x1])
        words = rng.bit_generator.random_raw(hi - lo)
        flat = np.flatnonzero(_mark_shared(shared, lo, hi))
        kept.append(flat[_channel_on(words[flat], alpha)] + lo)
        x0 = x1
    on = np.concatenate(kept)
    x = np.searchsorted(start, on, "right") - 1
    edges = np.empty((on.size, 2), dtype=np.int32)
    edges[:, 0] = x
    edges[:, 1] = on - start[x] + x + 1

    return SampledNetwork(
        params=params,
        classes=(cls0 + 1).astype(np.int16),
        ring_data=ring_data,
        ring_indptr=indptr,
        edges=edges,
    )


def write_network(net: SampledNetwork, path) -> None:
    """Dump one sample as plain text.

    Format: header ``n P alpha r``, then the class distribution line, the
    ring-size line, one ``class keycount k1 k2 ...`` line per node, and one
    ``u v`` line per secure-link edge.
    """
    p = net.params
    lines = [
        f"{p.n} {p.P} {p.alpha!r} {p.r}",
        " ".join(repr(m) for m in p.mu),
        " ".join(str(k) for k in p.K),
    ]
    for x in range(net.n):
        ring = net.ring(x)
        lines.append(f"{net.classes[x]} {ring.size} " + " ".join(str(k) for k in ring))
    for u, v in net.edges:
        lines.append(f"{u} {v}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_network(path) -> SampledNetwork:
    """Load a sample written by :func:`write_network`.

    Everything the format fixes is checked: the header is a valid parameter
    set whose pool fits the key draw and index; each node line has a class
    label in 1..r and a ring of K[class] keys, strictly increasing within
    [0, P); each edge joins two distinct nodes in range that share a key,
    and no pair appears twice.  A violation raises ValueError naming the
    file and the line (and the node or edge).  Edges come back as
    :class:`SampledNetwork` holds them, u < v in lexicographic order,
    whatever the order of the lines and their ends.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate((raw.strip() for raw in fh), 1) if ln]

    def bad(no, what):
        return ValueError(f"{path}, line {no}: {what}")

    def ints(no, text):
        try:
            return [int(v) for v in text.split()]
        except ValueError:
            raise bad(no, f"expected integers, got {text!r}") from None

    if len(lines) < 3:
        raise ValueError(f"{path}: the header needs three lines")
    try:
        n_s, P_s, alpha_s, r_s = lines[0][1].split()
        n, P, r = int(n_s), int(P_s), int(r_s)
        mu = [float(v) for v in lines[1][1].split()]
        K = [int(v) for v in lines[2][1].split()]
        if len(mu) != r or len(K) != r:
            raise ValueError("class count mismatch")
        params = ModelParams(n=n, mu=mu, K=K, P=P, alpha=float(alpha_s))
        _check_pool(n, P)
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from None
    if len(lines) < 3 + n:
        raise ValueError(f"{path}: {n} node lines expected, found {len(lines) - 3}")
    classes = np.empty(n, dtype=np.int16)
    indptr = np.zeros(n + 1, dtype=np.int64)
    rings = []
    for x in range(n):
        no, text = lines[3 + x]
        parts = ints(no, text)
        if len(parts) < 2 or len(parts) - 2 != parts[1]:
            raise bad(no, f"node {x} must list 'class keycount' and that many keys")
        c, keys = parts[0], parts[2:]
        if not 1 <= c <= r:
            raise bad(no, f"node {x} has class {c}, outside 1..{r}")
        if len(keys) != K[c - 1]:
            raise bad(no, f"node {x} of class {c} holds {len(keys)} keys, not {K[c - 1]}")
        if keys[0] < 0 or keys[-1] >= P or any(a >= b for a, b in zip(keys, keys[1:])):
            raise bad(no, f"node {x}: keys must increase strictly within [0, {P})")
        classes[x] = c
        rings.append(keys)
        indptr[x + 1] = indptr[x] + len(keys)
    edge_lines = lines[3 + n:]
    edges = np.empty((len(edge_lines), 2), dtype=np.int64)
    for i, (no, text) in enumerate(edge_lines):
        pair = ints(no, text)
        if len(pair) != 2 or not all(0 <= v < n for v in pair):
            raise bad(no, f"an edge line holds two node ids in 0..{n - 1}")
        edges[i] = pair
    ring_data = np.array([k for ring in rings for k in ring], dtype=np.int64)
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    start = _channel_start(n)
    codes = start[lo] + hi - lo - 1  # channel positions; self-loops fail first
    ring_node = np.repeat(np.arange(n), np.diff(indptr))
    shared = _mark_shared(_pair_positions(n, ring_data, ring_node), 0, int(start[n]))
    repeat = np.ones(codes.size, dtype=bool)
    repeat[np.unique(codes, return_index=True)[1]] = False
    for fault, what in ((lo == hi, "self-loop"),
                        (repeat, "repeats an earlier edge"),
                        (~shared[codes], "its endpoints share no key")):
        if fault.any():
            i = int(np.argmax(fault))
            raise bad(edge_lines[i][0], f"edge {edges[i, 0]} {edges[i, 1]}: {what}")
    order = np.argsort(codes)  # channel positions run in lexicographic order
    return SampledNetwork(
        params=params,
        classes=classes,
        ring_data=ring_data,
        ring_indptr=indptr,
        edges=np.stack([lo, hi], axis=1)[order].astype(np.int32),
    )
