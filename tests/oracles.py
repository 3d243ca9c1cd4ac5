"""Independent brute-force oracles used to validate the fast paths.

Nothing here shares code with the package: key-share probabilities come from
literal enumeration of ring pairs, connectivity (global and between two
nodes) from exhaustive subset removal, ring intersection from a quadratic
scan, the degree law from binomial sums or from summing over every outcome
of a tiny model, key rings and channel indicators from one scalar draw at a
time.  Deliberately slow and simple.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, prod


def enumerate_share_prob(P: int, Ki: int, Kj: int) -> Fraction:
    """Exact share probability by enumerating every (ring_i, ring_j) pair.

    Rings are encoded as bitmasks over the pool so the double loop stays
    affordable up to P around 12.
    """
    masks_i = [sum(1 << b for b in comb) for comb in combinations(range(P), Ki)]
    masks_j = [sum(1 << b for b in comb) for comb in combinations(range(P), Kj)]
    hits = sum(1 for a in masks_i for b in masks_j if a & b)
    return Fraction(hits, len(masks_i) * len(masks_j))


def binomial_ratio_share_prob(P: int, Ki: int, Kj: int) -> Fraction:
    """Share probability from the direct binomial-coefficient ratio."""
    if Ki + Kj > P:
        return Fraction(1)
    return 1 - Fraction(comb(P - Ki, Kj), comb(P, Kj))


def low_degree_expectation(n: int, P: int, mu, K, alpha, k: int) -> Fraction:
    """Exact expected number of nodes with degree below ``k``.

    Fix a node v of class c together with its key ring.  Every other node u
    draws its class, ring and channel independently of the rest, and by
    symmetry the chance that u shares a key with v does not depend on which
    ring v holds; so the events "u is adjacent to v" are independent with
    probability alpha * Lambda_c, Lambda_c = sum_j mu_j p_cj, and
    deg(v) ~ Bin(n - 1, alpha * Lambda_c) exactly.  Summing over classes and
    nodes gives E = n * sum_c mu_c * P[Bin(n - 1, alpha * Lambda_c) <= k - 1].

    ``mu`` and ``alpha`` are taken as exact rationals (a float means its
    exact binary value), so the result is an exact ``Fraction``.
    """
    mu = [Fraction(m) for m in mu]
    alpha = Fraction(alpha)
    trials = n - 1
    total = Fraction(0)
    for mu_c, Kc in zip(mu, K):
        q = alpha * sum(mu_j * binomial_ratio_share_prob(P, Kc, Kj)
                        for mu_j, Kj in zip(mu, K))
        # One common denominator b**(n-1) keeps the tail sum in integers.
        a, b = q.numerator, q.denominator
        tail = sum(comb(trials, i) * a**i * (b - a)**(trials - i)
                   for i in range(min(k, trials + 1)))
        total += mu_c * Fraction(tail, b**trials)
    return n * total


def enumerate_low_degree_expectation(n: int, P: int, mu, K, alpha,
                                     k: int) -> Fraction:
    """Expected number of nodes with degree below ``k`` by exhaustion.

    Every joint outcome is visited with its exact probability: each node's
    class and ring (all rings of that class's size), then every on/off
    state of every channel.  The channel sum for a given key-sharing
    pattern is cached, since channels are drawn independently of the keys.
    Only affordable for n up to 4 and P around 5.
    """
    mu = [Fraction(m) for m in mu]
    alpha = Fraction(alpha)
    pairs = list(combinations(range(n), 2))
    node_states = [(Fraction(mu_c, comb(P, Kc)), sum(1 << b for b in ring))
                   for mu_c, Kc in zip(mu, K)
                   for ring in combinations(range(P), Kc)]

    def low_count(edge_mask: int) -> int:
        deg = [0] * n
        for bit, (u, v) in enumerate(pairs):
            if edge_mask >> bit & 1:
                deg[u] += 1
                deg[v] += 1
        return sum(1 for d in deg if d < k)

    channel_states = [
        (alpha**sum(on) * (1 - alpha)**(len(on) - sum(on)),
         sum(1 << b for b, bit in enumerate(on) if bit))
        for on in product((0, 1), repeat=len(pairs))]

    channel_sum = {}
    total = Fraction(0)
    for config in product(node_states, repeat=n):
        weight = prod(w for w, _ in config)
        key_mask = sum(1 << b for b, (u, v) in enumerate(pairs)
                       if config[u][1] & config[v][1])
        if key_mask not in channel_sum:
            channel_sum[key_mask] = sum(w * low_count(key_mask & mask)
                                        for w, mask in channel_states)
        total += weight * channel_sum[key_mask]
    return total


def floyd_ring(u, P: int) -> list:
    """Floyd's subset sampling (Bentley-Floyd 1987), one node at a time.

    Draws a ring of len(u) distinct keys from range(P), consuming u in
    order: step s picks t = floor(u[s] * (j + 1)) for j = P - K + s and keeps
    j instead when t is already chosen.  Returns the ring sorted.
    """
    K = len(u)
    chosen = set()
    for step, j in enumerate(range(P - K, P)):
        t = int(u[step] * (j + 1))
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def per_row_channel_pairs(rng, n: int, alpha: float) -> list:
    """Channel-on pairs from one draw call per row, in row-major order.

    Row x takes n - 1 - x uniforms from ``rng`` (a numpy Generator), one per
    pair (x, x+1)..(x, n-1); a pair is on when its uniform is below alpha.
    """
    on = []
    for x in range(n - 1):
        u = rng.random(n - 1 - x).tolist()
        on.extend((x, x + 1 + i) for i in range(n - 1 - x) if u[i] < alpha)
    return on


def naive_intersects(a, b) -> bool:
    """Quadratic membership scan."""
    return any(x == y for x in a for y in b)


def factor_pairs(rng, rings, alpha: float) -> tuple:
    """The two factor edge sets of a sample, rebuilt from its rings and seed.

    ``rng`` is a fresh stream of the sample's seed (a numpy Generator).  It
    skips one uniform per node (the class) and one per key (the rings), then
    replays the channel one row at a time.  Returns the key-sharing pairs, a
    set found by scanning every pair of rings, and the channel-on pairs, a
    row-major list.
    """
    n = len(rings)
    rng.random(n)
    rng.random(sum(len(ring) for ring in rings))
    key = {(x, y) for x, y in combinations(range(n), 2)
           if naive_intersects(rings[x], rings[y])}
    return key, per_row_channel_pairs(rng, n, alpha)


def _adjacency(n: int, edges) -> dict:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    return adj


def connected_after_removal(n: int, edges, removed=()) -> bool:
    """DFS connectivity of the graph minus ``removed``; <2 survivors count
    as connected."""
    removed = set(int(v) for v in removed)
    adj = _adjacency(n, edges)
    alive = [v for v in range(n) if v not in removed]
    if len(alive) < 2:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def brute_vertex_connectivity(n: int, edges) -> int:
    """Minimum number of removals that disconnect; n-1 when none can.

    Node sets are bitmasks, so each of the many removal sets costs one
    search over its survivors and no adjacency rebuild; as in
    :func:`connected_after_removal`, fewer than two survivors count as
    connected.
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[int(u)] |= 1 << int(v)
        nbr[int(v)] |= 1 << int(u)

    def connected(alive):
        if alive & (alive - 1) == 0:
            return True  # <2 survivors
        seen = frontier = alive & -alive
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & alive & ~seen
            seen |= new
            frontier |= new
        return seen == alive

    full = (1 << n) - 1
    if not connected(full):
        return 0
    for c in range(1, n - 1):
        for sub in combinations([1 << v for v in range(n)], c):
            if not connected(full & ~sum(sub)):
                return c
    return n - 1


def brute_local_connectivity(n: int, edges, s: int, t: int) -> int:
    """Fewest nodes other than s and t whose removal separates non-adjacent
    s and t (by Menger, the most internally disjoint s-t paths)."""
    adj = _adjacency(n, edges)
    if t in adj[s]:
        raise ValueError("s and t are adjacent")
    others = [v for v in range(n) if v not in (s, t)]
    for c in range(len(others) + 1):
        for sub in combinations(others, c):
            blocked = set(sub)
            seen = {s}
            stack = [s]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in blocked and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if t not in seen:
                return c
    raise AssertionError("removing every other node must separate s and t")


def brute_min_cuts(n: int, edges, size: int) -> list:
    """All vertex subsets of the given size whose removal disconnects."""
    return [sub for sub in combinations(range(n), size)
            if not connected_after_removal(n, edges, sub)]
