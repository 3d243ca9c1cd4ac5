"""Connectivity analysis against the exhaustive brute-force oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  maximum_flow)

import keygraph.analysis
from keygraph import (Graph, ModelParams, SeedSpec, is_connected,
                      is_k_connected, min_degree, minimum_vertex_cut,
                      sample_network, vertex_connectivity)
from keygraph.analysis import _fan, _weakest_pair, component_count
from keygraph.experiments import fig2_spec, fig4_specs
from oracles import (brute_local_connectivity, brute_min_cuts,
                     brute_vertex_connectivity, connected_after_removal)


def graph(n, edges):
    return Graph(n, np.array(edges, dtype=np.int32).reshape(-1, 2))


def random_graph(rng, n, density):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < density
    return Graph(n, np.stack([iu[keep], ju[keep]], axis=1))


PATH3 = [(0, 1), (1, 2)]
CYCLE5 = [(i, (i + 1) % 5) for i in range(5)]
K4 = list(itertools.combinations(range(4), 2))
K5 = list(itertools.combinations(range(5), 2))
# two K5s joined by node 0 (the lowest min-degree node, so s) and one edge
# 3-8: every minimum cut holds 0, so only a pair of neighbours of 0 finds
# kappa 2; every sink of 0 gives 3
TWO_K5 = (list(itertools.combinations(range(1, 6), 2))
          + list(itertools.combinations(range(6, 11), 2))
          + [(0, 1), (0, 2), (0, 6), (0, 7), (3, 8)])


@st.composite
def small_graphs(draw, min_n=3, max_n=12):
    n = draw(st.integers(min_n, max_n))
    keep = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    iu, ju = np.triu_indices(n, 1)
    keep = np.array(keep, dtype=bool)
    return Graph(n, np.stack([iu[keep], ju[keep]], axis=1))


def biconnected_oracle(n, edges):
    return connected_after_removal(n, edges) and all(
        connected_after_removal(n, edges, [v]) for v in range(n))


def split_flow(g, src, dst):
    """scipy max flow from src_out to dst_in on the node-split graph."""
    n, (u, v) = g.n, g.edges.T
    rows = np.concatenate([2 * np.arange(n), 2 * u + 1, 2 * v + 1])
    cols = np.concatenate([2 * np.arange(n) + 1, 2 * v, 2 * u])
    caps = np.concatenate([np.ones(n, np.int32), np.full(2 * g.m, n, np.int32)])
    mat = csr_matrix((caps, (rows, cols)), shape=(2 * n, 2 * n))
    return mat, maximum_flow(mat, 2 * src + 1, 2 * dst)


def even_tarjan_pairs(g):
    """Every Even-Tarjan pair in the library's order: the lowest
    minimum-degree node s with each non-neighbour (ascending), then each
    non-adjacent pair of neighbours of s (lexicographic)."""
    adj = {v: set(g.neighbors(v).tolist()) for v in range(g.n)}
    s = min(range(g.n), key=lambda v: (len(adj[v]), v))
    nb = sorted(adj[s])
    return ([(s, t) for t in range(g.n) if t != s and t not in adj[s]]
            + [(u, v) for u, v in itertools.combinations(nb, 2) if v not in adj[u]])


def neighbor_lists(g):
    """Each node's neighbors as a list, the form _fan walks."""
    return [g.neighbors(v).tolist() for v in range(g.n)]


def count_calls(monkeypatch, *names):
    """Count calls of the named keygraph.analysis functions, in place."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(keygraph.analysis, name)

        def counted(*a, _fn=fn, _name=name, **kw):
            calls[_name] += 1
            return _fn(*a, **kw)

        monkeypatch.setattr(keygraph.analysis, name, counted)
    return calls


def count_fans(monkeypatch, calls):
    """Add to ``calls`` counts of the _fan calls and of the pairs the kappa
    loop evaluates, in place: the calls with an avoided node whose result
    falls short of need."""
    calls.update(fans=0, pair_values=0)
    fan = keygraph.analysis._fan

    def counted(adj, t, ends, need, avoid=-1, **kw):
        found = fan(adj, t, ends, need, avoid, **kw)
        calls["fans"] += 1
        calls["pair_values"] += avoid >= 0 and found < need
        return found

    monkeypatch.setattr(keygraph.analysis, "_fan", counted)
    return calls


def record_fans(monkeypatch):
    """A list that gets (t, avoid, result) of every _fan call, in order."""
    calls = []
    fan = keygraph.analysis._fan

    def spy(adj, t, ends, need, avoid=-1, **kw):
        found = fan(adj, t, ends, need, avoid, **kw)
        calls.append((t, avoid, found))
        return found

    monkeypatch.setattr(keygraph.analysis, "_fan", spy)
    return calls


def flow_cut(g, src, dst):
    """The split nodes the residual graph of a scipy max flow from src to
    dst cuts off from src: the minimal cut on src's side."""
    mat, flow = split_flow(g, src, dst)
    res = mat - flow.flow
    res.eliminate_zeros()
    reach = np.zeros(2 * g.n, dtype=bool)
    reach[breadth_first_order(res, 2 * src + 1, return_predecessors=False)] = True
    return np.flatnonzero(reach[0::2] & ~reach[1::2])


def full_pair_loop(g):
    """(kappa, cut) from a scipy max flow for every Even-Tarjan pair, with no
    early exit or skipped sink, and the flow cut of the first least pair."""
    best = None
    for src, dst in even_tarjan_pairs(g):
        value = split_flow(g, src, dst)[1].flow_value
        if best is None or value < best:
            best, pair = value, (src, dst)
    return best, flow_cut(g, *pair)


def old_graph_arrays(n, edges):
    """(edges, indptr, indices) as the lexsort construction built them."""
    e = np.sort(np.asarray(edges, dtype=np.int32).reshape(-1, 2), axis=1)
    codes = np.sort(e[:, 0].astype(np.int64) * n + e[:, 1])
    e = np.stack([(codes // n).astype(np.int32),
                  (codes % n).astype(np.int32)], axis=1)
    both_u = np.concatenate([e[:, 0], e[:, 1]])
    both_v = np.concatenate([e[:, 1], e[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(both_u, minlength=n), out=indptr[1:])
    return e, indptr, both_v[np.lexsort((both_v, both_u))]


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            graph(3, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graph(3, [(0, 3)])

    @pytest.mark.parametrize("edges", [[(0, 1.5)], [(0, True)], [(0, "1")],
                                       [(0, 1.0)], np.array([(0, 1.0)]),
                                       np.array([(False, True)])])
    def test_rejects_an_endpoint_that_is_not_an_integer(self, edges):
        # each of these used to become the edge (0, 1)
        with pytest.raises(ValueError, match="^edge endpoints must be integers"):
            Graph(3, edges)

    @pytest.mark.parametrize("edges", [[(0, 2**31)], [(0, 2**70)], [(-2**40, 1)],
                                       np.array([(0, 2**40)])])
    def test_rejects_an_endpoint_past_int32_as_out_of_range(self, edges):
        # these used to raise OverflowError or wrap around into range
        with pytest.raises(ValueError, match="^edge endpoint out of range"):
            Graph(3, edges)

    def test_accepts_python_and_numpy_integer_endpoints(self):
        for edges in ([(0, 1), (1, 2)], [(np.int64(0), np.uint8(1)), (1, 2)],
                      np.array([(0, 1), (1, 2)], dtype=np.uint64), []):
            g = Graph(3, edges)
            assert g.edges.dtype == np.int32
            assert g.edges.tolist() == [[0, 1], [1, 2]][:len(edges)]

    @pytest.mark.parametrize("n", [2.5, True, "3", 0])
    def test_rejects_a_node_count_that_is_not_a_positive_integer(self, n):
        # 2.5 and True used to raise TypeError from numpy
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            Graph(n, [])

    @pytest.mark.parametrize("measure", [vertex_connectivity, minimum_vertex_cut,
                                         lambda g: is_k_connected(g, 1)])
    def test_connectivity_of_one_node_is_rejected(self, measure):
        with pytest.raises(ValueError, match="at least two nodes"):
            measure(Graph(1, []))

    def test_rejects_duplicate_in_sorted_order(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph(4, [(0, 1), (0, 1), (2, 3)])

    @pytest.mark.parametrize("layout", ["sorted", "shuffled", "flipped"])
    def test_arrays_match_the_lexsort_construction(self, layout):
        rng = np.random.default_rng(77)
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(20, 30), P=10**4, alpha=0.4)
        cases = [(500, sample_network(p, SeedSpec(3, 0)).edges),
                 (70000, [(69999, 0), (5, 70), (1, 65537)])]  # ids past 16 bits
        for n in (1, 2, 9, 40):
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < 0.5
            cases.append((n, np.stack([iu[keep], ju[keep]], axis=1)))
        for n, edges in cases:
            e = np.array(edges, dtype=np.int32).reshape(-1, 2)
            if layout != "sorted":
                e = e[rng.permutation(len(e))]
            if layout == "flipped":
                flip = rng.random(len(e)) < 0.5
                e[flip] = e[flip, ::-1]
            g = Graph(n, e)
            for got, want in zip((g.edges, g.indptr, g.indices),
                                 old_graph_arrays(n, e)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)


class TestMinDegree:
    def test_empty_graph(self):
        assert min_degree(graph(5, [])) == 0

    def test_complete_graph(self):
        assert min_degree(graph(4, K4)) == 3

    def test_path(self):
        assert min_degree(graph(3, PATH3)) == 1


class TestVertexConnectivity:
    def test_path_has_unique_articulation(self):
        kappa, cut = minimum_vertex_cut(graph(3, PATH3))
        assert kappa == 1
        assert list(cut) == [1]

    def test_cycle(self):
        kappa, cut = minimum_vertex_cut(graph(5, CYCLE5))
        assert kappa == 2
        assert len(cut) == 2

    def test_disconnected(self):
        kappa, cut = minimum_vertex_cut(graph(4, [(0, 1), (2, 3)]))
        assert kappa == 0 and len(cut) == 0

    def test_complete_convention(self):
        kappa, cut = minimum_vertex_cut(graph(5, K5))
        assert kappa == 4 and len(cut) == 0

    def test_two_nodes(self):
        assert vertex_connectivity(graph(2, [(0, 1)])) == 1
        assert vertex_connectivity(graph(2, [])) == 0

    def test_matches_brute_force_on_small_graphs(self):
        rng = np.random.default_rng(314)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))
            kappa, cut = minimum_vertex_cut(g)
            assert kappa == brute_vertex_connectivity(n, g.edges)
            if cut.size:
                assert not connected_after_removal(n, g.edges, cut)
                assert cut.size == kappa

    def test_cut_minimal_no_strict_subset_disconnects(self):
        rng = np.random.default_rng(2718)
        checked = 0
        while checked < 40:
            n = int(rng.integers(4, 8))
            g = random_graph(rng, n, 0.5)
            kappa, cut = minimum_vertex_cut(g)
            if not 1 <= kappa <= 4 or cut.size == 0:
                continue
            checked += 1
            for size in range(0, cut.size):
                for sub in itertools.combinations(cut.tolist(), size):
                    assert connected_after_removal(n, g.edges, sub)

    def test_star_cut_is_center(self):
        kappa, cut = minimum_vertex_cut(graph(5, [(0, i) for i in range(1, 5)]))
        assert kappa == 1 and list(cut) == [0]

    @pytest.mark.parametrize("n, edges, pair, want", [
        (4, [(0, 1), (2, 3)], None, (0, [])),  # disconnected
        (5, K5, None, (4, [])),  # complete
        (5, [(0, i) for i in range(1, 5)], (1, 2), (1, [0])),  # a sink of s
        (11, TWO_K5, (1, 6), (2, [0, 3])),  # two neighbours of s
    ])
    def test_cut_is_a_sorted_int32_array(self, n, edges, pair, want):
        g = graph(n, edges)
        assert _weakest_pair(g)[1] == pair
        kappa, cut = minimum_vertex_cut(g)
        assert type(cut) is np.ndarray and cut.dtype == np.int32
        assert (kappa, cut.tolist()) == want

    def test_early_exit_keeps_the_full_loop_result(self):
        rng = np.random.default_rng(4242)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n, float(rng.choice([0.3, 0.5, 0.7])))
            if not is_connected(g) or g.is_complete():
                continue
            checked += 1
            kappa, cut = minimum_vertex_cut(g)
            ref_kappa, ref_cut = full_pair_loop(g)
            assert kappa == ref_kappa and cut.tolist() == ref_cut.tolist()

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(min_n=2, max_n=10))
    def test_skipping_loop_matches_full_loop_and_oracle(self, g):
        kappa, cut = minimum_vertex_cut(g)
        assert kappa == brute_vertex_connectivity(g.n, g.edges)
        if is_connected(g) and not g.is_complete():
            ref_kappa, ref_cut = full_pair_loop(g)
            assert kappa == ref_kappa and cut.tolist() == ref_cut.tolist()
        for k in range(1, g.n + 1):
            assert is_k_connected(g, k) == (kappa >= k)

    def test_cut_through_the_min_degree_node(self):
        # TWO_K5: only a pair of neighbours of s (phase 2, not fan-proven,
        # as it lies below b) finds kappa 2
        g = graph(11, TWO_K5)
        kappa, cut = minimum_vertex_cut(g)
        assert kappa == 2 == brute_vertex_connectivity(11, g.edges)
        assert cut.tolist() == full_pair_loop(g)[1].tolist() == [0, 3]
        assert is_k_connected(g, 2) and not is_k_connected(g, 3)

    def test_phase_two_fan_ends_are_the_current_neighbourhood(self):
        # two K6s, {2..7} and {8..13}, joined only through 0 (s) and 1.
        # The pairs (1, y) have kappa 3 and a direct fan of 3 to N(1); then
        # (2, 8) finds kappa 2, but 8 has three neighbours in N(1) | N(2),
        # so a fan to a stale mask of 1's neighbours would skip it
        edges = (list(itertools.combinations(range(2, 8), 2))
                 + list(itertools.combinations(range(8, 14), 2))
                 + [(0, 1), (0, 2), (0, 3), (0, 8), (0, 9),
                    (1, 4), (1, 5), (1, 10), (1, 11)])
        g = graph(14, edges)
        kappa, cut = minimum_vertex_cut(g)
        assert kappa == 2 == brute_vertex_connectivity(14, g.edges)
        assert cut.tolist() == full_pair_loop(g)[1].tolist() == [0, 1]

    def test_phase_one_fan_skip_keeps_the_full_loop_result(self, monkeypatch):
        # small random graphs rarely prove a sink by its fan (it needs b
        # disjoint paths to tied nodes); an n = 500 sample does, many times
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(28, 38), P=10**4, alpha=0.4)
        g = sample_network(p, SeedSpec(8, 0)).graph()
        s = int(np.argmin(g.degrees))
        sinks_proven = []

        def fan(adj, t, ends, need, avoid=-1, _fan=keygraph.analysis._fan, **kw):
            found = _fan(adj, t, ends, need, avoid, **kw)
            if found >= need and avoid < 0:
                sinks_proven.append(t)
            return found

        monkeypatch.setattr(keygraph.analysis, "_fan", fan)
        kappa, cut = minimum_vertex_cut(g)
        ref_kappa, ref_cut = full_pair_loop(g)
        assert kappa == ref_kappa and cut.tolist() == ref_cut.tolist()
        assert sinks_proven

    def test_low_min_degree_needs_one_pair(self, monkeypatch):
        # a pendant node (delta 1) and a cycle (delta 2): only the first
        # pair's value is evaluated.  The loop runs to the end, but every
        # later sink of the pendant graph is skipped by its direct count;
        # the cycle's sinks 3..9 each take a skip fan and the pair (1, 11)
        # a value fan that reaches b.  Neither call runs a flow, and the
        # first pair's own fan yields the cut
        calls = count_fans(monkeypatch, count_calls(monkeypatch, "maximum_flow"))
        ring = [(i, (i + 1) % 12) for i in range(12)]
        for n, edges, kappa, fans in ((13, ring + [(0, 12)], 1, 1),
                                      (12, ring, 2, 9)):
            want = {"maximum_flow": 0, "fans": fans, "pair_values": 1}
            calls.update(dict.fromkeys(calls, 0))
            assert vertex_connectivity(graph(n, edges)) == kappa
            assert calls == want
            calls.update(dict.fromkeys(calls, 0))
            assert minimum_vertex_cut(graph(n, edges))[0] == kappa
            assert calls == want

    def test_a_value_of_one_does_not_stop_the_loop(self):
        # a path 0-1-2 and a triangle 3-4-5: the sink 2 of s = 0 gives 1
        # first, and only the triangle's first sink 3 shows the graph apart
        g = graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        assert _weakest_pair(g) == (0, None, [])
        kappa, cut = minimum_vertex_cut(g)
        assert kappa == 0 and cut.dtype == np.int32 and cut.size == 0
        assert vertex_connectivity(g) == 0 and not is_k_connected(g, 1)

    def test_an_isolated_node_runs_no_fan(self, monkeypatch):
        calls = count_fans(monkeypatch, {})
        g = graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert _weakest_pair(g) == (0, None, [])
        assert minimum_vertex_cut(g)[1].size == 0
        assert calls == {"fans": 0, "pair_values": 0}

    def test_disjoint_unions_match_the_oracle(self):
        # two random graphs side by side under a random relabelling: a
        # value of 0 is the one stop, wherever the second part's nodes fall
        rng = np.random.default_rng(2027)
        for _ in range(300):
            n1, n2 = (int(v) for v in rng.integers(1, 13, size=2))
            a = random_graph(rng, n1, float(rng.choice([0.3, 0.6, 0.9]))).edges
            b = random_graph(rng, n2, float(rng.choice([0.3, 0.6, 0.9]))).edges
            perm = rng.permutation(n1 + n2)
            g = graph(n1 + n2, perm[np.concatenate([a, b + n1])])
            kappa, cut = minimum_vertex_cut(g)
            assert kappa == brute_vertex_connectivity(g.n, g.edges) == 0
            assert cut.size == 0 and _weakest_pair(g) == (0, None, [])

    def test_kappa_alone_equals_minimum_vertex_cut_and_the_oracle(self):
        rng = np.random.default_rng(5000)
        for _ in range(5000):
            n = int(rng.integers(3, 14))
            g = random_graph(rng, n, float(rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])))
            kappa = vertex_connectivity(g)
            assert kappa == minimum_vertex_cut(g)[0]
            assert kappa == brute_vertex_connectivity(n, g.edges)

    def test_kappa_alone_equals_minimum_vertex_cut_on_figure_samples(self, monkeypatch):
        # the cut costs no fan beyond kappa's, and is the flow cut at the
        # pair _weakest_pair returns
        calls = count_fans(monkeypatch, count_calls(monkeypatch, "maximum_flow"))
        fig2 = fig2_spec(trials=1)
        designs = [spec.base for spec in fig4_specs(trials=1)]
        designs += [fig2.base.replace(K=fig2.rule.ring_sizes(K1))
                    for K1 in (15, 20, 25, 30, 35, 40)]
        for params in designs:
            for seed in (100, 101):
                g = sample_network(params, SeedSpec(seed, 0)).graph()
                calls.update(dict.fromkeys(calls, 0))
                kappa = vertex_connectivity(g)
                kappa_calls = dict(calls)
                calls.update(dict.fromkeys(calls, 0))
                kappa_cut, cut = minimum_vertex_cut(g)
                assert kappa == kappa_cut == cut.size
                assert calls == kappa_calls and calls["maximum_flow"] == 0
                pair = _weakest_pair(g)[1]
                assert (pair is None) == (kappa == 0)
                if pair is not None:
                    assert cut.tolist() == flow_cut(g, *pair).tolist()


class TestLocalConnectivity:
    """kappa(s, t) as the fan from s to N(t) in G - t, against separator
    enumeration."""

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(min_n=2, max_n=9))
    def test_pair_value_equals_the_separator_oracle(self, g):
        # every ordered non-adjacent pair on one instance and one set of
        # neighbor lists, which no pair may leave changed for the next
        adj = neighbor_lists(g)
        for s in range(g.n):
            for t in range(g.n):
                if s != t and t not in adj[s]:
                    near = [v in adj[t] for v in range(g.n)]
                    assert (_fan(adj, s, near, g.n, t)
                            == brute_local_connectivity(g.n, g.edges, s, t))
        assert adj == neighbor_lists(g)

    def test_is_k_connected_agrees_with_kappa_on_samples(self, monkeypatch):
        # n = 500 samples from kappa 4 to about 10; k runs past delta.  Only
        # a pair that lowers b is evaluated: of the 500 and 519 Even-Tarjan
        # pairs, just the first sink.
        calls = count_fans(monkeypatch, {})
        for K1, seed in ((23, 7), (28, 8)):
            p = ModelParams(n=500, mu=(0.5, 0.5), K=(K1, K1 + 10), P=10**4,
                            alpha=0.4)
            g = sample_network(p, SeedSpec(seed, 0)).graph()
            calls["pair_values"] = 0
            kappa = vertex_connectivity(g)
            assert kappa >= 3
            assert calls["pair_values"] == 1
            for k in range(3, min_degree(g) + 2):
                assert is_k_connected(g, k) == (kappa >= k)

    def test_pair_values_per_call_are_pinned(self, monkeypatch):
        # the fig4 designs and fig2 at K1 = 20 and 35 (delta 2 to 14), at
        # the seeds above: kappa, the fans and the pair values one
        # vertex_connectivity call runs, so a change that moves a skip
        # decision shows here
        calls = count_fans(monkeypatch, {})
        pinned = {("fig4", 8, 7): (6, 148, 1), ("fig4", 8, 8): (7, 161, 1),
                  ("fig4", 10, 7): (12, 272, 1), ("fig4", 10, 8): (13, 293, 1),
                  ("fig4", 12, 7): (14, 298, 1), ("fig4", 12, 8): (13, 281, 1),
                  ("fig4", 14, 7): (18, 382, 1), ("fig4", 14, 8): (16, 326, 1),
                  ("fig2", 20, 7): (4, 176, 1), ("fig2", 20, 8): (2, 78, 1),
                  ("fig2", 35, 7): (12, 250, 1), ("fig2", 35, 8): (14, 296, 1)}
        fig2 = fig2_spec(trials=1)
        samples = [(("fig4", spec.k_list[0]), spec.base)
                   for spec in fig4_specs(trials=1)]
        samples += [(("fig2", K1), fig2.base.replace(K=fig2.rule.ring_sizes(K1)))
                    for K1 in (20, 35)]
        got = {}
        for key, params in samples:
            for seed in (7, 8):
                g = sample_network(params, SeedSpec(seed, 0)).graph()
                calls.update(fans=0, pair_values=0)
                kappa = vertex_connectivity(g)
                got[(*key, seed)] = (kappa, calls["fans"], calls["pair_values"])
                for k in range(1, min_degree(g) + 2):
                    assert is_k_connected(g, k) == (kappa >= k), (key, seed, k)
        assert got == pinned


class TestFan:
    """The exact fan that proves pairs and gives their values."""

    @staticmethod
    def mask(n, nodes):
        return [v in nodes for v in range(n)]

    def test_two_neighbours_with_one_shared_end_count_once(self):
        # 1 and 2 both reach only the end 3
        g = graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert _fan(neighbor_lists(g), 0, self.mask(4, [3]), 5) == 1

    def test_direct_ends_and_two_hop_paths_add_up(self):
        # ends 1 and 2 next to 0, then 0-3-5 (3 also reaches the taken end
        # 1) and 0-4-6
        g = graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 6), (3, 1)])
        assert _fan(neighbor_lists(g), 0, self.mask(7, [1, 2, 5, 6]), 9) == 4

    def test_a_neighbour_end_is_never_a_second_hop(self):
        # the end 1 is next to 0 and to 2; it counts once, as 0-1
        g = graph(3, [(0, 1), (0, 2), (1, 2)])
        assert _fan(neighbor_lists(g), 0, self.mask(3, [1]), 3) == 1

    @pytest.mark.parametrize("n,edges,ends,expect", [
        # greedy takes 0-1-3, which leaves 2 no end; 0-1-4 and 0-2-3
        (5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3)], [3, 4], 2),
        # the same, with the direct end 5 last in N(0): the search starts
        # from the pass's paths, so 0-5 stays used and 0-5-6 never counts
        (7, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (5, 6)],
         [3, 4, 5, 6], 3)])
    def test_an_augmenting_path_reroutes_a_greedy_end(self, n, edges, ends, expect):
        assert _fan(neighbor_lists(graph(n, edges)), 0, self.mask(n, ends), 9) == expect

    def test_a_path_back_through_a_split_arc_frees_its_node(self):
        # the fan from 7 to N(10) = {3, 5} in G - 10: an augmenting path
        # runs back through the split arc of a node on an earlier path, which
        # must leave that path; a node kept would give the cut [0, 6, 9]
        g = graph(11, [(0, 2), (0, 7), (0, 8), (1, 8), (2, 4), (2, 7), (3, 9),
                       (4, 6), (4, 9), (5, 8), (6, 7), (6, 8), (3, 10), (5, 10)])
        adj, cut = neighbor_lists(g), []
        assert _fan(adj, 7, self.mask(11, adj[10]), 11, 10, cut=cut) == 2
        assert cut == flow_cut(g, 7, 10).tolist() == [4, 8]
        assert brute_local_connectivity(11, g.edges, 7, 10) == 2

    def test_a_three_edge_path_counts_unless_it_meets_avoid(self):
        # 0-1-3 and 0-2-4-5; greedy finds only the first
        g = graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)])
        adj, ends = neighbor_lists(g), self.mask(6, [3, 5])
        assert _fan(adj, 0, ends, 9) == 2
        assert _fan(adj, 0, ends, 9, avoid=4) == 1

    @pytest.mark.parametrize("n,edges,ends", [
        # the direct ends 1 and 2 first in N(0), then 0-3-5 and 0-4-6
        (7, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 6)], [1, 2, 5, 6]),
        # 0-1-7 and 0-2-4 first, then the direct ends 5 and 6, which 1 is
        # next to but never takes; need 2, the direct count, ends the pass
        # before it reaches them, and need 3 on the first
        (8, [(0, 1), (0, 2), (0, 5), (0, 6), (1, 5), (1, 7), (2, 4)],
         [4, 5, 6, 7])])
    def test_count_stops_at_need(self, n, edges, ends):
        adj, ends = neighbor_lists(graph(n, edges)), self.mask(n, ends)
        assert [_fan(adj, 0, ends, need) for need in range(1, 6)] == [1, 2, 3, 4, 4]

    def test_ends_are_unchanged(self):
        g = graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 6)])
        ends = self.mask(7, [1, 5, 6])
        before = ends.copy()
        _fan(neighbor_lists(g), 0, ends, 9)
        assert ends == before

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_true_fan(self, data):
        # the largest fan from t to the ends in G - avoid is kappa(t, a)
        # there once a new node a is joined to every end (Menger)
        g = data.draw(small_graphs(min_n=2, max_n=9))
        adj = neighbor_lists(g)
        t = data.draw(st.integers(0, g.n - 1))
        nodes = data.draw(st.sets(st.integers(0, g.n - 1).filter(lambda v: v != t)))
        need = data.draw(st.integers(1, g.n))
        spare = [v for v in range(g.n) if v != t and v not in adj[t] and v not in nodes]
        avoid = data.draw(st.sampled_from([-1] + spare))
        found = _fan(adj, t, self.mask(g.n, nodes), need, avoid)
        edges = ([e for e in g.edges.tolist() if avoid not in e]
                 + [(v, g.n) for v in sorted(nodes)])
        assert found == min(need, brute_local_connectivity(g.n + 1, edges, t, g.n))


# two K4s {0, 2, 3, 4} and {1, 5, 6, 7} whose hubs 0 and 1 (degree 4,
# first in the degree order, not adjacent) meet only at node 8
HUBS = ([(0, v) for v in (2, 3, 4, 8)] + [(1, v) for v in (5, 6, 7, 8)]
        + list(itertools.combinations((2, 3, 4), 2))
        + list(itertools.combinations((5, 6, 7), 2)))


@st.composite
def k2_graphs(draw):
    """Small random graphs, cycles (where most nodes need a fan), complete
    graphs and relabelled disjoint unions of two of them."""
    def one():
        kind = draw(st.sampled_from(["random", "cycle", "complete"]))
        if kind == "random":
            g = draw(small_graphs(min_n=1, max_n=9))
            return g.n, g.edges.tolist()
        n = draw(st.integers(3, 9))
        if kind == "cycle":
            return n, [(i, (i + 1) % n) for i in range(n)]
        return n, list(itertools.combinations(range(n), 2))

    n, edges = one()
    if n < 2 or draw(st.booleans()):
        m, more = one()
        edges = edges + [(u + n, v + n) for u, v in more]
        n += m
    perm = draw(st.permutations(range(n)))
    return graph(n, [(perm[u], perm[v]) for u, v in edges])


class TestBiconnectivity:
    """kappa >= k by Even's test on the exact fans."""

    @pytest.mark.parametrize("n,edges,expect", [
        (4, [(0, 1), (1, 2), (2, 3)], False),  # path
        (5, CYCLE5, True),
        (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], False),  # bowtie
        (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)], False),  # root cut
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], False),  # split
        (4, K4, True),
        (2, [(0, 1)], False),  # kappa of one edge is n - 1 = 1
        (2, [], False),
    ])
    def test_hand_cases(self, n, edges, expect):
        g = graph(n, edges)
        assert is_k_connected(g, 2) is expect
        assert (brute_vertex_connectivity(n, g.edges) >= 2) is expect

    def test_two_nodes_are_never_2_connected(self):
        # kappa of the single edge is n - 1 = 1 by convention
        assert not is_k_connected(graph(2, [(0, 1)]), 2)

    @pytest.mark.parametrize("extra,expect", [([], False), ([(4, 5)], True)])
    def test_pair_check_of_non_adjacent_hubs(self, monkeypatch, extra, expect):
        # the first fan is the pair check of hubs 0 and 1, kappa(0, 1) from
        # 0 to N(1) in G - 1: 1 through node 8 alone, 2 once 4-5 joins the K4s
        g = graph(9, HUBS + extra)
        assert g.degrees[:2].tolist() == [4, 4] and g.degrees[2:].max() <= 4
        calls = record_fans(monkeypatch)
        assert is_k_connected(g, 2) is expect
        assert calls[0] == (0, 1, 2 if expect else 1)
        assert (brute_vertex_connectivity(9, g.edges) >= 2) is expect

    def test_pair_check_of_non_adjacent_hubs_at_k_3(self, monkeypatch):
        # two K5s {0, 2, 3, 4, 5} and {1, 6, 7, 8, 9} that meet only at the
        # separator {10, 11}; the hubs 0 and 1 (degree 6, first in the
        # degree order, not adjacent) and 10 (degree 6, third) are the head,
        # and the hubs' pair check, kappa(0, 1) = 2, is the one fan that
        # refutes k = 3: with the head pairs skipped, every later fan holds
        g = graph(12, list(itertools.combinations((0, 2, 3, 4, 5), 2))
                  + list(itertools.combinations((1, 6, 7, 8, 9), 2))
                  + [(10, v) for v in (0, 1, 2, 3, 6, 7)]
                  + [(11, v) for v in (0, 1, 4, 8)])
        assert g.degrees.tolist() == [6, 6, 5, 5, 5, 4, 5, 5, 5, 4, 6, 4]
        calls = record_fans(monkeypatch)
        assert not is_k_connected(g, 3)
        assert calls[0] == (0, 1, 2)
        assert brute_vertex_connectivity(12, g.edges) == 2

    @settings(max_examples=400, deadline=None)
    @given(k2_graphs())
    def test_agrees_with_brute_connectivity(self, g):
        kappa = brute_vertex_connectivity(g.n, g.edges)
        for k in (1, 2, 3, 4):
            assert is_k_connected(g, k) == (kappa >= k)
        assert is_connected(g) == (kappa >= 1)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_agrees_with_single_removal_oracle(self, g):
        assert is_k_connected(g, 2) == biconnected_oracle(g.n, g.edges)


class TestIsKConnected:
    def test_complete_graph_high_k(self):
        assert is_k_connected(graph(5, K5), 4)
        assert not is_k_connected(graph(5, K5), 5)

    def test_path_not_biconnected(self):
        assert not is_k_connected(graph(3, PATH3), 2)

    def test_agrees_with_connectivity_for_all_k(self):
        rng = np.random.default_rng(1618)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, float(rng.choice([0.3, 0.6, 0.9])))
            kappa = brute_vertex_connectivity(n, g.edges)
            for k in range(1, n):
                assert is_k_connected(g, k) == (kappa >= k)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            is_k_connected(graph(3, PATH3), 0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, False, np.bool_(True), "3"])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="positive integer"):
            is_k_connected(graph(5, K5), k)

    @pytest.mark.parametrize("k", [np.int8(3), np.int64(4), np.uint32(5)])
    def test_accepts_numpy_integer_k(self, k):
        assert is_k_connected(graph(5, K5), k) == (int(k) <= 4)


class TestDeleteAndCheck:
    """Deleting minimum-cut nodes one by one, checked by the DFS oracle."""

    @staticmethod
    def prefix_flags(g, victims):
        return [connected_after_removal(g.n, g.edges, victims[:d + 1])
                for d in range(len(victims))]

    def test_complete_graph_survives(self):
        assert self.prefix_flags(graph(4, K4), [0, 1]) == [True, True]

    def test_path_middle_node(self):
        assert self.prefix_flags(graph(3, PATH3), [1]) == [False]

    def test_full_min_cut_deletion_profile(self):
        # deleting a minimum cut: connected up to the last node, then split
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 30:
            n = int(rng.integers(4, 8))
            g = random_graph(rng, n, 0.55)
            kappa, cut = minimum_vertex_cut(g)
            if kappa < 1 or cut.size == 0:
                continue
            checked += 1
            flags = self.prefix_flags(g, sorted(cut.tolist()))
            assert flags[-1] is False
            assert all(flags[:-1])

    def test_cut_deletion_order_is_irrelevant_before_the_end(self):
        rng = np.random.default_rng(56)
        checked = 0
        while checked < 20:
            n = int(rng.integers(5, 8))
            g = random_graph(rng, n, 0.5)
            kappa, cut = minimum_vertex_cut(g)
            if kappa < 2 or cut.size < 2:
                continue
            checked += 1
            for perm in itertools.permutations(cut.tolist()):
                flags = self.prefix_flags(g, list(perm))
                assert all(flags[:-1]) and flags[-1] is False


class TestReport:
    def test_kappa_never_exceeds_min_degree_on_samples(self):
        p = ModelParams(n=40, mu=(0.5, 0.5), K=(3, 5), P=100, alpha=0.6)
        for t in range(25):
            g = sample_network(p, SeedSpec(31337, t)).graph()
            kappa = vertex_connectivity(g)
            assert kappa <= min_degree(g)
            assert is_connected(g) == (component_count(g) == 1)
            assert is_connected(g) == (kappa >= 1)

    def test_report_on_disconnected_graph(self):
        g = graph(4, [(0, 1), (2, 3)])
        kappa, cut = minimum_vertex_cut(g)
        assert kappa == 0
        assert cut.size == 0
        assert component_count(g) == 2

    def test_brute_cut_census_contains_reported_cut(self):
        rng = np.random.default_rng(90)
        checked = 0
        while checked < 25:
            n = int(rng.integers(4, 8))
            g = random_graph(rng, n, 0.5)
            kappa, cut = minimum_vertex_cut(g)
            if kappa < 1 or cut.size == 0:
                continue
            checked += 1
            assert tuple(sorted(cut.tolist())) in brute_min_cuts(n, g.edges, kappa)

    def test_connected_helpers(self):
        assert is_connected(graph(3, PATH3))
        assert not is_connected(graph(3, [(0, 1)]))
        # the count reads the symmetric adjacency as a directed graph; both
        # agree with scipy's undirected count on the edge list, isolated
        # nodes and n = 1 included
        rng = np.random.default_rng(91)
        for n in range(1, 16):
            for density in (0.0, 0.1, 0.3, 0.6):
                g = random_graph(rng, n, density)
                upper = csr_matrix((np.ones(g.m), g.edges.T), shape=(n, n))
                want = connected_components(upper, directed=False)[0]
                assert component_count(g) == want
                assert is_connected(g) == (want == 1)
