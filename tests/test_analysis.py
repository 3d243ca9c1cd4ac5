"""Connectivity analysis against the exhaustive brute-force oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

import keygraph.analysis
from keygraph import (Graph, ModelParams, SeedSpec, connectivity_report,
                      is_connected, is_k_connected, min_degree,
                      sample_network, vertex_connectivity)
from keygraph.analysis import (_cut_from_flow, _flow_pairs, _is_biconnected,
                               _local_connectivity, _split_flow_matrix)
from oracles import (brute_min_cuts, brute_vertex_connectivity,
                     connected_after_removal)


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


def full_pair_loop(g):
    """(kappa, cut) from every Even-Tarjan pair, with no early exit."""
    mat = _split_flow_matrix(g)
    best = None
    for src, dst in _flow_pairs(g):
        value = int(_local_connectivity(mat, src, dst).flow_value)
        if best is None or value < best:
            best, pair = value, (src, dst)
    return best, _cut_from_flow(g, mat, _local_connectivity(mat, *pair), pair[0])


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


class TestMinDegree:
    def test_empty_graph(self):
        assert min_degree(graph(5, [])) == 0

    def test_complete_graph(self):
        assert min_degree(graph(4, K4)) == 3

    def test_path(self):
        assert min_degree(graph(3, PATH3)) == 1


class TestVertexConnectivity:
    def test_path_has_unique_articulation(self):
        kappa, cut = vertex_connectivity(graph(3, PATH3))
        assert kappa == 1
        assert list(cut) == [1]

    def test_cycle(self):
        kappa, cut = vertex_connectivity(graph(5, CYCLE5))
        assert kappa == 2
        assert len(cut) == 2

    def test_disconnected(self):
        kappa, cut = vertex_connectivity(graph(4, [(0, 1), (2, 3)]))
        assert kappa == 0 and len(cut) == 0

    def test_complete_convention(self):
        kappa, cut = vertex_connectivity(graph(5, K5))
        assert kappa == 4 and len(cut) == 0

    def test_two_nodes(self):
        assert vertex_connectivity(graph(2, [(0, 1)]))[0] == 1
        assert vertex_connectivity(graph(2, []))[0] == 0

    def test_matches_brute_force_on_small_graphs(self):
        rng = np.random.default_rng(314)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            g = random_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))
            kappa, cut = vertex_connectivity(g)
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
            kappa, cut = vertex_connectivity(g)
            if not 1 <= kappa <= 4 or cut.size == 0:
                continue
            checked += 1
            for size in range(0, cut.size):
                for sub in itertools.combinations(cut.tolist(), size):
                    assert connected_after_removal(n, g.edges, sub)

    def test_star_cut_is_center(self):
        kappa, cut = vertex_connectivity(graph(5, [(0, i) for i in range(1, 5)]))
        assert kappa == 1 and list(cut) == [0]


    def test_early_exit_keeps_the_full_loop_result(self):
        rng = np.random.default_rng(4242)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n, float(rng.choice([0.3, 0.5, 0.7])))
            if not is_connected(g) or g.is_complete():
                continue
            checked += 1
            kappa, cut = vertex_connectivity(g)
            ref_kappa, ref_cut = full_pair_loop(g)
            assert kappa == ref_kappa and cut.tolist() == ref_cut.tolist()

    def test_low_min_degree_needs_one_pair(self, monkeypatch):
        # a pendant node (delta 1) and a cycle (delta 2, biconnected) each
        # stop after the first pair, whose flow also yields the cut
        calls = []
        flow = keygraph.analysis.maximum_flow
        monkeypatch.setattr(keygraph.analysis, "maximum_flow",
                            lambda *a: calls.append(a) or flow(*a))
        ring = [(i, (i + 1) % 12) for i in range(12)]
        for n, edges, kappa in ((13, ring + [(0, 12)], 1), (12, ring, 2)):
            calls.clear()
            assert vertex_connectivity(graph(n, edges))[0] == kappa
            assert len(calls) == 1


class TestBiconnectivity:
    """The articulation test on scipy's depth-first order."""

    @pytest.mark.parametrize("n,edges,expect", [
        (4, [(0, 1), (1, 2), (2, 3)], False),  # path
        (5, CYCLE5, True),
        (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], False),  # bowtie
        (5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)], False),  # root cut
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], False),  # split
        (4, K4, True),
        (2, [(0, 1)], True),
        (2, [], False),
    ])
    def test_hand_cases(self, n, edges, expect):
        g = graph(n, edges)
        assert _is_biconnected(g) is expect
        assert biconnected_oracle(n, g.edges) is expect

    def test_two_nodes_are_never_2_connected(self):
        # kappa of the single edge is n - 1 = 1 by convention
        assert not is_k_connected(graph(2, [(0, 1)]), 2)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_agrees_with_single_removal_oracle(self, g):
        expect = biconnected_oracle(g.n, g.edges)
        assert _is_biconnected(g) == expect
        assert is_k_connected(g, 2) == expect

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(min_n=2))
    def test_scipy_dfs_tree_has_no_cross_edges(self, g):
        # every non-tree edge must join a node to one of its tree ancestors
        adj = csr_matrix((np.ones(g.indices.size, dtype=np.int8), g.indices,
                          g.indptr), shape=(g.n, g.n))
        order, parent = depth_first_order(adj, 0, directed=True)
        reached = set(order.tolist())

        def ancestors(v):
            out = set()
            while v != order[0]:
                v = int(parent[v])
                out.add(v)
            return out

        for u, v in g.edges.tolist():
            if u in reached:
                assert v in reached
                assert u in ancestors(v) or v in ancestors(u)


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
            kappa = vertex_connectivity(g)[0]
            for k in range(1, n):
                assert is_k_connected(g, k) == (kappa >= k)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            is_k_connected(graph(3, PATH3), 0)


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
            kappa, cut = vertex_connectivity(g)
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
            kappa, cut = vertex_connectivity(g)
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
            rep = connectivity_report(sample_network(p, SeedSpec(31337, t)))
            assert rep.vertex_connectivity <= rep.min_degree
            assert rep.is_connected == (rep.component_count == 1)
            assert rep.is_connected == (rep.vertex_connectivity >= 1)

    def test_report_on_disconnected_graph(self):
        rep = connectivity_report(graph(4, [(0, 1), (2, 3)]))
        assert rep.vertex_connectivity == 0
        assert rep.min_vertex_cut == ()
        assert rep.component_count == 2

    def test_brute_cut_census_contains_reported_cut(self):
        rng = np.random.default_rng(90)
        checked = 0
        while checked < 25:
            n = int(rng.integers(4, 8))
            g = random_graph(rng, n, 0.5)
            kappa, cut = vertex_connectivity(g)
            if kappa < 1 or cut.size == 0:
                continue
            checked += 1
            assert tuple(sorted(cut.tolist())) in brute_min_cuts(n, g.edges, kappa)

    def test_connected_helpers(self):
        assert is_connected(graph(3, PATH3))
        assert not is_connected(graph(3, [(0, 1)]))
