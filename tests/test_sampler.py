"""Sampler distribution checks, determinism, and dump-format round trips."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keygraph
import keygraph.sampler
from keygraph import (ModelParams, SeedSpec, edge_prob_key, read_network,
                      sample_network, write_network)
from keygraph.cli import main
from keygraph.rng import philox_key
from keygraph.sampler import (_channel_on, _draw_rings, _mark_shared,
                              _pair_positions)
from oracles import (factor_pairs, floyd_ring, naive_intersects,
                     per_row_channel_pairs)

DATA = Path(__file__).parent / "data"


def small_params(**kw):
    base = dict(n=50, mu=(0.5, 0.5), K=(2, 3), P=10, alpha=0.5)
    base.update(kw)
    return ModelParams(**base)


def rings(net) -> list:
    return [net.ring(x).tolist() for x in range(net.n)]


def intersect_rings(a, b) -> bool:
    """Whether the sampler's key -> holders index pairs two nodes whose rings
    are ``a`` and ``b``."""
    data = np.concatenate([a, b]).astype(np.int64)
    node = np.repeat(np.arange(2, dtype=np.int64), [len(a), len(b)])
    pos = _pair_positions(2, data, node)
    assert set(pos.tolist()) <= {0}  # (0, 1) is the stream's only position
    return bool(_mark_shared(pos, 0, 1)[0])


class TestIntersectRings:
    def test_shared_element(self):
        assert intersect_rings([1, 2], [2, 9])

    def test_disjoint(self):
        assert not intersect_rings([1, 2], [3, 4])

    def test_empty(self):
        assert not intersect_rings([], [1, 2])

    def test_agrees_with_quadratic_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a = np.sort(rng.choice(10, size=3, replace=False))
            b = np.sort(rng.choice(10, size=3, replace=False))
            assert intersect_rings(a, b) == naive_intersects(a, b)


@pytest.mark.parametrize("module", [keygraph, keygraph.sampler])
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), name


class TestDeterminism:
    def test_identical_seed_identical_network(self):
        p = ModelParams(n=80, mu=(0.3, 0.7), K=(4, 6), P=200, alpha=0.5)
        a = sample_network(p, SeedSpec(987, 3))
        b = sample_network(p, SeedSpec(987, 3))
        assert np.array_equal(a.classes, b.classes)
        assert np.array_equal(a.ring_data, b.ring_data)
        assert np.array_equal(a.edges, b.edges)

    def test_distinct_trials_differ(self):
        p = ModelParams(n=80, mu=(0.5, 0.5), K=(4, 6), P=200, alpha=0.5)
        a = sample_network(p, SeedSpec(987, 0))
        b = sample_network(p, SeedSpec(987, 1))
        assert not (np.array_equal(a.edges, b.edges)
                    and np.array_equal(a.ring_data, b.ring_data))


class TestSeedSpec:
    @pytest.mark.parametrize("field", ["master_seed", "trial_index"])
    @pytest.mark.parametrize("value", [1.5, True, "3", -1])
    def test_rejects_what_is_not_a_non_negative_integer(self, field, value):
        # 1.5 and True used to pass here, and 1.5 then failed with TypeError
        # inside stream(); "3" raised TypeError
        kw = dict(master_seed=1, trial_index=0)
        kw[field] = value
        with pytest.raises(ValueError, match=f"^{field} "):
            SeedSpec(**kw)

    def test_rejects_a_seed_past_64_bits(self):
        with pytest.raises(ValueError, match="master_seed"):
            SeedSpec(2**64)

    def test_integral_values_become_ints(self):
        seed = SeedSpec(987.0, np.int64(3))
        assert (seed.master_seed, seed.trial_index) == (987, 3)
        assert type(seed.master_seed) is type(seed.trial_index) is int
        assert np.array_equal(seed.stream().random(4),
                              SeedSpec(987, 3).stream().random(4))


class TestStructure:
    def test_ring_sizes_match_classes_and_stay_sorted(self):
        p = ModelParams(n=200, mu=(0.2, 0.3, 0.5), K=(3, 5, 8), P=400, alpha=0.3)
        net = sample_network(p, SeedSpec(11))
        for x in range(net.n):
            ring = net.ring(x)
            assert ring.size == p.K[net.classes[x] - 1]
            assert (np.diff(ring) > 0).all()
            assert ring[0] >= 0 and ring[-1] < p.P

    def test_no_self_loops_and_unique_pairs(self):
        net = sample_network(small_params(alpha=1.0), SeedSpec(3))
        e = net.edges
        assert (e[:, 0] < e[:, 1]).all()
        codes = e[:, 0].astype(np.int64) * net.n + e[:, 1]
        assert np.unique(codes).size == codes.size

    def test_intersection_contained_in_both_factors(self):
        p = ModelParams(n=120, mu=(0.5, 0.5), K=(3, 5), P=60, alpha=0.4)
        seed = SeedSpec(21)
        net = sample_network(p, seed)
        key, channel = factor_pairs(seed.stream(), rings(net), p.alpha)
        inter = set(map(tuple, net.edges.tolist()))
        assert inter <= key
        assert inter <= set(channel)
        # and the intersection is exactly the AND of the factors
        assert inter == key & set(channel)

    def test_key_edges_match_pairwise_ring_checks(self):
        p = ModelParams(n=40, mu=(1.0,), K=(3,), P=30, alpha=0.9)
        seed = SeedSpec(8)
        net = sample_network(p, seed)
        key, channel = factor_pairs(seed.stream(), rings(net), p.alpha)
        assert net.edges.tolist() == [list(e) for e in channel if e in key]

    def test_near_zero_alpha_gives_empty_graph(self):
        net = sample_network(small_params(n=50, alpha=1e-12), SeedSpec(1))
        assert net.edges.shape[0] == 0


class TestDistributions:
    def test_class_frequencies(self):
        # 10^4 label draws; every class within 4 binomial sigma of its weight
        p = ModelParams(n=10_000, mu=(0.2, 0.3, 0.5), K=(2, 3, 4), P=256,
                        alpha=1e-9)
        net = sample_network(p, SeedSpec(1234))
        counts = np.bincount(net.classes - 1, minlength=3)
        for c, mu in enumerate(p.mu):
            sigma = math.sqrt(mu * (1 - mu) / p.n)
            assert abs(counts[c] / p.n - mu) < 4 * sigma

    def test_ring_uniformity_small_pool(self):
        # every 2-subset of a 5-key pool within 4 sigma of 1/10
        draws = 100_000
        rng = SeedSpec(777).stream()
        u = rng.random(2 * draws)
        counts = {}
        for ring in _draw_rings(u.reshape(draws, 2), 5).tolist():
            counts[tuple(ring)] = counts.get(tuple(ring), 0) + 1
        assert len(counts) == 10
        sigma = math.sqrt(0.1 * 0.9 / draws)
        for pair_count in counts.values():
            assert abs(pair_count / draws - 0.1) < 4 * sigma

    def test_ring_uniformity_floyd_path(self):
        # K/P below the Floyd cutoff; per-key inclusion within 4 sigma of K/P
        draws, P, K = 60_000, 192, 2
        assert K <= P // 64
        rng = SeedSpec(778).stream()
        u = rng.random(K * draws)
        rings = _draw_rings(u.reshape(draws, K), P)
        assert (rings[:, 0] != rings[:, 1]).all()
        hits = np.bincount(rings.ravel(), minlength=P)
        q = K / P
        sigma = math.sqrt(q * (1 - q) / draws)
        assert (np.abs(hits / draws - q) < 4 * sigma).all()

    def test_forced_share_edge_rate_tracks_alpha(self):
        # rings of 3 from a pool of 4 always overlap; edge rate over >=1e5
        # pairs approximates alpha within 3 binomial sigma
        alpha = 0.37
        p = ModelParams(n=200, mu=(1.0,), K=(3,), P=4, alpha=alpha)
        pairs = 0
        edges = 0
        for t in range(6):
            net = sample_network(p, SeedSpec(91, t))
            pairs += p.n * (p.n - 1) // 2
            edges += net.edges.shape[0]
        assert pairs >= 100_000
        sigma = math.sqrt(alpha * (1 - alpha) / pairs)
        assert abs(edges / pairs - alpha) < 3 * sigma

    def test_per_class_pair_edge_rates(self):
        # empirical secure-link frequency per class pair within 4 sigma of
        # alpha * p_ij, aggregated over independent samples
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(20, 30), P=10**4, alpha=0.4)
        pair_counts = np.zeros((2, 2), dtype=np.int64)
        edge_counts = np.zeros((2, 2), dtype=np.int64)
        for t in range(4):
            net = sample_network(p, SeedSpec(5150, t))
            cls0 = net.classes.astype(np.int64) - 1
            n_c = np.bincount(cls0, minlength=2)
            pair_counts[0, 0] += n_c[0] * (n_c[0] - 1) // 2
            pair_counts[1, 1] += n_c[1] * (n_c[1] - 1) // 2
            pair_counts[0, 1] += n_c[0] * n_c[1]
            for u, v in net.edges:
                i, j = sorted((cls0[u], cls0[v]))
                edge_counts[i, j] += 1
        for i, j in ((0, 0), (0, 1), (1, 1)):
            target = p.alpha * edge_prob_key(p, i + 1, j + 1)
            npairs = pair_counts[i, j]
            sigma = math.sqrt(target * (1 - target) / npairs)
            assert abs(edge_counts[i, j] / npairs - target) < 4 * sigma


class TestBatchedDraws:
    """The vectorized draws against one-node, one-row scalar references."""

    # about 1 - exp(-K^2/2P) of the rows draw some key twice and run
    # Floyd's steps: a fifth at (31, 2000), 70% at (156, 10**4)
    @pytest.mark.parametrize("K,P", [(1, 64), (1, 10**4), (3, 192), (7, 500),
                                     (31, 2000), (40, 10**4), (156, 10**4)])
    def test_batched_floyd_matches_scalar_reference(self, K, P):
        assert K <= P // 64  # the Floyd branch
        u = SeedSpec(99, K).stream().random((300, K))
        assert _draw_rings(u, P).tolist() == [floyd_ring(row, P) for row in u]

    def test_floyd_chain_runs_the_steps(self):
        # draws 5, 5, 190: the repeat takes j = 190, which the third draw
        # then repeats, so Floyd's third step takes j = 191; the rows after
        # it repeat once (one pass suffices) and never (no repair)
        u = np.array([[5.5 / 190, 5.5 / 191, 190.5 / 192],
                      [5.5 / 190, 5.5 / 191, 7.5 / 192],
                      [1.5 / 190, 2.5 / 191, 3.5 / 192]])
        assert floyd_ring(u[0], 192) == [5, 190, 191]
        assert _draw_rings(u, 192).tolist() == [floyd_ring(row, 192) for row in u]

    @pytest.mark.parametrize("n,K,P,alpha,chunk", [
        (120, (3, 5, 8), 600, 0.3, None),
        (40, (3, 5, 8), 600, 0.6, 7),  # rows longer and shorter than a chunk
        (1500, (2, 3, 3), 10**4, 0.02, None),  # two chunks at the default size
    ])
    def test_sample_matches_per_node_and_per_row_reference(self, monkeypatch, n, K,
                                                           P, alpha, chunk):
        if chunk is not None:
            monkeypatch.setattr(keygraph.sampler, "_CHANNEL_CHUNK", chunk)
        p = ModelParams(n=n, mu=(0.2, 0.3, 0.5), K=K, P=P, alpha=alpha)
        seed = SeedSpec(4321, 2)
        net = sample_network(p, seed)
        rng = seed.stream()
        rng.random(n)  # class labels
        u = rng.random(int(net.ring_indptr[-1]))
        for x in range(n):
            lo, hi = net.ring_indptr[x], net.ring_indptr[x + 1]
            assert net.ring(x).tolist() == floyd_ring(u[lo:hi], P)
        channel = per_row_channel_pairs(rng, n, alpha)
        ring = rings(net)
        assert net.edges.tolist() == [[x, y] for x, y in channel
                                      if naive_intersects(ring[x], ring[y])]


def stream_pair(m: int):
    """m raw Philox words and the m uniforms Generator.random makes of the
    same key."""
    key = philox_key(77, 3)
    words = np.random.Philox(key=key).random_raw(m)
    return words, np.random.Generator(np.random.Philox(key=key)).random(m)


class TestRawChannelWords:
    """The channel's test on raw words against ``Generator.random() < alpha``."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.4, 2.0 ** -53,
                                       float(np.nextafter(0.4, 0))])
    def test_matches_uniform_test(self, alpha):
        words, u = stream_pair(4096)
        assert np.array_equal(_channel_on(words, alpha), u < alpha)

    def test_a_tie_is_off_and_the_next_double_up_is_on(self):
        words, u = stream_pair(4096)
        # below 1/2 the doubles are finer than the uniforms' 2**-53 grid, so
        # alpha * 2**53 is not an integer one step above a uniform
        i = int(np.flatnonzero((u >= 0.25) & (u < 0.5))[0])
        for alpha, state in ((float(u[i]), False),
                             (float(np.nextafter(u[i], 1)), True)):
            on = _channel_on(words, alpha)
            assert on[i] == state
            assert np.array_equal(on, u < alpha)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_any_alpha(self, alpha):
        words, u = stream_pair(512)
        assert np.array_equal(_channel_on(words, alpha), u < alpha)


class TestKeyPoolBound:
    """Keys are drawn as floor(u * b) with a float64 u, which reaches every
    key for P <= 2^53, and packed ``key << bits | node`` into int64, bits =
    (n-1).bit_length()."""

    def test_largest_pool_that_fits_samples_and_reads_back(self, tmp_path):
        # P = 2^53 is the largest pool the key draw covers; n = 3 packs it
        p = ModelParams(n=3, mu=(1.0,), K=(2,), P=2**53, alpha=1.0)
        net = sample_network(p, SeedSpec(5, 0))
        assert 0 <= net.ring_data.min() and net.ring_data.max() < 2**53
        path = tmp_path / "net.txt"
        write_network(net, path)
        back = read_network(path)
        assert np.array_equal(back.ring_data, net.ring_data)
        # two nodes holding the top key share it; the third shares nothing
        top = 2**53 - 1
        lines = path.read_text().splitlines()
        lines[3:] = [f"1 2 0 {top}", f"1 2 1 {top}", "1 2 2 3", "0 1"]
        path.write_text("\n".join(lines) + "\n")
        assert read_network(path).edges.tolist() == [[0, 1]]
        path.write_text("\n".join(lines[:-1] + ["1 2"]) + "\n")
        with pytest.raises(ValueError, match="share no key"):
            read_network(path)

    @pytest.mark.parametrize("n,P,what", [
        (2, 2**53 + 1, "the key draw"), (3, 2**53 + 1, "the key draw"),
        (500, 2**53 + 1, "the key draw"),
        # from n = 1025 on, 11 node bits make the key index the tighter bound
        (1025, 2**52 + 1, "n=1025")],
        ids=["draw-n2", "draw-n3", "draw-n500", "index-n1025"])
    def test_pool_past_the_bound_is_rejected_before_any_draw(self, monkeypatch,
                                                             n, P, what):
        p = ModelParams(n=n, mu=(1.0,), K=(2,), P=P, alpha=1.0)
        sample_network(p.replace(P=P - 1), SeedSpec(5, 0))
        monkeypatch.setattr(SeedSpec, "stream", lambda self: pytest.fail("drew"))
        with pytest.raises(ValueError, match=f"P={P} is too large for {what}"):
            sample_network(p, SeedSpec(5, 0))

    def test_pool_past_2_53_exits_2_from_sample_and_analyze(self, capsys, tmp_path):
        P = 2**53 + 1
        dump = tmp_path / "net.txt"
        assert main(["sample", "--n", "3", "--P", str(P), "--mu", "1", "--K", "3",
                     "--alpha", "0.5", "--out", str(dump)]) == 2
        assert f"P={P} is too large for the key draw" in capsys.readouterr().err
        assert not dump.exists()
        dump.write_text(f"3 {P} 0.5 1\n1.0\n3\n1 3 0 1 2\n1 3 0 1 2\n1 3 0 1 2\n0 1\n")
        assert main(["analyze", "--in", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{dump}: bad header: P={P} is too large for the key draw" in captured.err


class TestDumpFormat:
    def test_round_trip(self, tmp_path):
        p = ModelParams(n=30, mu=(0.4, 0.6), K=(3, 5), P=40, alpha=0.55)
        net = sample_network(p, SeedSpec(2024, 1))
        path = tmp_path / "net.txt"
        write_network(net, path)
        back = read_network(path)
        assert back.params == p
        assert np.array_equal(back.classes, net.classes)
        assert np.array_equal(back.ring_data, net.ring_data)
        assert np.array_equal(back.edges, net.edges)

    def test_edges_read_back_in_canonical_order(self, tmp_path):
        # edge lines in reverse order, the first written as "v u"
        p = ModelParams(n=30, mu=(0.4, 0.6), K=(3, 5), P=40, alpha=0.55)
        net = sample_network(p, SeedSpec(2024, 1))
        path = tmp_path / "net.txt"
        write_network(net, path)
        original = path.read_bytes()
        lines = path.read_text().splitlines()
        edge_lines = lines[3 + 30:][::-1]
        edge_lines[0] = " ".join(edge_lines[0].split()[::-1])
        path.write_text("\n".join(lines[:3 + 30] + edge_lines) + "\n")
        back = read_network(path)
        assert back.edges.dtype == np.int32
        assert np.array_equal(back.edges, net.edges)
        write_network(back, path)
        assert path.read_bytes() == original

    def test_golden_dump_is_stable(self, tmp_path):
        # frozen once from this implementation; any drift in the stream or
        # the format shows up as a byte difference
        p = ModelParams(n=30, mu=(0.5, 0.5), K=(2, 4), P=24, alpha=0.6)
        net = sample_network(p, SeedSpec(424242, 0))
        path = tmp_path / "golden.txt"
        write_network(net, path)
        expect = (DATA / "golden_network.txt").read_bytes()
        assert path.read_bytes() == expect

    @pytest.mark.parametrize("edge,what", [("0 0", "self-loop"),
                                           (None, "its endpoints share no key")])
    def test_rejected_edge_names_its_line(self, tmp_path, edge, what):
        p = ModelParams(n=30, mu=(0.4, 0.6), K=(3, 5), P=40, alpha=0.55)
        net = sample_network(p, SeedSpec(2024, 1))
        if edge is None:
            ring = rings(net)
            edge = next(f"{x} {y}" for x in range(30) for y in range(x + 1, 30)
                        if not naive_intersects(ring[x], ring[y]))
        path = tmp_path / "net.txt"
        write_network(net, path)
        lines = path.read_text().splitlines()
        lines.insert(3 + 30, edge)  # the first edge line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {3 + 30 + 1}: edge {edge}: {what}$"):
            read_network(path)
