"""Exact model quantities against enumeration oracles and frozen values."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keygraph import (ModelParams, admissible, deviation_from_critical,
                      edge_prob_key, mean_edge_prob, mean_edge_prob_key)
from keygraph.cli import main
from keygraph.model import critical_rhs
from oracles import (binomial_ratio_share_prob, enumerate_low_degree_expectation,
                     enumerate_share_prob, low_degree_expectation)


def params_two_class(P=6, K=(2, 3), mu=(0.5, 0.5), n=500, alpha=1.0):
    return ModelParams(n=n, mu=mu, K=K, P=P, alpha=alpha)


class TestParamsValidation:
    def test_mu_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, mu=(0.5, 0.4), K=(2, 3), P=10, alpha=0.5)

    @pytest.mark.parametrize("via_replace", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mu(self, bad, via_replace):
        def build(mu, K):
            if via_replace:
                valid = ModelParams(n=10, mu=(1.0,), K=(2,), P=10, alpha=0.5)
                return valid.replace(mu=mu, K=K)
            return ModelParams(n=10, mu=mu, K=K, P=10, alpha=0.5)

        with pytest.raises(ValueError):
            build((0.5, bad), (2, 3))
        with pytest.raises(ValueError):
            build((bad,), (2,))

    def test_rejects_decreasing_rings(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, mu=(0.5, 0.5), K=(3, 2), P=10, alpha=0.5)

    def test_rejects_alpha_zero(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, mu=(1.0,), K=(2,), P=10, alpha=0.0)

    def test_alpha_one_allowed(self):
        assert ModelParams(n=10, mu=(1.0,), K=(2,), P=10, alpha=1.0).alpha == 1.0

    def test_rejects_ring_larger_than_pool(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, mu=(1.0,), K=(11,), P=10, alpha=0.5)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ModelParams(n=1, mu=(1.0,), K=(2,), P=10, alpha=0.5)

    @pytest.mark.parametrize("field,value", [
        ("K", (2.7,)), ("K", "5"), ("mu", "1"), ("P", True),
        ("n", math.inf), ("alpha", "0.5"), ("alpha", True)])
    def test_rejects_what_it_used_to_coerce(self, field, value):
        # a fraction was truncated, a string or a bool read as a number, and
        # an infinite n raised OverflowError
        args = dict(n=10, mu=(1.0,), K=(2,), P=10, alpha=0.5)
        args[field] = value
        with pytest.raises(ValueError, match=f"^{field} "):
            ModelParams(**args)

    @pytest.mark.parametrize("field,value", [
        ("mu", 0.5), ("K", 2), ("mu", {1.0: "x"}), ("K", {3: None})])
    def test_rejects_a_scalar_for_a_sequence(self, field, value):
        # a scalar used to raise TypeError: 'float' object is not iterable,
        # and a dict passed as the tuple of its keys
        args = dict(n=10, mu=(1.0,), K=(2,), P=10, alpha=0.5)
        args[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a sequence"):
            ModelParams(**args)


class TestEdgeProbKey:
    def test_pool6_rings_2_3(self):
        # frozen from the enumeration oracle: 240 of 300 ring pairs intersect
        p = params_two_class(P=6, K=(2, 3))
        assert enumerate_share_prob(6, 2, 3) == Fraction(4, 5)
        assert edge_prob_key(p, 1, 2) == 0.8

    def test_forced_overlap_is_exactly_one(self):
        p = params_two_class(P=4, K=(2, 3))
        assert edge_prob_key(p, 1, 2) == 1.0

    def test_pool6_rings_2_2(self):
        p = params_two_class(P=6, K=(2, 3))
        assert enumerate_share_prob(6, 2, 2) == Fraction(3, 5)
        assert edge_prob_key(p, 1, 1) == pytest.approx(0.6, abs=0)

    def test_index_out_of_range(self):
        p = params_two_class()
        with pytest.raises(IndexError):
            edge_prob_key(p, 0, 1)
        with pytest.raises(IndexError):
            edge_prob_key(p, 1, 3)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_exactly(self, P, data):
        Ki = data.draw(st.integers(1, max(1, P // 2)))
        Kj = data.draw(st.integers(1, max(1, P // 2)))
        lo, hi = sorted((Ki, Kj))
        p = ModelParams(n=5, mu=(0.5, 0.5), K=(lo, hi), P=P, alpha=0.5)
        assert edge_prob_key(p, 1, 2) == float(enumerate_share_prob(P, lo, hi))

    def test_product_form_equals_binomial_ratio(self):
        # bit for bit: every ring pair up to P/2 for P <= 60, and at the
        # figures' P = 10^4 every pair of rings up to 60 keys and half the pool
        grids = [(P, range(1, P // 2 + 1)) for P in range(2, 61)]
        grids.append((10**4, [*range(1, 61), 5000]))
        for P, sizes in grids:
            for lo, hi in itertools.combinations_with_replacement(sizes, 2):
                p = ModelParams(n=5, mu=(0.5, 0.5), K=(lo, hi), P=P, alpha=0.5)
                expect = float(binomial_ratio_share_prob(P, lo, hi))
                assert edge_prob_key(p, 1, 2) == expect, (P, lo, hi)

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_saturation(self, P, data):
        Ki = data.draw(st.integers(1, P))
        Kj = data.draw(st.integers(Ki, P))
        p = ModelParams(n=5, mu=(0.5, 0.5), K=(Ki, Kj), P=P, alpha=0.5)
        assert abs(edge_prob_key(p, 1, 2) - edge_prob_key(p, 2, 1)) < 1e-12
        if Ki + Kj > P:
            assert edge_prob_key(p, 1, 2) == 1.0

    def test_monotone_in_ring_sizes(self):
        P = 40
        for Kj in (3, 9, 17):
            probs = [
                edge_prob_key(
                    ModelParams(n=5, mu=(0.5, 0.5), K=tuple(sorted((Ki, Kj))),
                                P=P, alpha=0.5),
                    1 if Ki <= Kj else 2, 2 if Ki <= Kj else 1)
                for Ki in range(1, P + 1)
            ]
            assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))


class TestMeanEdgeProb:
    def test_single_class_equals_pairwise(self):
        p = ModelParams(n=50, mu=(1.0,), K=(3,), P=20, alpha=0.7)
        assert mean_edge_prob_key(p, 1) == edge_prob_key(p, 1, 1)

    def test_two_class_mixture(self):
        # 0.5 * 0.6 + 0.5 * 0.8 with the pool-6 values above
        p = params_two_class(P=6, K=(2, 3))
        assert mean_edge_prob_key(p, 1) == pytest.approx(0.7, abs=1e-15)

    def test_full_visibility_limit(self):
        p = params_two_class(alpha=1.0)
        assert mean_edge_prob(p, 1) == mean_edge_prob_key(p, 1)

    def test_channel_scales_mean(self):
        p = params_two_class(P=6, K=(2, 3), alpha=0.5)
        assert mean_edge_prob(p, 1) == pytest.approx(0.35, abs=1e-15)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_class_ordering(self, data):
        r = data.draw(st.integers(1, 4))
        P = data.draw(st.integers(4, 50))
        K = sorted(data.draw(st.lists(st.integers(1, P), min_size=r, max_size=r)))
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=r, max_size=r))
        total = math.fsum(weights)
        p = ModelParams(n=10, mu=[w / total for w in weights], K=K, P=P, alpha=0.6)
        lams = [mean_edge_prob_key(p, i) for i in range(1, r + 1)]
        caps = [mean_edge_prob(p, i) for i in range(1, r + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(lams, lams[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))


class TestLowDegreeLaw:
    # (n, P, K, mu, alpha, k); the last case forces overlap (K1 + K2 > P).
    @pytest.mark.parametrize("n,P,K,mu,alpha,k", [
        (4, 4, (1, 2), (Fraction(1, 3), Fraction(2, 3)), Fraction(1, 2), 1),
        (4, 5, (1, 2), (Fraction(1, 3), Fraction(2, 3)), Fraction(1, 2), 2),
        (3, 4, (2, 3), (Fraction(1, 4), Fraction(3, 4)), Fraction(2, 3), 2),
    ])
    def test_binomial_law_matches_enumeration_exactly(self, n, P, K, mu,
                                                      alpha, k):
        expect = enumerate_low_degree_expectation(n, P, mu, K, alpha, k)
        assert 0 < expect < n
        assert low_degree_expectation(n, P, mu, K, alpha, k) == expect


class TestDeviation:
    def test_definitional_zero(self):
        # pick alpha so the class-1 mean secure-degree sits exactly on the
        # critical level, then the deviation vanishes
        n, k = 500, 3
        base = ModelParams(n=n, mu=(1.0,), K=(20,), P=10**4, alpha=1.0)
        lam = mean_edge_prob_key(base, 1)
        target = (math.log(n) + (k - 1) * math.log(math.log(n))) / n
        p = base.replace(alpha=target / lam)
        assert deviation_from_critical(p, k) == pytest.approx(0.0, abs=1e-9)

    def test_design_point_above(self):
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(30, 40), P=10**4, alpha=0.4)
        assert deviation_from_critical(p, 8) > 0

    def test_one_below_design_point_is_below(self):
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(29, 39), P=10**4, alpha=0.4)
        assert deviation_from_critical(p, 8) < 0

    def test_requires_n_at_least_3(self):
        p = ModelParams(n=2, mu=(1.0,), K=(2,), P=10, alpha=0.5)
        with pytest.raises(ValueError):
            deviation_from_critical(p, 1)

    @pytest.mark.parametrize("n,alpha,k", [(2, 0.5, 1), (500, 0.0, 1), (500, 0.5, 0),
                                           (500, 0.5, 1.5), (math.inf, 0.5, 1)])
    def test_critical_level_checks_its_arguments(self, n, alpha, k):
        with pytest.raises(ValueError):
            critical_rhs(n, alpha, k)

    def test_deviation_is_scaled_excess_over_critical_level(self):
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(30, 40), P=10**4, alpha=0.4)
        excess = mean_edge_prob_key(p, 1) - critical_rhs(500, 0.4, 8)
        assert deviation_from_critical(p, 8) == 500 * 0.4 * excess


class TestScalingReport:
    def test_single_key_ring_inadmissible(self):
        assert not admissible((1,), 50)
        assert admissible((2,), 50)

    def test_oversized_ring_inadmissible(self):
        assert not admissible((26,), 50)
        assert admissible((25,), 50)
        # a fixed tail overtaken by K1 leaves the rings out of order
        assert not admissible((5, 4), 50)

    def test_design_point_report(self, capsys):
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(30, 40), P=10**4, alpha=0.4)
        assert main(["prob", "--n", "500", "--P", "10000", "--mu", "0.5,0.5",
                     "--K", "30,40", "--alpha", "0.4", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert f"mean_edge_prob_key[1]={mean_edge_prob_key(p, 1):.6f}" in out
        assert deviation_from_critical(p, 8) > 0 and "side=above" in out
        fields = dict(f.split("=") for f in out.splitlines()[-1].split())
        assert fields["admissible"] == "True"
        assert float(fields["pool/nodes"]) == 20.0
        assert float(fields["ring/pool"]) == pytest.approx(0.004)
        assert float(fields["spread/log"]) == pytest.approx(
            (40 / 30) / math.log(500), rel=1e-5)
