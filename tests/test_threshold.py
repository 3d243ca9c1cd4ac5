"""Threshold solver: published design values, minimality, coherence."""

import math
import re

import pytest

import keygraph.cli
from keygraph import (KeyProfileRule, ModelParams, deviation_from_critical,
                      mean_edge_prob_key, run_experiment, solve_threshold)
from keygraph.cli import main
from keygraph.experiments import fig4_specs
from keygraph.model import critical_rhs
from keygraph.threshold import _scan

STEP10 = KeyProfileRule.offsets(0, 10)


@pytest.fixture(autouse=True)
def no_solved_designs():
    """Every test starts with no scan remembered, whatever ran before it."""
    _scan.cache_clear()


def prob_side_line(capsys, p, k):
    """The ``k=... deviation=... side=...`` line that ``prob`` prints for p."""
    assert main(["prob", "--n", str(p.n), "--P", str(p.P),
                 "--mu", ",".join(map(repr, p.mu)),
                 "--K", ",".join(map(str, p.K)),
                 "--alpha", repr(p.alpha), "--k", str(k)]) == 0
    return next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith(f"k={k} "))


class TestRule:
    def test_offsets_generate_rings(self):
        assert STEP10.ring_sizes(30) == (30, 40)

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError):
            KeyProfileRule.offsets(1, 5)

    def test_offsets_must_be_monotone(self):
        with pytest.raises(ValueError):
            KeyProfileRule.offsets(0, 5, 3)

    def test_fixed_tail(self):
        rule = KeyProfileRule.fixed_tail(40, 50)
        assert rule.ring_sizes(20) == (20, 40, 50)

    @pytest.mark.parametrize("kind,values", [
        ("bogus", (5,)), ("offsets", (3, 1)), ("offsets", ()), ("offsets", (0, 5, 3)),
        ("offsets", (0, 2.5)), ("fixed_tail", (0,)), ("fixed_tail", (4, 3)),
        ("offsets", {0: None, 10: None})])
    def test_constructor_checks_itself(self, kind, values):
        # an unknown kind used to act as a fixed tail, offsets that do not
        # start at 0 gave decreasing rings, and a dict passed as its keys
        with pytest.raises(ValueError):
            KeyProfileRule(kind, values)

    def test_constructor_rejects_a_scalar_for_values(self):
        # a scalar used to raise TypeError: 'int' object is not iterable
        with pytest.raises(ValueError, match="^offsets values must be a sequence"):
            KeyProfileRule("offsets", 5)

    def test_constructor_normalises_values(self):
        assert KeyProfileRule("offsets", [0, 10.0]) == STEP10
        assert hash(KeyProfileRule("offsets", [0, 10])) == hash(STEP10)

    def test_labels(self):
        assert STEP10.profile_label() == "offsets:0,10"
        assert KeyProfileRule.fixed_tail(40).profile_label() == "fixed_tail:40"


class TestSolver:
    @pytest.mark.parametrize("k,expected", [(8, 30), (10, 33), (12, 36), (14, 38)])
    def test_published_design_values(self, k, expected):
        assert solve_threshold(500, 10**4, (0.5, 0.5), 0.4, k, STEP10) == expected

    def test_single_class_small_target(self):
        # frozen: smallest K with share probability above log(500)/500 is 12,
        # verified against the rational product at solve time
        rule = KeyProfileRule.offsets(0)
        assert solve_threshold(500, 10**4, (1.0,), 1.0, 1, rule) == 12
        below = ModelParams(n=500, mu=(1.0,), K=(11,), P=10**4, alpha=1.0)
        at = ModelParams(n=500, mu=(1.0,), K=(12,), P=10**4, alpha=1.0)
        rhs = math.log(500) / 500
        assert mean_edge_prob_key(below, 1) <= rhs < mean_edge_prob_key(at, 1)

    @pytest.mark.parametrize("k", [8, 10, 12, 14])
    def test_minimality(self, k):
        K1 = solve_threshold(500, 10**4, (0.5, 0.5), 0.4, k, STEP10)
        at = ModelParams(n=500, mu=(0.5, 0.5), K=STEP10.ring_sizes(K1),
                         P=10**4, alpha=0.4)
        rhs = critical_rhs(500, 0.4, k)
        assert mean_edge_prob_key(at.replace(K=STEP10.ring_sizes(K1 - 1)), 1) <= rhs
        assert mean_edge_prob_key(at, 1) > rhs

    def test_solver_classifier_coherence(self, capsys):
        K1 = solve_threshold(500, 10**4, (0.5, 0.5), 0.4, 8, STEP10)
        at = ModelParams(n=500, mu=(0.5, 0.5), K=STEP10.ring_sizes(K1),
                         P=10**4, alpha=0.4)
        below = at.replace(K=STEP10.ring_sizes(K1 - 1))
        assert deviation_from_critical(at, 8) > 0
        assert deviation_from_critical(below, 8) < 0
        assert prob_side_line(capsys, at, 8).endswith(" side=above")
        assert prob_side_line(capsys, below, 8).endswith(" side=below")

    def test_monotone_in_k_and_alpha(self):
        ks = [2, 4, 6, 8, 10, 12, 14]
        sols = [solve_threshold(500, 10**4, (0.5, 0.5), 0.4, k, STEP10) for k in ks]
        assert all(a <= b for a, b in zip(sols, sols[1:]))
        alphas = [0.2, 0.4, 0.6, 0.8, 1.0]
        sols = [solve_threshold(500, 10**4, (0.5, 0.5), a, 8, STEP10) for a in alphas]
        assert all(a >= b for a, b in zip(sols, sols[1:]))

    def test_unsatisfiable_pool(self):
        # a 12-key pool cannot reach the critical level for k=40 at n=500
        assert solve_threshold(500, 12, (0.5, 0.5), 0.05, 40, STEP10) is None

    def test_a_list_and_a_tuple_mu_share_one_scan(self):
        # the CLI passes mu as a list, specs as a tuple
        a = solve_threshold(500, 10**4, [0.5, 0.5], 0.4, 8, STEP10)
        assert solve_threshold(500, 10**4, (0.5, 0.5), 0.4, 8, STEP10) == a == 30
        assert _scan.cache_info().misses == 1

    @pytest.mark.parametrize("mu,message", [
        ([[0.5], 0.5], "mu must be a real number, got [0.5]"),
        (0.5, "mu must be a sequence, got 0.5")])
    def test_a_bad_mu_raises_before_the_memo(self, mu, message):
        # an unhashable entry must not reach the memo as a TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_threshold(500, 10**4, mu, 0.4, 8, STEP10)

    def test_a_run_reuses_the_designs_its_specs_solved(self):
        # four designs, scanned by the first fig4_specs call only, not again
        # by the second or by the run's own threshold_K1 column
        fig4_specs()
        rows = run_experiment(*fig4_specs(trials=1))
        assert _scan.cache_info().misses == 4
        assert {r.threshold_K1 for r in rows} == {30, 33, 36, 38}

    def test_fixed_tail_scan_respects_ordering(self):
        rule = KeyProfileRule.fixed_tail(4)
        # tail of 4 caps K1; with a tiny pool nothing satisfies k=30
        assert solve_threshold(500, 40, (0.5, 0.5), 0.1, 30, rule) is None


class TestClassifier:
    def test_design_point_above(self, capsys):
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(30, 40), P=10**4, alpha=0.4)
        assert deviation_from_critical(p, 8) > 0
        assert prob_side_line(capsys, p, 8).endswith(" side=above")

    def test_below_design_point(self, capsys):
        p = ModelParams(n=500, mu=(0.5, 0.5), K=(29, 39), P=10**4, alpha=0.4)
        assert deviation_from_critical(p, 8) < 0
        assert prob_side_line(capsys, p, 8).endswith(" side=below")

    def test_boundary_flagged(self, capsys):
        n, k = 500, 3
        base = ModelParams(n=n, mu=(1.0,), K=(20,), P=10**4, alpha=1.0)
        lam = mean_edge_prob_key(base, 1)
        target = (math.log(n) + (k - 1) * math.log(math.log(n))) / n
        p = base.replace(alpha=target / lam)
        dev = deviation_from_critical(p, k)
        # lands within float error of zero; the side follows the sign and
        # the flag only fires on an exact zero
        line = prob_side_line(capsys, p, k)
        assert line.split()[2] == ("side=above" if dev >= 0 else "side=below")
        assert line.endswith(" (boundary)") == (dev == 0.0)

    def test_exact_zero_is_boundary(self, capsys, monkeypatch):
        p = ModelParams(n=500, mu=(1.0,), K=(20,), P=10**4, alpha=0.5)
        monkeypatch.setattr(keygraph.cli, "deviation_from_critical",
                            lambda *_: 0.0)
        assert prob_side_line(capsys, p, 3) == \
            "k=3 deviation=0.000000 side=above (boundary)"
