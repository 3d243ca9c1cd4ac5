"""Harness semantics: determinism, aggregation, formats, deletion equivalence."""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import keygraph.experiments as ex
from keygraph import (ExperimentResult, ExperimentSpec, KeyProfileRule,
                      ModelParams, RecordFlags, SeedSpec, is_connected,
                      load_spec, min_degree, run_experiment, sample_network,
                      vertex_connectivity, wilson_halfwidth, write_csv,
                      write_dat)
from keygraph.experiments import (CSV_COLUMNS, fig1_specs, fig2_spec,
                                  fig3_specs, fig4_specs, spec_from_dict)
from keygraph.rng import derive_master
from oracles import connected_after_removal

DATA = Path(__file__).parent / "data"


def mini_spec(**kw):
    base = dict(
        name="mini",
        base=ModelParams(n=30, mu=(0.5, 0.5), K=(3, 5), P=40, alpha=0.5),
        sweep_kind="K1",
        sweep_values=(3, 4),
        rule=KeyProfileRule.offsets(0, 2),
        trials=10,
        k_list=(1, 2),
        master_seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def deletion_spec(depths=(0, 1, 2), trials=12,
                  record=RecordFlags(vertex_cut_curve=True)):
    base = ModelParams(n=24, mu=(0.5, 0.5), K=(3, 5), P=30, alpha=0.6)
    return ExperimentSpec(name="del", base=base, sweep_kind="depth",
                          sweep_values=depths, trials=trials, k_list=(3,),
                          master_seed=11, record=record)


def counting_pool(monkeypatch, cores):
    """Report ``cores`` cores and record the worker count of every pool."""
    made = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(ex, "ProcessPoolExecutor", CountingPool)
    return made


class TestSpecValidation:
    def test_k1_sweep_needs_rule(self):
        with pytest.raises(ValueError):
            mini_spec(rule=None)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            mini_spec(sweep_kind="beta")

    def test_rejects_bad_alpha_values(self):
        with pytest.raises(ValueError):
            mini_spec(sweep_kind="alpha", sweep_values=(0.5, 1.5), rule=None)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            mini_spec(trials=0)

    def test_rejects_depth_beyond_n(self):
        with pytest.raises(ValueError):
            mini_spec(sweep_kind="depth", sweep_values=(40,), rule=None)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_rejects_master_seed_outside_64_bits(self, seed):
        # derive_master masks seeds to 64 bits, so 0 and 2^64 would draw
        # the same trials under different recorded seeds
        with pytest.raises(ValueError, match="master_seed"):
            mini_spec(master_seed=seed)

    def test_accepts_the_64_bit_seed_edges(self):
        for seed in (0, 2**64 - 1):
            assert mini_spec(master_seed=seed).master_seed == seed


class TestRunExperiment:
    def test_forced_complete_graph(self):
        # rings larger than half the pool always share; alpha 1 keeps every
        # channel on, so each sample is complete and k-connected for k < n
        base = ModelParams(n=8, mu=(1.0,), K=(3,), P=4, alpha=1.0)
        spec = ExperimentSpec(name="complete", base=base, sweep_kind="k",
                              sweep_values=(1, 4, 7), trials=1, master_seed=1)
        res = run_experiment(spec)
        for row in res.rows:
            assert row.prob_kconn == 1.0
            assert row.count_kconn == 1

    def test_rows_ordered_and_dominance_holds(self):
        res = run_experiment(mini_spec())
        values = [(r.sweep_value, r.k) for r in res.rows]
        assert values == [(3, 1), (3, 2), (4, 1), (4, 2)]
        for row in res.rows:
            assert row.count_kconn <= row.count_mindeg
            assert 0.0 <= row.prob_kconn <= row.prob_mindeg <= 1.0

    def test_probabilities_non_increasing_in_k(self):
        res = run_experiment(mini_spec(k_list=(1, 2, 3)))
        for value in (3, 4):
            probs = [r.prob_kconn for r in res.rows if r.sweep_value == value]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_deterministic_across_worker_counts(self, tmp_path):
        for spec in (mini_spec(), deletion_spec()):
            a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
            write_csv(run_experiment(spec, workers=1), a)
            write_csv(run_experiment(spec, workers=2), b)
            assert a.read_bytes() == b.read_bytes()

    def test_one_pool_per_run(self, tmp_path, monkeypatch):
        spec = mini_spec(sweep_values=(3, 4, 5))
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        write_csv(run_experiment(spec, workers=1), a)
        made = counting_pool(monkeypatch, cores=2)
        write_csv(run_experiment(spec, workers=2), b)
        assert made == [2]  # one pool for three sweep values, not one each
        assert a.read_bytes() == b.read_bytes()

    def test_specs_of_one_run_share_one_pool(self, monkeypatch):
        # the specs differ in P only, so their thresholds differ at equal
        # (alpha, k): the threshold cache must key on every solver input
        a = mini_spec()
        b = mini_spec(name="mini-P60", base=a.base.replace(P=60))
        single = run_experiment(a).rows + run_experiment(b).rows
        assert [r.threshold_K1 for r in single] == [3, 4, 3, 4, 4, 5, 4, 5]
        assert run_experiment(a, b).rows == single
        made = counting_pool(monkeypatch, cores=2)
        assert run_experiment(a, b, workers=2).rows == single
        assert made == [2]

    def test_no_spec_is_an_empty_result(self, monkeypatch):
        made = counting_pool(monkeypatch, cores=2)
        assert run_experiment(workers=2).rows == ()
        assert made == []

    def test_workers_clamped_to_core_count(self, monkeypatch):
        made = counting_pool(monkeypatch, cores=1)
        rows = run_experiment(mini_spec(), workers=2).rows
        assert made == []
        assert rows == run_experiment(mini_spec(), workers=1).rows

    def test_unrecorded_connectivity_runs_no_predicate(self, monkeypatch):
        # a k = 5 sweep that records only the degree event makes no
        # k-connectivity call; its rows hold the degree counts alone
        calls = []
        check = ex.is_k_connected
        monkeypatch.setattr(ex, "is_k_connected",
                            lambda *a: calls.append(a) or check(*a))
        base = ModelParams(n=30, mu=(0.5, 0.5), K=(4, 6), P=40, alpha=0.8)
        spec = ExperimentSpec(name="deg", base=base, sweep_kind="k",
                              sweep_values=(5,), trials=3, master_seed=2,
                              record=RecordFlags(k_connectivity=False))
        row = run_experiment(spec).rows[0]
        assert calls == []
        master = derive_master(spec.master_seed, 0)
        deltas = [min_degree(sample_network(base, SeedSpec(master, t)).graph())
                  for t in range(spec.trials)]
        count = sum(d >= 5 for d in deltas)
        assert (row.count_mindeg, row.prob_mindeg) == (count, count / 3)
        assert row.mean_delta == sum(deltas) / 3
        assert row.ci_half == wilson_halfwidth(count, 3)
        assert row.count_kconn is None and row.prob_kconn is None
        assert row.mismatch_count is None and row.mean_kappa is None

    def test_deep_k_records_exact_connectivity(self):
        res = run_experiment(mini_spec(k_list=(1, 3)))
        for row in res.rows:
            assert row.mean_kappa is not None

    def test_shallow_k_skips_exact_connectivity(self):
        res = run_experiment(mini_spec(k_list=(1, 2)))
        for row in res.rows:
            assert row.mean_kappa is None

    def test_transition_isotonic_up_to_noise(self):
        # along a ring-size sweep the connectivity probability may wiggle
        # by Monte Carlo noise but not more than twice the interval width
        spec = mini_spec(sweep_values=tuple(range(3, 9)), k_list=(2,),
                         trials=30, master_seed=19)
        res = run_experiment(spec)
        rows = [r for r in res.rows if r.k == 2]
        for a, b in zip(rows, rows[1:]):
            assert b.prob_kconn >= a.prob_kconn - 2 * max(a.ci_half, b.ci_half)

    def test_biconnectivity_point_events_coincide(self):
        # at a well-connected design point the degree event and the
        # 2-connectivity event agree in nearly every trial
        base = ModelParams(n=500, mu=(0.5, 0.5), K=(25, 35), P=10**4,
                           alpha=0.6)
        spec = ExperimentSpec(name="fig1-point", base=base, sweep_kind="k",
                              sweep_values=(2,), trials=200, master_seed=4)
        row = run_experiment(spec).rows[0]
        assert row.trials - row.mismatch_count >= 195
        assert row.prob_kconn >= 0.9  # deep on the connected side

    @pytest.mark.parametrize("kind,values,solves", [("K1", (3, 4, 5), 2),
                                                    ("alpha", (0.3, 0.5, 0.5), 4)])
    def test_threshold_solved_once_per_distinct_input(self, monkeypatch, kind,
                                                      values, solves):
        # one solve per k (k_list has two) and distinct solver input: a K1
        # sweep varies none across rows, an alpha sweep varies alpha
        import keygraph.experiments as ex
        calls = []
        solve = ex.solve_threshold
        monkeypatch.setattr(ex, "solve_threshold",
                            lambda *a: calls.append(a) or solve(*a))
        spec = mini_spec(sweep_kind=kind, sweep_values=values, trials=2)
        rows = run_experiment(spec).rows
        assert len(calls) == solves
        for row in rows:
            sol = solve(row.n, row.P, spec.base.mu, row.alpha, row.k, spec.rule)
            assert row.threshold_K1 == sol.K1_min

    def test_trial_stats_match_direct_evaluation(self):
        # recompute one row by hand from the same seeds
        from keygraph.rng import derive_master
        spec = mini_spec(sweep_values=(4,), k_list=(2,))
        res = run_experiment(spec)
        row = res.rows[0]
        params = spec.base.replace(K=spec.rule.ring_sizes(4))
        row_master = derive_master(spec.master_seed, 0)
        count = 0
        for t in range(spec.trials):
            g = sample_network(params, SeedSpec(row_master, t)).graph()
            if vertex_connectivity(g)[0] >= 2:
                count += 1
        assert row.count_kconn == count


class TestDeletionExperiment:
    def test_requires_cut_curve_flag(self):
        with pytest.raises(ValueError, match="vertex_cut_curve"):
            deletion_spec(record=RecordFlags())

    def test_depth_zero_equals_connectivity_probability(self):
        spec = deletion_spec()
        res = run_experiment(spec)
        row0 = res.rows[0]
        row_master = derive_master(spec.master_seed, 0)
        connected = sum(
            1 for t in range(spec.trials)
            if is_connected(sample_network(spec.base, SeedSpec(row_master, t)).graph()))
        assert row0.sweep_value == 0
        assert row0.count_kconn == connected

    def test_complete_graphs_survive_every_depth(self):
        base = ModelParams(n=8, mu=(1.0,), K=(3,), P=4, alpha=1.0)
        spec = ExperimentSpec(name="del", base=base, sweep_kind="depth",
                              sweep_values=tuple(range(0, 7)), trials=3,
                              k_list=(2,), master_seed=1,
                              record=RecordFlags(vertex_cut_curve=True))
        res = run_experiment(spec)
        assert all(row.prob_kconn == 1.0 for row in res.rows)

    def test_survival_rule_matches_literal_deletion(self):
        # the connectivity-threshold rule equals physically removing nodes
        # from the minimum cut, at every depth the protocol defines
        spec = deletion_spec(depths=tuple(range(0, 5)), trials=20)
        row_master = derive_master(spec.master_seed, 0)
        for t in range(spec.trials):
            g = sample_network(spec.base, SeedSpec(row_master, t)).graph()
            kappa, cut = vertex_connectivity(g)
            for d in range(0, kappa + 1):
                rule_survives = kappa > d
                literal = connected_after_removal(g.n, g.edges, cut[:d].tolist())
                assert rule_survives == literal

    def test_survival_non_increasing_in_depth(self):
        res = run_experiment(deletion_spec(depths=tuple(range(0, 6))))
        probs = [r.prob_kconn for r in res.rows]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_depth_sweep_honours_record_flags(self, tmp_path):
        import csv as csvmod
        full = run_experiment(deletion_spec()).rows
        flags = RecordFlags(min_degree=False, vertex_cut_curve=True)
        rows = run_experiment(deletion_spec(record=flags)).rows
        path = tmp_path / "del.csv"
        write_csv(ExperimentResult(rows=rows), path)
        for a, b in zip(full, rows):
            assert b.count_mindeg is None and b.prob_mindeg is None
            assert b.mismatch_count is None
            assert (b.count_kconn, b.ci_half, b.mean_kappa) == (
                a.count_kconn, a.ci_half, a.mean_kappa)
        with open(path) as fh:
            assert all(r["count_mindeg"] == "" for r in csvmod.DictReader(fh))


class TestWilson:
    def test_halfwidth_at_extremes(self):
        assert wilson_halfwidth(0, 200) < wilson_halfwidth(100, 200)
        assert wilson_halfwidth(200, 200) == wilson_halfwidth(0, 200)

    def test_against_direct_formula(self):
        z = 1.959963984540054
        n, c = 200, 150
        p = c / n
        expect = (z / (1 + z * z / n)) * math.sqrt(
            p * (1 - p) / n + z * z / (4 * n * n))
        assert wilson_halfwidth(c, n) == pytest.approx(expect, rel=1e-12)

    def test_interval_contains_truth_usually(self):
        # coverage sanity on a fixed stream
        rng = np.random.default_rng(12)
        misses = 0
        for _ in range(300):
            p = 0.9
            c = int(rng.binomial(100, p))
            center = c / 100
            if abs(center - p) > wilson_halfwidth(c, 100) + 0.025:
                misses += 1
        assert misses <= 15


class TestCsv:
    def test_header_only_for_empty_result(self, tmp_path):
        res = ExperimentResult(rows=())
        path = tmp_path / "empty.csv"
        write_csv(res, path)
        assert path.read_text() == CSV_COLUMNS + "\n"

    def test_single_row_round_trips(self, tmp_path):
        import csv as csvmod
        res = run_experiment(mini_spec(sweep_values=(4,), k_list=(2,)))
        path = tmp_path / "one.csv"
        write_csv(res, path)
        with open(path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["experiment"] == "mini"
        assert int(row["n"]) == 30
        assert int(row["P"]) == 40
        assert float(row["alpha"]) == 0.5
        assert int(row["k"]) == 2
        assert row["K_profile"] == "offsets:0,2"
        assert int(row["sweep_value"]) == 4
        assert int(row["trials"]) == 10
        assert int(row["count_kconn"]) <= int(row["count_mindeg"])
        assert 0 <= float(row["prob_kconn"]) <= 1
        assert float(row["ci_half"]) > 0
        assert int(row["master_seed"]) == 7

    def test_golden_csv_is_stable(self, tmp_path):
        res = run_experiment(mini_spec())
        path = tmp_path / "golden.csv"
        write_csv(res, path)
        assert path.read_bytes() == (DATA / "golden_mini.csv").read_bytes()

    def test_write_csv_error_carries_path(self, tmp_path):
        res = ExperimentResult(rows=())
        bad = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError, match="missing_dir"):
            write_csv(res, bad)

    def test_dat_output(self, tmp_path):
        res = run_experiment(mini_spec())
        path = tmp_path / "curve.dat"
        write_dat(res, path, k=2)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3  # header + two sweep values
        x, y, ci = lines[1].split()
        assert float(y) <= 1.0 and float(ci) > 0


class TestJsonSpecs:
    def spec_dict(self):
        return {
            "name": "json-mini",
            "base": {"n": 30, "mu": [0.5, 0.5], "K": [3, 5], "P": 40,
                     "alpha": 0.5},
            "sweep": {"kind": "K1", "values": [3, 4],
                      "rule": {"kind": "offsets", "values": [0, 2]}},
            "trials": 5,
            "k_list": [2],
            "master_seed": 3,
            "record": {"min_degree": True, "k_connectivity": True,
                       "vertex_cut_curve": False},
        }

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.spec_dict()))
        spec = load_spec(path)
        assert spec.name == "json-mini"
        assert spec.base.K == (3, 5)
        assert spec.rule.ring_sizes(3) == (3, 5)
        res = run_experiment(spec)
        assert len(res.rows) == 2

    def test_unknown_top_level_key_rejected(self):
        d = self.spec_dict()
        d["extra"] = 1
        with pytest.raises(ValueError, match="extra"):
            spec_from_dict(d)

    def test_unknown_nested_key_rejected(self):
        d = self.spec_dict()
        d["base"]["pool"] = 1
        with pytest.raises(ValueError, match="pool"):
            spec_from_dict(d)

    def test_unknown_rule_kind_rejected(self):
        d = self.spec_dict()
        d["sweep"]["rule"]["kind"] = "scaled"
        with pytest.raises(ValueError, match="scaled"):
            spec_from_dict(d)


class TestCannedStudies:
    def test_fig1_parameter_block(self):
        specs = fig1_specs()
        assert [s.base.alpha for s in specs] == [0.2, 0.4, 0.6, 0.8]
        for s in specs:
            assert s.base.n == 500 and s.base.P == 10**4
            assert s.base.mu == (0.5, 0.5)
            assert s.trials == 200 and s.k_list == (2,)
            assert s.sweep_values[0] == 5 and s.sweep_values[-1] == 40
            assert s.rule.ring_sizes(5) == (5, 15)

    def test_fig2_parameter_block(self):
        s = fig2_spec()
        assert s.base.alpha == 0.4
        assert s.k_list == (4, 6, 8, 10)
        assert s.sweep_values[0] == 15 and s.sweep_values[-1] == 40

    def test_fig3_parameter_block(self):
        specs = fig3_specs()
        karr = [s.base.K for s in specs]
        assert karr == [(10, 70), (20, 60), (30, 50), (40, 40)]
        for s in specs:
            assert s.sweep_kind == "alpha"
            assert min(s.sweep_values) == 0.05 and max(s.sweep_values) == 1.0

    def test_fig4_designs_come_from_the_threshold_rule(self):
        specs = fig4_specs(trials=1)
        assert [s.base.K for s in specs] == [(30, 40), (33, 43), (36, 46), (38, 48)]
        for s, k in zip(specs, (8, 10, 12, 14)):
            assert s.sweep_kind == "depth"
            assert s.k_list == (k,)
            assert s.sweep_values == tuple(range(0, k))
            assert s.record.vertex_cut_curve


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/spans.py patches names inside keygraph modules; a refactor
    # that drops one of them must fail here, not only in a traced benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import spans
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    with spans.Tracer() as tracer:
        ex.run_experiment(mini_spec(sweep_values=(3,), trials=1))
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS] == originals
    names = {rec[2] for rec in tracer.spans}
    assert {"experiments.run_experiment", "sampler.sample_network",
            "analysis.min_degree", "threshold.solve_threshold"} <= names
