"""Harness semantics: determinism, aggregation, formats, deletion equivalence."""

import json
import math
import os
import platform
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import keygraph.experiments as ex
from keygraph import (ExperimentRow, ExperimentSpec, KeyProfileRule,
                      ModelParams, RecordFlags, SeedSpec, is_connected,
                      load_spec, minimum_vertex_cut, run_experiment,
                      sample_network, vertex_connectivity, wilson_halfwidth,
                      write_csv, write_dat)
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
                  record=RecordFlags(vertex_cut_curve=True), k_list=(3,)):
    base = ModelParams(n=24, mu=(0.5, 0.5), K=(3, 5), P=30, alpha=0.6)
    return ExperimentSpec(name="del", base=base, sweep_kind="depth",
                          sweep_values=depths, trials=trials, k_list=k_list,
                          master_seed=11, record=record)


def counting_pool(monkeypatch, cores):
    """Report ``cores`` usable CPUs and record the worker count of every
    pool."""
    made = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(ex, "_usable_cpus", lambda: cores)
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

    @pytest.mark.parametrize("k_list", [(3, 9), (3, 3)])
    def test_depth_sweep_needs_exactly_one_k(self, k_list):
        # a depth sweep draws one cell for one design k; a second k would
        # be dropped without a row
        with pytest.raises(ValueError, match="k_list"):
            deletion_spec(k_list=k_list)

    @pytest.mark.parametrize("k_list", [(3, 9), (2,)])
    def test_k_sweep_rejects_k_list(self, k_list):
        # a k sweep's targets are its values; a k_list would be dropped
        with pytest.raises(ValueError, match="k_list"):
            mini_spec(sweep_kind="k", sweep_values=(1, 2), rule=None,
                      k_list=k_list)
        assert mini_spec(sweep_kind="k", sweep_values=(1, 2), rule=None,
                         k_list=None).k_list is None

    @pytest.mark.parametrize("kw,match", [
        (dict(trials=2.5), "trials"), (dict(trials=True), "trials"),
        (dict(master_seed=1.5), "master_seed"), (dict(master_seed="3"), "master_seed"),
        (dict(k_list=(2, math.inf)), "k_list"), (dict(sweep_values=(3, math.inf)), "K1"),
        (dict(sweep_kind="alpha", rule=None, sweep_values=("0.5",)), "alpha")])
    def test_rejects_what_it_used_to_coerce(self, kw, match):
        # fractional trials and seeds used to pass here and fail with
        # TypeError inside a run; an infinity raised OverflowError and a
        # string alpha TypeError
        with pytest.raises(ValueError, match=match):
            mini_spec(**kw)

    @pytest.mark.parametrize("kw,match", [
        (dict(sweep_kind="alpha", rule=None, sweep_values=0.5), "^sweep_values "),
        (dict(k_list=3), "^k_list "),
        (dict(sweep_values={3: 4}), "^sweep_values "), (dict(k_list={2: 1}), "^k_list ")])
    def test_rejects_a_scalar_for_a_sequence(self, kw, match):
        # a scalar used to raise TypeError: 'float' object is not iterable,
        # and a dict passed as the tuple of its keys
        with pytest.raises(ValueError, match=match + "must be a sequence"):
            mini_spec(**kw)

    @pytest.mark.parametrize("kw,match", [
        (dict(base={"n": 30}), "^base must be a ModelParams"),
        (dict(base=None), "^base must be a ModelParams"),
        (dict(rule="offsets"), "^rule must be a KeyProfileRule or None"),
        (dict(rule=(0, 2)), "^rule must be a KeyProfileRule or None"),
        (dict(record={"vertex_cut_curve": True}), "^record must be a RecordFlags"),
        (dict(record=None), "^record must be a RecordFlags")])
    def test_rejects_a_part_of_the_wrong_type(self, kw, match):
        # each of these used to pass here and fail with AttributeError
        # inside run_experiment
        with pytest.raises(ValueError, match=match):
            mini_spec(**kw)

    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.True_])
    def test_record_flag_must_be_a_bool(self, value):
        # "no" used to be accepted, and being truthy it turned exact kappa on
        with pytest.raises(ValueError, match="^vertex_cut_curve "):
            RecordFlags(vertex_cut_curve=value)

    @pytest.mark.parametrize("kind,values,k_list", [
        ("K1", (3.0, 4.0), (2.0,)), ("k", (1.0, 2.0), None),
        ("depth", (0.0, 1.0), (3.0,))])
    def test_integral_values_are_stored_as_ints(self, kind, values, k_list):
        spec = mini_spec(sweep_kind=kind, sweep_values=values, k_list=k_list,
                         record=RecordFlags(vertex_cut_curve=kind == "depth"))
        assert spec.sweep_values == values
        assert all(type(v) is int for v in spec.sweep_values + (spec.k_list or ()))

    def test_integral_counts_become_ints(self):
        spec = mini_spec(trials=3.0, master_seed=5.0)
        assert (spec.trials, spec.master_seed) == (3, 5)
        assert type(spec.trials) is type(spec.master_seed) is int

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
        for row in res:
            assert row.prob_kconn == 1.0
            assert row.count_kconn == 1

    def test_rows_ordered_and_dominance_holds(self):
        res = run_experiment(mini_spec())
        values = [(r.sweep_value, r.k) for r in res]
        assert values == [(3, 1), (3, 2), (4, 1), (4, 2)]
        for row in res:
            assert row.count_kconn <= row.count_mindeg
            assert 0.0 <= row.prob_kconn <= row.prob_mindeg <= 1.0

    def test_probabilities_non_increasing_in_k(self):
        res = run_experiment(mini_spec(k_list=(1, 2, 3)))
        for value in (3, 4):
            probs = [r.prob_kconn for r in res if r.sweep_value == value]
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
        single = run_experiment(a) + run_experiment(b)
        assert [r.threshold_K1 for r in single] == [3, 4, 3, 4, 4, 5, 4, 5]
        assert run_experiment(a, b) == single
        made = counting_pool(monkeypatch, cores=2)
        assert run_experiment(a, b, workers=2) == single
        assert made == [2]

    def test_no_spec_is_an_empty_result(self, monkeypatch):
        made = counting_pool(monkeypatch, cores=2)
        assert run_experiment(workers=2) == ()
        assert made == []

    def test_rows_are_the_result(self):
        rows = run_experiment(mini_spec())
        assert type(rows) is tuple and len(rows) == 4
        assert all(type(r) is ExperimentRow for r in rows)

    def test_two_specs_of_one_name_are_rejected_before_any_trial(self, monkeypatch,
                                                                 tmp_path):
        # one name would put both runs' rows into one plot table
        a = mini_spec(k_list=(2,))
        monkeypatch.setattr(ex, "_evaluate_trial", lambda job, t: pytest.fail("ran"))
        with pytest.raises(ValueError, match="two specs are named 'mini'"):
            write_dat(run_experiment(a, replace(a, master_seed=9)), tmp_path / "p")
        with pytest.raises(ValueError, match="two specs are named 'fig1_alpha0.4'"):
            run_experiment(*fig1_specs(trials=1, alphas=(0.4, 0.4)))
        assert list(tmp_path.iterdir()) == []

    def test_workers_clamped_to_core_count(self, monkeypatch):
        made = counting_pool(monkeypatch, cores=1)
        rows = run_experiment(mini_spec(), workers=2)
        assert made == []
        assert rows == run_experiment(mini_spec(), workers=1)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_workers_clamped_to_the_affinity_set(self, monkeypatch):
        # taskset or a cpuset leaves the process fewer CPUs than the machine
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(ex, "ProcessPoolExecutor",
                            lambda **kw: pytest.fail("a pool was built"))
        assert ex._usable_cpus() == 1
        assert run_experiment(mini_spec(), workers=2) == run_experiment(mini_spec())

    def test_deep_k_records_exact_connectivity(self):
        res = run_experiment(mini_spec(k_list=(1, 3)))
        for row in res:
            assert row.mean_kappa is not None

    def test_shallow_k_skips_exact_connectivity(self):
        res = run_experiment(mini_spec(k_list=(1, 2)))
        for row in res:
            assert row.mean_kappa is None

    def test_transition_isotonic_up_to_noise(self):
        # along a ring-size sweep the connectivity probability may wiggle
        # by Monte Carlo noise but not more than twice the interval width
        spec = mini_spec(sweep_values=tuple(range(3, 9)), k_list=(2,),
                         trials=30, master_seed=19)
        res = run_experiment(spec)
        rows = [r for r in res if r.k == 2]
        for a, b in zip(rows, rows[1:]):
            assert b.prob_kconn >= a.prob_kconn - 2 * max(a.ci_half, b.ci_half)

    def test_biconnectivity_point_events_coincide(self):
        # at a well-connected design point the degree event and the
        # 2-connectivity event agree in nearly every trial
        base = ModelParams(n=500, mu=(0.5, 0.5), K=(25, 35), P=10**4,
                           alpha=0.6)
        spec = ExperimentSpec(name="fig1-point", base=base, sweep_kind="k",
                              sweep_values=(2,), trials=200, master_seed=4)
        row = run_experiment(spec)[0]
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
        rows = run_experiment(spec)
        assert len(calls) == solves
        for row in rows:
            assert row.threshold_K1 == solve(row.n, row.P, spec.base.mu,
                                             row.alpha, row.k, spec.rule)

    def test_trial_stats_match_direct_evaluation(self):
        # recompute one row by hand from the same seeds
        from keygraph.rng import derive_master
        spec = mini_spec(sweep_values=(4,), k_list=(2,))
        res = run_experiment(spec)
        row = res[0]
        params = spec.base.replace(K=spec.rule.ring_sizes(4))
        row_master = derive_master(spec.master_seed, 0)
        count = 0
        for t in range(spec.trials):
            g = sample_network(params, SeedSpec(row_master, t)).graph()
            if vertex_connectivity(g) >= 2:
                count += 1
        assert row.count_kconn == count

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap")
    def test_trial_arrays_are_not_faulted_in_again(self):
        # a 1 MB array (an n = 500 channel block) that one trial frees is
        # reused by the next; without fixed thresholds it may be mapped anew
        import resource
        ex._run_tasks([], 1)
        np.ones(1 << 17)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.ones(1 << 17)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 32


class TestDeletionExperiment:
    def test_requires_cut_curve_flag(self):
        with pytest.raises(ValueError, match="vertex_cut_curve"):
            deletion_spec(record=RecordFlags())

    def test_depth_zero_equals_connectivity_probability(self):
        spec = deletion_spec()
        res = run_experiment(spec)
        row0 = res[0]
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
        assert all(row.prob_kconn == 1.0 for row in res)

    def test_survival_rule_matches_literal_deletion(self):
        # the connectivity-threshold rule equals physically removing nodes
        # from the minimum cut, at every depth the protocol defines
        spec = deletion_spec(depths=tuple(range(0, 5)), trials=20)
        row_master = derive_master(spec.master_seed, 0)
        for t in range(spec.trials):
            g = sample_network(spec.base, SeedSpec(row_master, t)).graph()
            kappa, cut = minimum_vertex_cut(g)
            for d in range(0, kappa + 1):
                rule_survives = kappa > d
                literal = connected_after_removal(g.n, g.edges, cut[:d].tolist())
                assert rule_survives == literal

    def test_survival_non_increasing_in_depth(self):
        res = run_experiment(deletion_spec(depths=tuple(range(0, 6))))
        probs = [r.prob_kconn for r in res]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


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
        res = ()
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
        res = ()
        bad = tmp_path / "missing_dir" / "out.csv"
        with pytest.raises(OSError, match="missing_dir"):
            write_csv(res, bad)

    def test_list_form_writes_the_results_in_turn(self, tmp_path):
        a, b = mini_spec(), mini_spec(name="other", k_list=(2,), master_seed=3)
        one, two = tmp_path / "list.csv", tmp_path / "run.csv"
        write_csv([run_experiment(a), run_experiment(b)], one)
        write_csv(run_experiment(a, b), two)
        assert one.read_bytes() == two.read_bytes()
        assert len(one.read_text().splitlines()) == 1 + 4 + 2

    def test_dat_output(self, tmp_path):
        res = run_experiment(mini_spec())
        prefix = tmp_path / "curve"
        assert write_dat(res, prefix) == [f"{prefix}.mini.k1.dat",
                                          f"{prefix}.mini.k2.dat"]
        lines = (tmp_path / "curve.mini.k2.dat").read_text().splitlines()
        assert lines[0] == "# k=2 columns: sweep_value probability ci_half"
        assert len(lines) == 3  # header + two sweep values
        x, y, ci = lines[1].split()
        assert float(y) <= 1.0 and float(ci) > 0

    def test_dat_tables_split_a_run_by_experiment_and_k(self, tmp_path):
        # two experiments sweep the same values; the second lists k descending
        a = mini_spec(k_list=(2,))
        b = mini_spec(name="other", k_list=(3, 1), master_seed=3)
        res = run_experiment(a, b)
        prefix = str(tmp_path / "run")
        paths = write_dat(res, prefix)
        assert paths == [f"{prefix}.mini.k2.dat", f"{prefix}.other.k1.dat",
                         f"{prefix}.other.k3.dat"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            Path(p).name for p in paths)
        for path in paths:
            name, k = Path(path).name.split(".")[1:3]
            rows = [r for r in res if r.experiment == name and f"k{r.k}" == k]
            assert [ln.split() for ln in Path(path).read_text().splitlines()[1:]] == [
                [str(r.sweep_value), f"{r.prob_kconn:.6f}", f"{r.ci_half:.6f}"]
                for r in rows]
            assert len(rows) == 2  # one per sweep value, none of the other run
        # each table equals the one written from its experiment's own run
        alone = [p for spec in (a, b)
                 for p in write_dat(run_experiment(spec), tmp_path / "alone")]
        assert [Path(p).read_bytes() for p in alone] == [
            Path(p).read_bytes() for p in paths]


# Bad values for each key of a JSON spec, by the key's path.  A null
# k_list is left out: in Python, None leaves k_list unset.
BAD_SPEC_VALUES = {
    ("name",): ["", "a/b", "a\0b", 7, None, ["a"]],
    ("base", "n"): [1, 2.5, True, "30", None, [30], {"n": 30}, math.inf],
    ("base", "mu"): [0.5, "1", None, {"0.5": 1}, [0.5, "x"], [0.5, math.inf],
                     [0.5, True], [0.6, 0.6], [1.0], []],
    ("base", "K"): [3, "3", None, {"3": 5}, [3, 5.5], [3, True], [5, 3],
                    [3, 50], [3], [0, 5]],
    ("base", "P"): [0, 40.5, False, "40", None, 4],
    ("base", "alpha"): [0, 1.5, -0.5, math.inf, math.nan, True, "0.5", None, [0.5]],
    ("sweep", "kind"): ["beta", None, 1, ["K1"]],
    ("sweep", "values"): [3, "34", None, {"3": 4}, [], [3, 4.5], [1], [3, True],
                          [3, math.inf], [3, None]],
    ("sweep", "rule", "kind"): ["scaled", None, 0],
    ("sweep", "rule", "values"): [0, "02", None, {"0": 2}, [1, 2], [0, -2],
                                  [0, 2.5], [0, True], []],
    ("trials",): [0, 2.5, True, "5", None, [5], math.inf],
    ("k_list",): [2, "2", {"2": 1}, [], [0], [2.5], [True], [math.inf]],
    ("master_seed",): [-1, 2**64, 1.5, False, "3", None],
    ("record", "vertex_cut_curve"): ["no", 0, 1, None, [True]],
}


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
            "record": {"vertex_cut_curve": False},
        }

    def build_directly(self, path, value):
        """The constructor that owns ``path``, given ``value`` there."""
        d = self.spec_dict()
        owner, key = path[0], path[-1]
        if owner == "base":
            return ModelParams(**{**d["base"], key: value})
        if path[:2] == ("sweep", "rule"):
            return KeyProfileRule(**{**d["sweep"]["rule"], key: value})
        if owner == "record":
            return RecordFlags(**{key: value})
        kwargs = dict(name=d["name"], base=ModelParams(**d["base"]), sweep_kind="K1",
                      sweep_values=d["sweep"]["values"],
                      rule=KeyProfileRule(**d["sweep"]["rule"]), trials=d["trials"],
                      k_list=d["k_list"], master_seed=d["master_seed"])
        kwargs[{"kind": "sweep_kind", "values": "sweep_values"}.get(key, key)] = value
        return ExperimentSpec(**kwargs)

    @pytest.mark.parametrize("path,value", [
        pytest.param(path, value, id=f"{'.'.join(path)}={value!r}")
        for path, values in BAD_SPEC_VALUES.items() for value in values])
    def test_json_rejects_exactly_as_the_constructor(self, path, value):
        # the parser checks only the keys; every value check and its message
        # belong to the constructor, so Python and JSON reject alike
        d = self.spec_dict()
        owner = d
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        with pytest.raises(ValueError) as direct:
            self.build_directly(path, value)
        with pytest.raises(ValueError) as parsed:
            spec_from_dict(json.loads(json.dumps(d)))
        assert str(parsed.value) == str(direct.value)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.spec_dict()))
        spec = load_spec(path)
        assert spec.name == "json-mini"
        assert spec.base.K == (3, 5)
        assert spec.rule.ring_sizes(3) == (3, 5)
        res = run_experiment(spec)
        assert len(res) == 2

    def test_unknown_top_level_key_rejected(self):
        d = self.spec_dict()
        d["extra"] = 1
        with pytest.raises(ValueError, match="extra"):
            spec_from_dict(d)

    def test_unknown_nested_key_rejected(self):
        # the last three are keys of options that no longer exist
        for owner, key in (("base", "pool"), ("record", "min_degree"),
                           ("record", "k_connectivity"), ("base", "normalize_mu")):
            d = self.spec_dict()
            d[owner][key] = True
            with pytest.raises(ValueError, match=key):
                spec_from_dict(d)

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None, [True]])
    def test_record_flag_must_be_a_boolean(self, value):
        d = self.spec_dict()
        d["record"]["vertex_cut_curve"] = value
        with pytest.raises(ValueError, match="vertex_cut_curve"):
            spec_from_dict(d)

    def test_readme_spec_example_loads(self):
        # the documented spec format must stay loadable as written
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        spec = spec_from_dict(json.loads(blocks[0]))
        assert spec.sweep_kind == "K1" and spec.rule is not None

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
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr, _, _), fn in zip(spans.TARGETS, originals))
        ex.run_experiment(mini_spec(sweep_values=(3,), trials=1))
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS] == originals
    names = {rec[2] for rec in tracer.spans}
    assert {"experiments.run_experiment", "sampler.sample_network",
            "analysis.min_degree", "threshold.solve_threshold"} <= names
