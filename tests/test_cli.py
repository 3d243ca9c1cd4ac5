"""CLI surface: flags, exit codes, command round trips."""

import copy
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import keygraph.experiments as xp
from keygraph.cli import main
from test_experiments import counting_pool

FIG4_ARGS = ["--trials", "2", "--seed", "5"]
DATA = Path(__file__).parent / "data"

VALID_SPEC = {
    "name": "cli-mini",
    "base": {"n": 24, "mu": [0.5, 0.5], "K": [3, 5], "P": 30, "alpha": 0.5},
    "sweep": {"kind": "K1", "values": [3, 4],
              "rule": {"kind": "offsets", "values": [0, 2]}},
    "trials": 2, "k_list": [2], "master_seed": 1,
}
REQUIRED_KEYS = (("name",), ("base",), ("sweep",), ("sweep", "kind"),
                 ("sweep", "values"))
LIST_KEYS = (("sweep", "values"), ("k_list",), ("base", "mu"), ("base", "K"),
             ("sweep", "rule", "values"))
NUMBER_KEYS = (("trials",), ("master_seed",), ("base", "n"), ("base", "P"),
               ("base", "alpha"))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.text(max_size=4))
NON_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(),
                                        max_size=1))


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["prob", "--n", "10"])
        assert exc.value.code == 2

    def test_inconsistent_mu_K_lengths(self, capsys):
        rc = main(["prob", "--n", "10", "--P", "20", "--mu", "0.5,0.5",
                   "--K", "2", "--alpha", "0.5"])
        assert rc == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("n,k", [("500", "0"), ("2", "1")])
    def test_prob_rejects_before_printing(self, capsys, n, k):
        rc = main(["prob", "--n", n, "--P", "10000", "--mu", "1", "--K", "2",
                   "--alpha", "0.4", "--k", k])
        out, err = capsys.readouterr()
        assert rc == 2 and "invalid arguments" in err and out == ""

    @pytest.mark.parametrize("command,seed", [
        ("fig1", "-1"), ("fig3", "18446744073709551616"), ("fig4", "-1"),
        ("fig4", "18446744073709551616")])
    def test_out_of_range_seed_is_usage_error(self, capsys, tmp_path, command, seed):
        rc = main([command, "--trials", "1", "--seed", seed,
                   "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and "master_seed" in err
        assert not (tmp_path / "out.csv").exists()

    def test_worker_death_is_runtime_error(self, capsys, tmp_path, monkeypatch):
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(xp, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(xp, "ProcessPoolExecutor",
                            functools.partial(ProcessPoolExecutor, mp_context=fork))
        monkeypatch.setattr(xp, "_evaluate_trial", _die)
        rc = main(["fig4", *FIG4_ARGS, "--workers", "2",
                   "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "worker process died" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command,workers", [
        ("fig1", "-3"), ("fig4", "0"), ("run", "0"), ("run", "-1")])
    def test_workers_below_one_is_usage_error(self, capsys, tmp_path, command, workers):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(VALID_SPEC))
        source = ["--spec", str(spec)] if command == "run" else ["--trials", "1"]
        rc = main([command, *source, "--workers", workers,
                   "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and "workers" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out.csv").exists()

    def test_missing_spec_file_is_runtime_error(self, capsys, tmp_path):
        rc = main(["run", "--spec", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 1
        assert "missing.json" in capsys.readouterr().err


def _die(job, trial):
    os._exit(3)


def tiny_fig1(monkeypatch, alphas):
    """Shrink ``fig1`` to two K1 values per alpha; the wiring is unchanged."""
    orig = xp.fig1_specs

    def tiny(trials=200, master_seed=0):
        specs = orig(trials=trials, master_seed=master_seed, alphas=alphas)
        return [spec.__class__(**{**spec.__dict__, "sweep_values": (20, 21)})
                for spec in specs]

    monkeypatch.setattr(xp, "fig1_specs", tiny)


class TestSpecBoundary:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(REQUIRED_KEYS), st.none()),
        st.tuples(st.just("scalar"), st.sampled_from(LIST_KEYS), SCALARS),
        st.tuples(st.just("item"), st.sampled_from(LIST_KEYS), NON_NUMBERS),
        st.tuples(st.just("number"), st.sampled_from(NUMBER_KEYS), NON_NUMBERS)))
    def test_malformed_spec_is_invalid_arguments(self, capsys, tmp_path, mutation):
        # a dropped required key, a scalar list, a non-number list item or a
        # non-number in a number field exits 2, naming the key
        how, path, value = mutation
        d = copy.deepcopy(VALID_SPEC)
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        elif how == "item":
            parent[path[-1]][0] = value
        else:
            parent[path[-1]] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        rc = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid arguments" in err and path[-1] in err


    @pytest.mark.parametrize("key,value", [
        ("trials", [1]), ("K", [[3], 5]), ("k_list", [[2]]), ("alpha", "0.5"),
        ("trials", 2.5), ("values", [3, float("inf")]),
        ("vertex_cut_curve", "no"), ("vertex_cut_curve", 1),
        # keys of options that no longer exist
        ("min_degree", True), ("k_connectivity", True), ("normalize_mu", False),
        # a name is a non-empty string that keeps --dat files in place
        ("name", ["a", "b/../c"]), ("name", "b/../c"), ("name", ""),
        ("name", 7), ("name", "a\0b"),
        # null is not the absence that leaves k_list at its default
        ("k_list", None)])
    def test_reported_type_errors_exit_2(self, capsys, tmp_path, key, value):
        d = copy.deepcopy(VALID_SPEC)
        record = d.setdefault("record", {})
        owner = {"K": d["base"], "alpha": d["base"], "normalize_mu": d["base"],
                 "values": d["sweep"], "vertex_cut_curve": record,
                 "min_degree": record, "k_connectivity": record}.get(key, d)
        owner[key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        rc = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and key in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_depth_sweep_with_two_ks_exits_2(self, capsys, tmp_path):
        d = copy.deepcopy(VALID_SPEC)
        d.update(sweep={"kind": "depth", "values": [0, 1]}, k_list=[3, 9],
                 record={"vertex_cut_curve": True})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        rc = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and "k_list" in err and "Traceback" not in err

    def test_k_sweep_takes_no_k_list(self, capsys, tmp_path):
        # the swept values are the targets; a k_list would be dropped
        d = copy.deepcopy(VALID_SPEC)
        d.update(sweep={"kind": "k", "values": [1, 2]}, k_list=[3, 9])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        out = tmp_path / "out.csv"
        rc = main(["run", "--spec", str(spec), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and "k_list" in err and "Traceback" not in err
        assert not out.exists()
        del d["k_list"]
        spec.write_text(json.dumps(d))
        assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["1", "2"]

    @pytest.mark.parametrize("part", ["experiment spec", "base", "sweep",
                                      "record", "rule"])
    def test_a_part_that_is_not_an_object_exits_2(self, capsys, tmp_path, part):
        d = copy.deepcopy(VALID_SPEC)
        if part == "experiment spec":
            d = [d]
        elif part == "rule":
            d["sweep"]["rule"] = "offsets"
        else:
            d[part] = {"base": [24], "sweep": 5, "record": True}[part]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        rc = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and f"{part} must be an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_master_seed_exits_2(self, capsys, tmp_path, seed):
        d = copy.deepcopy(VALID_SPEC)
        d["master_seed"] = seed
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        rc = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and "master_seed" in err and "Traceback" not in err


def corrupt_dump(lines, n, P, how, a, b):
    """One field of a dump file's lines made invalid; a and b pick where."""
    header, nodes, edges = lines[:3], lines[3:3 + n], lines[3 + n:]
    x = a % n
    node = nodes[x].split()
    keys = node[2:]
    j = b % (len(keys) - 1)
    u, v = edges[a % len(edges)].split()
    if how == "class":
        node[0] = str([0, 3, -1][b % 3])
    elif how == "ring_size":
        node = [node[0], str(len(keys) - 1)] + keys[:-1]
    elif how == "count":
        node[1] = str(len(keys) + 1 + b % 3)
    elif how == "key_range":
        node[2 + j] = str([P, -1, P + 7][b % 3])
    elif how == "key_repeat":
        node[3 + j] = keys[j]
    elif how == "key_order":
        node[2 + j], node[3 + j] = keys[j + 1], keys[j]
    elif how == "token":
        node[b % len(node)] = ["x", "1.5", "-"][a % 3]
    elif how == "edge_range":
        edges[a % len(edges)] = f"{u} {[n, -1][b % 2]}"
    elif how == "self_loop":
        edges[a % len(edges)] = f"{u} {u}"
    elif how == "duplicate":
        edges.append(f"{v} {u}" if b % 2 else f"{u} {v}")
    elif how == "no_share":
        rings = [set(ln.split()[2:]) for ln in nodes]
        y, z = next((y, z) for y in range(n) for z in range(y + 1, n)
                    if not rings[y] & rings[z])
        edges.insert(b % (len(edges) + 1), f"{y} {z}")
    nodes[x] = " ".join(node)
    return header + nodes + edges


class TestNetworkBoundary:
    KINDS = ("class", "ring_size", "count", "key_range", "key_repeat",
             "key_order", "token", "edge_range", "self_loop", "duplicate",
             "no_share")

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(KINDS), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_corrupt_dump_is_invalid_arguments(self, capsys, tmp_path, how, a, b):
        dump = tmp_path / "net.txt"
        assert main(["sample", "--n", "20", "--P", "30", "--mu", "0.5,0.5",
                     "--K", "3,5", "--alpha", "0.6", "--seed", "9",
                     "--out", str(dump)]) == 0
        assert main(["analyze", "--in", str(dump)]) == 0
        capsys.readouterr()
        lines = dump.read_text().splitlines()
        dump.write_text("\n".join(corrupt_dump(lines, 20, 30, how, a, b)) + "\n")
        rc = main(["analyze", "--in", str(dump)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid arguments" in err and str(dump) in err


    @pytest.mark.parametrize("how,what", [
        ("short", "the header needs three lines"),
        ("classes", "bad header: class count mismatch"),
        ("n", "bad header: invalid literal for int()"),
        ("nodes", "20 node lines expected, found 5")])
    def test_bad_header_is_invalid_arguments(self, capsys, tmp_path, how, what):
        dump = tmp_path / "net.txt"
        assert main(["sample", "--n", "20", "--P", "30", "--mu", "0.5,0.5",
                     "--K", "3,5", "--alpha", "0.6", "--seed", "9",
                     "--out", str(dump)]) == 0
        capsys.readouterr()
        lines = dump.read_text().splitlines()
        lines = {"short": lines[:2],
                 "classes": [lines[0], "0.5 0.3 0.2"] + lines[2:],
                 "n": ["20.5 30 0.6 2"] + lines[1:],
                 "nodes": lines[:3 + 5]}[how]
        dump.write_text("\n".join(lines) + "\n")
        rc = main(["analyze", "--in", str(dump)])
        err = capsys.readouterr().err
        assert rc == 2 and f"{dump}: {what}" in err

    def test_pool_too_large_for_the_key_index_exits_2(self, capsys, tmp_path):
        # keys 5 and 5 + 2^55 packed with 9 node bits wrap to one int64, so
        # an unchecked index would see a shared key behind the edge 0 1
        n, P = 500, 2**60
        dump = tmp_path / "net.txt"
        keys = [5, 5 + 2**55] + list(range(6, 6 + n - 2))
        dump.write_text("\n".join([f"{n} {P} 0.5 1", "1.0", "1",
                                    *(f"1 1 {key}" for key in keys), "0 1"]) + "\n")
        assert main(["analyze", "--in", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{dump}: bad header: P={P} is too large for n={n}" in captured.err


DESIGN_POINT = ["--n", "500", "--P", "10000", "--mu", "0.5,0.5",
                "--alpha", "0.4", "--k", "8"]
# Whole stdout and exit code of the one-point commands, byte for byte.
PINNED = [
    (["prob", *DESIGN_POINT, "--K", "30,40"], 0, """\
n=500 P=10000 alpha=0.4 mu=0.5,0.5 K=30,40
pairwise key-share probabilities:
  p[1,1]=0.086312 p[1,2]=0.113448
  p[2,1]=0.113448 p[2,2]=0.148397
  mean_edge_prob_key[1]=0.099880  mean_edge_prob[1]=0.039952
  mean_edge_prob_key[2]=0.130923  mean_edge_prob[2]=0.052369
k=8 deviation=0.973117 side=above
admissible=True pool/nodes=20 ring/pool=0.004 spread/log=0.214548
"""),
    (["prob", "--n", "100", "--P", "50", "--mu", "1", "--K", "26",
      "--alpha", "0.5", "--k", "2"], 0, """\
n=100 P=50 alpha=0.5 mu=1 K=26
pairwise key-share probabilities:
  p[1,1]=1.000000
  mean_edge_prob_key[1]=1.000000  mean_edge_prob[1]=0.500000
k=2 deviation=43.867650 side=above
admissible=False pool/nodes=0.5 ring/pool=0.52 spread/log=0.217147
"""),
    (["threshold", *DESIGN_POINT, "--offsets", "0,10"], 0, """\
K1_min=30
K=30,40 edge_prob=0.099880 rhs=0.095015
"""),
    (["threshold", "--n", "500", "--P", "12", "--mu", "0.5,0.5",
      "--alpha", "0.05", "--k", "40", "--offsets", "0,10"], 1, """\
unsatisfiable: no admissible K1 reaches the critical level rhs=3.09855
"""),
    (["analyze", "--in", str(DATA / "golden_network.txt")], 0, """\
n=30 edges=81
min_degree=1 vertex_connectivity=1 connected=True components=1
min_vertex_cut=3
"""),
]


@pytest.mark.parametrize("argv,code,stdout", PINNED)
def test_pinned_stdout(capsys, argv, code, stdout):
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


class TestProb:
    def test_design_point_table(self, capsys):
        rc = main(["prob", "--n", "500", "--P", "10000", "--mu", "0.5,0.5",
                   "--K", "30,40", "--alpha", "0.4", "--k", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_edge_prob_key[1]=0.099880" in out
        assert "side=above" in out
        assert "deviation=0.9731" in out


class TestThreshold:
    def test_published_value(self, capsys):
        rc = main(["threshold", "--n", "500", "--P", "10000",
                   "--mu", "0.5,0.5", "--alpha", "0.4", "--k", "8",
                   "--offsets", "0,10"])
        assert rc == 0
        assert "K1_min=30" in capsys.readouterr().out

    def test_unsatisfiable_reports_failure(self, capsys):
        rc = main(["threshold", "--n", "500", "--P", "12", "--mu", "0.5,0.5",
                   "--alpha", "0.05", "--k", "40", "--offsets", "0,10"])
        assert rc == 1
        assert "unsatisfiable" in capsys.readouterr().out


    def test_fixed_tail(self, capsys):
        # k = 2 at the design point: the tail 40 admits K1 = 15, while K1
        # may not pass a tail of 5, which is too small to reach the level
        argv = ["threshold", "--n", "500", "--P", "10000", "--mu", "0.5,0.5",
                "--alpha", "0.4", "--k", "2", "--tail"]
        assert main([*argv, "40"]) == 0
        assert capsys.readouterr().out.startswith("K1_min=15\nK=15,40 ")
        assert main([*argv, "5"]) == 1
        assert "unsatisfiable" in capsys.readouterr().out


class TestSampleAnalyze:
    def test_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "net.txt"
        rc = main(["sample", "--n", "40", "--P", "30", "--mu", "0.5,0.5",
                   "--K", "3,5", "--alpha", "0.6", "--seed", "9",
                   "--out", str(dump)])
        assert rc == 0
        rc = main(["analyze", "--in", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "min_degree=" in out and "vertex_connectivity=" in out

    def test_complete_graph_has_no_cut(self, capsys, tmp_path):
        # rings over half the pool always share and alpha 1 keeps every
        # channel on, so the sample is complete: kappa n-1 and no cut
        dump = tmp_path / "net.txt"
        assert main(["sample", "--n", "6", "--P", "4", "--mu", "1", "--K", "3",
                     "--alpha", "1", "--out", str(dump)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(dump)]) == 0
        assert capsys.readouterr().out == (
            "n=6 edges=15\n"
            "min_degree=5 vertex_connectivity=5 connected=True components=1\n"
            "min_vertex_cut=(none)\n")

    def test_pool_too_large_for_the_key_index_exits_2(self, capsys, tmp_path):
        dump = tmp_path / "net.txt"
        assert main(["sample", "--n", "500", "--P", str(2**65), "--mu", "1",
                     "--K", "3", "--alpha", "0.5", "--out", str(dump)]) == 2
        assert "P=36893488147419103232 is too large for n=500" in capsys.readouterr().err
        assert not dump.exists()

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        monkeypatch.setenv("KEYGRAPH_SEED", "321")
        main(["sample", "--n", "30", "--P", "30", "--mu", "1.0", "--K", "3",
              "--alpha", "0.5", "--out", str(a)])
        monkeypatch.delenv("KEYGRAPH_SEED")
        main(["sample", "--n", "30", "--P", "30", "--mu", "1.0", "--K", "3",
              "--alpha", "0.5", "--seed", "321", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["sample", "fig4"])
    def test_bad_env_seed_names_itself(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.setenv("KEYGRAPH_SEED", "x")
        out = tmp_path / "out"
        args = (["--n", "30", "--P", "30", "--mu", "1.0", "--K", "3",
                 "--alpha", "0.5"] if command == "sample" else ["--trials", "1"])
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "keygraph: invalid arguments: KEYGRAPH_SEED must be an integer, got 'x'\n"
        assert not out.exists()


class TestRunAndFigures:
    def test_run_spec_writes_csv(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("""{
            "name": "cli-mini",
            "base": {"n": 24, "mu": [0.5, 0.5], "K": [3, 5], "P": 30,
                     "alpha": 0.5},
            "sweep": {"kind": "K1", "values": [3, 4],
                      "rule": {"kind": "offsets", "values": [0, 2]}},
            "trials": 4, "k_list": [2], "master_seed": 1
        }""")
        out = tmp_path / "out.csv"
        rc = main(["run", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("experiment,")
        assert len(lines) == 3

    def test_fig4_seeded_and_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fig4", *FIG4_ARGS, "--out", str(a)]) == 0
        assert main(["fig4", *FIG4_ARGS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        # 8 + 10 + 12 + 14 depth rows after the header
        assert len(lines) == 1 + 44
        # parameter block follows the published setup
        assert ",500,10000,0.4," in lines[1]
        assert "offsets:0,10" in lines[1]

    def test_run_dat_prefix_writes_one_file_per_k(self, capsys, tmp_path):
        d = copy.deepcopy(VALID_SPEC)
        d["k_list"] = [1, 2]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(d))
        prefix = tmp_path / "curve"
        rc = main(["run", "--spec", str(spec), "--out", str(tmp_path / "out.csv"),
                   "--dat", str(prefix)])
        assert rc == 0
        dats = sorted(p.name for p in tmp_path.glob("*.dat"))
        assert dats == ["curve.cli-mini.k1.dat", "curve.cli-mini.k2.dat"]
        for k in (1, 2):
            lines = (tmp_path / f"curve.cli-mini.k{k}.dat").read_text().splitlines()
            assert lines[0].startswith(f"# k={k} ")
            assert [ln.split()[0] for ln in lines[1:]] == ["3", "4"]

    def test_one_pool_per_figure(self, capsys, tmp_path, monkeypatch):
        # two specs (one per alpha) run through one pool, not one pool each
        tiny_fig1(monkeypatch, alphas=(0.4, 0.6))
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        args = ["fig1", "--trials", "3", "--seed", "2"]
        assert main([*args, "--workers", "1", "--out", str(a)]) == 0
        made = counting_pool(monkeypatch, cores=2)
        assert main([*args, "--workers", "2", "--out", str(b)]) == 0
        assert made == [2]
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1 + 4

    @pytest.mark.parametrize("command", ["fig1", "fig2", "fig3", "fig4"])
    def test_figure_outputs_are_pinned(self, capsys, tmp_path, monkeypatch, command):
        # the --seed 5 --trials 1 CSV (and fig4's .dat files) byte for byte,
        # in one process and through a two-worker pool: rings up to 70 keys,
        # n = 500 channels, exact kappa up to delta ~ 19 and the depth rows
        pinned = DATA / "seed5"
        made = counting_pool(monkeypatch, cores=2)
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            dat = ["--dat", str(out / "fig4")] if command == "fig4" else []
            assert main([command, "--seed", "5", "--trials", "1",
                         "--workers", str(workers),
                         "--out", str(out / f"{command}.csv"), *dat]) == 0
            names = sorted(p.name for p in out.iterdir())
            assert names == sorted(p.name for p in pinned.glob(f"{command}.*"))
            for name in names:
                assert (out / name).read_bytes() == (pinned / name).read_bytes(), name
        assert made == [2]

    def test_fig1_reduced_run(self, capsys, tmp_path, monkeypatch):
        # shrink the sweep for test runtime; the command wiring is unchanged
        tiny_fig1(monkeypatch, alphas=(0.6,))
        out = tmp_path / "fig1.csv"
        rc = main(["fig1", "--trials", "3", "--seed", "2", "--out", str(out),
                   "--dat", str(tmp_path / "fig1")])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        dats = list(tmp_path.glob("fig1.*.dat"))
        assert len(dats) == 1


# exact kappa and the commands that need no more import no scipy; a k = 2
# check, which runs scipy's depth-first search, does
NO_SCIPY = """
import sys
from keygraph import (SeedSpec, is_k_connected, minimum_vertex_cut,
                      run_experiment, sample_network)
from keygraph.cli import main
from keygraph.experiments import fig2_spec, fig4_specs

run_experiment(*fig4_specs(trials=1), fig2_spec(trials=1))
g = sample_network(fig4_specs(trials=1)[0].base, SeedSpec(100, 0)).graph()
kappa, cut = minimum_vertex_cut(g)
assert kappa == cut.size >= 3
model = ["--n", "500", "--P", "10000", "--mu", "0.5,0.5", "--alpha", "0.4"]
assert main(["prob", *model, "--K", "30,40", "--k", "8"]) == 0
assert main(["threshold", *model, "--k", "8", "--offsets", "0,10"]) == 0
assert main(["sample", *model, "--K", "30,40", "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
assert is_k_connected(g, 2)
assert "scipy" in sys.modules
"""


def test_kappa_commands_load_no_scipy(tmp_path):
    src = str(Path(xp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path / "net.txt")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "net.txt").exists()
