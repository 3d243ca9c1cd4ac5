"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench

Each output check must pass on a real output and fail once that output is
corrupted; the metric names the benchmark prints must be the ones
``BENCHMARK.json`` declares.  Tiny models (n = 30) keep every case fast.
"""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))

import oracles  # noqa: E402
import run  # noqa: E402
from checks import Checker, read_rows  # noqa: E402
from keygraph import (ExperimentSpec, KeyProfileRule, ModelParams,  # noqa: E402
                      RecordFlags)
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

RULE = KeyProfileRule.offsets(0, 10)


def _base(K1=8, alpha=0.6):
    return ModelParams(n=30, mu=(0.5, 0.5), K=RULE.ring_sizes(K1), P=200, alpha=alpha)


def _kconn_spec():
    return ExperimentSpec(name="tiny_kconn", base=_base(), sweep_kind="K1",
                          sweep_values=(6, 10, 40), rule=RULE, trials=1,
                          k_list=(2, 3), master_seed=0)


def _depth_spec():
    return ExperimentSpec(name="tiny_depth", base=_base(12), sweep_kind="depth",
                          sweep_values=(0, 1, 2, 3), rule=RULE, trials=1,
                          k_list=(4,), master_seed=0,
                          record=RecordFlags(vertex_cut_curve=True))


TINY = Workload("tiny", lambda: [_kconn_spec(), _depth_spec()],
                nx_rows=(0, 2, 4, 6), nx_kappa_row=2)


@pytest.fixture
def tiny_round(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.run_round(TINY, TINY.build(), seed=3, r=0, workers=1, tag="t")


def _rewrite(path, row_index, **changes):
    rows = read_rows(path)
    rows[row_index].update({k: str(v) for k, v in changes.items()})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _csv_fails(rnd):
    return Checker(oracles).check_csv(rnd.specs, rnd.csv)


def _nx_fails(rnd):
    return Checker(oracles).check_with_networkx(rnd.specs, rnd.csv,
                                                TINY.nx_rows, TINY.nx_kappa_row)


def test_real_output_passes_every_check(tiny_round):
    assert _csv_fails(tiny_round) == []
    assert _nx_fails(tiny_round) == []


def test_union_bound_row_is_checked(tiny_round):
    # K1 = 40 on 30 nodes is dense enough that P(delta < 2) is far below the
    # level, so the check is live on that row.
    params = _base(40)
    assert Checker(oracles).low_degree_below_level(params, 2)
    _rewrite(tiny_round.csv, 4, count_mindeg=0, prob_mindeg="0.000000",
             count_kconn=0, prob_kconn="0.000000", ci_half="0.000000")
    assert any("P(delta < 2)" in f for f in _csv_fails(tiny_round))


@pytest.mark.parametrize("delta", (1, -1))
def test_kappa_off_by_one_fails(tiny_round, delta):
    row = read_rows(tiny_round.csv)[TINY.nx_kappa_row]
    _rewrite(tiny_round.csv, TINY.nx_kappa_row,
             mean_kappa=f"{float(row['mean_kappa']) + delta:.6f}")
    assert any("mean_kappa" in f for f in _nx_fails(tiny_round))


def test_kappa_above_delta_fails(tiny_round):
    row = read_rows(tiny_round.csv)[3]
    _rewrite(tiny_round.csv, 3, mean_kappa=f"{float(row['mean_delta']) + 1:.6f}")
    assert any("exceeds mean delta" in f for f in _csv_fails(tiny_round))


def test_count_above_trials_fails(tiny_round):
    _rewrite(tiny_round.csv, 0, count_mindeg=2)
    assert any("outside [0, 1]" in f for f in _csv_fails(tiny_round))


def test_wrong_threshold_fails(tiny_round):
    row = read_rows(tiny_round.csv)[0]
    assert row["threshold_K1"] != ""
    _rewrite(tiny_round.csv, 0, threshold_K1=int(row["threshold_K1"]) + 1)
    assert any("threshold_K1" in f for f in _csv_fails(tiny_round))


def test_count_growing_with_depth_fails(tiny_round):
    last = len(read_rows(tiny_round.csv)) - 1
    _rewrite(tiny_round.csv, last - 1, count_kconn=0)
    _rewrite(tiny_round.csv, last, count_kconn=1)
    assert any("increases along" in f for f in _csv_fails(tiny_round))


def test_networkx_degree_disagreement_fails(tiny_round):
    row = read_rows(tiny_round.csv)[0]
    _rewrite(tiny_round.csv, 0, mean_delta=f"{float(row['mean_delta']) + 1:.6f}")
    assert any("mean_delta" in f for f in _nx_fails(tiny_round))


def test_threshold_oracle_matches_a_hand_scan():
    # The scan must stop at the first K1 whose class-1 mean share
    # probability beats (log n + (k - 1) log log n) / (alpha n).
    K1 = Checker(oracles).threshold_K1(_base(), 2, RULE)
    lam = [sum(0.5 * float(oracles.binomial_ratio_share_prob(200, k, k + o))
               for o in (0, 10)) for k in (K1 - 1, K1)]
    rhs = (math.log(30) + math.log(math.log(30))) / (0.6 * 30)
    assert lam[0] <= rhs < lam[1]


def test_csv_that_depends_on_the_schedule_fails(tiny_round, tmp_path):
    other = tmp_path / "other.csv"
    other.write_bytes(tiny_round.csv.read_bytes())
    twin = run.Round(tiny_round.specs, other, 0.0, 0.0, tiny_round.trials)
    assert run.differing_csvs([(tiny_round, twin), (twin, tiny_round)]) == []
    _rewrite(other, 0, mean_delta="0.000000")
    assert len(run.differing_csvs([(tiny_round, twin), (tiny_round, tiny_round)])) == 1


def test_trace_metrics_are_the_declared_per_layer_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tracer = Tracer()
    with tracer:
        rnd = run.run_round(TINY, TINY.build(), seed=3, r=0, workers=1, tag="t",
                            tracer=tracer)
    path = tmp_path / "trace.jsonl"
    tracer.dump(path)
    metrics = layer_metrics(path, overhead_s=0.0, pool_cpu_s=0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert metrics["sampler.sample_network.calls"] == rnd.trials == 4
    assert metrics["analysis.vertex_connectivity.calls"] == 4
    assert metrics["analysis.flows_per_kappa"] > 0
    # fig2-style sweeps solve the same threshold once per row and k.
    assert metrics["threshold.solve_threshold.calls"] == 7
    assert metrics["threshold.solve_threshold.useful_ratio"] == pytest.approx(3 / 7)


def test_printed_names_and_units_are_those_of_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        values = {m["name"]: 1.0 for m in declared[section]}
        assert run.with_units(values, section) == {
            m["name"]: {"value": 1.0, "unit": m["unit"]} for m in declared[section]}
        with pytest.raises(ValueError):
            run.with_units({**values, "undeclared": 1.0}, section)
        del values[declared[section][0]["name"]]
        with pytest.raises(ValueError):
            run.with_units(values, section)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["command"] == ["python3", "perfbench/run.py"]


def test_exits_nonzero_outside_a_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deletion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
