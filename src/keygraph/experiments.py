"""Deterministic Monte Carlo harness: sweeps, aggregation, CSV/plot output.

An experiment is declared as a base parameterization plus one sweep axis
(smallest ring size under a profile rule, channel probability, target k, or
deletion depth), a trial count, and a master seed.  A spec is a list of
cells, each one set of seeded trials feeding one or more rows: one cell per
sweep value, or a single cell for a depth sweep, whose depth d is the event
kappa > d.  A run takes one or more specs.  Every (cell, trial) task has a
pre-assigned seed, so the tasks of all specs may run sequentially or in one
process pool and the aggregated result is identical either way.  Failures
in any trial abort the run -- there are no silent partial results.

Per-trial work is kept proportional to what the rows record: rows whose
targets stop at k <= 2 use the cheap connectivity checks, anything deeper
computes exact vertex connectivity once and derives every per-k predicate
from it, and no predicate is computed when connectivity is not recorded.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .analysis import is_k_connected, min_degree, vertex_connectivity
from .model import ModelParams
from .rng import SeedSpec, derive_master
from .sampler import sample_network
from .threshold import KeyProfileRule, solve_threshold

CSV_COLUMNS = (
    "experiment,n,P,alpha,k,K_profile,sweep_value,trials,count_mindeg,"
    "count_kconn,prob_mindeg,prob_kconn,ci_half,mean_delta,mean_kappa,"
    "threshold_K1,master_seed"
)

_Z95 = 1.959963984540054


def wilson_halfwidth(count: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0
    p = count / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


@dataclass(frozen=True)
class RecordFlags:
    """What to measure per trial."""

    min_degree: bool = True
    k_connectivity: bool = True
    vertex_cut_curve: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one sweep.

    ``sweep_kind`` is one of "K1" (smallest ring size, needs ``rule``),
    "alpha", "k", or "depth" (deletion depths over a fixed design).  For a
    "k" sweep the swept value replaces ``k_list``; for a "depth" sweep
    ``k_list`` holds the single design k the depths refer to, and
    ``record.vertex_cut_curve`` must be set.
    """

    name: str
    base: ModelParams
    sweep_kind: str
    sweep_values: tuple
    rule: Optional[KeyProfileRule] = None
    trials: int = 200
    k_list: tuple = (2,)
    master_seed: int = 0
    record: RecordFlags = field(default_factory=RecordFlags)

    def __post_init__(self):
        if self.sweep_kind not in ("K1", "alpha", "k", "depth"):
            raise ValueError(f"unknown sweep kind {self.sweep_kind!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must lie in [0, 2^64)")
        if not self.k_list or any(int(k) != k or k < 1 for k in self.k_list):
            raise ValueError("k_list must hold positive integers")
        if self.sweep_kind == "K1":
            if self.rule is None:
                raise ValueError("a K1 sweep needs a key profile rule")
            if any(int(v) != v or v < 2 for v in self.sweep_values):
                raise ValueError("K1 sweep values must be integers >= 2")
        if self.sweep_kind == "alpha":
            if any(not 0.0 < v <= 1.0 for v in self.sweep_values):
                raise ValueError("alpha sweep values must lie in (0, 1]")
        if self.sweep_kind == "k":
            if any(int(v) != v or v < 1 for v in self.sweep_values):
                raise ValueError("k sweep values must be positive integers")
        if self.sweep_kind == "depth":
            if any(int(v) != v or v < 0 or v > self.base.n - 2 for v in self.sweep_values):
                raise ValueError("depths must be integers in [0, n-2]")
            if not self.record.vertex_cut_curve:
                raise ValueError("a depth sweep needs record.vertex_cut_curve")


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated outcome for one (sweep value, k) pair.

    ``mismatch_count`` counts trials where the degree event and the
    connectivity event disagreed; it is reported here (and in the CLI
    summary) but has no CSV column.
    """

    experiment: str
    n: int
    P: int
    alpha: float
    k: int
    K_profile: str
    sweep_value: object
    trials: int
    count_mindeg: Optional[int]
    count_kconn: Optional[int]
    prob_mindeg: Optional[float]
    prob_kconn: Optional[float]
    ci_half: float
    mean_delta: float
    mean_kappa: Optional[float]
    mismatch_count: Optional[int]
    threshold_K1: Optional[int]
    master_seed: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple


def _profile_label(spec: ExperimentSpec, params: ModelParams) -> str:
    if spec.rule is not None:
        return spec.rule.profile_label()
    return "K:" + ",".join(str(k) for k in params.K)


def _cells(spec: ExperimentSpec) -> list:
    """The spec's cells as (params, cell master seed, targets, row keys).

    A cell is one set of trials.  Row j of a cell is keyed (sweep value,
    k column) and counts the trials whose events reach ``targets[j]``.  A
    depth sweep is one cell: depth d survives iff kappa >= d + 1, reported
    under the design k.
    """
    if spec.sweep_kind == "depth":
        k = int(spec.k_list[0])
        depths = [int(d) for d in spec.sweep_values]
        return [(spec.base, derive_master(spec.master_seed, 0),
                 tuple(d + 1 for d in depths), [(d, k) for d in depths])]
    cells = []
    for i, value in enumerate(spec.sweep_values):
        params, k_list = spec.base, spec.k_list
        if spec.sweep_kind == "K1":
            params = spec.base.replace(K=spec.rule.ring_sizes(int(value)))
        elif spec.sweep_kind == "alpha":
            params = spec.base.replace(alpha=float(value))
        else:
            k_list = (value,)
        targets = tuple(int(k) for k in k_list)
        cells.append((params, derive_master(spec.master_seed, i), targets,
                      [(value, k) for k in targets]))
    return cells


def _evaluate_trial(job: tuple, trial: int) -> tuple:
    """(delta, kappa or None, predicates kappa >= target or None) of a trial."""
    params, master, targets, need_kappa, need_preds = job
    g = sample_network(params, SeedSpec(master, trial)).graph()
    delta = min_degree(g)
    kappa = vertex_connectivity(g)[0] if need_kappa else None
    if not need_preds:
        return delta, kappa, None
    if kappa is not None:
        return delta, kappa, tuple(kappa >= t for t in targets)
    return delta, None, tuple(is_k_connected(g, t) for t in targets)


def _run_tasks(tasks: list, workers: int) -> list:
    """Per-trial stats in task order: a direct loop, or one process pool."""
    if workers <= 1 or not tasks:
        return [_evaluate_trial(job, trial) for job, trial in tasks]
    chunk = math.ceil(len(tasks) / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_trial, *zip(*tasks), chunksize=chunk))


def run_experiment(*specs: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Execute one or more sweeps; identical output for any worker count.

    Every (cell, trial) task of every spec goes through one evaluator, and
    one process pool when ``workers`` (clamped to the core count) exceeds 1.
    Rows follow the specs in order, so the result equals the single-spec
    runs concatenated.  Any trial failure propagates as an exception; no
    partial result is returned.
    """
    workers = min(workers, os.cpu_count() or 1)
    cells = [(spec, *cell) for spec in specs for cell in _cells(spec)]
    tasks = []
    for spec, params, master, targets, _ in cells:
        rec = spec.record
        need_kappa = rec.vertex_cut_curve or (rec.k_connectivity and max(targets) >= 3)
        job = (params, master, targets, need_kappa, rec.k_connectivity)
        tasks.extend((job, t) for t in range(spec.trials))
    stats = iter(_run_tasks(tasks, workers))
    # threshold_K1 per solver input: specs of one run may differ in n, P or mu
    thresholds = {}
    rows = []
    for spec, params, _, targets, keys in cells:
        rec, trials = spec.record, spec.trials
        cell = [next(stats) for _ in range(trials)]
        deltas = [s[0] for s in cell]
        kappas = [s[1] for s in cell]
        mean_delta = sum(deltas) / trials
        mean_kappa = None if kappas[0] is None else sum(kappas) / trials
        label = _profile_label(spec, params)
        for j, ((value, k), t) in enumerate(zip(keys, targets)):
            c_deg = sum(1 for d in deltas if d >= t)
            c_conn = mismatch = None
            if rec.k_connectivity:
                c_conn = sum(1 for s in cell if s[2][j])
                mismatch = sum(1 for s in cell if (s[0] >= t) != s[2][j])
            threshold_K1 = None
            if spec.rule is not None:
                key = (params.n, params.P, params.mu, params.alpha, k, spec.rule)
                if key not in thresholds:
                    thresholds[key] = solve_threshold(*key).K1_min
                threshold_K1 = thresholds[key]
            main_count = c_conn if rec.k_connectivity else c_deg
            rows.append(ExperimentRow(
                experiment=spec.name,
                n=params.n, P=params.P, alpha=params.alpha, k=k,
                K_profile=label, sweep_value=value, trials=trials,
                count_mindeg=c_deg if rec.min_degree else None,
                count_kconn=c_conn,
                prob_mindeg=c_deg / trials if rec.min_degree else None,
                prob_kconn=None if c_conn is None else c_conn / trials,
                ci_half=wilson_halfwidth(main_count, trials),
                mean_delta=mean_delta,
                mean_kappa=mean_kappa,
                mismatch_count=mismatch if rec.min_degree else None,
                threshold_K1=threshold_K1,
                master_seed=spec.master_seed,
            ))
    return ExperimentResult(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Output formats


def _fmt_float(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.6f}"


def _fmt_int(x: Optional[int]) -> str:
    return "" if x is None else str(int(x))


def _fmt_value(x) -> str:
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.10g}"


def iter_rows(result_or_results) -> list:
    if isinstance(result_or_results, ExperimentResult):
        return list(result_or_results.rows)
    rows = []
    for res in result_or_results:
        rows.extend(res.rows)
    return rows


def write_csv(result_or_results, path) -> None:
    """Write aggregated rows as UTF-8 CSV with a fixed header and row order.

    Row order follows the result(s): sweep order, then k order within a
    sweep value.  The ci_half column belongs to prob_kconn when connectivity
    was recorded, otherwise to prob_mindeg.  All formatting is fixed-width,
    so identical results produce byte-identical files.
    """
    rows = iter_rows(result_or_results)
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    with fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS.split(","))
        for r in rows:
            writer.writerow([
                r.experiment,
                str(r.n),
                str(r.P),
                f"{r.alpha:.10g}",
                str(r.k),
                r.K_profile,
                _fmt_value(r.sweep_value),
                str(r.trials),
                _fmt_int(r.count_mindeg),
                _fmt_int(r.count_kconn),
                _fmt_float(r.prob_mindeg),
                _fmt_float(r.prob_kconn),
                _fmt_float(r.ci_half),
                _fmt_float(r.mean_delta),
                _fmt_float(r.mean_kappa),
                _fmt_int(r.threshold_K1),
                str(r.master_seed),
            ])


def write_dat(result_or_results, path, k: int) -> None:
    """Plot-ready whitespace table: sweep value, probability, ci half-width.

    Picks the rows for one k; the probability is the connectivity estimate
    when recorded, else the degree estimate.
    """
    rows = [r for r in iter_rows(result_or_results) if r.k == k]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# k={k} columns: sweep_value probability ci_half\n")
        for r in rows:
            p = r.prob_kconn if r.prob_kconn is not None else r.prob_mindeg
            fh.write(f"{_fmt_value(r.sweep_value)} {p:.6f} {r.ci_half:.6f}\n")


# ---------------------------------------------------------------------------
# JSON experiment specs


def _check_keys(d, context: str, allowed: set, required: tuple = ()) -> dict:
    """``d`` itself, once it is an object with no unknown and no missing key."""
    if not isinstance(d, dict):
        raise ValueError(f"{context} must be an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) in {context}: {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"missing key(s) in {context}: {missing}")
    return d


def _number(value, name: str, integer: bool = False):
    """``value`` once it is a finite JSON number, and integral if ``integer``."""
    ok = isinstance(value, int) and not isinstance(value, bool)
    if isinstance(value, float):
        ok = value.is_integer() if integer else math.isfinite(value)
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _as_list(value, name: str, integer: bool = False):
    """``value`` once it is a list of numbers (integers if ``integer``)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    for i, item in enumerate(value):
        _number(item, f"{name}[{i}]", integer)
    return value


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from parsed JSON.

    An unknown or missing key, a scalar where a list belongs, or a
    non-number where a number belongs raises ValueError naming the key.
    """
    _check_keys(d, "experiment spec", {"name", "base", "sweep", "trials", "k_list",
                                       "master_seed", "record"},
                ("name", "base", "sweep"))
    base_d = _check_keys(d["base"], "base", {"n", "mu", "K", "P", "alpha", "normalize_mu"},
                         ("n", "mu", "K", "P", "alpha"))
    _as_list(base_d["mu"], "base.mu")
    _as_list(base_d["K"], "base.K", integer=True)
    _number(base_d["n"], "base.n", integer=True)
    _number(base_d["P"], "base.P", integer=True)
    _number(base_d["alpha"], "base.alpha")
    base = ModelParams(**base_d)
    sweep = _check_keys(d["sweep"], "sweep", {"kind", "values", "rule"}, ("kind", "values"))
    rule = None
    if sweep.get("rule") is not None:
        rule_d = _check_keys(sweep["rule"], "rule", {"kind", "values"}, ("kind", "values"))
        values = _as_list(rule_d["values"], "rule.values", integer=True)
        if rule_d["kind"] == "offsets":
            rule = KeyProfileRule.offsets(*values)
        elif rule_d["kind"] == "fixed_tail":
            rule = KeyProfileRule.fixed_tail(*values)
        else:
            raise ValueError(f"unknown rule kind {rule_d['kind']!r}")
    record_d = _check_keys(d.get("record", {}), "record",
                           {"min_degree", "k_connectivity", "vertex_cut_curve"})
    return ExperimentSpec(
        name=str(d["name"]),
        base=base,
        sweep_kind=str(sweep["kind"]),
        sweep_values=tuple(_as_list(sweep["values"], "sweep.values")),
        rule=rule,
        trials=int(_number(d.get("trials", 200), "trials", integer=True)),
        k_list=tuple(int(k) for k in _as_list(d.get("k_list", [2]), "k_list",
                                              integer=True)),
        master_seed=int(_number(d.get("master_seed", 0), "master_seed", integer=True)),
        record=RecordFlags(**{k: bool(v) for k, v in record_d.items()}),
    )


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Canned studies (defaults follow the published numerical setup:
# n=500, P=10^4, two equally likely classes, 200 trials)

_BASE_N = 500
_BASE_P = 10**4
_BASE_MU = (0.5, 0.5)
_STEP10 = KeyProfileRule.offsets(0, 10)


def fig1_specs(trials: int = 200, master_seed: int = 0,
               alphas: Sequence[float] = (0.2, 0.4, 0.6, 0.8)) -> list:
    """2-connectivity vs smallest ring size, one sweep per channel probability."""
    specs = []
    for a in alphas:
        base = ModelParams(n=_BASE_N, mu=_BASE_MU, K=_STEP10.ring_sizes(5),
                           P=_BASE_P, alpha=a)
        specs.append(ExperimentSpec(
            name=f"fig1_alpha{a:.10g}", base=base, sweep_kind="K1",
            sweep_values=tuple(range(5, 41)), rule=_STEP10,
            trials=trials, k_list=(2,), master_seed=master_seed,
        ))
    return specs


def fig2_spec(trials: int = 200, master_seed: int = 0) -> ExperimentSpec:
    """k-connectivity vs smallest ring size for k in 4..10 at alpha 0.4."""
    base = ModelParams(n=_BASE_N, mu=_BASE_MU, K=_STEP10.ring_sizes(15),
                       P=_BASE_P, alpha=0.4)
    return ExperimentSpec(
        name="fig2", base=base, sweep_kind="K1",
        sweep_values=tuple(range(15, 41)), rule=_STEP10,
        trials=trials, k_list=(4, 6, 8, 10), master_seed=master_seed,
    )


def fig3_specs(trials: int = 200, master_seed: int = 0) -> list:
    """2-connectivity vs channel probability for four same-mean ring profiles."""
    specs = []
    alphas = tuple(round(0.05 * i, 2) for i in range(1, 21))
    for K in ((10, 70), (20, 60), (30, 50), (40, 40)):
        base = ModelParams(n=_BASE_N, mu=_BASE_MU, K=K, P=_BASE_P, alpha=alphas[0])
        specs.append(ExperimentSpec(
            name="fig3_K" + "-".join(str(k) for k in K), base=base,
            sweep_kind="alpha", sweep_values=alphas,
            trials=trials, k_list=(2,), master_seed=master_seed,
        ))
    return specs


def fig4_specs(trials: int = 200, master_seed: int = 0,
               design_ks: Sequence[int] = (8, 10, 12, 14)) -> list:
    """Deletion-survival curves for ring sizes solved from the critical rule."""
    specs = []
    for k in design_ks:
        sol = solve_threshold(_BASE_N, _BASE_P, _BASE_MU, 0.4, k, _STEP10)
        if not sol.satisfied:
            raise ValueError(f"no admissible design for k={k}")
        base = ModelParams(n=_BASE_N, mu=_BASE_MU,
                           K=_STEP10.ring_sizes(sol.K1_min), P=_BASE_P, alpha=0.4)
        specs.append(ExperimentSpec(
            name=f"fig4_k{k}", base=base, sweep_kind="depth",
            sweep_values=tuple(range(0, k)), rule=_STEP10,
            trials=trials, k_list=(k,), master_seed=master_seed,
            record=RecordFlags(vertex_cut_curve=True),
        ))
    return specs
