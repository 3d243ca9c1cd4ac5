"""Deterministic Monte Carlo harness: sweeps, aggregation, CSV/plot output.

An experiment is declared as a base parameterization plus one sweep axis
(smallest ring size under a profile rule, channel probability, target k, or
deletion depth), a trial count, and a master seed.  Every (row, trial) gets
a pre-assigned seed, so trials may run sequentially or in a process pool and
the aggregated result is identical either way; merging is a plain sum of
per-trial counters.  Failures in any trial abort the run -- there are no
silent partial results.

Per-trial work is kept proportional to what the sweep needs: rows whose
targets stop at k <= 2 use the cheap connectivity checks, anything deeper
computes exact vertex connectivity once and derives every per-k predicate
from it.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ._version import __version__
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
    ``k_list`` holds the single design k the depths refer to.
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


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated outcome for one (sweep value, k) cell.

    ``mismatch_count`` counts trials where the degree event and the
    connectivity event disagreed; it is reported here (and in the CLI
    summary) but has no CSV column.
    """

    experiment: str
    n: int
    P: int
    alpha: float
    k: int
    K: tuple
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
class RunStamp:
    master_seed: int
    trials: int
    version: str


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple
    stamp: RunStamp
    spec: Optional[ExperimentSpec] = None


def _row_params(spec: ExperimentSpec, value):
    """Effective parameters and k targets for one sweep value."""
    if spec.sweep_kind == "K1":
        params = spec.base.replace(K=spec.rule.ring_sizes(int(value)))
        return params, tuple(spec.k_list)
    if spec.sweep_kind == "alpha":
        return spec.base.replace(alpha=float(value)), tuple(spec.k_list)
    if spec.sweep_kind == "k":
        return spec.base, (int(value),)
    return spec.base, tuple(spec.k_list)  # depth


def _profile_label(spec: ExperimentSpec, params: ModelParams) -> str:
    if spec.rule is not None:
        return spec.rule.profile_label()
    return "K:" + ",".join(str(k) for k in params.K)


def _evaluate_trial(params: ModelParams, row_master: int, trial: int,
                    k_list: tuple, need_kappa: bool) -> tuple:
    net = sample_network(params, SeedSpec(row_master, trial))
    g = net.graph()
    delta = min_degree(g)
    if need_kappa:
        kappa = vertex_connectivity(g)[0]
        preds = tuple(kappa >= k for k in k_list)
        return delta, kappa, preds
    preds = tuple(is_k_connected(g, k) for k in k_list)
    return delta, None, preds


def _trial_batch(args) -> list:
    params, row_master, trials, k_list, need_kappa = args
    return [_evaluate_trial(params, row_master, t, k_list, need_kappa) for t in trials]


def _run_trials(params: ModelParams, row_master: int, trials: int,
                k_list: tuple, need_kappa: bool, workers: int) -> list:
    """Per-trial stats in trial order, sequential or process-parallel."""
    indices = list(range(trials))
    if workers <= 1:
        return _trial_batch((params, row_master, indices, k_list, need_kappa))
    chunk = max(1, math.ceil(trials / (workers * 4)))
    batches = [indices[i:i + chunk] for i in range(0, trials, chunk)]
    args = [(params, row_master, b, k_list, need_kappa) for b in batches]
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_trial_batch, args):
            out.extend(part)
    return out


def _aggregate_rows(spec: ExperimentSpec, value, params: ModelParams,
                    k_list: tuple, stats: list, thresholds: dict) -> list:
    """Rows for one sweep value; ``thresholds`` holds the run's solved
    threshold_K1 per (alpha, k), the only solver inputs a sweep can vary."""
    trials = len(stats)
    deltas = [s[0] for s in stats]
    kappas = [s[1] for s in stats]
    have_kappa = all(k is not None for k in kappas)
    mean_delta = sum(deltas) / trials
    mean_kappa = sum(kappas) / trials if have_kappa else None
    label = _profile_label(spec, params)
    rows = []
    for ki, k in enumerate(k_list):
        c_deg = sum(1 for d in deltas if d >= k)
        c_conn = sum(1 for s in stats if s[2][ki])
        mismatch = sum(1 for s in stats if (s[0] >= k) != s[2][ki])
        rec = spec.record
        threshold_K1 = None
        if spec.rule is not None:
            key = (params.alpha, int(k))
            if key not in thresholds:
                thresholds[key] = solve_threshold(params.n, params.P, params.mu,
                                                  params.alpha, int(k), spec.rule).K1_min
            threshold_K1 = thresholds[key]
        main_count = c_conn if rec.k_connectivity else c_deg
        rows.append(ExperimentRow(
            experiment=spec.name,
            n=params.n, P=params.P, alpha=params.alpha, k=int(k),
            K=params.K, K_profile=label, sweep_value=value, trials=trials,
            count_mindeg=c_deg if rec.min_degree else None,
            count_kconn=c_conn if rec.k_connectivity else None,
            prob_mindeg=c_deg / trials if rec.min_degree else None,
            prob_kconn=c_conn / trials if rec.k_connectivity else None,
            ci_half=wilson_halfwidth(main_count, trials),
            mean_delta=mean_delta,
            mean_kappa=mean_kappa,
            mismatch_count=mismatch if (rec.min_degree and rec.k_connectivity) else None,
            threshold_K1=threshold_K1,
            master_seed=spec.master_seed,
        ))
    return rows


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Execute a sweep; identical output for any worker count.

    Depth sweeps are routed to :func:`deletion_experiment`.  Any trial
    failure propagates as an exception; no partial result is returned.
    """
    if spec.sweep_kind == "depth":
        return deletion_experiment(spec, workers=workers)
    rows = []
    thresholds = {}
    for row_idx, value in enumerate(spec.sweep_values):
        params, k_list = _row_params(spec, value)
        need_kappa = spec.record.vertex_cut_curve or (
            spec.record.k_connectivity and max(k_list) >= 3)
        row_master = derive_master(spec.master_seed, row_idx)
        stats = _run_trials(params, row_master, spec.trials, k_list,
                            need_kappa, workers)
        rows.extend(_aggregate_rows(spec, value, params, k_list, stats, thresholds))
    stamp = RunStamp(spec.master_seed, spec.trials, __version__)
    return ExperimentResult(rows=tuple(rows), stamp=stamp, spec=spec)


def deletion_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Survival probability versus worst-case deletion depth.

    One set of trials is drawn for the fixed design; each trial's exact
    vertex connectivity decides survival at every depth d (connected after
    removing d minimum-cut nodes iff connectivity exceeds d; a sample that
    starts disconnected has connectivity 0 and survives nothing).  The "k"
    column carries the design k the depths refer to.
    """
    if spec.sweep_kind != "depth":
        raise ValueError("deletion_experiment needs a depth sweep")
    if not spec.record.vertex_cut_curve:
        raise ValueError("deletion_experiment needs record.vertex_cut_curve")
    params = spec.base
    design_k = int(spec.k_list[0])
    row_master = derive_master(spec.master_seed, 0)
    stats = _run_trials(params, row_master, spec.trials, (design_k,), True, workers)
    trials = len(stats)
    deltas = [s[0] for s in stats]
    kappas = [s[1] for s in stats]
    mean_delta = sum(deltas) / trials
    mean_kappa = sum(kappas) / trials
    label = _profile_label(spec, params)
    threshold_K1 = None
    if spec.rule is not None:
        sol = solve_threshold(params.n, params.P, params.mu, params.alpha,
                              design_k, spec.rule)
        threshold_K1 = sol.K1_min
    rows = []
    for depth in spec.sweep_values:
        d = int(depth)
        c_conn = sum(1 for kap in kappas if kap > d)
        c_deg = sum(1 for de in deltas if de > d)
        rows.append(ExperimentRow(
            experiment=spec.name,
            n=params.n, P=params.P, alpha=params.alpha, k=design_k,
            K=params.K, K_profile=label, sweep_value=d, trials=trials,
            count_mindeg=c_deg, count_kconn=c_conn,
            prob_mindeg=c_deg / trials, prob_kconn=c_conn / trials,
            ci_half=wilson_halfwidth(c_conn, trials),
            mean_delta=mean_delta, mean_kappa=mean_kappa,
            mismatch_count=sum(1 for s in stats if (s[0] > d) != (s[1] > d)),
            threshold_K1=threshold_K1,
            master_seed=spec.master_seed,
        ))
    stamp = RunStamp(spec.master_seed, spec.trials, __version__)
    return ExperimentResult(rows=tuple(rows), stamp=stamp, spec=spec)


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


def write_dat(result_or_results, path, k: Optional[int] = None) -> None:
    """Plot-ready whitespace table: sweep value, probability, ci half-width.

    Picks rows for one k (default: the first k present); the probability is
    the connectivity estimate when recorded, else the degree estimate.
    """
    rows = iter_rows(result_or_results)
    if k is None and rows:
        k = rows[0].k
    rows = [r for r in rows if r.k == k]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# k={k} columns: sweep_value probability ci_half\n")
        for r in rows:
            p = r.prob_kconn if r.prob_kconn is not None else r.prob_mindeg
            fh.write(f"{_fmt_value(r.sweep_value)} {p:.6f} {r.ci_half:.6f}\n")


# ---------------------------------------------------------------------------
# JSON experiment specs


def _require_keys(d: dict, allowed: set, context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) in {context}: {sorted(unknown)}")


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from parsed JSON; unknown keys are rejected."""
    _require_keys(d, {"name", "base", "sweep", "trials", "k_list",
                      "master_seed", "record"}, "experiment spec")
    base_d = dict(d["base"])
    _require_keys(base_d, {"n", "mu", "K", "P", "alpha", "normalize_mu"}, "base")
    base = ModelParams(**base_d)
    sweep = dict(d["sweep"])
    _require_keys(sweep, {"kind", "values", "rule"}, "sweep")
    rule = None
    if sweep.get("rule") is not None:
        rule_d = dict(sweep["rule"])
        _require_keys(rule_d, {"kind", "values"}, "rule")
        if rule_d["kind"] == "offsets":
            rule = KeyProfileRule.offsets(*rule_d["values"])
        elif rule_d["kind"] == "fixed_tail":
            rule = KeyProfileRule.fixed_tail(*rule_d["values"])
        else:
            raise ValueError(f"unknown rule kind {rule_d['kind']!r}")
    record_d = dict(d.get("record", {}))
    _require_keys(record_d, {"min_degree", "k_connectivity", "vertex_cut_curve"},
                  "record")
    return ExperimentSpec(
        name=str(d["name"]),
        base=base,
        sweep_kind=str(sweep["kind"]),
        sweep_values=tuple(sweep["values"]),
        rule=rule,
        trials=int(d.get("trials", 200)),
        k_list=tuple(int(k) for k in d.get("k_list", [2])),
        master_seed=int(d.get("master_seed", 0)),
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
