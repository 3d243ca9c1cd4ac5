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

Every trial records the minimum degree and the k-connectivity of each
target k.  Per-trial work is kept proportional to the targets: cells whose
targets stop at k <= 2 use the cheap connectivity checks, anything deeper
computes exact vertex connectivity once and derives every per-k predicate
from it.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import platform
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .analysis import is_k_connected, min_degree, vertex_connectivity
from .model import ModelParams, checked_int, checked_real, checked_tuple
from .rng import SeedSpec, derive_master
from .sampler import sample_network
from .threshold import KeyProfileRule, solve_threshold

CSV_COLUMNS = (
    "experiment,n,P,alpha,k,K_profile,sweep_value,trials,count_mindeg,"
    "count_kconn,prob_mindeg,prob_kconn,ci_half,mean_delta,mean_kappa,"
    "threshold_K1,master_seed"
)

_Z95 = 1.959963984540054


def wilson_halfwidth(count: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0
    p, z = count / trials, _Z95
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


@dataclass(frozen=True)
class RecordFlags:
    """What to measure per trial beyond the degree and connectivity events."""

    vertex_cut_curve: bool = False

    def __post_init__(self):
        if not isinstance(self.vertex_cut_curve, bool):
            raise ValueError(f"vertex_cut_curve must be True or False, "
                             f"got {self.vertex_cut_curve!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one sweep.

    ``name`` is a non-empty string with no "/" or NUL, as it names
    ``--dat`` files.  ``sweep_kind`` is one of "K1" (smallest ring size,
    needs ``rule``), "alpha", "k", or "depth" (deletion depths over a fixed
    design).  A "k" sweep takes its targets from the swept values and
    leaves ``k_list`` unset (None); every other sweep defaults it to (2,).
    For a "depth" sweep ``k_list`` holds the single design k the depths
    refer to, and ``record.vertex_cut_curve`` must be set.  Every value is
    checked here, under its JSON key; the integer fields, ``k_list`` and
    the values of a "K1", "k" or "depth" sweep are stored as ints.
    """

    name: str
    base: ModelParams
    sweep_kind: str
    sweep_values: tuple
    rule: Optional[KeyProfileRule] = None
    trials: int = 200
    k_list: Optional[tuple] = None
    master_seed: int = 0
    record: RecordFlags = field(default_factory=RecordFlags)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or \
                "/" in self.name or "\0" in self.name:
            raise ValueError(f"name must be a non-empty string without '/' or "
                             f"NUL, got {self.name!r}")
        if self.sweep_kind not in ("K1", "alpha", "k", "depth"):
            raise ValueError(f"unknown sweep kind {self.sweep_kind!r}")
        for key, kind, what in (("base", ModelParams, "a ModelParams"),
                                ("rule", (KeyProfileRule, type(None)),
                                 "a KeyProfileRule or None"),
                                ("record", RecordFlags, "a RecordFlags")):
            if not isinstance(getattr(self, key), kind):
                raise ValueError(f"{key} must be {what}, got {getattr(self, key)!r}")
        values = checked_tuple(self.sweep_values, "sweep_values")
        if not values:
            raise ValueError("sweep_values must be non-empty")
        label = f"{self.sweep_kind} sweep_values"
        if self.sweep_kind == "alpha":
            if any(not 0.0 < checked_real(v, label) <= 1.0 for v in values):
                raise ValueError(f"{label} must lie in (0, 1]")
        else:
            low = {"K1": 2, "k": 1, "depth": 0}[self.sweep_kind]
            values = tuple(checked_int(v, label, low) for v in values)
        object.__setattr__(self, "sweep_values", values)
        for key, low in (("trials", 1), ("master_seed", 0)):
            object.__setattr__(self, key, checked_int(getattr(self, key), key, low))
        if self.master_seed >= 2**64:
            raise ValueError("master_seed must lie in [0, 2^64)")
        if self.sweep_kind == "k":
            if self.k_list is not None:
                raise ValueError("a k sweep takes its k values from the sweep; "
                                 "leave k_list unset")
        else:
            k_list = (2,) if self.k_list is None else tuple(
                checked_int(k, "k_list", 1) for k in checked_tuple(self.k_list, "k_list"))
            if not k_list:
                raise ValueError("k_list must hold positive integers")
            object.__setattr__(self, "k_list", k_list)
        if self.sweep_kind == "K1" and self.rule is None:
            raise ValueError("a K1 sweep needs a key profile rule")
        if self.sweep_kind == "depth":
            if max(values) > self.base.n - 2:
                raise ValueError(f"{label} must lie in [0, n-2]")
            if not self.record.vertex_cut_curve:
                raise ValueError("a depth sweep needs record.vertex_cut_curve")
            if len(self.k_list) != 1:
                raise ValueError("a depth sweep needs exactly one k in k_list")


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
    count_mindeg: int
    count_kconn: int
    prob_mindeg: float
    prob_kconn: float
    ci_half: float
    mean_delta: float
    mean_kappa: Optional[float]
    mismatch_count: int
    threshold_K1: Optional[int]
    master_seed: int


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
        depths, k = spec.sweep_values, spec.k_list[0]
        return [(spec.base, derive_master(spec.master_seed, 0),
                 tuple(d + 1 for d in depths), [(d, k) for d in depths])]
    cells = []
    for i, value in enumerate(spec.sweep_values):
        params, targets = spec.base, spec.k_list or (value,)
        if spec.sweep_kind == "K1":
            params = spec.base.replace(K=spec.rule.ring_sizes(value))
        elif spec.sweep_kind == "alpha":
            params = spec.base.replace(alpha=value)
        cells.append((params, derive_master(spec.master_seed, i), targets,
                      [(value, k) for k in targets]))
    return cells


def _evaluate_trial(job: tuple, trial: int) -> tuple:
    """(delta, kappa or None, predicates kappa >= target) of a trial."""
    params, master, targets, need_kappa = job
    g = sample_network(params, SeedSpec(master, trial)).graph()
    delta = min_degree(g)
    kappa = vertex_connectivity(g) if need_kappa else None
    if kappa is not None:
        return delta, kappa, tuple(kappa >= t for t in targets)
    return delta, None, tuple(is_k_connected(g, t) for t in targets)


def _hold_heap() -> None:
    """Fix glibc's mmap (-3) and trim (-1) thresholds.  Left adaptive, they
    make some processes return each trial's freed arrays to the OS and fault
    them in again, and others keep them; fixed, every process keeps them."""
    if platform.libc_ver()[0] == "glibc":
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)
        libc.mallopt(-1, 64 << 20)


def _run_tasks(tasks: list, workers: int) -> list:
    """Per-trial stats in task order: a direct loop, or one process pool."""
    _hold_heap()  # forked pool workers inherit it
    if workers <= 1 or not tasks:
        return [_evaluate_trial(job, trial) for job, trial in tasks]
    # imported here: the pool's modules cost a 1-worker run 1.7 MB it never uses
    from concurrent.futures import ProcessPoolExecutor

    chunk = math.ceil(len(tasks) / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_trial, *zip(*tasks), chunksize=chunk))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(*specs: ExperimentSpec, workers: int = 1) -> tuple:
    """Execute one or more sweeps; the same rows for any worker count.

    Every (cell, trial) task of every spec goes through one evaluator, and
    one process pool when ``workers`` (clamped to the CPUs the process may
    use) exceeds 1.  Returns the :class:`ExperimentRow` tuple, specs in
    order, then sweep order, then k order: the single-spec runs
    concatenated.  ``workers`` below 1, or two specs of one name (they
    would share a plot table), raise ValueError before any trial runs.  A
    trial failure propagates; no partial result is returned.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    for i, spec in enumerate(specs):
        if spec.name in (s.name for s in specs[:i]):
            raise ValueError(f"two specs are named {spec.name!r}")
    workers = min(workers, _usable_cpus())
    cells = [(spec, *cell) for spec in specs for cell in _cells(spec)]
    tasks = []
    for spec, params, master, targets, _ in cells:
        need_kappa = spec.record.vertex_cut_curve or max(targets) >= 3
        tasks.extend(((params, master, targets, need_kappa), t)
                     for t in range(spec.trials))
    stats = iter(_run_tasks(tasks, workers))
    # threshold_K1 per solver input: specs of one run may differ in n, P or mu
    thresholds = {}
    rows = []
    for spec, params, _, targets, keys in cells:
        trials = spec.trials
        cell = [next(stats) for _ in range(trials)]
        deltas = [s[0] for s in cell]
        kappas = [s[1] for s in cell]
        mean_delta = sum(deltas) / trials
        mean_kappa = None if kappas[0] is None else sum(kappas) / trials
        label = _profile_label(spec, params)
        for j, ((value, k), t) in enumerate(zip(keys, targets)):
            c_deg = sum(1 for d in deltas if d >= t)
            c_conn = sum(1 for s in cell if s[2][j])
            mismatch = sum(1 for s in cell if (s[0] >= t) != s[2][j])
            key = (params.n, params.P, params.mu, params.alpha, k, spec.rule)
            if spec.rule is not None and key not in thresholds:
                thresholds[key] = solve_threshold(*key)
            rows.append(ExperimentRow(
                experiment=spec.name,
                n=params.n, P=params.P, alpha=params.alpha, k=k,
                K_profile=label, sweep_value=value, trials=trials,
                count_mindeg=c_deg,
                count_kconn=c_conn,
                prob_mindeg=c_deg / trials,
                prob_kconn=c_conn / trials,
                ci_half=wilson_halfwidth(c_conn, trials),
                mean_delta=mean_delta,
                mean_kappa=mean_kappa,
                mismatch_count=mismatch,
                threshold_K1=thresholds.get(key),
                master_seed=spec.master_seed,
            ))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Output formats


def _fmt_value(x) -> str:
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.10g}"


def _cell(column: str, value) -> str:
    """One CSV cell: empty for None, ten significant digits for the swept
    quantities, six decimals for other floats, ``str`` for the rest."""
    if value is None:
        return ""
    if column in ("alpha", "sweep_value"):
        return _fmt_value(value)
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def write_csv(rows, path) -> None:
    """Write aggregated rows as UTF-8 CSV with a fixed header and row order.

    Takes the rows of :func:`run_experiment`, in order, or a list of such
    results written in turn: ``perfbench/run.py`` passes one result per spec
    each round, and the list form can go once it calls
    ``run_experiment(*specs)``.  The ci_half column belongs to prob_kconn.
    Formatting is fixed-width, so identical rows give byte-identical files.
    """
    rows = [r for x in rows for r in ((x,) if isinstance(x, ExperimentRow) else x)]
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
    with fh:
        writer = csv.writer(fh, lineterminator="\n")
        columns = CSV_COLUMNS.split(",")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_cell(c, getattr(r, c)) for c in columns])


def write_dat(rows, prefix) -> list:
    """Plot-ready whitespace tables, one per (experiment, k) at
    ``{prefix}.{experiment}.k{k}.dat``: sweep value, connectivity probability,
    ci half-width.  Returns the paths, experiments in row order, k ascending.
    """
    tables = {}
    for r in rows:
        tables.setdefault(r.experiment, {}).setdefault(r.k, []).append(
            f"{_fmt_value(r.sweep_value)} {r.prob_kconn:.6f} {r.ci_half:.6f}\n")
    paths = []
    for name, by_k in tables.items():
        for k, lines in sorted(by_k.items()):
            paths.append(f"{prefix}.{name}.k{k}.dat")
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(f"# k={k} columns: sweep_value probability ci_half\n")
                fh.writelines(lines)
    return paths


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


def spec_from_dict(d: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from parsed JSON.

    Only the shape is checked here: an unknown or missing key, or a null
    ``k_list`` (null is not the absence that leaves it unset), raises
    ValueError naming the key.  The values go as they are to the
    constructors, whose checks are the same for a spec built in Python.
    """
    _check_keys(d, "experiment spec", {"name", "base", "sweep", "trials", "k_list",
                                       "master_seed", "record"},
                ("name", "base", "sweep"))
    if "k_list" in d and d["k_list"] is None:
        raise ValueError("k_list must be a list, got None")
    base = _check_keys(d["base"], "base", {"n", "mu", "K", "P", "alpha"},
                       ("n", "mu", "K", "P", "alpha"))
    sweep = _check_keys(d["sweep"], "sweep", {"kind", "values", "rule"}, ("kind", "values"))
    rule = sweep.get("rule")
    if rule is not None:
        rule = KeyProfileRule(**_check_keys(rule, "rule", {"kind", "values"},
                                            ("kind", "values")))
    record = _check_keys(d.get("record", {}), "record", {"vertex_cut_curve"})
    return ExperimentSpec(
        name=d["name"],
        base=ModelParams(**base),
        sweep_kind=sweep["kind"],
        sweep_values=sweep["values"],
        rule=rule,
        trials=d.get("trials", 200),
        k_list=d.get("k_list"),
        master_seed=d.get("master_seed", 0),
        record=RecordFlags(**record),
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


def fig4_specs(trials: int = 200, master_seed: int = 0) -> list:
    """Deletion-survival curves for ring sizes solved from the critical rule."""
    specs = []
    for k in (8, 10, 12, 14):
        K1 = solve_threshold(_BASE_N, _BASE_P, _BASE_MU, 0.4, k, _STEP10)
        base = ModelParams(n=_BASE_N, mu=_BASE_MU, K=_STEP10.ring_sizes(K1),
                           P=_BASE_P, alpha=0.4)
        specs.append(ExperimentSpec(
            name=f"fig4_k{k}", base=base, sweep_kind="depth",
            sweep_values=tuple(range(0, k)), rule=_STEP10,
            trials=trials, k_list=(k,), master_seed=master_seed,
            record=RecordFlags(vertex_cut_curve=True),
        ))
    return specs
