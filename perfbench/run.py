"""Keygraph benchmark: Monte Carlo sweep rounds through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; keygraph is imported from ``src/``.
A run repeats whole sweep rounds of the workload (see ``workloads.py``)
until ``--seconds`` have passed, writes each round's CSV with
``write_csv``, checks every CSV (see ``checks.py``) and prints one JSON
line: ``correct``, ``attempted`` and ``failed`` trials, and the metrics.

``--trace 0`` reports the end-to-end metrics of rounds run in this one
process (one worker), so a run never needs more cores than one.
``--trace 1`` runs each round twice with one worker, once plain and once
with spans attached from outside the program (see ``spans.py``), and round
0 once more through the process pool with ``REPLAY_WORKERS`` workers; it
writes the spans to ``.perfbench/`` and reports the per-layer metrics
derived from that file, plus the CPU time the pool adds.
Set-up, checks and the networkx recomputation run outside the timed region.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
# A timed run that keeps both cores of a 2-core VM busy measures whatever
# else the host runs on them, so only the traced run uses the pool.
REPLAY_WORKERS = 2


@dataclass
class Round:
    specs: list
    csv: Path
    wall_s: float
    cpu_s: float
    trials: int


def trials_per_round(specs) -> int:
    # A depth sweep draws one set of trials for all its depths.
    return sum(s.trials * (1 if s.sweep_kind == "depth" else len(s.sweep_values))
               for s in specs)


def run_round(workload, specs, seed, r, workers, tag, tracer=None) -> Round:
    """Round ``r``: every spec with the round's seed, then one CSV."""
    import keygraph.experiments as experiments
    from spans import ROUND
    from workloads import round_specs

    specs_r = round_specs(specs, seed, r)
    path = OUT / f"{workload.name}-s{seed}-{tag}-r{r}.csv"
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with tracer.span(ROUND) if tracer else nullcontext():
        results = [experiments.run_experiment(s, workers=workers) for s in specs_r]
        experiments.write_csv(results, path)
    wall = time.perf_counter() - t0
    return Round(specs_r, path, wall, cpu_seconds() - cpu0, trials_per_round(specs_r))


def run_rounds(workload, specs, seed, seconds) -> list:
    """Whole one-worker rounds until ``seconds`` have passed (at least one)."""
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        done.append(run_round(workload, specs, seed, len(done), 1, "run"))
    return done


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(workload) -> float:
    """Median over fresh processes of importing keygraph and building specs."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload.name]
    times = [float(subprocess.run(probe, check=True, capture_output=True, text=True,
                                  timeout=60).stdout.split()[-1])
             for _ in range(SETUP_PROBES)]
    return statistics.median(times)


def with_units(values: dict, section: str) -> dict:
    """``values`` with the units ``BENCHMARK.json`` declares in ``section``.

    The measured names must be exactly the declared ones.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(values) != set(units):
        raise ValueError(f"{section}: {sorted(set(values) ^ set(units))} "
                         "are not both measured and declared")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def check_rounds(checker, workload, rounds) -> list:
    fails = []
    for rnd in rounds:
        fails += checker.check_csv(rnd.specs, rnd.csv)
    fails += checker.check_with_networkx(rounds[0].specs, rounds[0].csv,
                                         workload.nx_rows, workload.nx_kappa_row)
    return fails


def differing_csvs(pairs) -> list:
    """Pairs of rounds of the same inputs whose CSVs differ."""
    return [f"{a.csv} and {b.csv} differ" for a, b in pairs
            if not filecmp.cmp(a.csv, b.csv, shallow=False)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "keygraph" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: {ROOT} is not a keygraph checkout "
              "(needs src/keygraph and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src)]
    sys.path.append(str(ROOT / "tests"))
    OUT.mkdir(exist_ok=True)

    import oracles
    from checks import Checker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    specs = workload.build()
    checker = Checker(oracles)

    if not args.trace:
        rounds = run_rounds(workload, specs, args.seed, args.seconds)
        peak = peak_rss_mb()
        fails = check_rounds(checker, workload, rounds)
        # Medians over rounds, so a burst of load from outside the process
        # moves one round rather than the run's figure.
        values = {
            "trials_per_s": statistics.median(r.trials / r.wall_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": peak,
            "setup_s": setup_seconds(workload),
        }
        metrics = with_units(values, "end_to_end")
    else:
        from spans import Tracer, layer_metrics

        # Each round runs plain and traced with one worker, the traced pass
        # first on odd rounds, over an even number of rounds (at least two),
        # so neither pass is always the first; the pool then repeats round
        # 0.  All CSVs of a round must be equal byte for byte.
        tracer = Tracer()
        plain, traced = [], []

        def traced_round(r):
            with tracer:
                return run_round(workload, specs, args.seed, r, 1, "traced", tracer)

        start = time.perf_counter()
        while len(plain) < 2 or len(plain) % 2 or \
                time.perf_counter() - start < args.seconds:
            r = len(plain)
            if r % 2:
                traced.append(traced_round(r))
            plain.append(run_round(workload, specs, args.seed, r, 1, "serial"))
            if not r % 2:
                traced.append(traced_round(r))
        pooled = run_round(workload, specs, args.seed, 0, REPLAY_WORKERS, "pool")
        rounds = plain
        trace_path = OUT / f"{workload.name}-s{args.seed}-trace.jsonl"
        tracer.dump(trace_path)
        fails = check_rounds(checker, workload, rounds)
        fails += differing_csvs([*zip(plain, traced), (plain[0], pooled)])
        overhead = statistics.median(t.wall_s - p.wall_s for p, t in zip(plain, traced))
        pool_cpu = pooled.cpu_s - plain[0].cpu_s
        metrics = with_units(layer_metrics(trace_path, overhead, pool_cpu), "per_layer")

    for f in fails:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": sum(r.trials for r in rounds),
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
