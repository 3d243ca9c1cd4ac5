"""Command-line interface.

Commands:
  prob        print model probabilities and the critical-scaling report
  threshold   solve for the smallest admissible ring size
  sample      draw one network and dump it as text
  analyze     structural report (degrees/connectivity/cut) for a dump file
  run         execute a JSON experiment spec, write CSV
  fig1..fig4  canned reproductions of the published numerical studies

Exit codes: 0 success, 1 runtime failure, 2 bad usage.  The master seed
defaults to the KEYGRAPH_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import BrokenExecutor

from . import experiments as xp
from .analysis import connectivity_report
from .model import (ModelParams, deviation_from_critical, edge_prob_key,
                    mean_edge_prob, mean_edge_prob_key, scaling_report)
from .rng import SeedSpec
from .sampler import read_network, sample_network, write_network
from .threshold import KeyProfileRule, classify_point, solve_threshold


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v != ""]


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v != ""]


def _default_seed() -> int:
    env = os.environ.get("KEYGRAPH_SEED")
    return int(env) if env else 0


def _add_model_flags(p: argparse.ArgumentParser, need_K: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--P", type=int, required=True, help="key pool size")
    p.add_argument("--mu", type=_float_list, required=True,
                   help="class probabilities, comma separated")
    if need_K:
        p.add_argument("--K", type=_int_list, required=True,
                       help="key ring sizes per class, comma separated")
    p.add_argument("--alpha", type=float, required=True,
                   help="channel-on probability in (0,1]")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="keygraph", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="print model probabilities for one point")
    _add_model_flags(p)
    p.add_argument("--k", type=int, default=1, help="connectivity target")

    p = sub.add_parser("threshold", help="solve the critical ring-size threshold")
    _add_model_flags(p, need_K=False)
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--offsets", type=_int_list, default=[0, 10],
                       help="ring-size offsets per class, first must be 0")
    group.add_argument("--tail", type=_int_list, default=None,
                       help="fixed ring sizes of the non-free classes")

    p = sub.add_parser("sample", help="draw one network and write a dump file")
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="connectivity report for a dump file")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("run", help="run a JSON experiment spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--dat", default=None, help="optional plot-data path prefix")
    p.add_argument("--workers", type=int, default=1)

    for name, help_text in (
        ("fig1", "2-connectivity vs K1 at four channel probabilities"),
        ("fig2", "k-connectivity vs K1 for k=4,6,8,10"),
        ("fig3", "2-connectivity vs alpha for same-mean ring profiles"),
        ("fig4", "survival vs minimum-cut deletions for k=8,10,12,14"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="CSV output path")
        p.add_argument("--dat", default=None, help="optional plot-data path prefix")
        p.add_argument("--workers", type=int, default=1)
    return ap


def _params_from_args(args) -> ModelParams:
    return ModelParams(n=args.n, mu=args.mu, K=args.K, P=args.P, alpha=args.alpha)


def _cmd_prob(args) -> int:
    params = _params_from_args(args)
    r = params.r
    print(f"n={params.n} P={params.P} alpha={params.alpha:.10g} "
          f"mu={','.join(f'{m:.10g}' for m in params.mu)} "
          f"K={','.join(str(k) for k in params.K)}")
    print("pairwise key-share probabilities:")
    for i in range(1, r + 1):
        row = " ".join(f"p[{i},{j}]={edge_prob_key(params, i, j):.6f}"
                       for j in range(1, r + 1))
        print("  " + row)
    for i in range(1, r + 1):
        print(f"  mean_edge_prob_key[{i}]={mean_edge_prob_key(params, i):.6f}  "
              f"mean_edge_prob[{i}]={mean_edge_prob(params, i):.6f}")
    rep = scaling_report(params, args.k)
    cls = classify_point(params, args.k)
    print(f"k={args.k} deviation={deviation_from_critical(params, args.k):.6f} "
          f"side={cls.side}{' (boundary)' if cls.on_boundary else ''}")
    print(f"admissible={rep.admissible} pool/nodes={rep.pool_to_nodes_ratio:.6g} "
          f"ring/pool={rep.ring_to_pool_ratio:.6g} "
          f"spread/log={rep.ring_spread_to_log_ratio:.6g}")
    return 0


def _cmd_threshold(args) -> int:
    if args.tail is not None:
        rule = KeyProfileRule.fixed_tail(*args.tail)
    else:
        rule = KeyProfileRule.offsets(*args.offsets)
    res = solve_threshold(args.n, args.P, args.mu, args.alpha, args.k, rule)
    if not res.satisfied:
        print(f"unsatisfiable: no admissible K1 reaches the critical level "
              f"rhs={res.rhs:.6g}")
        return 1
    print(f"K1_min={res.K1_min}")
    print(f"K={','.join(str(k) for k in rule.ring_sizes(res.K1_min))} "
          f"edge_prob={res.edge_prob_at_K1:.6f} rhs={res.rhs:.6f}")
    return 0


def _cmd_sample(args) -> int:
    params = _params_from_args(args)
    seed = args.seed if args.seed is not None else _default_seed()
    net = sample_network(params, SeedSpec(seed, args.trial))
    write_network(net, args.out)
    print(f"wrote {args.out}: n={net.n} edges={net.edges.shape[0]} "
          f"seed={seed} trial={args.trial}")
    return 0


def _cmd_analyze(args) -> int:
    net = read_network(args.infile)
    rep = connectivity_report(net.graph())
    print(f"n={net.n} edges={net.edges.shape[0]}")
    print(f"min_degree={rep.min_degree} vertex_connectivity={rep.vertex_connectivity} "
          f"connected={rep.is_connected} components={rep.component_count}")
    cut = ",".join(str(v) for v in rep.min_vertex_cut)
    print(f"min_vertex_cut={cut if cut else '(none)'}")
    return 0


def _specs(args) -> list:
    """The command's specs: the ``--spec`` file, or the figure's builder."""
    if args.command == "run":
        return [xp.load_spec(args.spec)]
    seed = args.seed if args.seed is not None else _default_seed()
    if args.command == "fig2":
        return [xp.fig2_spec(trials=args.trials, master_seed=seed)]
    return getattr(xp, f"{args.command}_specs")(trials=args.trials, master_seed=seed)


def _cmd_sweep(args) -> int:
    result = xp.run_experiment(*_specs(args), workers=args.workers)
    xp.write_csv(result, args.out)
    by_name = {}
    for row in result.rows:
        by_name.setdefault(row.experiment, []).append(row)
        mism = "" if row.mismatch_count is None else f" mismatches={row.mismatch_count}"
        conn = "" if row.prob_kconn is None else f" P[conn>=k]={row.prob_kconn:.3f}"
        print(f"  {row.experiment} value={row.sweep_value} k={row.k}{conn}"
              f" +-{row.ci_half:.3f}{mism}")
    print(f"wrote {args.out}")
    if args.dat:
        for name, rows in by_name.items():
            for k in sorted({row.k for row in rows}):
                path = f"{args.dat}.{name}.k{k}.dat"
                xp.write_dat(xp.ExperimentResult(rows=tuple(rows)), path, k=k)
                print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "prob": _cmd_prob,
        "threshold": _cmd_threshold,
        "sample": _cmd_sample,
        "analyze": _cmd_analyze,
    }
    try:
        return handlers.get(args.command, _cmd_sweep)(args)
    except (ValueError, IndexError) as exc:
        print(f"keygraph: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"keygraph: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor as exc:
        print(f"keygraph: a worker process died: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
