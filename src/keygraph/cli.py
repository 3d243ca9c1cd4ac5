"""Command-line interface.

Commands:
  prob        print model probabilities, the side of the critical scaling
              and the admissibility of one parameter point
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
import math
import os
import sys
from concurrent.futures import BrokenExecutor

from . import experiments as xp
from .analysis import component_count, min_degree, minimum_vertex_cut
from .model import (ModelParams, admissible, critical_rhs,
                    deviation_from_critical, edge_prob_key, mean_edge_prob,
                    mean_edge_prob_key)
from .rng import SeedSpec
from .sampler import read_network, sample_network, write_network
from .threshold import KeyProfileRule, solve_threshold


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v != ""]


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v != ""]


def _default_seed() -> int:
    env = os.environ.get("KEYGRAPH_SEED")
    try:
        seed = int(env) if env else 0
    except ValueError:
        raise ValueError(f"KEYGRAPH_SEED must be an integer, got {env!r}") from None
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"KEYGRAPH_SEED must lie in [0, 2^64), got {env!r}")
    return seed


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
    dev = deviation_from_critical(params, args.k)  # rejects k and n before output
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
    # dev == 0 fails the strict threshold inequality: flag it, do not hide it
    print(f"k={args.k} deviation={dev:.6f} side={'above' if dev >= 0 else 'below'}"
          f"{' (boundary)' if dev == 0 else ''}")
    # Soft design guidelines: pool/nodes >= 1, ring/pool and spread/log small.
    K, P = params.K, params.P
    print(f"admissible={admissible(K, P)} pool/nodes={P / params.n:.6g} "
          f"ring/pool={K[-1] / P:.6g} "
          f"spread/log={K[-1] / K[0] / math.log(params.n):.6g}")
    return 0


def _cmd_threshold(args) -> int:
    if args.tail is not None:
        rule = KeyProfileRule.fixed_tail(*args.tail)
    else:
        rule = KeyProfileRule.offsets(*args.offsets)
    K1 = solve_threshold(args.n, args.P, args.mu, args.alpha, args.k, rule)
    rhs = critical_rhs(args.n, args.alpha, args.k)
    if K1 is None:
        print(f"unsatisfiable: no admissible K1 reaches the critical level rhs={rhs:.6g}")
        return 1
    params = ModelParams(n=args.n, mu=args.mu, K=rule.ring_sizes(K1), P=args.P,
                         alpha=args.alpha)
    print(f"K1_min={K1}")
    print(f"K={','.join(str(k) for k in params.K)} "
          f"edge_prob={mean_edge_prob_key(params, 1):.6f} rhs={rhs:.6f}")
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
    g = net.graph()
    kappa, cut = minimum_vertex_cut(g)
    comps = component_count(g)
    print(f"n={net.n} edges={net.edges.shape[0]}")
    print(f"min_degree={min_degree(g)} vertex_connectivity={kappa} "
          f"connected={comps == 1} components={comps}")
    print(f"min_vertex_cut={','.join(map(str, cut.tolist())) or '(none)'}")
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
    rows = xp.run_experiment(*_specs(args), workers=args.workers)
    xp.write_csv(rows, args.out)
    for row in rows:
        print(f"  {row.experiment} value={row.sweep_value} k={row.k}"
              f" P[conn>=k]={row.prob_kconn:.3f} +-{row.ci_half:.3f}"
              f" mismatches={row.mismatch_count}")
    print(f"wrote {args.out}")
    if args.dat:
        for path in xp.write_dat(rows, args.dat):
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
