"""Output checks for the benchmark's CSVs.

Every check compares a CSV against a computation made apart from keygraph
(networkx, the brute-force oracles in ``tests/oracles.py``, the Wilson
formula written out here) or against a property the method must have.  None
compares against a stored copy of an earlier output.

Checks return a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

# Rows whose union bound on P(min degree < k) lies below this level must
# report count_mindeg == trials.  The chance that a correct program fails
# the check is at most the sum of trials * bound over the checked rows.
UNION_BOUND_LEVEL = 1e-6

_Z95 = 1.959963984540054


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expected_rows(specs) -> list:
    """(spec, sweep index, sweep value, k) for every CSV row, in CSV order.

    Only the sweep kinds the workloads use are handled: K1 and depth.
    """
    out = []
    for spec in specs:
        if spec.sweep_kind not in ("K1", "depth"):
            raise ValueError(f"no checks for {spec.sweep_kind!r} sweeps")
        for i, value in enumerate(spec.sweep_values):
            if spec.sweep_kind == "depth":
                out.append((spec, i, value, spec.k_list[0]))
            else:
                out.extend((spec, i, value, k) for k in spec.k_list)
    return out


def row_params(spec, value):
    if spec.sweep_kind == "K1":
        return spec.base.replace(K=spec.rule.ring_sizes(int(value)))
    return spec.base


def degree_target(spec, value, k) -> int:
    """Degree and connectivity a row's events need: depth d needs d + 1."""
    return int(value) + 1 if spec.sweep_kind == "depth" else int(k)


def wilson(count: int, trials: int) -> float:
    p = count / trials
    z2 = _Z95 * _Z95
    centre_spread = math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return _Z95 * centre_spread / (1 + z2 / trials)


def _opt_int(s: str):
    return None if s == "" else int(s)


def _opt_float(s: str):
    return None if s == "" else float(s)


class Checker:
    """Runs the checks; caches the seed-independent references."""

    def __init__(self, oracles):
        self._oracles = oracles
        self._thresholds = {}
        self._low_degree = {}

    # -- references ----------------------------------------------------------

    def threshold_K1(self, params, k: int, rule):
        """Smallest admissible K1 by an upward scan with exact share probabilities."""
        key = (params.n, params.P, params.mu, params.alpha, k, rule)
        if key not in self._thresholds:
            n = params.n
            rhs = (math.log(n) + (k - 1) * math.log(math.log(n))) / (params.alpha * n)
            found = None
            K1 = 2
            while True:
                K = rule.ring_sizes(K1)
                if any(a > b for a, b in zip(K, K[1:])) or 2 * K[-1] > params.P:
                    break
                lam = sum(Fraction(m) * self._oracles.binomial_ratio_share_prob(
                    params.P, K[0], Kj) for m, Kj in zip(params.mu, K))
                if lam > rhs:
                    found = K1
                    break
                K1 += 1
            self._thresholds[key] = found
        return self._thresholds[key]

    def union_bound(self, params, k: int) -> float:
        """Expected number of nodes of degree < k; float, log-space sum.

        Used to pick the rows whose exact bound might fall below the level;
        :meth:`low_degree_below_level` then confirms with the exact oracle.
        The exact oracle alone costs 0.03-0.34 s per row at n = 500: 6.2,
        14.4 and 22.0 s per run on conn2-sweep, deletion and kconn-sweep
        (36, 44 and 104 distinct rows) against 3.0, 5.1 and 3.6 s screened,
        measured on a 2-core VM with Python 3.11.7.
        """
        n, N = params.n, params.n - 1
        E = 0.0
        for mu_c, Kc in zip(params.mu, params.K):
            q = params.alpha * sum(
                m * float(self._oracles.binomial_ratio_share_prob(params.P, Kc, Kj))
                for m, Kj in zip(params.mu, params.K))
            if q >= 1.0:
                tail = 1.0 if k > N else 0.0
            else:
                tail = sum(math.exp(math.lgamma(N + 1) - math.lgamma(i + 1)
                                    - math.lgamma(N - i + 1) + i * math.log(q)
                                    + (N - i) * math.log1p(-q))
                           for i in range(min(k, N + 1)))
            E += mu_c * tail
        return n * E

    def low_degree_below_level(self, params, k: int) -> bool:
        key = (params.n, params.P, params.mu, params.K, params.alpha, k)
        if key not in self._low_degree:
            below = False
            if self.union_bound(params, k) < 10 * UNION_BOUND_LEVEL:
                exact = self._oracles.low_degree_expectation(
                    params.n, params.P, params.mu, params.K, params.alpha, k)
                below = exact < Fraction(UNION_BOUND_LEVEL)
            self._low_degree[key] = below
        return self._low_degree[key]

    # -- CSV checks ----------------------------------------------------------

    def check_csv(self, specs, path) -> list:
        """Every check that reads only the CSV and the specs."""
        rows = read_rows(path)
        want = expected_rows(specs)
        if len(rows) != len(want):
            return [f"{path}: {len(rows)} rows, expected {len(want)}"]
        fails = []
        for row, (spec, _, value, k) in zip(rows, want):
            fails += self._check_row(spec, value, k, row)
        fails += self._check_monotone(rows, want)
        return [f"{path}: {f}" for f in fails]

    def _check_row(self, spec, value, k, row) -> list:
        tag = f"{row['experiment']} value={row['sweep_value']} k={row['k']}"
        fails = []
        params = row_params(spec, value)
        trials = spec.trials
        head = (row["experiment"], int(row["n"]), int(row["P"]), float(row["alpha"]),
                int(row["k"]), int(row["trials"]), int(row["master_seed"]),
                float(row["sweep_value"]))
        if head != (spec.name, params.n, params.P, params.alpha, int(k), trials,
                    spec.master_seed, float(value)):
            fails.append(f"{tag}: identifying columns {head} do not match the spec")
        c_deg = _opt_int(row["count_mindeg"])
        c_conn = _opt_int(row["count_kconn"])
        for name, c in (("count_mindeg", c_deg), ("count_kconn", c_conn)):
            if c is None:
                continue
            if not 0 <= c <= trials:
                fails.append(f"{tag}: {name}={c} outside [0, {trials}]")
        if c_deg is not None and c_conn is not None and c_conn > c_deg:
            fails.append(f"{tag}: count_kconn={c_conn} > count_mindeg={c_deg}")
        for cname, pname in (("count_mindeg", "prob_mindeg"),
                             ("count_kconn", "prob_kconn")):
            c = _opt_int(row[cname])
            if c is not None and row[pname] != f"{c / trials:.6f}":
                fails.append(f"{tag}: {pname}={row[pname]} is not {cname}/trials")
        main = c_conn if c_conn is not None else c_deg
        if main is not None and 0 <= main <= trials and \
                row["ci_half"] != f"{wilson(main, trials):.6f}":
            fails.append(f"{tag}: ci_half={row['ci_half']} is not the Wilson half-width")

        mean_delta = float(row["mean_delta"])
        mean_kappa = _opt_float(row["mean_kappa"])
        if mean_kappa is not None and mean_kappa > mean_delta:
            fails.append(f"{tag}: mean kappa {mean_kappa} exceeds mean delta {mean_delta}")
        if trials == 1:
            # One trial per row: the means are that trial's delta and kappa.
            target = degree_target(spec, value, k)
            if c_deg is not None and c_deg != int(round(mean_delta) >= target):
                fails.append(f"{tag}: count_mindeg={c_deg} but delta={mean_delta}")
            if mean_kappa is not None and c_conn is not None and \
                    c_conn != int(round(mean_kappa) >= target):
                fails.append(f"{tag}: count_kconn={c_conn} but kappa={mean_kappa}")

        if spec.rule is not None:
            want_K1 = self.threshold_K1(params, int(k), spec.rule)
            got = _opt_int(row["threshold_K1"])
            if got != want_K1:
                fails.append(f"{tag}: threshold_K1={got}, the oracle scan gives {want_K1}")

        if c_deg is not None and c_deg != trials:
            target = degree_target(spec, value, k)
            if self.low_degree_below_level(params, target):
                fails.append(f"{tag}: count_mindeg={c_deg} < trials although "
                             f"P(delta < {target}) < {UNION_BOUND_LEVEL:g}")
        return fails

    @staticmethod
    def _check_monotone(rows, want) -> list:
        """Counts may not grow with deletion depth, nor with k at fixed K1."""
        groups = {}
        for row, (spec, i, value, k) in zip(rows, want):
            if spec.sweep_kind == "depth":
                groups.setdefault((spec.name,), []).append((int(value), row))
            else:
                groups.setdefault((spec.name, i), []).append((int(k), row))
        fails = []
        for key, group in groups.items():
            group.sort(key=lambda pair: pair[0])
            for col in ("count_mindeg", "count_kconn"):
                vals = [_opt_int(r[col]) for _, r in group]
                if None not in vals and any(b > a for a, b in zip(vals, vals[1:])):
                    fails.append(f"{'/'.join(map(str, key))}: {col} increases along {vals}")
        return fails

    # -- recomputation with networkx -----------------------------------------

    def check_with_networkx(self, specs, path, nx_rows, nx_kappa_row) -> list:
        """Recompute the trials of chosen rows with networkx.

        Each chosen row's trials are drawn again from their seeds; networkx
        gives their minimum degree and biconnectivity (or, for one row,
        their exact vertex connectivity), which must reproduce the row.
        """
        import networkx as nx
        from keygraph import SeedSpec, derive_master, sample_network

        rows = read_rows(path)
        want = expected_rows(specs)
        fails = []
        for idx in sorted(set(nx_rows) | ({nx_kappa_row} - {None})):
            row = rows[idx]
            spec, i, value, k = want[idx]
            params = row_params(spec, value)
            row_master = derive_master(spec.master_seed,
                                       0 if spec.sweep_kind == "depth" else i)
            deltas, bicon, kappas = [], [], []
            for t in range(spec.trials):
                edges = sample_network(params, SeedSpec(row_master, t)).edges
                G = nx.Graph()
                G.add_nodes_from(range(params.n))
                G.add_edges_from(edges.tolist())
                deltas.append(min(d for _, d in G.degree()))
                if spec.sweep_kind != "depth" and int(k) == 2:
                    bicon.append(nx.is_biconnected(G))
                if idx == nx_kappa_row:
                    kappas.append(nx.node_connectivity(G))
            tag = f"{path}: row {idx} ({row['experiment']} value={row['sweep_value']} k={k})"
            if row["mean_delta"] != f"{sum(deltas) / len(deltas):.6f}":
                fails.append(f"{tag}: mean_delta={row['mean_delta']}, networkx gives {deltas}")
            target = degree_target(spec, value, k)
            if row["count_mindeg"] != "" and \
                    int(row["count_mindeg"]) != sum(d >= target for d in deltas):
                fails.append(f"{tag}: count_mindeg={row['count_mindeg']}, networkx deltas {deltas}")
            if bicon and int(row["count_kconn"]) != sum(bicon):
                fails.append(f"{tag}: count_kconn={row['count_kconn']}, "
                             f"networkx biconnectivity {bicon}")
            if kappas and row["mean_kappa"] != f"{sum(kappas) / len(kappas):.6f}":
                fails.append(f"{tag}: mean_kappa={row['mean_kappa']}, networkx gives {kappas}")
        return fails
