"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All randomized criteria run on fixed master seeds (registered before any
outcome was observed) so reruns are bit-reproducible.  Worker counts only
affect wall time, never results.
"""

import math
import os
import time
from statistics import NormalDist

import numpy as np

from keygraph import (ExperimentSpec, KeyProfileRule, ModelParams, SeedSpec,
                      deviation_from_critical, edge_prob_key, mean_edge_prob,
                      mean_edge_prob_key, min_degree, minimum_vertex_cut,
                      run_experiment, sample_network, solve_threshold,
                      vertex_connectivity, write_csv)
from keygraph.experiments import fig4_specs
from oracles import (binomial_ratio_share_prob, brute_vertex_connectivity,
                     connected_after_removal, enumerate_share_prob,
                     factor_pairs, low_degree_expectation)

ACCEPT_SEED = 0  # registered up front; never tuned against outcomes
WORKERS = min(4, os.cpu_count() or 1)
STEP10 = KeyProfileRule.offsets(0, 10)


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_threshold_reproduction():
    t0 = time.perf_counter()
    got = {k: solve_threshold(500, 10**4, (0.5, 0.5), 0.4, k, STEP10)
           for k in (8, 10, 12, 14)}
    elapsed = time.perf_counter() - t0
    expect = {8: 30, 10: 33, 12: 36, 14: 38}
    ok = got == expect and elapsed < 1.0
    _report("1", ok, f"thresholds {got} (expect {expect}) in {elapsed:.3f}s")
    assert got == expect
    assert elapsed < 1.0


# Two-sided normal quantile at family-wise level 1% over the four fig4
# designs (Bonferroni): Phi^-1(1 - 0.01 / (2 * 4)) = 3.02.
CRIT2_DESIGNS = 4
CRIT2_Z = NormalDist().inv_cdf(1 - 0.01 / (2 * CRIT2_DESIGNS))


def _survival_reference(params: ModelParams, k: int) -> tuple:
    """(E, e^-E): expected count of nodes with degree < k, and the Poisson
    reference for P(min degree >= k), from the exact binomial degree law."""
    E = float(low_degree_expectation(params.n, params.P, params.mu, params.K,
                                     params.alpha, k))
    return E, math.exp(-E)


def test_criterion_2_deletion_survival_levels():
    # At the critical scaling "min degree >= k" and "k-connected" coincide
    # with high probability, so survival at depth k-1 is pinned by the
    # exact degree law.  (a) The degree event must sit within sampling
    # error, plus the Poisson allowance E^2/2 (the width of the Bonferroni
    # bracket 1-E <= P(no low-degree node) <= 1-E+E^2/2), of e^-E.
    # (b) Survival can never exceed the degree event and must coincide with
    # it on at least 97% of trials, the bar criterion 3 uses.
    trials = 200
    specs = fig4_specs(trials=trials, master_seed=ACCEPT_SEED)
    assert len(specs) == CRIT2_DESIGNS
    oks, details = [], []
    for spec, k in zip(specs, (8, 10, 12, 14)):
        E, ref = _survival_reference(spec.base, k)
        sigma = math.sqrt(ref * (1 - ref) / trials)
        half = CRIT2_Z * sigma + E**2 / 2
        lo, hi = ref - half, ref + half
        # The interval must exclude a design one key smaller, or the check
        # could not tell the designs criterion 1 pins from their neighbours.
        smaller = ModelParams(n=spec.base.n, mu=spec.base.mu,
                              K=spec.rule.ring_sizes(spec.base.K[0] - 1),
                              P=spec.base.P, alpha=spec.base.alpha)
        _, ref_smaller = _survival_reference(smaller, k)
        res = run_experiment(spec, workers=WORKERS)
        row = next(r for r in res if r.sweep_value == k - 1)
        z = (row.prob_mindeg - ref) / sigma
        ok = (lo <= row.prob_mindeg <= hi
              and row.prob_kconn <= row.prob_mindeg
              and row.mismatch_count / row.trials <= 0.03
              and not lo <= ref_smaller <= hi)
        oks.append(ok)
        details.append(
            f"k={k} K1={spec.base.K[0]}: E={E:.3f} ref={ref:.3f} "
            f"in [{lo:.3f},{hi:.3f}] mindeg={row.prob_mindeg:.3f} "
            f"survival@{k - 1}={row.prob_kconn:.3f} z={z:+.2f} "
            f"mismatches={row.mismatch_count}={'yes' if ok else 'NO'}")
    detail = "; ".join(details)
    _report("2", all(oks), detail)
    assert all(oks), detail


def test_criterion_3_transition_bands_and_event_coincidence():
    mismatches = 0
    total = 0
    fails = []
    details = []
    for alpha in (0.2, 0.4, 0.6, 0.8):
        thr = solve_threshold(500, 10**4, (0.5, 0.5), alpha, 2, STEP10)
        for K1, bound, side in ((thr - 8, 0.05, "low"), (thr + 8, 0.95, "high")):
            base = ModelParams(n=500, mu=(0.5, 0.5), K=STEP10.ring_sizes(K1),
                               P=10**4, alpha=alpha)
            spec = ExperimentSpec(
                name=f"accept3_a{alpha}", base=base, sweep_kind="K1",
                sweep_values=(K1,), rule=STEP10, trials=200, k_list=(2,),
                master_seed=ACCEPT_SEED)
            row = run_experiment(spec, workers=WORKERS)[0]
            p = row.prob_kconn
            ok = p <= bound if side == "low" else p >= bound
            if not ok:
                fails.append((alpha, K1, p))
            details.append(f"a={alpha} K1={K1}({side}): {p:.3f}")
            mismatches += row.mismatch_count
            total += row.trials
    coincidence = 1 - mismatches / total
    ok = not fails and coincidence >= 0.97
    _report("3", ok, "; ".join(details) + f"; coincidence={coincidence:.4f}")
    assert not fails, f"transition band violations: {fails}"
    assert coincidence >= 0.97


def test_criterion_4_connectivity_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 4)
    mismatches = 0
    from keygraph import Graph
    for trial in range(1000):
        n = int(rng.integers(2, 8))
        density = float(rng.choice([0.2, 0.5, 0.8]))
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < density
        g = Graph(n, np.stack([iu[keep], ju[keep]], axis=1))
        kappa, cut = minimum_vertex_cut(g)
        delta = min_degree(g)
        ok = (kappa == brute_vertex_connectivity(n, g.edges)
              and delta == (int(np.diff(g.indptr).min()))
              and kappa <= delta)
        if cut.size:
            ok = ok and not connected_after_removal(n, g.edges, cut)
            ok = ok and cut.size == kappa
        if not ok:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    passed = mismatches == 0 and elapsed < 30.0
    _report("4", passed, f"{mismatches} mismatches / 1000 graphs in {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_5_probability_oracle_equivalence():
    exact_fail = 0
    for P in range(2, 13):
        for Ki in range(1, P // 2 + 1):
            for Kj in range(Ki, P // 2 + 1):
                params = ModelParams(n=5, mu=(0.5, 0.5), K=(Ki, Kj), P=P,
                                     alpha=0.5)
                if edge_prob_key(params, 1, 2) != float(
                        enumerate_share_prob(P, Ki, Kj)):
                    exact_fail += 1
    ratio_fail = 0
    for P in range(2, 61):
        for Ki in range(1, P // 2 + 1):
            for Kj in range(Ki, P // 2 + 1):
                params = ModelParams(n=5, mu=(0.5, 0.5), K=(Ki, Kj), P=P,
                                     alpha=0.5)
                expect = float(binomial_ratio_share_prob(P, Ki, Kj))
                if abs(edge_prob_key(params, 1, 2) - expect) > 1e-12:
                    ratio_fail += 1
    ok = exact_fail == 0 and ratio_fail == 0
    _report("5", ok, f"enumeration mismatches={exact_fail}, "
                     f"binomial-ratio mismatches={ratio_fail}")
    assert exact_fail == 0 and ratio_fail == 0


def test_criterion_6_model_statistics_consistency():
    params = ModelParams(n=500, mu=(0.5, 0.5), K=(20, 30), P=10**4, alpha=0.4)
    pair_counts = np.zeros((2, 2), dtype=np.int64)
    edge_counts = np.zeros((2, 2), dtype=np.int64)
    for t in range(8):
        net = sample_network(params, SeedSpec(ACCEPT_SEED + 6, t))
        cls0 = net.classes.astype(np.int64) - 1
        n_c = np.bincount(cls0, minlength=2)
        pair_counts[0, 0] += n_c[0] * (n_c[0] - 1) // 2
        pair_counts[1, 1] += n_c[1] * (n_c[1] - 1) // 2
        pair_counts[0, 1] += n_c[0] * n_c[1]
        for u, v in net.edges:
            i, j = sorted((cls0[u], cls0[v]))
            edge_counts[i, j] += 1
    total_pairs = int(pair_counts[0, 0] + pair_counts[0, 1] + pair_counts[1, 1])
    worst = 0.0
    for i, j in ((0, 0), (0, 1), (1, 1)):
        target = params.alpha * edge_prob_key(params, i + 1, j + 1)
        npairs = int(pair_counts[i, j])
        sigma = math.sqrt(target * (1 - target) / npairs)
        dev = abs(edge_counts[i, j] / npairs - target) / sigma
        worst = max(worst, dev)
    ok = worst < 4.0 and total_pairs >= 100_000
    _report("6", ok, f"{total_pairs} pairs, worst deviation {worst:.2f} sigma")
    assert total_pairs >= 100_000
    assert worst < 4.0


def test_criterion_7_invariant_suite(tmp_path):
    # (a) connectivity never exceeds minimum degree on sampled graphs
    violations = 0
    p_small = ModelParams(n=60, mu=(0.5, 0.5), K=(3, 5), P=60, alpha=0.5)
    for t in range(40):
        g = sample_network(p_small, SeedSpec(ACCEPT_SEED + 7, t)).graph()
        if vertex_connectivity(g) > min_degree(g):
            violations += 1
    # (b) per-class mean edge probabilities are ordered
    order_viol = 0
    for K in ((2, 3, 9), (5, 5, 5), (1, 6, 40)):
        for alpha in (0.3, 1.0):
            params = ModelParams(n=100, mu=(0.2, 0.3, 0.5), K=K, P=100,
                                 alpha=alpha)
            lams = [mean_edge_prob_key(params, i) for i in (1, 2, 3)]
            caps = [mean_edge_prob(params, i) for i in (1, 2, 3)]
            if not all(a <= b + 1e-12 for a, b in zip(lams, lams[1:])):
                order_viol += 1
            if not all(a <= b + 1e-12 for a, b in zip(caps, caps[1:])):
                order_viol += 1
    # (c) secure links are exactly the pairs in both factor graphs
    contain_viol = 0
    p_factor = ModelParams(n=80, mu=(0.5, 0.5), K=(3, 6), P=50, alpha=0.5)
    for t in range(10):
        seed = SeedSpec(ACCEPT_SEED + 70, t)
        net = sample_network(p_factor, seed)
        key, channel = factor_pairs(seed.stream(),
                                    [net.ring(x).tolist() for x in range(net.n)],
                                    p_factor.alpha)
        if set(map(tuple, net.edges.tolist())) != key & set(channel):
            contain_viol += 1
    # (d) worker count never changes the bytes of the output
    base = ModelParams(n=40, mu=(0.5, 0.5), K=(3, 5), P=50, alpha=0.5)
    spec = ExperimentSpec(name="accept7", base=base, sweep_kind="K1",
                          sweep_values=(3, 5), rule=KeyProfileRule.offsets(0, 2),
                          trials=12, k_list=(1, 2, 3),
                          master_seed=ACCEPT_SEED + 77)
    paths = []
    for w in (1, WORKERS if WORKERS > 1 else 2):
        path = tmp_path / f"w{w}.csv"
        write_csv(run_experiment(spec, workers=w), path)
        paths.append(path.read_bytes())
    determinism_ok = paths[0] == paths[1]
    ok = (violations == 0 and order_viol == 0 and contain_viol == 0
          and determinism_ok)
    _report("7", ok, f"kappa<=delta violations={violations}, "
                     f"ordering violations={order_viol}, "
                     f"containment violations={contain_viol}, "
                     f"csv identical across workers={determinism_ok}")
    assert violations == 0
    assert order_viol == 0
    assert contain_viol == 0
    assert determinism_ok


def _scaling_point(n: int, one_law: bool, k: int = 2,
                   alpha: float = 0.5) -> ModelParams:
    """Canned admissible scaling with deviation about +/- log n at size n."""
    P = round(n * math.log(n))
    rule = KeyProfileRule.offsets(0, 5)
    target = math.log(n)
    if one_law:
        K1 = 2
        while True:
            params = ModelParams(n=n, mu=(0.5, 0.5), K=rule.ring_sizes(K1),
                                 P=P, alpha=alpha)
            if deviation_from_critical(params, k) >= target:
                return params
            K1 += 1
    best = None
    K1 = 2
    while True:
        params = ModelParams(n=n, mu=(0.5, 0.5), K=rule.ring_sizes(K1), P=P,
                             alpha=alpha)
        if deviation_from_critical(params, k) <= -target:
            best = params
            K1 += 1
        else:
            break
    if best is None:
        raise AssertionError(f"no zero-law point at n={n}")
    return best


def test_criterion_8_zero_one_trend():
    k = 2
    trials = 120
    sizes = (200, 500, 1000, 2000)
    results = {}
    for one_law in (True, False):
        probs, cis = [], []
        for n in sizes:
            params = _scaling_point(n, one_law, k=k)
            assert params.K[0] >= 2 and 2 * params.K[-1] <= params.P
            spec = ExperimentSpec(
                name=f"accept8_{'one' if one_law else 'zero'}_{n}",
                base=params, sweep_kind="k", sweep_values=(k,), trials=trials,
                master_seed=ACCEPT_SEED + 8)
            row = run_experiment(spec, workers=WORKERS)[0]
            probs.append(row.prob_kconn)
            cis.append(row.ci_half)
        results[one_law] = (probs, cis)
    one_probs, one_cis = results[True]
    zero_probs, zero_cis = results[False]
    mono_one = all(
        one_probs[i + 1] >= one_probs[i] - 2 * max(one_cis[i], one_cis[i + 1])
        for i in range(len(sizes) - 1))
    mono_zero = all(
        zero_probs[i + 1] <= zero_probs[i] + 2 * max(zero_cis[i], zero_cis[i + 1])
        for i in range(len(sizes) - 1))
    ends_ok = one_probs[-1] > 0.9 and zero_probs[-1] < 0.1
    ok = mono_one and mono_zero and ends_ok
    _report("8", ok,
            f"one-law P={['%.3f' % p for p in one_probs]}, "
            f"zero-law P={['%.3f' % p for p in zero_probs]}")
    assert mono_one and mono_zero
    assert ends_ok
