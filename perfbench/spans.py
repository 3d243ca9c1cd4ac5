"""Spans recorded from outside keygraph, and the per-layer metrics they give.

A :class:`Tracer` replaces public functions by wrappers at the names where
``keygraph.experiments``, ``keygraph.analysis`` and ``keygraph.threshold``
look them up, so no file of the program changes.  Each call becomes a span
(id, parent id, name, start, end, attributes); spans stay in memory and are
written to a JSON-lines file when the traced run ends.  :func:`layer_metrics`
reads that file back.  It only works single-process: pool workers would
record into their own copies.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import keygraph.analysis as analysis
import keygraph.experiments as experiments
import keygraph.sampler as sampler
import keygraph.threshold as threshold

ROUND = "bench.round"


def _graph_delta(g, *args, **kwargs):
    return {"delta": analysis.min_degree(g)}


def _threshold_args(*args, **kwargs):
    return {"args": repr((args, sorted(kwargs.items())))}


# (owner, attribute, span name, attributes taken from the call's arguments)
TARGETS = (
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "write_csv", "experiments.write_csv", None),
    (experiments, "sample_network", "sampler.sample_network", None),
    (sampler.SampledNetwork, "graph", "analysis.graph_build", None),
    (experiments, "min_degree", "analysis.min_degree", None),
    (experiments, "is_k_connected", "analysis.is_k_connected", None),
    (experiments, "vertex_connectivity", "analysis.vertex_connectivity", _graph_delta),
    (analysis, "maximum_flow", "analysis.maximum_flow", None),
    (experiments, "solve_threshold", "threshold.solve_threshold", _threshold_args),
    (threshold, "mean_edge_prob_key", "model.mean_edge_prob_key", None),
)


class Tracer:
    """Context manager that records a span per call of every target."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name, attrs):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, 0.0, 0.0, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, attrs_of):
        def traced(*args, **kwargs):
            rec = self._open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def __enter__(self):
        for owner, attr, name, attrs_of in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, attrs_of))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def layer_metrics(path, overhead_s: float, pool_cpu_s: float) -> dict:
    """Per-layer metrics from a span file, per sweep round.

    ``overhead_s`` is the tracing overhead per round and ``pool_cpu_s`` the
    CPU time the process pool adds to a round, both measured by the caller.

    ``busy_s`` is the summed span time of a layer, ``self_s`` that time less
    the part covered by its child spans.  Totals are divided by the number
    of ``bench.round`` spans, so runs with different round counts compare.
    """
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        busy[s["name"]] += dur
        self_s[s["name"]] += dur - child_s[s["id"]]

    def ancestor(s, name):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return s
        return None

    rounds = calls[ROUND]
    if rounds == 0:
        raise ValueError(f"{path} holds no {ROUND} span")
    low_delta_flows = kappa_flows = 0
    for s in spans:
        if s["name"] == "analysis.maximum_flow":
            vc = ancestor(s, "analysis.vertex_connectivity")
            if vc is not None:
                kappa_flows += 1
                low_delta_flows += vc["attrs"]["delta"] <= 2
    distinct = defaultdict(set)
    solves = defaultdict(int)
    for s in spans:
        if s["name"] == "threshold.solve_threshold":
            r = ancestor(s, ROUND)["id"]
            distinct[r].add(s["attrs"]["args"])
            solves[r] += 1
    useful = [len(distinct[r]) / solves[r] for r in solves]

    def ratio(a, b):
        return a / b if b else 0.0

    vc = "analysis.vertex_connectivity"
    mf = "analysis.maximum_flow"
    sn = "sampler.sample_network"
    per_round = {
        "sampler.sample_network.calls": calls[sn],
        "sampler.sample_network.busy_s": busy[sn],
        "analysis.graph_build.busy_s": busy["analysis.graph_build"],
        "analysis.min_degree.busy_s": busy["analysis.min_degree"],
        "analysis.is_k_connected.calls": calls["analysis.is_k_connected"],
        "analysis.is_k_connected.busy_s": busy["analysis.is_k_connected"],
        "analysis.vertex_connectivity.calls": calls[vc],
        "analysis.vertex_connectivity.busy_s": busy[vc],
        "analysis.maximum_flow.calls": calls[mf],
        "analysis.maximum_flow.busy_s": busy[mf],
        "analysis.low_delta_graphs": sum(
            1 for s in spans if s["name"] == vc and s["attrs"]["delta"] <= 2),
        "analysis.low_delta_flows": low_delta_flows,
        "threshold.solve_threshold.calls": calls["threshold.solve_threshold"],
        "threshold.solve_threshold.busy_s": busy["threshold.solve_threshold"],
        "model.mean_edge_prob_key.calls": calls["model.mean_edge_prob_key"],
        "experiments.run_experiment.self_s": self_s["experiments.run_experiment"],
        "experiments.write_csv.busy_s": busy["experiments.write_csv"],
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out.update({
        "sampler.sample_network.ms_per_call": 1e3 * ratio(busy[sn], calls[sn]),
        "analysis.vertex_connectivity.ms_per_call": 1e3 * ratio(busy[vc], calls[vc]),
        "analysis.flows_per_kappa": ratio(kappa_flows, calls[vc]),
        "analysis.ms_per_flow": 1e3 * ratio(busy[mf], calls[mf]),
        "threshold.solve_threshold.useful_ratio": ratio(sum(useful), len(useful)),
        "experiments.pool.extra_cpu_s": pool_cpu_s,
        "trace.overhead_s": overhead_s,
    })
    return out
