"""Secure-connectivity toolkit for heterogeneous key-predistribution networks.

Models a sensor network as the intersection of a random key graph (nodes
share an edge when their key rings overlap) with an independent on/off
channel graph, and provides exact model probabilities, seeded sampling,
exact connectivity analysis, critical-threshold solving and a deterministic
Monte Carlo experiment harness.
"""

from ._version import __version__
from .analysis import (ConnectivityReport, Graph, connectivity_report,
                       is_connected, is_k_connected, min_degree,
                       vertex_connectivity)
from .experiments import (ExperimentResult, ExperimentRow, ExperimentSpec,
                          RecordFlags, load_spec, run_experiment,
                          wilson_halfwidth, write_csv, write_dat)
from .model import (ModelParams, ScalingReport, deviation_from_critical,
                    edge_prob_key, mean_edge_prob, mean_edge_prob_key,
                    mean_edge_prob_key_approx, scaling_report)
from .rng import SeedSpec, derive_master, mix64
from .sampler import (SampledNetwork, read_network, sample_network,
                      write_network)
from .threshold import (KeyProfileRule, PointClassification, ThresholdResult,
                        classify_point, solve_threshold)

__all__ = [
    "__version__",
    "ConnectivityReport", "Graph", "connectivity_report", "is_connected",
    "is_k_connected", "min_degree", "vertex_connectivity",
    "ExperimentResult", "ExperimentRow", "ExperimentSpec", "RecordFlags",
    "load_spec", "run_experiment", "wilson_halfwidth", "write_csv", "write_dat",
    "ModelParams", "ScalingReport", "deviation_from_critical", "edge_prob_key",
    "mean_edge_prob", "mean_edge_prob_key", "mean_edge_prob_key_approx",
    "scaling_report",
    "SeedSpec", "derive_master", "mix64",
    "SampledNetwork", "read_network", "sample_network", "write_network",
    "KeyProfileRule", "PointClassification", "ThresholdResult",
    "classify_point", "solve_threshold",
]
