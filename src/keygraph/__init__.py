"""Secure-connectivity toolkit for heterogeneous key-predistribution networks.

Models a sensor network as the intersection of a random key graph (nodes
share an edge when their key rings overlap) with an independent on/off
channel graph, and provides exact model probabilities, seeded sampling,
exact connectivity analysis, critical-threshold solving and a deterministic
Monte Carlo experiment harness.
"""

from ._version import __version__
from .analysis import (Graph, is_connected, is_k_connected, min_degree,
                       minimum_vertex_cut, vertex_connectivity)
from .experiments import (ExperimentRow, ExperimentSpec, RecordFlags,
                          load_spec, run_experiment, wilson_halfwidth,
                          write_csv, write_dat)
from .model import (ModelParams, admissible, deviation_from_critical,
                    edge_prob_key, mean_edge_prob, mean_edge_prob_key)
from .rng import SeedSpec, derive_master
from .sampler import (SampledNetwork, read_network, sample_network,
                      write_network)
from .threshold import KeyProfileRule, solve_threshold

__all__ = [
    "__version__",
    "Graph", "is_connected", "is_k_connected", "min_degree",
    "minimum_vertex_cut", "vertex_connectivity",
    "ExperimentRow", "ExperimentSpec", "RecordFlags",
    "load_spec", "run_experiment", "wilson_halfwidth", "write_csv", "write_dat",
    "ModelParams", "admissible", "deviation_from_critical", "edge_prob_key",
    "mean_edge_prob", "mean_edge_prob_key",
    "SeedSpec", "derive_master",
    "SampledNetwork", "read_network", "sample_network", "write_network",
    "KeyProfileRule", "solve_threshold",
]
