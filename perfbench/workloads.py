"""The benchmark's workloads: what one sweep round of each one runs.

Importing this module imports ``keygraph``, so the set-up probe times the
import of this module together with the spec building.

Every workload runs at the published parameter point: n = 500, P = 10^4,
mu = (1/2, 1/2), K = (K1, K1 + 10), alpha = 0.4.  A run repeats whole
rounds; round r runs every spec of the workload with its master seed set to
``round_seed(seed, r)``, so the same ``--seed`` gives the same inputs and
each round draws fresh networks.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable

from keygraph.experiments import fig1_specs, fig2_spec, fig4_specs


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``build`` returns the round's specs (master seed still unset); it is
    part of set-up.
    ``nx_rows`` are the row indices (in CSV order over the round's specs)
    whose trials are recomputed with networkx on round 0, and
    ``nx_kappa_row`` the row whose single trial gets an exact networkx
    vertex connectivity (None: the workload computes no connectivity).
    """

    name: str
    build: Callable[[], list]
    nx_rows: tuple
    nx_kappa_row: int | None


WORKLOADS = {
    w.name: w for w in (
        # k = 2 over K1 = 5..40: sampling plus the biconnectivity DFS.
        Workload("conn2-sweep",
                 lambda: fig1_specs(trials=4, alphas=(0.4,)),
                 nx_rows=tuple(range(0, 36, 5)), nx_kappa_row=None),
        # Four deletion designs, one trial each per round; exact kappa on
        # near-critical graphs.  CSV rows are depths 0..k-1 per design.
        Workload("deletion",
                 lambda: fig4_specs(trials=1),
                 nx_rows=(0, 8, 18, 30), nx_kappa_row=0),
        # k in {4, 6, 8, 10} over K1 = 15..40, one trial per K1; exact
        # kappa across densities from delta <= 2 to delta ~ 20.  CSV rows
        # are (K1, k) pairs, so rows 0, 20, ... are k = 4 of K1 = 15, 20, ...
        Workload("kconn-sweep",
                 lambda: [fig2_spec(trials=1)],
                 nx_rows=tuple(range(0, 104, 20)), nx_kappa_row=20),
    )
}


def round_seed(seed: int, r: int) -> int:
    """Master seed of round ``r`` of a run with workload seed ``seed``."""
    digest = hashlib.blake2b(f"{seed}/{r}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def round_specs(specs: list, seed: int, r: int) -> list:
    m = round_seed(seed, r)
    return [dataclasses.replace(s, master_seed=m) for s in specs]
