"""Critical-threshold solving: the smallest ring size that clears the scaling.

The design question answered here: given n, the pool size, the class mix,
the link reliability and a target k, how large must the smallest key ring be
so that the mean secure-degree of the weakest class clears the critical
k-connectivity scaling?  The solver scans integer ring sizes upward (the
left side is monotone in the smallest ring under a monotone profile rule),
returning the first admissible size that satisfies the strict inequality.
The critical level is ``model.critical_rhs``; which side of it a given point
lies on is ``model.deviation_from_critical``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .model import (ModelParams, admissible, checked_int, checked_real,
                    checked_tuple, critical_rhs, mean_edge_prob_key)


@dataclass(frozen=True)
class KeyProfileRule:
    """Maps a free smallest ring size K1 to the full ring-size vector.

    Two kinds, both with integer, non-decreasing ``values``:
      * ``offsets``: K_i = K1 + values[i], with values[0] == 0 (e.g. (0, 10)
        for "second class gets ten more keys").
      * ``fixed_tail``: the other classes have fixed, positive ring sizes
        and only K1 moves; K1 values above the first tail entry are
        inadmissible.
    """

    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in ("offsets", "fixed_tail"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        low = 0 if self.kind == "offsets" else 1
        name = f"{self.kind} values"
        values = tuple(checked_int(v, name, low) for v in checked_tuple(self.values, name))
        if self.kind == "offsets" and values[:1] != (0,):
            raise ValueError("offsets values must start with 0 for the free class")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError(f"{self.kind} values must be non-decreasing")
        object.__setattr__(self, "values", values)

    @classmethod
    def offsets(cls, *offsets: int) -> "KeyProfileRule":
        return cls("offsets", offsets)

    @classmethod
    def fixed_tail(cls, *tail: int) -> "KeyProfileRule":
        return cls("fixed_tail", tail)

    def ring_sizes(self, K1: int) -> tuple:
        if self.kind == "offsets":
            return tuple(K1 + o for o in self.values)
        return (K1,) + self.values

    def profile_label(self) -> str:
        """Stable human-readable identifier used in result tables."""
        body = ",".join(str(v) for v in self.values)
        return f"{self.kind}:{body}"


def solve_threshold(n: int, P: int, mu, alpha: float, k: int,
                    rule: KeyProfileRule) -> Optional[int]:
    """Smallest admissible K1 whose weakest-class edge probability beats the
    critical level, or None when no admissible K1 does.

    Every probe's ring vector must be ``admissible``.  The scan is a plain
    upward walk from 2; monotonicity of the edge probability in K1 under a
    monotone rule makes the first hit minimal.  The first inadmissible K1
    ends the scan (a fixed tail overtaken, or the biggest ring past half the
    pool; a larger K1 stays inadmissible).  Each distinct input is scanned
    once per process: the spec builders and every run that follows them ask
    for the same designs again.
    """
    rhs = critical_rhs(n, alpha, k)
    mu = tuple(checked_real(m, "mu") for m in checked_tuple(mu, "mu"))
    return _scan(n, P, mu, alpha, rule, rhs)


@lru_cache(maxsize=1024)
def _scan(n: int, P: int, mu: tuple, alpha: float, rule: KeyProfileRule,
          rhs: float) -> Optional[int]:
    K1 = 2
    while admissible(K := rule.ring_sizes(K1), P):
        if mean_edge_prob_key(ModelParams(n=n, mu=mu, K=K, P=P, alpha=alpha), 1) > rhs:
            return K1
        K1 += 1
    return None
