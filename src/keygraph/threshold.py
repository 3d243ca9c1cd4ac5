"""Critical-threshold solving: the smallest ring size that clears the scaling.

The design question answered here: given n, the pool size, the class mix,
the link reliability and a target k, how large must the smallest key ring be
so that the mean secure-degree of the weakest class clears the critical
k-connectivity scaling?  The solver scans integer ring sizes upward (the
left side is monotone in the smallest ring under a monotone profile rule),
returning the first admissible size that satisfies the strict inequality.
Which side of that scaling a given point lies on is
``model.deviation_from_critical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import ModelParams, admissible, mean_edge_prob_key


@dataclass(frozen=True)
class KeyProfileRule:
    """Maps a free smallest ring size K1 to the full ring-size vector.

    Two kinds:
      * ``offsets``: K_i = K1 + offsets[i], offsets non-negative and
        non-decreasing with offsets[0] == 0 (e.g. (0, 10) for "second class
        gets ten more keys").
      * ``fixed_tail``: the other classes have fixed ring sizes and only K1
        moves; K1 values above the first tail entry are inadmissible.
    """

    kind: str
    values: tuple

    @classmethod
    def offsets(cls, *offsets: int) -> "KeyProfileRule":
        offs = tuple(int(o) for o in offsets)
        if not offs or offs[0] != 0:
            raise ValueError("offsets must start with 0 for the free class")
        if any(o < 0 for o in offs):
            raise ValueError("offsets must be non-negative")
        if any(offs[i] > offs[i + 1] for i in range(len(offs) - 1)):
            raise ValueError("offsets must be non-decreasing")
        return cls(kind="offsets", values=offs)

    @classmethod
    def fixed_tail(cls, *tail: int) -> "KeyProfileRule":
        t = tuple(int(v) for v in tail)
        if any(v < 1 for v in t):
            raise ValueError("tail ring sizes must be positive")
        if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
            raise ValueError("tail ring sizes must be non-decreasing")
        return cls(kind="fixed_tail", values=t)

    def ring_sizes(self, K1: int) -> tuple:
        if self.kind == "offsets":
            return tuple(K1 + o for o in self.values)
        return (K1,) + self.values

    def profile_label(self) -> str:
        """Stable human-readable identifier used in result tables."""
        body = ",".join(str(v) for v in self.values)
        return f"{self.kind}:{body}"


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold solve.

    ``K1_min`` is the smallest admissible ring size satisfying the strict
    inequality, or None when no admissible size does.  ``edge_prob_at_K1``
    is the weakest-class mean key-edge probability at the solution; ``rhs``
    the critical level it must exceed.
    """

    K1_min: Optional[int]
    edge_prob_at_K1: Optional[float]
    rhs: float


def critical_rhs(n: int, alpha: float, k: int) -> float:
    """Critical level (log n + (k-1) log log n) / (alpha n), natural logs."""
    if n < 3:
        raise ValueError("threshold quantities require n >= 3")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return (math.log(n) + (k - 1) * math.log(math.log(n))) / (n * alpha)


def solve_threshold(n: int, P: int, mu, alpha: float, k: int,
                    rule: KeyProfileRule) -> ThresholdResult:
    """Smallest admissible K1 whose weakest-class edge probability beats the
    critical level.

    Every probe's ring vector must be ``admissible``.  The scan is a plain
    upward walk from 2; monotonicity of the edge probability in K1 under a
    monotone rule makes the first hit minimal.  The first inadmissible K1
    ends the scan (a fixed tail overtaken, or the biggest ring past half the
    pool; a larger K1 stays inadmissible), and the result has no K1_min.
    """
    rhs = critical_rhs(n, alpha, k)
    K1 = 2
    while admissible(K := rule.ring_sizes(K1), P):
        lam = mean_edge_prob_key(ModelParams(n=n, mu=mu, K=K, P=P, alpha=alpha), 1)
        if lam > rhs:
            return ThresholdResult(K1_min=K1, edge_prob_at_K1=lam, rhs=rhs)
        K1 += 1
    return ThresholdResult(K1_min=None, edge_prob_at_K1=None, rhs=rhs)
