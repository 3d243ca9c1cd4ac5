"""Closed-form quantities of the heterogeneous key-predistribution model.

A network of ``n`` sensors draws each node's class from a distribution ``mu``
over ``r`` classes; a class-``i`` node holds ``K[i]`` distinct keys sampled
uniformly from a pool of size ``P``, and every link is independently "on"
with probability ``alpha``.  Two nodes can talk securely iff they share a key
*and* the link between them is on.

Everything in this module is deterministic: exact pairwise key-sharing
probabilities, per-class mean edge probabilities, the deviation of a
parameter point from the critical connectivity scaling, and the
admissibility rule.  Probability ratios are accumulated in exact rational
arithmetic and rounded to a float once, so results are reproducible to the
last bit and match enumeration oracles exactly.

Class indices are 1-based throughout, mirroring the usual statement of the
model (class 1 has the smallest key ring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

MU_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Full parameterization of the intersection model.

    Args:
        n: number of nodes (>= 2).
        mu: class probabilities, all positive and finite, summing to 1
            within ``MU_SUM_TOL``.
        K: per-class key ring sizes, positive and non-decreasing
           (class 1 is the smallest ring by convention), with K[-1] <= P.
        P: key pool size.
        alpha: link-on probability in (0, 1].  Zero is rejected: the graph
            would be empty and threshold quantities undefined.
    """

    n: int
    mu: tuple
    K: tuple
    P: int
    alpha: float

    def __init__(self, n, mu, K, P, alpha):
        mu = tuple(float(m) for m in mu)
        K = tuple(int(k) for k in K)
        if int(n) != n or n < 2:
            raise ValueError("n must be an integer >= 2")
        if int(P) != P or P < 1:
            raise ValueError("P must be a positive integer")
        if len(K) < 1 or len(mu) != len(K):
            raise ValueError("mu and K must be non-empty and the same length")
        if not all(math.isfinite(m) and m > 0 for m in mu):
            raise ValueError("every class probability must be positive and finite")
        total = math.fsum(mu)
        if abs(total - 1.0) > MU_SUM_TOL:
            raise ValueError(f"class probabilities sum to {total!r}, not 1")
        if any(k < 1 for k in K):
            raise ValueError("every key ring size must be a positive integer")
        if any(K[i] > K[i + 1] for i in range(len(K) - 1)):
            raise ValueError("key ring sizes must be non-decreasing")
        if K[-1] > P:
            raise ValueError("largest key ring exceeds the pool size")
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "P", int(P))
        object.__setattr__(self, "alpha", alpha)

    @property
    def r(self) -> int:
        """Number of node classes."""
        return len(self.K)

    def replace(self, **kw) -> "ModelParams":
        base = dict(n=self.n, mu=self.mu, K=self.K, P=self.P, alpha=self.alpha)
        base.update(kw)
        return ModelParams(**base)


def _check_class_index(params: ModelParams, i: int) -> None:
    if not 1 <= i <= params.r:
        raise IndexError(f"class index {i} out of range 1..{params.r}")


def _no_share_fraction(P: int, Ki: int, Kj: int) -> Fraction:
    # Telescoping product for C(P-Ki, Kj) / C(P, Kj); never forms factorials.
    prod = Fraction(1)
    for t in range(Kj):
        prod *= Fraction(P - Ki - t, P - t)
    return prod


def edge_prob_key(params: ModelParams, i: int, j: int) -> float:
    """Probability that a class-i and a class-j node share at least one key.

    Exactly 1 when the two rings cannot avoid overlapping (K_i + K_j > P);
    otherwise one minus the no-overlap ratio, evaluated as an exact rational
    telescoping product and rounded once to a float.  Symmetric in (i, j).
    """
    _check_class_index(params, i)
    _check_class_index(params, j)
    Ki, Kj = params.K[i - 1], params.K[j - 1]
    if Ki + Kj > params.P:
        return 1.0
    return float(1 - _no_share_fraction(params.P, Ki, Kj))


def mean_edge_prob_key(params: ModelParams, i: int) -> float:
    """Mean key-sharing edge probability for a class-i node (over the peer's class)."""
    _check_class_index(params, i)
    return math.fsum(
        params.mu[j - 1] * edge_prob_key(params, i, j) for j in range(1, params.r + 1)
    )


def mean_edge_prob(params: ModelParams, i: int) -> float:
    """Mean secure-link probability for a class-i node: link-on times key share."""
    return params.alpha * mean_edge_prob_key(params, i)


def deviation_from_critical(params: ModelParams, k: int) -> float:
    """Deviation of the class-1 mean degree from the critical k-connectivity scaling.

    Positive values put the parameter point on the connected ("one-law") side,
    negative on the disconnected ("zero-law") side.  Natural logarithms.
    """
    if params.n < 3:
        raise ValueError("deviation requires n >= 3 (log log n must be positive)")
    if k < 1:
        raise ValueError("k must be a positive integer")
    n = params.n
    return n * mean_edge_prob(params, 1) - math.log(n) - (k - 1) * math.log(math.log(n))


def admissible(K, P: int) -> bool:
    """The hard design constraint 2 <= K_1 <= ... <= K_r <= P/2."""
    return K[0] >= 2 and all(a <= b for a, b in zip(K, K[1:])) and 2 * K[-1] <= P
