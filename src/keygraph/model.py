"""Closed-form quantities of the heterogeneous key-predistribution model.

A network of ``n`` sensors draws each node's class from a distribution ``mu``
over ``r`` classes; a class-``i`` node holds ``K[i]`` distinct keys sampled
uniformly from a pool of size ``P``, and every link is independently "on"
with probability ``alpha``.  Two nodes can talk securely iff they share a key
*and* the link between them is on.

Everything in this module is deterministic: exact pairwise key-sharing
probabilities, per-class mean edge probabilities, the critical level of the
k-connectivity zero-one law and a point's deviation from it, and the
admissibility rule.  A share probability is a ratio of integer binomial
coefficients, divided once, so it is the exact value correctly rounded to a
float: reproducible to the last bit and equal to enumeration oracles.

Class indices are 1-based throughout, mirroring the usual statement of the
model (class 1 has the smallest key ring).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

MU_SUM_TOL = 1e-12


def checked_int(value, name: str, low: int) -> int:
    """``value`` as an int once it is an integer >= ``low``.

    A bool, a string, a float with a fraction and an infinity are not.
    """
    try:
        ok = not isinstance(value, bool) and int(value) == value and value >= low
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def checked_tuple(value, name: str) -> tuple:
    """``value`` as a tuple once it is a sequence; a scalar, a string or a
    dict is not."""
    if isinstance(value, (str, dict)) or not hasattr(value, "__iter__"):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def checked_real(value, name: str) -> float:
    """``value`` as a float once it is a real number; a bool or a string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


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
        n = checked_int(n, "n", 2)
        P = checked_int(P, "P", 1)
        mu = tuple(checked_real(m, "mu") for m in checked_tuple(mu, "mu"))
        K = tuple(checked_int(k, "K", 1) for k in checked_tuple(K, "K"))
        if len(K) < 1 or len(mu) != len(K):
            raise ValueError("mu and K must be non-empty and the same length")
        if not all(math.isfinite(m) and m > 0 for m in mu):
            raise ValueError(f"mu entries must be positive and finite, got {mu!r}")
        total = math.fsum(mu)
        if abs(total - 1.0) > MU_SUM_TOL:
            raise ValueError(f"mu sums to {total!r}, not 1")
        if any(K[i] > K[i + 1] for i in range(len(K) - 1)):
            raise ValueError(f"K must be non-decreasing, got {K!r}")
        if K[-1] > P:
            raise ValueError(f"K holds a ring larger than P = {P}")
        alpha = checked_real(alpha, "alpha")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "P", P)
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


def edge_prob_key(params: ModelParams, i: int, j: int) -> float:
    """Probability that a class-i and a class-j node share at least one key.

    Exactly 1 when the two rings cannot avoid overlapping (K_i + K_j > P);
    otherwise 1 - C(P-K_i, K_j) / C(P, K_j), taken as one integer true
    division of C(P, K_j) - C(P-K_i, K_j) by C(P, K_j), which Python rounds
    once, correctly.  Symmetric in (i, j).
    """
    _check_class_index(params, i)
    _check_class_index(params, j)
    Ki, Kj = params.K[i - 1], params.K[j - 1]
    if Ki + Kj > params.P:
        return 1.0
    total = math.comb(params.P, Kj)
    return (total - math.comb(params.P - Ki, Kj)) / total


def mean_edge_prob_key(params: ModelParams, i: int) -> float:
    """Mean key-sharing edge probability for a class-i node (over the peer's class)."""
    _check_class_index(params, i)
    return math.fsum(
        params.mu[j - 1] * edge_prob_key(params, i, j) for j in range(1, params.r + 1)
    )


def mean_edge_prob(params: ModelParams, i: int) -> float:
    """Mean secure-link probability for a class-i node: link-on times key share."""
    return params.alpha * mean_edge_prob_key(params, i)


def critical_rhs(n: int, alpha: float, k: int) -> float:
    """Critical level (log n + (k-1) log log n) / (alpha n), natural logs.

    A point lies on the connected ("one-law") side of the k-connectivity
    scaling iff its class-1 mean key-edge probability strictly exceeds it.
    """
    checked_int(n, "n", 3)  # log log n must be positive
    checked_int(k, "k", 1)
    if not 0.0 < checked_real(alpha, "alpha") <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return (math.log(n) + (k - 1) * math.log(math.log(n))) / (n * alpha)


def deviation_from_critical(params: ModelParams, k: int) -> float:
    """n alpha (mean_edge_prob_key(params, 1) - critical_rhs): the class-1
    mean secure degree's distance from its critical level.  Positive exactly
    on the connected side, where ``solve_threshold``'s inequality holds.
    """
    n, alpha = params.n, params.alpha
    return n * alpha * (mean_edge_prob_key(params, 1) - critical_rhs(n, alpha, k))


def admissible(K, P: int) -> bool:
    """The hard design constraint 2 <= K_1 <= ... <= K_r <= P/2."""
    return K[0] >= 2 and all(a <= b for a, b in zip(K, K[1:])) and 2 * K[-1] <= P
