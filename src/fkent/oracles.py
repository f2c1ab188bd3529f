"""Closed-form oracles the estimators are validated against.

Nothing here touches the match DP or the greedy nets: match-count bounds
come from binomial coefficients, and entropy rates from the per-letter
factors and the law of the driving process.  Tests freeze these values and
require the numerical estimators to reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .systems import EXPANDING, TENT, DrivingProcess, RandomSystemSpec

__all__ = [
    "OracleValue",
    "match_count_bound",
    "stirling_rate",
    "log_binomial",
    "binomial_rate",
    "mismatch_entropy_budget",
    "expected_entropy",
]


@dataclass(frozen=True)
class OracleValue:
    """An exactly derived reference value plus its derivation tag."""

    value: float
    derivation: str

    def __post_init__(self) -> None:
        if not self.derivation:
            raise ValueError("derivation tag required")
        if not math.isfinite(self.value):
            raise ValueError("oracle value must be finite")


def match_count_bound(n: int, k: int) -> int:
    """Number of order-preserving partial bijections of size k: C(n, k)^2.

    Exact arbitrary-precision integer.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return math.comb(n, k) ** 2


def log_binomial(n: int, k: int) -> float:
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binomial_rate(n: int, eps: float) -> float:
    """(1/n) log C(n, floor(n*eps)); converges to stirling_rate(eps)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return log_binomial(n, int(math.floor(n * eps))) / n


def stirling_rate(eps: float) -> float:
    """Exponential growth rate of C(n, n*eps): the binary entropy of eps in nats.

    -(1 - eps) log(1 - eps) - eps log(eps), with the 0 log 0 = 0 convention
    at the endpoints.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps in (0.0, 1.0):
        return 0.0
    return -(1.0 - eps) * math.log(1.0 - eps) - eps * math.log(eps)


def mismatch_entropy_budget(kappa: float, cells: int) -> float:
    """Entropy overhead of tolerating a kappa fraction of mismatched steps.

    2*kappa*log(cells) - 4*kappa*log(kappa) - 4*(1-kappa)*log(1-kappa) in
    nats, for a partition with `cells` elements; tends to 0 as kappa -> 0.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    if kappa == 0.0:
        return 0.0
    return (
        2.0 * kappa * math.log(cells)
        - 4.0 * kappa * math.log(kappa)
        - 4.0 * (1.0 - kappa) * math.log(1.0 - kappa)
    )


def expected_entropy(system: RandomSystemSpec, process: DrivingProcess) -> OracleValue:
    """Exact fiber entropy of a built-in system under its driving law.

    Sum over letters of (letter weight) * log(factor): branch growth for
    expanding/tent families, word growth for full shifts.
    """
    weights = process.p
    if len(weights) != len(system.factors):
        raise ValueError("driving alphabet does not match system factors")
    if system.family in (EXPANDING, TENT):
        if any(f < 2 for f in system.factors):
            raise ValueError("entropy oracle needs expanding factors >= 2")
        tag = "branch-count"
    else:
        tag = "word-count"
    value = float(np.dot(weights, np.log(np.asarray(system.factors, dtype=float))))
    return OracleValue(value=value, derivation=tag)
