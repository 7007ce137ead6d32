"""Exact statistics on paths of positive draws.

Notation used throughout: for a path X_1, ..., X_n write

* ``S_k = X_1 + ... + X_k`` (prefix sums),
* ``S_{n,k} = S_n - X_k`` (leave-one-out sums),

and let mu, sigma be the distribution's mean and standard deviation with
gamma = sigma/mu its coefficient of variation.

Product-form statistics are always evaluated on the log scale: the raw
products of n partial sums grow like exp(n) and overflow double
precision near n = 150, while their normalized logarithms stay O(1).
Each log ratio is computed as ``log1p`` of the centered increment, and
every sum is accumulated with ``math.fsum``, so exact algebraic
identities between different formulas survive at the 1e-10 level out to
n = 1e4.

The statistic kinds are listed once, in :data:`STATISTIC_KINDS` at the
end of this module: each CLI tag with its evaluator, the limit laws it
is compared against, its smallest path length and whether the
single-trajectory runner supports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Callable

import numpy as np

from .distributions import SamplePath

__all__ = [
    "StatisticKind",
    "STATISTIC_KINDS",
    "ASCLT_KINDS",
    "prefix_sums",
    "loo_log_statistic",
    "rw_log_statistic",
    "linearized_statistic",
    "standardized_sum",
    "geometric_mean_prefix",
    "geometric_mean_loo",
    "max_relative_deviation",
    "remainder_magnitude",
]

def _values(path) -> np.ndarray:
    """Coerce a SamplePath or array-like into a validated 1-D array."""
    if isinstance(path, SamplePath):
        return path.values
    v = np.asarray(path, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("path must be a nonempty one-dimensional sequence")
    if not np.all(v > 0.0):
        raise ValueError("all path values must be strictly positive")
    return v


def _check_loo(n: int, what: str) -> None:
    if n < 2:
        raise ValueError(
            f"{what} needs a path of length >= 2; the leave-one-out "
            f"normalizer (n-1)*mu vanishes at n = 1"
        )


def _loo_centered(v: np.ndarray, mu: float) -> tuple[np.ndarray, float]:
    """Return ((S - X_k - m)/m for all k, m) with m = (n-1)*mu."""
    m = (v.size - 1) * mu
    s = fsum(v)
    if s - np.max(v) <= 0.0:
        raise ValueError("every leave-one-out sum S_n - X_k must be positive")
    return (s - m - v) / m, m


def prefix_sums(path) -> np.ndarray:
    """Prefix sums S_1, ..., S_n of the path."""
    return np.cumsum(_values(path))


def loo_log_statistic(path, mu: float, gamma: float) -> float:
    """Normalized log product of leave-one-out sums.

    Returns ``T_n = (1/(gamma*sqrt(n))) * sum_k log(S_{n,k}/((n-1)*mu))``,
    so ``exp(T_n)`` is the normalized product itself without the raw
    product of n terms ever being formed.
    """
    v = _values(path)
    _check_loo(v.size, "loo_log_statistic")
    if mu <= 0 or gamma <= 0:
        raise ValueError("mu and gamma must be positive")
    c, _ = _loo_centered(v, mu)
    return fsum(np.log1p(c)) / (gamma * math.sqrt(v.size))


def rw_log_statistic(path, mu: float, gamma: float) -> float:
    """Normalized log product of prefix sums.

    Returns ``(1/(gamma*sqrt(n))) * sum_k log(S_k/(k*mu))``, the log of
    the normalized product of partial sums.
    """
    v = _values(path)
    if mu <= 0 or gamma <= 0:
        raise ValueError("mu and gamma must be positive")
    s = np.cumsum(v)
    k = np.arange(1, v.size + 1, dtype=float)
    return fsum(np.log1p((s - k * mu) / (k * mu))) / (gamma * math.sqrt(v.size))


def linearized_statistic(path, mu: float, gamma: float) -> float:
    """First-order linearization of the leave-one-out log statistic.

    Returns ``(1/(gamma*sqrt(n))) * sum_k (S_{n,k}/((n-1)*mu) - 1)``,
    evaluated term by term from the leave-one-out sums.  Algebraically
    this collapses to :func:`standardized_sum`; keeping the long form
    makes the agreement between the two a genuine cross-check of the
    implementation rather than a tautology.
    """
    v = _values(path)
    _check_loo(v.size, "linearized_statistic")
    if mu <= 0 or gamma <= 0:
        raise ValueError("mu and gamma must be positive")
    m = (v.size - 1) * mu
    s = fsum(v)
    return fsum((s - m - v) / m) / (gamma * math.sqrt(v.size))


def standardized_sum(path, mu: float, sigma: float) -> float:
    """Classical standardized sum ``(1/sqrt(n)) * sum_i (X_i - mu)/sigma``."""
    v = _values(path)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return fsum((v - mu) / sigma) / math.sqrt(v.size)


def geometric_mean_prefix(path) -> float:
    """Geometric mean of the normalized prefix sums S_k / k.

    Equals ``(prod_k S_k / n!)^(1/n)`` but is computed as the exponential
    of the averaged logs; neither n! nor the raw product is ever formed.
    """
    v = _values(path)
    s = np.cumsum(v)
    k = np.arange(1, v.size + 1, dtype=float)
    return math.exp(fsum(np.log(s / k)) / v.size)


def geometric_mean_loo(path) -> float:
    """Geometric mean of the normalized leave-one-out sums S_{n,k}/(n-1)."""
    v = _values(path)
    _check_loo(v.size, "geometric_mean_loo")
    s = fsum(v)
    if s - np.max(v) <= 0.0:
        raise ValueError("every leave-one-out sum S_n - X_k must be positive")
    return math.exp(fsum(np.log((s - v) / (v.size - 1))) / v.size)


def max_relative_deviation(path, mu: float) -> float:
    """Largest relative deviation ``max_k |S_{n,k}/((n-1)*mu) - 1|``.

    Diagnostic for the law-of-the-iterated-logarithm scale
    O(sqrt(loglog n / n)) at which the leave-one-out ratios concentrate
    around 1.
    """
    v = _values(path)
    _check_loo(v.size, "max_relative_deviation")
    if mu <= 0:
        raise ValueError("mu must be positive")
    m = (v.size - 1) * mu
    return float(np.max(np.abs((fsum(v) - m - v) / m)))


def remainder_magnitude(path, mu: float, gamma: float) -> float:
    """Normalized sum of squared deviations of the leave-one-out ratios.

    Returns ``(1/(gamma*sqrt(n))) * sum_k (S_{n,k}/((n-1)*mu) - 1)^2``.
    This is the quantity the Taylor remainder of the log product is
    controlled by (up to the factor 4 valid while the ratios stay within
    1/2 of 1); its expectation is gamma/sqrt(n) * n/(n-1).
    """
    v = _values(path)
    _check_loo(v.size, "remainder_magnitude")
    if mu <= 0 or gamma <= 0:
        raise ValueError("mu and gamma must be positive")
    m = (v.size - 1) * mu
    c = (fsum(v) - m - v) / m
    return fsum(c * c) / (gamma * math.sqrt(v.size))


@dataclass(frozen=True)
class StatisticKind:
    """One statistic kind, keyed by its CLI tag in :data:`STATISTIC_KINDS`.

    ``log_law`` (the default comparison law) and ``product_law`` (the law
    of the exponentiated statistic, if any) are ``limits.LAW_TAGS`` tags.
    ``asclt`` marks the kinds :func:`prodsums.asclt.run_asclt_path` streams.
    """

    evaluate: Callable[[np.ndarray, float, float, float], float]
    log_law: str
    product_law: str | None
    min_n: int
    asclt: bool


STATISTIC_KINDS = {
    "loo": StatisticKind(
        lambda v, mu, sigma, gam: loo_log_statistic(v, mu, gam), "n01", "expnorm", 2, True
    ),
    "rw": StatisticKind(
        lambda v, mu, sigma, gam: rw_log_statistic(v, mu, gam), "n02", "expsqrt2", 1, True
    ),
    "lin": StatisticKind(
        lambda v, mu, sigma, gam: linearized_statistic(v, mu, gam), "n01", None, 2, True
    ),
    "std": StatisticKind(
        lambda v, mu, sigma, gam: standardized_sum(v, mu, sigma), "n01", None, 1, True
    ),
    "gm-prefix": StatisticKind(
        lambda v, mu, sigma, gam: geometric_mean_prefix(v), "point", None, 1, False
    ),
    "gm-loo": StatisticKind(
        lambda v, mu, sigma, gam: geometric_mean_loo(v), "point", None, 2, False
    ),
}

ASCLT_KINDS = tuple(tag for tag, kind in STATISTIC_KINDS.items() if kind.asclt)
