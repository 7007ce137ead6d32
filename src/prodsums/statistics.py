"""Exact statistics on paths of positive draws.

Notation used throughout: for a path X_1, ..., X_n write

* ``S_k = X_1 + ... + X_k`` (prefix sums),
* ``S_{n,k} = S_n - X_k`` (leave-one-out sums),

and let mu, sigma be the distribution's mean and standard deviation with
gamma = sigma/mu its coefficient of variation.

Product-form statistics are always evaluated on the log scale: the raw
products of n partial sums overflow double precision near n = 150, while
their normalized logarithms stay O(1).  Each log ratio goes through
:func:`log_ratio`, and every sum through :func:`~prodsums.summation.row_sums`.

Each kind has one kernel, listed in :data:`STATISTIC_KINDS`.  A kernel
evaluates a ``(rows, n)`` batch of paths by reductions along each row,
so a row's value has the same bits in any batch; the public scalar
functions are one-row calls of the kernels.  A kernel writes its
temporaries into new arrays, or with the same bits into the ``work``
arrays of a caller that reuses them from batch to batch.
:func:`loo_log_prefixes` evaluates the leave-one-out statistic of many
prefixes of one path with the same arithmetic, a batch of prefixes at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import SamplePath
from .summation import _prefix_totals, row_sums

__all__ = [
    "StatisticKind",
    "STATISTIC_KINDS",
    "ASCLT_KINDS",
    "log_ratio",
    "prefix_sums",
    "loo_log_statistic",
    "loo_log_prefixes",
    "rw_log_statistic",
    "linearized_statistic",
    "standardized_sum",
    "geometric_mean_prefix",
    "geometric_mean_loo",
    "max_relative_deviation",
    "remainder_magnitude",
]


# draws per batch of rows: enough rows to amortize numpy's per-call cost at
# small n, few enough that a batch and the kernel's same-sized temporaries
# add about 1 MiB to the peak memory at any n
_BATCH_BYTES = 256 * 1024

# arrays of a batch's shape that a kernel may take as ``work``
_SCRATCH = 3


def _row(path) -> np.ndarray:
    """One path (a SamplePath or a 1-D sequence) as a one-row batch."""
    v = np.asarray(path.values if isinstance(path, SamplePath) else path, dtype=float)
    if v.ndim != 1:
        raise ValueError("path must be a nonempty one-dimensional sequence")
    return v[np.newaxis]


def _paths(paths) -> tuple[np.ndarray, np.ndarray]:
    """The validated ``(rows, n)`` float array every kernel works on, and
    the largest draw of each row."""
    x = np.asarray(paths, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("paths must form a nonempty (rows, n) array")
    top = x.max(axis=1)
    # a NaN fails both comparisons
    if not (x.min() > 0.0 and top.max() < math.inf):
        raise ValueError("all path values must be finite and strictly positive")
    return x, top


def _scratch(x: np.ndarray, work, k: int):
    """k arrays of x's shape for a kernel's temporaries: the first k of
    work, or new ones in x's memory order."""
    return [np.empty_like(x) for _ in range(k)] if work is None else work[:k]


def _check_positive(**params) -> None:
    if not all(p > 0 for p in params.values()):
        raise ValueError(f"{' and '.join(params)} must be positive")


def _loo_sums(x: np.ndarray, top=None, out=None, scratch=None) -> np.ndarray:
    """The leave-one-out sums S_n - X_k of every row, each positive.

    ``S_n - X_k`` cancels when X_k is most of S_n.  At most one draw of a
    row exceeds S_n/2, and its entry is summed afresh from the other
    draws; every other entry is at least S_n/2.  ``top`` is each row's
    largest draw if the caller has it; ``out`` takes the sums and
    ``scratch`` the temporaries of :func:`row_sums`.
    """
    if x.shape[1] < 2:
        raise ValueError("leave-one-out statistics need n >= 2; (n-1)*mu vanishes at n = 1")
    if top is None:
        top = x.max(axis=1)
    s = row_sums(x, top, scratch)
    loo = np.subtract(s[:, np.newaxis], x, out=out)
    rows = np.flatnonzero(top > 0.5 * s)
    if rows.size:
        rest = x[rows]
        k = rest.argmax(axis=1)
        rest[np.arange(rows.size), k] = 0.0
        loo[rows, k] = row_sums(rest)
    return loo


def log_ratio(num, den, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``(log(num/den), num/den - 1)`` for positive num, den.

    The log is ``log1p`` of the centred increment ``d = (num - den)/den``
    while d > -1/2.  Below that it is ``log(num) - log(den)``: there d
    has lost the digits of a small ratio, and rounds to exactly -1 once
    num/den is below about 1e-16, where ``log1p`` would give -inf.
    ``out``, a pair of arrays of the result's shape, takes the log and d
    in place of new arrays.
    """
    logs, d = (None, None) if out is None else out
    d = np.subtract(num, den, out=d)
    d /= den
    logs = np.maximum(d, -0.5, out=logs)
    np.log1p(logs, out=logs)
    if d.min() <= -0.5:
        low = d <= -0.5
        num, den = np.broadcast_arrays(num, den)
        logs[low] = np.log(num[low]) - np.log(den[low])
    return logs, d


def _no_diagnostics(values: np.ndarray):
    nan = np.full(values.shape, math.nan)
    return values, nan, nan


def _loo(paths, mu, sigma, gam, work=None):
    x, top = _paths(paths)
    _check_positive(mu=mu, gamma=gam)
    w0, w1, w2 = _scratch(x, work, 3)
    logs, c = log_ratio(_loo_sums(x, top, w0, w1), (x.shape[1] - 1) * mu, out=(w2, w1))
    scale = gam * math.sqrt(x.shape[1])
    maxdev = np.abs(c, out=w0).max(axis=1)
    # c * c overflows once |c| passes 1e154: a row whose largest |c| is
    # above 1 is squared at c / 2**e, e that maximum's binary exponent
    e = np.where(maxdev > 1.0, np.frexp(maxdev)[1], 0)
    big = np.nonzero(e)[0]
    c[big] *= np.ldexp(1.0, -e[big])[:, np.newaxis]
    with np.errstate(over="ignore"):  # a remainder past the double range is inf
        # rounding is monotone, so the largest square of a row is the
        # square of its scaled maxdev
        top_square = np.square(np.ldexp(maxdev, -e))
        remainder = np.ldexp(row_sums(np.multiply(c, c, out=c), top_square, w0) / scale, 2 * e)
    return row_sums(logs, out=w0) / scale, remainder, maxdev


def _rw(paths, mu, sigma, gam, work=None):
    x, _ = _paths(paths)
    _check_positive(mu=mu, gamma=gam)
    n = x.shape[1]
    w0, w1, w2 = _scratch(x, work, 3)
    den = np.arange(1, n + 1, dtype=float) * mu
    logs, _ = log_ratio(np.cumsum(x, axis=1, out=w0), den, out=(w2, w1))
    return _no_diagnostics(row_sums(logs, out=w0) / (gam * math.sqrt(n)))


def _lin(paths, mu, sigma, gam, work=None):
    x, top = _paths(paths)
    _check_positive(mu=mu, gamma=gam)
    m = (x.shape[1] - 1) * mu
    w0, w1 = _scratch(x, work, 2)
    c = _loo_sums(x, top, w0, w1)
    c -= m
    c /= m
    return _no_diagnostics(row_sums(c, out=w1) / (gam * math.sqrt(x.shape[1])))


def _std(paths, mu, sigma, gam, work=None):
    x, _ = _paths(paths)
    _check_positive(sigma=sigma)
    w0, w1 = _scratch(x, work, 2)
    z = np.subtract(x, mu, out=w0)
    z /= sigma
    return _no_diagnostics(row_sums(z, out=w1) / math.sqrt(x.shape[1]))


# a geometric mean is exp of the log statistic at mu = gamma = 1 over sqrt(n)
def _gm_prefix(paths, mu, sigma, gam, work=None):
    values, _, _ = _rw(paths, 1.0, None, 1.0, work)
    return _no_diagnostics(np.exp(values / math.sqrt(np.shape(paths)[1])))


def _gm_loo(paths, mu, sigma, gam, work=None):
    values, _, _ = _loo(paths, 1.0, None, 1.0, work)
    return _no_diagnostics(np.exp(values / math.sqrt(np.shape(paths)[1])))


def _one(kernel, path, mu=None, sigma=None, gamma=None, output=0) -> float:
    """Output 0 (the value), 1 (remainder) or 2 (maxdev) of a one-row call."""
    return float(kernel(_row(path), mu, sigma, gamma)[output][0])


def prefix_sums(path) -> np.ndarray:
    """Prefix sums S_1, ..., S_n of the path."""
    return np.cumsum(_paths(_row(path))[0][0])


def loo_log_statistic(path, mu: float, gamma: float) -> float:
    """Normalized log product of leave-one-out sums.

    Returns ``T_n = (1/(gamma*sqrt(n))) * sum_k log(S_{n,k}/((n-1)*mu))``,
    so ``exp(T_n)`` is the normalized product itself without the raw
    product of n terms ever being formed.
    """
    return _one(_loo, path, mu, gamma=gamma)


def loo_log_prefixes(path, ns, mu: float, gamma: float) -> np.ndarray:
    """:func:`loo_log_statistic` of ``path[:n]`` for every n in ns.

    ``ns`` is a nondecreasing sequence of prefix lengths, each from 2 to
    the path's length; only the draws up to the longest prefix are read.
    The S_n come from one pass over the path, and the prefixes are
    stacked into triangular batches of at most about 128 KiB, up to the
    batch's longest prefix.  A row holds S_n - X_k up to its n and
    (n-1)*mu past it, whose log ratio is exactly 0; a row whose largest
    draw exceeds S_n/2 takes the one-row call's cancellation-free sums.
    """
    ns = np.asarray(ns)
    out = np.empty(ns.size)
    if ns.ndim != 1 or (ns.size and ns.dtype.kind not in "iu"):
        raise ValueError("ns must be a 1-D sequence of integers")
    if not ns.size:
        return out
    if ns[0] < 2 or np.any(np.diff(ns) < 0):
        raise ValueError("ns must be nondecreasing prefix lengths n >= 2")
    x = _paths(_row(path)[:, : ns[-1]])[0][0]
    if ns[-1] > x.size:
        raise ValueError(f"prefix length {ns[-1]} exceeds the path length {x.size}")
    _check_positive(mu=mu, gamma=gamma)
    s = _prefix_totals(x, ns)
    dominant = np.maximum.accumulate(x)[ns - 1] > 0.5 * s
    cap = _BATCH_BYTES // 16
    i = 0
    while i < ns.size:
        # rows i..j-1 hold (j - i) * ns[j - 1] values; at least one row
        fits = np.arange(1, ns.size - i + 1) * ns[i:] <= cap
        j = i + max(1, int(np.count_nonzero(fits)))
        n = ns[i:j, np.newaxis]
        w = n[-1, 0]
        m = (n - 1) * mu
        loo = s[i:j, np.newaxis] - x[:w]
        np.copyto(loo[:, n[0, 0] :], m, where=np.arange(n[0, 0], w) >= n)
        big = np.flatnonzero(dominant[i:j])
        if big.size:
            inside = np.arange(w) < n[big]
            loo[big] = np.where(inside, _loo_sums(np.where(inside, x[:w], 0.0)), m[big])
        out[i:j] = row_sums(log_ratio(loo, m)[0]) / (gamma * np.sqrt(n[:, 0]))
        i = j
    return out


def rw_log_statistic(path, mu: float, gamma: float) -> float:
    """Normalized log product of prefix sums.

    Returns ``(1/(gamma*sqrt(n))) * sum_k log(S_k/(k*mu))``, the log of
    the normalized product of partial sums.
    """
    return _one(_rw, path, mu, gamma=gamma)


def linearized_statistic(path, mu: float, gamma: float) -> float:
    """First-order linearization of the leave-one-out log statistic.

    Returns ``(1/(gamma*sqrt(n))) * sum_k (S_{n,k}/((n-1)*mu) - 1)``,
    evaluated term by term from the leave-one-out sums.  Algebraically
    this collapses to :func:`standardized_sum`; keeping the long form
    makes the agreement between the two a genuine cross-check of the
    implementation rather than a tautology.
    """
    return _one(_lin, path, mu, gamma=gamma)


def standardized_sum(path, mu: float, sigma: float) -> float:
    """Classical standardized sum ``(1/sqrt(n)) * sum_i (X_i - mu)/sigma``."""
    return _one(_std, path, mu, sigma)


def geometric_mean_prefix(path) -> float:
    """Geometric mean of the normalized prefix sums S_k / k.

    Equals ``(prod_k S_k / n!)^(1/n)`` but is computed as the exponential
    of the averaged logs; neither n! nor the raw product is ever formed.
    """
    return _one(_gm_prefix, path)


def geometric_mean_loo(path) -> float:
    """Geometric mean of the normalized leave-one-out sums S_{n,k}/(n-1)."""
    return _one(_gm_loo, path)


def max_relative_deviation(path, mu: float) -> float:
    """Largest relative deviation ``max_k |S_{n,k}/((n-1)*mu) - 1|``.

    Diagnostic for the law-of-the-iterated-logarithm scale
    O(sqrt(loglog n / n)) at which the leave-one-out ratios concentrate
    around 1.
    """
    return _one(_loo, path, mu, gamma=1.0, output=2)


def remainder_magnitude(path, mu: float, gamma: float) -> float:
    """Normalized sum of squared deviations of the leave-one-out ratios.

    Returns ``(1/(gamma*sqrt(n))) * sum_k (S_{n,k}/((n-1)*mu) - 1)^2``.
    This is the quantity the Taylor remainder of the log product is
    controlled by (up to the factor 4 valid while the ratios stay within
    1/2 of 1); its expectation is gamma/sqrt(n) * n/(n-1).  A remainder
    beyond the double range is inf.
    """
    return _one(_loo, path, mu, gamma=gamma, output=1)


@dataclass(frozen=True)
class StatisticKind:
    """One statistic kind, keyed by its CLI tag in :data:`STATISTIC_KINDS`.

    ``evaluate(paths, mu, sigma, gamma, work=None)`` maps a ``(rows, n)``
    array of paths to ``(values, remainder, maxdev)``, one entry per row;
    the diagnostics are :func:`remainder_magnitude` and
    :func:`max_relative_deviation` for ``loo`` and NaN otherwise.
    ``work``, a sequence of ``_SCRATCH`` C-ordered float arrays of the
    paths' shape, takes the kernel's temporaries in place of new arrays;
    the results are the same bits either way and never alias it.
    ``log_law`` (the default comparison law) and ``product_law`` (the law
    of the exponentiated statistic, if any) are ``limits.LAW_TAGS`` tags.
    ``asclt`` marks the kinds :func:`prodsums.asclt.run_asclt_path` streams.
    """

    evaluate: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    log_law: str
    product_law: str | None
    min_n: int
    asclt: bool


STATISTIC_KINDS = {
    "loo": StatisticKind(_loo, "n01", "expnorm", 2, True),
    "rw": StatisticKind(_rw, "n02", "expsqrt2", 1, True),
    "lin": StatisticKind(_lin, "n01", None, 2, True),
    "std": StatisticKind(_std, "n01", None, 1, True),
    "gm-prefix": StatisticKind(_gm_prefix, "point", None, 1, False),
    "gm-loo": StatisticKind(_gm_loo, "point", None, 2, False),
}

ASCLT_KINDS = tuple(tag for tag, kind in STATISTIC_KINDS.items() if kind.asclt)
