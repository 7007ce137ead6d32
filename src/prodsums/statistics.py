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

Each kind's kernel, and its walk along one path if it has one, is in
:data:`STATISTIC_KINDS`.  A kernel evaluates a ``(rows, n)`` batch of paths
by reductions along each row, so a row's value has the same bits in any
batch; the public scalar functions are one-row calls of the kernels.  A
kernel writes its temporaries into new arrays, or with the same bits into
the ``work`` arrays of a caller that reuses them from batch to batch.
:func:`loo_log_chunked` evaluates the leave-one-out statistic of many
prefixes of one path, read in chunks, with the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import SamplePath
from .streaming import TOL, LooSeries
from .summation import NeumaierSum, exact_running_sums, row_sums, two_sum

__all__ = [
    "StatisticKind",
    "STATISTIC_KINDS",
    "log_ratio",
    "loo_log_statistic",
    "loo_log_chunked",
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


_SLACK = 64 * 2.0**-52  # 2**-52 is eps; see _certified_series
_LARGEST = 1e-13 / 2.0**-51  # about 225, the largest size certified: two roundings of it are 1e-13


def _certified_series(series, x, n, grid):
    """The series of t_n at the block's steps n, whose draws are x, the
    index of the first grid point at or above each value, and where the
    series does not certify the grid bin of the exact kernel's value.

    The exact kernel errs by a few roundings in each of its n log terms,
    so by O(eps*sqrt(n)/gamma), and the series by a few roundings of the
    terms it evaluates exactly, its anchor and top draws (its ``size``);
    each slack is 64 such units.  Certified means a truncation bound of
    at most :data:`~prodsums.streaming.TOL` (1e-14), no grid point within
    the bound plus both slacks (the exact kernel's taken at the block's
    last step), and exact terms whose last two roundings stay within
    1e-13.  The last rule sends the rare steps with |t_n| beyond about
    225 to the exact kernel too (the first steps of twopoint:1:1e300:0.5,
    near -490), so a certified value is the exact kernel's within about
    1e-13.
    """
    value, bound, size = series.block(x)
    reach = _SLACK * size
    reach += bound
    reach += _SLACK * math.sqrt(n[-1]) / series.gamma
    first = np.searchsorted(grid, value)
    # clear of the grid points on either side of each value, with -inf and
    # inf past the grid's ends
    clear = value - reach > np.append(-np.inf, grid)[first]
    clear &= value + reach < np.append(grid, np.inf)[first]
    return value, first, ~(clear & (bound <= TOL) & (size <= _LARGEST))


# A kind's walk(path, mu, sigma, gamma, grid), made per path, maps a block's
# draws x at steps n to (t_n, first, exact), the last two None but for loo:
# each value's grid index and the steps the exact kernel took.
def _loo_walk(path, mu, sigma, gam, grid):
    series = LooSeries(mu, gam)

    def block(x, n):  # the certified series, else the exact kernel
        t, first, exact = _certified_series(series, x, n, grid)
        exact[0] &= n[0] > 1  # n = 1 is never accumulated
        todo = np.flatnonzero(exact)
        if todo.size:  # first-block prefixes lie in x up to the last, later ones in the path
            t[todo] = loo_log_chunked([x[: todo[-1] + 1]] if n[0] == 1 else path, n[todo], mu, gam)
            first[todo] = np.searchsorted(grid, t[todo])
        return t, first, exact
    return block


def _rw_walk(path, mu, sigma, gam, grid):
    total = NeumaierSum()  # S_n
    log_sum = NeumaierSum()  # the sum of log(S_k/(k mu)) over the blocks so far

    def block(x, n):
        logs = log_ratio(exact_running_sums(x, total), n * mu)[0]
        # summed within a rounding: the logs may be large and of one sign
        return exact_running_sums(logs, log_sum) / (gam * np.sqrt(n)), None, None
    return block


def _std_walk(path, mu, sigma, gam, grid):
    total = NeumaierSum()  # the sum of X_k - mu

    def block(x, n):
        return exact_running_sums(x - mu, total) / (sigma * np.sqrt(n)), None, None
    return block


def _one(kernel, path, mu=None, sigma=None, gamma=None, output=0) -> float:
    """Output 0 (the value), 1 (remainder) or 2 (maxdev) of a one-row call."""
    return float(kernel(_row(path), mu, sigma, gamma)[output][0])


def loo_log_statistic(path, mu: float, gamma: float) -> float:
    """Normalized log product of leave-one-out sums.

    Returns ``T_n = (1/(gamma*sqrt(n))) * sum_k log(S_{n,k}/((n-1)*mu))``,
    so ``exp(T_n)`` is the normalized product itself without the raw
    product of n terms ever being formed.
    """
    return _one(_loo, path, mu, gamma=gamma)


def loo_log_chunked(chunks, ns, mu: float, gamma: float) -> np.ndarray:
    """:func:`loo_log_statistic` of the first n draws of a path, each n in ns.

    ``chunks`` yields the path's draws in consecutive 1-D chunks, the same
    on every pass: a list of arrays, or a path of
    :func:`~prodsums.distributions.sample_chunks`.  It is read twice, up
    to the last step, so an iterator raises ``ValueError``.  The first
    pass takes each S_n and the sum of the draws other than the largest
    within about one rounding (the sum of the others is what a largest
    draw above S_n/2 leaves, as in the exact kernel); a chunk in which no
    step ends and no draw passes the largest before it only adds its sum
    to both totals.  The
    second forms the exact kernel's log ratios chunk by chunk, a few steps
    at a time, sums each chunk's with :func:`~prodsums.summation.row_sums`
    and carries each step's chunk sums as an exact pair.  So a value errs
    by about one rounding per chunk of terms of the size of
    t_n*gamma*sqrt(n)/n, far within 1e-13 at n = 1e4; the cost is
    O(ns[-1]) and the memory a few steps times a chunk.
    """
    ns = np.asarray(ns)
    if ns.ndim != 1 or not ns.size or ns.dtype.kind not in "iu":
        raise ValueError("ns must be a nonempty 1-D sequence of integers")
    if ns[0] < 2 or np.any(np.diff(ns) < 0):
        raise ValueError("ns must be nondecreasing prefix lengths n >= 2")
    _check_positive(mu=mu, gamma=gamma)
    first = iter(chunks)
    if first is chunks:
        raise ValueError("chunks must be re-readable, such as a list, not an iterator")
    s, rest, top = np.empty((3, ns.size))
    total, others, largest = NeumaierSum(), NeumaierSum(), 0.0
    done = lo = 0
    for x in first:
        peak = float(x.max())
        if not (x.min() > 0.0 and peak < math.inf):
            raise ValueError("all path values must be finite and strictly positive")
        hi = int(np.searchsorted(ns, lo + x.size, side="right"))
        if hi == done and peak <= largest:
            # no step ends in the chunk, and every draw joins the others
            part = float(row_sums(x[np.newaxis], np.array([peak]))[0])
            total.add(part)
            others.add(part)
        else:
            # the largest draw before each draw: the smaller of the two
            # joins the others
            before = np.maximum.accumulate(np.append(largest, x[:-1]))
            k = ns[done:hi] - lo - 1
            s[done:hi] = exact_running_sums(x, total)[k]
            rest[done:hi] = exact_running_sums(np.minimum(x, before), others)[k]
            top[done:hi] = np.maximum(before, x)[k]
        largest = max(largest, peak)
        done, lo = hi, lo + x.size
        if done == ns.size:
            break
    if done < ns.size:
        raise ValueError(f"prefix length {ns[-1]} exceeds the path length {lo}")
    dominant = top > 0.5 * s
    m = (ns - 1.0) * mu
    value, carry = np.zeros((2, ns.size))
    lo = 0
    for x in chunks:
        at = np.arange(lo, lo + x.size)  # the steps before each draw
        rows = max(1, _BATCH_BYTES // 8 // x.size)  # steps per batch of log ratios
        for i in range(int(np.searchsorted(ns, lo, side="right")), ns.size, rows):
            j = slice(i, i + rows)
            loo = s[j, np.newaxis] - x
            big = np.flatnonzero(dominant[j])
            loo[big] = np.where(x == top[j][big, np.newaxis], rest[j][big, np.newaxis], loo[big])
            if ns[i] < lo + x.size:
                # past its step a row holds (n-1)*mu, whose log ratio is exactly 0
                np.copyto(loo, m[j, np.newaxis], where=at >= ns[j, np.newaxis])
            part = row_sums(log_ratio(loo, m[j, np.newaxis])[0])
            # value + part as an exact pair
            total_j = value[j] + part
            carry[j] += two_sum(value[j], part, total_j)
            value[j] = total_j
        lo += x.size
        if lo >= ns[-1]:
            break
    if lo < ns[-1]:
        raise ValueError(f"the second pass over chunks ended at draw {lo}, before step {ns[-1]}")
    value += carry
    return value / (gamma * np.sqrt(ns))


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
    ``walk`` is the kind's walk along one path (described above ``_loo_walk``) or None.
    """

    evaluate: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    log_law: str
    product_law: str | None
    min_n: int
    walk: Callable[..., Callable] | None = None


STATISTIC_KINDS = {
    "loo": StatisticKind(_loo, "n01", "expnorm", 2, _loo_walk),
    "rw": StatisticKind(_rw, "n02", "expsqrt2", 1, _rw_walk),
    # lin = sum_k (S_{n,k}/((n-1) mu) - 1)/(gamma sqrt(n)) = (S_n - n mu)/(sigma sqrt(n)) = std, exactly
    "lin": StatisticKind(_lin, "n01", None, 2, _std_walk),
    "std": StatisticKind(_std, "n01", None, 1, _std_walk),
    "gm-prefix": StatisticKind(_gm_prefix, "point", None, 1),
    "gm-loo": StatisticKind(_gm_loo, "point", None, 2),
}
