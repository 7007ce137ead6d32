"""O(1)-per-draw surrogate for the leave-one-out log statistic.

Evaluating :func:`~prodsums.statistics.loo_log_statistic` from scratch
costs O(n), which makes a single-trajectory almost-sure run over
n = 2..N cost O(N^2).  This module maintains centered power sums

    p_j = sum_k (X_k - mu)^j   for j = 1, 2, 3

alongside the running total S and the largest centered draw seen, which
is enough to reconstruct a third-order-accurate value of the statistic
in a constant number of operations per query.

Writing D = p1 = S - n*mu and m = (n-1)*mu, each leave-one-out ratio
factors exactly as

    S_{n,k}/m = (1 + D/m) * (1 - d_k/(m + D)),     d_k = X_k - mu,

so the log sum splits into an anchor ``n*log1p(D/m)`` that is computed
exactly and a correction ``sum_k log(1 - v_k)`` with v_k = d_k/(m+D).
The correction is expanded to order J (3 in a state), and its power sums
collapse to p_1..p_J.  Because the v_k are O(1/n) rather than the
O(1/sqrt(n)) of the unfactored ratios, the third-order error decays
like n^(-7/2) and is far below 1e-6 for n >= 1e3; the plain third-order
expansion of log(S_{n,k}/m) would be noisier than the statistic's own
convergence.

The series of any order and its bound are written once, in
:func:`loo_series` and :func:`series_error_bound`, for floats or arrays;
its gated third-order call is :func:`loo_series_from_sums`.
:func:`~prodsums.asclt.run_asclt_path` calls them on its own sums of
(X - mu)/mu.  A :class:`PowerSumState` is the scalar reference: it
absorbs one draw at a time (:meth:`PowerSumState.update`) or a whole
path (:func:`state_from_path`), and :func:`loo_log_series` applies the
gated series to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import mul

import numpy as np

from .summation import _ROW, NeumaierSum, running_sums

__all__ = [
    "PowerSumState",
    "init_state",
    "loo_log_series",
    "loo_series",
    "loo_series_from_sums",
    "series_error_bound",
    "loo_series_error_bound",
    "state_from_path",
]


# draws per chunk of :func:`state_from_path`: a multiple of the rows of
# running_sums, so the carries see the row totals of one whole-path call
_CHUNK = 64 * _ROW


@dataclass
class PowerSumState:
    """Streaming state: count, running sum, centered power sums, max |d|.

    All four accumulators are compensated, so p1 = S - n*mu holds to
    O(eps) after millions of updates.
    """

    mu: float
    n: int = 0
    _s: NeumaierSum = field(default_factory=NeumaierSum)
    _p1: NeumaierSum = field(default_factory=NeumaierSum)
    _p2: NeumaierSum = field(default_factory=NeumaierSum)
    _p3: NeumaierSum = field(default_factory=NeumaierSum)
    max_abs_d: float = 0.0

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")

    @property
    def total(self) -> float:
        return self._s.value

    @property
    def p1(self) -> float:
        return self._p1.value

    @property
    def p2(self) -> float:
        return self._p2.value

    @property
    def p3(self) -> float:
        return self._p3.value

    def update(self, x: float) -> "PowerSumState":
        """Absorb one draw; constant work per call."""
        if x <= 0:
            raise ValueError(f"draws must be positive, got {x}")
        d = x - self.mu
        self.n += 1
        self._s.add(x)
        self._p1.add(d)
        self._p2.add(d * d)
        self._p3.add(d * d * d)
        if abs(d) > self.max_abs_d:
            self.max_abs_d = abs(d)
        return self


def init_state(mu: float) -> PowerSumState:
    """Fresh zero state for a distribution with mean mu > 0."""
    return PowerSumState(mu)


def loo_series(n, mu, sums, max_abs_d, gamma):
    """The series of order J = len(sums) and its gate quantity u.

    ``sums`` holds p_1..p_J; every argument but ``mu`` and ``gamma`` may
    be a float or an array (``n`` >= 2).  Returns ``(value, u)``: value
    ``(n*log1p(D/m) - sum_j p_j/(j*a^j)) / (gamma*sqrt(n))``, NaN where not
    finite, and ``u = (|D| + max|d|)/m``, which bounds every |d_k/a| while
    u < 1, so the value is within :func:`series_error_bound` of the exact.
    """
    m = (np.asarray(n) - 1) * mu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = m + sums[0]  # = S - mu
        # j*a^j is the product j*a*...*a rounded left to right
        terms = [p / reduce(mul, [a] * (j - 1), j * a) for j, p in enumerate(sums, 1)]
        value = (n * np.log1p(sums[0] / m) - sum(terms[1:], terms[0])) / (gamma * np.sqrt(n))
        u = (np.abs(sums[0]) + max_abs_d) / m
    return np.where(np.isfinite(value), value, np.nan), u


def series_error_bound(n, u, gamma, order: int = 3):
    """``n * u^(J+1) / ((J+1)*(1-u)) / (gamma*sqrt(n))``, inf where u >= 1:
    each log(1 - d_k/a) has a tail past order J of at most u^(J+1)/((J+1)*(1-u))."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = n * u ** (order + 1) / ((order + 1) * (1.0 - u)) / (gamma * np.sqrt(n))
    return np.where(u < 1.0, bound, np.inf)


def loo_series_from_sums(n, mu, p1, p2, p3, max_abs_d, gamma):
    """:func:`loo_series` at J = 3 as ``(value, valid)``: valid is the gate
    ``u <= 1/2`` of :func:`loo_log_series` on a finite value."""
    value, u = loo_series(n, mu, (p1, p2, p3), max_abs_d, gamma)
    return value, (u <= 0.5) & np.isfinite(value)


def loo_log_series(state: PowerSumState, gamma: float) -> tuple[float, bool]:
    """Third-order surrogate for the leave-one-out log statistic.

    Returns ``(value, valid)``.  ``valid`` is True iff the value is finite
    and ``(|D| + max|d|) / m <= 1/2``, the regime in which every
    leave-one-out ratio is within 1/2 of 1; outside it callers must fall
    back to the exact O(n) evaluation and the returned value is not
    meaningful (NaN where it is not finite).

    When valid, ``|value - loo_log_statistic|`` is bounded by
    :func:`loo_series_error_bound`.
    """
    n = state.n
    if n < 2:
        raise ValueError("loo_log_series needs a state with n >= 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    value, valid = loo_series_from_sums(
        n, state.mu, state.p1, state.p2, state.p3, state.max_abs_d, gamma
    )
    return float(value), bool(valid)


def loo_series_error_bound(state: PowerSumState, gamma: float) -> float:
    """Provable bound on |series - exact| while the series is valid:
    :func:`series_error_bound` at J = 3, inf when u >= 1."""
    n = state.n
    if n < 2:
        raise ValueError("loo_series_error_bound needs a state with n >= 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    u = (abs(state.p1) + state.max_abs_d) / ((n - 1) * state.mu)
    return float(series_error_bound(n, u, gamma))


def state_from_path(path, mu: float) -> PowerSumState:
    """Build the state of a whole path at once.

    Equivalent to streaming every draw through :meth:`PowerSumState.update`
    (the reconstruction tests pin the two against each other), but the
    sums are whole-array work (:func:`~prodsums.summation.running_sums`)
    over chunks of the path, so the memory it takes does not grow with
    the path.
    """
    v = np.asarray(getattr(path, "values", path), dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("path must be a nonempty 1-D sequence")
    state = PowerSumState(mu, n=v.size)
    tops = []
    for start in range(0, v.size, _CHUNK):
        x = v[start : start + _CHUNK]
        if not np.all(x > 0.0):
            raise ValueError("draws must be positive")
        d = x - mu
        tops.append(np.max(np.abs(d)))
        # d**3 overflows past |d| = 1e102; the series gate rejects such sums
        with np.errstate(over="ignore", invalid="ignore"):
            for terms, acc in ((x, state._s), (d, state._p1), (d * d, state._p2), (d * d * d, state._p3)):
                running_sums(terms, acc)
    state.max_abs_d = float(np.max(tops))
    return state
