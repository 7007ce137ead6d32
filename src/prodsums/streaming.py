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
The correction is expanded to third order, and its power sums collapse
to p1, p2, p3.  Because the v_k are O(1/n) rather than the O(1/sqrt(n))
of the unfactored ratios, the truncation error decays like n^(-7/2) and
is far below 1e-6 for n >= 1e3; the plain third-order expansion of
log(S_{n,k}/m) would be noisier than the statistic's own convergence.

A state absorbs draws one at a time (:meth:`PowerSumState.update`) or a
block at a time (:meth:`PowerSumState.extend`, whole-array work that
returns the state after every draw of the block).  The series and its
validity gate are written once, in :func:`loo_series_from_sums`, which
takes the sums as floats or as arrays; :func:`loo_log_series` applies it
to one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .summation import NeumaierSum, running_sums

__all__ = [
    "PowerSumState",
    "init_state",
    "loo_log_series",
    "loo_series_from_sums",
    "loo_series_error_bound",
    "state_from_path",
]


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

    def extend(self, draws) -> tuple[np.ndarray, ...]:
        """Absorb a 1-D block of draws with whole-array work.

        Returns ``(total, p1, p2, p3, max_abs_d)``, one array each with an
        entry per draw: entry k is what that attribute reads after draws
        0..k, as if each draw had gone through :meth:`update`.  The sums
        continue the state's compensated totals (see
        :func:`~prodsums.summation.running_sums`), so they stay within a
        few ulps of the one-draw-at-a-time values over any number of
        blocks.
        """
        x = np.asarray(draws, dtype=float)
        if x.ndim != 1:
            raise ValueError("draws must be a 1-D block")
        if not np.all(x > 0.0):
            raise ValueError("draws must be positive")
        d = x - self.mu
        # d**3 overflows past |d| = 1e102; the series gate rejects such sums
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = d * d
            sums = [
                running_sums(terms, acc)
                for terms, acc in ((x, self._s), (d, self._p1), (d2, self._p2), (d2 * d, self._p3))
            ]
        max_abs_d = np.maximum(np.maximum.accumulate(np.abs(d)), self.max_abs_d)
        self.n += x.size
        if x.size:
            self.max_abs_d = float(max_abs_d[-1])
        return (*sums, max_abs_d)


def init_state(mu: float) -> PowerSumState:
    """Fresh zero state for a distribution with mean mu > 0."""
    return PowerSumState(mu)


def loo_series_from_sums(n, mu, p1, p2, p3, max_abs_d, gamma):
    """Third-order series value and validity gate from the running sums.

    Every argument but ``mu`` and ``gamma`` may be a float or an array
    (``n`` >= 2 each); arrays are evaluated elementwise and must share a
    shape.  Returns ``(value, valid)`` as numpy values: the series of
    :func:`loo_log_series` and its gate ``(|D| + max|d|) / m <= 1/2``.
    Where the value is not finite (the anchored form is undefined, or the
    power sums overflowed), value is NaN and valid False.
    """
    m = (np.asarray(n) - 1) * mu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = m + p1  # = S - mu
        anchor = n * np.log1p(p1 / m)
        corr = p1 / a + p2 / (2.0 * a * a) + p3 / (3.0 * a * a * a)
        value = (anchor - corr) / (gamma * np.sqrt(n))
        finite = np.isfinite(value)
        valid = ((np.abs(p1) + max_abs_d) / m <= 0.5) & finite
    return np.where(finite, value, np.nan), valid


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
    """Provable bound on |series - exact| while the series is valid.

    With u = (|D| + max|d|)/m, every leave-one-out log ratio equals a
    truncated series whose tail is at most u^4/(4*(1-u)) per term, hence

        bound = n * u^4 / (4 * (1 - u)) / (gamma * sqrt(n)).

    Returns inf when u >= 1.
    """
    n = state.n
    if n < 2:
        raise ValueError("loo_series_error_bound needs a state with n >= 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    m = (n - 1) * state.mu
    u = (abs(state.p1) + state.max_abs_d) / m
    if u >= 1.0:
        return math.inf
    return n * u**4 / (4.0 * (1.0 - u)) / (gamma * math.sqrt(n))


def state_from_path(path, mu: float) -> PowerSumState:
    """Build the state of a whole path at once.

    Equivalent to streaming every draw through :meth:`PowerSumState.update`
    (the reconstruction tests pin the two against each other) but one
    :meth:`PowerSumState.extend` call, so bulk replays cost one pass of
    array arithmetic instead of a Python-level loop.
    """
    v = np.asarray(getattr(path, "values", path), dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("path must be a nonempty 1-D sequence")
    state = PowerSumState(mu)
    state.extend(v)
    return state
