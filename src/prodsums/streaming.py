"""The leave-one-out log statistic of every prefix of one path, O(1) per step.

Evaluating :func:`~prodsums.statistics.loo_log_statistic` afresh costs
O(n), so a single-trajectory run over n = 2..N costs O(N^2) that way.
:class:`LooSeries` takes the path in blocks instead, each block's draws as
they come, so it holds no more of the path than the block it is given.
It anchors every leave-one-out ratio at the prefix sum S_n, with
r_k = X_k/S_n:

    log(S_{n,k}/((n-1)*mu)) = log(S_n/((n-1)*mu)) + log(1 - r_k).

The anchor and the terms of the k <= 8 largest draws (the top set), whose
ratios may be near 1, are exact.  The other draws (the bulk) have ratios
of at most r* < 1 that add up to at most 1, and their terms are the
series -sum_j R_j/j over R_j = sum_{bulk} r_k^j; cut at order J it errs
by at most n_B * r*^(J+1) / ((J+1)*(1 - r*)) in all, n_B the bulk's size.
Once the 8 largest draws are known, each step moves exactly one draw into
the bulk, the smaller of the new draw and the smallest top draw, so S_n
and the bulk's power sums of orders 2 to 16 are running sums of positive
terms.  They are kept as sums of (X/S_ref)^j for one S_ref at a time,
rescaled by (S_ref/S_n)^j <= 2^960, so no power leaves the double range
on any law, and every order is kept whatever order a block uses.  Each
block takes one k and one J from the ratios at its start and end (see
:meth:`LooSeries._plan`).

:class:`PowerSumState`, :func:`init_state` and :func:`loo_log_series`
are the older third-order series in the centred draws (X - mu)/mu, gated
by (|S_n - n*mu| + max|X - mu|)/((n-1)*mu) <= 1/2, which fails on heavy
laws.  Only the benchmark's replay runs them; the package does not export them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .summation import NeumaierSum, exact_running_sums

__all__ = ["TOL", "LooSeries"]

TOL = 1e-14  # the truncation bound a block's order aims at, per step
_TOP = 8  # the largest draws kept apart from the bulk
_ORDER = 16  # the highest order of the series
_SPAN = 2.0**60  # the largest S_ref/S_n; its 16th power is a finite double
_J = np.arange(2, _ORDER + 1)  # the orders of the bulk's power sums
_HALF = _ORDER // 2


class LooSeries:
    """The leave-one-out log statistic of the prefixes of one path.

    :meth:`block` takes the next draws of the path and returns, at each
    of their steps, the series value (NaN at n = 1), its truncation
    bound and the size of the terms it evaluates exactly.  Its state is
    the top set, S_n and the bulk's power sums, whatever the path's length.
    """

    def __init__(self, mu: float, gamma: float):
        if not (mu > 0 and gamma > 0):
            raise ValueError("mu and gamma must be positive")
        self.mu, self.gamma = float(mu), float(gamma)
        self.n = 0
        self._top = []  # the largest draws, largest first
        self._bulk = NeumaierSum()  # the sum of the other draws
        self._ref, self._sums = 0.0, np.zeros(_J.size)  # the bulk's sums of (X/_ref)^j

    def block(self, x):
        """``(value, bound, size)`` at the steps n = self.n + 1, ...,
        self.n + len(x), whose draws are x.

        ``size`` is the magnitude of the anchor n*log(S_n/((n-1)*mu)) and
        of the exact top terms over gamma*sqrt(n), the scale of the
        series' own rounding errors.
        """
        x = np.asarray(x, dtype=float)
        # a NaN fails both comparisons
        if x.ndim != 1 or not x.size or not (x.min() > 0.0 and x.max() < math.inf):
            raise ValueError("x must be a nonempty 1-D sequence of finite positive draws")
        start = self.n
        stop = start + x.size
        n = np.arange(start + 1, stop + 1, dtype=float)
        enter, starts, tops = self._enter(x, start)
        one = starts.size == 1
        runs = np.zeros(x.size, dtype=np.intp) if one else np.repeat(
            np.arange(starts.size), np.diff(starts, append=x.size))
        bulk = exact_running_sums(enter, self._bulk)
        s = bulk + (tops[0].sum() if one else tops.sum(axis=1)[runs])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            k, order, bound = self._plan(n, s, tops, runs)
            series = self._series(s, enter, runs, starts, tops[:, k:], order)
            self.n = stop
            value = np.log(s / ((n - 1) * self.mu))
            value *= n
            size = np.abs(value)
            if k:
                r = tops[runs, :k] / s[:, np.newaxis]
                series += 1.0 - r.sum(axis=1)  # R_1 of the draws in the series
                logs = np.log1p(-r)
                # 1 - r cancels for a draw above S_n/2: the rest of S_n is a
                # sum of positive terms
                big = np.flatnonzero(r[:, 0] > 0.5)
                logs[big, 0] = np.log((bulk[big] + tops[runs[big], 1:].sum(axis=1)) / s[big])
                exact = logs.sum(axis=1)
                value += exact
                size -= exact
            else:
                series += 1.0
            value -= series
            norm = np.divide(1.0 / self.gamma, np.sqrt(n))
        if start == 0:
            value[0] = np.nan  # (n - 1)*mu vanishes
        return value * norm, bound * norm, size * norm

    def _enter(self, x, start):
        """The draw each step moves into the bulk (0 while the top set
        fills), and the runs of steps with one top set: their first
        positions and their top draws, largest first and padded with 0."""
        top, enter = self._top, x
        starts, values = [0], [top[:]]
        theta = top[-1] if len(top) == _TOP else 0.0
        pos = 0
        while pos < x.size:
            # theta is fixed per chunk; a chunk as long as the path so far
            # has about _TOP draws above it
            end = min(x.size, pos + max(start + pos, _TOP))
            for i in np.flatnonzero(x[pos:end] > theta).tolist():
                i += pos
                if x[i] > theta:
                    enter = x.copy() if enter is x else enter
                    enter[i] = theta
                    bisect.insort(top, float(x[i]), key=lambda v: -v)
                    del top[_TOP:]
                    theta = top[-1] if len(top) == _TOP else 0.0
                    if starts[-1] != i:
                        starts.append(i)
                    values[len(starts) - 1 :] = [top[:]]
            pos = end
        tops = np.array([v + [0.0] * (_TOP - len(v)) for v in values])
        return enter, np.array(starts), tops

    def _plan(self, n, s, tops, runs):
        """The number k of exact top draws, the order J and the bound at
        each step (or one for the whole block), times gamma*sqrt(n).

        Across a block S_n and each rank of the top set only grow, and no
        bulk draw exceeds the smallest top draw, so r* is at most the
        (k+1)-th largest draw at the block's end over S_n at its start,
        and n_B at most its last n - k.  The block takes the fewest exact
        draws for which some J <= 16 meets TOL at all its steps, and the
        least such J.  Where none does (as in the first block), it keeps
        all 8 exact at J = 16 and bounds each step by its own ratio.
        """
        last = [*tops[-1].tolist(), float(tops[-1, -1])]  # the (k+1)-th largest, k = 0..8
        room = math.log(TOL * self.gamma * math.sqrt(n[0]))
        for k in range(_TOP + 1):
            r, nb = last[k] / float(s[0]), max(float(n[-1]) - k, 0.0)
            if r == 0.0 or nb == 0.0:
                return k, 1, 0.0
            if r < 1.0:
                j = max(math.ceil((room - math.log(nb / (1.0 - r))) / math.log(r)) - 1, 1)
                if j <= _ORDER:
                    return k, j, nb * r ** (j + 1) / ((j + 1) * (1.0 - r))
        r = tops[runs, -1] / s
        bound = np.maximum(n - _TOP, 0.0) * r ** (_ORDER + 1) / ((_ORDER + 1) * (1.0 - r))
        return _TOP, _ORDER, np.where(r < 1.0, bound, np.inf)

    def _series(self, s, enter, runs, starts, rest, order):
        """sum_{j=2..order} R_j/j per step over the bulk, whose draws come
        in ``enter``, and the top draws ``rest`` of the runs (``runs`` per
        step, beginning at ``starts``); the bulk's power sums of every
        order move to the block's end."""
        series = np.zeros(s.size)
        lo = 0
        while lo < s.size:
            hi = s.size
            if s[-1] > s[lo] * _SPAN:
                hi = max(lo + 1, int(np.searchsorted(s, s[lo] * _SPAN, side="right")))
            ref = float(s[hi - 1])
            sums = self._sums * (self._ref / ref) ** _J
            self._ref = ref
            # p^1, p^2, ... of the entering draws' ratios p to ref; the
            # block total of p^j is the dot product of two of the first 8
            powers = np.empty((max(order, _HALF), hi - lo))
            np.multiply(enter[lo:hi], 1.0 / ref, out=powers[0])
            for i in range(1, len(powers)):
                np.multiply(powers[i - 1], powers[0], out=powers[i])
            self._sums = sums + np.concatenate((np.vecdot(powers[:_HALF], powers[0]),
                                                np.vecdot(powers[1:_HALF], powers[_HALF - 1])))
            # R_j per step: the carried sums and each run's top draws enter
            # as one more term at the run's first step
            first, final = runs[lo], runs[hi - 1]
            extra = np.power((rest[first : final + 1] / ref)[..., np.newaxis], _J[: order - 1])
            extra = extra.sum(axis=1)
            extra[1:] -= extra[:-1]
            extra[0] += sums[: order - 1]
            terms = powers[1:order]
            for at, step in zip(starts[first : final + 1].tolist(), extra):
                terms[:, max(at - lo, 0)] += step
            for term, j in zip(terms, _J):
                term *= 1.0 / j
            np.cumsum(terms, axis=1, out=terms)
            total = series[lo:hi]  # Horner's rule in rho = ref/S_n
            rho = np.divide(ref, s[lo:hi])
            for term in terms[::-1]:
                total += term
                total *= rho
            total *= rho
            lo = hi
        return series


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


init_state = PowerSumState  # init_state(mu): a fresh zero state for the mean mu > 0

def loo_log_series(state: PowerSumState, gamma: float) -> tuple[float, bool]:
    """Third-order surrogate for the leave-one-out log statistic.

    With D = p1, m = (n-1)*mu and a = m + D, S_{n,k}/m = (1 + D/m)*(1 - d_k/a)
    and the value is (n*log1p(D/m) - p1/a - p2/(2a^2) - p3/(3a^3)) / (gamma*sqrt(n)).
    Returns ``(value, valid)``: valid iff the value is finite and
    u = (|D| + max|d|)/m <= 1/2, where it errs by at most
    n*u^4/(4*(1-u)) / (gamma*sqrt(n)).  The value is NaN where not finite.
    """
    n = state.n
    if n < 2:
        raise ValueError("loo_log_series needs a state with n >= 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    m, p1 = np.float64((n - 1) * state.mu), state.p1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = m + p1
        terms = p1 / a + state.p2 / (2 * a * a) + state.p3 / (3 * a * a * a)
        value = (n * np.log1p(p1 / m) - terms) / (gamma * np.sqrt(n))
        u = (abs(p1) + state.max_abs_d) / m
    finite = bool(np.isfinite(value))
    return (float(value) if finite else float("nan")), finite and bool(u <= 0.5)
