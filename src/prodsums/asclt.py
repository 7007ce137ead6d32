"""Logarithmic-average empirical distributions along one trajectory.

The almost-sure central limit theorem says that for a single path the
log-weighted occupation fractions

    A_N(x) = (1/W_N) * sum_{n=2..N} (1/n) * I(t_n <= x),
    W_N    = sum_{n=2..N} 1/n,

converge to the limit CDF at x, where t_n is the statistic evaluated on
the first n draws.  Two normalization conventions differ only by
O(1/log N): the classical statements divide by log N, while dividing by
W_N keeps A_N inside [0, 1] at every finite N.  :meth:`evaluate` uses
W_N; the log N variant is exposed alongside it for fidelity to the
classical form.

Accumulation starts at n = 2 because the leave-one-out statistic is
undefined on a single draw (its normalizer (n-1)*mu vanishes); the
single dropped term is irrelevant in the limit.

:func:`run_asclt_path` draws the path with one :func:`sample` call and
walks it in blocks of 4096 steps.  Per block,
:meth:`~prodsums.streaming.PowerSumState.extend` gives the running sums
after every step, each kind's t_n is whole-array arithmetic on them (the
leave-one-out kind through the power-sum series beyond ``exact_cutoff``),
and :meth:`LogAvgAccumulator.accumulate` adds the block's indicator mass
with one ``searchsorted`` and one ``bincount``.  Only the leave-one-out
steps n <= ``exact_cutoff``, and the rare steps where the series validity
gate fails, evaluate the exact O(n) statistic: each block passes its
exact steps, then its failed steps, to one
:func:`~prodsums.statistics.loo_log_prefixes` call, which evaluates them
in batches of zero-padded prefixes.  The cost is O(N) numpy work plus
O(exact_cutoff^2) for the exact prefix; the memory beyond the path is one
block's temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, moments, sample
from .limits import LimitLaw, limit_cdf, normal_quantile
from .statistics import ASCLT_KINDS, STATISTIC_KINDS, log_ratio, loo_log_prefixes
from .streaming import PowerSumState, loo_series_from_sums
from .summation import NeumaierSum, running_sums

__all__ = [
    "LogAvgAccumulator",
    "default_grid",
    "AscltReport",
    "run_asclt_path",
]

ASCLT_CSV_HEADER = "x,A_N,F_limit,gap"

# steps per block of whole-array work in run_asclt_path: large enough to
# amortize the per-block Python, small enough that the block's temporaries
# stay a small fraction of the path itself
_BLOCK = 4096


def default_grid() -> np.ndarray:
    """Standard 19-point grid: normal quantiles at p = 0.05, ..., 0.95."""
    return np.array([normal_quantile(0.05 * j) for j in range(1, 20)])


class LogAvgAccumulator:
    """Per-grid-point accumulation of 1/n-weighted indicator mass.

    Weights are Kahan-compensated and the total is a Neumaier sum, so the
    normalization identity (total = H_N - 1) holds to 1e-9 even for very
    long runs.  Accumulation is strictly sequential in n.
    """

    def __init__(self, grid):
        g = np.asarray(grid, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("grid must be a nonempty 1-D sequence")
        if not np.all(np.diff(g) > 0.0):
            raise ValueError("grid must be strictly increasing")
        g = g.copy()
        g.setflags(write=False)
        self.grid = g
        self._w = np.zeros(g.size)
        self._wc = np.zeros(g.size)  # Kahan compensations (excess added)
        self._total = NeumaierSum()
        self.last_n = 1  # first accepted n is 2

    @property
    def total_weight(self) -> float:
        return self._total.value

    @property
    def weights(self) -> np.ndarray:
        return self._w - self._wc

    def accumulate(self, n: int, t) -> "LogAvgAccumulator":
        """Add the indicator rows of t, the statistic at steps n, n+1, ...

        ``t`` is one value or a 1-D block of consecutive steps, all
        finite; n must equal last_n + 1.
        """
        if n != self.last_n + 1:
            raise ValueError(
                f"accumulation must be strictly sequential: expected "
                f"n = {self.last_n + 1}, got {n}"
            )
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.ndim != 1:
            raise ValueError("t must be one value or a 1-D block")
        bad = np.flatnonzero(~np.isfinite(t))
        if bad.size:
            raise ValueError(f"statistic is {t[bad[0]]} at n = {n + int(bad[0])}; it must be finite")
        w = 1.0 / np.arange(n, n + t.size)
        # I(t_n <= grid[j]) holds for every j from the first grid point >= t_n
        first = np.searchsorted(self.grid, t, side="left")
        mass = np.bincount(first, weights=w, minlength=self.grid.size + 1)
        y = mass[: self.grid.size].cumsum() - self._wc
        total = self._w + y
        self._wc = (total - self._w) - y
        self._w = total
        self._total.add(float(w.sum()))
        self.last_n = n + t.size - 1
        return self

    def evaluate(self) -> np.ndarray:
        """A_N over the grid, normalized by the accumulated 1/n mass."""
        if self.last_n < 2:
            raise ValueError("nothing accumulated yet")
        return np.clip(self.weights / self.total_weight, 0.0, 1.0)

    def evaluate_log_normalized(self) -> np.ndarray:
        """A_N normalized by log N, matching the classical statements."""
        if self.last_n < 2:
            raise ValueError("nothing accumulated yet")
        return self.weights / math.log(self.last_n)


@dataclass
class AscltReport:
    """Result of a single-trajectory run against its comparison law."""

    spec: DistributionSpec
    kind: str
    n_max: int
    base_seed: int
    exact_cutoff: int
    law: LimitLaw
    grid: np.ndarray
    a_values: np.ndarray
    limit_values: np.ndarray
    sup_gap: float
    a_values_logn: np.ndarray | None = field(repr=False, default=None)
    sup_gap_logn: float = math.nan
    mode_switch_n: int | None = None
    fallback_count: int = 0

    def rows(self):
        for x, a, f in zip(self.grid, self.a_values, self.limit_values):
            yield float(x), float(a), float(f), float(a - f)

    def to_csv(self, fileobj) -> None:
        fileobj.write(ASCLT_CSV_HEADER + "\n")
        for x, a, f, gap in self.rows():
            fileobj.write(f"{x!r},{a!r},{f!r},{gap!r}\n")


def run_asclt_path(
    spec: DistributionSpec,
    kind: str,
    n_max: int,
    base_seed: int,
    grid=None,
    exact_cutoff: int = 2000,
    stream_index: int = 0,
) -> AscltReport:
    """Stream one path of length n_max and log-average its statistic.

    For each n = 2..n_max the statistic t_n of the first n draws is
    accumulated against the grid, then compared to the law the ASCLT
    predicts for that statistic (on the log scale for the product
    kinds).  Returns the report with both normalizations and the sup
    gap against the limit CDF.
    """
    if kind not in ASCLT_KINDS:
        raise ValueError(
            f"unknown ASCLT statistic {kind!r}; expected one of {', '.join(ASCLT_KINDS)}"
        )
    n_max = int(n_max)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    exact_cutoff = int(exact_cutoff)
    if exact_cutoff < 2:
        raise ValueError("exact_cutoff must be >= 2")

    mu, sigma, gam = moments(spec)
    v = sample(spec, n_max, base_seed, stream_index).values
    acc = LogAvgAccumulator(default_grid() if grid is None else grid)
    # the product statistics are accumulated as their logs, so they are
    # compared with the log-scale law
    law = LimitLaw(STATISTIC_KINDS[kind].log_law)

    state = PowerSumState(mu)
    log_sum = NeumaierSum()  # rw: sum of log(S_k/(k mu)) over the blocks so far
    mode_switch = None
    fallbacks = 0
    for start in range(0, n_max, _BLOCK):
        s, p1, p2, p3, max_abs_d = state.extend(v[start : start + _BLOCK])
        n = np.arange(start + 1, start + s.size + 1)
        if kind == "rw":
            t = running_sums(log_ratio(s, n * mu)[0], log_sum) / (gam * np.sqrt(n))
        elif kind == "std":
            t = p1 / (sigma * np.sqrt(n))
        elif kind == "lin":
            # reduced form of the leave-one-out linearization
            t = (s - n * mu) / (sigma * np.sqrt(n))
        else:  # loo: the series beyond exact_cutoff, exact where its gate fails
            t = np.empty(s.size)
            c = int(np.searchsorted(n, exact_cutoff, side="right"))
            series, valid = loo_series_from_sums(
                n[c:], mu, p1[c:], p2[c:], p3[c:], max_abs_d[c:], gam
            )
            t[c:] = series
            failed = np.flatnonzero(~valid)
            fallbacks += failed.size
            if mode_switch is None and failed.size < valid.size:
                mode_switch = int(n[c + np.argmax(valid)])
            lo = int(start == 0)  # n = 1 is never accumulated
            t[lo:c] = loo_log_prefixes(v, n[lo:c], mu, gam)
            t[c + failed] = loo_log_prefixes(v, n[c + failed], mu, gam)
        if start == 0:  # accumulation starts at n = 2
            n, t = n[1:], t[1:]
        acc.accumulate(int(n[0]), t)

    a = acc.evaluate()
    f = np.array([limit_cdf(law, x) for x in acc.grid])
    a_logn = acc.evaluate_log_normalized()
    return AscltReport(
        spec=spec,
        kind=kind,
        n_max=n_max,
        base_seed=int(base_seed),
        exact_cutoff=exact_cutoff,
        law=law,
        grid=acc.grid,
        a_values=a,
        limit_values=f,
        sup_gap=float(np.max(np.abs(a - f))),
        a_values_logn=a_logn,
        sup_gap_logn=float(np.max(np.abs(a_logn - f))),
        mode_switch_n=mode_switch,
        fallback_count=fallbacks,
    )
