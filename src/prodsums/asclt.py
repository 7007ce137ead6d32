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

:func:`run_asclt_path` walks the path in blocks of 4096 steps, each
drawn as it comes by :func:`~prodsums.distributions.sample_chunks`, bit
for bit the draws of one :func:`~prodsums.distributions.sample` call.
Per block, a kind forms the running sums it reads after every step: S_n
(``rw``, ``lin``) or S_n - n*mu (``std``), and its t_n is whole-array
arithmetic on them; :meth:`LogAvgAccumulator.accumulate` adds the
block's indicator mass with one ``searchsorted`` and one ``bincount``.
The leave-one-out kind has one rule at every step: it takes the value of
the :class:`~prodsums.streaming.LooSeries` series where
:func:`_certified_series` certifies the exact value's grid bin, and the
exact statistic elsewhere, through one
:func:`~prodsums.statistics.loo_log_chunked` call per block, which reads
the same re-readable path again from its start, up to the block's last
such step; the certificate hands each step's grid bin on to the
accumulator.  So its CSV is the CSV of the exact statistic, and
``exact_cutoff`` only sets where the count of fallbacks (steps sent to
the exact kernel) starts.  The cost is O(N) numpy work plus O(n) per
exact step on every law, since a path that draws zeros finds its redraw
rounds once however often it is read; and exact steps are few (none of
the 2e5 steps of exponential:1 at seed 0, nor of the 2e4 steps of
lognormal:0:20 or gamma:0.001:1).  The memory is one block's draws and
temporaries, whatever N: the peak resident set of a process making one
run, interpreter and numpy included, stays about 38 MB from N = 2e4 to
1e8, where ``loo`` takes about 14 s on a 2-core machine.  N is at most
:data:`MAX_N`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, moments, sample_chunks
from .limits import LimitLaw, limit_cdf
from .statistics import ASCLT_KINDS, STATISTIC_KINDS, log_ratio, loo_log_chunked
from .streaming import TOL, LooSeries
from .summation import NeumaierSum, running_sums

__all__ = [
    "LogAvgAccumulator",
    "default_grid",
    "AscltReport",
    "MAX_N",
    "run_asclt_path",
]

ASCLT_CSV_HEADER = "x,A_N,F_limit,gap"

# steps per block of whole-array work in run_asclt_path, and draws per
# chunk of its path: large enough to amortize the per-block Python, small
# enough that a run's memory, one block's draws and temporaries, stays
# about 1 MB whatever N
_BLOCK = 4096

# the longest path run_asclt_path walks: about 17 minutes of loo at its
# ~100 ns per step; a longer one would run for hours or more
MAX_N = 10**10

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


# normal_quantile(0.05 * j) for j = 1..19, bit for bit (a test pins them)
_DEFAULT_GRID = (
    -1.6448536269514726, -1.2815515655446008, -1.0364333894937896, -0.8416212335729141,
    -0.6744897501960817, -0.5244005127080409, -0.3853204664075676, -0.25334710313579983,
    -0.12566134685507407, -6.938893903907228e-17, 0.12566134685507402, 0.2533471031357999,
    0.3853204664075677, 0.524400512708041, 0.6744897501960815, 0.8416212335729141,
    1.0364333894937898, 1.2815515655446004, 1.644853626951473,
)


def default_grid() -> np.ndarray:
    """Standard 19-point grid: normal quantiles at p = 0.05, ..., 0.95."""
    return np.array(_DEFAULT_GRID)


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
        if np.isnan(g).any() or not np.all(np.diff(g) > 0.0):
            raise ValueError("grid must be strictly increasing, with no NaN")
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

    def accumulate(self, n: int, t, first=None) -> "LogAvgAccumulator":
        """Add the indicator rows of t, the statistic at steps n, n+1, ...

        ``t`` is one value or a 1-D block of consecutive steps, all
        finite; n must equal last_n + 1.  A caller that already has each
        t's index of the first grid point at or above it passes them as
        ``first``.
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
        if first is None:
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
    exact_steps: int = 0  # steps evaluated by the exact kernel

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
    gap against the limit CDF.  The path is the one of
    ``sample(spec, n_max, base_seed, stream_index)``, drawn block by
    block; n_max is from 2 to :data:`MAX_N`.
    """
    if kind not in ASCLT_KINDS:
        raise ValueError(
            f"unknown ASCLT statistic {kind!r}; expected one of {', '.join(ASCLT_KINDS)}"
        )
    n_max = int(n_max)
    if not 2 <= n_max <= MAX_N:
        raise ValueError(f"n_max must be from 2 to {MAX_N}, got {n_max}")
    exact_cutoff = int(exact_cutoff)
    if exact_cutoff < 2:
        raise ValueError("exact_cutoff must be >= 2")

    mu, sigma, gam = moments(spec)
    acc = LogAvgAccumulator(default_grid() if grid is None else grid)
    # the product statistics are accumulated as their logs, so they are
    # compared with the log-scale law
    law = LimitLaw(STATISTIC_KINDS[kind].log_law)

    path = sample_chunks(spec, n_max, base_seed, stream_index, _BLOCK)
    series = LooSeries(mu, gam) if kind == "loo" else None
    total = NeumaierSum()  # rw, lin: S_n; std: p1 = S_n - n mu
    log_sum = NeumaierSum()  # rw: sum of log(S_k/(k mu)) over the blocks so far
    mode_switch = None
    fallbacks = exact_steps = 0
    for start, block in zip(range(0, n_max, _BLOCK), path):
        n = np.arange(start + 1, start + block.size + 1)
        if kind == "rw":
            logs = log_ratio(running_sums(block, total), n * mu)[0]
            t = running_sums(logs, log_sum) / (gam * np.sqrt(n))
        elif kind == "std":
            t = running_sums(block - mu, total) / (sigma * np.sqrt(n))
        elif kind == "lin":
            # reduced form of the leave-one-out linearization
            t = (running_sums(block, total) - n * mu) / (sigma * np.sqrt(n))
        else:  # loo: the certified series, else the exact kernel
            t, first, exact = _certified_series(series, block, n, acc.grid)
            exact[0] &= start > 0  # n = 1 is never accumulated
            todo = np.flatnonzero(exact)
            if todo.size:  # their prefixes are read again from the start of the path
                t[todo] = loo_log_chunked(path, n[todo], mu, gam)
                first[todo] = np.searchsorted(acc.grid, t[todo])
                exact_steps += todo.size
                fallbacks += int(np.count_nonzero(n[todo] > exact_cutoff))
            if mode_switch is None and n[-1] > exact_cutoff:
                took = np.flatnonzero(~exact & (n > exact_cutoff))
                mode_switch = int(n[took[0]]) if took.size else None
        skip = 1 if start == 0 else 0  # accumulation starts at n = 2
        if kind == "loo":  # its certificate has found each step's grid bin
            acc.accumulate(int(n[skip]), t[skip:], first[skip:])
        else:
            acc.accumulate(int(n[skip]), t[skip:])

    a = acc.evaluate()
    f = limit_cdf(law, acc.grid)
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
        exact_steps=exact_steps,
    )
