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
walks it in blocks of 4096 steps.  Per block, a kind forms the running
sums it reads after every step: S_n (``rw``, ``lin``), S_n - n*mu
(``std``) or the power sums of d = (X - mu)/mu and the largest |d|
(``loo``, :func:`_power_sums`).  Each kind's t_n is whole-array
arithmetic on them, and :meth:`LogAvgAccumulator.accumulate` adds the
block's indicator mass with one ``searchsorted`` and one ``bincount``.
Scaling every draw by one constant changes neither t_n nor d, so
the cost does not depend on the unit of the draws.  The leave-one-out
kind takes the third-order series of these sums beyond
``exact_cutoff``, and up to it the order-16 series of
:func:`_certified_series` where that certifies the exact value's grid
bin.  Its other steps, and the rare steps where the third-order gate
fails, take the exact O(n) statistic through one
:func:`~prodsums.statistics.loo_log_prefixes` call per block.  The cost
is O(N) numpy work plus O(n) per exact step (41 of the first 2000 steps
of exponential:1 at seed 0); the memory beyond the path is one block's
temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, moments, sample
from .limits import LimitLaw, limit_cdf
from .statistics import ASCLT_KINDS, STATISTIC_KINDS, log_ratio, loo_log_prefixes
from .streaming import loo_series, loo_series_from_sums, series_error_bound
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

_ORDER, _TOL, _SLACK = 16, 1e-14, 64 * 2.0**-52  # 2**-52 is eps; see _certified_series


def _power_sums(d, carries):
    """The running sums of d, d^2, ..., d^J, J = len(carries), each
    continuing its carry.  Powers past the double range give sums that
    are not finite, which neither series accepts."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums, power = [running_sums(d, carries[0])], d
        for carry in carries[1:]:
            power = power * d
            sums.append(running_sums(power, carry))
    return sums


def _certified_series(n, sums, max_abs_d, gam, grid):
    """The series of t_n at steps n, over the power sums of d = (X - mu)/mu
    and the largest |d|, and where it does not certify the grid bin of the
    exact kernel's value.

    Certified means finite, a truncation bound of at most _TOL, and no
    grid point within that bound plus _SLACK*sqrt(n)/gamma.  Both values
    err by a few roundings in each of the n log terms, so by
    O(eps*sqrt(n)/gamma), and the slack is 64 such units.
    """
    value, u = loo_series(n, 1.0, sums, max_abs_d, gam)
    bound = series_error_bound(n, u, gam, len(sums))
    reach = bound + _SLACK * np.sqrt(n) / gam
    clear = np.searchsorted(grid, value - reach) == np.searchsorted(grid, value + reach, "right")
    return value, ~(np.isfinite(value) & (bound <= _TOL) & clear)


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
    acc = LogAvgAccumulator(default_grid() if grid is None else grid)
    v = sample(spec, n_max, base_seed, stream_index).values
    # the product statistics are accumulated as their logs, so they are
    # compared with the log-scale law
    law = LimitLaw(STATISTIC_KINDS[kind].log_law)

    carries = [NeumaierSum() for _ in range(_ORDER)]  # loo: sums of d^j, j <= 3 past the cutoff
    max_abs_d = np.zeros(1)  # loo: the largest |d| so far is the last entry
    total = NeumaierSum()  # rw, lin: S_n; std: p1 = S_n - n mu
    log_sum = NeumaierSum()  # rw: sum of log(S_k/(k mu)) over the blocks so far
    mode_switch = None
    fallbacks = exact_steps = 0
    for start in range(0, n_max, _BLOCK):
        block = v[start : start + _BLOCK]
        n = np.arange(start + 1, start + block.size + 1)
        if kind == "rw":
            logs = log_ratio(running_sums(block, total), n * mu)[0]
            t = running_sums(logs, log_sum) / (gam * np.sqrt(n))
        elif kind == "std":
            t = running_sums(block - mu, total) / (sigma * np.sqrt(n))
        elif kind == "lin":
            # reduced form of the leave-one-out linearization
            t = (running_sums(block, total) - n * mu) / (sigma * np.sqrt(n))
        else:  # loo: series, exact where uncertified (n <= exact_cutoff) or gated
            d = (block - mu) / mu
            sums = _power_sums(d, carries)
            max_abs_d = np.maximum(np.maximum.accumulate(np.abs(d)), max_abs_d[-1])
            c = int(np.searchsorted(n, exact_cutoff, side="right"))
            t, valid = loo_series_from_sums(n, 1.0, *sums[:3], max_abs_d, gam)
            exact, valid = ~valid, valid[c:]
            if c:
                t[:c], exact[:c] = _certified_series(
                    n[:c], [p[:c] for p in sums], max_abs_d[:c], gam, acc.grid
                )
            if n[-1] >= exact_cutoff:
                del carries[3:]
            fallbacks += valid.size - int(np.count_nonzero(valid))
            if mode_switch is None and valid.any():
                mode_switch = int(n[c + np.argmax(valid)])
            exact[0] &= start > 0  # n = 1 is never accumulated
            todo = np.flatnonzero(exact)
            t[todo] = loo_log_prefixes(v, n[todo], mu, gam)
            exact_steps += todo.size
        if start == 0:  # accumulation starts at n = 2
            n, t = n[1:], t[1:]
        acc.accumulate(int(n[0]), t)

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
