"""Logarithmic averages and geometric means along one trajectory.

The almost-sure central limit theorem says that for a single path the
log-weighted occupation fractions

    A_N(x) = (1/W_N) * sum_{n=2..N} (1/n) * I(t_n <= x),
    W_N    = sum_{n=2..N} 1/n,

converge to the limit CDF at x, where t_n is the statistic of the first
n draws.  Dividing by log N instead, as the classical statements do,
differs by O(1/log N); W_N keeps A_N inside [0, 1].  Accumulation starts
at n = 2, since the leave-one-out statistic is undefined on one draw.
The strong law says that the geometric means of S_k/k and of
S_{n,k}/(n-1) converge to mu along the path.

:func:`_walk` is the one evaluator of a path.  It reads the path in
blocks of 4096 steps, drawn as they come by
:func:`~prodsums.distributions.sample_chunks` (bit for bit one
:func:`~prodsums.distributions.sample` call), and yields each block's
steps n and t_n from the kind's walk, which the one table of kinds,
:data:`~prodsums.statistics.STATISTIC_KINDS`, holds next to its batch
kernel (:data:`ASCLT_KINDS` are the kinds with a walk).  A walk keeps
the running sums it reads, S_n (``rw``) or the sum of the X_k - mu
(``std``, and ``lin``, its exact equal), each from
:func:`~prodsums.summation.exact_running_sums`, and its t_n is
whole-array arithmetic on them.  ``loo`` takes the value of the
:class:`~prodsums.streaming.LooSeries` series where its certificate
holds for the exact value's grid bin, and the exact statistic elsewhere,
through one :func:`~prodsums.statistics.loo_log_chunked` call per block,
which reads the first block's steps from the block in hand, up to the
last of them, and a later block's from the start of the same re-readable
path; so its CSV is the exact statistic's.  The cost is O(N) numpy work
plus O(n) per exact step on every law, and exact steps are few (none of
the 2e5 steps of exponential:1 at seed 0, nor of the 2e4 steps of
lognormal:0:20 or gamma:0.001:1).

:func:`run_asclt_path` accumulates the walk's blocks; ``exact_cutoff``
only sets where its count of fallbacks (steps sent to the exact kernel)
starts.  :func:`run_slln_experiment` reads the ``rw`` blocks at its
checkpoints, and the leave-one-out values there from one
``loo_log_chunked`` call on the same path.  Either holds a few blocks
whatever N, at most :data:`MAX_N`: a process making one run peaks at
about 38 MB of resident memory (asclt from N = 2e4 to 1e8, where ``loo``
takes 10-14 s on 2 cores; slln from 2e5 to 2e7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, _integer, moments, sample_chunks
from .limits import LimitLaw, limit_cdf
from .statistics import STATISTIC_KINDS, loo_log_chunked
from .summation import NeumaierSum

__all__ = [
    "ASCLT_KINDS",
    "LogAvgAccumulator",
    "default_grid",
    "AscltReport",
    "MAX_N",
    "run_asclt_path",
    "SllnReport",
    "run_slln_experiment",
]

ASCLT_CSV_HEADER = "x,A_N,F_limit,gap"
SLLN_CSV_HEADER = "n,gm_prefix,err_prefix,gm_loo,err_loo"

# steps per block of whole-array work in a walk, and draws per chunk of
# its path: large enough to amortize the per-block Python, small
# enough that a run's memory, one block's draws and temporaries, stays
# about 1 MB whatever N
_BLOCK = 4096

# the longest path a walk reads: about 17 minutes of loo at its
# ~100 ns per step; a longer one would run for hours or more
MAX_N = 10**10

ASCLT_KINDS = tuple(tag for tag, kind in STATISTIC_KINDS.items() if kind.walk)  # the kinds walked


def _walk(path, kind, mu, sigma, gam, grid=None):
    """Yield ``(n, t, first, exact)`` for each block of the re-readable
    path: its steps n, the kind's t_n there and, for loo, each value's
    grid index and the steps the exact kernel took (None otherwise)."""
    block, start = STATISTIC_KINDS[kind].walk(path, mu, sigma, gam, grid), 0
    for x in path:
        n = np.arange(start + 1, start + x.size + 1)
        start += x.size
        yield (n, *block(x, n))


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


def _path(spec: DistributionSpec, n_max: int, base_seed: int, stream_index: int = 0):
    """The re-readable path of ``sample(spec, n_max, base_seed, stream_index)``, in blocks."""
    if not 2 <= n_max <= MAX_N:
        raise ValueError(f"n_max must be from 2 to {MAX_N}, got {n_max}")
    return sample_chunks(spec, n_max, base_seed, stream_index, _BLOCK)


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
    n_max, base_seed, exact_cutoff = _integer(n_max), _integer(base_seed), _integer(exact_cutoff)
    path = _path(spec, n_max, base_seed, stream_index)
    if exact_cutoff < 2:
        raise ValueError("exact_cutoff must be >= 2")

    mu, sigma, gam = moments(spec)
    acc = LogAvgAccumulator(default_grid() if grid is None else grid)
    # the product statistics are accumulated as their logs, so they are
    # compared with the log-scale law
    law = LimitLaw(STATISTIC_KINDS[kind].log_law)

    mode_switch = None
    fallbacks = exact_steps = 0
    for n, t, first, exact in _walk(path, kind, mu, sigma, gam, acc.grid):
        skip = 1 if n[0] == 1 else 0  # accumulation starts at n = 2
        if exact is None:
            acc.accumulate(int(n[skip]), t[skip:])
            continue
        exact_steps += int(np.count_nonzero(exact))
        fallbacks += int(np.count_nonzero(exact & (n > exact_cutoff)))
        if mode_switch is None and n[-1] > exact_cutoff:
            took = np.flatnonzero(~exact & (n > exact_cutoff))
            mode_switch = int(n[took[0]]) if took.size else None
        # loo: its certificate has found each step's grid bin
        acc.accumulate(int(n[skip]), t[skip:], first[skip:])

    a = acc.evaluate()
    f = limit_cdf(law, acc.grid)
    a_logn = acc.evaluate_log_normalized()
    return AscltReport(
        spec=spec,
        kind=kind,
        n_max=n_max,
        base_seed=base_seed,
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


@dataclass(frozen=True)
class SllnRow:
    n: int
    gm_prefix: float
    err_prefix: float
    gm_loo: float
    err_loo: float


@dataclass(frozen=True)
class SllnReport:
    spec: DistributionSpec
    base_seed: int
    mu: float
    rows: tuple[SllnRow, ...]

    def to_csv(self, fileobj) -> None:
        fileobj.write(SLLN_CSV_HEADER + "\n")
        for r in self.rows:
            fileobj.write(
                f"{r.n},{r.gm_prefix!r},{r.err_prefix!r},"
                f"{r.gm_loo!r},{r.err_loo!r}\n"
            )


def run_slln_experiment(spec: DistributionSpec, n_list, base_seed: int) -> SllnReport:
    """Geometric means of one growing path, evaluated at checkpoints.

    Both geometric means converge almost surely to mu, so the report
    carries |value - mu| alongside each value.  The path is the one of
    ``sample(spec, n_list[-1], base_seed, 0)``, and the last checkpoint is
    at most :data:`MAX_N`.  Each mean is mu * exp(gamma * t_n / sqrt(n)),
    with t_n the walk's ``rw`` statistic or the exact ``loo`` one.
    """
    ns, base_seed = tuple(_integer(n) for n in n_list), _integer(base_seed)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n list must be nonempty and strictly increasing")
    if ns[0] < 2:
        raise ValueError("geometric means need n >= 2")
    path = _path(spec, ns[-1], base_seed)
    mu, sigma, gam = moments(spec)
    at = np.array(ns)
    t_rw = np.empty(len(ns))
    for n, t, _, _ in _walk(path, "rw", mu, sigma, gam):
        hit = (at >= n[0]) & (at <= n[-1])
        t_rw[hit] = t[at[hit] - n[0]]
    # log(gm/mu) of each mean; a mean more than about 1e308 below mu is
    # formed from its own log, as exp of that ratio has lost its digits
    logs = gam * np.array([t_rw, loo_log_chunked(path, at, mu, gam)]) / np.sqrt(at)
    ratio = np.exp(logs)
    low = ratio < np.finfo(float).tiny
    gms = mu * ratio
    gms[low] = np.exp(logs[low] + math.log(mu))
    bad = ~np.isfinite(gms)  # the path's sums have left the double range
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        raise ValueError(f"geometric mean is {gms[bad[:, j], j][0]} at n = {ns[j]}; "
                         "it must be finite")
    rows = []
    for n, gp, gl in zip(ns, *gms.tolist()):
        rows.append(SllnRow(n, gp, abs(gp - mu), gl, abs(gl - mu)))
    return SllnReport(spec=spec, base_seed=base_seed, mu=mu, rows=tuple(rows))
