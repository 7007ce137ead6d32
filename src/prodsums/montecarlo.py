"""Replication experiments over many paths: empirical CDFs, KS, reports.

Replicate r of row i (the i-th entry of the n list) draws its path from
stream index ``i * 2**32 + r``, so every replicate has its own
pre-assigned substream and the experiment is reproducible for any
worker count: workers only split the replicate range into chunks,
and chunks are reduced back in replicate order.

Each kind is compared against its ``log_law`` in
:data:`~prodsums.statistics.STATISTIC_KINDS` by default, so the
product-form statistics are compared on the log scale.  Passing the
kind's ``product_law`` exponentiates the values first; because exp is
strictly increasing this leaves the KS distance unchanged up to
rounding.

A run starts a process pool only when its worker count, its number of
tasks and the machine's cores are all at least 2.  Every other run
stays in this process and loads no pool code.  A pool forks after
``numpy.random`` is loaded, so its workers inherit the sampler instead
of each importing it.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, moments, sample_rows
from .limits import LimitLaw, limit_cdf
from .statistics import _BATCH_BYTES, _SCRATCH, STATISTIC_KINDS

__all__ = [
    "ExperimentConfig",
    "EmpiricalCdf",
    "ConvergenceRow",
    "ConvergenceReport",
    "empirical_cdf",
    "ks_distance",
    "run_clt_experiment",
]

CLT_CSV_HEADER = "n,M,ks,mean,sd,mean_remainder,mean_maxdev,seconds"

@dataclass(frozen=True)
class ExperimentConfig:
    """Replication experiment: which statistic, which sizes, how many."""

    spec: DistributionSpec
    kind: str
    n_list: tuple[int, ...]
    reps: int
    base_seed: int
    compare_law: LimitLaw | None = None  # None: default law for the kind
    workers: int = 1

    def __post_init__(self):
        kind = STATISTIC_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            kinds = ", ".join(STATISTIC_KINDS)
            raise ValueError(f"unknown statistic {self.kind!r}; expected one of {kinds}")
        ns = tuple(int(n) for n in self.n_list)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n list must be nonempty and strictly increasing")
        if ns[0] < kind.min_n:
            raise ValueError(f"kind {self.kind!r} needs n >= {kind.min_n}")
        object.__setattr__(self, "n_list", ns)
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.compare_law is not None:
            allowed = tuple(filter(None, (kind.log_law, kind.product_law)))
            if self.compare_law.tag not in allowed:
                raise ValueError(f"law {self.compare_law.tag!r} is not a limit of kind "
                                 f"{self.kind!r}; allowed: {', '.join(allowed)}")


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF of a finite sample."""

    sorted_values: np.ndarray

    def evaluate(self, x: float) -> float:
        m = self.sorted_values.size
        return float(np.searchsorted(self.sorted_values, x, side="right")) / m


def empirical_cdf(values) -> EmpiricalCdf:
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("empirical CDF needs at least one value")
    bad = int(np.count_nonzero(~np.isfinite(v)))
    if bad:
        raise ValueError(f"empirical CDF needs finite values, got {bad} NaN or infinite")
    v.setflags(write=False)
    return EmpiricalCdf(v)


def ks_distance(emp: EmpiricalCdf, law: LimitLaw) -> float:
    """Exact sup-distance between an empirical CDF and a limit law.

    Evaluated as the max over the sorted sample v_(1..M) of
    ``max(i/M - F(v_i), F(v_i) - (i-1)/M)``, which attains the sup for
    monotone F (including the step CDF of a point mass).
    """
    v = emp.sorted_values
    m = v.size
    f = limit_cdf(law, v)
    i = np.arange(1, m + 1, dtype=float)
    return float(max(np.max(i / m - f), np.max(f - (i - 1.0) / m)))


def _sample_batches(spec: DistributionSpec, n: int, base_seed: int, streams):
    """Yield ``(paths, work)`` for consecutive batches of the streams.

    ``paths`` is the ``(rows, n)`` :func:`sample_rows` batch of up to
    about ``_BATCH_BYTES`` of draws, and ``work`` the arrays a
    ``StatisticKind.evaluate`` call may take for its temporaries.  One
    buffer holds every batch and its work, so the next batch overwrites
    both: keep what the kernels return, not the arrays.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    rows = min(len(streams), max(1, _BATCH_BYTES // (8 * n)))
    buffer = np.empty((1 + _SCRATCH, rows, n))
    for b0 in range(0, len(streams), rows):
        batch = streams[b0 : b0 + rows]
        k = len(batch)
        yield sample_rows(spec, n, base_seed, batch, out=buffer[0, :k]), buffer[1:, :k]


def _replicate_block(args) -> np.ndarray:
    """(values, remainder, maxdev) of replicates r0..r1-1 of one row, each
    drawn from its own stream; top level for pickling."""
    spec, kind, n, base_seed, row_index, r0, r1 = args
    mu, sigma, gam = moments(spec)
    evaluate = STATISTIC_KINDS[kind].evaluate
    out = np.empty((3, r1 - r0))
    first, done = row_index << 32, 0
    for paths, work in _sample_batches(spec, n, base_seed, range(first + r0, first + r1)):
        out[:, done : done + len(paths)] = evaluate(paths, mu, sigma, gam, work)
        done += len(paths)
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    reps: int
    ks: float
    mean: float
    sd: float
    mean_remainder: float
    mean_maxdev: float
    wall_seconds: float


@dataclass(frozen=True)
class ConvergenceReport:
    config: ExperimentConfig
    law: LimitLaw
    rows: tuple[ConvergenceRow, ...]

    def to_csv(self, fileobj, timing: bool = False) -> None:
        """Write the report; timing=False zeroes the seconds column.

        Wall-clock differs from run to run, so the deterministic form is
        the default: with it, reports for the same config and seed are
        byte-identical regardless of worker count.
        """
        fileobj.write(CLT_CSV_HEADER + "\n")
        for r in self.rows:
            secs = r.wall_seconds if timing else 0.0
            fileobj.write(
                f"{r.n},{r.reps},{r.ks!r},{r.mean!r},{r.sd!r},"
                f"{r.mean_remainder!r},{r.mean_maxdev!r},{secs:.6f}\n"
            )


def run_clt_experiment(config: ExperimentConfig) -> ConvergenceReport:
    """Run the replication experiment described by the config.

    For each n, draws ``reps`` independent paths, evaluates the
    configured statistic, and records the KS distance of the empirical
    law against the comparison law, plus the sample mean/sd and (for the
    leave-one-out kind) the mean Taylor-remainder and max-deviation
    diagnostics.  Deterministic for fixed base_seed whatever the worker
    count.
    """
    kind = STATISTIC_KINDS[config.kind]
    law = config.compare_law or LimitLaw(kind.log_law, moments(config.spec)[0])
    product_scale = law.tag == kind.product_law
    m, rows = config.reps, []
    chunk = -(-m // (config.workers * 4))
    # one pool serves every row, with no more processes than tasks or cores
    workers = min(config.workers, -(-m // chunk), os.cpu_count() or 1)
    serial = workers == 1  # a single worker runs in this process
    if not serial:
        import numpy.random  # noqa: F401  (loaded before the fork, so workers inherit it)
        from concurrent.futures import ProcessPoolExecutor
    with contextlib.nullcontext() if serial else ProcessPoolExecutor(workers) as pool:
        for i, n in enumerate(config.n_list):
            t0 = time.perf_counter()
            tasks = [(config.spec, config.kind, n, config.base_seed, i, r0, min(r0 + chunk, m))
                     for r0 in range(0, m, chunk)]
            blocks = (map if serial else pool.map)(_replicate_block, tasks)
            vals, rems, devs = np.concatenate(list(blocks), axis=1)
            data = np.exp(vals) if product_scale else vals
            sd = float(np.std(data, ddof=1)) if m > 1 else 0.0
            rows.append(ConvergenceRow(
                n, m, ks_distance(empirical_cdf(data), law), float(np.mean(data)), sd,
                float(np.mean(rems)), float(np.mean(devs)), time.perf_counter() - t0,
            ))
    return ConvergenceReport(config=config, law=law, rows=tuple(rows))
