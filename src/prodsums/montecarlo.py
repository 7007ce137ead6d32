"""Replication experiments over many paths: empirical CDFs, KS, reports.

Replicate r of row i (the i-th entry of the n list) draws its path from
stream index ``i * 2**32 + r``, so every replicate has its own
pre-assigned substream and the experiment is reproducible for any
worker count.

Each kind is compared against its ``log_law`` in
:data:`~prodsums.statistics.STATISTIC_KINDS` by default, so the
product-form statistics are compared on the log scale.  Passing the
kind's ``product_law`` exponentiates the values first; because exp is
strictly increasing this leaves the KS distance unchanged up to
rounding.

``workers = k`` means k processes, this one included, each with one
contiguous share of every row's replicates; the ``k - 1`` others are
forked once per experiment, after ``numpy.random`` is loaded (no pool
code), and pipe each share back as they finish it.  Row i is reduced here
before row i + 1 runs, so a run holds about one row.  k is capped by the
replicates and by the CPUs this process may run on, 1 without ``os.fork``.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, _integer, moments, sample_rows
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
        ns = tuple(_integer(n) for n in self.n_list)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n list must be nonempty and strictly increasing")
        if ns[0] < kind.min_n:
            raise ValueError(f"kind {self.kind!r} needs n >= {kind.min_n}")
        object.__setattr__(self, "n_list", ns)
        for name in ("reps", "base_seed", "workers"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
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


def _replicate_block(args) -> tuple[np.ndarray, float]:
    """(values, remainder, maxdev) of replicates r0..r1-1 of one row, each
    drawn from its own stream, and the seconds that took."""
    t0 = time.perf_counter()
    spec, kind, n, base_seed, row_index, r0, r1 = args
    mu, sigma, gam = moments(spec)
    evaluate = STATISTIC_KINDS[kind].evaluate
    out = np.empty((3, r1 - r0))
    first, done = row_index << 32, 0
    for paths, work in _sample_batches(spec, n, base_seed, range(first + r0, first + r1)):
        out[:, done : done + len(paths)] = evaluate(paths, mu, sigma, gam, work)
        done += len(paths)
    return out, time.perf_counter() - t0


def _cores() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fork_join(rows: list, workers: int):
    """Yield the ``_replicate_block`` results of each row's tasks, row by row: task w
    runs in process w, 0 this one and each other a child forked once that pipes each
    result, or its exception to raise here, as it has it.  No child outlives ``close()``."""
    if workers > 1:
        import pickle
        import signal
        import numpy.random  # noqa: F401  (loaded before the fork, so the children inherit it)
    children = {}  # the read end of its pipe, per unreaped child pid
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child: send share w of each row and leave
                try:
                    with open(write, "wb") as pipe:
                        try:
                            for row in rows:
                                pickle.dump(_replicate_block(row[w]), pipe)
                                pipe.flush()
                        except BaseException as exc:
                            pickle.dump(exc, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = open(read, "rb")
            os.close(write)
        for row in rows:
            results = [_replicate_block(row[0])]
            for pid, pipe in children.items():
                try:
                    result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the child died
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    children.pop(pid).close()  # reaped, so not to be killed
                    how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                           else f"exited with status {code}")
                    raise RuntimeError(f"clt worker process {pid} {how}") from None
                if isinstance(result, BaseException):
                    raise result
                results.append(result)
            yield results
    finally:  # SIGKILL is harmless to a child that has sent its last row
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    reps: int
    ks: float
    mean: float
    sd: float
    mean_remainder: float
    mean_maxdev: float
    seconds: float  # the row's task wall times, summed


@dataclass(frozen=True)
class ConvergenceReport:
    config: ExperimentConfig
    law: LimitLaw
    rows: tuple[ConvergenceRow, ...]

    def to_csv(self, fileobj, timing: bool = False) -> None:
        """Write the report; timing=False zeroes the seconds column.

        A row's seconds sum the wall times of its replicate tasks, whichever
        process ran them, and vary from run to run; zeroed, reports for the
        same config and seed are byte-identical regardless of worker count.
        """
        fileobj.write(CLT_CSV_HEADER + "\n")
        for r in self.rows:
            secs = r.seconds if timing else 0.0
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
    k = min(config.workers, m, _cores())  # no more processes than replicates or cores
    tasks = [[(config.spec, config.kind, n, config.base_seed, i, m * w // k, m * (w + 1) // k)
              for w in range(k)] for i, n in enumerate(config.n_list)]
    with closing(_fork_join(tasks, k)) as shares:
        for n, results in zip(config.n_list, shares):
            blocks, secs = zip(*results)
            vals, rems, devs = np.concatenate(blocks, axis=1)
            data = np.exp(vals) if product_scale else vals
            sd = float(np.std(data, ddof=1)) if m > 1 else 0.0
            rows.append(ConvergenceRow(
                n, m, ks_distance(empirical_cdf(data), law), float(np.mean(data)), sd,
                float(np.mean(rems)), float(np.mean(devs)), sum(secs),
            ))
    return ConvergenceReport(config=config, law=law, rows=tuple(rows))
