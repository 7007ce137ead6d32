#!/usr/bin/env python3
"""Where the time of one asclt run goes, stage by stage, and its peak memory.

For each ASCLT walk (``loo``, ``rw`` and ``std``; ``lin`` is ``std``'s
walk), a fresh interpreter runs ``run_asclt_path`` on
exponential:1 with N = 2e5 and exact cutoff 2000 twice: cold (the
first run in the process, which also pays numpy's lazy imports and the
first page faults of its temporaries) and warm.  Each run prints its
wall time and minor page faults (``getrusage``), in total and for the
stages the engine calls:

* sample      -- drawing the path, chunk by chunk, on each pass over the
                 re-readable ``sample_chunks`` path,
* expansion   -- the leave-one-out series of every step and its
                 certificate (``statistics._certified_series``),
* prefix      -- the exact leave-one-out kernel
                 (``statistics.loo_log_chunked``, which reads the path
                 again) on the steps the expansion does not certify,
* sums        -- the running sums (``exact_running_sums``) of every
                 kind, those the series and the exact kernel form
                 included,
* accumulate  -- ``LogAvgAccumulator.accumulate``,

and ``other`` for the rest of the run.  A stage called inside another
counts towards the inner one only, so the columns add up to the total.

Then, for each kind and N = 2e5, 2e6 and 2e7, a fresh interpreter makes
one run and prints its peak resident set (``ru_maxrss``), which should
not grow with N, since the walk holds one chunk of the path.  The same
goes for ``run_slln_experiment`` with checkpoints 1000 and N, which reads
the path three times (the ``rw`` walk and the two passes of
``loo_log_chunked``); its wall times are printed too.  One ``loo`` run
at N = 1e8 prints its wall time and peak resident set.

Last, the cost of an exact step on a law that draws zeros: for
gamma:0.002:1 (about 23% of its draws underflow to 0 and are redrawn)
at N = 2e5 and 2e6, a fresh interpreter prints the best of 3 ``loo``
wall times with the default grid, with a grid point added on step 50's
value and with one on step 5000's, each from ``sample(spec, N, 0, 0)``
since the redraws depend on N.  Such a grid point sends its step to the
exact kernel, which should cost O(n), not O(N).

Timings depend on the machine and its load; compare two checkouts by
alternating runs.

Run:  python3 pilots/pilot_engine_cost.py
"""

import resource
import subprocess
import sys
import time

N, CUTOFF, SEED = 200_000, 2000, 0
STAGES = ("sample", "expansion", "prefix", "sums", "accumulate")
KINDS = ("loo", "rw", "std")  # lin is std's walk under a second name
RSS_N = (200_000, 2_000_000, 20_000_000)
LONG_N = 100_000_000
ZEROS, ZEROS_N, ZEROS_STEPS = "gamma:0.002:1", (200_000, 2_000_000), (50, 5000)


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(kind: str) -> None:
    import prodsums.asclt as asclt
    import prodsums.statistics as statistics
    import prodsums.streaming as streaming
    from prodsums import make_distribution

    cost, inner = {}, []  # inner: per open stage, the time and faults of stages inside it

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            inner.append([0.0, 0])
            t0, f0 = time.perf_counter(), _faults()
            try:
                return fn(*args, **kwargs)
            finally:
                wall, faults = time.perf_counter() - t0, _faults() - f0
                nested_wall, nested_faults = inner.pop()
                s, f = cost.get(stage, (0.0, 0))
                cost[stage] = (s + wall - nested_wall, f + faults - nested_faults)
                if inner:
                    inner[-1][0] += wall
                    inner[-1][1] += faults
        return wrapper

    sample_chunks = asclt.sample_chunks

    class TimedPath:  # sample_chunks' path, each pass timed
        def __init__(self, *args, **kwargs):
            self.path = sample_chunks(*args, **kwargs)

        def __iter__(self):
            chunks = iter(self.path)
            draw = timed("sample", lambda: next(chunks, None))
            while (x := draw()) is not None:
                yield x

    asclt.sample_chunks = TimedPath
    # the walks live in statistics, next to the kernels, and look these up there
    statistics._certified_series = timed("expansion", statistics._certified_series)
    statistics.loo_log_chunked = timed("prefix", statistics.loo_log_chunked)
    for module in (streaming, statistics):  # each holds its own reference
        module.exact_running_sums = timed("sums", module.exact_running_sums)
    asclt.LogAvgAccumulator.accumulate = timed("accumulate", asclt.LogAvgAccumulator.accumulate)

    spec = make_distribution("exponential", [1.0])
    for label in ("cold", "warm"):
        cost.clear()
        t0, f0 = time.perf_counter(), _faults()
        asclt.run_asclt_path(spec, kind, N, SEED, exact_cutoff=CUTOFF)
        wall, faults = time.perf_counter() - t0, _faults() - f0
        staged = [cost.get(stage, (0.0, 0)) for stage in STAGES]
        other = (wall - sum(s for s, _ in staged), faults - sum(f for _, f in staged))
        cells = " ".join(f"{s * 1e3:7.1f}ms/{f:<5d}" for s, f in [*staged, other])
        print(f"{kind:4s} {label} {wall * 1e3:7.1f}ms/{faults:<5d} {cells}", flush=True)


def peak(kind: str, n: int) -> None:
    """One run of a kind, or of slln, in this interpreter: its wall time
    and the peak resident set."""
    from prodsums import make_distribution, run_asclt_path, run_slln_experiment

    spec = make_distribution("exponential", [1.0])
    t0 = time.perf_counter()
    if kind == "slln":
        run_slln_experiment(spec, (1000, n), SEED)
    else:
        run_asclt_path(spec, kind, n, SEED, exact_cutoff=CUTOFF)
    wall = time.perf_counter() - t0
    print(f"{wall:.2f} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")


def zeros(n: int) -> None:
    """Best-of-3 loo wall times on ZEROS at N = n: no grid point added,
    then one on the value of each of ZEROS_STEPS."""
    import numpy as np
    from prodsums import default_grid, loo_log_statistic, moments, run_asclt_path, sample
    from prodsums.cli import parse_dist

    spec = parse_dist(ZEROS)
    mu, _, gam = moments(spec)
    v = sample(spec, n, SEED, 0).values
    grids = [default_grid()] + [np.sort(np.append(default_grid(), loo_log_statistic(v[:k], mu, gam)))
                                for k in ZEROS_STEPS]
    del v
    run_asclt_path(spec, "loo", n, SEED)  # warm-up
    walls = []
    for grid in grids:
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            run_asclt_path(spec, "loo", n, SEED, grid=grid)
            best = min(best, time.perf_counter() - t0)
        walls.append(best)
    print(" ".join(f"{w:10.3f}" for w in walls))


def _peak(kind: str, n: int) -> tuple[float, float]:
    out = subprocess.run([sys.executable, __file__, "peak", kind, str(n)],
                         check=True, capture_output=True, text=True).stdout.split()
    return float(out[0]), float(out[1])


def main() -> None:
    print(f"exponential:1, N = {N}, exact cutoff {CUTOFF}, seed {SEED}; each cell is ms/minor faults")
    print("kind run     total       " + " ".join(f"{s:14s}" for s in (*STAGES, "other")))
    for kind in KINDS:
        subprocess.run([sys.executable, __file__, "stages", kind], check=True)
    print("\npeak RSS (ru_maxrss, MB) of one run in a fresh interpreter")
    print("kind " + " ".join(f"{f'N = {n:.0e}':>11s}" for n in RSS_N))
    for kind in KINDS:
        print(f"{kind:4s} " + " ".join(f"{_peak(kind, n)[1]:11.1f}" for n in RSS_N), flush=True)
    slln = [_peak("slln", n) for n in RSS_N]
    print("slln " + " ".join(f"{rss:11.1f}" for _, rss in slln))
    print("\nslln wall time (s), checkpoints 1000 and N, in the same runs")
    print("     " + " ".join(f"{wall:11.2f}" for wall, _ in slln), flush=True)
    wall, rss = _peak("loo", LONG_N)
    print(f"\nloo at N = {LONG_N:.0e}: {wall:.1f} s, peak RSS {rss:.1f} MB")
    print(f"\n{ZEROS}, seed {SEED}: best-of-3 loo wall time (s), by the grid point added")
    print("N         " + " ".join(f"{label:>10s}" for label in
                                   ("none", *(f"step {k}" for k in ZEROS_STEPS))))
    for n in ZEROS_N:
        out = subprocess.run([sys.executable, __file__, "zeros", str(n)],
                             check=True, capture_output=True, text=True).stdout
        print(f"{n:<9.0e} {out.rstrip()}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) == 1:
        main()
    elif sys.argv[1] == "peak":
        peak(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "zeros":
        zeros(int(sys.argv[2]))
    else:
        child(sys.argv[2])
