#!/usr/bin/env python3
"""Where the time of one clt run goes, stage by stage.

For each of the two clt workloads of ``perfbench`` (``clt-loo-large-n``:
loo on exponential:1, n = 1000 and 10000, M = 150; ``clt-rw-small-n``:
rw on gamma:4:0.5, n = 10 and 100, M = 8000), a fresh interpreter runs
``run_clt_experiment`` twice: cold (the first run in the process, which
also pays numpy's lazy set-up and the first page faults of the batch
buffers) and warm.  Each run prints its wall time and minor page faults
(``getrusage``), in total and for the stages the experiment calls:

* sample  -- drawing the batches (``sample_rows``),
* kernel  -- the statistic kind's batch kernel (``StatisticKind.evaluate``),
* ks      -- the KS distance of each row (``ks_distance``, sorting in
             ``empirical_cdf`` excluded),

and ``other`` for the rest of the run.  Both workloads run with one
worker there, so every stage runs in this process.

The benchmark runs ``clt-rw-small-n`` with two workers, so a third
interpreter runs it so, cold and warm, split into the phases of its
fork-join as this process sees them (wall time and this process's minor
faults): the ``os.fork`` call, then for each row

* own     -- this process's share of the row (``_replicate_block``),
* wait    -- from the end of its share until the child's share of the
             row has been read from the pipe,
* reduce  -- from then until this process starts its share of the next
             row (or the run ends): concatenating and the row's KS,

and ``other`` for the rest (building the tasks, the pipe, reaping the
child).  On a machine with one CPU the run forks nothing and ``wait``
reads 0.

Last, fresh interpreters run ``clt --dist exponential:1 --stat std --n
10,11,12,13,14,15 --reps 300000`` through ``cli.main`` at ``--workers
1`` and ``2``, and the same command with ``--n 10`` alone at one worker,
and print the peak RSS (``ru_maxrss``) of the interpreter and of its
reaped children: a run holds about one row, so six rows peak where one
does, and the child holds its own half-row.

Timings depend on the machine and its load; compare two checkouts by
alternating runs.

Run:  python3 pilots/pilot_clt_cost.py
"""

import dataclasses
import os
import resource
import subprocess
import sys
import time

WORKLOADS = {
    "clt-loo-large-n": ("exponential:1", "loo", (1000, 10000), 150),
    "clt-rw-small-n": ("gamma:4:0.5", "rw", (10, 100), 8000),
}
STAGES = ("sample", "kernel", "ks")


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(name: str) -> None:
    import prodsums.montecarlo as mc
    from prodsums.cli import parse_dist

    cost = {}

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            t0, f0 = time.perf_counter(), _faults()
            try:
                return fn(*args, **kwargs)
            finally:
                s, f = cost.get(stage, (0.0, 0))
                cost[stage] = (s + time.perf_counter() - t0, f + _faults() - f0)
        return wrapper

    dist, kind, ns, reps = WORKLOADS[name]
    mc.sample_rows = timed("sample", mc.sample_rows)
    mc.ks_distance = timed("ks", mc.ks_distance)
    mc.STATISTIC_KINDS = {
        tag: dataclasses.replace(k, evaluate=timed("kernel", k.evaluate))
        for tag, k in mc.STATISTIC_KINDS.items()
    }
    config = mc.ExperimentConfig(parse_dist(dist), kind, ns, reps, base_seed=0)
    for label in ("cold", "warm"):
        cost.clear()
        t0, f0 = time.perf_counter(), _faults()
        mc.run_clt_experiment(config)
        wall, faults = time.perf_counter() - t0, _faults() - f0
        staged = [cost.get(stage, (0.0, 0)) for stage in STAGES]
        other = (wall - sum(s for s, _ in staged), faults - sum(f for _, f in staged))
        cells = " ".join(f"{s * 1e3:7.1f}ms/{f:<5d}" for s, f in [*staged, other])
        print(f"{name:15s} {label} {wall * 1e3:7.1f}ms/{faults:<5d} {cells}", flush=True)


def forked(name: str) -> None:
    """The workload at two workers, split into the phases of its fork-join."""
    import pickle

    import prodsums.montecarlo as mc
    from prodsums.cli import parse_dist

    parent, events = os.getpid(), []

    def mark(fn, before=None, after=None):
        def wrapper(*args):
            if before and os.getpid() == parent:  # a child's readings die with it
                events.append((before, time.perf_counter(), _faults()))
            result = fn(*args)
            if after and os.getpid() == parent:
                events.append((after, time.perf_counter(), _faults()))
            return result
        return wrapper

    def cell(start, end):
        return f"{(end[0] - start[0]) * 1e3:7.1f}ms/{end[1] - start[1]:<5d}"

    mc._replicate_block = mark(mc._replicate_block, "own", "owned")
    os.fork = mark(os.fork, "fork", "forked")
    pickle.load = mark(pickle.load, after="read")
    dist, kind, ns, reps = WORKLOADS[name]
    config = mc.ExperimentConfig(parse_dist(dist), kind, ns, reps, base_seed=0, workers=2)
    for label in ("cold", "warm"):
        events.clear()
        start = (time.perf_counter(), _faults())
        mc.run_clt_experiment(config)
        end = (time.perf_counter(), _faults())
        at, row = {}, -1  # (time, faults) of each event, by (event, row); the fork is row -1
        for event, t, f in events:
            row += event == "own"
            at[event, row] = (t, f)  # a row's last read is when its last share is in
        fork = (at.get(("fork", -1), start), at.get(("forked", -1), start))  # one CPU: no fork
        rows = []  # per row: started, own share done, child's share read, next row started
        for i in range(len(ns)):
            owned = at["owned", i]
            rows.append((at["own", i], owned, at.get(("read", i), owned), at.get(("own", i + 1), end)))
        accounted = fork[1][0] - fork[0][0] + sum(r[3][0] - r[0][0] for r in rows)
        other = f"{(end[0] - start[0] - accounted) * 1e3:7.1f}ms"
        print(f"{name:15s} {label} {cell(start, end)} fork {cell(*fork)} other {other}")
        for n, (own, owned, read, upto) in zip(ns, rows):
            print(f"  n={n:<6d} own {cell(own, owned)} wait {cell(owned, read)} "
                  f"reduce {cell(read, upto)}", flush=True)


FOUND_RUN = ["clt", "--dist", "exponential:1", "--stat", "std", "--reps", "300000"]


def peak_rss(ns: str, workers: str) -> None:
    """Peak RSS of one clt run through ``cli.main`` in this fresh interpreter."""
    from prodsums.cli import main as cli_main

    cli_main([*FOUND_RUN, "--n", ns, "--workers", workers, "--out", os.devnull])
    rss = [resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    print(f"--n {ns:17s} --workers {workers}  self {rss[0]:6.1f} MB  children {rss[1]:6.1f} MB",
          flush=True)


def main() -> None:
    print("seed 0, one worker; each cell is ms/minor faults")
    print("workload        run      total       " + " ".join(f"{s:14s}" for s in (*STAGES, "other")))
    for name in WORKLOADS:
        subprocess.run([sys.executable, __file__, name], check=True)
    print("\nseed 0, two workers; each cell is ms/minor faults of this process, each row's phases below")
    subprocess.run([sys.executable, __file__, "clt-rw-small-n", "2"], check=True)
    print(f"\npeak RSS of {' '.join(FOUND_RUN)}, each in a fresh interpreter (stderr dropped)")
    for ns, workers in [("10", "1"), ("10,11,12,13,14,15", "1"), ("10,11,12,13,14,15", "2")]:
        subprocess.run([sys.executable, __file__, "rss", ns, workers], check=True,
                       stderr=subprocess.DEVNULL)


if __name__ == "__main__":
    if sys.argv[1:2] == ["rss"]:
        peak_rss(*sys.argv[2:])
    elif len(sys.argv) > 2:
        forked(sys.argv[1])
    elif len(sys.argv) > 1:
        child(sys.argv[1])
    else:
        main()
