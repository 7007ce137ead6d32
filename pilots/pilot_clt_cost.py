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
faults):

* fork    -- the ``os.fork`` calls,
* own     -- this process's share of the tasks (``_replicate_block``),
* wait    -- from the end of its share until the last child is reaped,
* reduce  -- from then to the end: concatenating and the KS of each row,

and ``other`` for the rest (building the tasks, the pipes).  On a
machine with one CPU the run forks nothing and ``wait`` reads 0.

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
PHASES = ("fork", "own", "wait", "reduce")


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
    import prodsums.montecarlo as mc
    from prodsums.cli import parse_dist

    parent, marks, cost = os.getpid(), {}, {}

    def mark(label):
        marks[label] = (time.perf_counter(), _faults())

    def add(phase, t0, f0):
        s, f = cost.get(phase, (0.0, 0))
        cost[phase] = (s + time.perf_counter() - t0, f + _faults() - f0)

    def timed(phase, fn, end=None):
        def wrapper(*args):
            t0, f0 = time.perf_counter(), _faults()
            result = fn(*args)
            if os.getpid() == parent:  # a child's readings die with it
                add(phase, t0, f0)
                if end:
                    mark(end)
            return result
        return wrapper

    mc._replicate_block = timed("own", mc._replicate_block, end="own")
    os.fork = timed("fork", os.fork)
    os.waitpid = timed("waitpid", os.waitpid, end="joined")
    dist, kind, ns, reps = WORKLOADS[name]
    config = mc.ExperimentConfig(parse_dist(dist), kind, ns, reps, base_seed=0, workers=2)
    for label in ("cold", "warm"):
        cost.clear()
        marks.clear()
        t0, f0 = time.perf_counter(), _faults()
        mc.run_clt_experiment(config)
        wall, faults = time.perf_counter() - t0, _faults() - f0
        own_end = marks["own"]
        joined = marks.get("joined", own_end)  # one CPU: no child to wait for
        phases = [
            cost.get("fork", (0.0, 0)), cost["own"],
            (joined[0] - own_end[0], joined[1] - own_end[1]),
            (t0 + wall - joined[0], f0 + faults - joined[1]),
        ]
        other = (wall - sum(s for s, _ in phases), faults - sum(f for _, f in phases))
        cells = " ".join(f"{s * 1e3:7.1f}ms/{f:<5d}" for s, f in [*phases, other])
        print(f"{name:15s} {label} {wall * 1e3:7.1f}ms/{faults:<5d} {cells}", flush=True)


def main() -> None:
    print("seed 0, one worker; each cell is ms/minor faults")
    print("workload        run      total       " + " ".join(f"{s:14s}" for s in (*STAGES, "other")))
    for name in WORKLOADS:
        subprocess.run([sys.executable, __file__, name], check=True)
    print("\nseed 0, two workers; each cell is ms/minor faults of this process")
    print("workload        run      total       " + " ".join(f"{s:14s}" for s in (*PHASES, "other")))
    subprocess.run([sys.executable, __file__, "clt-rw-small-n", "2"], check=True)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        forked(sys.argv[1])
    elif len(sys.argv) > 1:
        child(sys.argv[1])
    else:
        main()
