#!/usr/bin/env python3
"""Where the time of one asclt run goes, stage by stage.

For each ASCLT kind, a fresh interpreter runs ``run_asclt_path`` on
exponential:1 with N = 2e5 and exact cutoff 2000 twice: cold (the
first run in the process, which also pays numpy's lazy imports and the
first page faults of its temporaries) and warm.  Each run prints its
wall time and minor page faults (``getrusage``), in total and for the
stages the engine calls:

* sample      -- drawing the path,
* expansion   -- the leave-one-out series of every step and its
                 certificate (``_certified_series``),
* prefix      -- the exact leave-one-out kernel (``loo_log_prefixes``) on
                 the steps the expansion does not certify,
* sums        -- the running sums (``running_sums``) of the other kinds,
* accumulate  -- ``LogAvgAccumulator.accumulate``,

and ``other`` for the rest of the run.  A stage called inside another
counts towards the outer one.  Timings depend on the machine
and its load; compare two checkouts by alternating runs.

Run:  python3 pilots/pilot_engine_cost.py
"""

import resource
import subprocess
import sys
import time

N, CUTOFF, SEED = 200_000, 2000, 0
STAGES = ("sample", "expansion", "prefix", "sums", "accumulate")


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(kind: str) -> None:
    import prodsums.asclt as asclt
    from prodsums import make_distribution

    cost, active = {}, []

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            if active:
                return fn(*args, **kwargs)
            active.append(stage)
            t0, f0 = time.perf_counter(), _faults()
            try:
                return fn(*args, **kwargs)
            finally:
                s, f = cost.get(stage, (0.0, 0))
                cost[stage] = (s + time.perf_counter() - t0, f + _faults() - f0)
                active.pop()
        return wrapper

    asclt.sample = timed("sample", asclt.sample)
    asclt._certified_series = timed("expansion", asclt._certified_series)
    asclt.loo_log_prefixes = timed("prefix", asclt.loo_log_prefixes)
    asclt.running_sums = timed("sums", asclt.running_sums)
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


def main() -> None:
    print(f"exponential:1, N = {N}, exact cutoff {CUTOFF}, seed {SEED}; each cell is ms/minor faults")
    print("kind run     total       " + " ".join(f"{s:14s}" for s in (*STAGES, "other")))
    for kind in ("loo", "rw", "lin", "std"):
        subprocess.run([sys.executable, __file__, kind], check=True)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        child(sys.argv[1])
    else:
        main()
