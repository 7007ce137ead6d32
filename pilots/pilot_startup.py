#!/usr/bin/env python3
"""Where the set-up of a fresh prodsums process goes, step by step.

The benchmark reports ``setup_s`` only as a total.  This pilot splits a
cold CLI run into its steps, each timed in a fresh interpreter:

* python        -- from starting the interpreter to its first statement,
* numpy         -- ``import numpy``,
* prodsums.cli  -- ``import prodsums.cli``,
* clt           -- one small serial ``clt`` call through ``cli.main``,
* asclt         -- one small ``asclt`` call through ``cli.main``.

Each round starts two interpreters, one ending in the ``clt`` call and
one in the ``asclt`` call, so both calls are first calls that pay the
lazy imports, as in a CLI run; the steps before them are timed in both.
Per step it prints the median time with its quartiles, the median peak
resident set (``ru_maxrss``) once the step is done, and the standard
library modules the step loads after ``import numpy`` (top-level names,
and the full names of the process pool's modules).

It times the ``prodsums`` its interpreters import, so to compare two
checkouts, run it against each in turn, for example with
``PYTHONPATH=<checkout>/src``.  Timings depend on the machine and its
load.

Run:  python3 pilots/pilot_startup.py [rounds]   (at least 2, default 10)
"""

# the child reads which modules a step loads, so only modules the
# interpreter has loaded at start-up are imported here; main imports
# the rest
import contextlib
import os
import resource
import sys
import time

STEPS = ("python", "numpy", "prodsums.cli", "clt", "asclt")
CALLS = {
    "clt": ["clt", "--dist", "exponential:1", "--stat", "loo", "--n", "10,100",
            "--reps", "20", "--workers", "1"],
    "asclt": ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "2000"],
}
POOL = ("concurrent.futures.process", "multiprocessing")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def child(call: str, t_spawn: float, out: str) -> None:
    """Run the steps up to ``call`` and print one JSON object of their
    times (s), peak RSS (MB) and the standard-library modules each adds."""
    first = time.monotonic()
    steps = {"python": (first - t_spawn, _rss_mb(), [])}
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    steps["numpy"] = (time.perf_counter() - t0, _rss_mb(), [])
    loaded = set(sys.modules)

    def added():
        new = set(sys.modules) - loaded
        loaded.update(new)
        names = {m.partition(".")[0] for m in new} & sys.stdlib_module_names
        return sorted(names | (new & set(POOL)))

    t0 = time.perf_counter()
    from prodsums.cli import main

    steps["prodsums.cli"] = (time.perf_counter() - t0, _rss_mb(), added())
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):  # the echoed config
        t0 = time.perf_counter()
        code = main([*CALLS[call], "--out", out])
        steps[call] = (time.perf_counter() - t0, _rss_mb(), added())
    if code != 0:
        raise SystemExit(f"{call} call failed")
    import json

    print(json.dumps(steps))


def main(rounds: int) -> None:
    import json
    import statistics
    import subprocess
    import tempfile

    if rounds < 2:
        raise SystemExit("quartiles need at least 2 rounds")
    runs = {step: [] for step in STEPS}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(rounds):
            for call in ("clt", "asclt"):
                t_spawn = time.monotonic()
                done = subprocess.run(
                    [sys.executable, __file__, "child", call, repr(t_spawn),
                     os.path.join(tmp, "out.csv")],
                    check=True, capture_output=True, text=True)
                for step, value in json.loads(done.stdout.splitlines()[-1]).items():
                    runs[step].append(value)
    print(f"{rounds} rounds; clt: {' '.join(CALLS['clt'])}; asclt: {' '.join(CALLS['asclt'])}")
    print(f"{'step':13s} {'ms (median [quartiles])':>26s} {'peak RSS MB':>12s}  "
          "stdlib modules it adds")
    for step in STEPS:
        secs, rss, mods = zip(*runs[step])
        q1, med, q3 = (1e3 * t for t in statistics.quantiles(secs, n=4, method="inclusive"))
        print(f"{step:13s} {med:8.1f} [{q1:6.1f}, {q3:6.1f}] {statistics.median(rss):12.2f}  "
              f"{' '.join(mods[-1]) or '-'}")


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "child":
        child(sys.argv[2], float(sys.argv[3]), sys.argv[4])
    else:
        main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
