"""The prodsums benchmark: one workload, timed, checked and optionally traced.

    python3 perfbench/run.py --workload clt-loo-large-n --seed 0 --seconds 20 --trace 0

Load is a closed loop with one client: this script starts one child
process at a time and waits for it.  Each child is a fresh interpreter
that imports prodsums from the checkout's ``src`` and calls
``prodsums.cli.main`` (see ``child.py``).  One invocation runs

1. the replay child: the workload once through ``cli.main`` with one
   worker and spans at the once-per-operation boundaries, then stage by
   stage from the scalar public functions (outside the measured window);
2. timed children, one after another, until ``--seconds`` have passed
   (at least three);
3. set-up-only children until there are nine set-up samples.

Every operation (one clt row or one asclt kind run) of every timed child
is checked: on the default seed against the values recorded in
``reference.json``, on any other seed against the replay.  Counts must
match exactly and floats within 1e-9.  The serial CSV must equal every
timed CSV byte for byte, which on ``clt-rw-small-n`` is the worker-count
invariance check; it counts as one more operation.

Stdout ends with three JSON lines: the environment, the details
(percentiles, run counts, fail rate, failures) and the result, whose
metrics are the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Exit code 1 means the benchmark could not
run at all (for example, no ``src/prodsums`` next to it); then no result
is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, operations, replicates, steps, workload,
)

TOLERANCE = 1e-9
MIN_TIMED_RUNS = 3
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
COUNT_KEYS = (
    "distributions.paths", "limits.cdf_evals", "asclt.steps",
    "statistics.exact_steps", "streaming.gate_failures",
)


class Fatal(Exception):
    """The benchmark cannot run here; no result may be printed."""


class Children:
    """Starts child processes one at a time and waits for each.

    Used as a context manager, which owns the directory the children
    write their CSVs to.
    """

    def __init__(self, name: str, seed: int, tiny: bool):
        self.tmp = ROOT / ".perfbench_tmp"
        self.job = {"workload": name, "seed": seed, "tiny": tiny,
                    "out": str(self.tmp / f"{os.getpid()}.csv")}
        self.deadline = time.monotonic() + DEADLINE_S

    def __enter__(self):
        self.tmp.mkdir(exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, mode: str) -> dict:
        job = dict(self.job, t_spawn=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(job)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            proc.communicate()
            return {"error": f"{mode} child timed out"}
        if proc.returncode == 3:
            raise Fatal(err.strip())
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return {"error": f"{mode} child exited {proc.returncode}: {tail[0]}"}
        return json.loads(out.strip().splitlines()[-1])

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _agrees(value, expected) -> bool:
    if isinstance(expected, list):
        return (isinstance(value, list) and len(value) == len(expected)
                and all(map(_agrees, value, expected)))
    if isinstance(expected, float):
        return isinstance(value, float) and abs(value - expected) <= TOLERANCE
    return value == expected


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches of one operation's outputs: counts exact, floats within 1e-9."""
    if "error" in got:
        return [got["error"]]
    return [f"{key}: got {got.get(key)!r}, want {expected!r}"
            for key, expected in want.items() if not _agrees(got.get(key), expected)]


def check(w: dict, timed: list[dict], serial: dict | None, reference: list | None):
    """(attempted, failed, problems) over every timed operation plus the CSV match."""
    n_ops = operations(w)
    attempted = failed = 0
    problems = []
    # with no reference, the timed runs must agree with the first of them
    want = reference or next((r["ops"] for r in timed if "ops" in r), [])
    for run in timed:
        ops = run.get("ops", [])
        for i in range(n_ops):
            attempted += 1
            got = ops[i] if i < len(ops) else {"error": run.get("error", "missing operation")}
            bad = compare(got, want[i]) if i < len(want) else ["no reference"]
            if bad:
                failed += 1
                problems.append(f"operation {i}: {bad[0]}")
    attempted += 1
    csvs = {r.get("csv") for r in timed}
    if serial is None or "error" in serial or csvs != {serial.get("csv")}:
        failed += 1
        problems.append("the one-worker CSV differs from a timed run's CSV")
    return attempted, failed, problems


def summary(values: list[float]) -> dict:
    """Median and the highest value with at least ten runs beyond it."""
    v = sorted(values)
    # v[-11] has exactly ten runs above it
    p_hi, pct = (v[-11], 100.0 * (len(v) - 10) / len(v)) if len(v) >= 11 else (None, None)
    return {"median": statistics.median(v), "p_hi": p_hi, "p_hi_pct": pct, "runs": len(v)}


def end_to_end(w, timed, setups, attempted, failed) -> dict:
    run_s = statistics.median(r["run_s"] for r in timed if "run_s" in r)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "us_per_replicate": (run_s / replicates(w) * 1e6, "us"),
        "ns_per_step": (run_s / steps(w) * 1e9, "ns"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed if "peak_rss_mb" in r), "MB"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
    }


def replay_absent(replay: dict) -> dict:
    """Guard name -> reason, for every part of the replay that did not run."""
    if "error" in replay:  # the replay child itself failed
        return {part: replay["error"] for part in ("replay", "boundary", "serial")}
    return replay.get("absent", {})


def per_layer(w, replay, timed_run_s) -> dict:
    """Layer metrics from the replay; None marks a layer whose function is gone.

    0 means the workload does not exercise that layer.
    """
    absent = replay_absent(replay)
    spans = replay.get("spans", {})
    stage, probe, boundary = (spans.get(g, {}) for g in ("stage", "probe", "boundary"))
    counts = replay.get("counts", {})

    def sec(group, name):
        return group.get(name, [0.0, 0])[0]

    def calls(group, name):
        return group.get(name, [0.0, 0])[1]

    def per(group, name, scale, denom=None):
        n = calls(group, name) if denom is None else denom
        return sec(group, name) / n * scale if n else 0.0

    cdf = stage if "limits.limit_cdf" in stage else probe
    update_ns = per(stage, "streaming.update", 1e9)
    n_series = calls(stage, "streaming.update_series")
    stat_names = [k for k in stage if k.startswith("statistics.")]
    # the replay's wall time without its probes, which the pipeline lacks
    replay_s = replay.get("replay_s", 0.0) - sum(s for s, _ in probe.values())
    serial_s = (replay.get("serial") or {}).get("run_s", 0.0)
    clt_stages = ["distributions.sample", "montecarlo.ks_distance", *stat_names]
    asclt_stages = ["distributions.sample", "streaming.update", "streaming.update_series",
                    "statistics.exact", "asclt.accumulate", "limits.limit_cdf"]
    asclt_steps = calls(stage, "asclt.accumulate")
    m = {
        "distributions.us_per_path": (per(stage, "distributions.sample", 1e6), "us"),
        "distributions.ns_per_draw": (
            per(stage, "distributions.sample", 1e9, counts.get("distributions.draws", 0)), "ns"),
        "distributions.paths": (calls(stage, "distributions.sample"), "count"),
        "distributions.share": (sec(stage, "distributions.sample") / replay_s if replay_s else 0.0, "ratio"),
    }
    for fn in ("loo_log_statistic", "rw_log_statistic", "remainder_magnitude",
               "max_relative_deviation"):
        m[f"statistics.{fn}.us_per_call"] = (per(stage, f"statistics.{fn}", 1e6), "us")
    m.update({
        "statistics.share": (
            sum(sec(stage, k) for k in stat_names) / replay_s if replay_s else 0.0, "ratio"),
        "statistics.exact_steps": (calls(stage, "statistics.exact"), "count"),
        "statistics.exact_s": (sec(stage, "statistics.exact"), "s"),
        "streaming.update_ns_per_draw": (update_ns, "ns"),
        "streaming.series_ns_per_query": (
            (sec(stage, "streaming.update_series") * 1e9 - n_series * update_ns) / n_series
            if n_series else 0.0, "ns"),
        "streaming.gate_failures": (counts.get("streaming.gate_failures", 0), "count"),
        "asclt.accumulate_ns_per_step": (per(stage, "asclt.accumulate", 1e9), "ns"),
        "asclt.loop_self_ns_per_step": (
            (sec(boundary, "asclt.run_asclt_path") - sum(sec(stage, k) for k in asclt_stages))
            / asclt_steps * 1e9 if asclt_steps else 0.0, "ns"),
        "asclt.steps": (asclt_steps, "count"),
        "limits.cdf_evals": (calls(cdf, "limits.limit_cdf"), "count"),
        "limits.cdf_ns_per_eval": (per(cdf, "limits.limit_cdf", 1e9), "ns"),
        "limits.grid_s": (per(probe, "limits.default_grid", 1.0), "s"),
        "montecarlo.ks_ms_per_row": (per(stage, "montecarlo.ks_distance", 1e3), "ms"),
        "montecarlo.self_s": (
            sec(boundary, "montecarlo.run_clt_experiment") - sum(sec(stage, k) for k in clt_stages)
            if "montecarlo.run_clt_experiment" in boundary else 0.0, "s"),
        "montecarlo.parallel_efficiency": (
            serial_s / (w["workers"] * timed_run_s)
            if w.get("workers", 1) > 1 and timed_run_s else 0.0, "ratio"),
        "cli.write_ms": (sec(boundary, "cli.to_csv") * 1e3, "ms"),
        "cli.csv_bytes": (len((replay.get("serial") or {}).get("csv", "").encode()), "count"),
        "trace_overhead": (replay_s / serial_s if serial_s else 0.0, "ratio"),
    })
    # which guard, when tripped, takes which metrics with it
    lost = {
        "replay": [k for k in m if not k.startswith("cli.")],
        "boundary": ["cli.write_ms", "montecarlo.self_s", "asclt.loop_self_ns_per_step"],
        "serial": ["cli.csv_bytes", "montecarlo.parallel_efficiency", "trace_overhead"],
        "statistics.remainder_magnitude": ["statistics.remainder_magnitude.us_per_call"],
        "statistics.max_relative_deviation": ["statistics.max_relative_deviation.us_per_call"],
        "limits.limit_cdf": ["limits.cdf_evals", "limits.cdf_ns_per_eval"],
        "limits.default_grid": ["limits.grid_s"],
        "streaming.update": ["streaming.update_ns_per_draw", "streaming.series_ns_per_query"],
    }
    for guard in absent:
        for k in lost.get(guard, []):
            m[k] = (None, m[k][1])
    return m


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment(numpy_version) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    # a checkout without git history still identifies its sources
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy_version, "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_reference(name: str) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["workloads"][name]


def benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> list[dict]:
    """Run one invocation; returns the environment, detail and result objects."""
    if not (ROOT / "src" / "prodsums" / "__init__.py").is_file():
        raise Fatal(f"no prodsums sources under {ROOT / 'src'}")
    w = workload(name, tiny)
    load_start = read_loadavg()
    with Children(name, seed, tiny) as children:
        replay = children.run("replay")
        setups = [replay["setup_s"]] if "setup_s" in replay else []
        timed = []
        start = time.monotonic()
        while (time.monotonic() - start < seconds or len(timed) < MIN_TIMED_RUNS) \
                and children.time_left() > 0:
            timed.append(children.run("timed"))
        setups += [r["setup_s"] for r in timed if "setup_s" in r]
        while len(setups) < SETUP_SAMPLES and children.time_left() > 0:
            probe = children.run("setup")
            if "setup_s" not in probe:
                break
            setups.append(probe["setup_s"])

    recorded = None if tiny or seed != DEFAULT_SEED else load_reference(name)
    reference = recorded["ops"] if recorded else replay.get("ops")
    attempted, failed, problems = check(w, timed, replay.get("serial"), reference)
    run_times = [r["run_s"] for r in timed if "run_s" in r]
    if not run_times or not setups:
        raise Fatal(f"no timed run completed: {problems[:1]}")
    timed_median = statistics.median(run_times)
    layers = per_layer(w, replay, timed_median)
    metrics = layers if trace else end_to_end(w, timed, setups, attempted, failed)
    counts = {k: layers[k][0] for k in COUNT_KEYS}
    env = dict(environment(replay.get("numpy")), loadavg_start=load_start,
               loadavg_end=read_loadavg())
    detail = {
        "workload": name, "seed": seed, "tiny": tiny, "trace": trace,
        "reference": "recorded" if recorded else ("replay" if replay.get("ops") else "none"),
        "run_s": summary(run_times), "setup_s": summary(setups),
        "fail_rate": failed / attempted, "failures": problems[:5],
        "absent": replay_absent(replay),
        "counts": counts,
        "counts_repeat": counts == recorded["counts"] if recorded else None,
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return [{"env": env}, {"detail": detail}, result]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 unsigned bits")
    try:
        lines = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for obj in lines:
        print(json.dumps(obj))
    return 0


if __name__ == "__main__":
    sys.exit(main())
