"""One child process of the benchmark: a set-up probe, a timed run, or the replay.

    python3 perfbench/child.py <setup|timed|replay> '<job json>'

The job names the workload, the seed, the tiny flag, the CSV path and the
parent's monotonic clock reading taken just before it started this
process, so ``setup_s`` covers interpreter start, importing prodsums,
parsing the spec and building the config or the ASCLT grid.

* ``setup`` stops after set-up.
* ``timed`` then runs the workload's ``prodsums.cli.main`` calls with no
  tracing and reports their wall time, peak RSS and parsed outputs.
* ``replay`` runs the workload serially through ``cli.main`` with spans at
  the once-per-operation boundaries (``run_clt_experiment``,
  ``run_asclt_path``, ``to_csv``), then replays it stage by stage from the
  scalar public functions, timing each stage as one batch of calls and
  counting the calls.  The replay's outputs are the reference for seeds
  without recorded values.  A stage whose public function is gone is
  reported as absent instead of failing the child.

The last line of stdout is one JSON object.  Exit code 3 means prodsums
could not be imported from the checkout's ``src`` directory.
"""

import time  # first, so nothing below escapes the set-up clock

import contextlib
import csv
import io
import json
import os
import re
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
from workloads import cli_calls, operations, workload  # noqa: E402

# raised when a public function the replay calls is gone or changed its signature
MISSING = (AttributeError, ImportError, TypeError)

CHUNK_BYTES = 1 << 18

_SERIES_RE = re.compile(r"series from n=(\w+) fallbacks=(\d+)")


def _import_prodsums():
    sys.path.insert(0, SRC)
    try:
        import prodsums
    except ImportError as exc:
        print(f"perfbench: cannot import prodsums from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not os.path.abspath(prodsums.__file__).startswith(SRC + os.sep):
        print(f"perfbench: prodsums was imported from {prodsums.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(3)


def setup(w, seed):
    """What a user does before the first workload call; returns the cli module."""
    _import_prodsums()
    from prodsums import cli

    spec = cli.parse_dist(w["dist"])
    if w["command"] == "clt":
        from prodsums.montecarlo import ExperimentConfig

        ExperimentConfig(spec=spec, kind=w["kinds"][0], n_list=tuple(w["n"]),
                         reps=w["reps"], base_seed=seed, workers=w["workers"])
    else:
        from prodsums.asclt import default_grid

        default_grid()
    return cli


def parse_outputs(w, csv_text, stderr_text):
    """The checked outputs of one cli.main call, one dict per operation."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if w["command"] == "clt":
        return [
            {"n": int(r["n"]), "M": int(r["M"]), "ks": float(r["ks"]),
             "mean": float(r["mean"]), "sd": float(r["sd"])}
            for r in rows
        ]
    match = _SERIES_RE.search(stderr_text)
    if not rows or match is None:
        raise ValueError("asclt output lacks its grid rows or its mode line")
    return [{
        "A_N": [float(r["A_N"]) for r in rows],
        "sup_gap": max(abs(float(r["gap"])) for r in rows),
        "mode_switch_n": None if match[1] == "None" else int(match[1]),
        "fallback_count": int(match[2]),
    }]


def run_calls(cli, w, seed, out, workers=None):
    """Run the workload's cli.main calls; only the calls themselves are timed."""
    run_s = 0.0
    ops, texts = [], []
    per_call = operations(w) if w["command"] == "clt" else 1
    for argv in cli_calls(w, seed, out, workers):
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a dead child
            rc = f"{type(exc).__name__}: {exc}"
        run_s += time.perf_counter() - t0
        if rc != 0:
            ops += [{"error": f"cli.main returned {rc}"}] * per_call
            continue
        with open(out) as fh:
            text = fh.read()
        texts.append(text)
        try:
            got = parse_outputs(w, text, err.getvalue())
        except (ValueError, KeyError) as exc:
            got = [{"error": f"unreadable output: {exc}"}] * per_call
        ops += got
    return {"run_s": run_s, "ops": ops, "csv": "".join(texts)}


class Trace:
    """Batch spans and counts, kept in memory and returned as JSON."""

    def __init__(self):
        self.spans = {"boundary": {}, "stage": {}, "probe": {}}
        self.counts = {}
        self.absent = {}

    def add(self, group, name, seconds, calls):
        s = self.spans[group].setdefault(name, [0.0, 0])
        s[0] += seconds
        s[1] += calls

    @contextlib.contextmanager
    def span(self, group, name, calls):
        t0 = time.perf_counter()
        yield
        self.add(group, name, time.perf_counter() - t0, calls)

    @contextlib.contextmanager
    def guard(self, name):
        try:
            yield
        except MISSING as exc:
            self.absent[name] = f"{type(exc).__name__}: {exc}"

    def wrap(self, owner, attr, name):
        """Time every call of owner.attr; returns the function that undoes it."""
        orig = getattr(owner, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.add("boundary", name, time.perf_counter() - t0, 1)

        setattr(owner, attr, timed)
        return lambda: setattr(owner, attr, orig)


def _replay_clt(w, seed, tr):
    import numpy as np
    from prodsums import distributions as D, limits as L, montecarlo as MC, statistics as S
    from prodsums.cli import parse_dist

    spec = parse_dist(w["dist"])
    mu, _sigma, gam = D.moments(spec)
    kind, m = w["kinds"][0], w["reps"]
    stat_name = f"{kind}_log_statistic"
    stat = getattr(S, stat_name)
    law = L.LimitLaw("n01" if kind == "loo" else "n02")
    ops = []
    for i, n in enumerate(w["n"]):
        # stages run over chunks of paths small enough to stay in cache, as
        # the pipeline's per-replicate loop does; each chunk is one batch
        chunk = max(1, CHUNK_BYTES // (8 * n))
        vals = np.empty(m)
        for r0 in range(0, m, chunk):
            rs = range(r0, min(r0 + chunk, m))
            with tr.span("stage", "distributions.sample", len(rs)):
                # stream index i * 2**32 + r, as documented in prodsums.montecarlo
                paths = [D.sample(spec, n, seed, (i << 32) + r).values for r in rs]
            with tr.span("stage", f"statistics.{stat_name}", len(rs)):
                vals[r0:r0 + len(rs)] = [stat(v, mu, gam) for v in paths]
            if kind == "loo":
                with tr.guard("statistics.remainder_magnitude"):
                    f = S.remainder_magnitude
                    with tr.span("stage", "statistics.remainder_magnitude", len(rs)):
                        [f(v, mu, gam) for v in paths]
                with tr.guard("statistics.max_relative_deviation"):
                    f = S.max_relative_deviation
                    with tr.span("stage", "statistics.max_relative_deviation", len(rs)):
                        [f(v, mu) for v in paths]
        tr.counts["distributions.draws"] = tr.counts.get("distributions.draws", 0) + m * n
        with tr.span("stage", "montecarlo.ks_distance", 1):
            ks = MC.ks_distance(MC.empirical_cdf(vals), law)
        ops.append({
            "n": n, "M": m, "ks": ks, "mean": float(np.mean(vals)),
            "sd": float(np.std(vals, ddof=1)) if m > 1 else 0.0,
        })
        with tr.guard("limits.limit_cdf"):
            cdf = L.limit_cdf
            xs = np.sort(vals)
            with tr.span("probe", "limits.limit_cdf", m):
                [cdf(law, x) for x in xs]
    return ops


def _replay_asclt(w, seed, tr):
    import numpy as np
    from prodsums import asclt as A, distributions as D, limits as L
    from prodsums import statistics as S, streaming as ST
    from prodsums.cli import parse_dist

    spec = parse_dist(w["dist"])
    mu, _sigma, gam = D.moments(spec)
    n_max = w["N"]
    cutoff = min(w["exact_cutoff"], n_max)
    grid = A.default_grid()
    ops = []
    for kind in w["kinds"]:
        with tr.span("stage", "distributions.sample", 1):
            v = D.sample(spec, n_max, seed, 0).values
        tr.counts["distributions.draws"] = tr.counts.get("distributions.draws", 0) + n_max
        xs = v.tolist()
        t = [0.0] * (n_max + 1)  # t[n]: the statistic of the first n draws
        invalid = []
        mode_switch = None
        if kind == "rw":
            # the rw statistic below does not need the state, so only the
            # streaming metrics depend on this stage
            with tr.guard("streaming.update"):
                update = ST.init_state(mu).update
                with tr.span("stage", "streaming.update", n_max):
                    for x in xs:
                        update(x)
            with tr.span("stage", "asclt.rw_statistic", n_max):
                # extended-precision prefix sums stand in for the runner's
                # compensated running sums
                k = np.arange(1, n_max + 1, dtype=float)
                s = np.cumsum(v, dtype=np.longdouble)
                terms = np.log1p(((s - k * mu) / (k * mu)).astype(float))
                running = np.cumsum(terms, dtype=np.longdouble).astype(float)
                t[1:] = (running / (gam * np.sqrt(k))).tolist()
        else:
            loo = S.loo_log_statistic
            state = ST.init_state(mu)
            update = state.update
            with tr.span("stage", "streaming.update", cutoff):
                for x in xs[:cutoff]:
                    update(x)
            with tr.span("stage", "statistics.exact", cutoff - 1):
                for n in range(2, cutoff + 1):
                    t[n] = loo(v[:n], mu, gam)
            series = ST.loo_log_series
            with tr.span("stage", "streaming.update_series", n_max - cutoff):
                for n in range(cutoff + 1, n_max + 1):
                    update(xs[n - 1])
                    t[n], valid = series(state, gam)
                    if not valid:
                        invalid.append(n)
            with tr.span("stage", "statistics.exact", len(invalid)):
                for n in invalid:
                    t[n] = loo(v[:n], mu, gam)
            skipped = set(invalid)
            mode_switch = next(
                (n for n in range(cutoff + 1, n_max + 1) if n not in skipped), None
            )
        tr.counts["streaming.gate_failures"] = (
            tr.counts.get("streaming.gate_failures", 0) + len(invalid)
        )
        acc = A.LogAvgAccumulator(grid)
        accumulate = acc.accumulate
        with tr.span("stage", "asclt.accumulate", n_max - 1):
            for n in range(2, n_max + 1):
                accumulate(n, t[n])
        a = acc.evaluate()
        law = L.LimitLaw("n02" if kind == "rw" else "n01")
        with tr.span("stage", "limits.limit_cdf", grid.size):
            f = np.array([L.limit_cdf(law, x) for x in acc.grid])
        ops.append({
            "A_N": a.tolist(), "sup_gap": float(np.max(np.abs(a - f))),
            "mode_switch_n": mode_switch, "fallback_count": len(invalid),
        })
    with tr.guard("limits.default_grid"):
        with tr.span("probe", "limits.default_grid", 5):
            for _ in range(5):
                A.default_grid()
    return ops


def replay(cli, w, seed, out):
    """The serial boundary-traced run, then the stage-by-stage replay."""
    # a tiny run first, so one-off first-call costs land in no span
    run_calls(cli, workload(w["name"], tiny=True), seed, out, workers=1)
    tr = Trace()
    undo = []
    with tr.guard("boundary"):
        from prodsums import asclt, montecarlo

        if w["command"] == "clt":
            undo.append(tr.wrap(cli, "run_clt_experiment", "montecarlo.run_clt_experiment"))
            undo.append(tr.wrap(montecarlo.ConvergenceReport, "to_csv", "cli.to_csv"))
        else:
            undo.append(tr.wrap(cli, "run_asclt_path", "asclt.run_asclt_path"))
            undo.append(tr.wrap(asclt.AscltReport, "to_csv", "cli.to_csv"))
    try:
        serial = run_calls(cli, w, seed, out, workers=1)
    finally:
        for f in undo:
            f()
    ops = None
    t0 = time.perf_counter()
    with tr.guard("replay"):
        ops = (_replay_clt if w["command"] == "clt" else _replay_asclt)(w, seed, tr)
    replay_s = time.perf_counter() - t0
    return {
        "serial": serial, "ops": ops, "replay_s": replay_s,
        "spans": tr.spans, "counts": tr.counts, "absent": tr.absent,
    }


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0  # Linux reports kilobytes


def main():
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    w = workload(job["workload"], job["tiny"])
    cli = setup(w, job["seed"])
    result = {"setup_s": time.monotonic() - job["t_spawn"]}
    if mode == "timed":
        result.update(run_calls(cli, w, job["seed"], job["out"]))
        result["peak_rss_mb"] = _peak_rss_mb()
    elif mode == "replay":
        import numpy

        result.update(replay(cli, w, job["seed"], job["out"]))
        result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
