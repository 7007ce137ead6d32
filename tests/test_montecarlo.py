import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import prodsums
import prodsums.montecarlo as montecarlo_module
from prodsums.cli import main as cli_main
from prodsums import (
    STATISTIC_KINDS,
    ExperimentConfig,
    LimitLaw,
    empirical_cdf,
    limit_cdf,
    ks_distance,
    make_distribution,
    moments,
    normal_cdf,
    normal_quantile,
    run_clt_experiment,
    run_slln_experiment,
    sample,
    sample_rows,
    standardized_sum,
)

EXP1 = make_distribution("exponential", [1.0])

KS_NEG1_0_1 = 0.17467807940187628  # 60-digit oracle: 1/3 - Phi(-1)


class TestEmpiricalCdf:
    def test_sorting_and_evaluation(self):
        emp = empirical_cdf([3.0, 1.0, 2.0])
        assert np.array_equal(emp.sorted_values, [1.0, 2.0, 3.0])
        assert emp.evaluate(2.0) == pytest.approx(2.0 / 3.0)

    def test_single_value(self):
        emp = empirical_cdf([4.0])
        assert emp.evaluate(3.999) == 0.0
        assert emp.evaluate(4.0) == 1.0

    def test_ties_counted_leq(self):
        emp = empirical_cdf([1.0, 1.0, 2.0])
        assert emp.evaluate(1.0) == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            empirical_cdf([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        # a NaN would otherwise sort last and give a NaN KS distance
        with pytest.raises(ValueError, match="finite values, got 1 NaN or infinite"):
            empirical_cdf([0.1, bad])


class TestKsDistance:
    def test_single_zero_vs_normal(self):
        assert ks_distance(empirical_cdf([0.0]), LimitLaw("n01")) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_frozen_three_point(self):
        got = ks_distance(empirical_cdf([-1.0, 0.0, 1.0]), LimitLaw("n01"))
        assert got == pytest.approx(KS_NEG1_0_1, abs=1e-13)

    def test_half_step_construction(self):
        m = 100
        qs = [normal_quantile((i - 0.5) / m) for i in range(1, m + 1)]
        assert ks_distance(empirical_cdf(qs), LimitLaw("n01")) == pytest.approx(
            0.005, abs=1e-10
        )

    def test_point_mass_all_below(self):
        assert ks_distance(empirical_cdf([1.0, 2.0]), LimitLaw("point", 5.0)) == 1.0

    def test_kolmogorov_sanity(self):
        # draws from the law itself: the 99th-percentile threshold
        # 1.63/sqrt(M) is exceeded in at most ~1% of trials (DKW bound)
        m, trials, fails = 200, 1000, 0
        thresh = 1.63 / math.sqrt(m)
        law = LimitLaw("n01")
        rng = np.random.default_rng(0)
        for _ in range(trials):
            if ks_distance(empirical_cdf(rng.standard_normal(m)), law) > thresh:
                fails += 1
        assert fails <= 10

    @pytest.mark.parametrize("law,scale", [
        (LimitLaw("n01"), 1.0), (LimitLaw("n02"), math.sqrt(2.0)),
        (LimitLaw("expnorm"), 1.0), (LimitLaw("expsqrt2"), math.sqrt(2.0)),
        (LimitLaw("point", 1.0), 1.0),
    ])
    def test_matches_pointwise_reference(self, law, scale):
        # the per-point loop the single array evaluation replaced
        z = scale * np.random.default_rng(3).standard_normal(5000)
        if law.tag.startswith("exp"):
            z = np.exp(z)
        elif law.tag == "point":
            z = np.round(z, 1) + 1.0  # ties with the atom
        emp = empirical_cdf(z)
        v, m = emp.sorted_values, z.size
        f = np.array([limit_cdf(law, x) for x in v])
        i = np.arange(1, m + 1, dtype=float)
        want = float(max(np.max(i / m - f), np.max(f - (i - 1.0) / m)))
        assert ks_distance(emp, law) == want

    def test_one_law_evaluation(self, monkeypatch):
        calls = []

        def counting(law, x):
            calls.append(np.shape(x))
            return limit_cdf(law, x)

        monkeypatch.setattr(montecarlo_module, "limit_cdf", counting)
        ks_distance(empirical_cdf(np.linspace(-2.0, 2.0, 1000)), LimitLaw("n01"))
        assert calls == [(1000,)]


class TestConfigValidation:
    def test_valid(self):
        cfg = ExperimentConfig(EXP1, "loo", (10, 100), 5, 0)
        assert cfg.n_list == (10, 100)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            ExperimentConfig(EXP1, "bogus", (10,), 5, 0)
        with pytest.raises(ValueError, match="unknown statistic"):
            ExperimentConfig(EXP1, ["loo"], (10,), 5, 0)

    def test_nonincreasing_n(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentConfig(EXP1, "std", (10, 10), 5, 0)

    def test_loo_needs_two(self):
        with pytest.raises(ValueError, match="n >= 2"):
            ExperimentConfig(EXP1, "loo", (1, 10), 5, 0)
        ExperimentConfig(EXP1, "std", (1, 10), 5, 0)  # fine for prefix kinds

    def test_bad_counts(self):
        with pytest.raises(ValueError, match="reps"):
            ExperimentConfig(EXP1, "std", (10,), 0, 0)
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(EXP1, "std", (10,), 5, 0, workers=0)

    def test_law_must_match_kind(self):
        ExperimentConfig(EXP1, "loo", (10,), 5, 0, compare_law=LimitLaw("expnorm"))
        with pytest.raises(ValueError, match="not a limit of kind"):
            ExperimentConfig(EXP1, "rw", (10,), 5, 0, compare_law=LimitLaw("expnorm"))
        with pytest.raises(ValueError, match="not a limit of kind"):
            ExperimentConfig(
                EXP1, "std", (10,), 5, 0, compare_law=LimitLaw("point", 1.0)
            )


class TestDefaultLaws:
    def test_mapping(self):
        def law(kind):
            return run_clt_experiment(ExperimentConfig(EXP1, kind, (2,), 2, 0)).law

        assert law("loo") == LimitLaw("n01")
        assert law("lin") == LimitLaw("n01")
        assert law("std") == LimitLaw("n01")
        assert law("rw") == LimitLaw("n02")
        assert law("gm-prefix") == LimitLaw("point", 1.0)
        assert law("gm-loo") == LimitLaw("point", 1.0)


class TestRunCltExperiment:
    def test_degenerate_single_replicate(self):
        cfg = ExperimentConfig(EXP1, "std", (2,), 1, base_seed=4)
        report = run_clt_experiment(cfg)
        t = standardized_sum(sample(EXP1, 2, 4, 0), 1.0, 1.0)
        want = max(1.0 - normal_cdf(t), normal_cdf(t))
        assert report.rows[0].ks == pytest.approx(want, abs=1e-14)

    def test_row_structure(self):
        cfg = ExperimentConfig(EXP1, "loo", (10, 50), 40, 0)
        report = run_clt_experiment(cfg)
        assert [r.n for r in report.rows] == [10, 50]
        for row in report.rows:
            assert 0.0 <= row.ks <= 1.0
            assert row.reps == 40
            assert math.isfinite(row.mean_remainder)
            assert math.isfinite(row.mean_maxdev)
            assert row.seconds >= 0.0

    def test_diagnostics_only_for_loo(self):
        cfg = ExperimentConfig(EXP1, "std", (10,), 10, 0)
        row = run_clt_experiment(cfg).rows[0]
        assert math.isnan(row.mean_remainder) and math.isnan(row.mean_maxdev)

    def test_log_product_scale_equivalence(self):
        log_cfg = ExperimentConfig(EXP1, "loo", (50,), 200, 7)
        prod_cfg = ExperimentConfig(
            EXP1, "loo", (50,), 200, 7, compare_law=LimitLaw("expnorm")
        )
        ks_log = run_clt_experiment(log_cfg).rows[0].ks
        ks_prod = run_clt_experiment(prod_cfg).rows[0].ks
        assert abs(ks_log - ks_prod) <= 1e-12

    def test_workers_bit_identical(self, monkeypatch):
        fds = _open_fds()
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        # 5 reps make shares of 1, 2 and 2 at 3 workers; 1 rep runs in one process
        for kind, reps in itertools.product(("loo", "rw"), (64, 5, 1)):
            csv = set()
            for workers in (1, 2, 3):
                buf = io.StringIO()
                cfg = ExperimentConfig(EXP1, kind, (20, 60), reps, 11, workers=workers)
                run_clt_experiment(cfg).to_csv(buf)
                csv.add(buf.getvalue())
                assert len(forks) == min(workers, reps) - 1
                forks.clear()
            assert len(csv) == 1, (kind, reps)
        _assert_no_child_left(fds)

    def test_one_fork_join_per_experiment(self, monkeypatch):
        fds = _open_fds()
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        csv, counts = {}, []
        for workers in (1, 2):
            buf = io.StringIO()
            cfg = ExperimentConfig(EXP1, "loo", (10, 30, 90), 40, 5, workers=workers)
            run_clt_experiment(cfg).to_csv(buf)
            csv[workers] = buf.getvalue()
            counts.append(len(forks))
            forks.clear()
        assert counts == [0, 1]  # one child for all three rows at 2 workers, none at 1
        assert csv[1] == csv[2]
        _assert_no_child_left(fds)

    @pytest.mark.parametrize("affinity, cpu_count, can_fork, processes", [
        ({0, 1, 2}, 8, True, [1, 2, 3, 2, 3]),   # the CPUs it may run on, not the machine's
        ({5}, 8, True, [1, 1, 1, 1, 1]),         # a cpuset of one CPU forks nothing
        (None, 3, True, [1, 2, 3, 2, 3]),        # no affinity call: the machine's CPUs
        (None, None, True, [1, 1, 1, 1, 1]),     # not even those: one
        ({0, 1, 2}, 8, False, [1, 1, 1, 1, 1]),  # no os.fork: one
    ], ids=["affinity", "cpuset-of-one", "no-affinity", "no-cpu-count", "no-fork"])
    def test_processes_are_capped(self, monkeypatch, affinity, cpu_count, can_fork, processes):
        fds = _open_fds()
        forks = _count_forks(monkeypatch, limit=2)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if not can_fork:
            monkeypatch.delattr(os, "fork")
        got, csv = [], set()
        # (reps, workers): no more processes than reps
        for reps, workers in [(40, 1), (40, 2), (40, 100_000_000), (2, 8), (40, 8)]:
            buf = io.StringIO()
            run_clt_experiment(ExperimentConfig(EXP1, "loo", (10, 30), reps, 5, workers=workers)).to_csv(buf)
            got.append(1 + len(forks))
            forks.clear()
            csv.add((reps, buf.getvalue()))
        assert got == processes
        assert len(csv) == 2  # one CSV per reps, whatever the worker count
        _assert_no_child_left(fds)

    def test_row_seconds_sum_task_times(self, monkeypatch):
        # a clock that advances one second a reading times every share at
        # exactly 1 s, in this process and in the forked ones alike
        fds = _open_fds()
        clock = itertools.count()
        monkeypatch.setattr(montecarlo_module, "time",
                            types.SimpleNamespace(perf_counter=lambda: float(next(clock))))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for workers in (1, 2):  # one share of each row per process
            rows = run_clt_experiment(ExperimentConfig(EXP1, "rw", (10, 30), 40, 5, workers=workers)).rows
            assert [r.seconds for r in rows] == [workers, workers]
        _assert_no_child_left(fds)

    def test_no_command_loads_pool_code(self, tmp_path):
        # a fresh interpreter, since this one may have imported the pool
        # modules; 2 cores patched in, so the clt run at 2 workers forks
        out = tmp_path / "o.csv"
        codes, forks, loaded = _fresh_python(f"""
import os
from prodsums.cli import main
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
os.sched_getaffinity = lambda pid: {{0, 1}}
runs = [
    ["clt", "--dist", "exponential:1", "--stat", "loo", "--n", "10,50", "--reps", "20"],
    ["clt", "--dist", "exponential:1", "--stat", "rw", "--n", "10,50", "--reps", "20",
     "--workers", "2"],
    ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "500"],
    ["slln", "--dist", "exponential:1", "--n", "10,500"],
    ["dist-table"],
]
codes = [main([*run, "--out", {str(out)!r}]) for run in runs]
codes.append(main(["identity", "--dist", "exponential:1", "--n", "10", "--reps", "5"]))
result = codes, len(forks), [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
""")
        assert codes == [0] * 6
        assert forks == 1
        assert loaded == []

    def test_forks_after_the_sampler_is_loaded(self):
        # the children inherit numpy.random instead of each importing it
        before, at_fork = _fresh_python("""
import os
from prodsums import ExperimentConfig, make_distribution, run_clt_experiment
fork, at_fork = os.fork, []
os.fork = lambda: at_fork.append("numpy.random" in sys.modules) or fork()
os.sched_getaffinity = lambda pid: {0, 1}
before = "numpy.random" in sys.modules
run_clt_experiment(ExperimentConfig(make_distribution("exponential", [1.0]), "loo", (10,), 8, 0,
                                    workers=2))
result = before, at_fork
""")
        assert not before  # importing the package leaves the sampler unloaded
        assert at_fork == [True]

    def test_peak_memory_of_long_replicates(self):
        # the replicates are evaluated in batches of about 256 KiB of
        # draws, so the traced peak stays far below all 150 paths (12 MB)
        cfg = ExperimentConfig(EXP1, "loo", (10_000,), 150, 0)
        run_clt_experiment(ExperimentConfig(EXP1, "loo", (10,), 2, 0))  # first-call caches
        tracemalloc.start()
        try:
            run_clt_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_peak_memory_of_many_rows(self, monkeypatch):
        # each row is reduced before the next is drawn, so six rows peak
        # where one does; the blocks of one row alone are 3 * 8 * 20000 B
        fds = _open_fds()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_clt_experiment(ExperimentConfig(EXP1, "rw", (10,), 2, 0))  # first-call caches

        def peak(ns, workers):
            tracemalloc.start()
            try:
                run_clt_experiment(ExperimentConfig(EXP1, "rw", ns, 20_000, 0, workers=workers))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for workers in (1, 2):
            assert peak((10, 11, 12, 13, 14, 15), workers) <= peak((10,), workers) + 2**17, workers
        _assert_no_child_left(fds)

    @pytest.mark.parametrize("tag", list(STATISTIC_KINDS))
    def test_batches_reuse_one_workspace(self, tag, monkeypatch):
        # n = 1000 makes batches of 32 rows, so 70 replicates end in a
        # partial batch; gamma:0.05:1 has dominant draws
        spec = make_distribution("gamma", [0.05, 1.0])
        mu, sigma, gam = moments(spec)
        outs = []

        def recording(spec, n, base_seed, indices, out=None):
            outs.append(out)
            return sample_rows(spec, n, base_seed, indices, out)

        monkeypatch.setattr(montecarlo_module, "sample_rows", recording)
        got, secs = montecarlo_module._replicate_block((spec, tag, 1000, 3, 1, 5, 75))
        assert secs > 0.0
        assert [len(o) for o in outs] == [32, 32, 6]
        assert all(np.shares_memory(o, outs[0]) for o in outs)
        paths = sample_rows(spec, 1000, 3, range((1 << 32) + 5, (1 << 32) + 75))
        want = STATISTIC_KINDS[tag].evaluate(paths, mu, sigma, gam)
        assert np.asarray(want).tobytes() == got.tobytes()

    def test_csv_schema(self):
        cfg = ExperimentConfig(EXP1, "rw", (5, 25), 10, 0)
        buf = io.StringIO()
        run_clt_experiment(cfg).to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,M,ks,mean,sd,mean_remainder,mean_maxdev,seconds"
        assert len(lines) == 3
        assert lines[1].endswith(",0.000000")  # timing zeroed by default

    def test_csv_with_timing(self):
        cfg = ExperimentConfig(EXP1, "std", (100,), 50, 0)
        report = run_clt_experiment(cfg)
        buf = io.StringIO()
        report.to_csv(buf, timing=True)
        secs = float(buf.getvalue().strip().split("\n")[1].split(",")[-1])
        assert secs == pytest.approx(report.rows[0].seconds, abs=1e-6)
        assert secs > 0.0

    def test_remainder_scales_like_inverse_sqrt_n(self):
        cfg = ExperimentConfig(EXP1, "loo", (100, 400), 100, 2)
        rows = run_clt_experiment(cfg).rows
        gam = moments(EXP1)[2]
        for row in rows:
            assert 0.5 <= row.mean_remainder / (gam / math.sqrt(row.n)) <= 2.0

    def test_geometric_mean_kind_vs_point_mass(self):
        cfg = ExperimentConfig(EXP1, "gm-prefix", (200,), 50, 1)
        row = run_clt_experiment(cfg).rows[0]
        # gm values concentrate near mu = 1 but none equals it exactly,
        # so the KS distance against the step CDF is large at finite n
        assert 0.0 < row.ks <= 1.0
        assert row.mean == pytest.approx(1.0, abs=0.2)


class TestRunSllnExperiment:
    def test_near_degenerate_twopoint(self):
        c = 2.0
        spec = make_distribution("twopoint", [c - 1e-9, c + 1e-9, 0.5])
        report = run_slln_experiment(spec, (10, 100), 0)
        for row in report.rows:
            assert row.gm_prefix == pytest.approx(c, rel=1e-8)
            assert row.gm_loo == pytest.approx(c, rel=1e-8)

    def test_errors_recorded(self):
        report = run_slln_experiment(EXP1, (100, 1000), 3)
        for row in report.rows:
            assert row.err_prefix == abs(row.gm_prefix - 1.0)
            assert row.err_loo == abs(row.gm_loo - 1.0)

    def test_csv_schema(self):
        buf = io.StringIO()
        run_slln_experiment(EXP1, (10, 20), 0).to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "n,gm_prefix,err_prefix,gm_loo,err_loo"
        assert len(lines) == 3

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            run_slln_experiment(EXP1, (100, 100), 0)
        with pytest.raises(ValueError, match="n >= 2"):
            run_slln_experiment(EXP1, (1, 10), 0)


class TestForkJoinFailures:
    """Each run has 2 cores patched in, so it forks one child that runs the
    second half of each row's replicates while this process runs the first."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fds = _open_fds()
        yield fds
        _assert_no_child_left(fds)

    @staticmethod
    def _in_child(monkeypatch, action, in_parent=None, row=0):
        """Make ``_replicate_block`` run ``action`` in a forked child from its
        share of row index ``row`` on, and ``in_parent`` (or the real block) in this process."""
        parent, block = os.getpid(), montecarlo_module._replicate_block

        def patched(task):
            if os.getpid() != parent:
                if task[4] >= row:  # the task's row index
                    action()
            elif in_parent is not None:
                in_parent()
            return block(task)

        monkeypatch.setattr(montecarlo_module, "_replicate_block", patched)

    def test_child_exception_is_raised_again(self, monkeypatch):
        def fail():
            raise ValueError("bad task in a child")

        self._in_child(monkeypatch, fail)
        with pytest.raises(ValueError, match=r"^bad task in a child$"):
            run_clt_experiment(ExperimentConfig(EXP1, "rw", (10, 30), 40, 5, workers=2))

    def test_child_exception_is_a_cli_error(self, monkeypatch, capsys):
        def fail():
            raise ValueError("bad task in a child")

        self._in_child(monkeypatch, fail)
        code = cli_main(["clt", "--dist", "exponential:1", "--stat", "rw", "--n", "10,30",
                         "--reps", "40", "--workers", "2"])
        assert code == 1
        assert "error: bad task in a child" in capsys.readouterr().err

    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
    def test_child_killed_by_a_signal(self, monkeypatch, sig):
        self._in_child(monkeypatch, lambda: os.kill(os.getpid(), sig))
        with pytest.raises(RuntimeError, match=f"killed by {sig.name}$"):
            run_clt_experiment(ExperimentConfig(EXP1, "rw", (10, 30), 40, 5, workers=2))

    @pytest.mark.parametrize("sig, error, match", [
        (None, ValueError, "^bad task in a child$"),
        (signal.SIGKILL, RuntimeError, "killed by SIGKILL$"),
    ], ids=["exception", "SIGKILL"])
    def test_child_fails_on_its_second_row(self, monkeypatch, sig, error, match):
        def fail():
            if sig is None:
                raise ValueError("bad task in a child")
            os.kill(os.getpid(), sig)

        ks, reduced = montecarlo_module.ks_distance, []
        monkeypatch.setattr(montecarlo_module, "ks_distance",
                            lambda emp, law: reduced.append(law) or ks(emp, law))
        self._in_child(monkeypatch, fail, row=1)
        with pytest.raises(error, match=match):
            run_clt_experiment(ExperimentConfig(EXP1, "rw", (10, 30), 40, 5, workers=2))
        assert len(reduced) == 1  # the child's share of row 1 came through first

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_parent_failure_kills_the_children(self, monkeypatch, exc):
        # the child's first task takes 20 s; the run must end well before
        slept = []

        def slow():
            if not slept:
                slept.append(time.sleep(20))

        def fail():
            raise exc("stop in the parent")

        self._in_child(monkeypatch, slow, in_parent=fail)
        t0 = time.monotonic()
        with pytest.raises(exc, match="stop in the parent"):
            run_clt_experiment(ExperimentConfig(EXP1, "rw", (10, 30), 40, 5, workers=2))
        assert time.monotonic() - t0 < 10

    def test_reduce_failure_reaps_the_children_at_once(self, monkeypatch, two_cores):
        # the child sends rows 1 and 2 as it has them, then takes 20 s over
        # row 3; the reduce of row 2 fails, and the run must end well before
        ks, calls = montecarlo_module.ks_distance, []

        def fail_on_row_2(emp, law):
            calls.append(law)
            if len(calls) == 2:
                raise ValueError("bad reduce")
            return ks(emp, law)

        monkeypatch.setattr(montecarlo_module, "ks_distance", fail_on_row_2)
        self._in_child(monkeypatch, lambda: time.sleep(20), row=2)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="bad reduce") as info:
            run_clt_experiment(ExperimentConfig(EXP1, "rw", (10, 30, 90), 40, 5, workers=2))
        assert time.monotonic() - t0 < 10
        # ``info`` keeps the traceback, and with it the run's frames, alive:
        # the child must have been reaped before the error left the run
        _assert_no_child_left(two_cores)


def _count_forks(monkeypatch, limit: int = 4) -> list:
    """Wrap ``os.fork`` to list the pids of the children this process
    forks; a fork past ``limit`` of them raises instead of forking."""
    forks, fork = [], os.fork

    def counting():
        if len(forks) >= limit:
            raise RuntimeError(f"more than {limit} forks")
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _open_fds():
    """The fds open in this process, or None where ``/proc`` is missing."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_no_child_left(fds):
    """No child of this process is left, and the fds are ``fds`` again."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert _open_fds() == fds


def _fresh_python(code: str):
    """Run ``code`` in a new interpreter that imports this package; return
    the JSON of the ``result`` it leaves."""
    src = str(Path(prodsums.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\nprint(json.dumps(result))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])
