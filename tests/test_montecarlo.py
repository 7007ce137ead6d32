import concurrent.futures
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prodsums
import prodsums.montecarlo as montecarlo_module
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
            assert row.wall_seconds >= 0.0

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

    def test_workers_bit_identical(self):
        cfg1 = ExperimentConfig(EXP1, "loo", (20, 60), 64, 11, workers=1)
        cfg2 = ExperimentConfig(EXP1, "loo", (20, 60), 64, 11, workers=2)
        a, b = io.StringIO(), io.StringIO()
        run_clt_experiment(cfg1).to_csv(a)
        run_clt_experiment(cfg2).to_csv(b)
        assert a.getvalue() == b.getvalue()

    def test_one_pool_per_experiment(self, monkeypatch):
        built = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        monkeypatch.setattr(montecarlo_module.os, "cpu_count", lambda: 2)
        csv = {}
        for workers in (1, 2):
            buf = io.StringIO()
            cfg = ExperimentConfig(EXP1, "loo", (10, 30, 90), 40, 5, workers=workers)
            run_clt_experiment(cfg).to_csv(buf)
            csv[workers] = buf.getvalue()
        assert built == [(2,)]
        assert csv[1] == csv[2]

    @pytest.mark.parametrize("cores", [3, None])
    def test_pool_size_is_capped(self, monkeypatch, cores):
        # a recording stand-in for the pool maps in this process, so the
        # test starts no process whatever worker count it asks for
        sizes, csv = [], set()

        class Recording:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo_module.os, "cpu_count", lambda: cores)
        # (reps, workers): 40 reps make at most 40 tasks and 2 reps at most 2
        for reps, workers in [(40, 1), (40, 2), (40, 100_000_000), (2, 8), (40, 8)]:
            buf = io.StringIO()
            run_clt_experiment(ExperimentConfig(EXP1, "loo", (10, 30), reps, 5, workers=workers)).to_csv(buf)
            csv.add((reps, buf.getvalue()))
        assert sizes == ([2, 3, 2, 3] if cores else [])
        assert len(csv) == 2  # one CSV per reps, whatever the worker count

    def test_serial_runs_load_no_pool_code(self, tmp_path):
        # a fresh interpreter, since this one may have imported the pool
        out = tmp_path / "o.csv"
        codes, loaded = _fresh_python(f"""
from prodsums.cli import main
runs = [
    ["clt", "--dist", "exponential:1", "--stat", "loo", "--n", "10,50", "--reps", "20"],
    ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "500"],
    ["slln", "--dist", "exponential:1", "--n", "10,500"],
    ["dist-table"],
]
codes = [main([*run, "--out", {str(out)!r}]) for run in runs]
codes.append(main(["identity", "--dist", "exponential:1", "--n", "10", "--reps", "5"]))
result = codes, [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
""")
        assert codes == [0] * 5
        assert loaded == []

    def test_pool_forks_after_the_sampler_is_loaded(self):
        # the stand-in records, when the pool is built, whether the workers
        # it would fork inherit numpy.random; it maps in this process
        before, at_build = _fresh_python("""
import concurrent.futures, os
from prodsums import ExperimentConfig, make_distribution, run_clt_experiment
at_build = []

class Recording:
    def __init__(self, max_workers):
        at_build.append("numpy.random" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)

concurrent.futures.ProcessPoolExecutor = Recording
os.cpu_count = lambda: 2
before = "numpy.random" in sys.modules
run_clt_experiment(ExperimentConfig(make_distribution("exponential", [1.0]), "loo", (10,), 8, 0,
                                    workers=2))
result = before, at_build
""")
        assert not before  # importing the package leaves the sampler unloaded
        assert at_build == [True]

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
        got = montecarlo_module._replicate_block((spec, tag, 1000, 3, 1, 5, 75))
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
        assert secs == pytest.approx(report.rows[0].wall_seconds, abs=1e-6)
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
