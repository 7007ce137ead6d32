"""Acceptance suite: one test per shipped verification criterion.

Each test prints a single PASS/FAIL line with its measured quantities
(visible with ``pytest -s`` or in captured output).  Monte Carlo
criteria run at pinned seeds; the pilot scripts under ``pilots/``
document how those seeds and tolerances were chosen and reproduce the
underlying distributions over many seeds.
"""

import io
import math
import time

import numpy as np
from mpmath import mp, ncdf

from prodsums import (
    LooSeries,
    linearized_statistic,
    loo_log_statistic,
    make_distribution,
    moments,
    normal_cdf,
    normal_quantile,
    remainder_magnitude,
    run_asclt_path,
    run_clt_experiment,
    run_slln_experiment,
    sample,
    standardized_sum,
    ExperimentConfig,
)
from prodsums.cli import main as cli_main

mp.dps = 30

EXP1 = make_distribution("exponential", [1.0])
CLT_SEED = 0     # pinned by pilots/pilot_clt.py
ASCLT_SEED = 6   # pinned by pilots/pilot_asclt.py

FAMILY_POOL = [
    make_distribution("exponential", [1.0]),
    make_distribution("gamma", [4.0, 0.5]),
    make_distribution("lognormal", [0.0, 0.5]),
    make_distribution("uniform", [0.5, 1.5]),
    make_distribution("twopoint", [0.5, 2.0, 0.5]),
]


def _report(num, name, ok, detail, elapsed, budget):
    line = (
        f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} "
        f"[{detail}] in {elapsed:.1f}s (budget {budget:.0f}s)"
    )
    print(line)
    return line


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(1000):
        spec = FAMILY_POOL[i % len(FAMILY_POOL)]
        n = int(rng.integers(2, 10_001))
        mu, sigma, gam = moments(spec)
        path = sample(spec, n, base_seed=100, stream_index=i)
        lin = linearized_statistic(path, mu, gam)
        std = standardized_sum(path, mu, sigma)
        rel = abs(lin - std) / (1.0 + abs(std))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    line = _report(1, "identity suite", ok, f"max scaled gap {worst:.2e}", elapsed, 10)
    assert ok, line


def _clt_report(kind):
    cfg = ExperimentConfig(
        EXP1, kind, (100, 1000, 10_000), reps=5000, base_seed=CLT_SEED
    )
    return run_clt_experiment(cfg)


def test_criterion_2_clt_leave_one_out():
    t0 = time.perf_counter()
    ks = [row.ks for row in _clt_report("loo").rows]
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(ks, ks[1:]))
    ok = decreasing and ks[-1] <= 0.05 and elapsed < 120.0
    line = _report(
        2, "loo product CLT", ok,
        "KS " + " > ".join(f"{k:.4f}" for k in ks), elapsed, 120,
    )
    assert ok, line


def test_criterion_3_rw_product_clt():
    t0 = time.perf_counter()
    ks = [row.ks for row in _clt_report("rw").rows]
    elapsed = time.perf_counter() - t0
    ok = ks[-1] <= 0.05 and elapsed < 120.0
    line = _report(
        3, "prefix product CLT", ok,
        "KS " + ", ".join(f"{k:.4f}" for k in ks), elapsed, 120,
    )
    assert ok, line


def test_criterion_4_asclt_single_path():
    t0 = time.perf_counter()
    loo = run_asclt_path(EXP1, "loo", 20_000, ASCLT_SEED, exact_cutoff=2000)
    control = run_asclt_path(EXP1, "std", 20_000, ASCLT_SEED)
    elapsed = time.perf_counter() - t0
    ok = loo.sup_gap <= 0.2 and control.sup_gap <= 0.15 and elapsed < 60.0
    line = _report(
        4, "almost-sure CLT", ok,
        f"loo sup-gap {loo.sup_gap:.4f}, std control {control.sup_gap:.4f}",
        elapsed, 60,
    )
    assert ok, line


def test_criterion_5_series_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    checked = 0
    for i in range(1000):
        spec = FAMILY_POOL[i % len(FAMILY_POOL)]
        n = int(rng.integers(1000, 10_001))
        mu, _, gam = moments(spec)
        path = sample(spec, n, base_seed=200, stream_index=i)
        series = LooSeries(mu, gam)
        for start in range(0, n, 4096):
            value, bound, _ = series.block(path.values[start : start + 4096])
        value, bound = value[-1], bound[-1]
        assert bound <= 1e-14
        exact = loo_log_statistic(path, mu, gam)
        err = abs(value - exact)
        # both evaluations carry ~1e-14 of double rounding at n = 1e4,
        # which dominates whenever the true truncation error is smaller
        floor = 1e-13 * (1.0 + abs(exact))
        assert err <= bound + floor
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and checked == 1000 and elapsed < 30.0
    line = _report(
        5, "series-mode fidelity", ok, f"max |series-exact| {worst:.2e}", elapsed, 30
    )
    assert ok, line


def test_criterion_6_slln_geometric_means():
    t0 = time.perf_counter()
    errs = {1000: [], 10_000: [], 100_000: []}
    final = []
    for seed in range(50):
        report = run_slln_experiment(EXP1, (1000, 10_000, 100_000), seed)
        for row in report.rows:
            errs[row.n].append(row.err_prefix)
        final.append(report.rows[-1].err_prefix)
    elapsed = time.perf_counter() - t0
    p95 = float(np.percentile(final, 95))
    medians = [float(np.median(errs[n])) for n in (1000, 10_000, 100_000)]
    decreasing = medians[0] > medians[1] > medians[2]
    ok = p95 <= 0.02 and decreasing and elapsed < 60.0
    line = _report(
        6, "SLLN geometric mean", ok,
        f"95th pct {p95:.4f}, medians " + " > ".join(f"{m:.4f}" for m in medians),
        elapsed, 60,
    )
    assert ok, line


def test_criterion_7_remainder_scaling():
    t0 = time.perf_counter()
    gam = moments(EXP1)[2]
    ratios = []
    for n in (1000, 10_000):
        mean_rem = np.mean(
            [
                remainder_magnitude(sample(EXP1, n, 300, r), 1.0, gam)
                for r in range(200)
            ]
        )
        ratios.append(float(mean_rem / (gam / math.sqrt(n))))
    elapsed = time.perf_counter() - t0
    ok = all(0.5 <= r <= 2.0 for r in ratios) and elapsed < 30.0
    line = _report(
        7, "remainder scaling", ok,
        "ratios " + ", ".join(f"{r:.3f}" for r in ratios), elapsed, 30,
    )
    assert ok, line


def test_criterion_8_numerical_kernels():
    t0 = time.perf_counter()
    xs = np.linspace(-8.0, 8.0, 10_000)
    worst_cdf = max(abs(normal_cdf(float(x)) - float(ncdf(float(x)))) for x in xs)
    ps = np.geomspace(1e-6, 0.5, 25)
    ps = np.concatenate([ps, 1.0 - ps])
    worst_inv = max(
        abs(normal_cdf(normal_quantile(float(p))) - float(p)) for p in ps
    )
    elapsed = time.perf_counter() - t0
    ok = worst_cdf <= 1e-12 and worst_inv <= 1e-10 and elapsed < 5.0
    line = _report(
        8, "numerical kernels", ok,
        f"cdf err {worst_cdf:.2e}, inversion residual {worst_inv:.2e}", elapsed, 5,
    )
    assert ok, line


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = {}
    for workers in (1, 8):
        clt_out = tmp_path / f"clt_w{workers}.csv"
        code = cli_main(
            ["clt", "--dist", "exponential:1", "--stat", "loo",
             "--n", "100,1000", "--reps", "600", "--seed", "0",
             "--workers", str(workers), "--out", str(clt_out)]
        )
        assert code == 0
        asclt_out = tmp_path / f"asclt_w{workers}.csv"
        code = cli_main(
            ["asclt", "--dist", "exponential:1", "--stat", "loo", "--N", "5000",
             "--seed", "0", "--exact-cutoff", "1000",
             "--workers", str(workers), "--out", str(asclt_out)]
        )
        assert code == 0
        outputs[workers] = (clt_out.read_bytes(), asclt_out.read_bytes())
    elapsed = time.perf_counter() - t0
    identical = outputs[1] == outputs[8]
    ok = identical and elapsed < 120.0
    line = _report(
        9, "CLI determinism", ok,
        f"clt+asclt byte-identical across workers: {identical}", elapsed, 120,
    )
    assert ok, line
