import io
import math
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsums import (
    LogAvgAccumulator,
    default_grid,
    make_distribution,
    normal_cdf,
    normal_quantile,
    run_asclt_path,
    sample,
    standardized_sum,
)

EXP1 = make_distribution("exponential", [1.0])


class TestAccumulator:
    def test_fresh_state(self):
        acc = LogAvgAccumulator([-2.0, 0.0, 2.0])
        assert np.array_equal(acc.weights, [0.0, 0.0, 0.0])
        assert acc.total_weight == 0.0
        assert acc.last_n == 1

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LogAvgAccumulator([1.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            LogAvgAccumulator([2.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            LogAvgAccumulator([])

    def test_default_grid_is_normal_quantiles(self):
        g = default_grid()
        assert g.size == 19
        for j, x in enumerate(g, start=1):
            assert x == pytest.approx(normal_quantile(0.05 * j), abs=1e-12)

    def test_first_step_below_grid(self):
        acc = LogAvgAccumulator([-2.0, 0.0, 2.0])
        acc.accumulate(2, -1e9)
        assert np.allclose(acc.weights, [0.5, 0.5, 0.5])
        assert acc.total_weight == 0.5

    def test_first_step_inside_grid(self):
        acc = LogAvgAccumulator([-2.0, 0.0, 2.0, 4.0])
        acc.accumulate(2, -1.0)
        assert np.allclose(acc.weights, [0.0, 0.5, 0.5, 0.5])

    def test_indicator_is_leq(self):
        # t exactly on a grid point counts for that point
        acc = LogAvgAccumulator([0.0, 1.0])
        acc.accumulate(2, 0.0)
        assert np.allclose(acc.weights, [0.5, 0.5])

    def test_above_grid_adds_nothing(self):
        acc = LogAvgAccumulator([0.0, 1.0])
        acc.accumulate(2, 5.0)
        assert np.allclose(acc.weights, [0.0, 0.0])
        assert acc.total_weight == 0.5

    def test_sequential_n_enforced(self):
        acc = LogAvgAccumulator([0.0])
        acc.accumulate(2, 0.0)
        with pytest.raises(ValueError, match="sequential"):
            acc.accumulate(2, 0.0)
        with pytest.raises(ValueError, match="sequential"):
            acc.accumulate(5, 0.0)

    def test_evaluate_before_accumulation(self):
        with pytest.raises(ValueError, match="nothing accumulated"):
            LogAvgAccumulator([0.0]).evaluate()

    def test_single_step_evaluate_is_indicator(self):
        acc = LogAvgAccumulator([-1.0, 0.5, 2.0])
        acc.accumulate(2, 0.1)
        assert np.array_equal(acc.evaluate(), [0.0, 1.0, 1.0])

    def test_harmonic_normalization(self):
        rng = np.random.default_rng(4)
        acc = LogAvgAccumulator(default_grid())
        big_n = 5000
        for n in range(2, big_n + 1):
            acc.accumulate(n, float(rng.standard_normal()))
        harmonic_tail = fsum(1.0 / k for k in range(2, big_n + 1))
        assert abs(acc.total_weight - harmonic_tail) <= 1e-9

    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_values_monotone_and_bounded(self, ts):
        acc = LogAvgAccumulator(default_grid())
        for i, t in enumerate(ts):
            acc.accumulate(i + 2, t)
        a = acc.evaluate()
        assert np.all(a >= 0.0) and np.all(a <= 1.0)
        assert np.all(np.diff(a) >= 0.0)
        assert np.all(acc.weights <= acc.total_weight + 1e-12)

    def test_indicator_robustness_to_tiny_perturbation(self):
        rng = np.random.default_rng(9)
        ts = rng.standard_normal(2000)
        grid = default_grid()
        base = LogAvgAccumulator(grid)
        bumped = LogAvgAccumulator(grid)
        at_risk = 0.0
        for i, t in enumerate(ts):
            n = i + 2
            base.accumulate(n, float(t))
            bumped.accumulate(n, float(t) + 1e-9)
            if np.min(np.abs(grid - t)) <= 1e-9:
                at_risk += 1.0 / n
        delta = np.max(np.abs(base.evaluate() - bumped.evaluate()))
        assert delta <= at_risk / base.total_weight + 1e-15
        assert at_risk < 1e-3 * base.total_weight


class TestRunAscltPath:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown ASCLT statistic"):
            run_asclt_path(EXP1, "gm-prefix", 100, 0)

    def test_degenerate_n2(self):
        report = run_asclt_path(EXP1, "std", 2, base_seed=3)
        # A_2 is the single indicator row of t_2
        path = sample(EXP1, 2, 3, 0)
        t2 = standardized_sum(path, 1.0, 1.0)
        expected = (t2 <= report.grid).astype(float)
        assert np.array_equal(report.a_values, expected)
        gaps = np.abs(expected - np.array([normal_cdf(x) for x in report.grid]))
        assert report.sup_gap == pytest.approx(float(np.max(gaps)), abs=1e-15)

    def test_comparison_laws(self):
        assert run_asclt_path(EXP1, "rw", 50, 0).law.tag == "n02"
        assert run_asclt_path(EXP1, "std", 50, 0).law.tag == "n01"
        assert run_asclt_path(EXP1, "loo", 50, 0).law.tag == "n01"

    def test_exact_cutoff_insensitivity(self):
        full = run_asclt_path(EXP1, "loo", 4000, base_seed=6, exact_cutoff=4000)
        mixed = run_asclt_path(EXP1, "loo", 4000, base_seed=6, exact_cutoff=1000)
        assert mixed.mode_switch_n == 1001
        assert full.mode_switch_n is None
        assert abs(full.sup_gap - mixed.sup_gap) <= 1e-4

    def test_log_and_linearized_lanes_equivalent(self):
        # the sandwich argument: accumulating the log statistic and its
        # linearization along the same trajectory gives nearby sup-gaps
        # (seed pinned by pilots/pilot_asclt.py)
        loo = run_asclt_path(EXP1, "loo", 20_000, base_seed=6, exact_cutoff=2000)
        lin = run_asclt_path(EXP1, "lin", 20_000, base_seed=6)
        assert abs(loo.sup_gap - lin.sup_gap) <= 0.05

    def test_lin_matches_std_lane(self):
        a = run_asclt_path(EXP1, "lin", 1000, base_seed=5)
        b = run_asclt_path(EXP1, "std", 1000, base_seed=5)
        assert np.allclose(a.a_values, b.a_values, atol=1e-12)

    def test_custom_grid(self):
        report = run_asclt_path(EXP1, "std", 200, 0, grid=[-1.0, 0.0, 1.0])
        assert report.grid.size == 3
        assert report.a_values.size == 3

    def test_rejects_tiny_run(self):
        with pytest.raises(ValueError, match="n_max"):
            run_asclt_path(EXP1, "std", 1, 0)
        with pytest.raises(ValueError, match="exact_cutoff"):
            run_asclt_path(EXP1, "loo", 100, 0, exact_cutoff=1)

    def test_csv_schema(self):
        report = run_asclt_path(EXP1, "std", 100, 0)
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x,A_N,F_limit,gap"
        assert len(lines) == 20
        x, a, f, gap = (float(p) for p in lines[1].split(","))
        assert gap == pytest.approx(a - f, abs=1e-15)

    def test_log_normalized_variant_reported(self):
        report = run_asclt_path(EXP1, "std", 500, 0)
        # W_N < log N, so the harmonic normalization is strictly larger
        assert np.all(report.a_values_logn <= report.a_values + 1e-12)
        assert math.isfinite(report.sup_gap_logn)

    def test_deterministic(self):
        a = run_asclt_path(EXP1, "loo", 300, base_seed=8)
        b = run_asclt_path(EXP1, "loo", 300, base_seed=8)
        assert np.array_equal(a.a_values, b.a_values)
