import functools
import io
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from math import fsum

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodsums.asclt as asclt_module
import prodsums.distributions as distributions_module
import prodsums.statistics as statistics_module
from prodsums.cli import parse_dist
from prodsums import (
    ASCLT_KINDS,
    LogAvgAccumulator,
    default_grid,
    geometric_mean_loo,
    geometric_mean_prefix,
    LooSeries,
    loo_log_chunked,
    loo_log_statistic,
    make_distribution,
    moments,
    normal_cdf,
    normal_quantile,
    run_asclt_path,
    run_slln_experiment,
    sample,
    standardized_sum,
)
from prodsums.summation import NeumaierSum

EXP1 = make_distribution("exponential", [1.0])


@functools.lru_cache(maxsize=None)
def exact_loo(spec, n_max, base_seed, steps=None):
    """The exact leave-one-out statistic, one scalar call per step: at
    n = 2..n_max, or at the given steps."""
    mu, _, gam = moments(spec)
    v = sample(spec, n_max, base_seed, 0).values
    ns = range(2, n_max + 1) if steps is None else steps
    return np.array([loo_log_statistic(v[:n], mu, gam) for n in ns])


def reference_path(spec, n_max, base_seed, loo=True):
    """The trajectory loop, one step at a time, from the scalar public API.

    Returns, per ASCLT kind, ``(t, A_N)`` with t[i] the statistic at
    n = i + 2; ``loo``, left out if not asked for, is the exact statistic
    at every step.
    """
    mu, sigma, gam = moments(spec)
    v = sample(spec, n_max, base_seed, 0).values
    total, centred, log_sum = NeumaierSum(), NeumaierSum(), NeumaierSum()
    ts = {kind: [] for kind in ("rw", "lin", "std")}
    for n in range(1, n_max + 1):
        total.add(float(v[n - 1]))  # S_n
        centred.add(float(v[n - 1]) - mu)  # the sum of X_k - mu
        # log(S_n/(n mu)) by the documented rule of statistics.log_ratio:
        # log1p of the increment keeps no digits of a ratio far below 1
        d = (total.value - n * mu) / (n * mu)
        log_sum.add(math.log1p(d) if d > -0.5 else math.log(total.value) - math.log(n * mu))
        if n < 2:
            continue
        root_n = math.sqrt(n)
        ts["rw"].append(log_sum.value / (gam * root_n))
        ts["lin"].append((total.value - n * mu) / (sigma * root_n))
        ts["std"].append(centred.value / (sigma * root_n))
    if loo:
        ts["loo"] = exact_loo(spec, n_max, base_seed)
    return {
        kind: (np.array(t), LogAvgAccumulator(default_grid()).accumulate(2, t).evaluate())
        for kind, t in ts.items()
    }


def engine_run(monkeypatch, spec, kind, n_max, seed, exact_cutoff):
    """run_asclt_path's report and every t_n it accumulated, in order."""
    seen = []

    class Recording(LogAvgAccumulator):
        def accumulate(self, n, t, first=None):
            seen.append(np.atleast_1d(np.array(t, dtype=float)))
            return super().accumulate(n, t, first)

    monkeypatch.setattr(asclt_module, "LogAvgAccumulator", Recording)
    report = run_asclt_path(spec, kind, n_max, seed, exact_cutoff=exact_cutoff)
    return report, np.concatenate(seen)


def certify_spy(monkeypatch):
    """A list that gathers, for each block of a loo walk, the steps n its
    series certified and their values."""
    seen = []
    certify = statistics_module._certified_series

    def spy(series, x, n, grid):
        value, first, exact = certify(series, x, n, grid)
        seen.append((n[~exact], value[~exact]))
        return value, first, exact

    monkeypatch.setattr(statistics_module, "_certified_series", spy)
    return seen


def certified_run(monkeypatch, spec, n_max, seed, exact_cutoff=2000, grid=None):
    """run_asclt_path's loo report, the steps n its series certified and
    their values."""
    seen = certify_spy(monkeypatch)
    report = run_asclt_path(spec, "loo", n_max, seed, grid=grid, exact_cutoff=exact_cutoff)
    ns, values = (np.concatenate(parts) for parts in zip(*seen))
    return report, ns, values


def exact_run(monkeypatch, spec, n_max, seed, exact_cutoff=2000, grid=None):
    """run_asclt_path's loo report with every step through the exact kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(statistics_module, "_certified_series",
                      lambda series, x, n, grid: (np.empty(n.size), np.empty(n.size, dtype=np.intp),
                                                  np.ones(n.size, dtype=bool)))
        report = run_asclt_path(spec, "loo", n_max, seed, grid=grid, exact_cutoff=exact_cutoff)
    assert report.exact_steps == n_max - 1  # the patch reached the walk
    return report


def csv_text(report):
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def exact_values(spec, n_max, seed, ns):
    mu, _, gam = moments(spec)
    v = sample(spec, n_max, seed, 0).values
    return np.array([loo_log_statistic(v[:n], mu, gam) for n in ns])


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

    @pytest.mark.parametrize("grid", [[math.nan], [0.0, math.nan], [math.nan, 1.0]])
    def test_nan_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="with no NaN"):
            LogAvgAccumulator(grid)

    def test_default_grid_is_normal_quantiles(self):
        g = default_grid()
        assert g.size == 19
        for j, x in enumerate(g, start=1):
            assert x == normal_quantile(0.05 * j)

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

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nonfinite_value_rejected(self, bad):
        acc = LogAvgAccumulator([0.0])
        with pytest.raises(ValueError, match="at n = 4; it must be finite"):
            acc.accumulate(2, [0.1, 0.2, bad])
        assert acc.last_n == 1

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

    @given(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=600),
        st.lists(st.integers(1, 200), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_accumulate_matches_steps(self, ts, sizes):
        steps, blocks = LogAvgAccumulator(default_grid()), LogAvgAccumulator(default_grid())
        for i, t in enumerate(ts):
            steps.accumulate(i + 2, t)
        start, k = 0, 0
        while start < len(ts):
            size = sizes[k % len(sizes)]
            blocks.accumulate(start + 2, np.array(ts[start : start + size]))
            start, k = start + size, k + 1
        assert blocks.last_n == steps.last_n == len(ts) + 1
        assert np.all(np.abs(blocks.weights - steps.weights) <= 1e-12)
        direct = [
            fsum(1.0 / (i + 2) for i, t in enumerate(ts) if t <= x) for x in default_grid()
        ]
        assert np.all(np.abs(blocks.weights - direct) <= 1e-12)
        assert abs(blocks.total_weight - steps.total_weight) <= 1e-12
        assert np.all(np.abs(blocks.evaluate() - steps.evaluate()) <= 1e-12)

    def test_block_sequencing_enforced(self):
        acc = LogAvgAccumulator([0.0])
        acc.accumulate(2, [0.1, -0.2, 0.3])
        assert acc.last_n == 4
        with pytest.raises(ValueError, match="expected n = 5"):
            acc.accumulate(4, [0.0])
        with pytest.raises(ValueError, match="1-D"):
            acc.accumulate(5, [[0.0]])

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
        # the linearization is the standardized sum exactly, and one walk
        # serves both; on twopoint:1:1e300:0.5 two forms of that sum bin
        # differently the steps whose exact value ties a point of the
        # 61-point grid, such as -1
        grid61 = [(i - 30) / 10 for i in range(61)]  # -3.0, -2.9, ..., 3.0
        for spec, seed in [(EXP1, 5), (parse_dist("twopoint:1:1e300:0.5"), 0)]:
            for grid in (None, grid61):
                a, b = (run_asclt_path(spec, kind, 50_000, seed, grid=grid) for kind in ("lin", "std"))
                assert csv_text(a) == csv_text(b), (spec, grid is None)

    def test_custom_grid(self):
        report = run_asclt_path(EXP1, "std", 200, 0, grid=[-1.0, 0.0, 1.0])
        assert report.grid.size == 3
        assert report.a_values.size == 3

    def test_rejects_tiny_run(self):
        with pytest.raises(ValueError, match="n_max"):
            run_asclt_path(EXP1, "std", 1, 0)
        with pytest.raises(ValueError, match=f"n_max must be from 2 to {asclt_module.MAX_N}"):
            run_asclt_path(EXP1, "std", asclt_module.MAX_N + 1, 0)
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


class TestEngineMatchesStepLoop:
    """The block engine against the step-by-step loop of reference_path."""

    FAMILIES = {
        "exponential:1": EXP1,
        "lognormal:0:2": make_distribution("lognormal", [0.0, 2.0]),
        "gamma:0.05:1": make_distribution("gamma", [0.05, 1.0]),
        "uniform:0.5:1.5": make_distribution("uniform", [0.5, 1.5]),
    }

    @staticmethod
    def check(monkeypatch, spec, n_max, seed, exact_cutoff=2000):
        ref = reference_path(spec, n_max, seed)
        for kind, (t_ref, a_ref) in ref.items():
            report, t = engine_run(monkeypatch, spec, kind, n_max, seed, exact_cutoff)
            assert t.size == n_max - 1
            assert np.max(np.abs(t - t_ref)) <= 1e-12, kind
            assert np.max(np.abs(report.a_values - a_ref)) <= 1e-12, kind
            if kind != "loo":
                assert (report.mode_switch_n, report.fallback_count, report.exact_steps) == (None, 0, 0)
        return report

    # 20_000 is not a multiple of the block size and 3000 is below it
    @pytest.mark.parametrize("n_max", [3000, 20_000])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_families(self, monkeypatch, family, n_max):
        self.check(monkeypatch, self.FAMILIES[family], n_max, 0)

    def test_long_path(self, monkeypatch):
        # rw, lin and std against the step loop at every step, loo against
        # the exact statistic at a fixed sample of steps
        n_max = 200_000
        for kind, (t_ref, a_ref) in reference_path(EXP1, n_max, 0, loo=False).items():
            report, t = engine_run(monkeypatch, EXP1, kind, n_max, 0, 2000)
            assert np.max(np.abs(t - t_ref)) <= 1e-12, kind
            assert np.max(np.abs(report.a_values - a_ref)) <= 1e-12, kind
        report, t = engine_run(monkeypatch, EXP1, "loo", n_max, 0, 2000)
        steps = tuple(range(2, n_max + 1, 1999)) + (n_max,)
        assert np.max(np.abs(t[np.array(steps) - 2] - exact_loo(EXP1, n_max, 0, steps))) <= 1e-12

    @pytest.mark.parametrize("family,exact_cutoff", [
        ("gamma:0.05:1", 50), ("lognormal:0:2", 200),
    ])
    def test_gate_fallbacks(self, monkeypatch, family, exact_cutoff):
        # the third-order gate failed on these steps past the cutoff; the
        # certified series takes every one of them, and a fallback is a step
        # past the cutoff sent to the exact kernel
        sent, seen = [], certify_spy(monkeypatch)
        chunked = statistics_module.loo_log_chunked
        monkeypatch.setattr(statistics_module, "loo_log_chunked",
                            lambda path, ns, mu, gamma: sent.extend(ns) or chunked(path, ns, mu, gamma))
        report = self.check(monkeypatch, self.FAMILIES[family], 20_000, 0, exact_cutoff)
        late = sum(n > exact_cutoff for n in sent)
        assert report.fallback_count == late == 0
        # both spies reach the loo walk: every step is certified or sent
        assert sum(n.size for n, _ in seen) == 19_999 - len(sent) == 19_999 - report.exact_steps
        assert report.mode_switch_n == exact_cutoff + 1

    @pytest.mark.parametrize("family", ["exponential:1", "lognormal:0:2"])
    def test_exact_prefix_crosses_a_block(self, monkeypatch, family):
        assert 5000 > asclt_module._BLOCK
        self.check(monkeypatch, self.FAMILIES[family], 6000, 0, exact_cutoff=5000)


@pytest.mark.parametrize("family,exact_cutoff", [
    ("exponential:1", 2000), ("gamma:0.05:1", 50), ("lognormal:0:2", 200),
])
def test_exact_steps_are_batched(monkeypatch, family, exact_cutoff):
    # one exact-kernel call per block at most, for the steps the series
    # does not certify, never one scalar call per step; the grid holds a
    # step's value so that some step goes to the exact kernel
    spec = TestEngineMatchesStepLoop.FAMILIES[family]
    grid = np.sort(np.append(default_grid(), exact_values(spec, 20_000, 0, [3000])))
    scalar, batched = [], []
    chunked = statistics_module.loo_log_chunked

    def counting(path, ns, mu, gamma):
        batched.append(len(ns))
        return chunked(path, ns, mu, gamma)

    monkeypatch.setattr(statistics_module, "loo_log_statistic", lambda *args: scalar.append(args))
    monkeypatch.setattr(statistics_module, "loo_log_chunked", counting)
    report, certified, _ = certified_run(monkeypatch, spec, 20_000, 0, exact_cutoff, grid)
    assert scalar == [] and len(batched) <= -(-20_000 // asclt_module._BLOCK)
    assert sum(batched) == 20_000 - 1 - certified.size == report.exact_steps >= 1


class TestCertifiedPrefix:
    """The certified series and its rule: finite, a bound of at most 1e-14
    and no grid point within reach, else the exact kernel."""

    # the last family's powers of X - mu underflow from order 4
    @pytest.mark.parametrize("family", [*TestEngineMatchesStepLoop.FAMILIES, "uniform:1e-100:2e-100"])
    def test_certified_steps_match_the_exact_kernel(self, monkeypatch, family):
        spec = parse_dist(family)
        report, ns, values = certified_run(monkeypatch, spec, 3000, 0)
        assert ns.size >= 400 and report.exact_steps == 2999 - ns.size
        assert np.max(np.abs(values - exact_values(spec, 3000, 0, ns))) <= 1e-13

    def test_certified_steps_at_a_million(self, monkeypatch):
        n_max = 1_000_000
        report, ns, values = certified_run(monkeypatch, EXP1, n_max, 0, exact_cutoff=n_max)
        assert report.exact_steps == n_max - 1 - ns.size < 100
        pick = np.unique(np.linspace(0, ns.size - 1, 48).astype(int))
        assert np.max(np.abs(values[pick] - exact_values(EXP1, n_max, 0, ns[pick]))) <= 1e-12

    def test_grid_point_at_a_step_sends_it_to_the_exact_kernel(self, monkeypatch):
        _, ns, _ = certified_run(monkeypatch, EXP1, 3000, 0)
        k = int(ns[ns.size // 2])
        on_grid = exact_values(EXP1, 3000, 0, [k])[0]
        exact_ns = []
        chunked = statistics_module.loo_log_chunked
        monkeypatch.setattr(statistics_module, "loo_log_chunked",
                            lambda path, ns, mu, gamma: exact_ns.extend(ns) or chunked(path, ns, mu, gamma))
        report = run_asclt_path(EXP1, "loo", 3000, 0, grid=np.sort(np.append(default_grid(), on_grid)))
        assert k in exact_ns and report.exact_steps == len(exact_ns)

    def test_huge_twopoint_run_is_warning_free(self, monkeypatch):
        # the draws' powers would leave the double range; their ratios to
        # S_n do not, so no step past the cutoff falls back
        spec = make_distribution("twopoint", [1.0, 1e300, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, ns, values = certified_run(monkeypatch, spec, 6000, 0, exact_cutoff=5000)
        assert report.fallback_count == 0 and ns.size > 0
        assert np.max(np.abs(values - exact_values(spec, 6000, 0, ns))) <= 1e-13

    def test_overflowing_powers_are_not_certified(self):
        # the series raises ratios of at most 1 to its powers, so none
        # overflows, and steps 3 and 4 are certified; step 2's exact terms
        # are near 490, where their roundings could pass 1e-13, and n = 1's
        # value is NaN, so both go to the exact kernel
        path = np.array([1.0, 1e300, 1e300, 1.0])
        series = LooSeries(0.5 + 5e299, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _, exact = statistics_module._certified_series(series, path, np.arange(1, 5), default_grid())
        assert exact.tolist() == [True, True, False, False] and np.isnan(value[0])
        assert np.max(np.abs(value[2:] - loo_log_chunked([path], [3, 4], 0.5 + 5e299, 1.0))) <= 1e-13


def test_late_exact_step_gives_the_all_exact_csv(monkeypatch):
    # a grid point on the value of step 10 000 sends it to the exact kernel
    # past the first block, which reads its prefix again from the stream
    on_grid = exact_values(EXP1, 20_000, 0, [10_000])[0]
    grid = np.sort(np.append(default_grid(), on_grid))
    late = []
    chunked = statistics_module.loo_log_chunked
    monkeypatch.setattr(statistics_module, "loo_log_chunked",
                        lambda path, ns, mu, gamma: late.extend(ns) or chunked(path, ns, mu, gamma))
    report = run_asclt_path(EXP1, "loo", 20_000, 0, grid=grid)
    assert 10_000 in late and report.exact_steps == len(late)
    exact = exact_run(monkeypatch, EXP1, 20_000, 0, grid=grid)
    assert exact.exact_steps == 19_999
    assert csv_text(report) == csv_text(exact)


def test_first_block_exact_steps_read_the_block_in_hand(monkeypatch):
    # twopoint:1:1e300:0.5 sends a few of its first steps to the exact
    # kernel, which takes them from the block the walk holds, up to the last
    # of them, so the path is read once, by the walk itself
    spec = parse_dist("twopoint:1:1e300:0.5")
    passes, held = [], []
    draws = distributions_module._ChunkedPath.draws
    monkeypatch.setattr(distributions_module._ChunkedPath, "__iter__",
                        lambda self: passes.append(self) or draws(self))
    chunked = statistics_module.loo_log_chunked
    monkeypatch.setattr(statistics_module, "loo_log_chunked",
                        lambda path, ns, mu, gamma: held.append((sum(map(len, path)), ns[-1]))
                        or chunked(path, ns, mu, gamma))
    report = run_asclt_path(spec, "loo", 20_000, 0)
    assert len(passes) == 1 and report.exact_steps >= 1
    # each exact call is handed the draws up to its last step and no more
    assert held and all(size == last for size, last in held)
    assert csv_text(report) == csv_text(exact_run(monkeypatch, spec, 20_000, 0))


def test_exact_steps_find_the_redraw_rounds_once(monkeypatch):
    # gamma:0.002:1 draws zeros; a grid point on the value of step 50 and
    # one on that of step 10 000 send both to the exact kernel, which reads
    # the path again, and the redraw rounds are still found once per run
    spec = parse_dist("gamma:0.002:1")
    grid = np.sort(np.append(default_grid(), exact_values(spec, 20_000, 0, [50, 10_000])))
    found, sent = [], []
    rounds = distributions_module._redraw_rounds
    monkeypatch.setattr(distributions_module, "_redraw_rounds",
                        lambda *args: found.append(args) or rounds(*args))
    chunked = statistics_module.loo_log_chunked
    monkeypatch.setattr(statistics_module, "loo_log_chunked",
                        lambda path, ns, mu, gamma: sent.extend(ns) or chunked(path, ns, mu, gamma))
    report = run_asclt_path(spec, "loo", 20_000, 0, grid=grid)
    assert len(found) == 1 and {50, 10_000} <= set(sent) and report.exact_steps == len(sent)
    found.clear()
    exact = exact_run(monkeypatch, spec, 20_000, 0, grid=grid)
    assert len(found) == 1 and exact.exact_steps == 19_999
    assert csv_text(report) == csv_text(exact)


@pytest.mark.parametrize("rate", [1e-300, 1e-5, 3.0, 1e300])
def test_loo_run_does_not_depend_on_the_unit(rate):
    # t_n is unchanged by scaling every draw, and so are the ratios X/S_n
    # the series reads: it certifies the same steps at any scale
    def run(spec):
        report = run_asclt_path(spec, "loo", 20_000, 0, exact_cutoff=4000)
        return report.a_values, (report.mode_switch_n, report.fallback_count, report.exact_steps)

    want, got = run(EXP1), run(make_distribution("exponential", [rate]))
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] == (4001, 0, 0)


def test_tiny_uniform_never_falls_back():
    report = run_asclt_path(parse_dist("uniform:1e-300:2e-300"), "loo", 20_000, 0, exact_cutoff=4000)
    assert report.fallback_count == 0


def test_only_loo_extends_the_power_sums(monkeypatch):
    # rw, lin and std read S_n or p1 alone; loo alone walks a LooSeries
    blocks = []
    block = LooSeries.block
    monkeypatch.setattr(LooSeries, "block", lambda self, x: blocks.append(len(x)) or block(self, x))
    for kind in ASCLT_KINDS:
        blocks.clear()
        run_asclt_path(EXP1, kind, 10_000, 0)
        want = [4096, 4096, 1808] if kind == "loo" else []
        assert blocks == want, kind
    assert asclt_module._BLOCK == 4096


HEAVY = ["lognormal:0:20", "gamma:0.001:1", "twopoint:1:1e300:0.5",
         "uniform:1e-300:2e-300", "exponential:1e300"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("family", [*TestEngineMatchesStepLoop.FAMILIES, *HEAVY])
def test_loo_csv_is_the_all_exact_csv(monkeypatch, family, seed):
    # byte for byte: the certified series changes no grid bin of the exact
    # statistic, on the heavy and extreme laws too
    spec = parse_dist(family)
    report = run_asclt_path(spec, "loo", 5000, seed)
    assert csv_text(report) == csv_text(exact_run(monkeypatch, spec, 5000, seed))


def above(num, r, n):
    """num > r * sqrt(n), exactly, for rationals num and r and an integer n."""
    if num >= 0 > r or r >= 0 >= num:
        return num > r
    return num * num > r * r * n if num > 0 else num * num < r * r * n


@pytest.mark.parametrize("seed", [0, 6])
@pytest.mark.parametrize("kind", ["lin", "std"])
def test_heavy_law_bins_match_the_rational_oracle(kind, seed):
    # the path takes two values, so sigma * sqrt(n) times the exact
    # statistic, S_n - n*mu (lin) or the sum of the rounded x - mu (std), is
    # an exact rational combination of them; each step's grid bin in the one
    # walk lin and std share must be that of the exact value, with
    # grid[bin - 1] < t_n <= grid[bin]
    spec = parse_dist("twopoint:1:1e300:0.5")
    mu, sigma, gam = moments(spec)
    grid = default_grid()
    walk = asclt_module._walk(asclt_module._path(spec, 20_000, seed), kind, mu, sigma, gam, grid)
    n, t = (np.concatenate(parts) for parts in zip(*((n, t) for n, t, _, _ in walk)))
    bins = np.searchsorted(grid, t)
    v = sample(spec, 20_000, seed, 0).values
    lo, hi = np.unique(v)
    terms = (lo, hi, mu) if kind == "lin" else (lo - mu, hi - mu, 0.0)
    lo, hi, shift = map(Fraction, terms)
    r = [Fraction(float(g)) * Fraction(sigma) for g in grid]
    wrong = []
    highs = np.cumsum(v == v.max())  # b of the first k draws are the larger value
    for k, b, j in zip(n.tolist(), highs.tolist(), bins.tolist()):
        num = (k - b) * lo + b * hi - k * shift
        if not ((j == 0 or above(num, r[j - 1], k)) and (j == grid.size or not above(num, r[j], k))):
            wrong.append(k)
    assert wrong == []


@pytest.mark.parametrize("family", HEAVY[:3])
def test_heavy_laws_take_few_exact_steps(monkeypatch, family):
    # the third-order gate sent every step of the first two laws to the
    # exact kernel, 19 999 of them; twopoint may need the first few dozen
    sent, seen = [], certify_spy(monkeypatch)
    chunked = statistics_module.loo_log_chunked
    monkeypatch.setattr(statistics_module, "loo_log_chunked",
                        lambda path, ns, mu, gamma: sent.extend(ns) or chunked(path, ns, mu, gamma))
    report = run_asclt_path(parse_dist(family), "loo", 20_000, 0, exact_cutoff=4000)
    assert report.exact_steps == len(sent) <= 36 and max(sent, default=0) <= 48
    assert sum(n.size for n, _ in seen) == 19_999 - len(sent)  # both spies reach the walk
    assert report.fallback_count == 0 and report.mode_switch_n == 4001


def test_far_out_values_keep_the_series():
    # gamma:0.001:1's t_n passes 7 from about n = 115 000 at seed 0 and
    # stays there; only sizes past about 225 go to the exact kernel
    report = run_asclt_path(parse_dist("gamma:0.001:1"), "loo", 200_000, 0)
    assert report.exact_steps == report.fallback_count == 0


def test_one_law_evaluation(monkeypatch):
    calls = []
    law_cdf = asclt_module.limit_cdf

    def counting(law, x):
        calls.append(np.shape(x))
        return law_cdf(law, x)

    monkeypatch.setattr(asclt_module, "limit_cdf", counting)
    report = run_asclt_path(EXP1, "rw", 5000, 0)
    assert calls == [report.grid.shape]
    assert np.array_equal(report.limit_values, [law_cdf(report.law, float(x)) for x in report.grid])


def test_traced_memory_stays_near_the_path():
    # two N-length float arrays would exceed this bound; the walk holds
    # one chunk of the path (see the next test)
    n_max = 200_000
    tracemalloc.start()
    try:
        run_asclt_path(EXP1, "loo", n_max, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n_max + 2**20


@pytest.mark.parametrize("kind", ASCLT_KINDS)
def test_traced_memory_does_not_grow_with_the_path(kind):
    # the walk holds one chunk of the path and one block's temporaries
    run_asclt_path(EXP1, kind, 5000, 0)
    peaks = []
    for n_max in (20_000, 200_000):
        tracemalloc.start()
        try:
            run_asclt_path(EXP1, kind, n_max, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**14, peaks


SHOWCASE = ["exponential:1", "gamma:4:0.5", "lognormal:0:0.5", "uniform:0.5:1.5", "twopoint:0.5:2:0.5"]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("family", [*SHOWCASE, "gamma:0.002:1", "lognormal:0:20",
                                    "twopoint:1e-300:1e30:0.999"])
def test_slln_matches_the_whole_path_kernels(family, seed):
    # the walk and loo_log_chunked against the exact kernels on each prefix
    # of one sample() path, across block boundaries; the first means of
    # twopoint:1e-300:1e30:0.999 are about 1e-300, some 1e327 below mu
    spec = parse_dist(family)
    ns = (2, 3, 10, 100, 1000, 4096, 4097, 10_000, 100_000)
    report = run_slln_experiment(spec, ns, seed)
    v = sample(spec, ns[-1], seed, 0).values
    mu = moments(spec)[0]
    assert report.mu == mu and [row.n for row in report.rows] == list(ns)
    for row in report.rows:
        for got, err, want in ((row.gm_prefix, row.err_prefix, geometric_mean_prefix(v[:row.n])),
                               (row.gm_loo, row.err_loo, geometric_mean_loo(v[:row.n]))):
            assert abs(got - want) <= 1e-12 * want, row
            assert err == abs(got - mu)


@pytest.mark.parametrize("family", ["twopoint:1:1e300:0.5", "exponential:1e300"])
def test_slln_matches_mpmath(family):
    # draws 300 orders of magnitude apart, and draws near 1e-300
    spec = parse_dist(family)
    ns = (2, 10, 1000, 5000)
    rows = run_slln_experiment(spec, ns, 0).rows
    v = sample(spec, ns[-1], 0, 0).values
    with mpmath.workdps(650):  # every sum below is exact
        x = [mpmath.mpf(float(d)) for d in v]
        for row in rows:
            n = row.n
            sums = list(itertools.accumulate(x[:n]))
            prefix = mpmath.fsum(mpmath.log(p / k) for k, p in enumerate(sums, 1))
            loo = mpmath.fsum(mpmath.log((sums[-1] - d) / (n - 1)) for d in x[:n])
            for got, want in ((row.gm_prefix, mpmath.exp(prefix / n)), (row.gm_loo, mpmath.exp(loo / n))):
                assert abs(got - float(want)) <= 2e-13 * float(want), (n, got, want)


def test_slln_memory_does_not_grow_with_the_path():
    # one walk over the path and loo_log_chunked's two passes, each a chunk
    # at a time
    run_slln_experiment(EXP1, (1000, 5000), 0)
    peaks = []
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            run_slln_experiment(EXP1, (1000, n), 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**14, peaks


def test_slln_rejects_a_path_past_max_n(monkeypatch):
    # before any sampling: on the chunked path such a run would take hours
    drawn = []
    monkeypatch.setattr(asclt_module, "sample_chunks", lambda *args: drawn.append(args))
    n = asclt_module.MAX_N + 1
    with pytest.raises(ValueError, match=f"n_max must be from 2 to {asclt_module.MAX_N}, got {n}"):
        run_slln_experiment(EXP1, (1000, n), 0)
    assert drawn == []
