import io
import math
import tracemalloc
import warnings
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodsums.asclt as asclt_module
from prodsums.cli import parse_dist
from prodsums import (
    ASCLT_KINDS,
    LogAvgAccumulator,
    default_grid,
    init_state,
    loo_log_prefixes,
    loo_log_series,
    loo_log_statistic,
    make_distribution,
    moments,
    normal_cdf,
    normal_quantile,
    run_asclt_path,
    sample,
    standardized_sum,
)
from prodsums.summation import NeumaierSum

EXP1 = make_distribution("exponential", [1.0])


def reference_path(spec, n_max, base_seed, exact_cutoff=2000):
    """The trajectory loop, one step at a time, from the scalar public API.

    Returns, per ASCLT kind, ``(t, A_N, mode_switch_n, fallback_count)``
    with t[i] the statistic at n = i + 2.
    """
    mu, sigma, gam = moments(spec)
    v = sample(spec, n_max, base_seed, 0).values
    state, log_sum = init_state(mu), NeumaierSum()
    accs = {kind: LogAvgAccumulator(default_grid()) for kind in ("loo", "rw", "lin", "std")}
    ts = {kind: [] for kind in accs}
    mode_switch, fallbacks = None, 0
    for n in range(1, n_max + 1):
        state.update(float(v[n - 1]))
        # log(S_n/(n mu)) by the documented rule of statistics.log_ratio:
        # log1p of the increment keeps no digits of a ratio far below 1
        d = (state.total - n * mu) / (n * mu)
        log_sum.add(math.log1p(d) if d > -0.5 else math.log(state.total) - math.log(n * mu))
        if n < 2:
            continue
        if n <= exact_cutoff:
            loo = loo_log_statistic(v[:n], mu, gam)
        else:
            loo, valid = loo_log_series(state, gam)
            if not valid:
                fallbacks += 1
                loo = loo_log_statistic(v[:n], mu, gam)
            elif mode_switch is None:
                mode_switch = n
        root_n = math.sqrt(n)
        step = {
            "loo": loo,
            "rw": log_sum.value / (gam * root_n),
            "lin": (state.total - n * mu) / (sigma * root_n),
            "std": state.p1 / (sigma * root_n),
        }
        for kind, t in step.items():
            accs[kind].accumulate(n, t)
            ts[kind].append(t)
    return {
        kind: (np.array(ts[kind]), accs[kind].evaluate(),
               mode_switch if kind == "loo" else None, fallbacks if kind == "loo" else 0)
        for kind in accs
    }


def engine_run(monkeypatch, spec, kind, n_max, seed, exact_cutoff):
    """run_asclt_path's report and every t_n it accumulated, in order."""
    seen = []

    class Recording(LogAvgAccumulator):
        def accumulate(self, n, t):
            seen.append(np.atleast_1d(np.array(t, dtype=float)))
            return super().accumulate(n, t)

    monkeypatch.setattr(asclt_module, "LogAvgAccumulator", Recording)
    report = run_asclt_path(spec, kind, n_max, seed, exact_cutoff=exact_cutoff)
    return report, np.concatenate(seen)


def certified_run(monkeypatch, spec, n_max, seed, exact_cutoff=2000, grid=None):
    """run_asclt_path's loo report, the steps n its prefix series certified
    and their values."""
    seen = []
    certify = asclt_module._certified_series

    def spy(n, *args):
        value, exact = certify(n, *args)
        seen.append((n[~exact], value[~exact]))
        return value, exact

    monkeypatch.setattr(asclt_module, "_certified_series", spy)
    report = run_asclt_path(spec, "loo", n_max, seed, grid=grid, exact_cutoff=exact_cutoff)
    ns, values = (np.concatenate(parts) for parts in zip(*seen))
    return report, ns, values


def exact_values(spec, n_max, seed, ns):
    mu, _, gam = moments(spec)
    return loo_log_prefixes(sample(spec, n_max, seed, 0).values, ns, mu, gam)


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
        ref = reference_path(spec, n_max, seed, exact_cutoff)
        for kind, (t_ref, a_ref, switch_ref, fallbacks_ref) in ref.items():
            report, t = engine_run(monkeypatch, spec, kind, n_max, seed, exact_cutoff)
            assert t.size == n_max - 1
            assert np.max(np.abs(t - t_ref)) <= 1e-12, kind
            assert np.max(np.abs(report.a_values - a_ref)) <= 1e-12, kind
            assert report.mode_switch_n == switch_ref, kind
            assert report.fallback_count == fallbacks_ref, kind
        return ref

    # 20_000 is not a multiple of the block size and 3000 is below it
    @pytest.mark.parametrize("n_max", [3000, 20_000])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_families(self, monkeypatch, family, n_max):
        self.check(monkeypatch, self.FAMILIES[family], n_max, 0)

    def test_long_path(self, monkeypatch):
        self.check(monkeypatch, EXP1, 200_000, 0)

    @pytest.mark.parametrize("family,exact_cutoff", [
        ("gamma:0.05:1", 50), ("lognormal:0:2", 200),
    ])
    def test_gate_fallbacks(self, monkeypatch, family, exact_cutoff):
        ref = self.check(monkeypatch, self.FAMILIES[family], 20_000, 0, exact_cutoff)
        assert ref["loo"][3] > 0

    @pytest.mark.parametrize("family", ["exponential:1", "lognormal:0:2"])
    def test_exact_prefix_crosses_a_block(self, monkeypatch, family):
        assert 5000 > asclt_module._BLOCK
        self.check(monkeypatch, self.FAMILIES[family], 6000, 0, exact_cutoff=5000)


@pytest.mark.parametrize("family,exact_cutoff", [
    ("exponential:1", 2000), ("gamma:0.05:1", 50), ("lognormal:0:2", 200),
])
def test_exact_steps_are_batched(monkeypatch, family, exact_cutoff):
    # one prefix-evaluator call per block (the bound allows two), for its
    # uncertified prefix steps and its gate failures, never one scalar
    # call per step
    spec = TestEngineMatchesStepLoop.FAMILIES[family]
    scalar, batched = [], []
    prefixes = asclt_module.loo_log_prefixes

    def counting(path, ns, mu, gamma):
        batched.append(len(ns))
        return prefixes(path, ns, mu, gamma)

    monkeypatch.setattr(asclt_module, "loo_log_statistic",
                        lambda *args: scalar.append(args), raising=False)
    monkeypatch.setattr(asclt_module, "loo_log_prefixes", counting)
    report, certified, _ = certified_run(monkeypatch, spec, 20_000, 0, exact_cutoff)
    assert scalar == []
    assert len(batched) <= 2 * -(-20_000 // asclt_module._BLOCK)
    uncertified = exact_cutoff - 1 - certified.size
    assert sum(batched) == uncertified + report.fallback_count == report.exact_steps


class TestCertifiedPrefix:
    """The order-16 series of the steps n <= exact_cutoff."""

    # the last family's powers of X - mu underflow from order 4
    @pytest.mark.parametrize("family", [*TestEngineMatchesStepLoop.FAMILIES, "uniform:1e-100:2e-100"])
    def test_certified_steps_match_the_exact_kernel(self, monkeypatch, family):
        spec = parse_dist(family)
        report, ns, values = certified_run(monkeypatch, spec, 3000, 0)
        assert ns.size >= 400 and report.exact_steps == 1999 - ns.size
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
        prefixes = asclt_module.loo_log_prefixes
        monkeypatch.setattr(asclt_module, "loo_log_prefixes",
                            lambda path, ns, mu, gamma: exact_ns.extend(ns) or prefixes(path, ns, mu, gamma))
        report = run_asclt_path(EXP1, "loo", 3000, 0, grid=np.sort(np.append(default_grid(), on_grid)))
        assert k in exact_ns and report.exact_steps == len(exact_ns)

    def test_huge_twopoint_run_is_warning_free(self, monkeypatch):
        # the centred draws square past the double range; their scaled
        # powers do not, so no step past the cutoff falls back
        spec = make_distribution("twopoint", [1.0, 1e300, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, ns, values = certified_run(monkeypatch, spec, 6000, 0, exact_cutoff=5000)
        assert report.fallback_count == 0 and ns.size > 0
        assert np.max(np.abs(values - exact_values(spec, 6000, 0, ns))) <= 1e-13

    def test_overflowing_powers_are_not_certified(self):
        d = np.array([1.0, 1e30, 1e30, 1.0]) - 1.0
        carries = [NeumaierSum() for _ in range(asclt_module._ORDER)]
        sums = asclt_module._power_sums(d, carries)
        value, exact = asclt_module._certified_series(
            np.arange(1, 5), sums, np.maximum.accumulate(np.abs(d)), 1.0, default_grid()
        )
        assert exact.all() and not np.isfinite(carries[-1].value)


@pytest.mark.parametrize("rate", [1e-300, 1e-5, 3.0, 1e300])
def test_loo_run_does_not_depend_on_the_unit(rate):
    # t_n is unchanged by scaling every draw, and so are the power sums of
    # (X - mu)/mu: no step past the cutoff falls back at any scale
    def run(spec):
        report = run_asclt_path(spec, "loo", 20_000, 0, exact_cutoff=4000)
        return report.a_values, (report.mode_switch_n, report.fallback_count, report.exact_steps)

    want, got = run(EXP1), run(make_distribution("exponential", [rate]))
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] == (4001, 0, 41)


def test_tiny_uniform_never_falls_back():
    report = run_asclt_path(parse_dist("uniform:1e-300:2e-300"), "loo", 20_000, 0, exact_cutoff=4000)
    assert report.fallback_count == 0


def test_only_loo_extends_the_power_sums(monkeypatch):
    # rw, lin and std read S_n or p1 alone; loo alone needs p2, p3 and max|d|
    blocks = []
    power_sums = asclt_module._power_sums
    monkeypatch.setattr(asclt_module, "_power_sums",
                        lambda d, carries: blocks.append(len(d)) or power_sums(d, carries))
    for kind in ASCLT_KINDS:
        blocks.clear()
        run_asclt_path(EXP1, kind, 10_000, 0)
        want = [4096, 4096, 1808] if kind == "loo" else []
        assert blocks == want, kind
    assert asclt_module._BLOCK == 4096


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
    # the path itself is 8 bytes a step; one more N-length float array in
    # the engine would exceed this bound
    n_max = 200_000
    tracemalloc.start()
    try:
        run_asclt_path(EXP1, "loo", n_max, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n_max + 2**20
