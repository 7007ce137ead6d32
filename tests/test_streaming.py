import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodsums import (
    LooSeries,
    loo_log_statistic,
    make_distribution,
    sample,
    sample_chunks,
)
from prodsums import streaming
from prodsums.streaming import init_state, loo_log_series
from prodsums.summation import NeumaierSum, exact_running_sums, row_sums, two_sum

# frozen against the 60-digit closed forms for the path (1, 2, 3), mu=2:
# value of the third-order series, exact statistic, and their gap bound
SERIES_123 = -0.0721687836487032205636436
EXACT_123 = -0.07452266510375413676601919
BOUND_123 = 0.003382911734  # (2/sqrt(3)) * 3 * 0.25^4 / 4

draws = st.lists(
    st.floats(min_value=1e-2, max_value=1e2, allow_nan=False), min_size=2, max_size=300
)

# random paths, as (path, mu), and random splits of them into blocks
rng_paths = st.builds(
    lambda seed, size, log_sd: (
        np.random.default_rng(seed).lognormal(0.0, log_sd, size), math.exp(log_sd**2 / 2)
    ),
    st.integers(0, 2**32 - 1),
    st.integers(2, 3000),
    st.floats(0.1, 2.0),
)
block_sizes = st.lists(st.integers(1, 1200), min_size=1, max_size=6)


def state_of(path, mu):
    """A PowerSumState fed every draw of the path."""
    state = init_state(mu)
    for x in np.asarray(getattr(path, "values", path), dtype=float).tolist():
        state.update(x)
    return state


def third_order_bound(state, gamma):
    """n*u^4/(4*(1-u)) / (gamma*sqrt(n)) with u = (|p1| + max|d|)/m, the
    error bound of loo_log_series inside its gate."""
    n = state.n
    u = (abs(state.p1) + state.max_abs_d) / ((n - 1) * state.mu)
    return n * u**4 / (4 * (1 - u)) / (gamma * math.sqrt(n)) if u < 1 else math.inf


def series_values(path, mu, gamma, sizes=(4096,)):
    """LooSeries over the whole path in blocks of the given sizes, cycled:
    value, bound and size at every step, the size with the exact kernel's
    share sqrt(n)/gamma added."""
    series = LooSeries(mu, gamma)
    path = np.asarray(getattr(path, "values", path), dtype=float)
    parts = [series.block(block) for block in in_blocks(path, list(sizes))]
    value, bound, size = (np.concatenate(part) for part in zip(*parts))
    return value, bound, size + np.sqrt(np.arange(1, value.size + 1)) / gamma


def in_blocks(values, sizes):
    """Consecutive slices of values, cycling through the block sizes."""
    start, k = 0, 0
    while start < len(values):
        yield values[start : start + sizes[k % len(sizes)]]
        start += sizes[k % len(sizes)]
        k += 1


class TestStateBasics:
    def test_init_zero(self):
        s = init_state(1.0)
        assert (s.n, s.total, s.p1, s.p2, s.p3, s.max_abs_d) == (0, 0, 0, 0, 0, 0)
        assert s.mu == 1.0

    def test_init_other_mu(self):
        assert init_state(2.5).mu == 2.5

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_init_rejects_nonpositive_mu(self, mu):
        with pytest.raises(ValueError, match="positive"):
            init_state(mu)

    def test_update_arithmetic(self):
        s = init_state(2.0)
        s.update(1.0)
        s.update(3.0)
        assert s.n == 2
        assert s.total == 4.0
        assert s.p1 == 0.0
        assert s.p2 == 2.0
        assert s.p3 == 0.0
        assert s.max_abs_d == 1.0

    def test_update_rejects_nonpositive(self):
        s = init_state(1.0)
        with pytest.raises(ValueError, match="positive"):
            s.update(0.0)
        with pytest.raises(ValueError, match="positive"):
            s.update(-2.0)

    @given(draws, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_p1_telescoping_identity(self, vals, mu):
        s = init_state(mu)
        for x in vals:
            s.update(x)
        assert abs(s.p1 - (s.total - s.n * mu)) <= 1e-9 * (1.0 + abs(s.total))

    @given(draws, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_matches_direct_sums(self, vals, mu):
        s = init_state(mu)
        for x in vals:
            s.update(x)
        d = np.asarray(vals) - mu
        for got, want in ((s.p1, math.fsum(d)), (s.p2, math.fsum(d * d))):
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
        assert s.max_abs_d == float(np.max(np.abs(d)))

class TestBlocks:
    @given(rng_paths, block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_series_blocks_match_the_exact_statistic(self, path, sizes):
        # any split into blocks: each step's value is within its bound plus
        # its rounding of the exact statistic
        v, mu = path
        gam = 0.7
        value, bound, size = series_values(v, mu, gam, sizes)
        exact = np.array([loo_log_statistic(v[:n], mu, gam) for n in range(2, v.size + 1)])
        ok = bound[1:] <= 1e-14
        assert np.all(np.abs(value[1:] - exact)[ok] <= bound[1:][ok] + 64 * 2.0**-52 * size[1:][ok])
        assert ok.mean() > 0.9

    @given(rng_paths, block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_series_form_matches_loo_log_series(self, path, sizes):
        # the engine's series, in blocks of any sizes, against the scalar
        # third-order series the benchmark replays, wherever its gate holds
        v, mu = path
        gam = 0.7
        value, bound, size = series_values(v, mu, gam, sizes)
        ref = init_state(mu)
        for n, x in enumerate(v.tolist(), 1):
            ref.update(x)
            want, valid = loo_log_series(ref, gam) if n >= 2 else (None, False)
            if valid:
                reach = third_order_bound(ref, gam) + bound[n - 1] + 64 * 2.0**-52 * size[n - 1]
                assert abs(value[n - 1] - want) <= reach + 1e-13

    def test_series_form_undefined_is_nan(self):
        # t_1 divides by (n-1)*mu = 0
        value, bound, size = LooSeries(2.0, 1.0).block([2.0, 3.0])
        assert math.isnan(value[0]) and math.isfinite(value[1])
        assert value[1] == pytest.approx(loo_log_statistic([2.0, 3.0], 2.0, 1.0), abs=1e-15)

    def test_series_rejects_nonpositive_and_2d(self):
        with pytest.raises(ValueError, match="positive"):
            LooSeries(1.0, 1.0).block([1.0, 0.0])
        with pytest.raises(ValueError, match="1-D"):
            LooSeries(1.0, 1.0).block([[1.0, 2.0]])
        with pytest.raises(ValueError, match="positive"):
            LooSeries(1.0, 0.0)
        with pytest.raises(ValueError, match="nonempty"):
            LooSeries(1.0, 1.0).block([])
        for bad in (math.inf, math.nan):  # both came back as nan with a zero bound
            with pytest.raises(ValueError, match="finite positive"):
                LooSeries(1.0, 1.0).block([1.0, 2.0, bad, 3.0])

    def test_series_memory_does_not_grow_with_the_path(self):
        spec = make_distribution("exponential", [1.0])
        series_values(sample(spec, 10, 0, 0), 1.0, 1.0)
        series = LooSeries(1.0, 1.0)
        tracemalloc.start()
        try:
            for x in sample_chunks(spec, 1_000_000, 0, 0, 4096):
                series.block(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20  # the path itself would be 8 MB

    @given(
        st.lists(st.one_of(st.floats(-1e16, 1e16), st.sampled_from([1e16, -1e16, 1.0, -1.0])),
                 min_size=1, max_size=2000),
        block_sizes,
    )
    @example([1e16] + [1.0] * 300 + [-1e16] * 2 + [3.0] * 600, [256, 700])
    @example([-1e16, 1e16] * 300 + [0.5] * 300, [300])
    @example([3.937046169483043e-14, 1.0, 1.0, 2.0**49], [2])
    @example([0.1] * 1000 + [1e16], [1200])
    @settings(max_examples=100, deadline=None)
    def test_exact_running_sums_are_accurate_in_any_split(self, values, sizes):
        # each prefix within one rounding of its exact value, plus an
        # allowance for the rounding errors' own cumsum that scales with the
        # prefix's own terms, whatever follows them; the large terms cancel
        carry = NeumaierSum()
        got = [exact_running_sums(np.array(block), carry) for block in in_blocks(values, sizes)]
        exact = list(itertools.accumulate(map(Fraction, values)))
        # a rounding is at most 2**-53 relative
        bound = (1.12e-16 * np.abs(np.array(exact, dtype=float))
                 + 1e-20 * np.cumsum(np.abs(values)))
        err = [abs(Fraction(g) - e) for g, e in zip(np.concatenate(got).tolist(), exact)]
        assert np.all(np.array(err, dtype=float) <= bound)
        assert abs(Fraction(carry.value) - exact[-1]) <= bound[-1]

    @given(
        st.lists(st.floats(-1e16, 1e16), min_size=1, max_size=2000),
        st.integers(1, 2000),
        st.lists(st.floats(-1e16, 1e16), max_size=3),
    )
    @example([0.1] * 1000 + [1e16], 1000, [])
    @settings(max_examples=100, deadline=None)
    def test_exact_running_sums_are_prefix_stable(self, values, k, lead):
        # the prefixes of x[:k] are those of x, bit for bit, from any carry
        # (the sum of some lead values); the carry x[:k] leaves continues
        # with x[k:] to the bits of x in one call
        k = min(k, len(values))
        x, part, whole = np.array(values), NeumaierSum(), NeumaierSum()
        for v in lead:
            part.add(v)
            whole.add(v)
        want = exact_running_sums(x, whole)
        assert np.array_equal(exact_running_sums(x[:k], part), want[:k])
        if k < x.size:
            assert np.array_equal(exact_running_sums(x[k:], part), want[k:])
        assert (part._s, part._c) == (whole._s, whole._c)

    @given(st.lists(st.floats(-2.0**1022, 2.0**1022), min_size=2, max_size=50))
    @example([1e16, 1.0, -1e16, 0.5])
    @example([5e-324, 1e-300, -1e-300, 2.0**-1074])
    @settings(max_examples=300, deadline=None)
    def test_two_sum_is_the_exact_error(self, values):
        # s + err is a + b exactly, for floats and arrays alike, and
        # NeumaierSum.add keeps the bits of the branching Neumaier update
        # (Fast2Sum from the larger term) that it replaced, on sums that stay
        # finite
        a, b = np.array(values[:-1]), np.array(values[1:])
        errs = two_sum(a, b, a + b)
        for x, y, err in zip(a.tolist(), b.tolist(), errs.tolist()):
            assert two_sum(x, y, x + y) == err
            assert Fraction(x) + Fraction(y) == Fraction(x + y) + Fraction(err)
        carry, s, c = NeumaierSum(), 0.0, 0.0
        for v in np.ldexp(values, -6).tolist():
            carry.add(v)
            t = s + v
            c += (s - t) + v if abs(s) >= abs(v) else (v - t) + s
            s = t
            assert (carry._s.hex(), carry._c.hex()) == (s.hex(), c.hex())

    @given(
        st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=3000),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_sums_are_accurate_in_any_order(self, values, rnd):
        perm = list(values)
        rnd.shuffle(perm)
        exact = math.fsum(values)
        # within one rounding of the exact sum, plus a far smaller low-part error
        bound = 2.3e-16 * abs(exact) + 1e-20 * sum(map(abs, values))
        assert np.all(np.abs(row_sums(np.array([values, perm])) - exact) <= bound)

    def test_exact_running_sums_do_not_drift(self):
        # a plain cumsum of a million 0.1s drifts by about 1e-6; each
        # prefix here is within a rounding of k * 0.1, block after block
        x, carry = np.full(10**6, 0.1), NeumaierSum()
        blocks = np.split(x, range(4096, x.size, 4096))
        got = np.concatenate([exact_running_sums(b, carry) for b in blocks])
        want = np.arange(1, 10**6 + 1) * 0.1
        assert np.max(np.abs(got - want) / want) <= 1.12e-16
        assert carry.value == want[-1]


class TestSeries:
    def test_identity_case(self):
        s = init_state(2.0)
        s.update(2.0)
        s.update(2.0)
        value, valid = loo_log_series(s, gamma=0.7)
        assert value == 0.0 and valid

    def test_worked_example(self):
        s = state_of([1.0, 2.0, 3.0], 2.0)
        value, valid = loo_log_series(s, gamma=0.5)
        assert valid
        assert value == pytest.approx(SERIES_123, abs=1e-14)
        assert abs(value - EXACT_123) <= BOUND_123
        # the anchored series takes every draw of so short a path exactly
        assert series_values([1.0, 2.0, 3.0], 2.0, 0.5)[0][-1] == pytest.approx(EXACT_123, abs=1e-15)

    def test_needs_two(self):
        s = init_state(1.0)
        s.update(1.0)
        with pytest.raises(ValueError, match="n >= 2"):
            loo_log_series(s, 1.0)

    def test_invalid_gate_extreme_path(self):
        # both draws far below mu: the ratios leave the [1/2, 3/2] band
        s = state_of([0.01, 0.01], 2.0)
        _, valid = loo_log_series(s, 1.0)
        assert not valid

    def test_overflowing_power_sums_fail_the_gate(self):
        # d**2 overflows for these centred draws, so p2 and p3 are not
        # finite, while (|D| + max|d|) / m = 1/3 alone would pass
        s = state_of([1.0, 1e300, 1.0, 1e300], 0.5 + 5e299)
        assert not math.isfinite(s.p2)
        value, valid = loo_log_series(s, 1.0)
        assert not math.isfinite(value) and not valid

    def test_gate_boundary(self):
        # (|D| + max|d|) / m is exactly 1/2 here; any larger draw fails
        assert loo_log_series(state_of([1.0, 1.0, 1.5], 1.0), 1.0)[1]
        assert not loo_log_series(state_of([1.0, 1.0, 1.5 + 1e-12], 1.0), 1.0)[1]

    def test_bound_monotone_in_deviation(self):
        near = state_of([0.99, 1.01], 1.0)
        far = state_of([0.7, 1.3], 1.0)
        assert third_order_bound(near, 1.0) < third_order_bound(far, 1.0)

    def test_large_n_agreement_exp(self):
        spec = make_distribution("exponential", [1.0])
        for r in range(50):
            v = sample(spec, 10_000, base_seed=2, stream_index=r).values
            s = state_of(v, 1.0)
            value, valid = loo_log_series(s, 1.0)
            assert valid
            exact = loo_log_statistic(v, 1.0, 1.0)
            assert abs(value - exact) <= 1e-6
            assert abs(value - exact) <= third_order_bound(s, 1.0)

    @given(draws, st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_agreement_within_bound_when_valid(self, vals, gam):
        mu = float(np.mean(vals))
        s = state_of(vals, mu)
        value, valid = loo_log_series(s, gam)
        if not valid:
            return
        exact = loo_log_statistic(vals, mu, gam)
        assert abs(value - exact) <= third_order_bound(s, gam) + 1e-13

    def test_third_order_is_the_gated_series(self):
        # (n*log1p(D/m) - p1/a - p2/(2a^2) - p3/(3a^3)) / (gamma*sqrt(n))
        s = state_of([1.0, 2.0, 3.0], 2.0)
        m, a = 4.0, 4.0 + s.p1
        want = (3 * math.log1p(s.p1 / m) - s.p1 / a - s.p2 / (2 * a * a) - s.p3 / (3 * a**3)) / (0.5 * math.sqrt(3))
        assert loo_log_series(s, 0.5)[0] == pytest.approx(want, abs=1e-16)

    @given(draws, st.floats(min_value=0.2, max_value=5.0), st.sampled_from([1e-2, 1e-5, 1e-9, 1e-14]))
    @settings(max_examples=200, deadline=None)
    def test_any_order_within_its_bound(self, vals, gam, tol):
        # a looser tol picks lower orders; each is within its own bound
        v = np.array(vals)
        mu = float(np.mean(v))
        with mock.patch.object(streaming, "TOL", tol):
            value, bound, size = series_values(v, mu, gam)
        exact = np.array([loo_log_statistic(v[:n], mu, gam) for n in range(2, v.size + 1)])
        err, bound, size = np.abs(value[1:] - exact), bound[1:], size[1:]
        assert np.all(err <= bound + 64 * 2.0**-52 * size + 1e-14)

class TestCost:
    def test_update_is_constant_work(self):
        # feeding 10^5 draws must be linear: per-update cost flat
        import time

        s = init_state(1.0)
        t0 = time.perf_counter()
        for _ in range(100_000):
            s.update(1.5)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0

    def test_series_cost_independent_of_n(self):
        import time

        small = state_of(sample(make_distribution("exponential", [1.0]), 10, 0, 0), 1.0)
        big = state_of(sample(make_distribution("exponential", [1.0]), 1_000_000, 0, 1), 1.0)

        def clock(state):
            t0 = time.perf_counter()
            for _ in range(2000):
                loo_log_series(state, 1.0)
            return time.perf_counter() - t0

        clock(small)  # warm up
        assert clock(big) < 20.0 * max(clock(small), 1e-4)
