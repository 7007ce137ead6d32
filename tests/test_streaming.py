import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodsums import (
    init_state,
    loo_log_series,
    loo_log_statistic,
    loo_series_error_bound,
    make_distribution,
    moments,
    sample,
    state_from_path,
)
from prodsums.streaming import loo_series, loo_series_from_sums, series_error_bound
from prodsums.summation import NeumaierSum, row_sums, running_sums

# frozen against the 60-digit closed forms for the path (1, 2, 3), mu=2:
# value of the third-order series, exact statistic, and their gap bound
SERIES_123 = -0.0721687836487032205636436
EXACT_123 = -0.07452266510375413676601919
BOUND_123 = 0.003382911734  # (2/sqrt(3)) * 3 * 0.25^4 / 4

draws = st.lists(
    st.floats(min_value=1e-2, max_value=1e2, allow_nan=False), min_size=2, max_size=300
)

# random paths long enough to cross several 256-value rows of running_sums,
# as (path, mu), and random splits of them into blocks
rng_paths = st.builds(
    lambda seed, size, log_sd: (
        np.random.default_rng(seed).lognormal(0.0, log_sd, size), math.exp(log_sd**2 / 2)
    ),
    st.integers(0, 2**32 - 1),
    st.integers(2, 3000),
    st.floats(0.1, 2.0),
)
block_sizes = st.lists(st.integers(1, 1200), min_size=1, max_size=6)


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

    def test_state_from_path_rejects_nonpositive_and_2d(self):
        with pytest.raises(ValueError, match="positive"):
            state_from_path([1.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="1-D"):
            state_from_path([[1.0, 2.0]], 1.0)

    def test_state_from_path_matches_streaming(self):
        spec = make_distribution("gamma", [4.0, 0.5])
        v = sample(spec, 2000, 5, 0).values
        a = state_from_path(v, 2.0)
        b = init_state(2.0)
        for x in v:
            b.update(float(x))
        assert a.n == b.n
        assert a.max_abs_d == b.max_abs_d
        for got, want in ((a.p1, b.p1), (a.p2, b.p2), (a.p3, b.p3), (a.total, b.total)):
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


    @pytest.mark.parametrize("family,params,want", [
        ("exponential", [1.0], ["0x1.867de7389f870p+15", "-0x1.1818c76078fefp+7",
                                "0x1.86cf47a868ea4p+15", "0x1.8a6671e1d3858p+16",
                                "0x1.819e241240df8p+3"]),
        ("lognormal", [0.0, 2.0], ["0x1.5e2cc366eab7cp+18", "-0x1.7034d8741456dp+13",
                                   "0x1.09b9e7b620901p+26", "0x1.568b8d7c38872p+36",
                                   "0x1.cf4b8e8a45417p+11"]),
    ])
    def test_state_from_path_keeps_its_bits(self, family, params, want):
        # (total, p1, p2, p3, max|d|) of a path over several chunks that
        # ends inside a 256-value row, recorded from one whole-path
        # running_sums call per sum
        spec = make_distribution(family, params)
        s = state_from_path(sample(spec, 50_123, 4, 0), moments(spec)[0])
        assert [x.hex() for x in (s.total, s.p1, s.p2, s.p3, s.max_abs_d)] == want

    def test_state_from_path_memory_does_not_grow_with_the_path(self):
        v = sample(make_distribution("exponential", [1.0]), 1_000_000, 0, 0).values
        state_from_path(v[:10], 1.0)
        tracemalloc.start()
        try:
            state_from_path(v, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20  # the path itself is 8 MB


class TestBlocks:
    @given(rng_paths, block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_series_form_matches_loo_log_series(self, path, sizes):
        v, mu = path
        gam = 0.7
        d = v - mu
        p1, p2, p3 = (
            np.concatenate([running_sums(b, carry) for b in in_blocks(terms, sizes)])
            for terms, carry in zip((d, d * d, d * d * d), [NeumaierSum() for _ in range(3)])
        )
        n = np.arange(1, v.size + 1)
        value, valid = loo_series_from_sums(
            n[1:], mu, p1[1:], p2[1:], p3[1:], np.maximum.accumulate(np.abs(d))[1:], gam
        )
        ref, want = init_state(mu), []
        for x in v:
            ref.update(float(x))
            if ref.n >= 2:
                want.append(loo_log_series(ref, gam))
        want_value = np.array([w[0] for w in want])
        want_valid = np.array([w[1] for w in want], dtype=bool)
        assert np.array_equal(valid, want_valid)
        assert np.all(np.abs(value[valid] - want_value[valid]) <= 1e-12)

    def test_series_form_undefined_is_nan(self):
        value, valid = loo_series_from_sums(
            np.array([2, 3]), 2.0, np.array([-2.5, 0.0]), np.zeros(2), np.zeros(2),
            np.array([1.5, 0.0]), 1.0,
        )
        assert math.isnan(value[0]) and not valid[0]
        assert value[1] == 0.0 and valid[1]

    @given(st.lists(st.floats(-1e6, 1e6), max_size=700), block_sizes)
    @settings(max_examples=100, deadline=None)
    def test_running_sums_match_neumaier(self, values, sizes):
        ref, want = NeumaierSum(), []
        for x in values:
            want.append(ref.add(x).value)
        carry = NeumaierSum()
        parts = [running_sums(b, carry) for b in in_blocks(values, sizes)]
        got = np.concatenate(parts) if parts else np.empty(0)
        scale = np.cumsum(np.abs(values)) if values else np.empty(0)
        assert np.all(np.abs(got - np.array(want)) <= 1e-12 * (1.0 + scale))
        assert abs(carry.value - ref.value) <= 1e-12 * (1.0 + sum(map(abs, values)))


    @given(
        st.lists(st.one_of(st.floats(-1e16, 1e16), st.sampled_from([1e16, -1e16, 1.0, -1.0])),
                 max_size=2000),
        block_sizes,
    )
    @example([1e16] + [1.0] * 300 + [-1e16] * 2 + [3.0] * 600, [256, 700])
    @example([-1e16, 1e16] * 300 + [0.5] * 300, [300])
    @settings(max_examples=100, deadline=None)
    def test_running_sums_keep_the_bits_of_the_carry_calls(self, values, sizes):
        # the row loop on local floats against NeumaierSum.value and .add,
        # one call per 256-value row; the large terms cancel
        def reference(x, carry):
            x = np.asarray(x, dtype=float)
            rows = -(-x.size // 256)
            padded = np.zeros(rows * 256)
            padded[: x.size] = x
            local = np.cumsum(padded.reshape(rows, 256), axis=1)
            base = np.empty((rows, 1))
            for r, row_total in enumerate(local[:, -1].tolist()):
                base[r, 0] = carry.value
                carry.add(row_total)
            return (local + base).reshape(-1)[: x.size]

        got_carry, want_carry = NeumaierSum(), NeumaierSum()
        for block in in_blocks(values, sizes):
            got = running_sums(block, got_carry)
            assert got.tobytes() == reference(block, want_carry).tobytes()
            assert (got_carry._s, got_carry._c) == (want_carry._s, want_carry._c)

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

    def test_running_sums_do_not_drift(self):
        # a plain cumsum of a million 0.1s drifts by about 1e-6
        got = running_sums(np.full(10**6, 0.1), NeumaierSum())
        want = np.arange(1, 10**6 + 1) * 0.1
        assert np.max(np.abs(got - want)) <= 1e-9


class TestSeries:
    def test_identity_case(self):
        s = init_state(2.0)
        s.update(2.0)
        s.update(2.0)
        value, valid = loo_log_series(s, gamma=0.7)
        assert value == 0.0 and valid

    def test_worked_example(self):
        s = state_from_path([1.0, 2.0, 3.0], 2.0)
        value, valid = loo_log_series(s, gamma=0.5)
        assert valid
        assert value == pytest.approx(SERIES_123, abs=1e-14)
        assert abs(value - EXACT_123) <= BOUND_123

    def test_needs_two(self):
        s = init_state(1.0)
        s.update(1.0)
        with pytest.raises(ValueError, match="n >= 2"):
            loo_log_series(s, 1.0)
        with pytest.raises(ValueError, match="n >= 2"):
            loo_series_error_bound(s, 1.0)

    def test_invalid_gate_extreme_path(self):
        # both draws far below mu: the ratios leave the [1/2, 3/2] band
        s = state_from_path([0.01, 0.01], 2.0)
        _, valid = loo_log_series(s, 1.0)
        assert not valid

    def test_overflowing_power_sums_fail_the_gate(self):
        # d**2 overflows for these centred draws, so p2 and p3 are not
        # finite, while (|D| + max|d|) / m = 1/3 alone would pass
        s = state_from_path([1.0, 1e300, 1.0, 1e300], 0.5 + 5e299)
        assert not math.isfinite(s.p2)
        value, valid = loo_log_series(s, 1.0)
        assert not math.isfinite(value) and not valid

    def test_gate_boundary(self):
        # (|D| + max|d|) / m is exactly 1/2 here; any larger draw fails
        assert loo_log_series(state_from_path([1.0, 1.0, 1.5], 1.0), 1.0)[1]
        assert not loo_log_series(state_from_path([1.0, 1.0, 1.5 + 1e-12], 1.0), 1.0)[1]

    def test_bound_monotone_in_deviation(self):
        near = state_from_path([0.99, 1.01], 1.0)
        far = state_from_path([0.7, 1.3], 1.0)
        assert loo_series_error_bound(near, 1.0) < loo_series_error_bound(far, 1.0)

    def test_large_n_agreement_exp(self):
        spec = make_distribution("exponential", [1.0])
        for r in range(50):
            v = sample(spec, 10_000, base_seed=2, stream_index=r).values
            s = state_from_path(v, 1.0)
            value, valid = loo_log_series(s, 1.0)
            assert valid
            exact = loo_log_statistic(v, 1.0, 1.0)
            assert abs(value - exact) <= 1e-6
            assert abs(value - exact) <= loo_series_error_bound(s, 1.0)

    @given(draws, st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_agreement_within_bound_when_valid(self, vals, gam):
        mu = float(np.mean(vals))
        s = state_from_path(vals, mu)
        value, valid = loo_log_series(s, gam)
        if not valid:
            return
        exact = loo_log_statistic(vals, mu, gam)
        bound = loo_series_error_bound(s, gam)
        assert abs(value - exact) <= bound + 1e-13

    def test_third_order_is_the_gated_series(self):
        s = state_from_path([1.0, 2.0, 3.0], 2.0)
        value, u = loo_series(3, 2.0, (s.p1, s.p2, s.p3), s.max_abs_d, 0.5)
        assert value == loo_log_series(s, 0.5)[0]
        assert series_error_bound(3, u, 0.5) == loo_series_error_bound(s, 0.5)

    @given(draws, st.floats(min_value=0.2, max_value=5.0), st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_any_order_within_its_bound(self, vals, gam, order):
        v = np.array(vals)
        mu = float(np.mean(v))
        d = v - mu
        sums = [math.fsum(d**j) for j in range(1, order + 1)]
        value, u = loo_series(v.size, mu, sums, float(np.max(np.abs(d))), gam)
        exact = loo_log_statistic(v, mu, gam)
        assert abs(value - exact) <= series_error_bound(v.size, u, gam, order) + 1e-13

    def test_bound_is_inf_from_u_one(self):
        bound = series_error_bound(np.array([4, 4, 4]), np.array([0.5, 1.0, 1e300]), 1.0, 16)
        assert bound[0] == 4 * 0.5**17 / (17 * 0.5) / 2 and np.all(np.isinf(bound[1:]))


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

        small = state_from_path(sample(make_distribution("exponential", [1.0]), 10, 0, 0), 1.0)
        big = state_from_path(sample(make_distribution("exponential", [1.0]), 1_000_000, 0, 1), 1.0)

        def clock(state):
            t0 = time.perf_counter()
            for _ in range(2000):
                loo_log_series(state, 1.0)
            return time.perf_counter() - t0

        clock(small)  # warm up
        assert clock(big) < 20.0 * max(clock(small), 1e-4)
