import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsums import (
    NeumaierSum,
    init_state,
    loo_log_series,
    loo_log_statistic,
    loo_series_error_bound,
    make_distribution,
    moments,
    sample,
    state_from_path,
)
from prodsums.streaming import loo_series_from_sums
from prodsums.summation import row_sums, running_sums

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


def stepwise(values, mu):
    """Reference: the state after each draw, one update() at a time."""
    state = init_state(mu)
    rows = []
    for x in values:
        state.update(float(x))
        rows.append((state.total, state.p1, state.p2, state.p3, state.max_abs_d))
    return state, np.array(rows)


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


class TestBlocks:
    @given(rng_paths, block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_extend_matches_repeated_update(self, path, sizes):
        v, mu = path
        ref, want = stepwise(v, mu)
        state = init_state(mu)
        got = np.vstack([np.column_stack(state.extend(b)) for b in in_blocks(v, sizes)])
        # each sum to 1e-12 of the running sum of its terms' magnitudes
        d = v - mu
        scale = np.cumsum(np.column_stack([v, np.abs(d), d * d, np.abs(d) ** 3]), axis=0)
        assert np.all(np.abs(got[:, :4] - want[:, :4]) <= 1e-12 * (1.0 + scale))
        assert np.array_equal(got[:, 4], want[:, 4])
        assert state.n == ref.n and state.max_abs_d == ref.max_abs_d
        for a, b in ((state.total, ref.total), (state.p1, ref.p1), (state.p3, ref.p3)):
            assert abs(a - b) <= 1e-12 * (1.0 + np.max(scale))

    def test_extend_rejects_nonpositive_and_2d(self):
        with pytest.raises(ValueError, match="positive"):
            init_state(1.0).extend([1.0, 0.0])
        with pytest.raises(ValueError, match="1-D"):
            init_state(1.0).extend([[1.0, 2.0]])

    @given(rng_paths, block_sizes)
    @settings(max_examples=60, deadline=None)
    def test_series_form_matches_loo_log_series(self, path, sizes):
        v, mu = path
        gam = 0.7
        state = init_state(mu)
        ref = init_state(mu)
        n0 = 0
        for b in in_blocks(v, sizes):
            s, p1, p2, p3, max_abs_d = state.extend(b)
            n = np.arange(n0 + 1, n0 + b.size + 1)
            n0 += b.size
            keep = n >= 2
            value, valid = loo_series_from_sums(
                n[keep], mu, p1[keep], p2[keep], p3[keep], max_abs_d[keep], gam
            )
            want = []
            for x in b:
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
