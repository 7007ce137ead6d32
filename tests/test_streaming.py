import math

import numpy as np
import pytest
from hypothesis import given, settings
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

# frozen against the 60-digit closed forms for the path (1, 2, 3), mu=2:
# value of the third-order series, exact statistic, and their gap bound
SERIES_123 = -0.0721687836487032205636436
EXACT_123 = -0.07452266510375413676601919
BOUND_123 = 0.003382911734  # (2/sqrt(3)) * 3 * 0.25^4 / 4

draws = st.lists(
    st.floats(min_value=1e-2, max_value=1e2, allow_nan=False), min_size=2, max_size=300
)


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
