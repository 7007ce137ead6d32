import hashlib
import itertools
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodsums.asclt as asclt_module
import prodsums.statistics as statistics_module
from prodsums import (
    ASCLT_KINDS,
    STATISTIC_KINDS,
    ExperimentConfig,
    LimitLaw,
    geometric_mean_loo,
    geometric_mean_prefix,
    linearized_statistic,
    loo_log_chunked,
    loo_log_statistic,
    make_distribution,
    max_relative_deviation,
    moments,
    remainder_magnitude,
    rw_log_statistic,
    sample,
    sample_chunks,
    sample_rows,
    standardized_sum,
)
from prodsums.cli import main, parse_dist

# frozen against a 60-digit evaluation of the closed forms
LOO_123 = -0.07452266510375413676601919  # (2/sqrt(3)) * ln(15/16)
RW_22 = 0.9802581434685471917139017     # sqrt(2) * ln(2)

paths = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=2, max_size=400
)


class TestLooLogStatistic:
    def test_identity_case(self):
        assert loo_log_statistic([2.0, 2.0], mu=2.0, gamma=0.7) == 0.0

    def test_frozen_value(self):
        got = loo_log_statistic([1.0, 2.0, 3.0], mu=2.0, gamma=0.5)
        assert got == pytest.approx(LOO_123, abs=1e-14)

    def test_constant_path_algebra(self):
        c, mu, gam, n = 3.0, 2.0, 0.7, 5
        got = loo_log_statistic([c] * n, mu, gam)
        assert got == pytest.approx(math.sqrt(n) / gam * math.log(c / mu), rel=1e-13)

    def test_n1_rejected(self):
        with pytest.raises(ValueError, match="n = 1"):
            loo_log_statistic([1.0], 1.0, 1.0)

    def test_dominant_draw_keeps_the_small_loo_sum(self):
        # S_n rounds to 1e20, so S_n - 1e20 would be 0 and its log -inf;
        # the leave-one-out sum of the dominant draw is the other draw
        want = float((mpmath.log(1e-20) + mpmath.log(1e20)) / mpmath.sqrt(2))
        assert loo_log_statistic([1e20, 1e-20], 1.0, 1.0) == pytest.approx(want, abs=1e-13)

    def test_dominant_draws_match_mpmath(self):
        # most gamma:0.001:1 paths are one draw and 49 far smaller ones, so
        # S_n - X_k cancels for that draw
        spec = make_distribution("gamma", [0.001, 1.0])
        mu, sigma, gam = moments(spec)
        paths = np.array([sample(spec, 50, 0, i).values for i in range(20)])
        batch = STATISTIC_KINDS["loo"].evaluate(paths, mu, sigma, gam)[0]
        for v, got in zip(paths, batch):
            with mpmath.workdps(60):
                x = [mpmath.mpf(float(d)) for d in v]
                s, m = mpmath.fsum(x), 49 * mpmath.mpf(mu)
                want = mpmath.fsum(mpmath.log((s - d) / m) for d in x)
                want = float(want / (mpmath.mpf(gam) * mpmath.sqrt(50)))
            for value in (got, loo_log_statistic(v, mu, gam), loo_log_chunked([v], [50], mu, gam)[0]):
                assert abs(value - want) <= 1e-12 * abs(want)

    def test_bad_mu_gamma(self):
        with pytest.raises(ValueError, match="positive"):
            loo_log_statistic([1.0, 2.0], 0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            loo_log_statistic([1.0, 2.0], 1.0, -1.0)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            loo_log_statistic([1.0, -2.0, 3.0], 1.0, 1.0)


def in_chunks(values, size):
    """A chunk source over values: consecutive slices of the given size."""
    v = np.asarray(values, dtype=float)
    return [v[lo : lo + size] for lo in range(0, v.size, size)]


class TestLooLogChunked:
    @given(
        st.lists(st.floats(1e-3, 1e3, allow_nan=False), min_size=2, max_size=600),
        st.data(),
        st.integers(1, 700),
        st.sampled_from([8, 8 * 37, statistics_module._BATCH_BYTES]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_one_row_calls(self, vals, data, size, budget):
        ns = sorted(data.draw(st.lists(st.integers(2, len(vals)), min_size=1, max_size=40)))
        with mock.patch.object(statistics_module, "_BATCH_BYTES", budget):
            got = loo_log_chunked(in_chunks(vals, size), ns, 1.3, 0.7)
        want = [loo_log_statistic(vals[:n], 1.3, 0.7) for n in ns]
        assert np.all(np.abs(got - want) <= 1e-12)

    def test_batches_are_bounded(self, monkeypatch):
        # every batch makes one log_ratio call on its (steps, chunk) ratios,
        # over the chunks up to each step's own
        shapes = []
        kernel = statistics_module.log_ratio
        monkeypatch.setattr(statistics_module, "log_ratio",
                            lambda num, den: shapes.append(num.shape) or kernel(num, den))
        v = sample(make_distribution("exponential", [1.0]), 3000, 0, 0).values
        loo_log_chunked(in_chunks(v, 1000), np.arange(2, 3001), 1.0, 1.0)
        assert sum(rows for rows, _ in shapes) == 2999 + 2000 + 1000
        assert max(rows * width for rows, width in shapes) <= statistics_module._BATCH_BYTES // 8
        assert len(shapes) == 94 + 63 + 32  # 32 steps a batch

    @pytest.mark.parametrize("family", [
        "exponential:1", "gamma:0.002:1", "lognormal:0:20", "twopoint:1:1e300:0.5",
        "uniform:1e-300:2e-300",
    ])
    def test_matches_the_prefix_evaluator(self, family):
        # on the chunk source of a path of 2e4, with the first draw of the
        # second chunk and the last draw of each chunk among the steps
        spec = parse_dist(family)
        mu, _, gam = moments(spec)
        ns = np.array([2, 4096, 4097, 4098, 8192, 9999, 10_000, 10_001, 19_999, 20_000])
        got = loo_log_chunked(sample_chunks(spec, 20_000, 0, 0), ns, mu, gam)
        v = sample(spec, 20_000, 0, 0).values
        want = [loo_log_statistic(v[:n], mu, gam) for n in ns]
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_dominant_and_other_rows_across_chunks(self):
        # the first draw dominates the rows up to n = 667 or so
        v = np.concatenate([[1e3], sample(make_distribution("uniform", [1.0, 2.0]),
                                          1499, 0, 0).values])
        ns = np.arange(2, 1501, 7)
        dominant = v[0] > 0.5 * np.cumsum(v)[ns - 1]
        assert dominant.any() and not dominant.all()
        got = loo_log_chunked(in_chunks(v, 97), ns, 1.0, 1.0)
        want = [loo_log_statistic(v[:n], 1.0, 1.0) for n in ns]
        assert np.all(np.abs(got - want) <= 1e-12)

    def test_reads_only_up_to_the_last_step(self):
        read = []

        class Chunks:
            def __iter__(self):
                for lo in range(0, 100, 10):
                    read.append(lo)
                    yield np.full(10, 1.0 + lo)

        assert loo_log_chunked(Chunks(), [15], 1.0, 1.0)[0] == loo_log_statistic(
            [1.0] * 10 + [11.0] * 5, 1.0, 1.0)
        assert read == [0, 10, 0, 10]

    @pytest.mark.parametrize("once", [
        lambda chunks: iter(chunks), lambda chunks: (x for x in chunks),
    ])
    def test_rejects_an_iterator(self, once):
        # its second pass would be empty, and every value 0
        with pytest.raises(ValueError, match="re-readable"):
            loo_log_chunked(once(in_chunks([1.0, 2.0, 3.0], 2)), [3], 1.0, 1.0)

    def test_rejects_a_short_second_pass(self):
        class Shrinking:
            passes = 0

            def __iter__(self):
                self.passes += 1
                return iter(in_chunks([1.0, 2.0, 3.0], 2)[: 3 - self.passes])

        with pytest.raises(ValueError, match="second pass over chunks ended at draw 2, before step 3"):
            loo_log_chunked(Shrinking(), [3], 1.0, 1.0)

    @pytest.mark.parametrize("ns,match", [
        ([3, 2], "nondecreasing"), ([1, 2], "n >= 2"), ([2, 4], "exceeds the path length"),
        ([2.0], "integers"), ([[2]], "integers"), ([], "nonempty"),
    ])
    def test_bad_prefix_lengths(self, ns, match):
        with pytest.raises(ValueError, match=match):
            loo_log_chunked(in_chunks([1.0, 2.0, 3.0], 2), ns, 1.0, 1.0)

    def test_bad_path_and_moments(self):
        with pytest.raises(ValueError, match="strictly positive"):
            loo_log_chunked(in_chunks([1.0, -2.0, 3.0], 2), [3], 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            loo_log_chunked(in_chunks([1.0, 2.0], 2), [2], 1.0, 0.0)


class TestRwLogStatistic:
    def test_exact_zero(self):
        assert rw_log_statistic([1.0, 1.0, 1.0], mu=1.0, gamma=1.0) == 0.0

    def test_frozen_value(self):
        got = rw_log_statistic([2.0, 2.0], mu=1.0, gamma=1.0)
        assert got == pytest.approx(RW_22, abs=1e-14)

    def test_constant_at_mean(self):
        assert rw_log_statistic([4.5] * 7, mu=4.5, gamma=0.3) == 0.0

    def test_single_draw_allowed(self):
        got = rw_log_statistic([2.0], mu=1.0, gamma=1.0)
        assert got == pytest.approx(math.log(2.0), rel=1e-15)


class TestLinearizedAndStandardized:
    def test_zero_cases(self):
        assert linearized_statistic([2.0, 2.0, 2.0], 2.0, 0.5) == 0.0
        assert standardized_sum([2.0, 2.0], 2.0, 1.0) == 0.0

    def test_symmetric_cancellation(self):
        assert linearized_statistic([1.0, 3.0], mu=2.0, gamma=0.5) == pytest.approx(
            0.0, abs=1e-16
        )
        assert standardized_sum([1.0, 3.0], 2.0, 1.0) == 0.0

    def test_single_standardized(self):
        assert standardized_sum([3.0], 2.0, 1.0) == 1.0

    def test_linearized_needs_two(self):
        with pytest.raises(ValueError, match="n = 1"):
            linearized_statistic([1.0], 1.0, 1.0)

    @given(
        paths,
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_with_standardized(self, vals, mu, sigma):
        # the linearization collapses algebraically to the standardized sum
        # for any positive mu, sigma with gamma = sigma/mu
        lin = linearized_statistic(vals, mu, sigma / mu)
        std = standardized_sum(vals, mu, sigma)
        assert abs(lin - std) <= 1e-10 * (1.0 + abs(std))


class TestGeometricMeans:
    def test_constant_prefix(self):
        assert geometric_mean_prefix([3.0] * 6) == pytest.approx(3.0, rel=1e-14)

    def test_prefix_frozen(self):
        assert geometric_mean_prefix([1.0, 3.0]) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_constant_loo(self):
        assert geometric_mean_loo([2.5] * 5) == pytest.approx(2.5, rel=1e-14)

    def test_loo_frozen(self):
        assert geometric_mean_loo([1.0, 3.0]) == pytest.approx(
            math.sqrt(3.0), rel=1e-15
        )

    def test_loo_needs_two(self):
        with pytest.raises(ValueError, match="n = 1"):
            geometric_mean_loo([1.0])

    def test_slln_convergence_exp(self):
        spec = make_distribution("exponential", [1.0])
        v = sample(spec, 100_000, base_seed=0, stream_index=0).values
        assert abs(geometric_mean_prefix(v) - 1.0) <= 0.02
        assert abs(geometric_mean_loo(v) - 1.0) <= 0.02


class TestDeviationDiagnostics:
    def test_maxdev_constant(self):
        assert max_relative_deviation([2.0] * 4, 2.0) == 0.0

    def test_maxdev_frozen(self):
        assert max_relative_deviation([1.0, 3.0], 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_remainder_constant(self):
        assert remainder_magnitude([2.0] * 4, 2.0, 0.5) == 0.0

    def test_remainder_frozen(self):
        got = remainder_magnitude([1.0, 3.0], mu=2.0, gamma=0.5)
        assert got == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_remainder_of_huge_ratios_matches_mpmath(self):
        # c = 3e154 squares past the double range; the true remainder
        # 6.36e307 does not
        with mpmath.workdps(700):
            x = [mpmath.mpf(3e154), mpmath.mpf(1e-154)]
            want = float(mpmath.fsum((sum(x) - d - 1) ** 2 for d in x) / (10 * mpmath.sqrt(2)))
        got = remainder_magnitude([3e154, 1e-154], 1.0, 10.0)
        assert abs(got - want) <= 1e-12 * want
        # the other row of a batch keeps the bits of its one-row call
        batch = STATISTIC_KINDS["loo"].evaluate([[3e154, 1e-154], [1.0, 3.0]], 1.0, None, 10.0)
        assert batch[1][0] == got
        assert batch[1][1] == remainder_magnitude([1.0, 3.0], 1.0, 10.0)

    def test_remainder_beyond_double_range_is_inf(self):
        assert remainder_magnitude([1e300, 1e-300], 1.0, 1.0) == math.inf
        assert loo_log_statistic([1e300, 1e-300], 1.0, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_lil_scale_pilot(self):
        # ratio against sqrt(loglog n / n) stays bounded (unknown LIL
        # constant calibrated well under 10 on pilot paths)
        spec = make_distribution("exponential", [1.0])
        for n in (1000, 10_000, 100_000):
            scale = math.sqrt(math.log(math.log(n)) / n)
            for r in range(20):
                v = sample(spec, n, base_seed=11, stream_index=r).values
                assert max_relative_deviation(v, 1.0) / scale < 10.0


class TestCrossStatisticInvariants:
    def _random_path(self, rng, n):
        return rng.gamma(2.0, 1.5, n)

    def test_scale_relation(self):
        rng = np.random.default_rng(77)
        v = self._random_path(rng, 500)
        mu, gam = 3.0, 0.8165
        sigma = gam * mu
        for c in (1e-3, 3.7, 1e3):
            w = c * v
            assert loo_log_statistic(w, c * mu, gam) == pytest.approx(
                loo_log_statistic(v, mu, gam), abs=1e-12
            )
            assert rw_log_statistic(w, c * mu, gam) == pytest.approx(
                rw_log_statistic(v, mu, gam), abs=1e-12
            )
            assert linearized_statistic(w, c * mu, gam) == pytest.approx(
                linearized_statistic(v, mu, gam), abs=1e-12
            )
            assert max_relative_deviation(w, c * mu) == pytest.approx(
                max_relative_deviation(v, mu), abs=1e-12
            )
            assert remainder_magnitude(w, c * mu, gam) == pytest.approx(
                remainder_magnitude(v, mu, gam), abs=1e-12
            )
            assert standardized_sum(w, c * mu, c * sigma) == pytest.approx(
                standardized_sum(v, mu, sigma), abs=1e-12
            )
            assert geometric_mean_prefix(w) == pytest.approx(
                c * geometric_mean_prefix(v), rel=1e-12
            )
            assert geometric_mean_loo(w) == pytest.approx(
                c * geometric_mean_loo(v), rel=1e-12
            )

    @given(paths, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, vals, rnd):
        perm = list(vals)
        rnd.shuffle(perm)
        mu, gam = 1.7, 0.6
        assert abs(
            loo_log_statistic(perm, mu, gam) - loo_log_statistic(vals, mu, gam)
        ) <= 1e-12
        assert abs(
            linearized_statistic(perm, mu, gam) - linearized_statistic(vals, mu, gam)
        ) <= 1e-12
        assert abs(
            standardized_sum(perm, mu, gam * mu) - standardized_sum(vals, mu, gam * mu)
        ) <= 1e-12
        assert abs(geometric_mean_loo(perm) - geometric_mean_loo(vals)) <= 1e-12 * (
            1.0 + geometric_mean_loo(vals)
        )

    def test_rw_is_order_sensitive(self):
        assert rw_log_statistic([1.0, 3.0], 2.0, 0.5) != rw_log_statistic(
            [3.0, 1.0], 2.0, 0.5
        )

    def test_gm_prefix_is_order_sensitive(self):
        assert geometric_mean_prefix([1.0, 3.0]) != geometric_mean_prefix([3.0, 1.0])

    def test_log_product_consistency(self):
        for t in np.linspace(-50.0, 50.0, 41):
            assert math.exp(t) > 0.0
            assert math.log(math.exp(t)) == pytest.approx(t, abs=1e-12)

    def test_exp_of_loo_positive(self):
        spec = make_distribution("lognormal", [0.0, 0.5])
        mu, _, gam = moments(spec)
        for r in range(20):
            v = sample(spec, 50, base_seed=3, stream_index=r).values
            assert math.exp(loo_log_statistic(v, mu, gam)) > 0.0

    @given(paths)
    @settings(max_examples=150, deadline=None)
    def test_remainder_bounds_taylor_gap(self, vals):
        # |sum log(1+c_k) - sum c_k| <= 4 sum c_k^2 while every |c_k| < 1/2
        mu = float(np.mean(vals))
        gam = 0.9
        if max_relative_deviation(vals, mu) >= 0.5:
            return
        gap = abs(
            loo_log_statistic(vals, mu, gam) - linearized_statistic(vals, mu, gam)
        )
        assert gap <= 4.0 * remainder_magnitude(vals, mu, gam) + 1e-15


def _stat_choices(command, capsys):
    assert main([command, "--help"]) == 0
    return re.search(r"--stat \{([^}]*)\}", capsys.readouterr().out).group(1).split(",")


class TestKindTable:
    EXPECTED_EVALUATOR = {
        "loo": lambda v, mu, sigma, gam: loo_log_statistic(v, mu, gam),
        "rw": lambda v, mu, sigma, gam: rw_log_statistic(v, mu, gam),
        "lin": lambda v, mu, sigma, gam: linearized_statistic(v, mu, gam),
        "std": lambda v, mu, sigma, gam: standardized_sum(v, mu, sigma),
        "gm-prefix": lambda v, mu, sigma, gam: geometric_mean_prefix(v),
        "gm-loo": lambda v, mu, sigma, gam: geometric_mean_loo(v),
    }

    @pytest.mark.parametrize("tag", list(STATISTIC_KINDS))
    def test_entry(self, tag, capsys):
        kind = STATISTIC_KINDS[tag]
        assert _stat_choices("clt", capsys) == list(STATISTIC_KINDS)
        assert _stat_choices("asclt", capsys) == list(ASCLT_KINDS)
        assert ASCLT_KINDS == asclt_module.ASCLT_KINDS == ("loo", "rw", "lin", "std")
        assert (kind.walk is not None) == (tag in ASCLT_KINDS)
        # lin equals std exactly, so one walk serves both
        assert STATISTIC_KINDS["lin"].walk is STATISTIC_KINDS["std"].walk
        assert not hasattr(asclt_module, "_KINDS")

        spec = make_distribution("gamma", [4.0, 0.5])
        mu, sigma, gam = moments(spec)
        v = sample(spec, 30, base_seed=1, stream_index=0).values
        values, _, _ = kind.evaluate(v[np.newaxis], mu, sigma, gam)
        assert values.shape == (1,)
        assert values[0] == self.EXPECTED_EVALUATOR[tag](v, mu, sigma, gam)

        n = (kind.min_n,)
        for law in filter(None, (kind.log_law, kind.product_law)):
            ExperimentConfig(spec, tag, n, 1, 0, compare_law=LimitLaw(law, mu))
        with pytest.raises(ValueError, match=f"needs n >= {kind.min_n}"):
            ExperimentConfig(spec, tag, (kind.min_n - 1,), 1, 0)


# The largest gap between a walk's t_n and the kernel's value on the same
# prefix, relative to max(1, |t|), over these laws, seeds 0-9 and n in
# WALK_NS: loo 7.9e-14, rw 1.4e-12 (twopoint:1:1e300:0.5 at n = 1e4), lin
# 2.9e-14 and std 2.2e-16.  Each bound is about twice that (std's four
# times).  The rw gap is the batch kernel's: it takes S_k from a plain
# cumsum, and the walk from exact_running_sums, so a kernel on the walk's
# running sums can tighten that bound.
WALK_LAWS = ["exponential:1", "gamma:4:0.5", "lognormal:0:0.5", "uniform:0.5:1.5",
             "twopoint:0.5:2:0.5", "lognormal:0:20", "gamma:0.002:1", "twopoint:1:1e300:0.5"]
WALK_NS = np.array([2, 3, 100, 4096, 4097, 10_000])
WALK_TOLERANCE = {"loo": 2e-13, "rw": 3e-12, "lin": 6e-14, "std": 1e-15}


@pytest.mark.parametrize("tag", ASCLT_KINDS)
def test_walk_matches_the_kernel(tag):
    # the two evaluators of a kind in the table agree on each prefix, across
    # the walk's block boundary at 4096
    gaps = []
    for family, seed in itertools.product(WALK_LAWS, range(3)):
        spec = parse_dist(family)
        mu, sigma, gam = moments(spec)
        path = asclt_module._path(spec, int(WALK_NS[-1]), seed)
        walk = asclt_module._walk(path, tag, mu, sigma, gam, asclt_module.default_grid())
        got = np.concatenate([t for _, t, _, _ in walk])[WALK_NS - 1]
        v = sample(spec, int(WALK_NS[-1]), seed, 0).values
        want = np.array([STATISTIC_KINDS[tag].evaluate(v[np.newaxis, :n], mu, sigma, gam)[0][0]
                         for n in WALK_NS])
        gaps.append(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    assert max(gaps) <= WALK_TOLERANCE[tag], gaps


SCALAR = {
    **TestKindTable.EXPECTED_EVALUATOR,
    "remainder": lambda v, mu, sigma, gam: remainder_magnitude(v, mu, gam),
    "maxdev": lambda v, mu, sigma, gam: max_relative_deviation(v, mu),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("tag", list(SCALAR))
def test_nonfinite_draws_rejected(tag, bad):
    # v > 0 alone lets +inf through, which gave inf or NaN statistics
    with pytest.raises(ValueError, match="finite and strictly positive"):
        SCALAR[tag]([1.0, bad, 2.0], 1.0, 1.0, 1.0)
    if tag in STATISTIC_KINDS:
        batch = np.array([[1.0, 3.0, 2.0], [1.0, bad, 2.0]])
        with pytest.raises(ValueError, match="finite and strictly positive"):
            STATISTIC_KINDS[tag].evaluate(batch, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("tag", list(SCALAR))
def test_empty_path_rejected(tag):
    with pytest.raises(ValueError, match="nonempty"):
        SCALAR[tag]([], 1.0, 1.0, 1.0)


def fsum_oracle(tag, v, mu, sigma, gam):
    """(value, remainder, maxdev) of one path, every sum by math.fsum."""
    n = len(v)
    loo = [math.fsum(v) - x for x in v]
    ratios = [y / ((n - 1) * mu) for y in loo] if n > 1 else []
    prefix = np.cumsum(v).tolist()
    scale = gam * math.sqrt(n)
    value = {
        "loo": lambda: math.fsum(math.log(r) for r in ratios) / scale,
        "rw": lambda: math.fsum(math.log(s / (k * mu)) for k, s in enumerate(prefix, 1)) / scale,
        "lin": lambda: math.fsum(r - 1.0 for r in ratios) / scale,
        "std": lambda: math.fsum((x - mu) / sigma for x in v) / math.sqrt(n),
        "gm-prefix": lambda: math.exp(
            math.fsum(math.log(s / k) for k, s in enumerate(prefix, 1)) / n),
        "gm-loo": lambda: math.exp(math.fsum(math.log(y / (n - 1)) for y in loo) / n),
    }[tag]()
    if tag != "loo":
        return value, math.nan, math.nan
    dev = [r - 1.0 for r in ratios]
    return value, math.fsum(d * d for d in dev) / scale, max(map(abs, dev))


@st.composite
def batches(draw):
    """A kind, a (rows, n) batch of gamma draws and the draws' moments."""
    tag = draw(st.sampled_from(list(STATISTIC_KINDS)))
    n = draw(st.integers(STATISTIC_KINDS[tag].min_n, 10_000))
    rows = draw(st.integers(1, max(1, min(8, 20_000 // n))))
    shape = draw(st.floats(0.2, 10.0))
    x = np.random.default_rng(draw(st.integers(0, 2**32))).gamma(shape, 1.0, (rows, n))
    return tag, x, shape, math.sqrt(shape), 1.0 / math.sqrt(shape)


class TestKernels:
    @given(batches(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_bits_do_not_depend_on_the_batch(self, case, data):
        tag, x, mu, sigma, gam = case
        evaluate = STATISTIC_KINDS[tag].evaluate
        whole = evaluate(x, mu, sigma, gam)
        lo = data.draw(st.integers(0, x.shape[0] - 1))
        hi = data.draw(st.integers(lo + 1, x.shape[0]))
        part = evaluate(x[lo:hi].copy(), mu, sigma, gam)
        for got, want in zip(part, whole):
            assert np.array_equal(got, want[lo:hi], equal_nan=True)
        one = SCALAR[tag](x[lo], mu, sigma, gam)
        assert one == whole[0][lo]
        if tag == "loo":
            assert remainder_magnitude(x[lo], mu, gam) == whole[1][lo]
            assert max_relative_deviation(x[lo], mu) == whole[2][lo]

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_matches_fsum_oracle(self, case):
        tag, x, mu, sigma, gam = case
        got = STATISTIC_KINDS[tag].evaluate(x, mu, sigma, gam)
        for i, v in enumerate(x.tolist()):
            for out, want in zip(got, fsum_oracle(tag, v, mu, sigma, gam)):
                if math.isnan(want):
                    assert math.isnan(out[i])
                else:
                    assert abs(out[i] - want) <= 1e-12 * (1.0 + abs(want))


def _work_cases():
    """(tag, batch, mu, sigma, gamma) cases that reach every branch of the kernels."""
    rng = np.random.default_rng(11)
    heavy = make_distribution("lognormal", [0.0, 20.0])  # mu ~ 7e86: d <= -1/2
    dominant = rng.exponential(1.0, (5, 300))
    dominant[2, 7] = 1e6
    # ratios far from 1 over many draws: the remainder's rows are scaled
    spread = rng.lognormal(0.0, 3.0, (8, 300))
    spread[:, 7] = 10.0 ** np.arange(3, 11)
    batches = [
        (rng.gamma(4.0, 0.5, (4, 2)), (2.0, 1.0, 0.5)),
        (np.array([[1e20, 1e-20]]), (1.0, 1.0, 1.0)),
        (np.array([[3e154, 1e-154], [1.0, 2.0]]), (1.0, 1.0, 10.0)),
        (np.array([[1e300, 1e-300]]), (1.0, 1.0, 1.0)),
        (sample_rows(heavy, 50, 0, range(3)), moments(heavy)),
        (dominant, (1.0, 1.0, 1.0)),
        (spread, (1.0, 1.0, 1.0)),
    ]
    return [(tag, x, *m) for tag in STATISTIC_KINDS for x, m in batches
            if x.shape[1] >= STATISTIC_KINDS[tag].min_n]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tag,x,mu,sigma,gam", _work_cases())
def test_work_arrays_give_the_bits_of_new_ones(tag, x, mu, sigma, gam):
    # work of a larger batch, dirty from earlier use, as the clt loop passes it
    rows, n = x.shape
    work = np.full((statistics_module._SCRATCH, rows + 3, n), np.nan)[:, :rows]
    evaluate = STATISTIC_KINDS[tag].evaluate
    want = evaluate(x, mu, sigma, gam)
    for _ in range(2):
        got = evaluate(x, mu, sigma, gam, work)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(a, work)


# sha256 of every output of every _work_cases batch of a kind, recorded
# from the kernels that allocated every temporary
KERNEL_DIGESTS = {
    "loo": "8cfb844388218d21e24c5799c2a2556977d289c508bfd03ccd24019066216e94",
    "rw": "cb1260f4ae54e4295ca5769618f2e3a29daeffab2d733aa6723ef0e184034564",
    "lin": "aca0bdf7a36201c5ded9d3d7c641dc7e6e232acaf0b41123ab5a174db226e6d4",
    "std": "32c5d8758fbb5f5e498ba766f7274017a816bad1c59b121aef75d69b1e50a290",
    "gm-prefix": "6d3c0e36ec6dcce35c51b9a3b1466a982d0e9d389c7f998f5e47ad667e9b62a4",
    "gm-loo": "4b15b942e03d62c831c43fc602a8b43b876d89391e9f85208dc0025319558bd5",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tag", list(STATISTIC_KINDS))
def test_kernel_bits_are_pinned(tag):
    digest = hashlib.sha256()
    for case_tag, x, mu, sigma, gam in _work_cases():
        if case_tag == tag:
            for out in STATISTIC_KINDS[tag].evaluate(x, mu, sigma, gam):
                digest.update(out.tobytes())
    assert digest.hexdigest() == KERNEL_DIGESTS[tag]
