import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, ncdf

from prodsums import LimitLaw, limit_cdf, normal_cdf, normal_quantile

mp.dps = 30

PHI_1 = 0.8413447460685429  # Phi(1), 60-digit oracle

LAWS = [LimitLaw("n01"), LimitLaw("n02"), LimitLaw("expnorm"), LimitLaw("expsqrt2"),
        LimitLaw("point", 1.0)]


def _edge_points():
    """Branch edges of the rational forms, as reached through each law,
    with three neighbours on each side."""
    out = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, math.inf, -math.inf, math.nan]
    for edge in (0.46875, 4.0, 26.7):
        for scale in (math.sqrt(2.0), 2.0):  # n01 and n02 arguments
            for c in (edge * scale, -edge * scale):
                for x in (c, math.exp(c)):  # and expnorm/expsqrt2 arguments
                    lo = hi = x
                    for _ in range(3):
                        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
                        out += [lo, hi]
                    out.append(x)
    return out


EDGES = _edge_points()


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry_exact(self):
        for x in np.linspace(-8, 8, 101):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_derived_975(self):
        assert normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-8)

    def test_infinities(self):
        assert normal_cdf(float("-inf")) == 0.0
        assert normal_cdf(float("inf")) == 1.0
        assert math.isnan(normal_cdf(float("nan")))

    def test_against_mpmath_grid(self):
        xs = np.linspace(-8.0, 8.0, 2001)
        want = np.array([float(ncdf(float(x))) for x in xs])
        worst = max(abs(normal_cdf(float(x)) - w) for x, w in zip(xs, want))
        assert worst <= 1e-12
        assert np.max(np.abs(normal_cdf(xs) - want)) <= 1e-12

    def test_deep_tail_relative(self):
        xs = np.array([-10.0, -20.0, -30.0])
        for x, got in zip(xs, normal_cdf(xs)):
            want = float(ncdf(float(x)))
            assert normal_cdf(float(x)) == pytest.approx(want, rel=1e-12)
            assert got == pytest.approx(want, rel=1e-12)

    def test_monotone(self):
        xs = np.linspace(-40, 40, 10_001)
        vals = [normal_cdf(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] >= 0.0 and vals[-1] <= 1.0


class TestNormalQuantile:
    def test_median(self):
        assert abs(normal_quantile(0.5)) <= 1e-12

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.25, 0.4, 0.49):
            assert normal_quantile(p) + normal_quantile(1 - p) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_derived_975(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-6)

    def test_out_of_range(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="strictly between"):
                normal_quantile(p)

    def test_inversion_residual_log_grid(self):
        ps = np.geomspace(1e-6, 0.5, 40)
        ps = np.concatenate([ps, 1.0 - ps])
        worst = max(abs(normal_cdf(normal_quantile(float(p))) - float(p)) for p in ps)
        assert worst <= 1e-10

    def test_extreme_tails(self):
        q = normal_quantile(1e-300)
        assert normal_cdf(q) == pytest.approx(1e-300, rel=1e-6)


class TestLimitLaws:
    def test_tags(self):
        for tag in ("n01", "n02", "expnorm", "expsqrt2"):
            assert LimitLaw(tag).tag == tag
        assert LimitLaw("point", 2.0).tag == "point"

    def test_location_only_for_point(self):
        # one constructor for every law: a mean passed with a tag only
        # locates the point mass and is dropped by the other laws
        assert LimitLaw("n02", 3.0) == LimitLaw("n02")
        assert math.isnan(LimitLaw("n02", 3.0).mu)
        assert LimitLaw("point", 3.0).mu == 3.0

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown law"):
            LimitLaw("weibull")

    def test_point_needs_location(self):
        with pytest.raises(ValueError, match="finite location"):
            LimitLaw("point")

    def test_exp_normal_at_one(self):
        assert limit_cdf(LimitLaw("expnorm"), 1.0) == 0.5

    def test_positive_support(self):
        for x in (-3.0, -1e-9, 0.0):
            assert limit_cdf(LimitLaw("expsqrt2"), x) == 0.0
            assert limit_cdf(LimitLaw("expnorm"), x) == 0.0

    def test_exp_sqrt2_frozen(self):
        x = math.exp(math.sqrt(2.0))
        assert limit_cdf(LimitLaw("expsqrt2"), x) == pytest.approx(PHI_1, abs=1e-12)

    def test_var2_scaling(self):
        for x in (-2.0, -0.3, 0.0, 1.7):
            assert limit_cdf(LimitLaw("n02"), x) == pytest.approx(
                normal_cdf(x / math.sqrt(2.0)), abs=1e-15
            )

    def test_point_mass_step(self):
        law = LimitLaw("point", 2.0)
        assert limit_cdf(law, 1.999999) == 0.0
        assert limit_cdf(law, 2.0) == 1.0
        assert limit_cdf(law, 5.0) == 1.0

    def test_round_trip_exp_normal(self):
        for z in np.linspace(-30.0, 30.0, 121):
            got = limit_cdf(LimitLaw("expnorm"), math.exp(float(z)))
            assert abs(got - normal_cdf(float(z))) <= 1e-13

    @pytest.mark.parametrize("law", LAWS)
    def test_monotone_cdf_on_grid(self, law):
        xs = np.linspace(-20.0, 20.0, 10_000)
        vals = [limit_cdf(law, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_cdf_method(self):
        assert LimitLaw("n01").cdf(0.0) == 0.5

    @pytest.mark.parametrize("law", LAWS)
    def test_nan_and_infinities(self, law):
        assert math.isnan(limit_cdf(law, math.nan))
        assert limit_cdf(law, math.inf) == 1.0
        assert limit_cdf(law, -math.inf) == 0.0
        got = limit_cdf(law, np.array([math.nan, math.inf, -math.inf]))
        assert np.array_equal(got, [math.nan, 1.0, 0.0], equal_nan=True)


class TestArrayForm:
    """An array argument gives, bit for bit, the float form at each point."""

    @staticmethod
    def _pointwise(law, xs):
        return np.array([limit_cdf(law, float(x)) for x in xs])

    @pytest.mark.parametrize("law", LAWS)
    def test_edges_and_dense_sample(self, law):
        # numpy's exp and log differ from libm on a few per mille of
        # these points, so a dense sample shows either one in the array form
        z = 4.0 * np.random.default_rng(0).standard_normal(20_000)
        xs = np.concatenate([EDGES, z, np.exp(z)])
        assert np.array_equal(limit_cdf(law, xs), self._pointwise(law, xs), equal_nan=True)

    @pytest.mark.parametrize("law,digest", [
        (LAWS[0], "ed67df64da6931dbbd79265da01791979d111c2b289b001d486f4a68a7820500"),
        (LAWS[1], "f941c858f1fa45b02274cd30de54e8054a263e2d21dbe9549f53f370f23ca65e"),
        (LAWS[2], "71df2ea739cd3bcc6a1cab3a5bd08d673f1c6999f51861712df95dc8b473fa50"),
        (LAWS[3], "9a42327435a194fac0d32caa76fc6f76a5e0a7d714da7397a4714f9f956c2e9f"),
        (LAWS[4], "89d6b9a3b51dce0f5d1e8eaff7b0d432166668e1585f684f1e1c1371e13786b7"),
    ])
    def test_digests(self, law, digest):
        # sha256 of the float form's values, recorded before the forms
        # were shared with the array form (glibc libm, x86-64); a regrouped
        # rational form, such as f * (num / den), changes them
        grid = np.linspace(-40.0, 40.0, 8001)
        xs = np.concatenate([grid, np.exp(grid), [x for x in EDGES if not math.isnan(x)]])
        assert hashlib.sha256(self._pointwise(law, xs).tobytes()).hexdigest() == digest
        assert hashlib.sha256(limit_cdf(law, xs).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("law", LAWS)
    @settings(max_examples=60, deadline=None)
    @given(xs=st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), min_size=1, max_size=60))
    def test_matches_float_form(self, law, xs):
        xs = np.array(xs)
        assert np.array_equal(limit_cdf(law, xs), self._pointwise(law, xs), equal_nan=True)

    def test_shape_kept(self):
        xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = normal_cdf(xs)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), [normal_cdf(float(x)) for x in xs.ravel()])


def test_float32_arguments_compute_in_float64():
    # numpy 2 keeps a float32 through x / sqrt(2): a float32 scalar came
    # back as a float32, and n02 on this float32 array was off by up to 1.6e-8
    x32 = np.concatenate([np.linspace(-40.0, 40.0, 801), np.exp(np.linspace(-20.0, 20.0, 401)),
                          [0.3, math.inf, -math.inf, math.nan]]).astype(np.float32)
    x64 = x32.astype(float)
    laws = LAWS + [LimitLaw("point", float(x32[-4]))]  # a mass at float32 0.3
    for f, want in [(normal_cdf, normal_cdf(x64))] + [
            (law.cdf, limit_cdf(law, x64)) for law in laws]:
        assert f(x32).dtype == np.float64 and f(x32).tobytes() == want.tobytes()
        for x, w in zip(x32, want):
            got = f(x)
            assert type(got) is float and np.float64(got).tobytes() == w.tobytes()
