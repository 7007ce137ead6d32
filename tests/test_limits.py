import math

import numpy as np
import pytest
from mpmath import mp, ncdf

from prodsums import LimitLaw, limit_cdf, normal_cdf, normal_quantile

mp.dps = 30

PHI_1 = 0.8413447460685429  # Phi(1), 60-digit oracle


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
        worst = max(abs(normal_cdf(float(x)) - float(ncdf(float(x)))) for x in xs)
        assert worst <= 1e-12

    def test_deep_tail_relative(self):
        for x in (-10.0, -20.0, -30.0):
            want = float(ncdf(x))
            assert normal_cdf(x) == pytest.approx(want, rel=1e-12)

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

    @pytest.mark.parametrize(
        "law",
        [LimitLaw("n01"), LimitLaw("n02"), LimitLaw("expnorm"), LimitLaw("expsqrt2"),
         LimitLaw("point", 1.0)],
    )
    def test_monotone_cdf_on_grid(self, law):
        xs = np.linspace(-20.0, 20.0, 10_000)
        vals = [limit_cdf(law, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_cdf_method(self):
        assert LimitLaw("n01").cdf(0.0) == 0.5
