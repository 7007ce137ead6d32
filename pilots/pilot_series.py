#!/usr/bin/env python3
"""Pilot for the series accuracy fixtures (acceptance 5).

Compares the series of :class:`~prodsums.LooSeries` (anchored at S_n,
the largest draws exact, order J picked for a 1e-14 bound) against the
exact O(n) leave-one-out log statistic over many random paths and
reports the error distribution, the provable bound's slack, and how
often the 1e-6 acceptance tolerance is approached.  Also demonstrates
why a series must anchor a common factor exactly: expanding the raw
ratios to third order leaves an error of order Z^4 / (4 n^(3/2)) (Z the
standardized path deviation), which at n = 1000 exceeds 1e-6 for more
than half of all paths.

Run:  python3 pilots/pilot_series.py
"""

import math

import numpy as np

from prodsums import (
    LooSeries,
    loo_log_statistic,
    make_distribution,
    moments,
    sample,
)

FAMILIES = [
    make_distribution("exponential", [1.0]),
    make_distribution("gamma", [4.0, 0.5]),
    make_distribution("lognormal", [0.0, 0.5]),
    make_distribution("uniform", [0.5, 1.5]),
    make_distribution("twopoint", [0.5, 2.0, 0.5]),
]


def plain_third_order(x, mu, gam):
    # unanchored expansion in u_k = (D - d_k)/m, for comparison only
    n = x.size
    m = (n - 1) * mu
    d, p2, p3 = (math.fsum((x - mu) ** j) for j in (1, 2, 3))
    t = (
        (n - 1) * d / m
        - ((n - 2) * d * d + p2) / (2 * m * m)
        + ((n - 3) * d**3 + 3 * d * p2 - p3) / (3 * m**3)
    )
    return t / (gam * math.sqrt(n))


def main() -> None:
    rng = np.random.default_rng(55)
    errs, plain_errs, slacks = [], [], []
    for i in range(1000):
        spec = FAMILIES[i % len(FAMILIES)]
        n = int(rng.integers(1000, 10_001))
        mu, _, gam = moments(spec)
        path = sample(spec, n, base_seed=200, stream_index=i)
        series = LooSeries(mu, gam)
        for start in range(0, n, 4096):
            value, bound, _ = series.block(path.values[start : start + 4096])
        exact = loo_log_statistic(path, mu, gam)
        errs.append(abs(value[-1] - exact))
        plain_errs.append(abs(plain_third_order(path.values, mu, gam) - exact))
        slacks.append(bound[-1] / max(errs[-1], 1e-300))
    errs = np.array(errs)
    plain = np.array(plain_errs)
    print(f"anchored series: median err {np.median(errs):.2e}  max {errs.max():.2e}")
    print(f"  exceeding 1e-6: {int(np.sum(errs > 1e-6))}/1000 paths")
    print(f"unanchored third order: median err {np.median(plain):.2e}  max {plain.max():.2e}")
    print(f"  exceeding 1e-6: {int(np.sum(plain > 1e-6))}/1000 paths")
    # below 1 the rounding of both evaluations, not the truncation, dominates
    print(f"truncation bound over the observed error: median {np.median(slacks):.1e}")


if __name__ == "__main__":
    main()
