#!/usr/bin/env python3
"""The O(1)-per-step series versus the exact O(n) statistic.

The leave-one-out log statistic normally costs O(n) per evaluation, so
tracking it along a whole trajectory costs O(N^2).  A LooSeries takes the
path block by block, here straight from the chunk source, so no more than
one block of draws is held: it anchors every leave-one-out sum at S_n,
keeps the few largest draws exact and expands the rest in power sums of
X_k/S_n, with a provable truncation bound at every step.  Here we measure
how close it is to the exact value and how much slack the bound carries.
"""

import time

from prodsums import (
    LooSeries,
    loo_log_statistic,
    make_distribution,
    sample,
    sample_chunks,
)

spec = make_distribution("exponential", [1.0])
n = 50_000
path = sample(spec, n, base_seed=1, stream_index=0)

series = LooSeries(1.0, 1.0)
t0 = time.perf_counter()
for x in sample_chunks(spec, n, base_seed=1, stream_index=0, chunk=4096):
    values, bounds, _ = series.block(x)
series_time = time.perf_counter() - t0

t0 = time.perf_counter()
exact = loo_log_statistic(path, 1.0, 1.0)
exact_time = time.perf_counter() - t0

print(f"path length {n}, drawn and every prefix's statistic taken in {series_time * 1e3:.1f} ms "
      f"({series_time / n * 1e9:.0f} ns per step)")
print(f"exact value   {exact:+.15f}  ({exact_time * 1e6:.0f} us for the last step alone)")
print(f"series value  {values[-1]:+.15f}")
print(f"difference    {abs(values[-1] - exact):.2e}")
print(f"error bound   {bounds[-1]:.2e}")

print("\nthe series is anchored at S_n, not at n*mu, so draws far from the mean keep it exact")
short = LooSeries(2.0, 1.0).block([0.01, 0.01])
print(f"two draws of 0.01 against mu = 2: anchored series {short[0][-1]:+.6f} "
      f"(bound {short[1][-1]:.1e}), exact {loo_log_statistic([0.01, 0.01], 2.0, 1.0):+.6f}")
