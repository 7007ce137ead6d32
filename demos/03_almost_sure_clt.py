#!/usr/bin/env python3
"""The almost-sure CLT: one trajectory carries the whole limit law.

Averaging the indicators I(t_n <= x) with weights 1/n along a single
path reproduces the limit CDF at every x -- no replication needed.
Convergence is O(1/log N), which is why the gaps below are orders of
magnitude wider than Monte Carlo noise over replications would be.
"""

from prodsums import make_distribution, run_asclt_path

spec = make_distribution("exponential", [1.0])
N = 20_000

report = run_asclt_path(spec, "loo", N, base_seed=6, exact_cutoff=2000)
print(f"leave-one-out log product along one Exp(1) path, N = {N}")
print("every step takes the certified series, or the exact value where that is not certified")
print(f"exact steps: {report.exact_steps}; past n = {report.exact_cutoff}: {report.fallback_count}")
print(f"\n  {'x':>7} {'A_N(x)':>8} {'Phi(x)':>8} {'gap':>8}")
for x, a, f, gap in report.rows():
    print(f"  {x:>7.3f} {a:>8.4f} {f:>8.4f} {gap:>+8.4f}")
print(f"\nsup-gap {report.sup_gap:.4f} (log N normalization: {report.sup_gap_logn:.4f})")

control = run_asclt_path(spec, "std", N, base_seed=6)
print(f"classical ASCLT control (standardized sums): sup-gap {control.sup_gap:.4f}")
