#!/usr/bin/env python3
"""Pilot for the finite-n bias of both product CLTs.

Runs the loo and rw replication experiments on Exp(1) at M = 1e5
replicates for n = 10, 100 and 1000, and prints each row's KS distance
from the log-scale limit law (N(0,1) for loo, N(0,2) for rw) next to the
noise floor of the KS distance itself.  The KS distance is invariant under
the exponential map, so the product-scale rows (against e^Phi) would
repeat these numbers.

With the law exact, sqrt(M) * KS follows the Kolmogorov distribution,
whose 95% quantile is 1.358: at M = 1e5 a KS distance below about 0.0043
is indistinguishable from sampling noise.  A row above that floor shows
the finite-n distance from the limit; the mean and sd columns show how
much of it is a shift of the centre and how much a wrong spread.

Not run by pytest, and no acceptance bound rests on it.

Run:  python3 pilots/pilot_clt_bias.py [--reps 100000] [--seed 0] [--workers 2]
"""

import argparse
import math

from prodsums import ExperimentConfig, make_distribution, run_clt_experiment

EXP1 = make_distribution("exponential", [1.0])
N_LIST = (10, 100, 1000)
KOLMOGOROV_95 = 1.358  # 95% quantile of sup |Brownian bridge|


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    floor = KOLMOGOROV_95 / math.sqrt(args.reps)
    print(f"Exp(1), M = {args.reps}, base seed {args.seed}; "
          f"KS noise floor (95%) {floor:.4f}")
    print(" kind  law      n      KS   KS/floor     mean       sd   run_s")
    for kind in ("loo", "rw"):
        cfg = ExperimentConfig(EXP1, kind, N_LIST, args.reps, args.seed,
                               workers=args.workers)
        report = run_clt_experiment(cfg)
        for row in report.rows:
            print(f"{kind:>5}  {report.law.tag:<4} {row.n:>6}  {row.ks:.4f}  "
                  f"{row.ks / floor:8.2f}  {row.mean:+.4f}  {row.sd:.4f}  "
                  f"{row.wall_seconds:6.2f}")


if __name__ == "__main__":
    main()
