"""Limit theorems for products of partial and leave-one-out sums.

A simulation library for the family of results saying that normalized
products of partial sums of i.i.d. positive random variables are
asymptotically lognormal, together with their almost-sure
(logarithmic-average) counterparts and the strong-law geometric-mean
limit.  The pieces:

* :mod:`prodsums.distributions` -- positive-support families with exact
  analytic moments and reproducible splittable sampling, whole or in
  re-readable chunks;
* :mod:`prodsums.statistics` -- exact log-scale evaluation of every
  statistic involved;
* :mod:`prodsums.streaming` -- the leave-one-out statistic of every
  prefix of a path as a series with a certified bound, O(1) per step;
* :mod:`prodsums.limits` -- self-contained normal CDF/quantile and the
  closed-form limit laws;
* :mod:`prodsums.asclt` -- logarithmic averages and geometric means
  along a single trajectory, walked in bounded memory;
* :mod:`prodsums.montecarlo` -- many-replication experiments, empirical
  CDFs, KS distances, convergence reports;
* :mod:`prodsums.cli` -- the ``prodsums`` command.
"""

from .distributions import (
    FAMILIES,
    DistributionSpec,
    SamplePath,
    derive_stream_seed,
    make_distribution,
    moments,
    sample,
    sample_chunks,
    sample_rows,
)
from .statistics import (
    STATISTIC_KINDS,
    geometric_mean_loo,
    geometric_mean_prefix,
    linearized_statistic,
    loo_log_chunked,
    loo_log_statistic,
    max_relative_deviation,
    remainder_magnitude,
    rw_log_statistic,
    standardized_sum,
)
from .streaming import LooSeries
from .limits import (
    LAW_TAGS,
    LimitLaw,
    limit_cdf,
    normal_cdf,
    normal_quantile,
)
from .asclt import (
    ASCLT_KINDS,
    AscltReport,
    LogAvgAccumulator,
    default_grid,
    SllnReport,
    run_asclt_path,
    run_slln_experiment,
)
from .montecarlo import (
    ConvergenceReport,
    EmpiricalCdf,
    ExperimentConfig,
    empirical_cdf,
    ks_distance,
    run_clt_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "DistributionSpec",
    "SamplePath",
    "derive_stream_seed",
    "make_distribution",
    "moments",
    "sample",
    "sample_chunks",
    "sample_rows",
    "STATISTIC_KINDS",
    "loo_log_statistic",
    "loo_log_chunked",
    "rw_log_statistic",
    "linearized_statistic",
    "standardized_sum",
    "geometric_mean_prefix",
    "geometric_mean_loo",
    "max_relative_deviation",
    "remainder_magnitude",
    "LooSeries",
    "LAW_TAGS",
    "LimitLaw",
    "normal_cdf",
    "normal_quantile",
    "limit_cdf",
    "ASCLT_KINDS",
    "LogAvgAccumulator",
    "default_grid",
    "AscltReport",
    "run_asclt_path",
    "ExperimentConfig",
    "EmpiricalCdf",
    "ConvergenceReport",
    "SllnReport",
    "empirical_cdf",
    "ks_distance",
    "run_clt_experiment",
    "run_slln_experiment",
    "__version__",
]
