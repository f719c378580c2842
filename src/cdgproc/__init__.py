"""Tools for the doubling random walk x_{k+1} = 2 x_k + b_k (mod p).

Submodules:
  process       chain parameters, digit strings, trajectory sampling
  distribution  exact distribution evolution on Z/pZ and its functionals
  canonical     standard forms, block structure, the pair table
  stats         adjacent-pair statistics, exhaustive and Monte Carlo
  bounds        mixing rate constants and counting bounds
  cli           the `cdg` command line interface
"""

from .bounds import (
    BoundConstants,
    CountRegion,
    RegionCount,
    StirlingBound,
    binomial_tail_count,
    c2_of_eps,
    compute_constants,
    multinomial_region_count,
    predict_threshold,
    stirling_upper_bound,
)
from .canonical import (
    BlockDecomposition,
    CanonicalForm,
    SequenceClass,
    TABLE_LIMITS,
    canonicalize,
    classify,
    decompose_blocks,
    pair_cell,
)
from .distribution import (
    TraceRow,
    entropy_bits,
    evolve,
    evolve_with_trace,
    initial_dist,
    step,
    support_size,
    tvd_uniform,
    typical_set_size,
)
from .process import (
    IncrementDistribution,
    ProcessParams,
    UNIFORM_INCREMENTS,
    format_digits,
    parse_digits,
    sample_trajectory,
    value_of,
)
from .stats import (
    BlockEventReport,
    FrequencyReport,
    OnesCountReport,
    PairHistogram,
    class_probability,
    count_pairs,
    event_probabilities,
    exhaustive_expectations,
    monte_carlo_frequencies,
    ones_count_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BlockEventReport",
    "BoundConstants",
    "CanonicalForm",
    "CountRegion",
    "FrequencyReport",
    "IncrementDistribution",
    "OnesCountReport",
    "PairHistogram",
    "ProcessParams",
    "RegionCount",
    "SequenceClass",
    "StirlingBound",
    "TABLE_LIMITS",
    "TraceRow",
    "UNIFORM_INCREMENTS",
    "binomial_tail_count",
    "c2_of_eps",
    "canonicalize",
    "class_probability",
    "classify",
    "compute_constants",
    "count_pairs",
    "decompose_blocks",
    "entropy_bits",
    "event_probabilities",
    "evolve",
    "evolve_with_trace",
    "exhaustive_expectations",
    "format_digits",
    "initial_dist",
    "monte_carlo_frequencies",
    "multinomial_region_count",
    "ones_count_statistics",
    "pair_cell",
    "parse_digits",
    "predict_threshold",
    "sample_trajectory",
    "step",
    "stirling_upper_bound",
    "support_size",
    "tvd_uniform",
    "typical_set_size",
    "value_of",
]
