"""Analysis utilities: oracle, upper-bound ratios, correctness checks, space accounting."""

from .oracle import brute_force_tspg
from .upper_bound_ratio import (
    UPPER_BOUND_METHODS,
    UpperBoundObservation,
    UpperBoundSummary,
    upper_bound_ratio_for_query,
    upper_bound_ratios_for_workload,
)
from .comparison import (
    ComparisonReport,
    ResultMismatchError,
    assert_same_result,
    compare_algorithms,
    describe_difference,
    verify_containment_chain,
)
from .memory import (
    SpaceProfile,
    collect_space_profiles,
    measure_deep_size,
)

__all__ = [
    "brute_force_tspg",
    "UPPER_BOUND_METHODS",
    "UpperBoundObservation",
    "UpperBoundSummary",
    "upper_bound_ratio_for_query",
    "upper_bound_ratios_for_workload",
    "ComparisonReport",
    "ResultMismatchError",
    "assert_same_result",
    "compare_algorithms",
    "describe_difference",
    "verify_containment_chain",
    "SpaceProfile",
    "collect_space_profiles",
    "measure_deep_size",
]
