"""VUG core: the paper's contribution (QuickUBG, TightUBG, EEV, VUG)."""

from .deadline import Deadline
from .result import PathGraph, PhaseTimings, VUGReport
from .polarity import PolarityTimes, compute_polarity_times
from .quick_ubg import quick_upper_bound_graph
from .tcv import TCVIndex, TimeStreamCommonVertices, compute_time_stream_common_vertices
from .eev import (
    BidirectionalSearcher,
    EEVDeadlineExpired,
    EEVStatistics,
    escaped_edges_verification,
)
from .tight_ubg import tight_upper_bound_graph
from .vug import VUG, generate_tspg, generate_tspg_report

__all__ = [
    "Deadline",
    "EEVDeadlineExpired",
    "PathGraph",
    "PhaseTimings",
    "VUGReport",
    "PolarityTimes",
    "compute_polarity_times",
    "quick_upper_bound_graph",
    "TCVIndex",
    "TimeStreamCommonVertices",
    "compute_time_stream_common_vertices",
    "tight_upper_bound_graph",
    "BidirectionalSearcher",
    "EEVStatistics",
    "escaped_edges_verification",
    "VUG",
    "generate_tspg",
    "generate_tspg_report",
]
