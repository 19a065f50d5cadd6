"""Space-cost accounting (Exp-3, Fig. 7).

The paper measures resident memory of its C++ processes.  A pure-Python
reproduction cannot meaningfully compare interpreter RSS, so the library uses
an *algorithm-level* accounting instead: every algorithm reports the number of
graph elements (vertices, edges, TCV entries, materialised path edges) it had
to hold, which is proportional to its memory footprint and reproduces the
paper's qualitative finding — VUG's cost is linear in the upper-bound graph
size and stable across queries, while the enumeration baselines' cost tracks
the (potentially exponential) number of enumerated paths and therefore swings
wildly between the cheapest and most expensive query.

For completeness, :func:`measure_deep_size` provides an actual byte-level
measurement of Python object graphs (via ``sys.getsizeof`` recursion) that the
space benchmark also reports.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..baselines.interface import AlgorithmResult


@dataclass
class SpaceProfile:
    """Max/min space cost of one algorithm over one workload (one Fig. 7 bar pair)."""

    algorithm: str
    costs: List[int] = field(default_factory=list)

    def add(self, cost: int) -> None:
        self.costs.append(cost)

    @property
    def max_cost(self) -> int:
        return max(self.costs) if self.costs else 0

    @property
    def min_cost(self) -> int:
        return min(self.costs) if self.costs else 0

    @property
    def spread(self) -> float:
        """``max / min`` (1.0 when stable; large for enumeration baselines)."""
        if not self.costs or self.min_cost == 0:
            return float("inf") if self.max_cost else 1.0
        return self.max_cost / self.min_cost

    def as_row(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "max_space": self.max_cost,
            "min_space": self.min_cost,
            "spread": round(self.spread, 2) if self.spread != float("inf") else "inf",
        }


def collect_space_profiles(results: Iterable[AlgorithmResult]) -> Dict[str, SpaceProfile]:
    """Group per-query algorithm results into per-algorithm space profiles."""
    profiles: Dict[str, SpaceProfile] = {}
    for result in results:
        profile = profiles.setdefault(result.algorithm, SpaceProfile(result.algorithm))
        profile.add(result.space_cost)
    return profiles


def measure_deep_size(obj: object, _seen: set | None = None) -> int:
    """Approximate deep size in bytes of a Python object graph.

    Recursion covers dicts, sets, lists, tuples and objects with ``__dict__``
    or ``__slots__``; shared sub-objects are counted once.
    """
    seen = _seen if _seen is not None else set()
    obj_id = id(obj)
    if obj_id in seen:
        return 0
    seen.add(obj_id)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += measure_deep_size(key, seen)
            size += measure_deep_size(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += measure_deep_size(item, seen)
    else:
        attributes = getattr(obj, "__dict__", None)
        if attributes is not None:
            size += measure_deep_size(attributes, seen)
        slots = getattr(obj, "__slots__", ())
        for slot in slots:
            if hasattr(obj, slot):
                size += measure_deep_size(getattr(obj, slot), seen)
    return size
