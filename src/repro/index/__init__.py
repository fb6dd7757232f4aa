"""Corpus proximity indexing for DFD workloads (:class:`CorpusIndex`).

Per-trajectory summaries -- endpoints, bounding boxes (aggregated by
the tree's nodes) and Douglas-Peucker simplifications with exact discrete-Frechet error radii
-- give admissible DFD lower bounds, and an endpoint grid buckets the
corpus so similarity joins, top-k closest-pair scans and window
clustering enumerate only the pairs the index cannot prove apart.  The
engine publishes the index's transport arrays once through shared
memory so pool tasks carry refs instead of pickled trajectories (see
:meth:`repro.engine.MotifEngine.join` and DESIGN.md section 8).
"""

from .index import (
    CorpusIndex,
    IndexStats,
    all_pairs,
    slab_points,
    slab_trajectory,
)
from .tree import (
    DEFAULT_FANOUT,
    TREE_ARRAY_FIELDS,
    QuerySummary,
    TrajectoryTree,
    TreePairCursor,
)

__all__ = [
    "CorpusIndex",
    "IndexStats",
    "all_pairs",
    "slab_points",
    "slab_trajectory",
    "DEFAULT_FANOUT",
    "TREE_ARRAY_FIELDS",
    "QuerySummary",
    "TrajectoryTree",
    "TreePairCursor",
]
