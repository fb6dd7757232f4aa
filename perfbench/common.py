"""Shared pieces of the workloads: op records, inputs, statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.trajectory import Trajectory

#: Spacing of cluster centres in the clustered corpora (units of the
#: plane): far beyond any threshold used, so clusters are provably apart.
CLUSTER_SPACING = 60.0

#: ``transfer_info()`` counters of bytes published to shared memory.
SHM_BYTE_FIELDS = ("shm_bytes", "shm_bounds_bytes", "shm_level_bytes",
                   "shm_index_bytes")


@dataclass
class Op:
    """One timed operation and what it answered.

    ``index`` locates the op's input in the workload's input sequence.
    """

    index: Any
    started: float
    latency: float
    answer: Any = None
    error: Optional[str] = None
    info: dict = field(default_factory=dict)
    ok: Optional[bool] = None


def clustered_corpus(rng: np.random.Generator, clusters: int,
                     per_cluster: int, n: int, columns: int) -> List[Trajectory]:
    """Random walks grouped in clusters laid out on a grid of centres."""
    corpus = []
    for c in range(clusters):
        centre = np.array([(c % columns) * CLUSTER_SPACING,
                           (c // columns) * CLUSTER_SPACING])
        for _ in range(per_cluster):
            walk = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.4
            corpus.append(Trajectory(walk + centre + rng.uniform(-2, 2, 2)))
    return corpus


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def transfer_delta(before: dict, after: dict) -> dict:
    """Pool tasks and shared-memory bytes published between two
    ``MotifEngine.transfer_info()`` readings."""
    return {
        "pool_tasks": after["pool_tasks"] - before["pool_tasks"],
        "shm_bytes": sum(after[f] - before[f] for f in SHM_BYTE_FIELDS),
    }
