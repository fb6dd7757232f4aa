"""DFD similarity join (and top-k closest pairs) between collections.

The paper's conclusion proposes accelerating "other trajectory analysis
operations that rely on DFD, such as similarity join".  Given two
collections and a threshold ``theta``, the join reports every pair of
whole trajectories with ``DFD <= theta``, using a cascade of cheap
lower-bound filters before the exact decision:

1. **endpoint filter** -- any coupling matches the first points and the
   last points of both curves, so
   ``max(d(p_0, q_0), d(p_{n-1}, q_{m-1})) <= DFD``;
2. **Hausdorff filter** -- every point of each trajectory appears in
   some coupled pair, hence both directed Hausdorff distances (and so
   their max) lower-bound the DFD;
3. **exact decision** -- batched over blocks of surviving pairs
   (:func:`repro.distances.kernels.verify_batch`): a pair whose
   diagonal coupling stays within ``theta`` is accepted outright, the
   rest run the vectorised reachability sweep
   :func:`repro.distances.kernels.decide_batch` at ``theta``.

Filter 1 is O(1), filter 2 needs the O(nm) ground matrix that step 3
reuses.  A bounding-box filter would add nothing: each start point lies
in its own box, so the box gap of a pair never exceeds its start-point
distance, and filter 1 already prunes every pair such a filter would.

``index=True`` puts a :class:`~repro.index.CorpusIndex` in front of the
cascade: per-trajectory summaries (endpoints, Douglas-Peucker
simplifications with exact DFD error radii) plus endpoint-grid
bucketing prune most pairs before any of the per-pair filters run.
The pruning is admissible, so the *matches* are identical to the
unindexed path; the filter statistics account the index's share in
``pruned_index``.  Every join is a candidate source (all pairs, or
the index's survivors) feeding :func:`join_pairs`, the candidate-list
core that the serial functions here and the engine's pair chunks
share; :func:`scan_join_topk` is the analogous core of the top-k
closest-pair join :func:`join_top_k`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..distances.frechet import dfd_matrix
from ..distances.ground import GroundMetric, get_metric
from ..distances.hausdorff import directed_hausdorff_matrix
from ..distances.kernels import VERIFY_BLOCK, verify_batch
from ..index import CorpusIndex, all_pairs
from ..trajectory import Trajectory
from ..trajectory.trajectory import validate_points

#: One top-k closest-pair entry: ``(distance, (left index, right index))``.
JoinTopKEntry = Tuple[float, Tuple[int, int]]


@dataclass
class JoinStats:
    """Filter-cascade accounting for one join run."""

    pairs_total: int = 0
    pruned_index: int = 0
    pruned_endpoint: int = 0
    pruned_hausdorff: int = 0
    #: Pairs that survived filters 1-2 and were decided exactly.
    decisions: int = 0
    matches: int = 0
    details: dict = field(default_factory=dict)
    #: Of ``decisions``: accepted by the diagonal upper bound, no DP.
    accepted_upper: int = 0

    @property
    def pruned_total(self) -> int:
        return (
            self.pruned_index
            + self.pruned_endpoint
            + self.pruned_hausdorff
        )


def merge_join_stats(parts: Sequence[JoinStats]) -> JoinStats:
    """Fold per-chunk join statistics into one (engine-parallel joins).

    The filter cascade is per-pair, so every counter is additive across
    a partition of the pair grid.
    """
    total = JoinStats()
    for part in parts:
        total.pairs_total += part.pairs_total
        total.pruned_index += part.pruned_index
        total.pruned_endpoint += part.pruned_endpoint
        total.pruned_hausdorff += part.pruned_hausdorff
        total.decisions += part.decisions
        total.accepted_upper += part.accepted_upper
        total.matches += part.matches
        total.details.update(part.details)
    return total


def _points_getter(items: Sequence) -> Callable[[int], np.ndarray]:
    """Adapt a trajectory sequence into an index -> points callable.

    The join's input check runs here, before any pair is examined:
    :func:`~repro.trajectory.trajectory.validate_points`, the same check
    the corpus index runs, so every join path raises the same
    :class:`~repro.errors.TrajectoryError` for the same input.
    """
    arrays = [validate_points(getattr(t, "points", t)) for t in items]
    return lambda i: arrays[i]


def similarity_join(
    left: Sequence[Union[Trajectory, np.ndarray]],
    right: Sequence[Union[Trajectory, np.ndarray]],
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
    index: bool = False,
) -> Tuple[List[Tuple[int, int]], JoinStats]:
    """All pairs ``(a, b)`` with ``DFD(left[a], right[b]) <= theta``.

    Returns the matching index pairs and the filter statistics.  With
    ``index=True`` a :class:`~repro.index.CorpusIndex` generates the
    candidate pairs first; the matches are identical (the index bounds
    are admissible) and the pairs it removed are accounted in
    ``stats.pruned_index``.  Without the index every pair is a
    candidate of :func:`join_pairs`.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    get_left, get_right = _points_getter(left), _points_getter(right)
    if not index:
        return join_pairs(get_left, get_right,
                          all_pairs(len(left), len(right)), theta, metric)
    if not len(left) or not len(right):
        return [], JoinStats()
    m = get_metric(metric)
    pairs, index_stats = CorpusIndex(left, m).candidate_pairs(
        CorpusIndex(right, m), theta
    )
    matches, stats = join_pairs(get_left, get_right, pairs, theta, m)
    stats.pairs_total = len(left) * len(right)
    stats.pruned_index = stats.pairs_total - len(pairs)
    stats.details["index"] = index_stats.as_dict()
    return matches, stats


def join_pairs(
    get_left: Callable[[int], np.ndarray],
    get_right: Callable[[int], np.ndarray],
    pairs,
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
) -> Tuple[List[Tuple[int, int]], JoinStats]:
    """The filter cascade over an explicit candidate-pair list.

    The core every join path shares: the serial ``similarity_join``
    (all pairs, or the index's candidates) and the engine's pair
    chunks all call it, so their cascade statistics are additive and
    identical for identical candidate sets.  ``get_left`` /
    ``get_right`` map collection indices to point arrays (inline lists
    or shared-memory transport slabs); ``pairs`` is an ``(m, 2)``
    iterable of collection index pairs.  ``stats.pairs_total`` counts
    only the candidates scanned here -- callers fold the index's own
    accounting on top.

    Filters 1-2 run per pair; the pairs they cannot prune queue their
    ground matrices for the verify stage, which settles them
    :data:`~repro.distances.kernels.VERIFY_BLOCK` at a time
    (:func:`~repro.distances.kernels.verify_batch`).  Matches keep the
    order of ``pairs``.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    m = get_metric(metric)
    stats = JoinStats(pairs_total=len(pairs))
    matches: List[Tuple[int, int]] = []
    block_pairs: List[Tuple[int, int]] = []
    block_mats: List[np.ndarray] = []

    def verify_block() -> None:
        match, upper = verify_batch(block_mats, theta)
        stats.accepted_upper += int(upper.sum())
        stats.matches += int(match.sum())
        matches.extend(p for p, hit in zip(block_pairs, match) if hit)
        block_pairs.clear()
        block_mats.clear()

    for a, b in pairs:
        a, b = int(a), int(b)
        p, q = get_left(a), get_right(b)
        # Filter 1: endpoints.
        if m.distance(p[0], q[0]) > theta or m.distance(p[-1], q[-1]) > theta:
            stats.pruned_endpoint += 1
            continue
        # Filter 2: symmetric Hausdorff from the shared matrix.
        dmat = m.pairwise(p, q)
        h = max(
            directed_hausdorff_matrix(dmat),
            directed_hausdorff_matrix(dmat.T),
        )
        if h > theta:
            stats.pruned_hausdorff += 1
            continue
        # Filter 3: exact decision, batched.
        stats.decisions += 1
        block_pairs.append((a, b))
        block_mats.append(dmat)
        if len(block_mats) == VERIFY_BLOCK:
            verify_block()
    if block_mats:
        verify_block()
    return matches, stats


# ----------------------------------------------------------------------
# Top-k closest pairs
# ----------------------------------------------------------------------
def scan_join_topk(
    get_left: Callable[[int], np.ndarray],
    get_right: Callable[[int], np.ndarray],
    pairs,
    k: int,
    metric: Union[str, GroundMetric] = "euclidean",
    *,
    bounds=None,
    ordered: bool = False,
    kth0: float = math.inf,
    sync: Optional[Callable[[float], float]] = None,
    sync_every: int = 64,
) -> List[JoinTopKEntry]:
    """Heap-pruned scan for the ``k`` closest pairs of a pair list.

    The answer is canonical -- the ``k`` smallest entries under the
    total order ``(distance, (a, b))`` -- so retention is
    order-independent and per-chunk heaps merge into the exact serial
    ranking (:func:`merge_join_topk`).  A pair is pruned only when a
    proven lower bound strictly exceeds the current cut
    ``min(local k-th best, external)``: its distance then strictly
    exceeds the final k-th best, so it cannot appear in the answer even
    under distance ties.  ``bounds`` supplies per-pair index lower
    bounds; with ``ordered=True`` they are ascending and the scan
    terminates at the first bound beyond the cut.  ``sync`` exchanges
    the local k-th best with sibling chunks (the engine's shared
    threshold), mirroring :func:`repro.extensions.topk.scan_topk_entries`.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    m = get_metric(metric)
    heap: List[Tuple[float, Tuple[int, int]]] = []  # negated max-heap

    def kth_dist() -> float:
        return -heap[0][0] if len(heap) == k else math.inf

    external = float(kth0)
    for count, (a, b) in enumerate(pairs):
        a, b = int(a), int(b)
        if sync is not None and count % sync_every == 0:
            external = min(external, sync(kth_dist()))
        cut = min(kth_dist(), external)
        if bounds is not None and float(bounds[count]) > cut:
            if ordered:
                break
            continue
        p, q = get_left(a), get_right(b)
        if m.distance(p[0], q[0]) > cut or m.distance(p[-1], q[-1]) > cut:
            continue
        dmat = m.pairwise(p, q)
        h = max(
            directed_hausdorff_matrix(dmat),
            directed_hausdorff_matrix(dmat.T),
        )
        if h > cut:
            continue
        dist = dfd_matrix(dmat)
        heapq.heappush(heap, (-float(dist), (-a, -b)))
        if len(heap) > k:
            heapq.heappop(heap)
    return sorted(
        (-neg_d, (-na, -nb)) for neg_d, (na, nb) in heap
    )


def merge_join_topk(parts, k: int) -> List[JoinTopKEntry]:
    """The k smallest entries across per-chunk answers (exact merge)."""
    return heapq.nsmallest(k, (entry for part in parts for entry in part))


def join_top_k(
    left: Sequence[Union[Trajectory, np.ndarray]],
    right: Sequence[Union[Trajectory, np.ndarray]],
    k: int = 5,
    metric: Union[str, GroundMetric] = "euclidean",
) -> List[JoinTopKEntry]:
    """The ``k`` closest ``(left, right)`` pairs by exact DFD, ascending.

    The serial reference of the engine's corpus top-k join
    (:meth:`repro.engine.MotifEngine.join_top_k`): every pair is
    scanned with the cascade's lower bounds pruning against the
    evolving k-th best distance, and the answer is the canonical
    ``(distance, (a, b))`` ranking -- identical for the indexed,
    sharded and serial paths.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return scan_join_topk(
        _points_getter(left), _points_getter(right),
        all_pairs(len(left), len(right)), k, metric,
    )

