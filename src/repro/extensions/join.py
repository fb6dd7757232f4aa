"""DFD similarity join (and top-k closest pairs) between collections.

The paper's conclusion proposes accelerating "other trajectory analysis
operations that rely on DFD, such as similarity join".  Given two
collections and a threshold ``theta``, the join reports every pair of
whole trajectories with ``DFD <= theta``, using a cascade of cheap
lower-bound filters before the exact decision:

1. **endpoint filter** -- any coupling matches the first points and the
   last points of both curves, so
   ``max(d(p_0, q_0), d(p_{n-1}, q_{m-1})) <= DFD``;
2. **bounding-box filter** -- every coupled pair is one point from
   each trajectory, so the minimum box-to-box distance lower-bounds
   the DFD;
3. **Hausdorff filter** -- every point of each trajectory appears in
   some coupled pair, hence both directed Hausdorff distances (and so
   their max) lower-bound the DFD;
4. **exact decision** -- batched over blocks of surviving pairs
   (:func:`repro.distances.kernels.verify_batch`): a pair whose
   diagonal coupling stays within ``theta`` is accepted outright, the
   rest run the vectorised reachability sweep
   :func:`repro.distances.kernels.decide_batch` at ``theta``.

Filters 1-2 are O(1)-ish, filter 3 needs the O(nm) ground matrix that
step 4 reuses.  The bounding-box filter applies to every
*coordinate-monotone* ground metric
(:attr:`~repro.distances.ground.GroundMetric.coordinate_monotone`,
e.g. Euclidean and Chebyshev): the axis-wise closest-point
construction minimises every per-axis difference simultaneously, hence
the metric value too.

``index=True`` puts a :class:`~repro.index.CorpusIndex` in front of the
cascade: per-trajectory summaries (endpoints, boxes, Douglas-Peucker
simplifications with exact DFD error radii) plus endpoint-grid
bucketing prune most pairs before any of the per-pair filters run.
The pruning is admissible, so the *matches* are identical to the
unindexed path; the filter statistics account the index's share in
``pruned_index``.  :func:`join_pairs` is the candidate-list core every
join path (unindexed, indexed, serial and engine-sharded) shares, and
:func:`scan_join_topk` the analogous core of the top-k closest-pair
join :func:`join_top_k`.
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
from ..errors import TrajectoryError
from ..trajectory import Trajectory

#: One top-k closest-pair entry: ``(distance, (left index, right index))``.
JoinTopKEntry = Tuple[float, Tuple[int, int]]


@dataclass
class JoinStats:
    """Filter-cascade accounting for one join run."""

    pairs_total: int = 0
    pruned_index: int = 0
    pruned_endpoint: int = 0
    pruned_bbox: int = 0
    pruned_hausdorff: int = 0
    #: Pairs that survived filters 1-3 and were decided exactly.
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
            + self.pruned_bbox
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
        total.pruned_bbox += part.pruned_bbox
        total.pruned_hausdorff += part.pruned_hausdorff
        total.decisions += part.decisions
        total.accepted_upper += part.accepted_upper
        total.matches += part.matches
        total.details.update(part.details)
    return total


def _points_getter(items: Sequence) -> Callable[[int], np.ndarray]:
    """Adapt a trajectory sequence into an index -> points callable.

    The join's one input check: non-finite coordinates raise
    :class:`~repro.errors.TrajectoryError` here, before any pair is
    examined -- the same error the indexed paths raise when their
    summaries are built.
    """
    arrays = [
        np.asarray(getattr(t, "points", t), dtype=np.float64) for t in items
    ]
    for pts in arrays:
        if not np.isfinite(pts).all():
            raise TrajectoryError("points contain NaN or infinite coordinates")
    return lambda i: arrays[i]


def similarity_join(
    left: Sequence[Union[Trajectory, np.ndarray]],
    right: Sequence[Union[Trajectory, np.ndarray]],
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
    offsets: Tuple[int, int] = (0, 0),
    index: bool = False,
) -> Tuple[List[Tuple[int, int]], JoinStats]:
    """All pairs ``(a, b)`` with ``DFD(left[a], right[b]) <= theta``.

    Returns the matching index pairs and the filter statistics.
    ``offsets`` shifts the reported indices -- a tile of a sharded join
    (see :meth:`repro.engine.MotifEngine.join`) passes the absolute
    positions of its first left/right trajectory so per-tile matches
    land directly in collection coordinates.  With ``index=True`` a
    :class:`~repro.index.CorpusIndex` generates the candidate pairs
    first; the matches are identical (the index bounds are admissible)
    and the pairs it removed are accounted in ``stats.pruned_index``.
    Without the index every pair is a candidate of :func:`join_pairs`.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    if index:
        return _indexed_join(left, right, theta, metric, offsets)
    get_left, get_right = _points_getter(left), _points_getter(right)
    pairs = np.stack(np.divmod(
        np.arange(len(left) * len(right)), max(len(right), 1)
    ), axis=1)
    return join_pairs(get_left, get_right, pairs, theta, metric, offsets)


def join_pairs(
    get_left: Callable[[int], np.ndarray],
    get_right: Callable[[int], np.ndarray],
    pairs,
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
    offsets: Tuple[int, int] = (0, 0),
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

    Filters 1-3 run per pair; the pairs they cannot prune queue their
    ground matrices for the verify stage, which settles them
    :data:`~repro.distances.kernels.VERIFY_BLOCK` at a time
    (:func:`~repro.distances.kernels.verify_batch`).  Matches keep the
    order of ``pairs``.
    """
    if theta < 0:
        raise ValueError("theta must be non-negative")
    off_a, off_b = (int(offsets[0]), int(offsets[1]))
    m = get_metric(metric)
    boxes_l: dict = {}
    boxes_r: dict = {}
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
        # Filter 2: bounding boxes.  The closest-point construction is
        # exact for every coordinate-monotone ground metric (Euclidean,
        # Chebyshev); other metrics skip the filter.
        if m.coordinate_monotone:
            box_p = boxes_l.get(a)
            if box_p is None:
                box_p = boxes_l[a] = _bbox(p)
            box_q = boxes_r.get(b)
            if box_q is None:
                box_q = boxes_r[b] = _bbox(q)
            if _boxes_apart(box_p, box_q, theta, m):
                stats.pruned_bbox += 1
                continue
        # Filter 3: symmetric Hausdorff from the shared matrix.
        dmat = m.pairwise(p, q)
        h = max(
            directed_hausdorff_matrix(dmat),
            directed_hausdorff_matrix(dmat.T),
        )
        if h > theta:
            stats.pruned_hausdorff += 1
            continue
        # Filter 4: exact decision, batched.
        stats.decisions += 1
        block_pairs.append((a + off_a, b + off_b))
        block_mats.append(dmat)
        if len(block_mats) == VERIFY_BLOCK:
            verify_block()
    if block_mats:
        verify_block()
    return matches, stats


def _indexed_join(left, right, theta, metric, offsets):
    """Serial indexed join: index candidates, then the pair cascade."""
    from ..index import CorpusIndex

    if not len(left) or not len(right):
        return [], JoinStats()
    m = get_metric(metric)
    index_left = CorpusIndex(left, m)
    index_right = CorpusIndex(right, m)
    pairs, index_stats = index_left.candidate_pairs(index_right, theta)
    matches, stats = join_pairs(
        _points_getter(left), _points_getter(right), pairs, theta, m, offsets
    )
    stats.pairs_total = len(left) * len(right)
    stats.pruned_index = stats.pairs_total - len(pairs)
    stats.details["index"] = index_stats.as_dict()
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
    boxes_l: dict = {}
    boxes_r: dict = {}
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
        if m.coordinate_monotone:
            box_p = boxes_l.get(a)
            if box_p is None:
                box_p = boxes_l[a] = _bbox(p)
            box_q = boxes_r.get(b)
            if box_q is None:
                box_q = boxes_r[b] = _bbox(q)
            if _boxes_apart(box_p, box_q, cut, m):
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
    n_left, n_right = len(left), len(right)
    pair_iter = (
        (a, b) for a in range(n_left) for b in range(n_right)
    )
    return scan_join_topk(
        _points_getter(left), _points_getter(right), list(pair_iter), k, metric
    )


def _bbox(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return points.min(axis=0), points.max(axis=0)


def _boxes_apart(box_a, box_b, theta: float, metric: GroundMetric) -> bool:
    """True when the minimum box-to-box distance exceeds theta.

    Per axis, the closest pair of points of two intervals is either the
    facing endpoints (disjoint intervals) or any shared coordinate
    (overlapping intervals); assembling those coordinates minimises
    every per-axis difference simultaneously, which attains the minimum
    box-to-box distance for every coordinate-monotone metric
    (Euclidean, Chebyshev, ...).
    """
    lo_a, hi_a = box_a
    lo_b, hi_b = box_b
    near_a = np.where(hi_a < lo_b, hi_a, np.where(hi_b < lo_a, lo_a, np.maximum(lo_a, lo_b)))
    near_b = np.where(hi_a < lo_b, lo_b, np.where(hi_b < lo_a, hi_b, np.maximum(lo_a, lo_b)))
    return metric.distance(near_a, near_b) > theta
