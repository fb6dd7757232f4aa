"""Corpus workload orchestration: joins, top-k joins, clustering.

The :class:`~repro.engine.MotifEngine` facade delegates its
collection-level workloads here.  Every join verb (threshold join,
top-k closest-pair join, window clustering) is one pipeline:

1. a **candidate source** -- all pairs (``index=False``), or the pairs
   the corpus index (:class:`repro.index.CorpusIndex`) cannot prove
   apart: the endpoint grid, the dual-tree walk or the tree cursor;
2. the batched **verify** of the candidate list, serial or dealt by
   the one pair-chunk dispatch :func:`_deal_pairs`, which publishes
   the corpus transport slabs and the pair slab once and hands each
   task refs plus a ``(start, stride)`` share, so nothing corpus-sized
   is pickled (``transfer_info()``'s ``index_bytes_pickled`` stays 0);
3. the canonical **merge** (matches re-sort to left-major order,
   cascade statistics fold additively, top-k heaps merge under the
   ``(distance, (a, b))`` total order).

Answers are identical for every candidate source and worker count --
the index's bounds are admissible -- which
``tests/test_parity_randomized.py`` sweeps.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.motif import _as_trajectory
from ..distances.ground import get_metric
from ..errors import ReproError
from ..extensions.join import (
    JoinStats,
    _points_getter,
    join_pairs,
    merge_join_stats,
    merge_join_topk,
    scan_join_topk,
)
from ..index import CorpusIndex, IndexStats, all_pairs
from . import planner
from . import worker as _worker
from .cache import fingerprint_points, metric_key


def corpus_index_cache_key(fps: tuple, metric) -> tuple:
    """Tables-cache key of one corpus' :class:`CorpusIndex`.

    Shared with the serving layer: :class:`repro.service.MotifService`
    seeds this exact key with a snapshot-restored index so corpus
    queries against a loaded snapshot never rebuild the summaries.
    """
    return ("cindex", fps, metric_key(metric))


def corpus_index_for(engine, items, metric) -> Tuple[CorpusIndex, tuple]:
    """A (cached) :class:`CorpusIndex` over ``items`` under ``metric``.

    Indexes are pure functions of (content, metric), so they ride the
    engine's tables cache -- a serving workload joining the same
    corpora repeatedly builds the summaries once.
    """
    fps = planner.corpus_fingerprint(items)
    return (
        engine._oracles.tables.get_or_build(
            corpus_index_cache_key(fps, metric),
            lambda: CorpusIndex(items, metric),
        ),
        fps,
    )


def _sides(engine, left, right, resolved):
    """The ``(items, index, fingerprints)`` of both sides of a join."""
    return tuple(
        (items, *corpus_index_for(engine, items, resolved))
        for items in (left, right)
    )


# ----------------------------------------------------------------------
# The pair-chunk pipeline
# ----------------------------------------------------------------------
def _deals(exec_, workers: int, n_pairs: int) -> bool:
    """Whether a candidate list is dealt across the pool (else serial)."""
    return (
        exec_.can_shard(workers)
        and n_pairs >= 2
        and planner.n_chunks_for(workers, exec_.chunks_per_worker) >= 2
    )


def _share_corpus(engine, index: CorpusIndex, fps: tuple):
    """Publish one corpus' transport slabs; None -> ship inline.

    A snapshot-restored index already lives in mapped files, so its
    :class:`~repro.store.SnapshotSlabRef` is handed out directly --
    workers re-map the same files (one page cache host-wide) and the
    parent copies nothing into shared memory.
    """
    ref = getattr(index, "slab_ref", None)
    if ref is not None:
        return ref
    return engine._exec.share_index(
        planner.corpus_slab_key(fps), index.transport_slabs()
    )


def _points_list(items) -> List[np.ndarray]:
    """Raw point arrays of a collection (inline task payloads)."""
    return [
        np.asarray(getattr(t, "points", t), dtype=np.float64) for t in items
    ]


def _deal_pairs(engine, workers, sides, pairs, pairs_key, make_task, fn, *,
                lbs=None, inline=None):
    """The one pair-chunk dispatch of every corpus join verb.

    Publishes both sides' corpus transport slabs (once for a self-join)
    and the candidate ``pairs`` (plus their ascending ``lbs``, if any)
    as one batch, deals ``(start, stride)`` shares of them with
    :func:`~repro.engine.planner.plan_pair_strides`, and maps ``fn``
    over the tasks ``make_task`` builds from each share -- so a
    zero-copy task is refs plus two ints.  Without shared memory the
    tasks carry their points and pair slices inline.  ``inline``, when
    given, marks tasks that share a cut through the engine's shared
    threshold: they run through
    :meth:`~repro.engine.executor.EngineExecutor.dispatch_chunks`, with
    ``inline`` as the sequential fallback.  Returns the per-chunk
    results in share order; callers merge them canonically.
    """
    exec_ = engine._exec
    (left, index_left, fps_left), (right, index_right, fps_right) = sides
    self_join = fps_left == fps_right
    slabs = {"pairs": pairs} if lbs is None else {"pairs": pairs, "lbs": lbs}
    with exec_.scan_lock:
        try:
            exec_.shm.begin_batch()
            left_ref = _share_corpus(engine, index_left, fps_left)
            right_ref = (
                left_ref if self_join
                else _share_corpus(engine, index_right, fps_right)
            )
            if left_ref is not None and right_ref is not None:
                corpus = dict(left_ref=left_ref, right_ref=right_ref)
            else:
                corpus = dict(
                    left_points=_points_list(left),
                    right_points=None if self_join else _points_list(right),
                )
            pairs_ref = exec_.share_index(pairs_key, slabs)
            tasks = []
            for start, stride in planner.plan_pair_strides(
                len(pairs), workers, exec_.chunks_per_worker
            ):
                if pairs_ref is not None:
                    share = dict(pairs_ref=pairs_ref, pair_start=start,
                                 pair_stride=stride)
                elif lbs is None:
                    share = dict(pairs=pairs[start::stride])
                else:
                    share = dict(pairs=pairs[start::stride],
                                 pair_lbs=lbs[start::stride])
                tasks.append(make_task(**share, **corpus))
            with obs.span("engine.dispatch", tasks=len(tasks)):
                if inline is None:
                    return exec_.map_tasks(tasks, workers, fn)
                return exec_.dispatch_chunks(tasks, workers, fn, inline)
        finally:
            exec_.shm.trim()


def _verify_chunks(engine, workers, sides, pairs, pairs_key, theta, metric):
    """The dealt batched verify of a threshold candidate list, merged.

    Matches re-sort to the serial left-major order and the cascade
    statistics fold additively, so the answer equals the serial
    :func:`join_pairs` over the same list for every worker count.
    """
    parts = _deal_pairs(
        engine, workers, sides, pairs, pairs_key,
        functools.partial(_worker.JoinPairsChunkTask, theta=theta,
                          metric=metric),
        _worker.join_pairs_chunk,
    )
    matches = sorted(match for part, _ in parts for match in part)
    return matches, merge_join_stats([part_stats for _, part_stats in parts])


# ----------------------------------------------------------------------
# Similarity join
# ----------------------------------------------------------------------
def run_join(engine, left, right, theta, metric, workers, use_index):
    """Exact DFD similarity join; indexed and/or sharded.

    One pipeline for every index mode: a candidate source (all pairs
    unindexed, the corpus index's grid or tree survivors otherwise),
    then the batched verify -- serial, or dealt in pair chunks by
    :func:`_deal_pairs` -- then the canonical merge.  Matches and
    statistics equal the serial ``similarity_join`` with the same
    ``index`` for every worker count.
    """
    if theta < 0:  # one validation for both paths, same exception type
        raise ValueError("theta must be non-negative")
    resolved = get_metric(metric)
    mode = planner.normalize_index_mode(use_index)
    key = planner.join_result_key(left, right, resolved, theta, mode)

    def as_answer(out):
        # Copies: a caller mutating the matches list or stats must
        # not poison the cached canonical answer.
        matches, stats = out
        return list(matches), copy.deepcopy(stats)

    cached = engine._oracles.result(key)
    if cached is not None:
        return as_answer(cached)
    indexed = bool(mode) and bool(len(left)) and bool(len(right))
    source = ("tree" if mode == "tree" else "grid") if indexed else "all"
    sides = None
    if indexed:
        sides = _sides(engine, left, right, resolved)
        (_, index_left, fps_left), (_, index_right, fps_right) = sides
        # Candidate sets are pure functions of (corpora, metric, theta,
        # generator mode); serving workloads re-join the same
        # collections, so they ride the tables cache next to the
        # indexes themselves.
        with obs.span("engine.index", mode=source) as _sp:
            pairs, index_stats = engine._oracles.tables.get_or_build(
                ("cpairs", fps_left, fps_right, metric_key(resolved),
                 float(theta), source),
                lambda: index_left.candidate_pairs(
                    index_right, theta, mode=source
                ),
            )
            if _sp is not None:
                _sp.attrs["candidates"] = int(len(pairs))
    else:
        pairs = all_pairs(len(left), len(right))
    if _deals(engine._exec, workers, len(pairs)):
        sides = sides or _sides(engine, left, right, resolved)
        (_, _, fps_left), (_, _, fps_right) = sides
        matches, stats = _verify_chunks(
            engine, workers, sides, pairs,
            planner.pairs_slab_key(fps_left, fps_right, resolved, theta,
                                   source),
            theta, metric,
        )
    else:
        matches, stats = join_pairs(_points_getter(left),
                                    _points_getter(right),
                                    pairs, theta, resolved)
    if indexed:
        stats.pairs_total = len(left) * len(right)
        stats.pruned_index = stats.pairs_total - len(pairs)
        stats.details["index"] = index_stats.as_dict()
    out = (matches, stats)
    engine._oracles.put_result(key, out)
    return as_answer(out)


def _shard_offsets(shards) -> List[int]:
    """Global index offset of each shard in a contiguous shard list."""
    offsets = [0]
    for items in shards:
        offsets.append(offsets[-1] + len(items))
    return offsets


def _merge_index_details(parts) -> Optional[dict]:
    """Key-wise sum of per-shard-pair ``IndexStats.as_dict`` payloads.

    Every index counter is additive over a partition of the pair grid,
    so ``summary_builds == 0`` remains the observable all-shards-served
    -from-snapshot signature after the merge.
    """
    merged: Optional[dict] = None
    for part in parts:
        detail = part.details.get("index")
        if detail is None:
            continue
        if merged is None:
            merged = dict(detail)
        else:
            for key, value in detail.items():
                merged[key] = merged.get(key, 0) + value
    return merged


def _shard_block_bound(engine, left, right, resolved) -> float:
    """Admissible DFD lower bound over an entire (left, right) block.

    The root node of each shard's tree aggregates the whole shard, so
    one vectorised root-pair bound plus one representative DP lower
    -bounds every cross-shard trajectory pair -- O(1) per block, built
    from summaries a snapshot-restored shard already carries.
    """
    index_left, _ = corpus_index_for(engine, left, resolved)
    index_right, _ = corpus_index_for(engine, right, resolved)
    left_tree = index_left.ensure_tree()
    right_tree = index_right.ensure_tree()
    root_lb = float(left_tree.pair_lower_bounds(right_tree, [0], [0])[0])
    return max(root_lb, left_tree.rep_pair_bound(right_tree, 0, 0))


def _skipped_block_stats(n_pairs: int) -> JoinStats:
    """The statistics of a shard block pruned before scattering.

    Every pair is accounted as index-pruned (one root-node visit, one
    root-node prune) so the additive merge still covers the full pair
    grid -- and ``summary_builds`` stays 0, preserving the
    snapshot-served signature.
    """
    index_stats = IndexStats(
        pairs_total=n_pairs,
        pruned_grid=n_pairs,
        nodes_visited=1,
        nodes_pruned=1,
    )
    return JoinStats(
        pairs_total=n_pairs,
        pruned_index=n_pairs,
        details={"index": index_stats.as_dict()},
    )


def run_sharded_join(engine, left_shards, right_shards, theta, metric,
                     workers, use_index):
    """Scatter a similarity join across shard pairs; merge exactly.

    Each (left shard, right shard) block runs the ordinary
    :func:`run_join` (riding its per-block result cache), local match
    indices shift by the shards' global offsets, and the union re-sorts
    to the serial left-major order -- the cascade is exact per pair, so
    the merged matches equal the unsharded join's.  Statistics fold
    additively (:func:`merge_join_stats`); index accounting sums
    key-wise so a snapshot-served scatter still reports
    ``summary_builds == 0``.

    In tree mode, provably-far shard *blocks* are skipped before any
    scatter: the shard trees' root-pair bound exceeding ``theta``
    (strictly) proves every cross pair exceeds it too, so the block
    contributes no matches and only O(1) work.  Skips are reported in
    ``details["shards"]["blocks_skipped"]``.
    """
    mode = planner.normalize_index_mode(use_index)
    resolved = get_metric(metric)
    left_offsets = _shard_offsets(left_shards)
    right_offsets = _shard_offsets(right_shards)
    matches: List[Tuple[int, int]] = []
    stat_parts = []
    blocks_skipped = 0
    for i, left in enumerate(left_shards):
        for j, right in enumerate(right_shards):
            if mode == "tree" and len(left) and len(right):
                if _shard_block_bound(engine, left, right, resolved) > theta:
                    blocks_skipped += 1
                    stat_parts.append(
                        _skipped_block_stats(len(left) * len(right))
                    )
                    continue
            part_matches, part_stats = run_join(
                engine, left, right, theta, metric, workers, use_index
            )
            loff, roff = left_offsets[i], right_offsets[j]
            matches.extend((a + loff, b + roff) for a, b in part_matches)
            stat_parts.append(part_stats)
    matches.sort()
    stats = merge_join_stats(stat_parts)
    index_detail = _merge_index_details(stat_parts)
    if index_detail is not None:
        stats.details["index"] = index_detail
    shard_info = {"left": len(left_shards), "right": len(right_shards)}
    if mode == "tree":
        shard_info["blocks_skipped"] = blocks_skipped
    stats.details["shards"] = shard_info
    return matches, stats


def run_sharded_join_top_k(engine, left_shards, right_shards, k, metric,
                           workers, use_index):
    """The k closest pairs across shard blocks, merged canonically.

    Any pair in the global answer ranks within its own block's top k,
    so per-block answers (global-indexed) merge exactly under the
    ``(distance, (a, b))`` total order -- the same
    :func:`merge_join_topk` reducer the PR 2 chunked scan uses, applied
    one level up.

    In tree mode the blocks are visited in ascending root-pair-bound
    order and a block whose bound strictly exceeds the running k-th
    best distance is skipped outright: none of its pairs can displace
    an already-merged entry, and ties at the k-th distance survive
    because only a *strict* excess prunes.
    """
    mode = planner.normalize_index_mode(use_index)
    left_offsets = _shard_offsets(left_shards)
    right_offsets = _shard_offsets(right_shards)
    blocks = [
        (i, j) for i in range(len(left_shards))
        for j in range(len(right_shards))
    ]
    if mode == "tree":
        resolved = get_metric(metric)
        blocks.sort(key=lambda ij: (
            _shard_block_bound(
                engine, left_shards[ij[0]], right_shards[ij[1]], resolved
            ) if len(left_shards[ij[0]]) and len(right_shards[ij[1]])
            else -math.inf,
            ij,
        ))
    parts = []
    merged: List = []
    for i, j in blocks:
        left, right = left_shards[i], right_shards[j]
        if (mode == "tree" and len(left) and len(right)
                and len(merged) >= k
                and _shard_block_bound(engine, left, right, resolved)
                > merged[-1][0]):
            continue
        entries = run_join_top_k(
            engine, left, right, k, metric, workers, use_index
        )
        loff, roff = left_offsets[i], right_offsets[j]
        parts.append([
            (dist, (a + loff, b + roff)) for dist, (a, b) in entries
        ])
        merged = merge_join_topk(parts, k)
    return merged


# ----------------------------------------------------------------------
# Top-k closest pairs
# ----------------------------------------------------------------------
def run_join_top_k(engine, left, right, k, metric, workers, use_index):
    """The ``k`` closest (left, right) pairs by exact DFD, ascending.

    The answer is canonical under ``(distance, (a, b))``, so the
    result cache is shared by every path.  The candidate source is all
    pairs (unindexed), the grid in ascending index-lower-bound order
    (the scan stops at the first bound beyond the evolving k-th best)
    or the tree cursor (:func:`_tree_join_topk`); dealt scans exchange
    the k-th best through the engine's shared threshold and merge
    per-chunk heaps exactly.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    resolved = get_metric(metric)
    key = planner.join_topk_result_key(left, right, resolved, k)
    cached = engine._oracles.result(key)
    if cached is not None:
        return list(cached)
    mode = planner.normalize_index_mode(use_index)
    if not len(left) or not len(right):
        mode = False
    if mode == "tree":
        entries = _tree_join_topk(
            engine, left, right, k, metric, resolved, workers
        )
    elif mode:
        sides = _sides(engine, left, right, resolved)
        (_, index_left, _), (_, index_right, _) = sides
        pairs, lbs = index_left.ordered_pairs(index_right)
        entries = _scan_topk(engine, workers, left, right, pairs, lbs, k,
                             metric, resolved, sides=sides)
    else:
        entries = _scan_topk(engine, workers, left, right,
                             all_pairs(len(left), len(right)), None, k,
                             metric, resolved)
    entries = list(entries)
    engine._oracles.put_result(key, entries)
    return list(entries)


def _tree_join_topk(engine, left, right, k, metric, resolved, workers):
    """Top-k closest pairs via best-first dual-tree enumeration.

    A head draw from the :class:`TreePairCursor` (a few multiples of
    ``k``, cheapest lower bounds first) seeds a provisional k-th best
    ``kth0``; the cursor then drains only the pairs whose monotone
    bound does not strictly exceed it.  Any pair the cursor withholds
    has ``lb > kth0 >= final k-th distance``, so it cannot appear in
    the answer (ties at the k-th distance carry ``lb <= kth0`` and
    survive) -- the merged heap is byte-identical to the flat scan's.
    The n x n pair grid is never materialised.
    """
    sides = _sides(engine, left, right, resolved)
    (_, index_left, _), (_, index_right, _) = sides
    cursor = index_left.pair_cursor(index_right)
    head_pairs, head_lbs = cursor.take(max(4 * k, 64))
    head_entries = scan_join_topk(
        _points_getter(left), _points_getter(right),
        head_pairs, k, resolved, bounds=head_lbs, ordered=True,
    )
    kth0 = head_entries[k - 1][0] if len(head_entries) >= k else math.inf
    rest_pairs, rest_lbs = cursor.take_within(kth0)
    if not len(rest_pairs):
        return list(head_entries)
    rest_entries = _scan_topk(
        engine, workers, left, right, rest_pairs, rest_lbs, k, metric,
        resolved, sides=sides, kth0=kth0, slab_mode=("tree", int(k)),
    )
    return merge_join_topk([list(head_entries), list(rest_entries)], k)


def _scan_topk(engine, workers, left, right, pairs, lbs, k, metric, resolved,
               *, sides=None, kth0=math.inf, slab_mode="grid"):
    """Heap scan of a top-k candidate list: serial, or dealt in chunks.

    ``lbs`` (ascending per-pair lower bounds, or None) lets each scan
    stop at the first bound beyond its cut.  Dealt chunks share the
    k-th best through the engine's threshold and merge exactly.
    """
    if not _deals(engine._exec, workers, len(pairs)):
        return scan_join_topk(
            _points_getter(left), _points_getter(right), pairs, k, resolved,
            bounds=lbs, ordered=lbs is not None, kth0=kth0,
        )
    sides = sides or _sides(engine, left, right, resolved)
    (_, _, fps_left), (_, _, fps_right) = sides
    parts = _deal_pairs(
        engine, workers, sides, pairs,
        planner.topk_pairs_slab_key(fps_left, fps_right, resolved,
                                    lbs is not None, slab_mode),
        functools.partial(
            _worker.JoinTopKChunkTask, k=int(k), metric=metric,
            seed_kth=float(kth0), sync_every=engine._exec.bsf_sync_every,
        ),
        _worker.join_topk_chunk,
        lbs=lbs,
        inline=_thread_kth,
    )
    return merge_join_topk(parts, k)


def _thread_kth(tasks):
    """Run top-k chunks in turn, threading the k-th best between them
    the way the shared threshold does across processes."""
    out = []
    kth_carry = math.inf
    for task in tasks:
        entries = _worker.join_topk_chunk(
            dataclasses.replace(task, seed_kth=min(task.seed_kth, kth_carry))
        )
        if len(entries) == task.k:
            kth_carry = min(kth_carry, entries[-1][0])
        out.append(entries)
    return out


# ----------------------------------------------------------------------
# Range and k-nearest-neighbour queries
# ----------------------------------------------------------------------
def run_range(engine, query, corpus, radius, metric, use_index):
    """All corpus trajectories within exact DFD ``radius`` of ``query``.

    Returns ``(matches, stats)`` where matches are ``(index,
    distance)`` pairs ascending by corpus index -- byte-identical to
    the brute-force scan whether the tree traversal prunes or not
    (bounds are admissible; only strict excess prunes, so ties at the
    radius survive).  Results are content-addressed the same way joins
    are, so repeated queries replay from the oracle cache.
    """
    if not len(corpus):
        return [], IndexStats()
    resolved = get_metric(metric)
    use_tree = bool(planner.normalize_index_mode(use_index))
    key = planner.range_result_key(query, corpus, resolved, radius, use_tree)
    cached = engine._oracles.result(key)
    if cached is not None:
        matches, stats = cached
        return list(matches), copy.deepcopy(stats)
    index, _ = corpus_index_for(engine, corpus, resolved)
    matches, stats = index.range_scan(query, radius, use_tree=use_tree)
    engine._oracles.put_result(key, (list(matches), copy.deepcopy(stats)))
    return matches, stats


def run_knn(engine, query, corpus, k, metric, use_index):
    """The ``k`` nearest corpus trajectories to ``query`` by exact DFD.

    Returns ``(neighbors, stats)`` with neighbors as ``(distance,
    index)`` ascending -- the canonical order ``sorted()[:k]`` yields,
    ties broken by corpus index, reproduced exactly by the best-first
    tree traversal.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not len(corpus):
        return [], IndexStats()
    resolved = get_metric(metric)
    use_tree = bool(planner.normalize_index_mode(use_index))
    key = planner.knn_result_key(query, corpus, resolved, k, use_tree)
    cached = engine._oracles.result(key)
    if cached is not None:
        neighbors, stats = cached
        return list(neighbors), copy.deepcopy(stats)
    index, _ = corpus_index_for(engine, corpus, resolved)
    neighbors, stats = index.knn_scan(query, k, use_tree=use_tree)
    engine._oracles.put_result(key, (list(neighbors), copy.deepcopy(stats)))
    return neighbors, stats


# ----------------------------------------------------------------------
# Window clustering
# ----------------------------------------------------------------------
def run_cluster(engine, trajectory, *, window_length, theta, stride,
                min_cluster_size, metric, workers, use_index,
                with_stats=False):
    """Window clustering through the engine's pair-chunk pipeline.

    The serial extension enumerates all O(W^2) non-overlapping window
    pairs in Python; here the same pair list is (optionally) pruned by
    a window-level :class:`CorpusIndex` and verified like a join's
    candidates -- serially or dealt in pair chunks by
    :func:`_deal_pairs`, with the one trajectory's windows riding a
    single published transport segment.  The surviving edge set is
    identical (the bounds are admissible and the cascade exact), and
    edges union in sorted order -- the exact union-find evolution of
    the serial loop -- so the clusters are too.  ``with_stats`` returns
    ``(clusters, info)`` where ``info`` carries the window counts, the
    index's :meth:`IndexStats.as_dict` accounting and the folded
    cascade statistics (the CLI's ``cluster --stats``).
    """
    from ..extensions.clustering import (
        clusters_from_edges,
        cluster_subtrajectories,
        window_pair_grid,
        window_starts,
    )

    traj = _as_trajectory(trajectory)
    resolved = get_metric(metric, crs=traj.crs)
    if workers < 2 and not use_index and not with_stats:
        return cluster_subtrajectories(
            traj, window_length=window_length, theta=theta, stride=stride,
            min_cluster_size=min_cluster_size, metric=resolved,
        )
    starts = window_starts(traj.n, window_length, stride, theta)
    windows = [traj.points[s:s + window_length] for s in starts]
    pair_grid = window_pair_grid(starts, window_length)
    index_stats = None
    cascade_stats = None

    def answer(clusters, candidates):
        if not with_stats:
            return clusters
        info = {
            "windows": len(starts),
            "pairs_total": int(len(pair_grid)),
            "candidates": int(len(candidates)),
            "index": None if index_stats is None else index_stats.as_dict(),
        }
        if cascade_stats is not None:
            info["cascade"] = {
                "pruned_endpoint": cascade_stats.pruned_endpoint,
                "pruned_hausdorff": cascade_stats.pruned_hausdorff,
                "decisions": cascade_stats.decisions,
                "accepted_upper": cascade_stats.accepted_upper,
                "matches": cascade_stats.matches,
            }
        return clusters, info

    if not len(pair_grid):
        # No candidate edges, but singleton components still exist
        # (min_cluster_size=1 reports every window) -- same as serial.
        return answer(
            clusters_from_edges(starts, [], window_length, min_cluster_size),
            [],
        )
    mode = planner.normalize_index_mode(use_index)
    windex = None
    candidates = pair_grid
    if mode:
        windex = engine._oracles.tables.get_or_build(
            ("cwindex", fingerprint_points(traj), int(window_length),
             int(stride), metric_key(resolved)),
            lambda: CorpusIndex(windows, resolved),
        )
        candidates, index_stats = windex.candidate_pairs(
            None, theta, pairs=pair_grid,
            mode="tree" if mode == "tree" else "grid",
        )
    if _deals(engine._exec, workers, len(candidates)):
        fps = ("windows", fingerprint_points(traj), int(window_length),
               int(stride))
        if windex is None:
            windex = CorpusIndex(windows, resolved)
        side = (windows, windex, fps)
        edges, cascade_stats = _verify_chunks(
            engine, workers, (side, side), candidates,
            planner.pairs_slab_key(fps + (mode,), fps, resolved, theta),
            theta, resolved,
        )
    else:
        edges, cascade_stats = join_pairs(
            _points_getter(windows), _points_getter(windows),
            candidates, theta, resolved,
        )
    edges.sort()  # serial discovery order -> identical union-find state
    return answer(
        clusters_from_edges(starts, edges, window_length, min_cluster_size),
        candidates,
    )


# ----------------------------------------------------------------------
# Corpus batches (discover_many transport + warm oracles)
# ----------------------------------------------------------------------
def warm_refs_for(engine, pending, parsed, metric, algorithm, options):
    """Shared ``dG`` handles for a batch of corpus queries.

    A query rides the warm path only when that is genuinely cheaper
    than letting its worker build the oracle itself:

    * its dense oracle is *already* in the parent's cache (the serving
      case -- prior discover/top-k/join calls paid for it), or
    * the same trajectory (pair) appears more than once among the
      pending queries, so one parent-side build amortises across
      workers -- but never for lazy-oracle algorithms (GTM*), whose
      O(n)-space contract a forced dense O(n^2) build would break.

    Cold unique queries return ``None`` and keep the old behavior
    (each worker computes its own ``dG`` concurrently), so a cold
    corpus sweep is never serialised behind the parent.
    """
    from collections import Counter

    from ..core.motif import _make_algorithm
    from ..core.gtm_star import GTMStar

    if not engine._exec.use_shared_memory():
        return [None] * len(pending)
    probe = algorithm
    if isinstance(algorithm, str):
        probe = _make_algorithm(algorithm, **options)
    lazy = isinstance(probe, GTMStar)
    keys = []
    for idx in pending:
        traj_a, traj_b = parsed[idx]
        resolved = get_metric(metric, crs=traj_a.crs)
        keys.append(planner.dense_oracle_key(traj_a, traj_b, resolved))
    counts = Counter(keys)
    refs = []
    built: dict = {}
    for idx, key in zip(pending, keys):
        dense = engine._oracles.oracles.get(key) or built.get(key)
        if dense is None:
            if lazy or counts[key] < 2:
                refs.append(None)
                continue
            traj_a, traj_b = parsed[idx]
            resolved = get_metric(metric, crs=traj_a.crs)
            dense, key = engine._oracles.dense_oracle(traj_a, traj_b, resolved)
            built[key] = dense
        refs.append(engine._exec.share_dense(key, dense))
    return refs


def batch_transport(engine, pending, parsed):
    """Publish a batch's trajectories once; per-query transport specs.

    Returns ``(corpus_ref, specs)`` where ``specs[i]`` is the
    ``(a_spec, b_spec)`` pair of ``pending[i]`` -- or ``(None, None)``
    when shared memory is unavailable and tasks must carry the
    trajectories inline (today's path).
    """
    inline = (None, [(None, None)] * len(pending))
    if not engine._exec.use_shared_memory():
        return inline
    items: List = []
    specs = []
    for idx in pending:
        traj_a, traj_b = parsed[idx]
        a_spec = (len(items), traj_a.crs, traj_a.trajectory_id)
        items.append(traj_a)
        b_spec = None
        if traj_b is not None:
            b_spec = (len(items), traj_b.crs, traj_b.trajectory_id)
            items.append(traj_b)
        specs.append((a_spec, b_spec))
    try:
        # Transport is best-effort: a batch the index cannot hold as
        # one corpus (e.g. mixed dimensionality -- every query is
        # independent, so that is a legal batch) ships inline instead.
        index = CorpusIndex(items, "euclidean")
    except ReproError:
        return inline
    ref = engine._exec.share_index(
        planner.corpus_slab_key(planner.corpus_fingerprint(items)),
        index.transport_slabs(),
    )
    if ref is None:
        return inline
    return ref, specs
