"""Partitioning of one query's candidate start-pair space into chunks.

The subtrajectory-clustering literature (Gudmundsson & Wong 2021; Ost
et al. 2025) observes that motif/cluster workloads are embarrassingly
parallel over candidate start pairs.  The catch for *best-first* search
is load balance: the combined lower bounds concentrate the interesting
subsets at the front of the sorted order, so naively splitting the
sorted array into contiguous blocks gives one worker all the real work
and the rest early exits.

:func:`plan_strides` therefore deals the candidate positions
round-robin ("card dealing"): chunk ``k`` owns the strided index range
``k :: n_chunks`` of the shared bound arrays, so every chunk holds a
representative sample of the promising candidates and reaches a
near-optimal best-so-far quickly -- which it then publishes to the
other workers through the shared threshold (see
:mod:`repro.engine.worker`).  A stride is two integers, so the chunk
task payload is constant-size: the arrays themselves travel once per
query through a shared-memory segment, and each worker orders its own
share lazily (:meth:`SubsetBounds.order_blocks`).

:func:`plan_chunks` is the pre-zero-copy variant (argsort everything,
deal from the sorted order, materialise per-chunk array copies); it
remains the fallback when shared memory is unavailable, where each
task must carry its slice through the pool pipe anyway.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.bounds import SubsetBounds


def deal_indices(order: np.ndarray, n_chunks: int) -> List[np.ndarray]:
    """Deal positions of ``order`` round-robin into ``n_chunks`` hands.

    Every returned array is a strided slice ``order[k::n_chunks]``; the
    union over chunks is exactly ``order`` (each subset appears in
    exactly one chunk).
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be at least 1")
    n_chunks = min(n_chunks, max(1, len(order)))
    return [order[k::n_chunks] for k in range(n_chunks)]


def slice_bounds(bounds: SubsetBounds, idx: np.ndarray) -> SubsetBounds:
    """A :class:`SubsetBounds` view restricted to the given positions."""
    return SubsetBounds(
        i_idx=bounds.i_idx[idx],
        j_idx=bounds.j_idx[idx],
        lb_cell=bounds.lb_cell[idx],
        lb_cross=bounds.lb_cross[idx],
        lb_band=bounds.lb_band[idx],
        combined=bounds.combined[idx],
    )


def plan_chunks(bounds: SubsetBounds, n_chunks: int) -> List[SubsetBounds]:
    """Split one query's subset bounds into balanced best-first chunks.

    Chunks are dealt from the ascending combined-bound order, so each
    chunk's internal best-first loop starts with some of the globally
    most promising subsets.  Materialises one array copy per chunk --
    used only on the cold path where tasks ship their slice through
    the pool pipe; the zero-copy path uses :func:`plan_strides`.
    """
    order = bounds.order()
    return [slice_bounds(bounds, idx) for idx in deal_indices(order, n_chunks)]


def plan_strides(n_subsets: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Deal ``n_subsets`` positions round-robin as ``(start, stride)`` pairs.

    Chunk ``k`` owns positions ``start + m * stride`` -- a strided view
    into the shared bound arrays that every worker can reconstruct from
    two integers.  The union over chunks covers each position exactly
    once.  Striding the *raw* position order samples every region of
    the (i, j) start-pair grid per chunk, which balances the promising
    candidates about as well as dealing from the sorted order did,
    without anybody paying the full O(N log N) argsort up front.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be at least 1")
    n_chunks = min(n_chunks, max(1, n_subsets))
    return [(k, n_chunks) for k in range(n_chunks)]

