"""Batched pair-DFD kernels: one vectorised sweep over a stack of pairs.

The scalar kernels in :mod:`repro.distances.frechet` verify one pair
per call; a corpus operation that verifies thousands of small pairs
pays the interpreter overhead of every row (decision) or every cell
(full DP) once *per pair*.  The kernels here run the same recurrences
once per row or anti-diagonal for a whole stack of ``B`` pairs, with
every NumPy call working on all ``B`` pairs at once:

* :func:`decide_batch` -- :func:`~repro.distances.frechet.dfd_decision`'s
  row-reachability sweep, ``DFD <= theta`` per pair;
* :func:`dfd_batch` -- :func:`~repro.distances.frechet.dfd_matrix`'s
  recurrence as an anti-diagonal wavefront, the exact DFD per pair;
* :func:`dfd_pairs` -- :func:`dfd_batch` over point-array pairs, in
  stacks bounded by cell count;
* :func:`verify_batch` -- the join's verify stage: pairs whose
  diagonal coupling stays within ``theta`` are accepted without a DP,
  :func:`decide_batch` settles the rest.

A stack is a ``(B, N, M)`` array of ground matrices plus ``ends``, the
``(B, 2)`` last-cell indices ``(n_b - 1, m_b - 1)`` of each pair's own
matrix.  Pairs of different shapes share a stack by padding
(:func:`pad_stack`): both recurrences read only cells above and to the
left of the cell they compute, so a pair's value at its own last cell
never depends on its padding, and each result is read there.  Padding
must be finite (every kernel rejects non-finite stacks with one
``np.isfinite`` per call); its value is otherwise irrelevant.

Every answer is bit-identical to the scalar kernels: the decision is
the same boolean recurrence over the same ``<=`` comparisons, and the
full DP takes only ``min``/``max`` of the input values, which round
nothing.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import TrajectoryError

__all__ = [
    "VERIFY_BLOCK",
    "decide_batch",
    "dfd_batch",
    "dfd_pairs",
    "pad_stack",
    "verify_batch",
]

#: Most pairs the join's verify stage stacks into one kernel call.  A
#: block of 60-point pairs is under 1 MB of ground matrices; larger
#: blocks raise every worker's peak memory for little more throughput.
VERIFY_BLOCK = 32

#: Most padded ground-matrix cells :func:`dfd_pairs` stacks into one
#: :func:`dfd_batch` call (1 MB of float64, plus as much again for the
#: wavefront's diagonal-ordered copy), so a long candidate list never
#: materialises all its ground matrices at once: 2048 pairs of 8-point
#: summaries, or 36 pairs of 60-point trajectories.
DFD_CELLS = 1 << 17

#: Registered at import time -- before any pool fork -- so every
#: worker observes into the same fork-shared cells.
_KERNEL_SECONDS = obs.REGISTRY.histogram(
    "repro_kernel_seconds",
    "batched DFD kernel latency per stacked block",
    labels=("kernel",),
    values=[("decide_batch",), ("dfd_batch",)],
)
_KERNEL_PAIRS = obs.REGISTRY.counter(
    "repro_kernel_pairs_total",
    "pairs settled by the batched DFD kernels, by outcome",
    labels=("outcome",),
    values=[("upper_accept",), ("dp",)],
)


def pad_stack(mats: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack 2-D ground matrices into ``(dmats, ends)``, zero-padded."""
    if not len(mats):
        return np.zeros((0, 1, 1)), np.zeros((0, 2), dtype=np.int64)
    shapes = np.array([np.shape(mat) for mat in mats], dtype=np.int64)
    if shapes.ndim != 2 or shapes.shape[1] != 2 or (shapes < 1).any():
        raise TrajectoryError("pad_stack needs non-empty 2-D matrices")
    n_max, m_max = shapes.max(axis=0)
    if (shapes == (n_max, m_max)).all():
        stack = np.stack(mats).astype(np.float64, copy=False)
    else:
        stack = np.zeros((len(mats), n_max, m_max))
        for b, mat in enumerate(mats):
            stack[b, : mat.shape[0], : mat.shape[1]] = mat
    return stack, shapes - 1


def _check_stack(dmats, ends) -> Tuple[np.ndarray, np.ndarray]:
    dmats = np.asarray(dmats, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.int64)
    if dmats.ndim != 3 or dmats.shape[1] == 0 or dmats.shape[2] == 0:
        raise TrajectoryError(
            f"a pair stack must be (B, N, M) and non-empty; got {dmats.shape}"
        )
    if ends.shape != (dmats.shape[0], 2) or (ends < 0).any() or (
        (ends >= dmats.shape[1:]).any()
    ):
        raise TrajectoryError(
            "ends must hold each pair's last cell inside the stack"
        )
    if not np.isfinite(dmats).all():
        raise TrajectoryError("ground distances contain NaN or inf")
    return dmats, ends


def _diagonal_bound(dmats: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Max ground distance along each pair's diagonal coupling.

    Step ``t`` of ``k = max(n, m)`` couples row ``t (n-1) // (k-1)``
    with column ``t (m-1) // (k-1)``: both start at 0, end at the last
    cell and advance by at most one per step, so this is a valid
    monotone coupling and its max is an upper bound on the DFD.
    """
    rows_end, cols_end = ends[:, 0], ends[:, 1]
    steps = np.maximum(rows_end, cols_end)
    t = np.minimum(np.arange(int(steps.max(initial=0)) + 1)[None, :],
                   steps[:, None])
    denom = np.maximum(steps, 1)[:, None]
    rows = t * rows_end[:, None] // denom
    cols = t * cols_end[:, None] // denom
    pick = dmats[np.arange(len(dmats))[:, None], rows, cols]
    return pick.max(axis=1) if pick.size else np.zeros(len(dmats))


def _observe(kernel: str, started: float, pairs: int) -> None:
    _KERNEL_SECONDS.labels(kernel).observe(time.perf_counter() - started)
    _KERNEL_PAIRS.labels("dp").inc(pairs)


def _decide(dmats: np.ndarray, ends: np.ndarray, theta: float,
            live=None) -> np.ndarray:
    """The row-reachability sweep over a checked stack.

    ``reach[b, j]``: cell ``(i, j)`` of pair ``b`` lies on a monotone
    path of free (``<= theta``) cells from ``(0, 0)``.  Within a row,
    ``reach[j] = free[j] and (from_above[j] or reach[j-1])`` resolves
    without a column loop: ``j`` is reachable iff the last entry cell
    (free and reachable from the row above) at or before ``j`` comes
    after the last blocked cell at or before ``j``.  Cells past a
    pair's own end are never free, so a pair whose row has no
    reachable cell is settled ``False`` and leaves the sweep.  Only the
    pairs in ``live`` (default: all) are swept; the rest read ``False``.
    """
    started = time.perf_counter()
    count, n_rows, n_cols = dmats.shape
    out = np.zeros(count, dtype=bool)
    idx = np.arange(n_cols)
    live = np.arange(count) if live is None else live
    pairs = len(live)
    rows_end, cols_end = ends[:, 0], ends[:, 1]
    col_ok = idx[None, :] <= cols_end[live, None]
    reach = np.logical_and.accumulate(
        (dmats[live, 0, :] <= theta) & col_ok, axis=1
    )
    for i in range(n_rows):
        if i:
            row_free = (dmats[live, i, :] <= theta) & col_ok
            from_above = reach.copy()
            from_above[:, 1:] |= reach[:, :-1]
            entry = row_free & from_above
            last_entry = np.maximum.accumulate(
                np.where(entry, idx, -1), axis=1
            )
            last_block = np.maximum.accumulate(
                np.where(row_free, -1, idx), axis=1
            )
            reach = last_entry > last_block
        done = rows_end[live] == i
        if done.any():
            out[live[done]] = reach[done, cols_end[live[done]]]
        keep = ~done & reach.any(axis=1)
        if not keep.all():
            live, reach, col_ok = live[keep], reach[keep], col_ok[keep]
            if not len(live):
                break
    _observe("decide_batch", started, pairs)
    return out


def decide_batch(dmats, ends, theta: float) -> np.ndarray:
    """Per pair of the stack: is ``DFD <= theta``?  ``(B,)`` bool."""
    dmats, ends = _check_stack(dmats, ends)
    return _decide(dmats, ends, float(theta))


def dfd_batch(dmats, ends) -> np.ndarray:
    """Exact DFD of every pair of the stack, ``(B,)`` float64.

    :func:`~repro.distances.frechet.dfd_matrix`'s recurrence
    ``D[i, j] = max(c[i, j], min(D[i-1, j-1], D[i-1, j], D[i, j-1]))``
    evaluated as an anti-diagonal wavefront: every cell of diagonal
    ``d = i + j`` depends only on diagonals ``d - 1`` and ``d - 2``, so
    a whole diagonal of all ``B`` pairs is three NumPy calls.  The
    stack is first gathered in (diagonal, row) order into one
    ``(N*M, B)`` array, so each diagonal is a contiguous slice.
    Diagonals are kept indexed by row, shifted by one so that row
    ``-1`` (and every cell off a diagonal's own range) reads ``inf``.
    A pair's value is read when the wavefront reaches its own last
    cell.
    """
    dmats, ends = _check_stack(dmats, ends)
    started = time.perf_counter()
    count, n_rows, n_cols = dmats.shape
    out = np.empty(count)
    last = ends.sum(axis=1)
    n_diags = int(last.max(initial=-1)) + 1
    finish: Dict[int, List[int]] = {}
    for b, d in enumerate(last.tolist()):
        finish.setdefault(d, []).append(b)
    # Cells in (diagonal, row) order: a stable sort of the flat (row-
    # major) cell indices by diagonal keeps rows ascending within one.
    diagonal = np.add.outer(np.arange(n_rows), np.arange(n_cols)).ravel()
    order = np.argsort(diagonal, kind="stable")
    at = np.searchsorted(diagonal[order], np.arange(n_diags + 1)).tolist()
    skew = dmats.reshape(count, n_rows * n_cols).T[order]
    # Three rotating diagonals; a buffer is only ever written inside its
    # diagonal's row range, so the rows read as "off the diagonal" were
    # never written and still hold inf.
    diags = np.full((3, n_rows + 1, count), np.inf)
    best = np.empty((n_rows, count))
    for d in range(n_diags):
        new, prev, prev2 = diags[d % 3], diags[(d - 1) % 3], diags[(d - 2) % 3]
        lo, hi = max(0, d - n_cols + 1), min(d, n_rows - 1) + 1
        if d:
            tmp = best[: hi - lo]
            np.minimum(prev2[lo:hi], prev[lo:hi], out=tmp)
            np.minimum(tmp, prev[lo + 1 : hi + 1], out=tmp)
            np.maximum(skew[at[d] : at[d + 1]], tmp, out=new[lo + 1 : hi + 1])
        else:
            new[1] = skew[0]
        done = finish.get(d)
        if done:
            out[done] = new[ends[done, 0] + 1, done]
    _observe("dfd_batch", started, count)
    return out


def _stack_slices(left, right, cells: int):
    """Consecutive ``[lo, hi)`` runs whose padded stacks fit ``cells``."""
    lo, n_max, m_max = 0, 0, 0
    for k in range(len(left)):
        n, m = max(n_max, len(left[k])), max(m_max, len(right[k]))
        if k > lo and (k - lo + 1) * n * m > cells:
            yield lo, k
            lo, n, m = k, len(left[k]), len(right[k])
        n_max, m_max = n, m
    if lo < len(left):
        yield lo, len(left)


def dfd_pairs(metric, left: Sequence[np.ndarray],
              right: Sequence[np.ndarray]) -> np.ndarray:
    """Exact DFD of every ``(left[k], right[k])`` point-array pair.

    Ground matrices come from ``metric.pairwise`` -- the same values
    the scalar path computes -- and are settled in consecutive stacks
    of at most :data:`DFD_CELLS` padded cells per :func:`dfd_batch`
    call (a single pair larger than that gets a stack of its own).
    """
    out = np.empty(len(left))
    for lo, hi in _stack_slices(left, right, DFD_CELLS):
        out[lo:hi] = dfd_batch(*pad_stack([
            metric.pairwise(left[k], right[k]) for k in range(lo, hi)
        ]))
    return out


def verify_batch(
    mats: Sequence[np.ndarray], theta: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The join's verify stage over one block of ground matrices.

    Returns ``(match, upper)`` bool arrays: ``match[b]`` iff
    ``DFD <= theta``, ``upper[b]`` iff the pair was accepted by its
    diagonal coupling (an upper bound on its DFD) without the DP.
    Only the remaining pairs go through :func:`decide_batch`'s sweep.
    """
    dmats, ends = _check_stack(*pad_stack(mats))
    theta = float(theta)
    upper = _diagonal_bound(dmats, ends) <= theta
    rest = np.flatnonzero(~upper)
    match = upper | _decide(dmats, ends, theta, rest) if len(rest) else upper
    accepted = len(upper) - len(rest)
    if accepted:
        _KERNEL_PAIRS.labels("upper_accept").inc(accepted)
    return match, upper
