"""Discrete Frechet distance (DFD).

The DFD between point sequences ``P`` and ``Q`` is the minimum over all
monotone couplings of the maximum ground distance of a coupled pair --
the "dog leash" length when person and dog may only pause, never move
backwards (Eiter & Mannila 1994; paper Section 3).

Observation 1 of the paper recasts the recurrence as a path problem: the
DFD equals the min-max weight over monotone staircase paths from cell
``(0, 0)`` to cell ``(n-1, m-1)`` of the ground distance matrix.  All
implementations here work on that matrix:

* :func:`dfd_matrix` -- row-scan dynamic program keeping two rows of
  memory (idea (ii) of GTM*, Section 5.5), the single-pair workhorse;
* :func:`dfd_matrix_recursive` -- memoised literal recurrence, used as a
  correctness oracle in tests;
* :func:`dfd_decision` -- vectorised reachability test ``DFD <= eps``;
* :func:`dfd_matrix_by_search` -- binary search on the sorted matrix
  values using :func:`dfd_decision` (the DFD always equals some ground
  distance).

:func:`discrete_frechet` is the public convenience entry point taking
raw point arrays.  Many-pair workloads use the stacked variants in
:mod:`repro.distances.kernels`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import TrajectoryError
from .ground import GroundMetric, cross_ground_matrix


def _check_matrix(dmat: np.ndarray) -> np.ndarray:
    dmat = np.asarray(dmat, dtype=np.float64)
    if dmat.ndim != 2 or dmat.shape[0] == 0 or dmat.shape[1] == 0:
        raise TrajectoryError(f"distance matrix must be 2-D and non-empty; got {dmat.shape}")
    if not np.isfinite(dmat).all():
        raise TrajectoryError("ground distances contain NaN or inf")
    return dmat


def dfd_matrix(dmat: np.ndarray) -> float:
    """DFD of the full matrix via the standard O(nm) dynamic program."""
    dmat = _check_matrix(dmat)
    n, m = dmat.shape
    prev = np.maximum.accumulate(dmat[0])
    for i in range(1, n):
        row = dmat[i]
        cur = np.empty(m)
        cur[0] = max(row[0], prev[0])
        for j in range(1, m):
            best_prev = min(prev[j - 1], prev[j], cur[j - 1])
            cur[j] = row[j] if row[j] > best_prev else best_prev
        prev = cur
    return float(prev[-1])


def dfd_matrix_recursive(dmat: np.ndarray) -> float:
    """Literal paper recurrence with memoisation (test oracle, small inputs).

    Evaluated with an explicit work stack so arbitrarily long inputs do
    not touch the interpreter recursion limit.
    """
    dmat = _check_matrix(dmat)
    n, m = dmat.shape
    if n * m > 250_000:
        raise TrajectoryError("recursive DFD oracle is limited to small matrices")
    memo = {(0, 0): float(dmat[0, 0])}
    stack = [(n - 1, m - 1)]
    while stack:
        ie, je = stack[-1]
        if (ie, je) in memo:
            stack.pop()
            continue
        if ie == 0:
            deps = [(0, je - 1)]
        elif je == 0:
            deps = [(ie - 1, 0)]
        else:
            deps = [(ie - 1, je), (ie, je - 1), (ie - 1, je - 1)]
        missing = [d for d in deps if d not in memo]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        memo[(ie, je)] = max(float(dmat[ie, je]), min(memo[d] for d in deps))
    return memo[(n - 1, m - 1)]


def dfd_decision(dmat: np.ndarray, eps: float) -> bool:
    """Vectorised decision: is ``DFD(dmat) <= eps``?

    Runs a boolean reachability sweep over rows.  Within one row the
    recurrence ``reach[j] = free[j] and (from_above[j] or reach[j-1])``
    is resolved without a Python inner loop using a cumulative-count
    trick over maximal runs of free cells.
    """
    dmat = _check_matrix(dmat)
    n, m = dmat.shape
    free = dmat <= eps
    if not free[0, 0] or not free[n - 1, m - 1]:
        return False
    idx = np.arange(m)
    # First row: reachable prefix of free cells.
    blocked = np.flatnonzero(~free[0])
    first_block = blocked[0] if blocked.size else m
    reach = idx < first_block
    for i in range(1, n):
        row_free = free[i]
        # from_above[j]: the path can step down into (i, j) from row i-1,
        # either vertically (reach[j]) or diagonally (reach[j-1]).
        from_above = reach.copy()
        from_above[1:] |= reach[:-1]
        entry = row_free & from_above
        # reach[j] = row_free[j] and (entry at some k <= j with
        # row_free[k..j] all true).  last_block[j] = last index <= j
        # where row_free is false; an entry strictly after it unlocks j.
        last_block = np.maximum.accumulate(np.where(~row_free, idx, -1))
        centry = np.cumsum(entry)
        base = np.where(last_block >= 0, centry[np.maximum(last_block, 0)], 0)
        reach = row_free & ((centry - base) > 0)
        if not reach.any():
            return False
    return bool(reach[m - 1])


def dfd_matrix_by_search(dmat: np.ndarray) -> float:
    """Exact DFD via binary search over the matrix values.

    The DFD always equals one of the ground distances along the optimal
    path, so a binary search over the sorted unique values combined with
    :func:`dfd_decision` yields the exact answer in
    ``O(nm log(nm))`` with fully vectorised passes.
    """
    dmat = _check_matrix(dmat)
    lo_bound = max(float(dmat[0, 0]), float(dmat[-1, -1]))
    values = np.unique(dmat[dmat >= lo_bound])
    if values.size == 0:
        values = np.unique(dmat)
    lo, hi = 0, values.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if dfd_decision(dmat, float(values[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def discrete_frechet(
    p: np.ndarray,
    q: np.ndarray,
    metric: Union[str, GroundMetric] = "euclidean",
) -> float:
    """Discrete Frechet distance between two point sequences.

    Parameters
    ----------
    p, q:
        ``(n, d)`` and ``(m, d)`` coordinate arrays (or objects exposing
        ``.points`` such as :class:`~repro.trajectory.Trajectory`).
    metric:
        Ground metric name or instance (``"euclidean"``, ``"haversine"``,
        ...).
    """
    p = getattr(p, "points", p)
    q = getattr(q, "points", q)
    return dfd_matrix(cross_ground_matrix(p, q, metric))


def frechet_path(dmat: np.ndarray):
    """Return ``(dfd, path)`` where ``path`` is one optimal coupling.

    The path is a list of ``(i, j)`` index pairs from ``(0, 0)`` to
    ``(n-1, m-1)`` realising the min-max value, reconstructed greedily
    from the full DP table.  Intended for visualisation and tests, not
    for the hot loop.
    """
    dmat = _check_matrix(dmat)
    n, m = dmat.shape
    table = np.empty_like(dmat)
    table[0] = np.maximum.accumulate(dmat[0])
    for i in range(1, n):
        table[i, 0] = max(dmat[i, 0], table[i - 1, 0])
        for j in range(1, m):
            best_prev = min(table[i - 1, j - 1], table[i - 1, j], table[i, j - 1])
            table[i, j] = max(dmat[i, j], best_prev)
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        options = []
        if i > 0 and j > 0:
            options.append((table[i - 1, j - 1], (i - 1, j - 1)))
        if i > 0:
            options.append((table[i - 1, j], (i - 1, j)))
        if j > 0:
            options.append((table[i, j - 1], (i, j - 1)))
        _, (i, j) = min(options, key=lambda t: t[0])
        path.append((i, j))
    path.reverse()
    return float(table[n - 1, m - 1]), path
