"""Core trajectory data model.

A :class:`Trajectory` is an immutable sequence of spatial points with
strictly ascending timestamps, mirroring Definition 1 of the paper: a
spatial trajectory ``S = <s_0, ..., s_{n-1}>`` together with a timestamp
sequence ``T(S)``.  Timestamps may be non-uniformly spaced -- this is one
of the two real-data characteristics (non-uniform sampling rate, missing
samples) that motivate the discrete Frechet distance.

Points are stored as a read-only ``(n, d)`` float64 array that no
other array can write: input that some view could still change is
copied on construction (:func:`_immutable`).  That is what lets a
trajectory compute its content :attr:`~Trajectory.fingerprint` once
and keep it.  For
geographic data (``crs="latlon"``) column 0 is latitude and column 1 is
longitude, in degrees; the matching ground metric is the great-circle
(haversine) distance.  For planar data (``crs="plane"``) coordinates are
Cartesian and the matching ground metric is Euclidean.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ..errors import TrajectoryError

#: Recognised coordinate reference systems.
CRS_LATLON = "latlon"
CRS_PLANE = "plane"
_VALID_CRS = (CRS_LATLON, CRS_PLANE)

ArrayLike = Union[np.ndarray, Sequence[Sequence[float]]]


def fingerprint_array(arr: np.ndarray) -> str:
    """Stable content hash of an ndarray (shape, dtype and bytes).

    Interned: a corpus' fingerprints sit in every cache key built over
    it, and re-fingerprinting the same corpus per request would
    otherwise make each cached key hold its own copy of every string.

    Negative zeros hash as positive zeros, so arrays that compare equal
    element-wise get equal fingerprints (what :meth:`Trajectory.__hash__`
    needs to agree with ``__eq__``).  Arrays without a ``-0.0`` hash
    their bytes unchanged.
    """
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind == "f" and np.count_nonzero(arr) < arr.size:
        arr = arr + 0.0  # -0.0 + 0.0 == +0.0; every other value is kept
    digest = hashlib.sha1()
    digest.update(repr(arr.shape).encode())
    digest.update(str(arr.dtype).encode())
    digest.update(arr.tobytes())
    return sys.intern(digest.hexdigest())


def _immutable(arr: np.ndarray) -> np.ndarray:
    """``arr`` if no array can write its buffer, else a read-only copy.

    Input that is read-only down its whole chain of array bases (a
    snapshot memmap, another trajectory's points) is shared as is.
    Anything else -- a caller's array, or a read-only view of a
    writable one -- is copied, so no later write through another view
    can change a trajectory or invalidate its cached fingerprint.  The
    caller's array itself is never modified.
    """
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            arr = arr.copy()
            break
        base = base.base
    arr.setflags(write=False)
    return arr


def validate_points(points: ArrayLike) -> np.ndarray:
    """``points`` as a float64 ``(n, d)`` array, or a :class:`TrajectoryError`.

    Checks a 2-D shape, at least one row, at least two coordinates per
    row and finite values.  Trajectories run it on construction; the
    corpus workloads (joins and the corpus index) run it on raw arrays
    too, so every join path rejects the same input with the same error.
    The array is not copied.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise TrajectoryError(
            f"points must be a 2-D array of shape (n, d); got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise TrajectoryError("a trajectory needs at least one point")
    if arr.shape[1] < 2:
        raise TrajectoryError(
            f"points need at least 2 coordinates per row; got {arr.shape[1]}"
        )
    if not np.isfinite(arr).all():
        raise TrajectoryError("points contain NaN or infinite coordinates")
    return arr


def _as_point_array(points: ArrayLike) -> np.ndarray:
    """Validate and normalise a point sequence into an immutable ``(n, d)`` array."""
    return _immutable(validate_points(points))


def _as_timestamp_array(timestamps: ArrayLike, n: int) -> np.ndarray:
    """Validate timestamps: length ``n``, finite, strictly ascending."""
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.ndim != 1 or ts.shape[0] != n:
        raise TrajectoryError(
            f"timestamps must be a 1-D array of length {n}; got shape {ts.shape}"
        )
    ts = _immutable(ts)
    if not np.isfinite(ts).all():
        raise TrajectoryError("timestamps contain NaN or infinite values")
    if n > 1 and not (np.diff(ts) > 0).all():
        raise TrajectoryError("timestamps must be strictly ascending")
    return ts


class Trajectory:
    """An immutable spatial trajectory (points + ascending timestamps).

    Parameters
    ----------
    points:
        ``(n, d)`` array-like of coordinates, ``d >= 2``.
    timestamps:
        Optional ``(n,)`` array-like of strictly ascending timestamps
        (seconds).  Defaults to ``0, 1, ..., n-1``.
    crs:
        ``"latlon"`` (degrees; haversine ground distance) or ``"plane"``
        (Cartesian; Euclidean ground distance).
    trajectory_id:
        Optional identifier carried through slicing and I/O.
    """

    __slots__ = ("_points", "_timestamps", "_crs", "_id", "_fingerprint")

    def __init__(
        self,
        points: ArrayLike,
        timestamps: Optional[ArrayLike] = None,
        crs: str = CRS_PLANE,
        trajectory_id: Optional[str] = None,
    ) -> None:
        if crs not in _VALID_CRS:
            raise TrajectoryError(f"unknown crs {crs!r}; expected one of {_VALID_CRS}")
        pts = _as_point_array(points)
        if timestamps is None:
            ts = np.arange(pts.shape[0], dtype=np.float64)
            ts.setflags(write=False)
        else:
            ts = _as_timestamp_array(timestamps, pts.shape[0])
        self._points = pts
        self._timestamps = ts
        self._crs = crs
        self._id = trajectory_id
        self._fingerprint = None

    def __reduce__(self):
        # Through the constructor: unpickled arrays are writable, and
        # the fingerprint is recomputed on first use.
        return (
            Trajectory,
            (self._points, self._timestamps, self._crs, self._id),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """Read-only ``(n, d)`` coordinate array."""
        return self._points

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only ``(n,)`` timestamp array (seconds)."""
        return self._timestamps

    @property
    def crs(self) -> str:
        """Coordinate reference system: ``"latlon"`` or ``"plane"``."""
        return self._crs

    @property
    def trajectory_id(self) -> Optional[str]:
        """Optional identifier (e.g. source file name)."""
        return self._id

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the points, computed once.

        :func:`fingerprint_array` of :attr:`points` -- the same key a raw
        array of equal points gets.  Cached because the point buffer can
        never change (see :func:`_immutable`).
        """
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = fingerprint_array(self._points)
        return fp

    @property
    def n(self) -> int:
        """Number of points (the paper's ``n = |S|``)."""
        return self._points.shape[0]

    @property
    def dimensions(self) -> int:
        """Number of coordinates per point."""
        return self._points.shape[1]

    @property
    def duration(self) -> float:
        """Elapsed time between the first and last sample."""
        return float(self._timestamps[-1] - self._timestamps[0])

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._points)

    def __getitem__(self, index):
        """``traj[i]`` -> point; ``traj[i:j]`` -> sliced :class:`Trajectory`."""
        if isinstance(index, slice):
            start, stop, step = index.indices(self.n)
            if step != 1:
                raise TrajectoryError("trajectory slices must be contiguous (step 1)")
            if stop <= start:
                raise TrajectoryError("empty trajectory slice")
            return Trajectory(
                self._points[start:stop],
                self._timestamps[start:stop],
                crs=self._crs,
                trajectory_id=self._id,
            )
        return self._points[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self._crs == other._crs
            and self._points.shape == other._points.shape
            and bool(np.array_equal(self._points, other._points))
            and bool(np.array_equal(self._timestamps, other._timestamps))
        )

    def __hash__(self) -> int:
        return hash((self._crs, self.fingerprint))

    def __repr__(self) -> str:
        ident = f" id={self._id!r}" if self._id else ""
        return (
            f"Trajectory(n={self.n}, d={self.dimensions}, crs={self._crs!r}{ident})"
        )

    # ------------------------------------------------------------------
    # Subtrajectories
    # ------------------------------------------------------------------
    def subtrajectory(self, start: int, end: int) -> "Subtrajectory":
        """Return the subtrajectory ``S[start..end]`` (both ends inclusive).

        Mirrors the paper's ``S_{i,ie}`` notation with
        ``0 <= start < end <= n - 1``.
        """
        if not 0 <= start < end <= self.n - 1:
            raise TrajectoryError(
                f"invalid subtrajectory range [{start}, {end}] for n={self.n}"
            )
        return Subtrajectory(self, start, end)

    def with_timestamps(self, timestamps: ArrayLike) -> "Trajectory":
        """Return a copy with new timestamps (same points)."""
        return Trajectory(
            self._points, timestamps, crs=self._crs, trajectory_id=self._id
        )

    def with_id(self, trajectory_id: str) -> "Trajectory":
        """Return a copy with a different identifier."""
        return Trajectory(
            self._points,
            self._timestamps,
            crs=self._crs,
            trajectory_id=trajectory_id,
        )


class Subtrajectory:
    """A contiguous, inclusive-range view ``S[i..ie]`` into a trajectory.

    The view keeps a reference to its parent so motif results can report
    both absolute indices and timestamps.  It quacks like a trajectory
    for read access (``points``, ``timestamps``, ``len``).
    """

    __slots__ = ("_parent", "_start", "_end")

    def __init__(self, parent: Trajectory, start: int, end: int) -> None:
        if not 0 <= start < end <= parent.n - 1:
            raise TrajectoryError(
                f"invalid subtrajectory range [{start}, {end}] for n={parent.n}"
            )
        self._parent = parent
        self._start = int(start)
        self._end = int(end)

    @property
    def parent(self) -> Trajectory:
        """The trajectory this view was taken from."""
        return self._parent

    @property
    def start(self) -> int:
        """Index of the first point (the paper's ``i``)."""
        return self._start

    @property
    def end(self) -> int:
        """Index of the last point, inclusive (the paper's ``ie``)."""
        return self._end

    @property
    def points(self) -> np.ndarray:
        """Coordinate view of shape ``(end - start + 1, d)``."""
        return self._parent.points[self._start : self._end + 1]

    @property
    def timestamps(self) -> np.ndarray:
        """Timestamp view of shape ``(end - start + 1,)``."""
        return self._parent.timestamps[self._start : self._end + 1]

    @property
    def crs(self) -> str:
        return self._parent.crs

    @property
    def n(self) -> int:
        return self._end - self._start + 1

    @property
    def duration(self) -> float:
        """Elapsed time covered by the view."""
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def time_interval(self) -> tuple:
        """``(t_start, t_end)`` timestamps of the view."""
        return (float(self.timestamps[0]), float(self.timestamps[-1]))

    def __len__(self) -> int:
        return self.n

    def to_trajectory(self) -> Trajectory:
        """Materialise the view as an independent :class:`Trajectory`."""
        return Trajectory(
            self.points,
            self.timestamps,
            crs=self._parent.crs,
            trajectory_id=self._parent.trajectory_id,
        )

    def overlaps(self, other: "Subtrajectory") -> bool:
        """True when the two views share any index of the same parent."""
        if self._parent is not other._parent:
            return False
        return self._start <= other._end and other._start <= self._end

    def contains(self, other: "Subtrajectory") -> bool:
        """Containment per the paper's Definition 2 (``other ⊆ self``)."""
        if self._parent is not other._parent:
            return False
        return self._start <= other._start and other._end <= self._end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subtrajectory):
            return NotImplemented
        return (
            self._parent is other._parent
            and self._start == other._start
            and self._end == other._end
        )

    def __hash__(self) -> int:
        return hash((id(self._parent), self._start, self._end))

    def __repr__(self) -> str:
        return f"Subtrajectory([{self._start}..{self._end}] of n={self._parent.n})"
