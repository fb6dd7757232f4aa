"""Unit tests for the Trajectory / Subtrajectory data model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrajectoryError
from repro.trajectory import Subtrajectory, Trajectory


def make(n=10, d=2, crs="plane"):
    pts = np.arange(n * d, dtype=float).reshape(n, d)
    return Trajectory(pts, crs=crs)


class TestConstruction:
    def test_basic(self):
        t = make(5)
        assert t.n == len(t) == 5
        assert t.dimensions == 2
        assert t.crs == "plane"

    def test_default_timestamps(self):
        t = make(4)
        assert np.array_equal(t.timestamps, [0, 1, 2, 3])

    def test_custom_timestamps(self):
        t = Trajectory([[0, 0], [1, 1]], [10.0, 20.5])
        assert t.duration == 10.5

    def test_three_dimensional_points(self):
        t = Trajectory(np.zeros((3, 3)) + np.arange(3)[:, None])
        assert t.dimensions == 3

    def test_points_are_read_only(self):
        t = make(3)
        with pytest.raises(ValueError):
            t.points[0, 0] = 99.0

    def test_timestamps_read_only(self):
        t = make(3)
        with pytest.raises(ValueError):
            t.timestamps[0] = -1.0

    def test_id_carried(self):
        t = Trajectory([[0, 0], [1, 1]], trajectory_id="abc")
        assert t.trajectory_id == "abc"
        assert "abc" in repr(t)

    def test_with_id(self):
        t = make(3).with_id("renamed")
        assert t.trajectory_id == "renamed"

    def test_with_timestamps(self):
        t = make(3).with_timestamps([5.0, 6.0, 9.0])
        assert t.duration == 4.0


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(TrajectoryError):
            Trajectory(np.empty((0, 2)))

    def test_rejects_1d(self):
        with pytest.raises(TrajectoryError):
            Trajectory(np.arange(4.0))

    def test_rejects_single_coordinate(self):
        with pytest.raises(TrajectoryError):
            Trajectory(np.zeros((4, 1)))

    def test_rejects_nan(self):
        pts = np.zeros((3, 2))
        pts[1, 0] = np.nan
        with pytest.raises(TrajectoryError):
            Trajectory(pts)

    def test_rejects_inf(self):
        pts = np.zeros((3, 2))
        pts[2, 1] = np.inf
        with pytest.raises(TrajectoryError):
            Trajectory(pts)

    def test_rejects_descending_timestamps(self):
        with pytest.raises(TrajectoryError):
            Trajectory([[0, 0], [1, 1]], [2.0, 1.0])

    def test_rejects_duplicate_timestamps(self):
        with pytest.raises(TrajectoryError):
            Trajectory([[0, 0], [1, 1]], [1.0, 1.0])

    def test_rejects_wrong_timestamp_length(self):
        with pytest.raises(TrajectoryError):
            Trajectory([[0, 0], [1, 1]], [0.0, 1.0, 2.0])

    def test_rejects_unknown_crs(self):
        with pytest.raises(TrajectoryError):
            Trajectory([[0, 0], [1, 1]], crs="mars")

    def test_rejects_nan_timestamps(self):
        with pytest.raises(TrajectoryError):
            Trajectory([[0, 0], [1, 1]], [0.0, np.nan])


class TestIndexing:
    def test_point_access(self):
        t = make(5)
        assert np.array_equal(t[2], [4.0, 5.0])

    def test_slice_returns_trajectory(self):
        t = make(10)
        s = t[2:6]
        assert isinstance(s, Trajectory)
        assert s.n == 4
        assert np.array_equal(s.points[0], t.points[2])
        assert np.array_equal(s.timestamps, t.timestamps[2:6])

    def test_slice_step_rejected(self):
        with pytest.raises(TrajectoryError):
            make(10)[0:8:2]

    def test_empty_slice_rejected(self):
        with pytest.raises(TrajectoryError):
            make(10)[5:5]

    def test_iteration(self):
        assert len(list(make(7))) == 7

    def test_equality_and_hash(self):
        a, b = make(5), make(5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != make(6)
        assert a != Trajectory(make(5).points, crs="latlon")

    def test_equality_other_type(self):
        assert make(3) != "not a trajectory"


class TestSubtrajectory:
    def test_view_basics(self, small_walk):
        v = small_walk.subtrajectory(3, 9)
        assert v.start == 3 and v.end == 9
        assert v.n == len(v) == 7
        assert np.array_equal(v.points, small_walk.points[3:10])
        assert v.crs == small_walk.crs

    def test_time_interval(self, small_walk):
        v = small_walk.subtrajectory(0, 5)
        assert v.time_interval == (0.0, 5.0)
        assert v.duration == 5.0

    def test_invalid_ranges(self, small_walk):
        n = small_walk.n
        for start, end in [(-1, 3), (3, 3), (5, 2), (0, n)]:
            with pytest.raises(TrajectoryError):
                small_walk.subtrajectory(start, end)

    def test_to_trajectory(self, small_walk):
        v = small_walk.subtrajectory(2, 8)
        t = v.to_trajectory()
        assert isinstance(t, Trajectory)
        assert t.n == 7
        assert np.array_equal(t.points, v.points)

    def test_overlap_detection(self, small_walk):
        a = small_walk.subtrajectory(0, 5)
        b = small_walk.subtrajectory(5, 9)
        c = small_walk.subtrajectory(6, 9)
        assert a.overlaps(b)
        assert not a.overlaps(c)
        assert b.overlaps(c)

    def test_overlap_different_parent(self, small_walk, medium_walk):
        a = small_walk.subtrajectory(0, 5)
        b = medium_walk.subtrajectory(0, 5)
        assert not a.overlaps(b)

    def test_containment(self, small_walk):
        outer = small_walk.subtrajectory(2, 10)
        inner = small_walk.subtrajectory(3, 9)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert outer.contains(outer)

    def test_equality(self, small_walk):
        assert small_walk.subtrajectory(1, 4) == small_walk.subtrajectory(1, 4)
        assert small_walk.subtrajectory(1, 4) != small_walk.subtrajectory(1, 5)
        assert hash(small_walk.subtrajectory(1, 4)) == hash(
            small_walk.subtrajectory(1, 4)
        )

    def test_repr(self, small_walk):
        assert "[3..9]" in repr(small_walk.subtrajectory(3, 9))

    def test_direct_constructor_validates(self, small_walk):
        with pytest.raises(TrajectoryError):
            Subtrajectory(small_walk, 5, 5)


class TestOwnership:
    """A trajectory's buffers cannot change, so its fingerprint is kept."""

    def test_caller_array_stays_writable_and_detached(self):
        a = np.arange(6.0).reshape(3, 2)
        t = Trajectory(a)
        assert a.flags.writeable
        a[0, 0] = 99.0
        assert t.points[0, 0] == 0.0
        assert not t.points.flags.writeable

    def test_view_of_writable_buffer_is_copied(self):
        b = np.arange(6.0).reshape(3, 2)
        t = Trajectory(b[:])
        b[1, 1] = 42.0
        assert t.points[1, 1] == 3.0
        view = b[:]
        view.setflags(write=False)  # read-only view, writable base
        u = Trajectory(view)
        b[0, 0] = -1.0
        assert u.points[0, 0] == 0.0

    def test_timestamps_are_owned_too(self):
        ts = np.array([0.0, 1.0, 2.0])
        t = Trajectory(np.zeros((3, 2)), ts)
        ts[0] = -5.0
        assert ts.flags.writeable
        assert t.timestamps[0] == 0.0

    def test_read_only_input_is_shared(self, tmp_path):
        t = make(6)
        assert Trajectory(t.points).points is t.points
        assert np.shares_memory(t[1:4].points, t.points)
        path = tmp_path / "pts.f8"
        np.arange(12.0).tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r", shape=(6, 2))
        assert np.shares_memory(Trajectory(mapped[1:5]).points, mapped)

    def test_cached_fingerprint_equals_a_fresh_one(self):
        from repro.engine.cache import fingerprint_array

        a = np.arange(8.0).reshape(4, 2)
        t = Trajectory(a[:])
        first = t.fingerprint
        a[:] = 0.0
        assert t.fingerprint is first
        assert first == fingerprint_array(t.points)
        assert first == fingerprint_array(np.arange(8.0).reshape(4, 2))

    def test_hash_follows_equality(self):
        a = np.arange(8.0).reshape(4, 2)
        assert hash(Trajectory(a)) == hash(Trajectory(a.copy()))
        assert hash(Trajectory(a)) != hash(Trajectory(a, crs="latlon"))
        assert len({Trajectory(a), Trajectory(a.tolist()), make(4)}) == 1

    def test_hash_agrees_with_equality_on_signed_zeros(self):
        from repro.trajectory.trajectory import fingerprint_array

        pos = Trajectory([[0.0, 0.0], [1.0, 1.0]])
        neg = Trajectory([[-0.0, 0.0], [1.0, 1.0]])
        assert pos == neg
        assert hash(pos) == hash(neg)
        assert len({pos, neg}) == 1
        assert fingerprint_array(np.array([-0.0, 2.0])) == (
            fingerprint_array(np.array([0.0, 2.0]))
        )

    def test_pickle_roundtrip_stays_immutable(self):
        import pickle

        t = Trajectory(np.arange(8.0).reshape(4, 2), trajectory_id="x")
        u = pickle.loads(pickle.dumps(t))
        assert u == t and u.trajectory_id == "x"
        assert not u.points.flags.writeable
        assert not u.timestamps.flags.writeable
        assert u.fingerprint == t.fingerprint
