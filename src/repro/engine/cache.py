"""Content-addressed caches backing the :class:`~repro.engine.MotifEngine`.

Ground matrices, bound tables and motif results are pure functions of
their inputs (points, metric, query geometry), so the engine keys them
by a content *fingerprint* -- a SHA-1 over the raw point bytes plus
shape/dtype -- rather than by object identity.  Two `Trajectory`
objects wrapping equal coordinates therefore share one cache entry,
which is what makes repeated discover/top-k/join calls on a serving
corpus stop recomputing ``dG``.

All caches are bounded LRU maps guarded by a lock (the engine itself
is synchronous, but callers may share one engine across threads).
``maxsize=0`` disables a cache entirely -- the benchmark harness uses
that to keep per-figure timings honest.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

import numpy as np

from ..trajectory.trajectory import Trajectory, fingerprint_array


def fingerprint_points(obj) -> str:
    """Fingerprint a Trajectory / raw point array by its coordinates.

    A :class:`Trajectory` hands back the fingerprint it computed once
    (its points are immutable); raw arrays and subtrajectory views are
    hashed on every call.  Both give equal points the same key.
    """
    if isinstance(obj, Trajectory):
        return obj.fingerprint
    points = getattr(obj, "points", obj)
    return fingerprint_array(np.asarray(points, dtype=np.float64))


def metric_key(metric) -> Hashable:
    """Cache-key component identifying a ground metric.

    Combines the registry name with the class identity and ``repr`` so
    differently-parameterised custom metrics that share a name do not
    alias (stock metrics all have parameter-free reprs).
    """
    cls = type(metric)
    return (cls.__module__, cls.__qualname__, metric.name, repr(metric))


class LRUCache:
    """A small thread-safe LRU map with hit/miss accounting."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or None; counts a hit or a miss."""
        if not self.enabled:
            return None
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def get_or_build(self, key: Hashable, builder):
        """Cached value for ``key``, building (and storing) on a miss."""
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }
