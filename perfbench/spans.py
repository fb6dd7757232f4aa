"""Layer spans for the traced run, recorded from outside the program.

:func:`install` replaces the public functions of each layer with timing
wrappers.  Module-level functions are replaced in every loaded
``repro`` module that bound them (callers use ``from ... import``, so
``repro.extensions.join.dfd_decision`` is a name of its own); methods
are replaced on their class.  Install before any engine pool or fleet
worker forks: children inherit the wrappers.

Each record is ``[name, start, end, self_seconds, count]``.  Self time
is the span's duration minus the durations of the spans it directly
encloses on the same thread.  Records stay in memory and are appended
to ``spans-<pid>.jsonl`` in the sink directory at the end of each pool
task, each service request, when the buffer fills, and by
:func:`flush` when the benchmark ends; :func:`load` merges every
process's file.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

_FLUSH_AT = 2048

_sink_dir: Optional[Path] = None
_buf: List[list] = []
_lock = threading.Lock()
_local = threading.local()
_restore: List[tuple] = []


def _after_fork_in_child() -> None:
    # Records the parent had not flushed belong to the parent; a stack
    # inherited from the forking thread is not this process's nesting.
    global _buf, _lock, _local
    _buf = []
    _lock = threading.Lock()
    _local = threading.local()


os.register_at_fork(after_in_child=_after_fork_in_child)


def flush() -> None:
    global _buf
    if _sink_dir is None:
        return
    with _lock:
        records, _buf = _buf, []
    if not records:
        return
    path = _sink_dir / f"spans-{os.getpid()}.jsonl"
    with open(path, "a") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))


def count(name: str) -> None:
    now = time.perf_counter()
    _buf.append([name, now, now, 0.0, 1])


def _wrap(name: str, fn, flush_after: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            enclosed = stack.pop()
            if stack:
                stack[-1] += end - start
            _buf.append([name, start, end, end - start - enclosed, 1])
            if not stack and (flush_after or len(_buf) >= _FLUSH_AT):
                flush()
    return wrapper


def _count_result_lookups(fn):
    """Count result-cache hits and misses of ``OracleManager.result``."""
    @functools.wraps(fn)
    def wrapper(self, key):
        out = fn(self, key)
        if key is not None:
            count("engine.result_cache.hit" if out is not None
                  else "engine.result_cache.miss")
        return out
    return wrapper


def _patch(owner, attr: str, new) -> None:
    original = vars(owner)[attr]
    setattr(owner, attr, new)
    _restore.append((owner, attr, original))


def _span_function(module_name: str, attr: str, name: str,
                   flush_after: bool = False) -> None:
    """Wrap a function under every ``repro`` module name bound to it."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = _wrap(name, original, flush_after)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                _patch(module, key, wrapped)


def _span_method(cls, attr: str, name: str, flush_after: bool = False) -> None:
    raw = vars(cls)[attr]
    if isinstance(raw, classmethod):
        _patch(cls, attr, classmethod(_wrap(name, raw.__func__, flush_after)))
    else:
        _patch(cls, attr, _wrap(name, raw, flush_after))


def install(sink_dir) -> None:
    """Wrap every layer's public functions; spans go under ``sink_dir``."""
    global _sink_dir
    if _restore:
        raise RuntimeError("spans are already installed")
    _sink_dir = Path(sink_dir)
    _sink_dir.mkdir(parents=True, exist_ok=True)

    # Import every module that binds a wrapped name before scanning.
    import repro.engine.corpus  # noqa: F401
    import repro.extensions.clustering  # noqa: F401
    import repro.extensions.join  # noqa: F401
    import repro.extensions.streaming  # noqa: F401
    import repro.service  # noqa: F401
    import repro.store  # noqa: F401
    from repro.core.brute import BruteDP
    from repro.core.btm import BTM
    from repro.core.gtm import GTM
    from repro.core.gtm_star import GTMStar
    from repro.distances.ground import (
        ChebyshevMetric, EuclideanMetric, HaversineMetric,
    )
    from repro.engine.engine import MotifEngine
    from repro.engine.executor import EngineExecutor
    from repro.engine.oracles import OracleManager
    from repro.index.index import CorpusIndex
    from repro.index.tree import TrajectoryTree
    from repro.service.service import MotifService

    _span_function("repro.distances.frechet", "dfd_decision",
                   "distances.dfd_decision")
    _span_function("repro.distances.frechet", "dfd_matrix",
                   "distances.dfd_matrix")
    _span_function("repro.engine.planner", "corpus_fingerprint",
                   "engine.fingerprint")
    _span_function("repro.store.snapshot", "save_snapshot", "store.save")
    _span_function("repro.store.snapshot", "load_snapshot", "store.load")
    # Every pool dispatch runs through worker.run_task in the child;
    # the parent pickles it by name, so the child runs the wrapper.
    _span_function("repro.engine.worker", "run_task", "engine.pool_task",
                   flush_after=True)

    for cls in (EuclideanMetric, HaversineMetric, ChebyshevMetric):
        _span_method(cls, "pairwise", "distances.pairwise")
    for cls in (BTM, GTM, GTMStar, BruteDP):
        _span_method(cls, "search", "core.search")
    _span_method(CorpusIndex, "ensure_summaries", "index.summaries")
    _span_method(CorpusIndex, "candidate_pairs", "index.candidate_filter")
    _span_method(CorpusIndex, "range_scan", "index.query_walk")
    _span_method(CorpusIndex, "knn_scan", "index.query_walk")
    _span_method(TrajectoryTree, "build", "index.tree_build")
    _span_method(TrajectoryTree, "join_candidates", "index.join_walk")
    _span_method(EngineExecutor, "pool_map", "engine.pool_map")
    for verb in ("discover", "join", "range", "knn"):
        _span_method(MotifEngine, verb, "engine.verb")
    _patch(OracleManager, "result",
           _count_result_lookups(vars(OracleManager)["result"]))
    _span_method(MotifService, "submit", "service.submit", flush_after=True)


def uninstall() -> None:
    global _sink_dir
    flush()
    while _restore:
        owner, attr, original = _restore.pop()
        setattr(owner, attr, original)
    _sink_dir = None


def load(sink_dir) -> Dict[int, List[list]]:
    """Every process's records, keyed by pid."""
    out: Dict[int, List[list]] = {}
    for path in sorted(Path(sink_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path) as fh:
            out[pid] = [json.loads(line) for line in fh if line.strip()]
    return out


def within(records, start: float, end: float) -> List[list]:
    return [r for r in records if r[1] >= start and r[2] <= end]


def totals(records) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self seconds, wall seconds and count."""
    out: Dict[str, Dict[str, float]] = {}
    for name, start, end, self_s, n in records:
        slot = out.setdefault(name, {"self": 0.0, "wall": 0.0, "count": 0})
        slot["self"] += self_s
        slot["wall"] += end - start
        slot["count"] += n
    return out
