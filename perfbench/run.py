#!/usr/bin/env python3
"""Repository benchmark: ``motif``, ``join`` and ``serve`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload motif --seed 1 --seconds 20 --trace 0

Each workload is a closed loop driven from this process.  A run makes
its inputs from ``--seed``, sets the program up a few times (the
set-up includes one untimed warm-up op; the last set-up is kept),
measures ops for ``--seconds`` seconds, checks every answer against
the serial reference path, and prints one JSON object as the last line
of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``ops_per_s``,
``latency_p50_ms`` and ``cpu_s_per_op`` are medians over groups of
consecutive ops (see :func:`group_medians`); ``cpu_s_per_op`` counts
the whole live process tree, pool and fleet workers included, and
``peak_rss_mb`` sums the tree's high-water RSS.  ``--trace 1`` first
measures untraced, then installs the layer wrappers of ``spans.py``,
sets up again, replays the same ops traced and reports the per-layer
metrics:

* ``<layer>.share`` -- the layer's self seconds summed over the process
  tree (pool and fleet workers included, so parallel layers can add
  up to more than 1), divided by the summed op wall seconds, which is
  reported as ``op_wall_s``;
* ``unattributed.share`` -- self time of the engine verbs
  (``MotifEngine.discover/join/range/knn``): time inside a verb that no
  deeper layer span covers;
* ``service.admission_ms`` -- ``MotifService.submit`` time minus engine
  verb time, and ``service.transport_ms`` -- client latency minus
  ``submit`` time, both per request;
* ``trace_overhead`` -- traced ops/s divided by untraced ops/s, over
  the ops both phases ran;
* ``latency_p90_ms`` -- from the untraced phase; only ``serve`` has
  ten or more samples beyond it.
Scratch files (snapshots, spans, a result record with the host facts)
go under ``.perfbench_work/`` in the repository root.  The process
exits 2 without a result when the program sources are missing and 1
when any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("motif", "join", "serve")
#: Per-layer metrics that only some workloads produce (0 elsewhere).
WORKLOAD_LAYERS = {
    "core.bounds.share": "share", "core.grouping.share": "share",
    "core.dp.share": "share", "core.subsets_expanded": "count",
    "core.cells_expanded": "count", "index.candidates": "count",
    "index.precision": "share", "index.nodes_visited": "count",
    "engine.pool_tasks": "count", "engine.shm_bytes": "B",
    "fleet.workers_used": "count", "fleet.colocated_frac": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, seconds: float, workdir: Path):
    if name == "motif":
        import motif
        return motif.Workload(seed)
    if name == "join":
        import join
        return join.Workload(seed)
    import serve
    return serve.Workload(seed, seconds, workdir)


def host_facts() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def timed_setup(wl) -> float:
    started = time.perf_counter()
    wl.setup()
    return time.perf_counter() - started


def measure(wl, seconds: float) -> dict:
    """One timed closed-loop phase; the caller owns set-up/teardown."""
    from proctree import CpuSampler, tree_peak_rss_mb
    with CpuSampler() as cpu:
        started = time.perf_counter()
        ops = wl.run(seconds)
        ended = time.perf_counter()
    return {
        "ops": ops,
        "start": started,
        "end": ended,
        "wall": ended - started,
        "cpu": cpu,
        "rss_mb": tree_peak_rss_mb(),
    }


def group_medians(phase: dict, size: int) -> dict:
    """Medians over groups of ``size`` consecutive op completions.

    Each group yields its completion rate, its CPU seconds per op and
    its median latency; the medians over the groups are reported, so a
    few seconds of host slowdown or of both clients sharing one fleet
    worker move a minority of groups, not the figures.  Completions
    past the last full group are left out (all ops form one group when
    there are fewer than ``size``).
    """
    ops = sorted(phase["ops"], key=lambda op: op.started + op.latency)
    size = min(size, len(ops))
    rates, cpu_per_op, p50s = [], [], []
    t0 = phase["start"]
    for k in range(size, len(ops) + 1, size):
        group = ops[k - size:k]
        t1 = group[-1].started + group[-1].latency
        rates.append(size / (t1 - t0))
        cpu_per_op.append((phase["cpu"].at(t1) - phase["cpu"].at(t0)) / size)
        p50s.append(statistics.median(op.latency for op in group))
        t0 = t1
    return {
        "ops_per_s": statistics.median(rates),
        "cpu_s_per_op": statistics.median(cpu_per_op),
        "latency_p50_ms": statistics.median(p50s) * 1e3,
    }


def end_to_end(wl, seconds: float, info: dict) -> tuple:
    setups = []
    try:
        for k in range(wl.setups):
            if k:
                wl.teardown()
            setups.append(timed_setup(wl))
        phase = measure(wl, seconds)
    finally:
        wl.teardown()
    ops = phase["ops"]
    wl.verify(ops)
    grouped = group_medians(phase, wl.group_size)
    metrics = {
        "ops_per_s": (grouped["ops_per_s"], "1/s"),
        "latency_p50_ms": (grouped["latency_p50_ms"], "ms"),
        "cpu_s_per_op": (grouped["cpu_s_per_op"], "s"),
        "peak_rss_mb": (phase["rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": (sum(bool(op.ok) for op in ops) / len(ops), "ratio"),
    }
    info["setups_s"] = setups
    info["ops"] = len(ops)
    info["run_ops_per_s"] = len(ops) / phase["wall"]
    info["run_cpu_s_per_op"] = (
        phase["cpu"].at(phase["end"]) - phase["cpu"].at(phase["start"])
    ) / len(ops)
    _placement(wl, ops, info)
    return ops, metrics


def _placement(wl, ops, info) -> None:
    if wl.name == "serve" and ops:
        info["fleet_pids"] = sorted({op.info["pid"] for op in ops})
        info["colocated_frac"] = (
            sum(op.info["colocated"] for op in ops) / len(ops))


def per_layer(wl, seconds: float, workdir: Path, info: dict) -> tuple:
    import spans
    from common import percentile
    from proctree import cpu_by_pid, tree_pids

    try:
        timed_setup(wl)
        plain = measure(wl, seconds)
    finally:
        wl.teardown()

    sink = workdir / "spans"
    spans.install(sink)
    try:
        setup_start = time.perf_counter()
        timed_setup(wl)
        setup_end = time.perf_counter()
        try:
            counters0 = wl.counters() if hasattr(wl, "counters") else {}
            children = [p for p in tree_pids() if p != os.getpid()]
            child_cpu0 = cpu_by_pid(children)
            traced = measure(wl, seconds)
            children = [p for p in tree_pids() if p != os.getpid()]
            child_cpu1 = cpu_by_pid(children)
            counters1 = wl.counters() if hasattr(wl, "counters") else {}
        finally:
            wl.teardown()
    finally:
        spans.uninstall()
    by_pid = spans.load(sink)
    shutil.rmtree(sink, ignore_errors=True)

    ops = plain["ops"] + traced["ops"]
    wl.verify(ops)

    main = os.getpid()
    records = [r for recs in by_pid.values() for r in recs]
    window = spans.totals(spans.within(records, traced["start"],
                                       traced["end"]))
    setup = spans.totals(spans.within(records, setup_start, setup_end))
    fleet = spans.totals(spans.within(
        [r for pid, recs in by_pid.items() if pid != main for r in recs],
        traced["start"], traced["end"]))

    def get(table, name, field):
        return table.get(name, {}).get(field, 0.0)

    t_ops = traced["ops"]
    n = max(len(t_ops), 1)
    # Both phases replay the same inputs in the same order.
    common_ops = min(len(plain["ops"]), len(t_ops))
    base = sum(op.latency for op in t_ops) or 1e-9
    pool_wall = get(window, "engine.pool_map", "wall")
    pool_cpu = sum(child_cpu1[p] - child_cpu0.get(p, 0.0)
                   for p in child_cpu1)
    hits = get(window, "engine.result_cache.hit", "count")
    misses = get(window, "engine.result_cache.miss", "count")
    loads = get(setup, "store.load", "count")
    submit_wall = get(fleet, "service.submit", "wall")
    is_serve = wl.name == "serve"

    metrics = {
        "op_wall_s": (base, "s"),
        "distances.dfd_decision.calls":
            (get(window, "distances.dfd_decision", "count") / n, "count"),
        "distances.dfd_decision.share":
            (get(window, "distances.dfd_decision", "self") / base, "share"),
        "distances.dfd_matrix.calls":
            (get(window, "distances.dfd_matrix", "count") / n, "count"),
        "distances.dfd_matrix.share":
            (get(window, "distances.dfd_matrix", "self") / base, "share"),
        "distances.pairwise.share":
            (get(window, "distances.pairwise", "self") / base, "share"),
        "core.search.share":
            (get(window, "core.search", "self") / base, "share"),
        "index.summaries_s": (get(setup, "index.summaries", "wall"), "s"),
        "index.tree_build_s": (get(setup, "index.tree_build", "wall"), "s"),
        "index.join_walk.share":
            (get(window, "index.join_walk", "self") / base, "share"),
        "index.query_walk.share":
            (get(window, "index.query_walk", "self") / base, "share"),
        "engine.fingerprint.calls":
            (get(window, "engine.fingerprint", "count") / n, "count"),
        "engine.fingerprint.share":
            (get(window, "engine.fingerprint", "self") / base, "share"),
        "engine.pool_map.share":
            (get(window, "engine.pool_map", "self") / base, "share"),
        "engine.parallel_efficiency": (
            pool_cpu / (wl.pool_workers * pool_wall) if pool_wall else 0.0,
            "share"),
        "engine.cache_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0, "share"),
        "store.save_s": (get(setup, "store.save", "self"), "s"),
        "store.load_s": (
            get(setup, "store.load", "wall") / loads if loads else 0.0, "s"),
        "service.admission_ms": (
            (submit_wall - get(fleet, "engine.verb", "wall")) / n * 1e3
            if is_serve else 0.0, "ms"),
        "service.transport_ms": (
            (base - submit_wall) / n * 1e3 if is_serve else 0.0, "ms"),
        "service.coalesced": (
            counters1.get("coalesced", 0) - counters0.get("coalesced", 0),
            "count"),
        "service.rejected": (
            counters1.get("rejected", 0) - counters0.get("rejected", 0),
            "count"),
        "latency_p90_ms": (
            percentile([op.latency for op in plain["ops"]] or [0.0], 90)
            * 1e3, "ms"),
        "unattributed.share":
            (get(window, "engine.verb", "self") / base, "share"),
        "trace_overhead": (
            sum(op.latency for op in plain["ops"][:common_ops])
            / sum(op.latency for op in t_ops[:common_ops]), "ratio"),
    }
    own = wl.layer_metrics(t_ops, base)
    for name, unit in WORKLOAD_LAYERS.items():
        metrics[name] = (float(own.get(name, 0.0)), unit)
    info["ops"] = len(ops)
    info["untraced_ops"] = len(plain["ops"])
    _placement(wl, t_ops, info)
    return ops, metrics


def stop_helpers() -> None:
    """Stop the shared-memory resource tracker the engine started."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError, ChildProcessError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_facts()}
    try:
        wl = make_workload(args.workload, args.seed, args.seconds, workdir)
        if args.trace:
            ops, metrics = per_layer(wl, args.seconds, workdir, info)
        else:
            ops, metrics = end_to_end(wl, args.seconds, info)
    finally:
        stop_helpers()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    result = {
        "correct": bool(ops) and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    errors = sorted({op.error for op in ops if op.error})[:5]
    info["errors"] = errors
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(info, **result)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
               f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
