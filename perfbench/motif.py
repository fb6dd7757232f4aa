"""``motif``: the paper's problem, GTM* motif discovery at 2 workers.

Every op discovers the motif of a distinct 700-point truck trajectory
with ``MotifEngine.discover`` (GTM*, ``workers=2``, the partitioned
search with its pool and shared-memory publishing).  The ops cycle
through the routes of a few truck simulator seeds, and the run's
``--seed`` moves every point by about a centimetre.  That makes every
op's content new, so no engine cache replays, while the search work of
a route stays within a few percent (metre-scale jitter changes the
subsets GTM* expands by up to 60%, which would make each run's figures
depend on its seed's luck rather than on the program).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import default_xi
from repro.datasets import get_dataset
from repro.engine import MotifEngine
from repro.trajectory import Trajectory

from common import Op, transfer_delta

N_POINTS = 700
WORKERS = 2
#: Truck simulator seeds the ops cycle through.
ROUTES = 4
#: Jitter added to every point of an op, in degrees (about 1.1 cm).
JITTER_DEG = 1e-7
#: Route seed of the set-up's warm-up op, outside the timed cycle.
WARMUP_ROUTE = 1000


class Workload:
    name = "motif"
    #: Engine pool size behind each op.
    pool_workers = WORKERS
    #: Ops per group of the run's medians (see run.group_medians).
    group_size = ROUTES
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, seed: int) -> None:
        self.min_length = default_xi(N_POINTS)
        self._routes = [get_dataset("truck", seed=r).generate(N_POINTS)
                        for r in range(ROUTES)]
        self._rng = np.random.default_rng([seed, 1])
        self._warmup = get_dataset("truck", seed=WARMUP_ROUTE).generate(
            N_POINTS)
        self.inputs = []
        self.engine = None

    def _input(self, k: int) -> Trajectory:
        while len(self.inputs) <= k:
            base = self._routes[len(self.inputs) % ROUTES]
            jitter = self._rng.normal(0.0, JITTER_DEG, base.points.shape)
            self.inputs.append(Trajectory(base.points + jitter,
                                          base.timestamps, crs=base.crs))
        return self.inputs[k]

    def setup(self) -> None:
        self.engine = MotifEngine(workers=WORKERS)
        self.engine.discover(self._warmup, min_length=self.min_length)

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def run(self, seconds: float):
        ops = []
        engine = self.engine
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline:
            traj = self._input(k)
            before = engine.transfer_info()
            started = time.perf_counter()
            try:
                result = engine.discover(traj, min_length=self.min_length)
                error = None
            except Exception as exc:  # every failure is counted, not fatal
                result, error = None, repr(exc)
            latency = time.perf_counter() - started
            after = engine.transfer_info()
            op = Op(k, started, latency, error=error)
            if result is not None:
                op.answer = (result.distance, result.indices)
                op.info["stats"] = result.stats
            op.info.update(transfer_delta(before, after))
            ops.append(op)
            k += 1
        return ops

    def verify(self, ops) -> None:
        """Compare with the serial reference path (``workers=1``).

        The reference engine keeps no caches: every op's content is new,
        and cached dense matrices would only pile up in memory.
        """
        with MotifEngine(workers=1, oracle_cache_size=0, tables_cache_size=0,
                         result_cache_size=0) as serial:
            for op in ops:
                ref = serial.discover(self._input(op.index),
                                      min_length=self.min_length)
                op.ok = op.error is None and op.answer == (
                    ref.distance, ref.indices)

    def layer_metrics(self, ops, base_s: float) -> dict:
        done = [op for op in ops if "stats" in op.info]
        n = max(len(ops), 1)
        stats = [op.info["stats"] for op in done]
        return {
            "core.bounds.share": sum(s.time_bounds for s in stats) / base_s,
            "core.grouping.share":
                sum(s.time_grouping for s in stats) / base_s,
            "core.dp.share": sum(s.time_dp for s in stats) / base_s,
            "core.subsets_expanded": sum(
                s.subsets_expanded + s.scan_subsets_expanded
                for s in stats) / n,
            "core.cells_expanded": sum(
                s.cells_expanded + s.scan_cells_expanded for s in stats) / n,
            "engine.pool_tasks": sum(op.info["pool_tasks"] for op in ops) / n,
            "engine.shm_bytes": sum(op.info["shm_bytes"] for op in ops) / n,
        }
