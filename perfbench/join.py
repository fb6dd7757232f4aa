"""``join``: tree-indexed DFD similarity self-join at 2 workers.

The corpus is 320 random-walk trajectories of 60 points in 40
clusters of 8.  Every op runs ``MotifEngine.join(C, C, theta,
index="tree")``; theta walks a golden-ratio sequence over [4, 7) that
never repeats, so neither the engine's result cache nor its
candidate-pair cache replays.  Most of an op is exact verification
(``dfd_decision``) of the candidate pairs the tree walk could not prune.

The walks and the theta sequence are the same for every run; the
run's ``--seed`` moves every point by about 0.01 (the walks step 0.4),
so each run joins new content while doing the same work.  Independent
walks per seed changed the candidate pairs of a run by up to 13%,
which would make each run's figures depend on its seed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distances.frechet import dfd_matrix
from repro.distances.ground import get_metric
from repro.engine import MotifEngine
from repro.trajectory import Trajectory

from common import Op, clustered_corpus, transfer_delta

CLUSTERS, PER_CLUSTER, N_POINTS, COLUMNS = 40, 8, 60, 6
WORKERS = 2
#: Seed of the random walks every run starts from.
CORPUS_SEED = 0
#: Standard deviation of the per-run perturbation of every point.
PERTURBATION = 0.01
THETA_LO, THETA_SPAN = 4.0, 3.0
#: Threshold of the set-up's warm-up join, below the timed range.
WARMUP_THETA = 3.5
_GOLDEN = (5 ** 0.5 - 1) / 2


class Workload:
    name = "join"
    #: Engine pool size behind each op.
    pool_workers = WORKERS
    #: Ops per group of the run's medians (see run.group_medians).
    group_size = 4
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        base = clustered_corpus(np.random.default_rng(CORPUS_SEED), CLUSTERS,
                                PER_CLUSTER, N_POINTS, COLUMNS)
        self.corpus = [
            Trajectory(t.points + rng.normal(0.0, PERTURBATION, t.points.shape))
            for t in base]
        self.engine = None

    @staticmethod
    def theta(k: int) -> float:
        return THETA_LO + THETA_SPAN * ((k * _GOLDEN) % 1.0)

    def setup(self) -> None:
        self.engine = MotifEngine(workers=WORKERS)
        self.engine.join(self.corpus, self.corpus, WARMUP_THETA, index="tree")

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def run(self, seconds: float):
        ops = []
        engine, corpus = self.engine, self.corpus
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline:
            theta = self.theta(k)
            before = engine.transfer_info()
            started = time.perf_counter()
            try:
                matches, stats = engine.join(corpus, corpus, theta,
                                             index="tree")
                error = None
            except Exception as exc:  # every failure is counted, not fatal
                matches, stats, error = None, None, repr(exc)
            latency = time.perf_counter() - started
            after = engine.transfer_info()
            op = Op(k, started, latency, answer=matches, error=error)
            if stats is not None:
                index = stats.details.get("index", {})
                op.info["candidates"] = index.get("candidates", 0)
                op.info["nodes_visited"] = index.get("nodes_visited", 0)
            op.info.update(transfer_delta(before, after))
            ops.append(op)
            k += 1
        return ops

    def verify(self, ops) -> None:
        """Compare with the serial unindexed reference join.

        One serial ``index=False`` join at the largest threshold any op
        used gives every pair that can match; each pair's exact DFD then
        decides membership at every smaller threshold (match iff
        DFD <= theta, as the join defines it).
        """
        if not ops:
            return
        top = max(self.theta(op.index) for op in ops)
        metric = get_metric("euclidean")
        with MotifEngine(workers=1) as serial:
            superset, _ = serial.join(self.corpus, self.corpus, top,
                                      index=False)
        exact = {}
        for a, b in superset:
            key = (min(a, b), max(a, b))
            if key not in exact:
                exact[key] = dfd_matrix(metric.pairwise(
                    self.corpus[key[0]].points, self.corpus[key[1]].points))
        for op in ops:
            theta = self.theta(op.index)
            expected = [(a, b) for a, b in superset
                        if exact[(min(a, b), max(a, b))] <= theta]
            op.ok = op.error is None and [
                tuple(p) for p in op.answer] == expected

    def layer_metrics(self, ops, base_s: float) -> dict:
        n = max(len(ops), 1)
        candidates = sum(op.info.get("candidates", 0) for op in ops)
        matches = sum(len(op.answer) for op in ops if op.answer is not None)
        return {
            "index.candidates": candidates / n,
            "index.precision": matches / candidates if candidates else 0.0,
            "index.nodes_visited":
                sum(op.info.get("nodes_visited", 0) for op in ops) / n,
            "engine.pool_tasks": sum(op.info["pool_tasks"] for op in ops) / n,
            "engine.shm_bytes": sum(op.info["shm_bytes"] for op in ops) / n,
        }
