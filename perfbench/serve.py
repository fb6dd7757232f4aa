"""``serve``: range and kNN queries against a 2-worker service fleet.

Set-up is the ingest path: build the corpus index (summaries and
tree) over 2000 random-walk trajectories of 60 points (125 clusters of
16, so a k=10 neighbourhood lies inside one cluster), save it as a
snapshot, and start a ``ServiceFleet(workers=2)`` whose workers each
load the snapshot and run a 1-worker engine.

The client is this process: 2 connections in a closed loop, each
replaying its own seeded list of knn (k=10) and range (r=4) requests.
Queries are corpus members plus Gaussian noise; about 1 in 4 requests
repeats one of that connection's earlier requests.  Each connection is
a keep-alive session that is closed and reopened every
``SESSION_REQUESTS`` requests.  The kernel places every new connection
on either fleet worker, and a run in which both connections sit on one
worker serves about half as fast, so one run spans dozens of
placements.  Placement is recorded, never steered: each session reads
its worker's pid from ``/stats``.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path

import numpy as np

from repro.distances.frechet import dfd_matrix
from repro.distances.ground import get_metric
from repro.index import CorpusIndex
from repro.service import ServiceClient, ServiceFleet
import repro.store

from common import Op, clustered_corpus

CLUSTERS, PER_CLUSTER, N_POINTS, COLUMNS = 125, 16, 60, 16
FLEET_WORKERS = 2
CONNECTIONS = 2
SESSION_REQUESTS = 4
K = 10
RADIUS = 4.0
NOISE = 0.3
REPEAT_P = 0.25
#: Upper bound on the request rate, used to size each request list.
MAX_RATE = 60.0
SNAPSHOT = "corpus"


class Workload:
    name = "serve"
    #: Engine pool size behind each op.
    pool_workers = 1
    #: Ops per group of the run's medians (see run.group_medians).
    group_size = 24
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        self.corpus = clustered_corpus(rng, CLUSTERS, PER_CLUSTER, N_POINTS,
                                       COLUMNS)
        self.snapshot_dir = Path(workdir) / "snapshot"
        length = int(MAX_RATE * seconds) + 8
        self.requests = [self._request_list(np.random.default_rng(
            [seed, 3, conn]), length) for conn in range(CONNECTIONS)]
        self.fleet = None
        self._warmup = self._request_list(np.random.default_rng([9, 9]), 1)[0]

    def _request_list(self, rng, length: int):
        out = []
        for j in range(length):
            if j and rng.random() < REPEAT_P:
                out.append(out[int(rng.integers(j))])
                continue
            source = self.corpus[int(rng.integers(len(self.corpus)))].points
            query = source + rng.normal(0.0, NOISE, source.shape)
            op = "knn" if rng.random() < 0.5 else "range"
            out.append((op, query.tolist()))
        return out

    # ------------------------------------------------------------------
    def setup(self) -> None:
        if self.snapshot_dir.exists():
            shutil.rmtree(self.snapshot_dir)
        index = CorpusIndex(self.corpus, get_metric("euclidean"))
        repro.store.save_snapshot(index, self.snapshot_dir)
        self.fleet = ServiceFleet(
            workers=FLEET_WORKERS,
            snapshots=[(SNAPSHOT, str(self.snapshot_dir))],
            service_kwargs={"workers": 1},
        ).start()
        with ServiceClient(port=self.fleet.port, retries=0) as client:
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    client.health()
                    break
                except Exception:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
            self._send(client, self._warmup)

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    def counters(self) -> dict:
        return dict(self.fleet.stats()["service_counters"])

    # ------------------------------------------------------------------
    def _send(self, client, request):
        op, query = request
        corpus = {"snapshot": SNAPSHOT}
        if op == "knn":
            return client.knn(query, corpus, k=K)
        return client.range(query, corpus, RADIUS)

    def _connection(self, conn: int, deadline: float, ops: list,
                    sessions: list) -> None:
        requests = self.requests[conn]
        j = 0
        while time.perf_counter() < deadline and j < len(requests):
            client = ServiceClient(port=self.fleet.port, retries=0)
            try:
                opened = time.perf_counter()
                pid = client.stats()["pid"]
                for _ in range(SESSION_REQUESTS):
                    if time.perf_counter() >= deadline or j >= len(requests):
                        break
                    started = time.perf_counter()
                    try:
                        answer = self._send(client, requests[j])
                        error = None
                    except Exception as exc:  # counted as a failure
                        answer, error = None, repr(exc)
                    latency = time.perf_counter() - started
                    ops.append(Op((conn, j), started, latency, answer=answer,
                                  error=error, info={"pid": pid}))
                    j += 1
                sessions.append((pid, opened, time.perf_counter()))
            finally:
                client.close()

    def run(self, seconds: float):
        deadline = time.perf_counter() + seconds
        per_conn = [[] for _ in range(CONNECTIONS)]
        self.sessions = [[] for _ in range(CONNECTIONS)]
        threads = [threading.Thread(
            target=self._connection,
            args=(c, deadline, per_conn[c], self.sessions[c]))
            for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for c, ops in enumerate(per_conn):
            other = self.sessions[1 - c]
            for op in ops:
                op.info["colocated"] = any(
                    pid == op.info["pid"] and lo <= op.started <= hi
                    for pid, lo, hi in other)
        return sorted((op for ops in per_conn for op in ops),
                      key=lambda op: op.started)

    # ------------------------------------------------------------------
    def verify(self, ops) -> None:
        """Compare with a brute-force scan of the whole corpus.

        The reference is the serial unindexed path (one exact
        ``dfd_matrix`` per corpus trajectory), restricted to the
        trajectories the endpoint bound cannot rule out: any coupling
        pairs the first points and the last points, so
        ``max(d(p0, q0), d(pn, qn)) <= DFD``.
        """
        metric = get_metric("euclidean")
        points = [t.points for t in self.corpus]
        starts = np.array([p[0] for p in points])
        ends = np.array([p[-1] for p in points])
        cache = {}
        for op in ops:
            conn, j = op.index
            request = self.requests[conn][j]
            key = id(request)  # a repeat reuses its original's object
            if key not in cache:
                cache[key] = self._reference(request, metric, points,
                                             starts, ends)
            op.ok = op.error is None and self._answer(op) == cache[key]

    @staticmethod
    def _answer(op):
        reply = op.answer
        if "neighbors" in reply:
            return [(float(d), int(i)) for d, i in reply["neighbors"]]
        return [(int(i), float(d)) for i, d in reply["matches"]]

    @staticmethod
    def _reference(request, metric, points, starts, ends):
        op, query = request
        q = np.asarray(query, dtype=np.float64)
        bound = np.maximum(np.linalg.norm(starts - q[0], axis=1),
                           np.linalg.norm(ends - q[-1], axis=1))
        # Shave the bound so rounding can never prune a tie.
        bound = bound * (1.0 - 1e-9)
        order = np.argsort(bound, kind="stable")

        def exact(i):
            return float(dfd_matrix(metric.pairwise(q, points[i])))

        if op == "range":
            hits = []
            for i in order:
                if bound[i] > RADIUS:
                    break
                dist = exact(int(i))
                if dist <= RADIUS:
                    hits.append((int(i), dist))
            return sorted(hits)
        best = []
        for i in order:
            if len(best) >= K and bound[i] > best[K - 1][0]:
                break
            best = sorted(best + [(exact(int(i)), int(i))])[:K]
        return best

    def layer_metrics(self, ops, base_s: float) -> dict:
        n = max(len(ops), 1)
        visited = sum(op.answer["stats"].get("nodes_visited", 0)
                      for op in ops if op.answer is not None)
        pids = {op.info["pid"] for op in ops}
        return {
            "index.nodes_visited": visited / n,
            "fleet.workers_used": float(len(pids)),
            "fleet.colocated_frac":
                sum(op.info["colocated"] for op in ops) / n,
        }
