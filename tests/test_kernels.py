"""Batched pair-DFD kernels: exact parity with the scalar kernels.

Contracts of :mod:`repro.distances.kernels`:

* ``decide_batch`` / ``dfd_batch`` equal ``dfd_decision`` /
  ``dfd_matrix`` / ``dfd_matrix_recursive`` *exactly*, whether a pair
  sits in a padded stack of mixed shapes or a bucket of equal shapes;
* ties at exactly ``theta`` decide ``True`` and one ulp below decide
  ``False`` -- for 1-point trajectories too;
* the diagonal-coupling accept never accepts a pair the DP rejects;
* non-finite ground values are rejected with ``TrajectoryError`` at
  every kernel boundary, and every join path rejects a NaN trajectory
  the same way;
* the join's statistics (``accepted_upper`` included) are identical
  across serial, inline, 2-worker, grid, tree, sharded and
  fault-injected runs;
* the kernels' instruments reach a 2-worker ``/metrics`` scrape.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import numpy as np
import pytest

import repro.faults as faults
from repro.distances import (
    decide_batch,
    dfd_batch,
    dfd_decision,
    dfd_matrix,
    dfd_matrix_recursive,
    discrete_frechet,
    get_metric,
    pad_stack,
    verify_batch,
)
from repro.distances.kernels import dfd_pairs
from repro.engine import MotifEngine
from repro.errors import TrajectoryError
from repro.extensions.join import (
    JoinStats,
    join_top_k,
    merge_join_stats,
    similarity_join,
)
from repro.service import MotifService, ServiceClient, make_server
from repro.trajectory import Trajectory

METRICS = ("euclidean", "chebyshev", "haversine")

COUNTERS = (
    "pairs_total", "pruned_index", "pruned_endpoint",
    "pruned_hausdorff", "decisions", "accepted_upper", "matches",
)


def random_points(rng, n: int, metric: str) -> np.ndarray:
    steps = rng.normal(scale=0.5, size=(n, 2)).cumsum(axis=0)
    if metric == "haversine":  # degrees near Beijing, ~100 m steps
        return np.array([39.9, 116.4]) + steps * 1e-3
    return steps


def ragged_mats(metric: str, seed: int, count: int = 40):
    """Ground matrices of pairs with lengths 1..40 (1-point included)."""
    rng = np.random.default_rng(seed)
    m = get_metric(metric)
    shapes = [(1, 1), (1, 7), (9, 1)] + [
        tuple(int(v) for v in rng.integers(1, 41, size=2))
        for _ in range(count - 3)
    ]
    return [
        m.pairwise(random_points(rng, n, metric), random_points(rng, k, metric))
        for n, k in shapes
    ]


def bucketed(mats):
    """Equal-shape stacks: ``[(positions, dmats, ends), ...]``."""
    groups = defaultdict(list)
    for pos, mat in enumerate(mats):
        groups[mat.shape].append(pos)
    out = []
    for positions in groups.values():
        dmats, ends = pad_stack([mats[p] for p in positions])
        out.append((positions, dmats, ends))
    return out


# ----------------------------------------------------------------------
# Kernel parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("seed", range(3))
def test_dfd_batch_equals_scalar_and_recursive(metric, seed):
    mats = ragged_mats(metric, seed)
    ref = np.array([dfd_matrix(mat) for mat in mats])
    oracle = np.array([dfd_matrix_recursive(mat) for mat in mats])
    assert np.array_equal(ref, oracle)
    padded = dfd_batch(*pad_stack(mats))
    assert np.array_equal(padded, ref)
    for positions, dmats, ends in bucketed(mats):
        assert np.array_equal(dfd_batch(dmats, ends), ref[positions])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("seed", range(3))
def test_decide_batch_equals_scalar_at_every_theta(metric, seed):
    mats = ragged_mats(metric, seed, count=24)
    dfds = np.array([dfd_matrix(mat) for mat in mats])
    dmats, ends = pad_stack(mats)
    buckets = bucketed(mats)
    # Exact ties, one ulp below them, and thresholds in between.
    thetas = np.concatenate([
        dfds,
        np.nextafter(dfds, -np.inf),
        np.quantile(dfds, [0.1, 0.5, 0.9]),
        [0.0],
    ])
    for theta in thetas:
        ref = np.array([dfd_decision(mat, theta) for mat in mats])
        assert np.array_equal(ref, dfds <= theta)
        assert np.array_equal(decide_batch(dmats, ends, theta), ref)
        match, upper = verify_batch(mats, theta)
        assert np.array_equal(match, ref)
        assert not (upper & ~ref).any()  # the accept is never wrong
        for positions, b_dmats, b_ends in buckets:
            assert np.array_equal(
                decide_batch(b_dmats, b_ends, theta), ref[positions]
            )


def test_ties_at_exactly_theta_per_pair():
    mats = ragged_mats("euclidean", 11, count=24)
    dmats, ends = pad_stack(mats)
    for b, mat in enumerate(mats):
        dfd = dfd_matrix(mat)
        assert decide_batch(dmats, ends, dfd)[b]
        assert not decide_batch(dmats, ends, np.nextafter(dfd, -np.inf))[b]


def test_one_point_trajectories():
    p = np.array([[0.0, 0.0]])
    q = np.array([[3.0, 4.0], [0.0, 1.0], [6.0, 8.0]])
    m = get_metric("euclidean")
    mats = [m.pairwise(p, p), m.pairwise(p, q), m.pairwise(q, p)]
    assert list(dfd_batch(*pad_stack(mats))) == [0.0, 10.0, 10.0]
    assert list(decide_batch(*pad_stack(mats), 10.0)) == [True] * 3
    assert list(decide_batch(*pad_stack(mats), 9.99)) == [True, False, False]
    # A 1-point side has one coupling, so the diagonal accept is exact.
    match, upper = verify_batch(mats, 10.0)
    assert list(match) == list(upper) == [True] * 3


def test_dfd_pairs_matches_scalar_across_blocks(monkeypatch):
    import repro.distances.kernels as kernels

    monkeypatch.setattr(kernels, "DFD_CELLS", 7 * 11 * 11)
    rng = np.random.default_rng(3)
    left = [random_points(rng, int(rng.integers(1, 12)), "euclidean")
            for _ in range(30)]
    right = [random_points(rng, int(rng.integers(1, 12)), "euclidean")
             for _ in range(30)]
    m = get_metric("euclidean")
    ref = [dfd_matrix(m.pairwise(p, q)) for p, q in zip(left, right)]
    assert list(dfd_pairs(m, left, right)) == ref


@pytest.mark.parametrize("metric", METRICS)
def test_wavefront_dfd_pairs_equal_scalar_and_recursive(metric):
    """Ragged pairs, 1 x m and n x 1 included, through the wavefront."""
    rng = np.random.default_rng(17)
    shapes = [(1, 1), (1, 9), (12, 1), (2, 30), (30, 2)] + [
        tuple(int(v) for v in rng.integers(1, 33, size=2)) for _ in range(25)
    ]
    left = [random_points(rng, n, metric) for n, _ in shapes]
    right = [random_points(rng, k, metric) for _, k in shapes]
    m = get_metric(metric)
    mats = [m.pairwise(p, q) for p, q in zip(left, right)]
    ref = [dfd_matrix(mat) for mat in mats]
    assert ref == [dfd_matrix_recursive(mat) for mat in mats]
    assert list(dfd_pairs(m, left, right)) == ref
    assert list(dfd_batch(*pad_stack(mats))) == ref
    # Reversed stack order: each pair's value depends on it alone.
    assert list(dfd_batch(*pad_stack(mats[::-1]))) == ref[::-1]


@pytest.mark.parametrize("metric", ("euclidean", "chebyshev"))
def test_wavefront_on_tie_heavy_lattices(metric):
    """Integer-lattice pairs: many couplings tie at exactly the DFD."""
    rng = np.random.default_rng(23)
    m = get_metric(metric)
    left = [rng.integers(0, 3, size=(int(rng.integers(1, 9)), 2)) * 1.0
            for _ in range(60)]
    right = [rng.integers(0, 3, size=(int(rng.integers(1, 9)), 2)) * 1.0
             for _ in range(60)]
    mats = [m.pairwise(p, q) for p, q in zip(left, right)]
    ref = [dfd_matrix_recursive(mat) for mat in mats]
    assert len(set(ref)) < len(ref) // 4  # the distances do tie
    assert list(dfd_pairs(m, left, right)) == ref
    dmats, ends = pad_stack(mats)
    got = dfd_batch(dmats, ends)
    assert list(got) == ref
    # Each pair decides True at exactly its DFD and False just below.
    assert decide_batch(dmats, ends, 1.0).tolist() == [d <= 1.0 for d in ref]
    for b, dfd in enumerate(ref):
        assert decide_batch(dmats[b:b + 1], ends[b:b + 1], dfd)[0]
        assert not decide_batch(
            dmats[b:b + 1], ends[b:b + 1], np.nextafter(dfd, -np.inf)
        )[0]


def test_dfd_pairs_stacks_stay_within_the_cell_budget(monkeypatch):
    import repro.distances.kernels as kernels

    seen = []
    real = kernels.dfd_batch

    def recording(dmats, ends):
        seen.append(np.shape(dmats))
        return real(dmats, ends)

    monkeypatch.setattr(kernels, "dfd_batch", recording)
    rng = np.random.default_rng(5)
    count = 600
    left = [random_points(rng, int(rng.integers(20, 61)), "euclidean")
            for _ in range(count)]
    right = [random_points(rng, int(rng.integers(20, 61)), "euclidean")
             for _ in range(count)]
    m = get_metric("euclidean")
    got = dfd_pairs(m, left, right)
    assert list(got) == [dfd_matrix(m.pairwise(p, q))
                         for p, q in zip(left, right)]
    assert sum(shape[0] for shape in seen) == count
    assert len(seen) > 1
    assert max(np.prod(shape) for shape in seen) <= kernels.DFD_CELLS
    # A single pair larger than the budget is settled on its own.
    seen.clear()
    monkeypatch.setattr(kernels, "DFD_CELLS", 500)
    got = dfd_pairs(m, left[:5], right[:5])
    assert [shape[0] for shape in seen] == [1] * 5
    assert list(got) == [dfd_matrix(m.pairwise(p, q))
                         for p, q in zip(left[:5], right[:5])]


def test_empty_stacks():
    dmats, ends = pad_stack([])
    assert dfd_batch(dmats, ends).shape == (0,)
    assert decide_batch(dmats, ends, 1.0).shape == (0,)
    match, upper = verify_batch([], 1.0)
    assert match.shape == upper.shape == (0,)


# ----------------------------------------------------------------------
# Non-finite input
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernels_reject_non_finite_ground_values(bad):
    mats = ragged_mats("euclidean", 2, count=6)
    mats[4] = mats[4].copy()
    mats[4][0, 0] = bad
    dmats, ends = pad_stack(mats)
    with pytest.raises(TrajectoryError):
        decide_batch(dmats, ends, 1.0)
    with pytest.raises(TrajectoryError):
        dfd_batch(dmats, ends)
    with pytest.raises(TrajectoryError):
        verify_batch(mats, 1.0)
    with pytest.raises(TrajectoryError):
        dfd_matrix(mats[4])
    with pytest.raises(TrajectoryError):
        dfd_decision(mats[4], 1.0)


def test_discrete_frechet_rejects_a_nan_point():
    p = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]])
    q = np.array([[0.0, 0.0], [2.0, 2.0]])
    with pytest.raises(TrajectoryError):
        discrete_frechet(p, q)


@pytest.mark.parametrize("index", [False, "grid", "tree"])
@pytest.mark.parametrize("workers", [1, 2])
def test_every_join_path_rejects_a_nan_trajectory(index, workers):
    rng = np.random.default_rng(0)
    corpus = [rng.normal(size=(10, 2)).cumsum(axis=0) for _ in range(6)]
    corpus[3][4, 1] = np.nan
    with MotifEngine(workers=workers, result_cache_size=0) as eng:
        with pytest.raises(TrajectoryError):
            eng.join(corpus, corpus, 2.0, index=index)
    with pytest.raises(TrajectoryError):
        similarity_join(corpus, corpus, 2.0, index=bool(index))


def bad_points(kind: str) -> np.ndarray:
    if kind == "empty":
        return np.empty((0, 2))
    if kind == "one_column":
        return np.arange(6.0).reshape(6, 1)
    pts = np.zeros((6, 2))
    pts[2, 0] = np.nan
    return pts


@pytest.mark.parametrize("kind", ["empty", "one_column", "nan"])
@pytest.mark.parametrize("index", [False, "grid", "tree"])
@pytest.mark.parametrize("workers", [1, 2])
def test_every_join_verb_rejects_bad_points_the_same_way(kind, index,
                                                         workers):
    """One input check: threshold and top-k joins raise the same
    ``TrajectoryError`` for every index mode and worker count."""
    rng = np.random.default_rng(1)
    corpus = [rng.normal(size=(10, 2)).cumsum(axis=0) for _ in range(6)]
    corpus[3] = bad_points(kind)
    with MotifEngine(workers=workers, result_cache_size=0) as eng:
        with pytest.raises(TrajectoryError):
            eng.join(corpus, corpus, 2.0, index=index)
        with pytest.raises(TrajectoryError):
            eng.join_top_k(corpus, corpus, k=3, index=index)
    with pytest.raises(TrajectoryError):
        similarity_join(corpus, corpus, 2.0, index=bool(index))
    with pytest.raises(TrajectoryError):
        join_top_k(corpus, corpus, k=3)


# ----------------------------------------------------------------------
# JoinStats across execution paths
# ----------------------------------------------------------------------
def clustered(seed: int, clusters: int = 5, per: int = 6):
    """Ragged near-duplicate walks: most candidate pairs match."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(clusters):
        base = rng.normal(scale=0.4, size=(30, 2)).cumsum(axis=0)
        base += rng.uniform(-20, 20, size=2)
        for k in range(per):
            n = 30 - 3 * (k % 3)
            out.append(Trajectory(
                base[:n] + rng.normal(scale=0.15, size=(n, 2))
            ))
    return out


def counters(stats: JoinStats):
    return tuple(getattr(stats, name) for name in COUNTERS)


@pytest.fixture(scope="module")
def inline_engine():
    with MotifEngine(executor="inline", result_cache_size=0) as eng:
        yield eng


@pytest.fixture(scope="module")
def pool_engine():
    with MotifEngine(workers=2, result_cache_size=0) as eng:
        yield eng


@pytest.mark.parametrize("seed", range(3))
def test_join_stats_identical_across_paths(inline_engine, pool_engine, seed):
    corpus = clustered(seed)
    theta = 1.2 + 0.3 * seed
    ref_matches, ref_stats = similarity_join(corpus, corpus, theta,
                                             index=True)
    assert ref_stats.accepted_upper > 0
    assert ref_stats.decisions > ref_stats.accepted_upper  # DP ran too
    plain_matches, plain_stats = similarity_join(corpus, corpus, theta)
    assert plain_matches == ref_matches
    for eng, workers in ((inline_engine, 1), (inline_engine, 3),
                         (pool_engine, 2)):
        got, stats = eng.join(corpus, corpus, theta, workers=workers,
                              index=False)
        assert got == plain_matches
        assert counters(stats) == counters(plain_stats)
        for mode in ("grid", "tree"):
            got, stats = eng.join(corpus, corpus, theta, workers=workers,
                                  index=mode)
            assert got == ref_matches
            assert counters(stats) == counters(ref_stats)
    shards = [corpus[:11], corpus[11:19], corpus[19:]]
    got, stats = pool_engine.join_sharded(shards, shards, theta,
                                          index="tree")
    assert got == ref_matches
    assert stats.matches == ref_stats.matches
    assert stats.accepted_upper <= stats.decisions


def test_join_stats_identical_under_worker_kill():
    corpus = clustered(7)
    ref_matches, ref_stats = similarity_join(corpus, corpus, 1.5,
                                             index=True)
    with MotifEngine(workers=2, result_cache_size=0) as eng:
        try:
            faults.arm("worker.task=kill%1")
            got, stats = eng.join(corpus, corpus, 1.5, index="tree")
            assert eng.transfer_info()["worker_crashes"] >= 1
        finally:
            faults.disarm()
    assert got == ref_matches
    assert counters(stats) == counters(ref_stats)


def test_merge_join_stats_sums_accepted_upper():
    parts = [JoinStats(decisions=5, accepted_upper=3, matches=4),
             JoinStats(decisions=2, accepted_upper=1, matches=1)]
    merged = merge_join_stats(parts)
    assert (merged.decisions, merged.accepted_upper, merged.matches) == (
        7, 4, 5
    )


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def scrape_value(text: str, sample: str) -> float:
    for line in text.splitlines():
        if line.startswith(sample + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{sample} missing from the scrape")


def test_two_worker_join_scrape_shows_kernel_families():
    corpus = clustered(3)
    service = MotifService(workers=2)
    service.start()
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(port=httpd.server_address[1], retries=0)
        samples = (
            'repro_kernel_seconds_count{kernel="decide_batch"}',
            'repro_kernel_seconds_count{kernel="dfd_batch"}',
            'repro_kernel_pairs_total{outcome="upper_accept"}',
            'repro_kernel_pairs_total{outcome="dp"}',
        )
        text = client.metrics_text()
        assert "# TYPE repro_kernel_seconds histogram" in text
        assert "# TYPE repro_kernel_pairs_total counter" in text
        before = [scrape_value(text, s) for s in samples]
        out = client.join(corpus, corpus, theta=1.4, index="tree")
        after = [scrape_value(client.metrics_text(), s) for s in samples]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)
        service.stop()
    stats = out["stats"]
    assert stats["accepted_upper"] > 0
    delta = [a - b for a, b in zip(after, before)]
    assert delta[0] >= 1 and delta[1] >= 1  # one observation per block
    assert delta[2] == stats["accepted_upper"]
    # DP pairs: the join's undecided pairs plus the index's bound DPs.
    assert delta[3] >= stats["decisions"] - stats["accepted_upper"]


def test_service_knn_scrape_moves_the_dfd_batch_count():
    """Range / kNN refinement runs the stacked kernel, visible in /metrics."""
    corpus = [t.points.tolist() for t in clustered(4)]
    query = (np.asarray(corpus[2]) + 0.05).tolist()
    service = MotifService(workers=2)
    service.start()
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    sample = 'repro_kernel_seconds_count{kernel="dfd_batch"}'
    try:
        client = ServiceClient(port=httpd.server_address[1], retries=0)
        before = scrape_value(client.metrics_text(), sample)
        out = client.knn(query, corpus, k=3)
        after = scrape_value(client.metrics_text(), sample)
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)
        service.stop()
    assert len(out["neighbors"]) == 3
    assert after - before >= 1
