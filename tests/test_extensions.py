"""Tests for the future-work extensions (top-k, approximate, join, clustering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import discover_motif
from repro.distances import discrete_frechet
from repro.extensions import (
    cluster_subtrajectories,
    discover_motif_approximate,
    discover_top_k_motifs,
    similarity_join,
)
from repro.datasets import make_trajectory
from repro.errors import ReproError

from repro.testing import random_walk


class TestTopK:
    def test_first_entry_is_the_motif(self):
        traj = random_walk(50, 3)
        exact = discover_motif(traj, min_length=3, algorithm="brute")
        top = discover_top_k_motifs(traj, min_length=3, k=4)
        assert top[0].distance == pytest.approx(exact.distance)

    def test_sorted_and_ranked(self):
        traj = random_walk(50, 4)
        top = discover_top_k_motifs(traj, min_length=3, k=5)
        distances = [r.distance for r in top]
        assert distances == sorted(distances)
        assert [r.rank for r in top] == list(range(1, len(top) + 1))

    def test_distinct_subsets(self):
        traj = random_walk(50, 5)
        top = discover_top_k_motifs(traj, min_length=3, k=6)
        starts = [(r.first.start, r.second.start) for r in top]
        assert len(set(starts)) == len(starts)

    def test_k_one_matches_motif(self):
        traj = random_walk(40, 6)
        top = discover_top_k_motifs(traj, min_length=3, k=1)
        exact = discover_motif(traj, min_length=3)
        assert len(top) == 1
        assert top[0].distance == pytest.approx(exact.distance)

    def test_distances_verified(self):
        traj = random_walk(45, 7)
        for r in discover_top_k_motifs(traj, min_length=3, k=3):
            direct = discrete_frechet(r.first.points, r.second.points)
            assert direct == pytest.approx(r.distance)
            assert r.indices[1] - r.indices[0] > 3

    def test_exhaustive_against_brute_enumeration(self):
        """Top-k distances must equal the k smallest per-subset minima."""
        from repro.core import self_space
        from repro.distances import dfd_matrix
        from repro.distances.ground import ground_matrix

        traj = random_walk(26, 8)
        xi = 2
        k = 5
        dmat = ground_matrix(traj.points)
        space = self_space(traj.n, xi)
        per_subset = []
        for i, j in space.start_pairs():
            best = np.inf
            for ie in range(i + xi + 1, space.ie_limit(i, j) + 1):
                for je in range(j + xi + 1, traj.n):
                    best = min(best, dfd_matrix(dmat[i : ie + 1, j : je + 1]))
            per_subset.append(best)
        want = sorted(per_subset)[:k]
        got = [r.distance for r in discover_top_k_motifs(traj, min_length=xi, k=k)]
        assert np.allclose(got, want)

    def test_cross_mode(self):
        a, b = random_walk(30, 9), random_walk(30, 10)
        top = discover_top_k_motifs(a, b, min_length=3, k=3)
        exact = discover_motif(a, b, min_length=3)
        assert top[0].distance == pytest.approx(exact.distance)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            discover_top_k_motifs(random_walk(30, 0), min_length=3, k=0)


class TestApproximate:
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.5])
    def test_certificate(self, eps):
        traj = random_walk(50, 11)
        exact = discover_motif(traj, min_length=3, algorithm="brute")
        approx = discover_motif_approximate(traj, min_length=3, epsilon=eps)
        assert approx.distance >= exact.distance - 1e-9
        assert approx.distance <= (1 + eps) * exact.distance + 1e-9
        assert approx.optimum_lower_bound <= exact.distance + 1e-9
        assert approx.epsilon == eps

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            discover_motif_approximate(random_walk(30, 0), min_length=3, epsilon=-0.1)

    def test_large_epsilon_expands_fewer_subsets(self):
        traj = random_walk(80, 12)
        tight = discover_motif_approximate(traj, min_length=4, epsilon=0.0)
        loose = discover_motif_approximate(traj, min_length=4, epsilon=2.0)
        assert (
            loose.result.stats.subsets_expanded
            <= tight.result.stats.subsets_expanded
        )


class TestSimilarityJoin:
    def make_sets(self, seed=0, count=6, n=25):
        rng = np.random.default_rng(seed)
        base = [rng.normal(size=(n, 2)).cumsum(axis=0) for _ in range(count)]
        # Include a near-duplicate so matches exist at small theta.
        base.append(base[0] + 0.05)
        return base

    def test_matches_naive_join(self):
        trajs = self.make_sets()
        for theta in (0.5, 2.0, 8.0):
            matches, stats = similarity_join(trajs, trajs, theta)
            naive = {
                (a, b)
                for a in range(len(trajs))
                for b in range(len(trajs))
                if discrete_frechet(trajs[a], trajs[b]) <= theta
            }
            assert set(matches) == naive
            assert stats.pairs_total == len(trajs) ** 2
            assert stats.matches == len(naive)

    def test_filters_account_for_everything(self):
        trajs = self.make_sets(seed=2)
        _, stats = similarity_join(trajs, trajs, theta=1.0)
        assert stats.pruned_total + stats.decisions == stats.pairs_total

    def test_self_pairs_always_match(self):
        trajs = self.make_sets(seed=3)
        matches, _ = similarity_join(trajs, trajs, theta=0.0)
        assert {(k, k) for k in range(len(trajs))} <= set(matches)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            similarity_join([], [], theta=-1.0)

    def test_filters_actually_fire(self):
        rng = np.random.default_rng(4)
        near = [rng.normal(size=(20, 2)) for _ in range(3)]
        far = [rng.normal(size=(20, 2)) + 500.0 for _ in range(3)]
        _, stats = similarity_join(near, far, theta=1.0)
        assert stats.pruned_endpoint == stats.pairs_total

    def test_chebyshev_join_matches_naive(self):
        rng = np.random.default_rng(9)
        trajs = [rng.integers(0, 8, size=(12, 2)).astype(float)
                 for _ in range(6)]
        for theta in (1.0, 3.0):
            matches, _ = similarity_join(trajs, trajs, theta,
                                         metric="chebyshev")
            naive = {
                (a, b)
                for a in range(len(trajs))
                for b in range(len(trajs))
                if discrete_frechet(trajs[a], trajs[b], metric="chebyshev")
                <= theta
            }
            assert set(matches) == naive

    def test_indexed_join_identical_matches(self):
        trajs = self.make_sets(seed=5)
        for theta in (0.5, 2.0, 8.0):
            ref_matches, _ = similarity_join(trajs, trajs, theta)
            idx_matches, idx_stats = similarity_join(trajs, trajs, theta,
                                                     index=True)
            assert idx_matches == ref_matches
            assert (idx_stats.pruned_total + idx_stats.decisions
                    == idx_stats.pairs_total)
            assert "index" in idx_stats.details

    def test_join_pairs_equals_full_join_on_full_grid(self):
        from repro.extensions.join import join_pairs

        trajs = self.make_sets(seed=6)
        pts = [np.asarray(t, dtype=float) for t in trajs]
        pairs = [(a, b) for a in range(len(pts)) for b in range(len(pts))]
        ref_matches, ref_stats = similarity_join(trajs, trajs, 2.0)
        got_matches, got_stats = join_pairs(
            lambda i: pts[i], lambda i: pts[i], pairs, 2.0
        )
        assert sorted(got_matches) == ref_matches
        assert got_stats.pruned_endpoint == ref_stats.pruned_endpoint
        assert got_stats.decisions == ref_stats.decisions


class TestJoinTopK:
    def make_sets(self, seed=0, count=5, n=18):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(n, 2)).cumsum(axis=0) for _ in range(count)]

    def test_matches_brute_force_ranking(self):
        from repro.extensions.join import join_top_k

        left = self.make_sets(seed=1)
        right = self.make_sets(seed=2)
        brute = sorted(
            (float(discrete_frechet(p, q)), (a, b))
            for a, p in enumerate(left)
            for b, q in enumerate(right)
        )
        for k in (1, 3, 7, 30):
            got = join_top_k(left, right, k)
            want = brute[: min(k, len(brute))]
            assert [pair for _, pair in got] == [pair for _, pair in want]
            assert [d for d, _ in got] == pytest.approx(
                [d for d, _ in want]
            )

    def test_ties_rank_canonically(self):
        from repro.extensions.join import join_top_k

        base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        # Duplicate trajectories force exact distance ties; the (a, b)
        # order must break them deterministically.
        left = [base, base.copy(), base + 10.0]
        got = join_top_k(left, left, 4)
        assert [pair for _, pair in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(d == 0.0 for d, _ in got)

    def test_k_validation(self):
        from repro.extensions.join import join_top_k

        with pytest.raises(ValueError):
            join_top_k([], [], k=0)


class TestClustering:
    def test_figure_eight_forms_clusters(self):
        t = make_trajectory("figure_eight", 256, seed=0)
        clusters = cluster_subtrajectories(
            t, window_length=16, theta=0.5, stride=8
        )
        assert clusters, "laps must cluster"
        # Windows one lap (64 points) apart retrace the same curve.
        biggest = clusters[0]
        assert len(biggest) >= 3

    def test_random_walk_rarely_clusters(self):
        t = random_walk(200, 13)
        clusters = cluster_subtrajectories(
            t, window_length=16, theta=0.05, stride=8
        )
        assert len(clusters) == 0

    def test_no_overlapping_members(self):
        t = make_trajectory("figure_eight", 200, seed=1)
        for cluster in cluster_subtrajectories(
            t, window_length=20, theta=0.5, stride=4
        ):
            members = sorted(cluster.members)
            # Direct neighbours in a cluster may chain, but each linked
            # pair was non-overlapping; at minimum the set is distinct.
            assert len(set(members)) == len(members)

    def test_parameter_validation(self):
        t = random_walk(50, 14)
        with pytest.raises(ReproError):
            cluster_subtrajectories(t, window_length=1, theta=1.0)
        with pytest.raises(ReproError):
            cluster_subtrajectories(t, window_length=5, theta=1.0, stride=0)
        with pytest.raises(ReproError):
            cluster_subtrajectories(t, window_length=5, theta=-2.0)

    def test_min_cluster_size_filter(self):
        t = make_trajectory("figure_eight", 200, seed=2)
        all_clusters = cluster_subtrajectories(
            t, window_length=16, theta=0.6, stride=8, min_cluster_size=2
        )
        big_only = cluster_subtrajectories(
            t, window_length=16, theta=0.6, stride=8, min_cluster_size=4
        )
        assert len(big_only) <= len(all_clusters)
        assert all(len(c) >= 4 for c in big_only)
