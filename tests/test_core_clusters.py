"""Vacancy cluster analysis tests (incl. hypothesis partition property)."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clusters import (
    ClusteringReport,
    cluster_sizes,
    clustering_report,
    mean_nn_distance,
    vacancy_clusters,
)
from repro.lattice.bcc import BCCLattice


@pytest.fixture(scope="module")
def lat():
    return BCCLattice(6, 6, 6)


class TestClusters:
    def test_empty_input(self, lat):
        assert vacancy_clusters(lat, np.array([], dtype=np.int64)) == []

    def test_single_vacancy(self, lat):
        clusters = vacancy_clusters(lat, np.array([10]))
        assert clusters == [{10}]

    def test_first_shell_pair_is_one_cluster(self, lat):
        nbr = int(lat.first_shell_ranks(10)[0])
        clusters = vacancy_clusters(lat, np.array([10, nbr]))
        assert clusters == [{10, nbr}]

    def test_second_shell_pair_is_one_cluster(self, lat):
        nbr = int(lat.second_shell_ranks(10)[0])
        clusters = vacancy_clusters(lat, np.array([10, nbr]))
        assert len(clusters) == 1

    def test_distant_pair_two_clusters(self, lat):
        far = int(lat.rank_of(0, 3, 3, 3))
        clusters = vacancy_clusters(lat, np.array([0, far]))
        assert len(clusters) == 2

    def test_chain_connects_transitively(self, lat):
        # A first-shell chain a-b-c forms one cluster even though a and c
        # may not be adjacent.
        a = 10
        b = int(lat.first_shell_ranks(a)[0])
        c = int(lat.first_shell_ranks(b)[1])
        clusters = vacancy_clusters(lat, np.array([a, b, c]))
        assert len(clusters) == 1

    def test_periodic_adjacency(self, lat):
        # Sites adjacent across the periodic boundary cluster together.
        left = int(lat.rank_of(0, 0, 0, 0))
        right = int(lat.rank_of(1, lat.nx - 1, lat.ny - 1, lat.nz - 1))
        clusters = vacancy_clusters(lat, np.array([left, right]))
        assert len(clusters) == 1

    def test_sorted_largest_first(self, lat):
        a = 10
        b = int(lat.first_shell_ranks(a)[0])
        far = int(lat.rank_of(0, 3, 3, 3))
        clusters = vacancy_clusters(lat, np.array([a, b, far]))
        assert len(clusters[0]) == 2

    @given(seed=st.integers(0, 500), n=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_clusters_partition_input(self, lat, seed, n):
        rng = np.random.default_rng(seed)
        ranks = rng.choice(lat.nsites, size=n, replace=False)
        clusters = vacancy_clusters(lat, ranks)
        merged = sorted(r for c in clusters for r in c)
        assert merged == sorted(int(r) for r in ranks)


class TestStatistics:
    def test_cluster_sizes_descending(self, lat):
        sizes = cluster_sizes([{1, 2}, {3}, {4, 5, 6}])
        assert sizes.tolist() == [3, 2, 1]

    def test_mean_nn_distance_pairwise(self, lat):
        nbr = int(lat.first_shell_ranks(10)[0])
        d = mean_nn_distance(lat, np.array([10, nbr]))
        assert d == pytest.approx(math.sqrt(3) / 2 * lat.a)

    def test_mean_nn_distance_undefined_for_one(self, lat):
        assert math.isnan(mean_nn_distance(lat, np.array([5])))

    def test_report_fields(self, lat):
        a = 10
        b = int(lat.first_shell_ranks(a)[0])
        far = int(lat.rank_of(0, 3, 3, 3))
        rep = clustering_report(lat, np.array([a, b, far]))
        assert rep.n_vacancies == 3
        assert rep.n_clusters == 2
        assert rep.max_cluster == 2
        assert rep.mean_cluster == pytest.approx(1.5)
        assert rep.clustered_fraction == pytest.approx(2 / 3)

    def test_report_empty(self, lat):
        rep = clustering_report(lat, np.array([], dtype=np.int64))
        assert rep.n_vacancies == 0
        assert rep.max_cluster == 0
        assert rep.clustered_fraction == 0.0

    def test_report_str(self, lat):
        rep = clustering_report(lat, np.array([10]))
        assert "1 vacancies" in str(rep)

    @pytest.mark.parametrize(
        "ranks, clause",
        [([], "n/a"), ([10], "n/a"), ([10, 11], "2.47 A")],
        ids=["none", "one", "pair"],
    )
    def test_report_str_nn_clause(self, lat, ranks, clause):
        # Without a pair the field stays NaN (result.json keeps it) but
        # the line prints no number.
        rep = clustering_report(lat, np.array(ranks, dtype=np.int64))
        assert str(rep).endswith(f"mean NN distance {clause})")

    def test_custom_bond_distance(self, lat):
        # With a sub-first-shell bond distance nothing clusters.
        nbr = int(lat.first_shell_ranks(10)[0])
        clusters = vacancy_clusters(
            lat, np.array([10, nbr]), bond_distance=1.0
        )
        assert len(clusters) == 2


def _bfs_clusters(lattice, ranks, bond_distance):
    """Oracle: plain BFS over the pairwise minimum-image adjacency.

    Nodes are the distinct ranks in first-occurrence order; components
    come out in first-member order and are then stably sorted by size.
    """
    nodes = list(dict.fromkeys(int(r) for r in ranks))
    pos = {r: lattice.position_of(r) for r in nodes}
    lengths = np.array([lattice.nx, lattice.ny, lattice.nz]) * lattice.a

    def bonded(p, q):
        d = pos[q] - pos[p]
        d -= lengths * np.round(d / lengths)
        return math.sqrt(float(d @ d)) <= bond_distance

    seen: set[int] = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp, frontier = {start}, deque([start])
        while frontier:
            p = frontier.popleft()
            for q in nodes:
                if q not in seen and bonded(p, q):
                    seen.add(q)
                    comp.add(q)
                    frontier.append(q)
        comps.append(comp)
    return sorted(comps, key=len, reverse=True)


# Bond factors (units of a) kept clear of the BCC shell radii
# 0.866, 1, 1.414, 1.658, 1.732, 2 so no pair sits on the threshold.
_BOND_FACTORS = (None, 0.5, 0.9, 1.5, 1.9)


class TestOracleEquivalence:
    @given(
        dims=st.tuples(*[st.integers(3, 6)] * 3),
        raw=st.lists(st.integers(0, 2 * 6**3 - 1), max_size=40),
        bond=st.sampled_from(_BOND_FACTORS),
    )
    @example(dims=(4, 4, 4), raw=[], bond=None)
    @example(dims=(4, 4, 4), raw=[7], bond=0.5)
    @example(dims=(4, 4, 4), raw=[5, 9, 5, 5], bond=None)
    @settings(max_examples=120, deadline=None)
    def test_components_and_order_match_bfs(self, dims, raw, bond):
        lattice = BCCLattice(*dims)
        # Folding onto the lattice makes duplicates common on the small
        # ones, where most bonds also cross the periodic boundary.
        ranks = np.asarray(raw, dtype=np.int64) % lattice.nsites
        bond_distance = None if bond is None else bond * lattice.a
        got = vacancy_clusters(lattice, ranks, bond_distance)
        want = _bfs_clusters(
            lattice, ranks, 1.05 * lattice.a if bond is None else bond_distance
        )
        # List equality: same component sets, size-descending, ties in
        # first-member input order.
        assert got == want
        report = clustering_report(lattice, ranks, bond_distance)
        assert report.n_vacancies == len(ranks)
        assert report.n_clusters == len(want)
        assert report.max_cluster == (len(want[0]) if want else 0)
        if len(ranks) >= 2:
            assert report.mean_nn_distance == mean_nn_distance(lattice, ranks)

    def test_bond_only_through_periodic_boundary(self):
        lattice = BCCLattice(5, 4, 6)
        corner = int(lattice.rank_of(0, 0, 0, 0))
        across = [
            int(lattice.rank_of(1, 4, 3, 5)),  # first shell, all three faces
            int(lattice.rank_of(0, 4, 0, 0)),  # second shell through x
            int(lattice.rank_of(0, 0, 0, 5)),  # second shell through z
        ]
        lone = int(lattice.rank_of(0, 2, 2, 3))
        ranks = np.array([lone, across[1], corner, across[0], across[2]])
        want = [{corner, *across}, {lone}]
        assert vacancy_clusters(lattice, ranks) == want
        assert _bfs_clusters(lattice, ranks, 1.05 * lattice.a) == want

    @pytest.mark.parametrize(
        "dims, ranks, bond_distance, expected",
        [
            (
                (6, 6, 6),
                [0, 431, 360, 15, 45, 68, 158, 196, 239, 314, 327, 359],
                None,
                ClusteringReport(
                    n_vacancies=12, n_clusters=9, max_cluster=4,
                    mean_cluster=1.3333333333333333,
                    clustered_fraction=0.3333333333333333,
                    mean_nn_distance=4.204074242688194,
                ),
            ),
            (
                # Duplicates in the input, non-default bond distance.
                (5, 7, 4),
                [206, 13, 4, 163, 71, 102, 169, 43, 23, 196, 279, 191, 233,
                 116, 206, 13, 4],
                4.2,
                ClusteringReport(
                    n_vacancies=17, n_clusters=9, max_cluster=3,
                    mean_cluster=1.5555555555555556,
                    clustered_fraction=0.5294117647058824,
                    mean_nn_distance=2.5924018359655534,
                ),
            ),
            (
                (8, 8, 8),
                [602, 560, 825, 922, 409, 653, 241, 722, 254, 1007, 574, 873,
                 566, 673, 814, 482, 452, 247, 641, 6, 818, 36, 476, 794, 460,
                 739, 204, 871, 273, 576, 403, 141, 692, 344, 161, 164, 354,
                 222, 177, 362],
                None,
                ClusteringReport(
                    n_vacancies=40, n_clusters=31, max_cluster=3,
                    mean_cluster=1.2903225806451613,
                    clustered_fraction=0.425,
                    mean_nn_distance=3.8936970576009076,
                ),
            ),
        ],
    )
    def test_report_pinned_to_graph_library_values(
        self, dims, ranks, bond_distance, expected
    ):
        # Expected values are what the graph-library implementation
        # produced on these inputs; equality is field-for-field exact.
        report = clustering_report(
            BCCLattice(*dims), np.array(ranks), bond_distance
        )
        assert report == expected
