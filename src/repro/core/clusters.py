"""Vacancy cluster identification and clustering statistics.

The paper's Figure 17 shows the scientific payoff of the coupled pipeline:
vacancies are "very dispersive" after MD and form clusters after KMC.  We
quantify that with connected-component analysis over the vacancy adjacency
graph (two vacancies are bonded when within a neighbor-shell distance) and
dispersion metrics on the vacancy point cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box


def _pair_distances(lattice: BCCLattice, vacancy_ranks: np.ndarray) -> np.ndarray:
    """Minimum-image distance matrix of a vacancy set (O(V^2): fine at
    vacancy concentrations of 1e-6..1e-4, small counts by construction)."""
    box = Box.for_lattice(lattice)
    pos = lattice.position_of(vacancy_ranks)
    delta = box.minimum_image(pos[None, :, :] - pos[:, None, :])
    return np.linalg.norm(delta, axis=-1)


def _components(
    lattice: BCCLattice,
    vacancy_ranks: np.ndarray,
    dist: np.ndarray,
    bond_distance: float | None,
) -> list[set[int]]:
    """Connected components of the ``dist <= bond_distance`` graph."""
    if len(vacancy_ranks) == 0:
        return []
    if bond_distance is None:
        bond_distance = 1.05 * lattice.a
    ii, jj = np.nonzero(np.triu(dist <= bond_distance, k=1))
    # Union-find on arrays: hook the larger root of every edge under the
    # smaller, halve the paths, repeat until nothing moves.  parent[x] <= x
    # throughout, so each component ends up rooted at its first member.
    parent = np.arange(len(vacancy_ranks))
    while True:
        pi, pj = parent[ii], parent[jj]
        hooked = parent.copy()
        np.minimum.at(hooked, pi, pj)
        np.minimum.at(hooked, pj, pi)
        hooked = hooked[hooked]
        if np.array_equal(hooked, parent):
            break
        parent = hooked
    order = np.argsort(parent, kind="stable")
    starts = np.flatnonzero(np.diff(parent[order])) + 1
    comps = [set(c.tolist()) for c in np.split(vacancy_ranks[order], starts)]
    return sorted(comps, key=len, reverse=True)


def _mean_nn(dist: np.ndarray) -> float:
    """Mean over rows of the smallest off-diagonal entry (overwrites the diagonal)."""
    if len(dist) < 2:
        return math.nan
    np.fill_diagonal(dist, np.inf)
    return float(np.mean(np.min(dist, axis=1)))


def vacancy_clusters(
    lattice: BCCLattice,
    vacancy_ranks: np.ndarray,
    bond_distance: float | None = None,
) -> list[set[int]]:
    """Partition vacancies into clusters of mutually adjacent sites.

    Two vacancies belong to the same cluster when connected through a
    chain of pairs within ``bond_distance`` (default: just past the second
    BCC shell, the conventional nearest-neighbor cluster criterion).
    Returns a list of site-rank sets, largest first.
    """
    vacancy_ranks = np.asarray(vacancy_ranks, dtype=np.int64)
    dist = _pair_distances(lattice, vacancy_ranks)
    return _components(lattice, vacancy_ranks, dist, bond_distance)


def cluster_sizes(clusters: list[set[int]]) -> np.ndarray:
    """Cluster sizes, descending."""
    return np.asarray(sorted((len(c) for c in clusters), reverse=True), dtype=int)


def mean_nn_distance(lattice: BCCLattice, vacancy_ranks: np.ndarray) -> float:
    """Mean nearest-neighbor distance among vacancies (dispersion metric).

    Large when vacancies are scattered; shrinks toward the first-shell
    distance as they aggregate.
    """
    vacancy_ranks = np.asarray(vacancy_ranks, dtype=np.int64)
    return _mean_nn(_pair_distances(lattice, vacancy_ranks))


@dataclass(frozen=True)
class ClusteringReport:
    """Summary statistics of a vacancy configuration."""

    n_vacancies: int
    n_clusters: int
    max_cluster: int
    mean_cluster: float
    clustered_fraction: float
    mean_nn_distance: float

    def __str__(self) -> str:
        # Below two vacancies there is no pair; the field stays NaN.
        nn = (
            f"{self.mean_nn_distance:.2f} A" if self.n_vacancies >= 2 else "n/a"
        )
        return (
            f"{self.n_vacancies} vacancies in {self.n_clusters} clusters "
            f"(max {self.max_cluster}, mean {self.mean_cluster:.2f}, "
            f"{100 * self.clustered_fraction:.0f}% in clusters >= 2, "
            f"mean NN distance {nn})"
        )


def clustering_report(
    lattice: BCCLattice,
    vacancy_ranks: np.ndarray,
    bond_distance: float | None = None,
) -> ClusteringReport:
    """Compute the full clustering summary of a vacancy set."""
    vacancy_ranks = np.asarray(vacancy_ranks, dtype=np.int64)
    dist = _pair_distances(lattice, vacancy_ranks)
    clusters = _components(lattice, vacancy_ranks, dist, bond_distance)
    sizes = cluster_sizes(clusters)
    n = len(vacancy_ranks)
    clustered = int(np.sum(sizes[sizes >= 2])) if len(sizes) else 0
    return ClusteringReport(
        n_vacancies=n,
        n_clusters=len(clusters),
        max_cluster=int(sizes[0]) if len(sizes) else 0,
        mean_cluster=float(np.mean(sizes)) if len(sizes) else 0.0,
        clustered_fraction=clustered / n if n else 0.0,
        mean_nn_distance=_mean_nn(dist),
    )


def clustering_report_from_store(
    store,
    frame: int = -1,
    bond_distance: float | None = None,
) -> ClusteringReport:
    """Clustering summary of one frame of an on-disk trajectory store.

    ``store`` is a :class:`repro.io.store.TrajectoryReader` or a path to
    a store directory.  Only the requested frame's chunk is decoded —
    analysis stays out-of-core no matter how long the trajectory is.
    ``frame`` indexes like a sequence (negative counts from the end).
    """
    from repro.io.store import TrajectoryReader

    reader = store if isinstance(store, TrajectoryReader) else TrajectoryReader(store)
    return clustering_report(
        reader.lattice, reader.vacancy_ranks(frame), bond_distance
    )
