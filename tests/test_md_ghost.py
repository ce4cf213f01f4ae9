"""Ghost exchange tests: static plans, field transport, geometry matching."""

import numpy as np
import pytest

from repro.lattice.bcc import BCCLattice
from repro.lattice.domain import DomainDecomposition
from repro.md.ghost import GhostExchanger
from repro.runtime.simmpi import World

from .md_runaway_oracle import DirectionGhostExchanger


@pytest.fixture(scope="module")
def setup8():
    lattice = BCCLattice(8, 8, 8)
    decomp = DomainDecomposition(lattice, (2, 2, 2))
    width = 2
    per_rank = []
    for rank in range(decomp.nprocs):
        sub = decomp.subdomain(rank)
        owned = sub.owned_site_ranks(lattice)
        ghosts = sub.all_ghost_site_ranks(lattice, width)
        sites = np.union1d(owned, ghosts)
        per_rank.append((sub, owned, sites))
    return lattice, decomp, width, per_rank


class TestPlans:
    def test_plans_skip_self_neighbors(self, setup8):
        lattice, decomp, width, per_rank = setup8
        _sub, _owned, sites = per_rank[0]
        ex = GhostExchanger(decomp, 0, sites, width)
        assert all(p.neighbor != 0 for p in ex.plans)

    def test_single_rank_has_no_plans(self):
        lattice = BCCLattice(8, 8, 8)
        decomp = DomainDecomposition(lattice, (1, 1, 1))
        sub = decomp.subdomain(0)
        sites = sub.owned_site_ranks(lattice)
        ex = GhostExchanger(decomp, 0, sites, 2)
        assert ex.plans == []

    def test_send_recv_row_counts_match_across_ranks(self, setup8):
        lattice, decomp, width, per_rank = setup8
        exchangers = [
            GhostExchanger(decomp, r, per_rank[r][2], width)
            for r in range(decomp.nprocs)
        ]
        for r, ex in enumerate(exchangers):
            for plan in ex.plans:
                # The peer's one plan for us receives what we send it.
                (peer_plan,) = (
                    p for p in exchangers[plan.neighbor].plans if p.neighbor == r
                )
                assert len(peer_plan.recv_rows) == len(plan.send_rows)

    def test_one_plan_per_neighbor_rank(self, setup8):
        """2x2x2: the 26 directions lead to 7 distinct ranks; a rank posts
        7 messages per phase, not 26, and ships no row twice."""
        lattice, decomp, width, per_rank = setup8
        for rank in range(decomp.nprocs):
            ex = GhostExchanger(decomp, rank, per_rank[rank][2], width)
            old = DirectionGhostExchanger(decomp, rank, per_rank[rank][2], width)
            assert len(old.plans) == 26
            assert [p.neighbor for p in ex.plans] == sorted(
                {p.neighbor for p in old.plans}
            )
            assert len(ex.plans) == 7
            for plan in ex.plans:
                assert np.all(np.diff(plan.send_rows) > 0)
                assert np.all(np.diff(plan.recv_rows) > 0)
            # Opposite directions lead to one rank but name disjoint rows
            # here (4-cell subdomains, width 2): nothing was sent twice
            # before either, so the bytes are unchanged.
            assert ex.bytes_per_exchange_estimate == old.bytes_per_exchange_estimate

    def test_missing_ranks_rejected(self, setup8):
        lattice, decomp, width, per_rank = setup8
        _sub, owned, _sites = per_rank[0]
        # Sites without the ghost shell: recv rows can't be located.
        with pytest.raises(ValueError, match="not present"):
            GhostExchanger(decomp, 0, owned, width)


class TestExchange:
    def test_ghosts_receive_owner_values(self, setup8, world_backend):
        lattice, decomp, width, per_rank = setup8

        def main(comm):
            sub, owned, sites = per_rank[comm.rank]
            ex = GhostExchanger(decomp, comm.rank, sites, width)
            # Field = the owner rank stamped on owned rows.
            field = np.full(len(sites), -1.0)
            central_rows = np.searchsorted(sites, owned)
            field[central_rows] = comm.rank
            ex.exchange(comm, 0, [field])
            # Every ghost row now carries its owner's stamp.
            for row, rank_value in enumerate(field):
                owner = decomp.owner_of_site(int(sites[row]))
                assert rank_value == owner, (row, rank_value, owner)
            return True

        assert all(World(decomp.nprocs, **world_backend).run(main))

    def test_vector_field_roundtrip(self, setup8, world_backend):
        lattice, decomp, width, per_rank = setup8
        positions = lattice.all_positions()

        def main(comm):
            sub, owned, sites = per_rank[comm.rank]
            ex = GhostExchanger(decomp, comm.rank, sites, width)
            x = np.zeros((len(sites), 3))
            central_rows = np.searchsorted(sites, owned)
            x[central_rows] = positions[owned]
            ex.exchange(comm, 0, [x])
            # Ghost rows must equal the global positions of their sites.
            assert np.allclose(x, positions[sites])
            return True

        assert all(World(decomp.nprocs, **world_backend).run(main))

    def test_two_simultaneous_phases_do_not_collide(self, setup8, world_backend):
        lattice, decomp, width, per_rank = setup8

        def main(comm):
            sub, owned, sites = per_rank[comm.rank]
            ex = GhostExchanger(decomp, comm.rank, sites, width)
            central = np.searchsorted(sites, owned)
            a = np.zeros(len(sites))
            b = np.zeros(len(sites))
            a[central] = 1.0 + comm.rank
            b[central] = -1.0 - comm.rank
            ex.exchange(comm, 0, [a])
            ex.exchange(comm, 100, [b])
            assert np.all(a[a != 0] > 0)
            assert np.all(b[b != 0] < 0)
            return True

        assert all(World(decomp.nprocs, **world_backend).run(main))

    def test_traffic_volume_matches_plan(self, setup8, world_backend):
        lattice, decomp, width, per_rank = setup8

        def main(comm):
            _sub, _owned, sites = per_rank[comm.rank]
            ex = GhostExchanger(decomp, comm.rank, sites, width)
            x = np.zeros((len(sites), 3))
            ex.exchange(comm, 0, [x])
            return ex.bytes_per_exchange_estimate

        w = World(decomp.nprocs, **world_backend)
        estimates = w.run(main)
        assert w.stats.total_sent_bytes == sum(estimates)


class TestAgainstDirectionOracle:
    """One deduplicated message per neighbor rank fills every ghost row
    with what the per-direction exchange (26 messages, aliased
    directions re-sending rows) filled it with."""

    @pytest.mark.parametrize(
        "cells,grid,neighbors",
        [
            ((12, 12, 12), (2, 1, 1), 1),
            ((8, 8, 8), (2, 2, 2), 7),
            ((12, 8, 8), (4, 2, 2), 11),
        ],
    )
    def test_same_ghost_values_fewer_messages(
        self, cells, grid, neighbors, world_backend
    ):
        lattice = BCCLattice(*cells)
        decomp = DomainDecomposition(lattice, grid)
        width = 3
        rng = np.random.default_rng(22)
        x_global = rng.normal(size=(lattice.nsites, 3))
        ids_global = rng.integers(-1, 1000, lattice.nsites).astype(float)

        def fields(comm):
            site_set, owned = decomp.subdomain(comm.rank).site_set(lattice, width)
            sites = site_set.ranks
            x = np.full((len(sites), 3), np.nan)
            ids = np.full(len(sites), np.nan)
            x[owned] = x_global[sites[owned]]
            ids[owned] = ids_global[sites[owned]]
            return sites, x, ids

        def main(comm):
            sites, x, ids = fields(comm)
            ex = GhostExchanger(decomp, comm.rank, sites, width)
            tails = ex.exchange(comm, 0, [x, ids])
            assert tails == [[] for _ in ex.plans]
            return x, ids, len(ex.plans), ex.bytes_per_exchange_estimate

        def oracle(comm):
            sites, x, ids = fields(comm)
            ex = DirectionGhostExchanger(decomp, comm.rank, sites, width)
            ex.exchange(comm, 0, [x, ids])
            return x, ids, len(ex.plans), ex.bytes_per_exchange_estimate

        new_world = World(decomp.nprocs, **world_backend)
        old_world = World(decomp.nprocs, **world_backend)
        got, want = new_world.run(main), old_world.run(oracle)
        for rank, ((x, ids, plans, est), (ox, oids, oplans, oest)) in enumerate(
            zip(got, want, strict=True)
        ):
            sites = decomp.subdomain(rank).site_set(lattice, width)[0].ranks
            # Every row filled, with its owner's value, as the oracle did.
            assert np.array_equal(x, x_global[sites])
            assert np.array_equal(ids, ids_global[sites])
            assert np.array_equal(x, ox) and np.array_equal(ids, oids)
            assert plans == neighbors and plans <= oplans
            assert est <= oest
        assert new_world.stats.total_messages == decomp.nprocs * neighbors
        assert old_world.stats.total_messages == sum(w[2] for w in want)
        # Estimate == metered bytes: x is 24 bytes a row, ids 8 more.
        sent = sum(g[3] for g in got)
        assert new_world.stats.total_sent_bytes == sent + sent // 3

    def test_tails_ride_on_the_same_message(self, world_backend):
        lattice = BCCLattice(12, 12, 12)
        decomp = DomainDecomposition(lattice, (2, 1, 1))

        def main(comm):
            sites = decomp.subdomain(comm.rank).site_set(lattice, 3)[0].ranks
            ex = GhostExchanger(decomp, comm.rank, sites, 3)
            rho = np.zeros(len(sites))
            tail = (np.arange(3) + 10 * comm.rank, np.full((2, 3), comm.rank))
            ((ids, x),) = ex.exchange(comm, 7, [rho], [tail])
            other = 1 - comm.rank
            assert np.array_equal(ids, np.arange(3) + 10 * other)
            assert np.array_equal(x, np.full((2, 3), other))
            return True

        world = World(2, **world_backend)
        assert all(world.run(main))
        assert world.stats.total_messages == 2
