"""Sector schedule tests: geometry, strip sets, conflict-freedom."""

import numpy as np
import pytest

from repro.kmc import sublattice
from repro.kmc.akmc import ParallelAKMC
from repro.kmc.events import RateParameters
from repro.kmc.sublattice import SectorSchedule
from repro.lattice.bcc import BCCLattice
from repro.lattice.domain import DomainDecomposition
from tests.kmc_strip_oracle import interest_masks, strip_sets


def kmc_width(lattice, potential, params=None) -> int:
    """The parallel engine's rate-stencil ghost width on ``lattice``."""
    return ParallelAKMC(lattice, potential, params, nranks=1).width


@pytest.fixture(scope="module")
def schedules8(potential):
    lattice = BCCLattice(8, 8, 8)
    decomp = DomainDecomposition(lattice, (2, 2, 2))
    width = kmc_width(lattice, potential)
    out = []
    for rank in range(decomp.nprocs):
        sub = decomp.subdomain(rank)
        owned = sub.owned_site_ranks(lattice)
        ghosts = sub.all_ghost_site_ranks(lattice, width)
        sites = np.union1d(owned, ghosts)
        out.append(SectorSchedule(decomp, rank, sites, width))
    return lattice, decomp, width, out


class TestGeometry:
    def test_ghost_width_for_default_params(self, potential):
        lattice = BCCLattice(8, 8, 8)
        assert kmc_width(lattice, potential) == 2

    def test_eight_sectors(self, schedules8):
        _lat, _dec, _w, scheds = schedules8
        assert all(s.nsectors == 8 for s in scheds)

    def test_sector_rows_partition_owned(self, schedules8):
        lattice, decomp, _w, scheds = schedules8
        for rank, sched in enumerate(scheds):
            owned = decomp.subdomain(rank).owned_site_ranks(lattice)
            merged = np.sort(np.concatenate(sched.sector_rows))
            owned_rows = np.searchsorted(sched.sites, owned)
            assert np.array_equal(merged, np.sort(owned_rows))

    def test_rate_stencil_widens_traditional_strips(self, potential):
        # A wider energy stencil inflates the strips the traditional
        # scheme ships every cycle; the on-demand scheme is immune.
        lattice = BCCLattice(12, 12, 12)
        decomp = DomainDecomposition(lattice, (2, 2, 2))
        sub = decomp.subdomain(0)
        strips = []
        for cutoff in (2.5, 2.9, 4.1):
            width = kmc_width(
                lattice, potential, RateParameters(energy_cutoff=cutoff)
            )
            sites = np.union1d(
                sub.owned_site_ranks(lattice),
                sub.all_ghost_site_ranks(lattice, width),
            )
            sched = SectorSchedule(decomp, 0, sites, width)
            strips.append(sched.traditional_strip_sites())
        assert strips[0] <= strips[1] < strips[2]

    def test_too_small_subdomain_rejected(self):
        lattice = BCCLattice(4, 4, 4)
        decomp = DomainDecomposition(lattice, (2, 2, 2))
        sub = decomp.subdomain(0)
        sites = np.union1d(
            sub.owned_site_ranks(lattice),
            sub.all_ghost_site_ranks(lattice, 2),
        )
        with pytest.raises(ValueError, match="2\\*width"):
            SectorSchedule(decomp, 0, sites, 2)

    def test_neighbors_deduplicated(self, schedules8):
        _lat, _dec, _w, scheds = schedules8
        # On a 2^3 grid every other rank is a neighbor exactly once.
        assert scheds[0].neighbors == list(range(1, 8))


class TestStrips:
    def test_get_strips_pair_up(self, schedules8):
        # My get_send to n for sector s == n's get_recv from me.
        _lat, _dec, _w, scheds = schedules8
        for rank, sched in enumerate(scheds):
            for s in range(8):
                for sc in sched.sector_comm[s]:
                    peer = scheds[sc.neighbor]
                    peer_sc = next(
                        p for p in peer.sector_comm[s] if p.neighbor == rank
                    )
                    sent = sched.sites[sc.get_send_rows]
                    received = peer.sites[peer_sc.get_recv_rows]
                    assert np.array_equal(sent, received)

    def test_put_strips_pair_up(self, schedules8):
        _lat, _dec, _w, scheds = schedules8
        for rank, sched in enumerate(scheds):
            for s in (0, 5):
                for sc in sched.sector_comm[s]:
                    peer = scheds[sc.neighbor]
                    peer_sc = next(
                        p for p in peer.sector_comm[s] if p.neighbor == rank
                    )
                    assert np.array_equal(
                        sched.sites[sc.put_send_rows],
                        peer.sites[peer_sc.put_recv_rows],
                    )

    def test_put_strips_within_get_strips(self, schedules8):
        # Event reach (1 cell) is a subset of the rate stencil (2 cells).
        _lat, _dec, _w, scheds = schedules8
        sched = scheds[0]
        for s in range(8):
            for sc in sched.sector_comm[s]:
                assert set(sc.put_send_rows.tolist()) <= set(
                    sc.get_recv_rows.tolist()
                )

    def test_concurrent_event_reach_disjoint(self, schedules8):
        # The conflict-freedom invariant of synchronous sublattices: for
        # each sector position, the event-reach envelopes (sector + 1
        # cell) of different ranks never overlap.
        lattice, decomp, _w, scheds = schedules8
        for s in range(8):
            envelopes = []
            for rank in range(decomp.nprocs):
                sector = decomp.subdomain(rank).sectors()[s]
                env = np.union1d(
                    sector.owned_site_ranks(lattice),
                    sector.all_ghost_site_ranks(lattice, 1),
                )
                envelopes.append(set(env.tolist()))
            for a in range(len(envelopes)):
                for b in range(a + 1, len(envelopes)):
                    assert envelopes[a].isdisjoint(envelopes[b]), (s, a, b)

    def test_interest_rows_filter(self, schedules8):
        _lat, decomp, w, scheds = schedules8
        sched = scheds[0]
        dirty = np.arange(len(sched.sites), dtype=np.int64)
        filtered = sched.interest_rows(1, dirty)
        visible = interest_masks(decomp, 0, sched.sites, w)[1]
        assert np.array_equal(filtered, np.flatnonzero(visible))

    def test_traditional_strip_volume_positive(self, schedules8):
        _lat, _dec, _w, scheds = schedules8
        assert scheds[0].traditional_strip_sites() > 0


STRIP_FIELDS = ("get_send_rows", "get_recv_rows", "put_send_rows", "put_recv_rows")


class TestStripOracle:
    """The row-label builder against the set-algebra construction it
    replaced (``tests/kmc_strip_oracle.py``): same arrays, same dtype."""

    @pytest.mark.parametrize(
        "cells, grid",
        [
            ((8, 8, 8), (2, 2, 2)),
            ((12, 12, 12), (2, 2, 2)),
            ((16, 16, 16), (2, 2, 2)),
            ((8, 12, 16), (2, 2, 2)),  # non-cubic
            ((16, 8, 8), (4, 2, 2)),  # +y/-y and +z/-z alias to one rank
            ((8, 9, 11), (1, 2, 2)),  # x wraps onto the rank itself; odd halves
        ],
    )
    def test_every_strip_equals_the_oracle(self, cells, grid, potential):
        lattice = BCCLattice(*cells)
        decomp = DomainDecomposition(lattice, grid)
        width = kmc_width(lattice, potential)
        for rank in range(decomp.nprocs):
            sub = decomp.subdomain(rank)
            sites = np.union1d(
                sub.owned_site_ranks(lattice),
                sub.all_ghost_site_ranks(lattice, width),
            )
            sched = SectorSchedule(decomp, rank, sites, width)
            expected = strip_sets(decomp, rank, sites, width)
            assert len(sched.sector_comm) == len(expected) == 8
            for s, (got_s, want_s) in enumerate(
                zip(sched.sector_comm, expected, strict=True)
            ):
                assert [sc.neighbor for sc in got_s] == sched.neighbors
                for got, want in zip(got_s, want_s, strict=True):
                    assert got.neighbor == want.neighbor
                    for name in STRIP_FIELDS:
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype, (rank, s, got.neighbor, name)
                        assert np.array_equal(a, b), (rank, s, got.neighbor, name)

    def test_strip_volume_follows_the_strips(self, schedules8):
        lattice, decomp, width, scheds = schedules8
        expected = strip_sets(decomp, 0, scheds[0].sites, width)
        assert scheds[0].traditional_strip_sites() == sum(
            len(getattr(sc, name))
            for per_neighbor in expected
            for sc in per_neighbor
            for name in STRIP_FIELDS
        )


class TestWhoBuildsStrips:
    """Only the traditional scheme reads the strip sets, so only it may
    build them: with the builder broken, the two on-demand schemes run
    on, bit-identically; the traditional one cannot."""

    @pytest.fixture()
    def broken_builder(self, monkeypatch):
        def no_strips(schedule):
            raise AssertionError("a strip set was built")

        monkeypatch.setattr(sublattice, "_strip_sets", no_strips)

    def _engine(self, lattice8, potential, rate_params, scheme, world_backend):
        # The workload of the ``parallel_kmc_results`` fixture.
        return ParallelAKMC(
            lattice8, potential, rate_params, nranks=8, scheme=scheme, seed=5,
            **world_backend,
        )

    @pytest.mark.parametrize("scheme", ["ondemand", "onesided"])
    def test_on_demand_schemes_never_ask(
        self, scheme, broken_builder, lattice8, potential, rate_params,
        kmc_initial_occ, parallel_kmc_results, world_backend,
    ):
        engine = self._engine(
            lattice8, potential, rate_params, scheme, world_backend
        )
        got = engine.run(kmc_initial_occ, max_cycles=10)
        want = parallel_kmc_results[scheme]
        assert np.array_equal(got.occupancy, want.occupancy)
        assert (got.time, got.cycles, got.events) == (
            want.time, want.cycles, want.events,
        )
        assert got.comm_stats["total_messages"] == (
            want.comm_stats["total_messages"]
        )
        assert got.comm_stats["total_sent_bytes"] == (
            want.comm_stats["total_sent_bytes"]
        )

    def test_traditional_scheme_does(
        self, broken_builder, lattice8, potential, rate_params, kmc_initial_occ,
        world_backend,
    ):
        engine = self._engine(
            lattice8, potential, rate_params, "traditional", world_backend
        )
        with pytest.raises(RuntimeError, match="a strip set was built"):
            engine.run(kmc_initial_occ, max_cycles=1)
