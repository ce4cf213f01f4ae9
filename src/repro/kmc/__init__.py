"""Atomistic Kinetic Monte Carlo (paper §2.2).

AKMC "uses an on-lattice approximation method to map each atom or vacancy
to a lattice point"; events are vacancy/atom exchanges between first-shell
BCC neighbors, with transition rates from Equation (4):

    k_ij = nu * exp(-dE_ij / (kB * T))

where the migration energy ``dE_ij`` is computed from the EAM potential.

Parallelization follows the semirigorous synchronous sublattice method of
Shim & Amar [26]: each subdomain is split into 8 sectors processed
sequentially so concurrently active regions on different processes never
conflict (Figure 7).  After each sector, ghost sites are reconciled with
the neighbors through one of three interchangeable communication schemes:

* :class:`~repro.kmc.comm.TraditionalExchange` — the SPPARKS/KMCLib
  two-phase full-strip exchange (Figures 8b, 8c).
* :class:`~repro.kmc.ondemand.OnDemandExchange` — the paper's §2.2.1
  contribution: only event-affected sites travel, via two-sided
  probe/recv (Figure 8d).
* :class:`~repro.kmc.onesided.OneSidedExchange` — the same on-demand
  strategy over one-sided put + fence, eliminating zero-size messages.

All three produce bitwise-identical trajectories (asserted by tests);
they differ only in measured communication volume and modeled time.

There is one serial engine (:class:`~repro.kmc.akmc.SerialAKMC`, exact
BKL) and one parallel engine (:class:`~repro.kmc.akmc.ParallelAKMC`),
both over one rate model, :class:`~repro.kmc.events.KMCModel` (BCC iron,
the only material the paper evaluates), and every event is selected
through the incremental :class:`~repro.kmc.catalog.EventCatalog`.

The package exports nothing: import from the submodule that defines the
name (``from repro.kmc.akmc import SerialAKMC``), so a serial run loads
no exchange scheme, sector geometry or message runtime.
"""
