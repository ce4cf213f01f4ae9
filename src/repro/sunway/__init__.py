"""Executable model of the Sunway SW26010 many-core processor (§2.1.2).

No Sunway hardware is available to a reproduction, so this package builds
the machine as an explicit, *executable* model in two modules:

* :class:`~repro.sunway.arch.SunwayArch` — the machine description
  (4 core groups x (1 MPE + 64 CPEs), 64 KB CPE local store, DMA between
  main memory and local store, 1.45 GHz) plus the cycle/latency constants
  of the cost model.
* :class:`~repro.sunway.kernel.BlockedEAMKernel` — the EAM force kernel
  executed block-by-block under the paper's four optimization variants
  (traditional table / compacted table / + ghost data reuse / + double
  buffer).  The kernel computes *real forces* (verified against the MD
  engine) while ``SunwayArch`` arithmetic prices each variant: blocks
  sized to the 64 KB local store (a plan that does not fit raises
  :class:`~repro.sunway.kernel.LocalStoreOverflow`, exactly like the real
  chip), counted and priced DMA gets/puts, and a 64-thread slab team
  that waits for its slowest slab — the mechanism behind Figure 9.

Importing the package loads nothing: it exports no names; import from
the defining submodule.
"""
