"""Multi-species (alloy) table sets and local-store residency planning.

§2.1.2 of the paper: "For alloy materials, more interpolation tables are
used, since there are different kinds of interaction for different atomic
pairs. Taking the Fe-Cu alloy as an example, there are three kinds of
electron cloud density tables, for the atomic pairs of Fe-Fe, Cu-Cu, and
Fe-Cu ... we only load the compacted table for the element with the
highest content in the local store, since it would be the most frequently
used, and leave the other tables in the main memory."

:class:`AlloyTables` holds per-pair and per-species tables;
:func:`plan_local_store_residency` reproduces the paper's residency policy
against a capacity budget (the CPE's 64 KB local store).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.potential.eam import TableSet
from repro.potential.fe import FeParameters, make_fe_tables


def _pair_key(s1: str, s2: str) -> tuple[str, str]:
    """Canonical unordered species-pair key (interactions are symmetric)."""
    return (s1, s2) if s1 <= s2 else (s2, s1)


@dataclass
class AlloyTables:
    """Interpolation tables of a multi-species EAM system.

    Attributes
    ----------
    species:
        Species symbols, e.g. ``("Fe", "Cu")``.
    concentrations:
        Atomic fraction of each species (sums to 1).
    pair_tables:
        Pair-potential and cross-density tables keyed by unordered pair.
    embedding_tables:
        Per-species embedding tables.
    """

    species: tuple[str, ...]
    concentrations: dict[str, float]
    pair_tables: dict[tuple[str, str], TableSet] = field(default_factory=dict)
    embedding_tables: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.concentrations.get(s, 0.0) for s in self.species)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"species concentrations must sum to 1, got {total}"
            )
        for s, c in self.concentrations.items():
            if c < 0:
                raise ValueError(f"negative concentration for {s}: {c}")

    @property
    def npairs(self) -> int:
        """Number of distinct unordered species pairs (k*(k+1)/2)."""
        k = len(self.species)
        return k * (k + 1) // 2

    def table_inventory(self) -> list[tuple[str, int, float]]:
        """(label, payload bytes, access weight) of every *individual* table.

        The residency unit is one table — exactly the paper's "we only
        load the compacted table for the element with the highest content"
        — because a 64 KB local store cannot hold even one full pair's
        three-table set.  The access weight of a pair table is the
        probability that a random bond involves that pair (``2*c1*c2``
        off-diagonal, ``c^2`` on-diagonal); embedding tables are queried
        once per atom rather than per bond, hence the lower weight.
        """
        rows = []
        for (s1, s2), tabs in sorted(self.pair_tables.items()):
            c1 = self.concentrations[s1]
            c2 = self.concentrations[s2]
            weight = c1 * c1 if s1 == s2 else 2.0 * c1 * c2
            rows.append((f"{s1}-{s2}:pair", tabs.pair.nbytes, weight))
            rows.append((f"{s1}-{s2}:density", tabs.density.nbytes, weight))
        for s in self.species:
            if s in self.embedding_tables:
                rows.append(
                    (
                        f"{s}:embedding",
                        self.embedding_tables[s].nbytes,
                        0.25 * self.concentrations[s],
                    )
                )
        return rows


def make_fe_cu_alloy(
    cu_fraction: float = 0.01,
    n: int = 5000,
    layout: str = "compacted",
) -> AlloyTables:
    """A dilute Fe-Cu alloy table system (the paper's worked example).

    The Cu-Cu and Fe-Cu interactions derive from the calibrated Fe model:
    Cu bonds slightly weaker, and the cross pair weaker still so that
    mixing carries an energy penalty (2*phi_FeCu > phi_FeFe + phi_CuCu in
    well depth) — the demixing thermodynamics behind Cu precipitation in
    alpha-Fe, the phenomenon of the paper's timescale reference [2]
    (Castin, Pascuet & Malerba 2011).
    """
    if not 0.0 <= cu_fraction <= 1.0:
        raise ValueError(f"cu_fraction must be in [0, 1], got {cu_fraction}")
    fe = FeParameters()
    cu = FeParameters(d_morse=0.85 * fe.d_morse, f0=0.90)
    fecu = FeParameters(d_morse=0.72 * fe.d_morse, f0=0.95)
    alloy = AlloyTables(
        species=("Fe", "Cu"),
        concentrations={"Fe": 1.0 - cu_fraction, "Cu": cu_fraction},
    )
    alloy.pair_tables[_pair_key("Fe", "Fe")] = make_fe_tables(fe, n=n, layout=layout)
    alloy.pair_tables[_pair_key("Cu", "Cu")] = make_fe_tables(cu, n=n, layout=layout)
    alloy.pair_tables[_pair_key("Fe", "Cu")] = make_fe_tables(fecu, n=n, layout=layout)
    alloy.embedding_tables["Fe"] = alloy.pair_tables[_pair_key("Fe", "Fe")].embedding
    alloy.embedding_tables["Cu"] = alloy.pair_tables[_pair_key("Cu", "Cu")].embedding
    return alloy


@dataclass(frozen=True)
class ResidencyPlan:
    """Outcome of local-store residency planning.

    ``resident`` table-set labels fit in the local store and are loaded
    once; ``main_memory`` labels stay in main memory and pay per-access
    DMA.  ``resident_bytes`` is the budget actually consumed;
    ``hit_weight`` is the fraction of bond evaluations served from the
    local store.
    """

    resident: tuple[str, ...]
    main_memory: tuple[str, ...]
    resident_bytes: int
    hit_weight: float


def plan_local_store_residency(
    alloy: AlloyTables,
    capacity_bytes: int,
    reserve_bytes: int = 16 * 1024,
) -> ResidencyPlan:
    """Choose which table sets live in the CPE local store.

    Greedy by access weight (bond probability), exactly the paper's
    heuristic generalized: "only load the compacted table for the element
    with the highest content in the local store, since it would be the
    most frequently used, and leave the other tables in the main memory."
    ``reserve_bytes`` is kept free for atom-block buffers.
    """
    if capacity_bytes <= reserve_bytes:
        raise ValueError(
            f"capacity {capacity_bytes} does not exceed reserve {reserve_bytes}"
        )
    budget = capacity_bytes - reserve_bytes
    inventory = sorted(alloy.table_inventory(), key=lambda row: -row[2])
    resident: list[str] = []
    spill: list[str] = []
    used = 0
    hit = 0.0
    for label, nbytes, weight in inventory:
        if used + nbytes <= budget:
            resident.append(label)
            used += nbytes
            hit += weight
        else:
            spill.append(label)
    return ResidencyPlan(
        resident=tuple(resident),
        main_memory=tuple(spill),
        resident_bytes=used,
        hit_weight=hit,
    )
