"""Alloy table sets and local-store residency planning (§2.1.2 alloys)."""

import pytest

from repro.potential.alloy import (
    AlloyTables,
    make_fe_cu_alloy,
    plan_local_store_residency,
)


@pytest.fixture(scope="module")
def fecu():
    return make_fe_cu_alloy(cu_fraction=0.01, n=5000)


class TestAlloyTables:
    def test_three_pair_table_sets(self, fecu):
        # "there are three kinds of electron cloud density tables, for the
        # atomic pairs of Fe-Fe, Cu-Cu, and Fe-Cu".
        assert fecu.npairs == 3
        assert len(fecu.pair_tables) == 3

    def test_concentrations_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AlloyTables(species=("Fe", "Cu"), concentrations={"Fe": 0.5, "Cu": 0.2})

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            AlloyTables(
                species=("Fe", "Cu"), concentrations={"Fe": 1.2, "Cu": -0.2}
            )

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="cu_fraction"):
            make_fe_cu_alloy(cu_fraction=1.5)

    def test_bond_weights_sum_to_one_per_table_kind(self, fecu):
        pair_weights = [
            w for label, _b, w in fecu.table_inventory() if label.endswith(":pair")
        ]
        assert sum(pair_weights) == pytest.approx(1.0)

    def test_fefe_pair_dominates_dilute_alloy(self, fecu):
        inv = {label: w for label, _b, w in fecu.table_inventory()}
        assert inv["Fe-Fe:pair"] > inv["Cu-Fe:pair"] > inv["Cu-Cu:pair"]


class TestResidencyPlanning:
    def test_only_dominant_table_fits_64kb(self, fecu):
        # The paper's scenario: the 64 KB local store holds exactly one
        # 39 KB compacted table, so only the highest-content element's
        # table is resident and everything else stays in main memory.
        plan = plan_local_store_residency(fecu, capacity_bytes=64 * 1024)
        assert len(plan.resident) == 1
        assert plan.resident[0].startswith("Fe-Fe")
        assert len(plan.main_memory) == len(fecu.table_inventory()) - 1

    def test_hit_weight_matches_fe_bond_fraction(self, fecu):
        plan = plan_local_store_residency(fecu, capacity_bytes=64 * 1024)
        assert plan.hit_weight == pytest.approx(0.99**2)

    def test_larger_store_fits_everything(self, fecu):
        plan = plan_local_store_residency(fecu, capacity_bytes=512 * 1024)
        assert plan.main_memory == ()
        assert len(plan.resident) == len(fecu.table_inventory())

    def test_resident_bytes_within_budget(self, fecu):
        cap = 64 * 1024
        plan = plan_local_store_residency(fecu, capacity_bytes=cap)
        assert plan.resident_bytes <= cap - 16 * 1024

    def test_reserve_must_leave_room(self, fecu):
        with pytest.raises(ValueError, match="capacity"):
            plan_local_store_residency(
                fecu, capacity_bytes=8 * 1024, reserve_bytes=16 * 1024
            )

    def test_balanced_alloy_prefers_cross_pair(self):
        alloy = make_fe_cu_alloy(cu_fraction=0.5, n=5000)
        plan = plan_local_store_residency(alloy, capacity_bytes=64 * 1024)
        # At 50/50 the cross pair carries weight 2*c1*c2 = 0.5 — the most
        # frequently used tables.
        assert plan.resident[0].startswith("Cu-Fe")
