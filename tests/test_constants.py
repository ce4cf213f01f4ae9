"""Unit-system and physical-constant tests."""

import math

import pytest

from repro import constants as c


class TestUnitSystem:
    def test_boltzmann_in_ev(self):
        assert c.KB_EV == pytest.approx(8.617333262e-5, rel=1e-9)

    def test_mvv2e_matches_si_derivation(self):
        amu = 1.66053906660e-27  # kg
        aps = 1e2  # 1 A/ps in m/s
        ev = 1.602176634e-19  # J
        assert c.MVV2E == pytest.approx(amu * aps**2 / ev, rel=1e-9)

    def test_fm2a_is_inverse_of_mvv2e(self):
        assert c.FM2A * c.MVV2E == pytest.approx(1.0, rel=1e-12)

    def test_iron_lattice_constant_matches_paper(self):
        # "The lattice constant is set to 2.855."
        assert c.FE_LATTICE_CONSTANT == 2.855

    def test_bcc_basis_size(self):
        assert c.BCC_ATOMS_PER_CELL == 2


class TestThermalVelocity:
    def test_sigma_zero_at_zero_temperature(self):
        assert c.thermal_velocity_sigma(0.0, c.FE_MASS) == 0.0

    def test_sigma_scales_sqrt_temperature(self):
        s1 = c.thermal_velocity_sigma(300.0, c.FE_MASS)
        s4 = c.thermal_velocity_sigma(1200.0, c.FE_MASS)
        assert s4 == pytest.approx(2.0 * s1, rel=1e-12)

    def test_sigma_scales_inverse_sqrt_mass(self):
        s1 = c.thermal_velocity_sigma(600.0, 50.0)
        s2 = c.thermal_velocity_sigma(600.0, 200.0)
        assert s1 == pytest.approx(2.0 * s2, rel=1e-12)

    def test_equipartition_roundtrip(self):
        # <1/2 m v_x^2> = 1/2 kB T per component.
        t = 600.0
        sigma = c.thermal_velocity_sigma(t, c.FE_MASS)
        energy = 0.5 * c.FE_MASS * c.MVV2E * sigma**2
        assert energy == pytest.approx(0.5 * c.KB_EV * t, rel=1e-12)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            c.thermal_velocity_sigma(-1.0, c.FE_MASS)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            c.thermal_velocity_sigma(300.0, 0.0)


class TestKineticEnergy:
    def test_vacancy_formation_energy_matches_19_2_days(self):
        # The back-solved E_v+ must regenerate the paper's headline.
        c_real = math.exp(
            -c.FE_VACANCY_FORMATION_ENERGY / (c.KB_EV * 600.0)
        )
        t_real_days = 2e-4 * 2e-6 / c_real / c.DAY_TO_S
        assert t_real_days == pytest.approx(19.2, abs=0.1)
