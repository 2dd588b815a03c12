"""Code-unit constants (``repro.util.constants``)."""

import pytest


class TestUnits:
    def test_code_units_g_is_one(self):
        from repro.util.constants import CodeUnits, G_NEWTON

        units = CodeUnits()
        # G in code units: G * m_unit * t_unit^2 / l_unit^3 == 1.
        g_code = G_NEWTON * units.m_unit * units.t_unit**2 / units.l_unit**3
        assert g_code == pytest.approx(1.0, rel=1e-12)

    def test_round_trips(self):
        from repro.util.constants import CodeUnits

        units = CodeUnits()
        assert units.mass_to_cgs(units.mass_to_code(3.2e33)) == pytest.approx(3.2e33)
        assert units.length_to_cgs(units.length_to_code(1e11)) == pytest.approx(1e11)
        assert units.time_to_cgs(units.time_to_code(86400.0)) == pytest.approx(86400.0)

    def test_velocity_and_energy_units(self):
        from repro.util.constants import CodeUnits

        units = CodeUnits()
        assert units.v_unit == pytest.approx(units.l_unit / units.t_unit)
        assert units.e_unit == pytest.approx(units.rho_unit * units.v_unit**2)
