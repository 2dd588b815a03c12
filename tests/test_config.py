"""Configuration object tests."""

import pytest

from repro.util.config import Config, ConfigError


class TestDefaults:
    def test_defaults_load(self):
        cfg = Config()
        assert cfg["mesh.subgrid_n"] == 8
        assert cfg["hydro.gamma"] == pytest.approx(5.0 / 3.0)

    def test_contains_and_iter(self):
        cfg = Config()
        assert "hydro.cfl" in cfg
        assert set(iter(cfg)) == set(Config.DEFAULTS)

    def test_as_dict_is_copy(self):
        cfg = Config()
        d = cfg.as_dict()
        d["hydro.gamma"] = 99.0
        assert cfg["hydro.gamma"] != 99.0


class TestOverrides:
    def test_override(self):
        cfg = Config({"hydro.gamma": 1.4})
        assert cfg["hydro.gamma"] == 1.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            Config({"hydro.nope": 1})

    def test_get_default(self):
        assert Config().get("not.a.key", 42) == 42

    def test_getitem_unknown_raises(self):
        with pytest.raises(ConfigError):
            Config()["not.a.key"]

    def test_with_overrides_dunder_mapping(self):
        cfg = Config().with_overrides(hydro__gamma=1.4, mesh__max_level=5)
        assert cfg["hydro.gamma"] == 1.4
        assert cfg["mesh.max_level"] == 5

    def test_with_overrides_unknown(self):
        with pytest.raises(ConfigError):
            Config().with_overrides(foo__bar=1)

    def test_repr_shows_changes_only(self):
        assert "1.4" in repr(Config({"hydro.gamma": 1.4}))


class TestValidation:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("mesh.subgrid_n", 1),
            ("mesh.ghost_width", 0),
            ("hydro.cfl", 0.0),
            ("hydro.cfl", 1.5),
            ("hydro.gamma", 1.0),
            ("gravity.order", 4),
            ("runtime.tasks_per_kernel", 0),
            ("runtime.workers", 0),
        ],
    )
    def test_invalid_values(self, key, value):
        with pytest.raises(ConfigError):
            Config({key: value})


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
