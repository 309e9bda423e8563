"""Configuration schema: validation, overrides, serialization, hashing."""

import dataclasses
import json
import typing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lis_uplink import ExperimentSpec
from lis_uplink.config import (
    ConfigError,
    ExperimentConfig,
    LayoutConfig,
    PlacementConfig,
    RunConfig,
    SystemConfig,
    json_text,
    load_config,
    parse_override,
)


class TestSystemConfig:
    def test_defaults_are_valid(self):
        cfg = SystemConfig()
        assert cfg.M == 64 and cfg.K == 4 and cfg.N == 1

    def test_wavelength_at_3ghz(self):
        cfg = SystemConfig(carrier_freq=3e9)
        assert cfg.lam == pytest.approx(0.0999308193, rel=1e-9)

    def test_pilot_len_defaults_to_K(self):
        assert SystemConfig(K=5, t=None).pilot_len == 5
        assert SystemConfig(K=5, t=9).pilot_len == 9

    def test_spacing_fills_unit(self):
        cfg = SystemConfig(M=100, L=0.25)
        assert cfg.spacing == pytest.approx(0.5 / 10)
        assert cfg.m_side == 10

    def test_M_must_be_square(self):
        with pytest.raises(ConfigError) as err:
            SystemConfig(M=15)
        assert err.value.key == "system.M"

    def test_t_bounds(self):
        with pytest.raises(ConfigError) as err:
            SystemConfig(K=4, t=3)
        assert err.value.key == "system.t"
        with pytest.raises(ConfigError):
            SystemConfig(T=10, t=11)

    def test_lattice_must_fit(self):
        with pytest.raises(ConfigError) as err:
            SystemConfig(M=100, L=0.25, delta_L=0.06)
        assert err.value.key == "system.delta_L"


class TestExperimentConfig:
    def test_sweep_values_must_ascend(self):
        # checked where the sweep resolves, after the type of each value
        rc = RunConfig(experiment=ExperimentConfig(id="fig5", sweep_values=(100, 100)))
        with pytest.raises(ConfigError, match="ascending") as err:
            ExperimentSpec.from_run_config(rc)
        assert err.value.key == "experiment.sweep_values"

    def test_unknown_id_rejected(self):
        # ids are rows of harness.EXPERIMENTS, checked when the spec resolves
        rc = RunConfig(experiment=ExperimentConfig(id="fig99"))
        with pytest.raises(ConfigError) as err:
            ExperimentSpec.from_run_config(rc)
        assert err.value.key == "experiment.id"

    def test_realizations_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(id="fig5", realizations=0)


class TestRunConfig:
    def test_round_trip(self):
        rc = RunConfig(
            system=SystemConfig(M=36, K=3, N=2, seed=5),
            layout=LayoutConfig(name="line", d_x=1.5),
            placement=PlacementConfig(pool_size=12),
            experiment=ExperimentConfig(id="fig7", sweep_values=(4, 8)),
        )
        assert RunConfig.from_dict(rc.to_dict()) == rc

    def test_unknown_key_rejected_with_section(self):
        data = RunConfig().to_dict()
        data["system"]["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(data)
        assert err.value.key == "system.bogus"

    def test_overrides_dotted_paths(self):
        rc = RunConfig().with_overrides({"system.M": 49, "layout.d_x": 2.0})
        assert rc.system.M == 49 and rc.layout.d_x == 2.0

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            RunConfig().with_overrides({"system.bogus": 1})
        assert err.value.key == "system.bogus"

    @pytest.mark.parametrize("name", ["quad", "auto"])
    def test_quad_box_must_fit_below_facing_panel(self, name):
        rc = RunConfig(system=SystemConfig(N=4))
        with pytest.raises(ConfigError, match="box_height < layout.d_z") as err:
            rc.with_overrides({"layout.name": name, "layout.d_z": 2.0})
        assert err.value.key == "layout.d_z"
        ok = rc.with_overrides({"layout.name": name, "layout.d_z": 2.5})
        assert ok.layout.d_z == 2.5

    def test_quad_layout_needs_four_panels(self):
        with pytest.raises(ConfigError, match="N=4") as err:
            RunConfig(system=SystemConfig(N=2)).with_overrides({"layout.name": "quad"})
        assert err.value.key == "layout.name"

    def test_pool_must_fit_in_the_block(self):
        # a device-count sweep serves K = pool devices, so pool <= T
        rc = RunConfig(system=SystemConfig(T=20)).with_overrides({"placement.pool_size": 20})
        assert rc.placement.pool_size == 20
        with pytest.raises(ConfigError, match="pool_size=21") as err:
            rc.with_overrides({"placement.pool_size": 21})
        assert err.value.key == "placement.pool_size"

    def test_empty_default_pool_rejected(self):
        # the default pool min(T - 1, 40) is empty at T = 1; a set size is kept
        with pytest.raises(ConfigError, match="system.T=1") as err:
            PlacementConfig().pool_target(1)
        assert err.value.key == "placement.pool_size"
        assert PlacementConfig().pool_target(2) == 1
        assert PlacementConfig().pool_target(500) == 40
        assert PlacementConfig(pool_size=3).pool_target(1) == 3

    def test_line_layout_ignores_facing_separation(self):
        rc = RunConfig(system=SystemConfig(N=2)).with_overrides({"layout.d_z": 1.0})
        assert rc.layout.box_height > rc.layout.d_z

    def test_content_hash_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig().with_overrides({"system.seed": 1})
        assert a.content_hash() == RunConfig().content_hash()
        assert a.content_hash() != b.content_hash()
        assert len(a.content_hash()) == 40  # git-style sha1 hex

    def test_json_text_is_strict_with_null_for_non_finite_values(self):
        value = {"b": np.array([[1.0, np.inf], [-np.inf, np.nan]]), "a": (np.float64(np.nan), 2)}
        text = json_text(value)
        assert json.loads(text) == {"a": [None, 2], "b": [[1.0, None], [None, None]]}
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)

    def test_canonical_json_is_sorted_and_parseable(self):
        text = RunConfig().canonical_json()
        data = json.loads(text)
        assert list(data) == sorted(data)


class TestLoadAndOverrides:
    def test_load_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"system": {"M": 25, "K": 2}}))
        rc = load_config(str(path))
        assert rc.system.M == 25 and rc.system.K == 2

    def test_load_config_accepts_manifest(self, tmp_path):
        inner = RunConfig(system=SystemConfig(M=36)).to_dict()
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"config": inner, "config_hash": "x", "outputs": []}))
        assert load_config(str(path)).system.M == 36

    def test_parse_override_types(self):
        assert parse_override("system.M=49") == ("system.M", 49)
        assert parse_override("layout.d_x=2.5") == ("layout.d_x", 2.5)
        assert parse_override("experiment.raw_records=true") == ("experiment.raw_records", True)
        assert parse_override("system.t=null") == ("system.t", None)
        assert parse_override("experiment.sweep_values=[16,64]") == (
            "experiment.sweep_values", [16, 64],
        )

    def test_parse_override_requires_equals(self):
        with pytest.raises(ConfigError):
            parse_override("system.M")


_SECTIONS = {"system": SystemConfig, "layout": LayoutConfig,
             "placement": PlacementConfig, "experiment": ExperimentConfig}
_NUMERIC_KEYS = [
    f"{section}.{f.name}"
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
    if {f.type, *typing.get_args(f.type)} & {int, float}
]


class TestNumericValues:
    def test_every_numeric_field_is_covered(self):
        # 14 system, 5 layout, 2 placement and 3 experiment fields,
        # optional ones (t, delta_L, pool_size) included
        assert len(_NUMERIC_KEYS) == 24
        assert {"system.t", "system.delta_L", "placement.pool_size"} <= set(_NUMERIC_KEYS)

    @pytest.mark.parametrize("key", _NUMERIC_KEYS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, False])
    def test_non_finite_and_boolean_values_rejected(self, key, value):
        with pytest.raises(ConfigError) as info:
            RunConfig().with_overrides({key: value})
        assert info.value.key == key
        assert key in str(info.value)

    @pytest.mark.parametrize("key", _NUMERIC_KEYS)
    def test_json_non_finite_values_rejected_at_load(self, key, tmp_path):
        section, name = key.split(".")
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"{section}": {{"{name}": NaN}}}}', encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert info.value.key == key


# every declared single-value bound, with a value just outside it
_OUT_OF_BOUND = {
    "system.M": 0, "system.K": 0, "system.N": 0, "system.T": 0, "system.L": 0.0,
    "system.carrier_freq": 0.0, "system.delta_L": 0.0, "system.P": 0,
    "system.beta_PL": 0.0, "system.d_C": 0.0, "system.rho_p_tgt": 0.0, "system.rho_tgt": 0.0,
    "system.seed": -1,
    "layout.name": "ring", "layout.x_l": 0.0, "layout.y_l": 0.0,
    "layout.d_x": 0.0, "layout.d_z": 0.0, "layout.box_height": 0.0,
    "placement.attempt_budget": 0, "placement.pool_size": 0,
    "experiment.realizations": 0, "experiment.placements": 0,
    "experiment.interference": "mixed", "experiment.theory_stride": -1,
}


class TestBounds:
    def test_every_declared_bound_is_covered(self):
        declared = {
            f"{section}.{f.name}"
            for section, cls in _SECTIONS.items()
            for f in dataclasses.fields(cls)
            if f.metadata["bound"] is not None
        }
        assert declared == set(_OUT_OF_BOUND)

    @pytest.mark.parametrize("key, value", sorted(_OUT_OF_BOUND.items()))
    def test_value_just_outside_bound_rejected(self, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError) as err:
            _SECTIONS[section](**{name: value})
        assert err.value.key == key
        with pytest.raises(ConfigError) as err:
            RunConfig().with_overrides({key: value})
        assert err.value.key == key and key in str(err.value)


@given(
    m_side=st.integers(min_value=1, max_value=40),
    K=st.integers(min_value=1, max_value=8),
)
def test_valid_square_M_accepted(m_side, K):
    cfg = SystemConfig(M=m_side * m_side, K=K)
    assert cfg.m_side == m_side
    assert cfg.spacing * m_side <= 2 * cfg.L + 1e-12
