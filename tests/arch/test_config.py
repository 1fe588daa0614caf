"""Canonical config serialization, fingerprints, validation, presets."""

import dataclasses
import json

import pytest

from repro.arch.config import (
    PRESETS,
    CacheConfig,
    CpuConfig,
    MachineConfigs,
    SparseCoreConfig,
    config_fingerprint,
    config_variant,
    default_configs,
    get_preset,
    preset_names,
    register_preset,
    sweepable_fields,
)
from repro.errors import ConfigError, ReproError


# -- round-trip --------------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    CacheConfig(),
    CpuConfig(),
    SparseCoreConfig(),
    MachineConfigs(),
    SparseCoreConfig(num_sus=8, scache_bandwidth=64),
    CpuConfig(cycles_per_step=2.5, cache=CacheConfig(l1d_bytes=1 << 16)),
])
def test_round_trip(cfg):
    assert type(cfg).from_dict(cfg.to_dict()) == cfg


def test_round_trip_through_json():
    cfg = MachineConfigs()
    blob = json.dumps(cfg.to_dict())
    assert MachineConfigs.from_dict(json.loads(blob)) == cfg


def test_to_dict_is_plain_data():
    data = MachineConfigs().to_dict()
    json.dumps(data)  # no dataclass leaks
    assert isinstance(data["cpu"]["cache"], dict)
    assert isinstance(data["sparsecore"]["cache"], dict)


def test_from_dict_rejects_unknown_keys():
    data = SparseCoreConfig().to_dict()
    data["warp_size"] = 32
    with pytest.raises(ConfigError):
        SparseCoreConfig.from_dict(data)


def test_from_dict_fills_missing_with_defaults():
    cfg = SparseCoreConfig.from_dict({"num_sus": 8})
    assert cfg.num_sus == 8
    assert cfg.scache_bandwidth == SparseCoreConfig().scache_bandwidth


# -- fingerprints ------------------------------------------------------------

def test_fingerprint_stable_across_field_order():
    data = SparseCoreConfig().to_dict()
    reordered = dict(reversed(list(data.items())))
    assert (SparseCoreConfig.from_dict(reordered).fingerprint()
            == SparseCoreConfig().fingerprint())


def test_fingerprint_sensitive_to_every_sparsecore_field():
    base = SparseCoreConfig()
    for f in dataclasses.fields(SparseCoreConfig):
        if f.name == "cache":
            changed = dataclasses.replace(
                base, cache=CacheConfig(l1d_bytes=1 << 16))
        else:
            value = getattr(base, f.name)
            changed = dataclasses.replace(base, **{f.name: value * 2})
        assert changed.fingerprint() != base.fingerprint(), f.name


def test_fingerprint_distinguishes_config_kinds():
    # Same field *values* under a different class must not collide.
    assert CpuConfig().fingerprint() != SparseCoreConfig().fingerprint()
    assert config_fingerprint(CpuConfig()) == CpuConfig().fingerprint()


def test_machine_fingerprint_covers_both_halves():
    base = MachineConfigs()
    assert base.replace_sparsecore(num_sus=8).fingerprint() \
        != base.fingerprint()
    assert base.replace_cpu(rob_size=256).fingerprint() \
        != base.fingerprint()


# -- validation --------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"num_sus": 0},
    {"num_sus": -2},
    {"scache_bandwidth": 0},
    {"scache_slot_keys": 3},       # must be a power of two
    {"su_buffer_width": 12},       # must be a power of two
    {"scratchpad_bytes": -1},
    {"synthesized_frequency_ghz": 0.0},
    {"num_sus": 1.5},              # int fields hold ints
    {"implicit_overlap": 1.5},
    {"scache_bandwidth": 32.0},
    {"num_sus": True},             # a bool is not a count
])
def test_sparsecore_validation(kwargs):
    with pytest.raises(ConfigError):
        SparseCoreConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"rob_size": 0},
    {"cycles_per_step": 0.0},
    {"mispredict_rate": -0.1},
    {"mispredict_rate": 1.5},
    {"rob_size": 127.5},
    {"mispredict_penalty": 14.0},
])
def test_cpu_validation(kwargs):
    with pytest.raises(ConfigError):
        CpuConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"l1d_bytes": 0},
    {"line_bytes": 48},            # must be a power of two
    {"l2_latency": -1},
    {"l2_latency": 14.5},
    {"line_bytes": True},
])
def test_cache_validation(kwargs):
    with pytest.raises(ConfigError):
        CacheConfig(**kwargs)


def test_config_error_is_a_repro_error():
    assert issubclass(ConfigError, ReproError)


# -- variants ----------------------------------------------------------------

def test_config_variant_routes_through_helpers():
    base = SparseCoreConfig()
    assert config_variant(base, "num_sus", 8) == base.with_sus(8)
    assert config_variant(base, "scache_bandwidth", 64) \
        == base.with_bandwidth(64)
    assert config_variant(base, "scratchpad_bytes", 1 << 16) \
        == dataclasses.replace(base, scratchpad_bytes=1 << 16)


def test_config_variant_memo_keeps_field_types():
    # Equal configs whose float field differs in type (1 vs 1.0)
    # fingerprint apart; a memoised variant must keep that apart too.
    as_int = dataclasses.replace(SparseCoreConfig(), scalar_cpi=1)
    as_float = dataclasses.replace(SparseCoreConfig(), scalar_cpi=1.0)
    for base in (as_int, as_float, as_int):
        assert config_variant(base, "num_sus", 2).fingerprint() \
            == dataclasses.replace(base, num_sus=2).fingerprint()
    assert config_variant(as_int, "num_sus", 2) \
        is config_variant(as_int, "num_sus", 2)


def test_config_variant_rejects_unknown_and_derived_fields():
    base = SparseCoreConfig()
    with pytest.raises(ConfigError):
        config_variant(base, "warp_size", 32)
    with pytest.raises(ConfigError):
        config_variant(base, "area_mm2", 1.0)  # derived, not sweepable


def test_sweepable_fields_are_real_fields():
    names = {f.name for f in dataclasses.fields(SparseCoreConfig)}
    assert set(sweepable_fields()) <= names
    assert "num_sus" in sweepable_fields()
    assert "cache" not in sweepable_fields()


# -- presets -----------------------------------------------------------------

def test_paper_preset_is_the_default():
    assert get_preset("paper") == MachineConfigs()
    assert default_configs() == PRESETS["paper"]
    assert "paper" in preset_names()


def test_paper_1su_preset():
    assert get_preset("paper-1su").sparsecore.num_sus == 1


def test_unknown_preset_lists_known_names():
    with pytest.raises(ConfigError, match="paper"):
        get_preset("enterprise")


def test_register_preset_no_silent_overwrite():
    name = "test-tmp-preset"
    try:
        register_preset(name, MachineConfigs())
        assert get_preset(name) == MachineConfigs()
        with pytest.raises(ConfigError):
            register_preset(name, MachineConfigs())
        register_preset(
            name, MachineConfigs().replace_sparsecore(num_sus=2),
            overwrite=True)
        assert get_preset(name).sparsecore.num_sus == 2
    finally:
        PRESETS.pop(name, None)


# -- golden: the paper preset prices bit-identically to the defaults ---------

def test_paper_preset_prices_bit_identical():
    import numpy as np

    from repro.workloads import get_workload, run_workload

    def canon(value):
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    spec = get_workload("triangle")
    default = run_workload(spec, None, 0.3, cache=None).metrics
    preset = run_workload(spec, None, 0.3, cache=None,
                          config=get_preset("paper")).metrics
    assert json.loads(json.dumps(canon(preset), sort_keys=True)) \
        == json.loads(json.dumps(canon(default), sort_keys=True))
