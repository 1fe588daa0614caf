"""Config values, fingerprints, validation, sweep axes, presets."""

import dataclasses
import json

import pytest

from repro.arch.config import (
    PRESETS,
    CacheConfig,
    CpuConfig,
    MachineConfigs,
    SparseCoreConfig,
    _config_to_dict,
    config_fingerprint,
    config_variant,
    default_configs,
    get_preset,
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
    CpuConfig(cycles_per_step=2.5, mispredict_penalty=20),
])
def test_round_trip(cfg):
    # Rebuilt from its own field values through the constructor (what
    # dataclasses.replace does for every sweep variant), a config is
    # the same value: equal, equally hashed (memo keys) and equally
    # fingerprinted.
    rebuilt = type(cfg)(**{f.name: getattr(cfg, f.name)
                           for f in dataclasses.fields(cfg)})
    assert rebuilt == cfg
    assert hash(rebuilt) == hash(cfg)
    assert config_fingerprint(rebuilt) == config_fingerprint(cfg)


def test_to_dict_is_plain_data():
    data = _config_to_dict(MachineConfigs())
    json.dumps(data)  # no dataclass leaks into the fingerprint blob
    assert isinstance(data["sparsecore"]["cache"], dict)
    assert isinstance(data["cpu"], dict)


# -- fingerprints ------------------------------------------------------------

def test_fingerprint_stable_across_field_order():
    data = vars(SparseCoreConfig())
    reordered = dict(reversed(list(data.items())))
    assert (SparseCoreConfig(**reordered).fingerprint()
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
    assert MachineConfigs(sparsecore=SparseCoreConfig(num_sus=8)) \
        .fingerprint() != base.fingerprint()
    assert MachineConfigs(cpu=CpuConfig(mispredict_penalty=20)) \
        .fingerprint() != base.fingerprint()


# -- validation --------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"num_sus": 0},
    {"num_sus": -2},
    {"scache_bandwidth": 0},
    {"scache_slot_keys": 3},       # must be a power of two
    {"su_buffer_width": 12},       # must be a power of two
    {"scratchpad_bytes": -1},
    {"op_issue_cycles": -1.0},
    {"num_sus": 1.5},              # int fields hold ints
    {"implicit_overlap": 1.5},
    {"scache_bandwidth": 32.0},
    {"num_sus": True},             # a bool is not a count
])
def test_sparsecore_validation(kwargs):
    with pytest.raises(ConfigError):
        SparseCoreConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"scalar_cpi": 0},
    {"cycles_per_step": 0.0},
    {"mispredict_rate": -0.1},
    {"mispredict_rate": 1.5},
    {"mispredict_penalty": -1},
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

def test_config_variant_replaces_one_field():
    base = SparseCoreConfig()
    for name in sweepable_fields():
        value = getattr(base, name) * 2
        assert config_variant(base, name, value) \
            == dataclasses.replace(base, **{name: value})


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


#: The fields pricing reads (Figures 12/13 and the timing constants).
PRICE_TIME_FIELDS = ("num_sus", "scache_bandwidth", "op_issue_cycles",
                     "nested_translate_cycles", "implicit_overlap",
                     "scalar_cpi", "flop_cycles_per_pair")


def _scalar_fields():
    return [f.name for f in dataclasses.fields(SparseCoreConfig)
            if f.name != "cache"]


def test_config_variant_rejects_unknown_and_derived_fields():
    base = SparseCoreConfig()
    with pytest.raises(ConfigError):
        config_variant(base, "warp_size", 32)
    with pytest.raises(ConfigError):
        config_variant(base, "area_mm2", 1.0)  # derived, not a field
    # Real fields that pricing never reads are not axes either; the
    # error names the field and lists the ones that are.
    for name in set(_scalar_fields()) - set(PRICE_TIME_FIELDS):
        with pytest.raises(ConfigError) as err:
            config_variant(base, name, 2)
        assert repr(name) in str(err.value)
        assert all(f in str(err.value) for f in PRICE_TIME_FIELDS)


def test_sweepable_fields_are_real_fields():
    names = {f.name for f in dataclasses.fields(SparseCoreConfig)}
    assert set(sweepable_fields()) <= names
    assert sweepable_fields() == PRICE_TIME_FIELDS
    assert "cache" not in sweepable_fields()


#: A valid non-default value per scalar SparseCoreConfig field.
CHANGED = {
    "num_cores": 12, "rob_size": 256, "load_queue_size": 64,
    "num_stream_regs": 8, "num_sus": 1, "su_buffer_width": 8,
    "scache_slot_keys": 128, "scache_slot_bytes": 512,
    "scratchpad_bytes": 1024, "scache_bandwidth": 4,
    "op_issue_cycles": 8.0, "nested_translate_cycles": 4.0,
    "implicit_overlap": 8, "scalar_cpi": 1.6, "flop_cycles_per_pair": 4.0,
}


def canon(value):
    """JSON-comparable form of a metrics dict (arrays as lists)."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def test_every_sweep_axis_moves_cycles_and_no_other_field_does():
    """The sweep axes are exactly the fields that reach pricing.

    Each sweepable field, changed from its default, moves ``sc_cycles``
    on at least one smoke workload at scale 0.2; every other scalar
    field, changed, leaves every priced metric unchanged.
    """
    from repro.workloads import (
        SMOKE_WORKLOADS,
        get_workload,
        price_run,
        run_workload,
    )

    assert set(CHANGED) == set(_scalar_fields())
    runs = [run_workload(get_workload(name), None, 0.2, cache=None,
                         price=False) for name in SMOKE_WORKLOADS]

    def priced(sparsecore):
        configs = MachineConfigs(sparsecore=sparsecore)
        return [price_run(run.spec, run.dataset, run.trace,
                          lengths=run.lengths, meta=run.meta,
                          configs=configs) for run in runs]

    base = priced(SparseCoreConfig())
    for name, value in CHANGED.items():
        assert value != getattr(SparseCoreConfig(), name), name
        moved = priced(SparseCoreConfig(**{name: value}))
        if name in sweepable_fields():
            assert any(m["sc_cycles"] != b["sc_cycles"]
                       for m, b in zip(moved, base)), name
        else:
            assert json.dumps(list(map(canon, moved)), sort_keys=True) \
                == json.dumps(list(map(canon, base)), sort_keys=True), name


# -- presets -----------------------------------------------------------------

def test_paper_preset_is_the_default():
    assert get_preset("paper") == MachineConfigs()
    assert default_configs() == PRESETS["paper"]
    assert sorted(PRESETS) == ["paper", "paper-1su"]


def test_paper_1su_preset():
    assert get_preset("paper-1su").sparsecore.num_sus == 1


def test_unknown_preset_lists_known_names():
    with pytest.raises(ConfigError, match="paper"):
        get_preset("enterprise")


# -- golden: the paper preset prices bit-identically to the defaults ---------

def test_paper_preset_prices_bit_identical():
    from repro.workloads import get_workload, price_run, run_workload

    spec = get_workload("triangle")
    rec = run_workload(spec, None, 0.3, cache=None, price=False)

    def price(configs):
        return price_run(spec, rec.dataset, rec.trace, lengths=rec.lengths,
                         meta=rec.meta, configs=configs)

    default, preset = price(None), price(get_preset("paper"))
    assert json.loads(json.dumps(canon(preset), sort_keys=True)) \
        == json.loads(json.dumps(canon(default), sort_keys=True))
