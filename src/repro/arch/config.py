"""Architecture configuration: Table 2 plus all cost-model constants.

Every number a cost model uses lives here, so experiments can sweep a
parameter (Figures 12 and 13) or document a substitution by pointing at
one field.  Defaults reproduce the paper's configuration (Table 2) and
standard latencies for the Skylake-class baseline the paper compares
against.

Configurations are **first-class values**: every config dataclass
validates its fields on construction (raising
:class:`~repro.errors.ConfigError` at the configuration boundary rather
than deep inside a cost model), serializes canonically
(:meth:`to_dict`/:meth:`from_dict`), and hashes to a stable
:func:`config_fingerprint` that is independent of dict field order.
A :class:`MachineConfigs` bundle (CPU baseline + SparseCore) is what
the run pipeline (:func:`repro.workloads.run_workload`) and the
design-space explorer (:mod:`repro.explore`) thread through; named
presets (:func:`get_preset`, starting with ``paper`` = Table 2) give
sweeps a well-defined origin.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace

from repro.errors import ConfigError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_pow2(n) -> bool:
    return isinstance(n, int) and n > 0 and (n & (n - 1)) == 0


def _integral(cfg) -> None:
    """Every field annotated ``int`` holds an ``int`` (never a ``bool``)."""
    for f in fields(cfg):
        if f.type != "int":
            continue
        value = getattr(cfg, f.name)
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{type(cfg).__name__}.{f.name} must be an integer, "
                 f"got {value!r}")


def _positive(cfg, *names) -> None:
    for name in names:
        value = getattr(cfg, name)
        _require(isinstance(value, (int, float)) and not isinstance(value, bool)
                 and value > 0,
                 f"{type(cfg).__name__}.{name} must be positive, "
                 f"got {value!r}")


def _nonnegative(cfg, *names) -> None:
    for name in names:
        value = getattr(cfg, name)
        _require(isinstance(value, (int, float)) and not isinstance(value, bool)
                 and value >= 0,
                 f"{type(cfg).__name__}.{name} must be >= 0, got {value!r}")


def _pow2(cfg, *names) -> None:
    for name in names:
        value = getattr(cfg, name)
        _require(_is_pow2(value),
                 f"{type(cfg).__name__}.{name} must be a power of two, "
                 f"got {value!r}")


def _rate(cfg, *names) -> None:
    for name in names:
        value = getattr(cfg, name)
        _require(isinstance(value, (int, float)) and not isinstance(value, bool)
                 and 0.0 <= value <= 1.0,
                 f"{type(cfg).__name__}.{name} must be in [0, 1], "
                 f"got {value!r}")


def _config_to_dict(cfg) -> dict:
    """Canonical plain-dict form of one config (nested configs recurse)."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = _config_to_dict(value) if is_dataclass(value) else value
    return out


def _config_from_dict(cls, data, nested: dict | None = None):
    """Rebuild ``cls`` from a :func:`_config_to_dict` mapping.

    Unknown keys raise :class:`ConfigError` (a typo'd sweep axis must
    not silently produce the default machine); missing keys fall back
    to the class defaults, so serialized configs stay readable across
    field additions.
    """
    _require(isinstance(data, dict),
             f"{cls.__name__}.from_dict expects a mapping, "
             f"got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    _require(not unknown,
             f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
    kwargs = dict(data)
    for name, sub_cls in (nested or {}).items():
        if name in kwargs and isinstance(kwargs[name], dict):
            kwargs[name] = sub_cls.from_dict(kwargs[name])
    return cls(**kwargs)


def config_fingerprint(cfg) -> str:
    """Stable 16-hex-char identity of one configuration value.

    Hash of the canonical sorted-key JSON of :func:`to_dict` tagged
    with the config class, so field order can never change the
    fingerprint but any field *value* change does.
    """
    blob = json.dumps({"kind": type(cfg).__name__,
                       "config": _config_to_dict(cfg)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CacheConfig:
    """The conventional memory hierarchy both machines share (Table 2)."""

    line_bytes: int = 64
    l1d_bytes: int = 32 * 1024       # 32KB, 8-way
    l2_bytes: int = 256 * 1024       # 256KB, 8-way
    l3_bytes: int = 12 * 1024 * 1024  # 12MB, 16-way
    # Load-to-use latencies (cycles) per level.
    l1_latency: int = 4
    l2_latency: int = 14
    l3_latency: int = 42
    dram_latency: int = 200
    # Effective per-line cost when accesses are pipelined/overlapped
    # (sequential stream fetches expose bandwidth, not latency).
    l2_line_cost: int = 4
    l3_line_cost: int = 8
    dram_line_cost: int = 30

    def __post_init__(self):
        _integral(self)
        _positive(self, "l1d_bytes", "l2_bytes", "l3_bytes",
                  "l1_latency", "l2_latency", "l3_latency", "dram_latency",
                  "l2_line_cost", "l3_line_cost", "dram_line_cost")
        _pow2(self, "line_bytes")

    def to_dict(self) -> dict:
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CacheConfig":
        return _config_from_dict(cls, data)


@dataclass(frozen=True)
class CpuConfig:
    """Baseline out-of-order CPU cost model (one core of Table 2)."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    rob_size: int = 128
    load_queue_size: int = 32
    #: Effective cycles per two-pointer merge step: the loop's critical
    #: path is a load-to-use (4-cycle L1) feeding a compare and branch;
    #: the out-of-order window overlaps part of it ("data dependencies
    #: in a tight loop ... difficult to ... exploit instruction level
    #: parallelism", Section 2.2).
    cycles_per_step: float = 3.5
    #: Branch misprediction flush penalty (front-end refill).
    mispredict_penalty: int = 14
    #: Fraction of merge-path direction changes the predictor misses.
    #: Intersection branch outcomes are essentially data-dependent
    #: (Section 2.2: "difficult to predict the branches").
    mispredict_rate: float = 0.7
    #: Effective cycles per scalar non-stream instruction (4-wide OoO,
    #: loop/bookkeeping code with moderate ILP).
    scalar_cpi: float = 0.4
    #: Cycles per floating-point multiply-accumulate pair on values.
    flop_cycles_per_pair: float = 1.0

    def __post_init__(self):
        _integral(self)
        _positive(self, "rob_size", "load_queue_size", "cycles_per_step",
                  "scalar_cpi", "flop_cycles_per_pair")
        _nonnegative(self, "mispredict_penalty")
        _rate(self, "mispredict_rate")

    def to_dict(self) -> dict:
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CpuConfig":
        return _config_from_dict(cls, data, {"cache": CacheConfig})

    def fingerprint(self) -> str:
        return config_fingerprint(self)


@dataclass(frozen=True)
class SparseCoreConfig:
    """SparseCore configuration: Table 2 plus component parameters."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    num_cores: int = 6
    rob_size: int = 128
    load_queue_size: int = 32
    # -- stream components (Sections 4.2/4.3) --
    num_stream_regs: int = 16
    num_sus: int = 4
    su_buffer_width: int = 16
    scache_slot_keys: int = 64       # 256B slot / 4B key
    scache_slot_bytes: int = 256
    scratchpad_bytes: int = 16 * 1024
    #: Aggregate S-Cache + scratchpad bandwidth in elements/cycle
    #: ("Stream cache can send two cache line of data to two SUs at
    #: each cycle" -> 2 x 16-key lines with 4 SUs).
    scache_bandwidth: int = 32
    #: Per-instruction issue overhead for a stream op (decode + SMT
    #: lookup; the SMT itself adds no pipeline latency, Section 4.1).
    op_issue_cycles: float = 2.0
    #: Micro-op expansion overhead per nested-intersection element
    #: (translator generates S_READ + S_INTER.C + S_FREE + add).
    nested_translate_cycles: float = 1.0
    #: How many independent singleton stream ops the OoO core keeps in
    #: flight concurrently without the nested instruction (ROB-limited;
    #: nested instructions occupy one entry and expose whole bursts).
    implicit_overlap: int = 2
    #: Effective cycles per scalar instruction on the host core.
    scalar_cpi: float = 0.4
    #: SVPU throughput: cycles per value pair (MAC).
    flop_cycles_per_pair: float = 1.0
    # -- published physical characteristics (Section 5.2; inputs to the
    #    fair-comparison argument, not modelled quantities) --
    synthesized_frequency_ghz: float = 4.35
    area_mm2: float = 0.73
    area_per_su_mm2: float = 0.183

    def __post_init__(self):
        _integral(self)
        _positive(self, "num_cores", "rob_size", "load_queue_size",
                  "num_stream_regs", "num_sus", "scache_slot_bytes",
                  "scratchpad_bytes", "scache_bandwidth", "implicit_overlap",
                  "scalar_cpi", "flop_cycles_per_pair",
                  "synthesized_frequency_ghz", "area_mm2", "area_per_su_mm2")
        _nonnegative(self, "op_issue_cycles", "nested_translate_cycles")
        # Slot keys index S-Cache ways and the SU walk is a fixed-width
        # comparator tree — both are hardware structures that only come
        # in power-of-two sizes.
        _pow2(self, "su_buffer_width", "scache_slot_keys")

    def with_sus(self, n: int) -> "SparseCoreConfig":
        """Copy with a different SU count (Figure 12 sweep)."""
        return replace(self, num_sus=n)

    def with_bandwidth(self, elems_per_cycle: int) -> "SparseCoreConfig":
        """Copy with a different aggregate bandwidth (Figure 13 sweep)."""
        return replace(self, scache_bandwidth=elems_per_cycle)

    def to_dict(self) -> dict:
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SparseCoreConfig":
        return _config_from_dict(cls, data, {"cache": CacheConfig})

    def fingerprint(self) -> str:
        return config_fingerprint(self)


def sweepable_fields() -> tuple[str, ...]:
    """SparseCore field names a design-space axis may legally vary.

    Every scalar field of :class:`SparseCoreConfig` except the nested
    cache hierarchy and the published physical characteristics (those
    are measurement inputs, not model knobs).
    """
    skip = {"cache", "synthesized_frequency_ghz", "area_mm2",
            "area_per_su_mm2"}
    return tuple(f.name for f in fields(SparseCoreConfig)
                 if f.name not in skip)


def config_variant(cfg: SparseCoreConfig, field_name: str,
                   value) -> SparseCoreConfig:
    """One swept design point: ``cfg`` with ``field_name`` replaced.

    The single construction path for every sweep — Figures 12/13's
    SU/bandwidth variants and the :mod:`repro.explore` grid axes all
    derive from the base config here (reusing :meth:`with_sus` /
    :meth:`with_bandwidth` for the figure axes), so an invalid value
    fails with :class:`ConfigError` before any model runs.  Configs are
    frozen values, so each distinct variant is built and validated once
    per process; every grid point re-prices the same Figure 12/13
    variants.
    """
    # ``1 == 1.0`` makes two configs equal that fingerprint apart, so
    # the field types join the memo key.
    return _config_variant(cfg, tuple(map(type, vars(cfg).values())),
                           field_name, value)


@functools.lru_cache(maxsize=1024, typed=True)
def _config_variant(cfg: SparseCoreConfig, _field_types: tuple,
                    field_name: str, value) -> SparseCoreConfig:
    if field_name == "num_sus":
        return cfg.with_sus(value)
    if field_name == "scache_bandwidth":
        return cfg.with_bandwidth(value)
    if field_name not in sweepable_fields():
        raise ConfigError(
            f"unknown sweep axis {field_name!r}; expected one of: "
            + ", ".join(sweepable_fields()))
    return replace(cfg, **{field_name: value})


@dataclass(frozen=True)
class MachineConfigs:
    """The machine pair one priced run compares: CPU baseline + SparseCore.

    This bundle is what flows through ``run_workload(..., config=)``
    and the explorer; its :meth:`fingerprint` is part of every
    priced-result identity (memo keys, sweep rows) while the *trace*
    cache key stays config-free — traces are recording artifacts, so
    one cached recording re-prices under any number of
    configurations.
    """

    cpu: CpuConfig = field(default_factory=CpuConfig)
    sparsecore: SparseCoreConfig = field(default_factory=SparseCoreConfig)

    def to_dict(self) -> dict:
        return {"cpu": self.cpu.to_dict(),
                "sparsecore": self.sparsecore.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfigs":
        return _config_from_dict(
            cls, data, {"cpu": CpuConfig, "sparsecore": SparseCoreConfig})

    def fingerprint(self) -> str:
        return config_fingerprint(self)

    def replace_cpu(self, **kwargs) -> "MachineConfigs":
        return replace(self, cpu=replace(self.cpu, **kwargs))

    def replace_sparsecore(self, **kwargs) -> "MachineConfigs":
        return replace(self, sparsecore=replace(self.sparsecore, **kwargs))

    def variant(self, field_name: str, value) -> "MachineConfigs":
        """Copy with one SparseCore sweep axis replaced."""
        return replace(self,
                       sparsecore=config_variant(self.sparsecore,
                                                 field_name, value))


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

#: Registry of named machine configurations.  ``paper`` is Table 2 —
#: the origin every sweep derives from unless told otherwise.
PRESETS: dict[str, MachineConfigs] = {}


def register_preset(name: str, configs: MachineConfigs, *,
                    overwrite: bool = False) -> MachineConfigs:
    """Add a named configuration pair to :data:`PRESETS`."""
    if not isinstance(configs, MachineConfigs):
        raise ConfigError(
            f"preset {name!r} must be a MachineConfigs, "
            f"got {type(configs).__name__}")
    if name in PRESETS and not overwrite:
        raise ConfigError(f"preset {name!r} already registered")
    PRESETS[name] = configs
    return configs


def get_preset(name: str) -> MachineConfigs:
    """Look up a named preset; unknown names raise :class:`ConfigError`."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown machine preset {name!r}; known presets: "
            + ", ".join(sorted(PRESETS))) from None


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))


register_preset("paper", MachineConfigs())
#: Figure 7's area-fairness point: one SU against one accelerator CU.
register_preset("paper-1su",
                MachineConfigs(sparsecore=SparseCoreConfig(num_sus=1)))


def default_configs() -> MachineConfigs:
    """The configuration every run prices under unless told otherwise."""
    return PRESETS["paper"]


#: Table 2 of the paper as a name -> value mapping, for the bench that
#: regenerates it.
TABLE2 = {
    "Number of cores": 6,
    "ROB size": 128,
    "loadQueue size": 32,
    "cache line size": "64B",
    "l1d cache size": "32KB,8-way",
    "L2": "256KB,8-way",
    "L3": "12MB,16-way",
    "S-Cache slot size": "256B",
    "scratchpad size": "16KB",
}


def default_sparsecore() -> SparseCoreConfig:
    return SparseCoreConfig()


def default_cpu() -> CpuConfig:
    return CpuConfig()
