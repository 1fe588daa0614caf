"""Architecture configuration: Table 2 and the knobs the models read.

Defaults reproduce the paper's configuration (Table 2) and standard
latencies for the Skylake-class baseline the paper compares against.
Fields differ in who reads them:

* **Pricing** (re-run on every recorded trace): every
  :class:`CpuConfig` field, and the seven :class:`SparseCoreConfig`
  fields of :func:`sweepable_fields` — the only ones a design-space
  axis may vary.
* **Recording** (the recording
  :class:`~repro.machine.context.Machine` and its
  :class:`~repro.arch.transfer.TransferModel`): ``su_buffer_width``,
  read by the trace's op analysis, and ``cache`` and
  ``scratchpad_bytes``, read when the access log is built and applied
  each time it prices its rows (at every trace compaction and at
  freeze), so every op's stored memory charge depends on them.  The
  pipeline records under the defaults, so sweeping these needs
  re-recording.  (A profiled recording also reads
  ``flop_cycles_per_pair`` to size its timeline spans; the trace does
  not depend on it.)
* **Executor only** (:class:`~repro.arch.executor.StreamExecutor`):
  ``num_stream_regs`` and ``scache_slot_keys``.
* **Table 2 only**: ``num_cores``, ``rob_size``, ``load_queue_size``
  and ``scache_slot_bytes``.

Model constants that are not configuration live in their model
modules: ``OTHER_OVERLAP``, ``RESIDUAL_MISPRED_RATE`` and
``RESIDUAL_MISPRED_PENALTY`` (:mod:`repro.arch.sparsecore`),
``VALUE_GATHER_MLP`` (:mod:`repro.arch.transfer`),
``VALUE_GATHER_CYCLES`` (:mod:`repro.arch.cpu`) and
``ROW_BUFFER_BYTES`` (:mod:`repro.arch.memory`).

Configurations are frozen values: every config dataclass validates its
fields on construction (raising :class:`~repro.errors.ConfigError` at
the configuration boundary rather than deep inside a cost model) and
hashes to a stable :func:`config_fingerprint` that is independent of
field order.  A :class:`MachineConfigs` bundle (CPU baseline +
SparseCore) is what the run pipeline
(:func:`repro.workloads.run_workload`) and the design-space explorer
(:mod:`repro.explore`) thread through; the named :data:`PRESETS`
(``paper`` = Table 2) give sweeps a well-defined origin.
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


def config_fingerprint(cfg) -> str:
    """Stable 16-hex-char identity of one configuration value.

    Hash of the canonical sorted-key JSON of :func:`_config_to_dict`
    tagged with the config class, so field order can never change the
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


@dataclass(frozen=True)
class CpuConfig:
    """Baseline out-of-order CPU cost model (one core of Table 2)."""

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
        _positive(self, "cycles_per_step", "scalar_cpi",
                  "flop_cycles_per_pair")
        _nonnegative(self, "mispredict_penalty")
        _rate(self, "mispredict_rate")

    def fingerprint(self) -> str:
        return config_fingerprint(self)


@dataclass(frozen=True)
class SparseCoreConfig:
    """SparseCore configuration: Table 2 plus component parameters.

    The module docstring says which model reads each field.
    """

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

    def __post_init__(self):
        _integral(self)
        _positive(self, "num_cores", "rob_size", "load_queue_size",
                  "num_stream_regs", "num_sus", "scache_slot_bytes",
                  "scratchpad_bytes", "scache_bandwidth", "implicit_overlap",
                  "scalar_cpi", "flop_cycles_per_pair")
        _nonnegative(self, "op_issue_cycles", "nested_translate_cycles")
        # Slot keys index S-Cache ways and the SU walk is a fixed-width
        # comparator tree — both are hardware structures that only come
        # in power-of-two sizes.
        _pow2(self, "su_buffer_width", "scache_slot_keys")

    def fingerprint(self) -> str:
        return config_fingerprint(self)


def sweepable_fields() -> tuple[str, ...]:
    """SparseCore field names a design-space axis may legally vary.

    Exactly the fields the SparseCore cost model reads when it prices
    a recorded trace, so every axis value moves some priced cycle
    count.  The other fields are read while recording, by the executor,
    or only by Table 2; sweeping them would re-price the same trace
    under a config it was not recorded with.
    """
    return ("num_sus", "scache_bandwidth", "op_issue_cycles",
            "nested_translate_cycles", "implicit_overlap", "scalar_cpi",
            "flop_cycles_per_pair")


def check_sweep_axis(field_name: str) -> None:
    """Raise :class:`ConfigError` unless ``field_name`` is sweepable."""
    if field_name in sweepable_fields():
        return
    known = any(f.name == field_name for f in fields(SparseCoreConfig))
    raise ConfigError(
        f"{field_name!r} is not a sweep axis ("
        + ("pricing does not read it" if known
           else "no such SparseCoreConfig field")
        + "); expected one of: " + ", ".join(sweepable_fields()))


def config_variant(cfg: SparseCoreConfig, field_name: str,
                   value) -> SparseCoreConfig:
    """One swept design point: ``cfg`` with ``field_name`` replaced.

    The single construction path for every sweep — Figures 12/13's
    SU/bandwidth variants and the :mod:`repro.explore` grid axes all
    derive from the base config here, so a field pricing does not read
    or an invalid value fails with :class:`ConfigError` before any
    model runs.  Configs are frozen values, so each distinct variant is
    built and validated once per process; every grid point re-prices
    the same Figure 12/13 variants.
    """
    # ``1 == 1.0`` makes two configs equal that fingerprint apart, so
    # the field types join the memo key.
    return _config_variant(cfg, tuple(map(type, vars(cfg).values())),
                           field_name, value)


@functools.lru_cache(maxsize=1024, typed=True)
def _config_variant(cfg: SparseCoreConfig, _field_types: tuple,
                    field_name: str, value) -> SparseCoreConfig:
    check_sweep_axis(field_name)
    return replace(cfg, **{field_name: value})


@dataclass(frozen=True)
class MachineConfigs:
    """The machine pair one priced run compares: CPU baseline + SparseCore.

    This bundle is what flows through ``price_run(..., configs=)``
    and the explorer; its :meth:`fingerprint` names every priced
    result (each sweep row carries it) while the *trace* cache key
    stays config-free — traces are recording artifacts, so one cached
    recording re-prices under any number of configurations.
    """

    cpu: CpuConfig = field(default_factory=CpuConfig)
    sparsecore: SparseCoreConfig = field(default_factory=SparseCoreConfig)

    def fingerprint(self) -> str:
        return config_fingerprint(self)


#: Named machine configurations.  ``paper`` is Table 2 — the origin
#: every sweep derives from unless told otherwise; ``paper-1su`` is
#: Figure 7's area-fairness point (one SU against one accelerator CU).
PRESETS: dict[str, MachineConfigs] = {
    "paper": MachineConfigs(),
    "paper-1su": MachineConfigs(sparsecore=SparseCoreConfig(num_sus=1)),
}


def get_preset(name: str) -> MachineConfigs:
    """Look up a named preset; unknown names raise :class:`ConfigError`."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown machine preset {name!r}; known presets: "
            + ", ".join(sorted(PRESETS))) from None


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
