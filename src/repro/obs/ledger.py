"""Persistent run ledger: the harness's own flight recorder.

The obs layer explains *modelled cycles*; this module records what the
**host-side system itself did** — which pipeline runs executed, how
long each stage took, which cache lookups hit or quarantined, which
engine jobs retried, timed out, or fell back inline.  Events are
appended as JSON Lines under ``$REPRO_LEDGER_DIR`` (the ledger is off
— a null sink — when the variable is unset, mirroring the
``NullCounters``/``NullTracer`` discipline).

**Event schema** (validated on write and on read, like
:mod:`repro.obs.schema` validates the Chrome trace):

* ``v``   — :data:`LEDGER_SCHEMA_VERSION`,
* ``ev``  — event name (``record``, ``cache.read``, ``job.retry``, ...),
* ``ph``  — ``"span"`` (has ``dur``, wall seconds from a monotonic
  clock) or ``"instant"``,
* ``ts``  — wall-clock epoch seconds (comparable across processes),
* ``pid`` / ``sid`` — emitting process and its ledger session token,
* any further keys are free-form scalar attributes (``workload``,
  ``dataset``, ``fp`` run fingerprint, ``outcome``, ...);
  one level of ``str -> scalar`` nesting is allowed for counter
  snapshots (the engine's ``res`` resilience delta).

**Append safety.** Each process writes its own
``events-<pid>-<token>.jsonl`` file (re-opened after a fork), so
concurrent pool workers never interleave bytes; every event is one
``os.write`` of one line onto an ``O_APPEND`` descriptor.  I/O errors
are swallowed and counted (``resilience.ledger.write_errors``) —
telemetry must never fail a run, and ledger events never feed into
metrics or cache fingerprints.

Readers (:func:`read_ledger`) merge every ``*.jsonl`` file in the
directory, count (never crash on) malformed lines, and sort by
timestamp; :func:`aggregate` folds the events into the ``python -m
repro obs report`` summary (cache hit rate, per-stage p50/p99 wall
time, retry/fallback totals, per-workload tables) and
:func:`ledger_to_chrome` renders the whole ledger as a Perfetto-
loadable trace (one lane per process, cache hits as instant events)
through :class:`repro.obs.tracer.Tracer`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Bump when the event schema changes incompatibly.
LEDGER_SCHEMA_VERSION = 1

#: Environment variable naming the ledger directory (unset = disabled).
ENV_DIR = "REPRO_LEDGER_DIR"

#: Keys every event carries (set by the ledger, not by callers).
_REQUIRED = ("v", "ev", "ph", "ts", "pid", "sid")

_PHASES = ("span", "instant")

_SCALAR = (str, int, float, bool, type(None))


class LedgerSchemaError(ValueError):
    """The object does not conform to the ledger event schema."""


def validate_event(obj) -> None:
    """Raise :class:`LedgerSchemaError` unless ``obj`` is a valid event."""
    if not isinstance(obj, dict):
        raise LedgerSchemaError(
            f"event must be an object, got {type(obj).__name__}")
    if obj.get("v") != LEDGER_SCHEMA_VERSION:
        raise LedgerSchemaError(
            f"v: expected {LEDGER_SCHEMA_VERSION}, got {obj.get('v')!r}")
    ev = obj.get("ev")
    if not isinstance(ev, str) or not ev:
        raise LedgerSchemaError("ev: missing or empty")
    ph = obj.get("ph")
    if ph not in _PHASES:
        raise LedgerSchemaError(f"ph: must be one of {_PHASES}, got {ph!r}")
    ts = obj.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        raise LedgerSchemaError("ts: missing, non-numeric or negative")
    if not isinstance(obj.get("pid"), int):
        raise LedgerSchemaError("pid: missing or not an integer")
    if not isinstance(obj.get("sid"), str) or not obj["sid"]:
        raise LedgerSchemaError("sid: missing or empty")
    if ph == "span":
        dur = obj.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                or dur < 0:
            raise LedgerSchemaError(
                "dur: spans need a non-negative numeric duration")
    for key, value in obj.items():
        if isinstance(value, _SCALAR):
            continue
        if isinstance(value, dict):
            for k, v in value.items():
                if not isinstance(k, str) \
                        or not isinstance(v, (int, float)) \
                        or isinstance(v, bool):
                    raise LedgerSchemaError(
                        f"{key}: nested values must map str -> number")
            continue
        raise LedgerSchemaError(
            f"{key}: unsupported value type {type(value).__name__}")


class NullLedger:
    """Zero-overhead sink: records nothing (the default everywhere)."""

    __slots__ = ()
    enabled = False

    def emit(self, ev: str, ph: str, dur: float | None = None,
             **attrs) -> None:
        pass

    def __repr__(self) -> str:
        return "NullLedger()"


NULL_LEDGER = NullLedger()


class RunLedger:
    """Append-only JSONL event sink rooted at one directory.

    The backing file is opened lazily on the first emit and re-opened
    after a fork, so every OS process appends to its own file; a write
    failure disables nothing and raises nothing (it is counted under
    ``resilience.ledger.write_errors``).
    """

    enabled = True

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._fd: int | None = None
        self._pid: int | None = None

    # -- writing -----------------------------------------------------------

    def _open(self) -> int | None:
        pid = os.getpid()
        if self._fd is not None and self._pid == pid:
            return self._fd
        # Fresh process (first emit, or a fork inherited a stale fd):
        # never share a descriptor across processes.
        self._fd = None
        token = f"{time.time_ns() & 0xffffffff:08x}"
        path = self.root / f"events-{pid}-{token}.jsonl"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                               0o644)
        except OSError:
            self._count_write_error()
            return None
        self._pid = pid
        self._sid = f"{pid}-{token}"
        return self._fd

    def _count_write_error(self) -> None:
        from repro.resilience.metrics import RES_COUNTERS

        RES_COUNTERS.inc("resilience.ledger.write_errors")

    def emit(self, ev: str, ph: str, dur: float | None = None,
             **attrs) -> None:
        """Append one validated event; never raises on I/O failure."""
        fd = self._open()
        if fd is None:
            return
        event = dict(attrs)
        event.update(v=LEDGER_SCHEMA_VERSION, ev=ev, ph=ph,
                     ts=time.time(), pid=self._pid, sid=self._sid)
        if dur is not None:
            event["dur"] = float(dur)
        validate_event(event)
        line = json.dumps(event, sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            os.write(fd, line.encode())
        except OSError:
            self._count_write_error()

    def close(self) -> None:
        if self._fd is not None and self._pid == os.getpid():
            try:
                os.close(self._fd)
            except OSError:
                pass
        self._fd = None
        self._pid = None

    def __repr__(self) -> str:
        return f"RunLedger({str(self.root)!r})"


# -- process-wide default ----------------------------------------------------

#: Cached default: (env value it was built from, the ledger).
_default: tuple[str | None, NullLedger | RunLedger] = (None, NULL_LEDGER)


def default_ledger() -> NullLedger | RunLedger:
    """The ledger ``$REPRO_LEDGER_DIR`` names, or the null sink."""
    global _default
    raw = os.environ.get(ENV_DIR) or None
    if raw != _default[0]:
        _default = (raw, RunLedger(raw) if raw else NULL_LEDGER)
    return _default[1]


def reset_default_ledger() -> None:
    """Forget the cached default (tests / env changes)."""
    global _default
    if isinstance(_default[1], RunLedger):
        _default[1].close()
    _default = (None, NULL_LEDGER)


# -- reading -----------------------------------------------------------------

@dataclass
class LedgerScan:
    """One read of a ledger directory, nothing silently skipped."""

    events: list[dict] = field(default_factory=list)
    files: int = 0
    #: lines that failed JSON parsing or schema validation
    malformed: int = 0


def read_ledger(root: str | Path) -> LedgerScan:
    """Load every event under ``root``, sorted by timestamp.

    Malformed lines (truncated writes, foreign junk) are counted, not
    raised — a damaged ledger must still aggregate.
    """
    scan = LedgerScan()
    root = Path(root)
    if not root.is_dir():
        return scan
    for path in sorted(root.glob("*.jsonl")):
        scan.files += 1
        try:
            text = path.read_text()
        except OSError:
            scan.malformed += 1
            continue
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                event = json.loads(line)
                validate_event(event)
            except (json.JSONDecodeError, LedgerSchemaError):
                scan.malformed += 1
                continue
            scan.events.append(event)
    scan.events.sort(key=lambda e: e["ts"])
    return scan


# -- aggregation -------------------------------------------------------------

#: Stage spans the pipeline and cache emit (reported with percentiles).
STAGE_EVENTS = ("dataset.resolve", "dataset.load", "record", "freeze",
                "cache.read", "cache.write", "price")

#: Engine lifecycle instants counted by the report.
ENGINE_EVENTS = ("job.submit", "job.retry", "job.timeout", "job.crash",
                 "job.inline_fallback", "job.failed", "engine.pool_rebuild")


def _percentiles(durs: list[float]) -> dict:
    import numpy as np

    arr = np.asarray(durs, dtype=float)
    return {
        "count": int(arr.size),
        "total_s": round(float(arr.sum()), 6),
        "p50_s": round(float(np.percentile(arr, 50)), 6),
        "p99_s": round(float(np.percentile(arr, 99)), 6),
        "max_s": round(float(arr.max()), 6),
    }


def aggregate(scan: LedgerScan, *, top: int = 8) -> dict:
    """Fold a ledger scan into the ``obs report`` summary dict."""
    events = scan.events
    by_ev: dict[str, list[dict]] = {}
    for event in events:
        by_ev.setdefault(event["ev"], []).append(event)

    stages = {}
    for name in STAGE_EVENTS:
        durs = [e["dur"] for e in by_ev.get(name, ()) if "dur" in e]
        if durs:
            stages[name] = _percentiles(durs)

    reads = by_ev.get("cache.read", [])
    outcomes: dict[str, int] = {}
    for event in reads:
        outcome = str(event.get("outcome", "?"))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    hits = outcomes.get("hit", 0)
    lookups = len(reads)
    writes = by_ev.get("cache.write", [])
    cache = {
        "lookups": lookups,
        "hits": hits,
        "misses": outcomes.get("miss", 0),
        "stale": outcomes.get("stale", 0),
        "quarantined": outcomes.get("quarantined", 0),
        "errors": outcomes.get("error", 0),
        "hit_rate": round(hits / lookups, 4) if lookups else None,
        "writes": len(writes),
        "write_failures": sum(1 for e in writes
                              if e.get("outcome") == "error"),
    }

    engine = {label: len(by_ev.get(name, ()))
              for name, label in (("job.submit", "submits"),
                                  ("job.retry", "retries"),
                                  ("job.timeout", "timeouts"),
                                  ("job.crash", "crashes"),
                                  ("job.inline_fallback",
                                   "inline_fallbacks"),
                                  ("job.failed", "failures"),
                                  ("engine.pool_rebuild",
                                   "pool_rebuilds"))}
    done = by_ev.get("job.done", [])
    engine["jobs_done"] = len(done)
    engine["engine_runs"] = len(by_ev.get("engine.run", ()))

    slowest = sorted((e for e in done if "dur" in e),
                     key=lambda e: -e["dur"])[:top]
    slowest_jobs = [{"key": e.get("key", "?"),
                     "wall_s": round(float(e["dur"]), 6),
                     "attempts": e.get("attempts", 1),
                     "inline": e.get("inline", False)} for e in slowest]

    workloads: dict[str, dict] = {}
    for name in ("record", "price"):
        for event in by_ev.get(name, ()):
            wl = event.get("workload")
            if wl is None or "dur" not in event:
                continue
            row = workloads.setdefault(str(wl), {
                "records": 0, "prices": 0, "record_s": 0.0, "price_s": 0.0})
            row[f"{name}s"] += 1
            row[f"{name}_s"] = round(row[f"{name}_s"] + event["dur"], 6)
    for event in reads:
        wl = event.get("workload")
        if wl is not None and event.get("outcome") == "hit":
            row = workloads.setdefault(str(wl), {
                "records": 0, "prices": 0, "record_s": 0.0, "price_s": 0.0})
            row["cache_hits"] = row.get("cache_hits", 0) + 1

    # Design-space sweeps leave one explore.sweep span each, carrying
    # its own cache totals (so no interval-matching is needed here) and
    # one explore.point span per priced (workload, grid point).
    sweeps = by_ev.get("explore.sweep", [])
    point_spans = by_ev.get("explore.point", [])
    sweep_lookups = sum(int(e.get("lookups", 0)) for e in sweeps)
    sweep_hits = sum(int(e.get("hits", 0)) for e in sweeps)
    explore = {
        "sweeps": len(sweeps),
        "points_priced": len(point_spans),
        "grid_points": sum(int(e.get("points", 0)) for e in sweeps),
        "workloads_swept": sum(int(e.get("workloads", 0)) for e in sweeps),
        "lookups": sweep_lookups,
        "hits": sweep_hits,
        "hit_rate": (round(sweep_hits / sweep_lookups, 4)
                     if sweep_lookups else None),
        "sweep_s": round(sum(float(e.get("dur", 0.0)) for e in sweeps), 6),
    }

    knob_events = by_ev.get("resilience.knob_warning", [])
    resilience = {
        "knob_warnings": len(knob_events),
        "knobs": sorted({str(e.get("knob", "?")) for e in knob_events}),
    }

    span = {}
    if events:
        span = {"first_ts": events[0]["ts"], "last_ts": events[-1]["ts"],
                "wall_span_s": round(events[-1]["ts"] - events[0]["ts"], 3)}

    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "events": len(events),
        "files": scan.files,
        "malformed": scan.malformed,
        "processes": len({e["pid"] for e in events}),
        "span": span,
        "stages": stages,
        "cache": cache,
        "engine": engine,
        "slowest_jobs": slowest_jobs,
        "workloads": dict(sorted(workloads.items())),
        "explore": explore,
        "resilience": resilience,
    }


# -- Perfetto export ---------------------------------------------------------

def ledger_to_chrome(scan: LedgerScan) -> dict:
    """Render a ledger as Chrome trace-event JSON (host wall-time axis).

    Reuses :class:`repro.obs.tracer.Tracer`: one lane (``tid``) per
    emitting process, pipeline/engine spans as complete events, cache
    hits and engine lifecycle events as instants.  Timestamps are
    microseconds since the earliest ledger event; the output passes
    :func:`repro.obs.schema.validate_chrome_trace`.
    """
    from repro.obs.tracer import Tracer

    tracer = Tracer(max_events=len(scan.events) + 1)
    if not scan.events:
        return tracer.to_chrome(process_name="repro-harness")
    # Spans carry their *completion* timestamp; the trace origin must
    # be the earliest span start, or early spans get negative ts.
    base = min(e["ts"] - (e["dur"] if e["ph"] == "span" else 0.0)
               for e in scan.events)
    lanes: dict[int, int] = {}
    for event in scan.events:
        lane = lanes.setdefault(event["pid"], len(lanes))
        ts_us = (event["ts"] - base) * 1e6
        cat = event["ev"].split(".", 1)[0]
        args = {k: v for k, v in event.items()
                if k not in _REQUIRED and k != "dur"
                and isinstance(v, (str, int, float, bool))}
        if event["ph"] == "span":
            dur_us = event["dur"] * 1e6
            # Spans are emitted at completion; Chrome wants the start.
            tracer.span(event["ev"], cat, max(0.0, ts_us - dur_us),
                        dur_us, tid=lane, **args)
        else:
            tracer.instant(event["ev"], cat, ts_us, tid=lane, **args)
    names = {lane: f"pid {pid}" for pid, lane in lanes.items()}
    return tracer.to_chrome(process_name="repro-harness",
                            thread_names=names)


__all__ = [
    "ENV_DIR", "ENGINE_EVENTS", "LEDGER_SCHEMA_VERSION", "LedgerScan",
    "LedgerSchemaError", "NULL_LEDGER", "NullLedger", "RunLedger",
    "STAGE_EVENTS", "aggregate", "default_ledger", "ledger_to_chrome",
    "read_ledger", "reset_default_ledger", "validate_event",
]
