"""Span tracing of the program's layers, from outside the program.

:class:`Tracer` wraps each entry point of :data:`layers.ENTRIES` where
its callers look it up: a method is replaced on its class, a function
on every ``repro`` module that holds it (so re-exports such as
``repro.workloads.run_workload`` are wrapped too).  Each wrapped call
records one span — entry point, start, end, parent span and the id of
the run it serves — into in-memory columns, and folds its *self time*
(its duration minus that of wrapped calls nested in it) into per-entry
totals.  Spans stay in memory until :meth:`Tracer.write`.

Nothing in ``src/`` knows about the tracer; uninstalling restores every
original object.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

import layers

SETUP, PASS = 0, 1


def _resolve(target: str):
    """``(owner, attribute name, original)`` of ``module:qual.name``."""
    module_name, _, qual = target.partition(":")
    __import__(module_name)
    owner = sys.modules[module_name]
    *path, name = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if isinstance(owner, type) \
        else getattr(owner, name)


def _module_aliases(original) -> list[tuple[object, str]]:
    """Every ``(repro module, name)`` bound to ``original``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name))
    return found


def _quarantined() -> int:
    from repro.resilience.metrics import RES_COUNTERS

    return int(RES_COUNTERS.flat().get("resilience.cache.quarantined", 0))


class _TimedContext:
    """Context manager whose enter and exit are spans of one entry."""

    __slots__ = ("_tracer", "_fid", "_inner")

    def __init__(self, tracer, fid, inner):
        self._tracer, self._fid, self._inner = tracer, fid, inner

    def __enter__(self):
        return self._tracer._call(self._fid, self._inner.__enter__, (), {},
                                  count=True)

    def __exit__(self, *exc):
        return self._tracer._call(self._fid, self._inner.__exit__, exc, {},
                                  count=False)


class Tracer:
    """Wraps :data:`layers.ENTRIES`; records spans and self time."""

    def __init__(self):
        self.entries = layers.ENTRIES
        n = len(self.entries)
        #: span columns, indexed by span id (entry order)
        self.fid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        #: per phase, per entry: [calls, self seconds]
        self.stats = [[[0, 0.0] for _ in range(n)] for _ in (SETUP, PASS)]
        #: per phase: named counters filled by entry hooks
        self.extra = [dict(), dict()]
        self.phase = SETUP
        #: runs served (``run_workload`` calls): one description each
        self.runs: list[dict] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._current_run = -1
        self._patches: list[tuple[object, str, object]] = []
        #: cache entries quarantined during the pass
        self.quarantined = 0
        self._quarantined_start = 0
        self.t0 = perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Replace every entry point by its wrapper."""
        for fid, entry in enumerate(self.entries):
            owner, name, original = _resolve(entry.target)
            wrapper = self._wrapper(fid, entry, original)
            if isinstance(owner, type):
                sites = [(owner, name)]
            else:
                sites = _module_aliases(original)
            for site, attr in sites:
                self._patches.append((site, attr, getattr(site, attr)
                                      if not isinstance(site, type)
                                      else site.__dict__[attr]))
                setattr(site, attr, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every original object."""
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    def begin_pass(self) -> None:
        """Switch from the set-up phase to the timed-pass phase."""
        self.phase = PASS
        self._quarantined_start = _quarantined()

    def end_pass(self) -> None:
        self.quarantined = _quarantined() - self._quarantined_start

    # -- the wrapped call ----------------------------------------------------

    def _wrapper(self, fid: int, entry, original):
        call = self._call
        if entry.kind == "context":
            def wrapper(*args, **kwargs):
                return _TimedContext(self, fid, original(*args, **kwargs))
        elif entry.kind == "memo":
            info = original.cache_info

            def wrapper(*args, **kwargs):
                hits = info().hits
                result = call(fid, original, args, kwargs)
                extra = self.extra[self.phase]
                for name, n in ((".lookups", 1),
                                (".hits", info().hits - hits)):
                    extra[entry.metric + name] = \
                        extra.get(entry.metric + name, 0) + n
                return result
        elif entry.kind == "run":
            def wrapper(*args, **kwargs):
                prev = self._current_run
                self._current_run = len(self.runs)
                self.runs.append(dict(layers.describe_run(args, kwargs),
                                      phase=self.phase))
                try:
                    return call(fid, original, args, kwargs)
                finally:
                    self._current_run = prev
        else:
            def wrapper(*args, **kwargs):
                return call(fid, original, args, kwargs)
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", entry.target)
        for attr in ("cache_info", "cache_clear"):  # memoized loaders
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        return wrapper

    def _call(self, fid, fn, args, kwargs, count=True):
        stack, child = self._stack, self._child
        sid = len(self.fid)
        self.fid.append(fid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self._current_run)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(sid)
        child.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            nested = child.pop()
            if child:
                child[-1] += duration
            stat = self.stats[self.phase][fid]
            stat[0] += count
            stat[1] += duration - nested
            self.start[sid] = start
            self.end[sid] = end
        hook = self.entries[fid].hook
        if hook is not None:
            hook(self.extra[self.phase], args, result)
        return result

    # -- results -------------------------------------------------------------

    def totals(self, phases=(PASS,)) -> dict[str, list]:
        """``{entry metric prefix: [calls, self seconds]}`` over phases."""
        out: dict[str, list] = {}
        for fid, entry in enumerate(self.entries):
            total = out.setdefault(entry.metric, [0, 0.0])
            for phase in phases:
                total[0] += self.stats[phase][fid][0]
                total[1] += self.stats[phase][fid][1]
        return out

    def entry_calls(self, phases=(SETUP, PASS)) -> list[int]:
        """Calls per entry point (entry order)."""
        return [sum(self.stats[p][fid][0] for p in phases)
                for fid in range(len(self.entries))]

    def counter(self, name: str, phases=(PASS,)) -> float:
        return sum(self.extra[p].get(name, 0) for p in phases)

    def run_durations(self) -> list[float]:
        """Wall seconds of every traced ``run_workload`` call in the pass."""
        import numpy as np

        spans = np.flatnonzero(np.frombuffer(self.fid, dtype=np.uint16)
                               == layers.RUN_ENTRY)
        runs = np.frombuffer(self.run, dtype=np.int32)[spans]
        keep = spans[[self.runs[r]["phase"] == PASS for r in runs]]
        return (np.frombuffer(self.end)[keep]
                - np.frombuffer(self.start)[keep]).tolist()

    def write(self, path) -> None:
        """Write every span (seconds since the tracer was made)."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            entry=np.frombuffer(self.fid, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64) - self.t0,
            end=np.frombuffer(self.end, dtype=np.float64) - self.t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            entries=np.array(json.dumps(
                [{"target": e.target, "layer": e.layer, "metric": e.metric}
                 for e in self.entries])),
            runs=np.array(json.dumps(self.runs)),
        )
