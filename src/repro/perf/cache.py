"""Persistent, content-addressed run cache.

The paper's methodology records each application **once** and re-costs
the same trace under every machine model (Section 6.1).  This module
extends that record-once/re-cost-many loop across *processes*: a
recorded :class:`~repro.arch.trace.FrozenTrace` is serialized to a
compressed ``.npz`` (columns + Figure 14 length samples) next to a JSON
metadata sidecar, addressed by a SHA-256 fingerprint of everything that
determines the recording:

* the workload identity (app code / dataflow / kernel),
* the dataset *generator parameters* (not just its name — rescaling or
  reseeding a stand-in changes the key),
* the scale factor,
* :data:`CACHE_FORMAT_VERSION`.

Cost-model outputs are deliberately **not** cached: a hit re-prices the
stored trace under the current models, so model changes never serve
stale metrics — only the expensive per-op Python recording is skipped.

**Integrity.** Every sidecar stores a SHA-256 checksum of the payload
bytes, verified on read.  A damaged entry — truncated or bit-flipped
``.npz``, unparseable sidecar, checksum mismatch — is never served and
never crashes the reader: both files move to a ``quarantine/`` subdir
(with a ``.reason`` note) and the lookup reads as a miss, so the run
simply re-records.  Orphans (payload without sidecar or vice versa)
and stale-format entries are counted by :meth:`RunCache.stats` and
repaired by :meth:`RunCache.fsck` (``python -m repro cache fsck``).
Writes are atomic (temp file + ``os.replace``), so concurrent writers
racing on one key last-write-win with bytes-identical content, and a
reader never observes a half-written entry.

This is the only run cache: every caller (figures, engine jobs,
sweeps, the CLI) looks a run up by its
:func:`~repro.workloads.run_fingerprint` and re-prices the trace it
reads, so each lookup returns freshly computed metrics.  The cache
root comes from ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-sparsecore/runs``, ``$XDG_CACHE_HOME``-aware).
``REPRO_RUN_CACHE=0`` means nothing persists across processes: the
default cache is then a process-private temporary directory, removed
at exit.  Manage the persistent cache with
``python -m repro cache {stats,prewarm,fsck,clear}``.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import json
import os
import shutil
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.arch.trace import FrozenTrace
from repro.resilience.faults import InjectedOSError, corrupt_bytes, inject
from repro.resilience.metrics import RES_COUNTERS

#: Bump whenever the trace layout, recording semantics, or key schema
#: change in a way that invalidates previously stored runs.  v2:
#: spec-derived fingerprints from the unified workload pipeline
#: (:func:`repro.workloads.run_fingerprint`) replaced the per-family
#: key builders.  v3: the recording backend joined the fingerprint
#: params.  v4: one recorder remains, so the backend left the
#: fingerprint again; the ``.npz`` trace layout is unchanged throughout.
#: ``cache stats``/``fsck`` report a per-version histogram so a bump
#: shows up as counted stale entries rather than a silent mass-miss.
CACHE_FORMAT_VERSION = 4

#: Sidecar schema version (the JSON next to each ``.npz``).  v2 added
#: the ``payload_sha256`` content checksum (v1 sidecars, which lack it,
#: are still readable — they just skip verification until re-recorded).
SIDECAR_SCHEMA_VERSION = 2

#: Subdirectory damaged entries are moved to (never deleted, never
#: re-served; ``cache clear`` empties it).
QUARANTINE_DIR = "quarantine"

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLE = "REPRO_RUN_CACHE"

#: Exceptions that mean "this payload is not a valid trace archive".
_DECODE_ERRORS = (KeyError, ValueError, OSError, EOFError,
                  zipfile.BadZipFile)


def fingerprint(kind: str, params: dict,
                version: int = CACHE_FORMAT_VERSION) -> str:
    """Content address of one run: hash of workload + generator params."""
    blob = json.dumps({"kind": kind, "params": params, "version": version},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


@dataclass
class CachedRun:
    """One disk-cache hit: the recorded trace plus run-level facts."""

    trace: FrozenTrace
    meta: dict
    lengths: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))


@dataclass
class CacheScan:
    """One pass over the cache directory, nothing silently skipped."""

    entries: list[dict] = field(default_factory=list)
    entry_keys: list[str] = field(default_factory=list)
    #: sidecars that exist but do not parse as JSON
    corrupt_sidecars: list[Path] = field(default_factory=list)
    #: parseable sidecars whose ``.npz`` payload is missing
    orphan_sidecars: list[Path] = field(default_factory=list)
    #: ``.npz`` payloads with no sidecar
    orphan_payloads: list[Path] = field(default_factory=list)
    #: entry keys recorded under a different CACHE_FORMAT_VERSION
    stale: list[str] = field(default_factory=list)
    #: entry count per recorded ``format_version`` (sidecars without
    #: one — pre-v2 — count under ``"unversioned"``)
    format_versions: dict = field(default_factory=dict)
    #: distinct entries currently held in ``quarantine/``
    quarantined: int = 0
    #: leftover ``*.tmp`` files from interrupted writers
    tmp_files: int = 0

    @property
    def damaged(self) -> int:
        """Files/entries needing fsck attention (quarantine not counted)."""
        return (len(self.corrupt_sidecars) + len(self.orphan_sidecars)
                + len(self.orphan_payloads) + len(self.stale))


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-sparsecore" / "runs"


def cache_enabled() -> bool:
    return os.environ.get(_ENV_ENABLE, "1") not in ("0", "false", "off", "")


class RunCache:
    """Content-addressed on-disk store of recorded runs.

    Layout: ``<root>/<fingerprint>.npz`` (trace columns + lengths),
    ``<root>/<fingerprint>.json`` (sidecar: key parameters, run facts,
    payload checksum), and ``<root>/quarantine/`` for damaged files.
    Reads verify the checksum and **never raise**: anything damaged is
    quarantined and reported as a miss; transient I/O errors are
    counted and reported as misses without quarantining.
    """

    def __init__(self, root: str | Path | None = None, *,
                 counters=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        #: resilience counter sink (defaults to the process registry)
        self.counters = RES_COUNTERS if counters is None else counters

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.npz", self.root / f"{key}.json"

    # -- quarantine --------------------------------------------------------

    def _quarantine_file(self, path: Path, reason: str) -> bool:
        """Move one damaged file aside; never raises."""
        qdir = self.root / QUARANTINE_DIR
        try:
            if not path.exists():
                return False
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
            (qdir / f"{path.stem}.reason").write_text(reason + "\n")
        except OSError:
            return False
        self.counters.inc("resilience.cache.quarantined_files")
        return True

    def _quarantine(self, key: str, reason: str) -> bool:
        """Move a damaged entry (payload + sidecar) into quarantine."""
        npz_path, json_path = self._paths(key)
        moved = self._quarantine_file(npz_path, reason)
        moved = self._quarantine_file(json_path, reason) or moved
        if moved:
            self.counters.inc("resilience.cache.quarantined")
        return moved

    # -- read --------------------------------------------------------------

    def get(self, key: str, *,
            ledger_attrs: dict | None = None) -> CachedRun | None:
        """Load one entry; corrupt entries quarantine and read as misses.

        With the run ledger enabled every lookup emits one
        ``cache.read`` span carrying the fingerprint, the wall time,
        and the outcome (``hit``/``miss``/``stale``/``quarantined``/
        ``error``); ``ledger_attrs`` adds caller context (workload,
        dataset).  The outcome never changes what is returned.
        """
        from repro.obs.spans import clock

        led = clock()
        if not led.enabled:
            return self._get(key)[0]
        t0 = led.start()
        run, outcome = self._get(key)
        led.span("cache.read", t0, fp=key, outcome=outcome,
                 **(ledger_attrs or {}))
        return run

    def _get(self, key: str) -> tuple[CachedRun | None, str]:
        """The lookup itself; returns ``(entry or None, outcome)``."""
        npz_path, json_path = self._paths(key)
        counters = self.counters
        try:
            point = inject("cache.read", key)
        except InjectedOSError:
            counters.inc("resilience.cache.read_errors")
            return None, "error"
        try:
            raw_meta = json_path.read_text()
        except FileNotFoundError:
            return None, "miss"
        except OSError:
            counters.inc("resilience.cache.read_errors")
            return None, "error"
        try:
            meta = json.loads(raw_meta)
        except json.JSONDecodeError:
            self._quarantine(key, "sidecar is not valid JSON")
            return None, "quarantined"
        try:
            payload = npz_path.read_bytes()
        except FileNotFoundError:
            self._quarantine(key, "payload .npz missing (orphan sidecar)")
            return None, "quarantined"
        except OSError:
            counters.inc("resilience.cache.read_errors")
            return None, "error"
        if point is not None and point.kind == "corrupt":
            payload = corrupt_bytes(payload)  # simulated bit rot on read
        want = meta.get("payload_sha256")
        if want is not None \
                and hashlib.sha256(payload).hexdigest() != want:
            counters.inc("resilience.cache.checksum_mismatch")
            self._quarantine(key, "payload checksum mismatch")
            return None, "quarantined"
        try:
            with np.load(io.BytesIO(payload)) as data:
                trace = FrozenTrace.from_npz(data)
                lengths = (np.asarray(data["lengths"], dtype=np.int64)
                           if "lengths" in data.files
                           else np.empty(0, dtype=np.int64))
        except _DECODE_ERRORS:
            self._quarantine(key, "payload is not a decodable trace "
                                  "archive")
            return None, "quarantined"
        if meta.get("format_version") != CACHE_FORMAT_VERSION:
            # stale but intact: miss (fsck quarantines these)
            return None, "stale"
        return CachedRun(trace=trace, meta=meta, lengths=lengths), "hit"

    def __contains__(self, key: str) -> bool:
        npz_path, json_path = self._paths(key)
        return npz_path.exists() and json_path.exists()

    # -- write -------------------------------------------------------------

    def put(self, key: str, trace: FrozenTrace, meta: dict,
            lengths: np.ndarray | None = None) -> bool:
        """Store one entry; returns False on (tolerated) write failure.

        A cache write failure is never fatal — the caller already holds
        the freshly recorded trace, so the run degrades to uncached.
        With the ledger enabled each store emits one ``cache.write``
        span (fingerprint, wall time, ``ok``/``error`` outcome).
        """
        from repro.obs.spans import clock

        led = clock()
        if not led.enabled:
            return self._put(key, trace, meta, lengths)
        t0 = led.start()
        ok = self._put(key, trace, meta, lengths)
        led.span("cache.write", t0, fp=key,
                 outcome="ok" if ok else "error",
                 workload=meta.get("workload"),
                 dataset=meta.get("dataset"))
        return ok

    def _put(self, key: str, trace: FrozenTrace, meta: dict,
             lengths: np.ndarray | None = None) -> bool:
        counters = self.counters
        try:
            point = inject("cache.write", key)
        except InjectedOSError:
            counters.inc("resilience.cache.write_errors")
            return False
        extra = {}
        if lengths is not None:
            extra["lengths"] = np.asarray(lengths, dtype=np.int64)
        buf = io.BytesIO()
        trace.save(buf, **extra)
        payload = buf.getvalue()
        # Checksum the true bytes; injected corruption happens "after"
        # (bit rot on the way to disk) so verification catches it.
        digest = hashlib.sha256(payload).hexdigest()
        if point is not None and point.kind == "corrupt":
            payload = corrupt_bytes(payload)
            counters.inc("resilience.cache.corrupt_writes")
        sidecar = {
            "schema_version": SIDECAR_SCHEMA_VERSION,
            "format_version": CACHE_FORMAT_VERSION,
            "key": key,
            "num_ops": trace.num_ops,
            "payload_sha256": digest,
            **meta,
        }
        npz_path, json_path = self._paths(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_atomic(npz_path, payload, ".npz.tmp")
            self._write_atomic(
                json_path,
                json.dumps(sidecar, indent=1, sort_keys=True).encode(),
                ".json.tmp")
        except OSError:
            counters.inc("resilience.cache.write_errors")
            return False
        return True

    def _write_atomic(self, dest: Path, data: bytes, suffix: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=suffix)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, dest)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- maintenance -------------------------------------------------------

    def scan(self) -> CacheScan:
        """Inventory the cache directory, counting every anomaly."""
        scan = CacheScan()
        if not self.root.is_dir():
            return scan
        payloads = {p.stem: p for p in self.root.glob("*.npz")}
        claimed: set[str] = set()
        for path in sorted(self.root.glob("*.json")):
            try:
                meta = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                scan.corrupt_sidecars.append(path)
                continue
            if path.stem not in payloads:
                scan.orphan_sidecars.append(path)
                continue
            claimed.add(path.stem)
            scan.entries.append(meta)
            scan.entry_keys.append(path.stem)
            version = meta.get("format_version")
            label = "unversioned" if version is None else f"v{version}"
            scan.format_versions[label] = \
                scan.format_versions.get(label, 0) + 1
            if version != CACHE_FORMAT_VERSION:
                scan.stale.append(path.stem)
        scan.orphan_payloads = [p for stem, p in sorted(payloads.items())
                                if stem not in claimed]
        scan.tmp_files = sum(1 for p in self.root.iterdir()
                             if p.name.endswith(".tmp"))
        qdir = self.root / QUARANTINE_DIR
        if qdir.is_dir():
            scan.quarantined = len({p.stem for p in qdir.iterdir()
                                    if p.suffix in (".npz", ".json")})
        return scan

    def entries(self) -> list[dict]:
        """Sidecars of every intact cached run (sorted by key).

        Anomalies are *not* silently skipped — they are counted by
        :meth:`scan`/:meth:`stats` and repaired by :meth:`fsck`.
        """
        return self.scan().entries

    def stats(self) -> dict:
        """Entry count, on-disk footprint, and anomaly counts."""
        scan = self.scan()
        total_bytes = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                try:
                    if path.is_file():
                        total_bytes += path.stat().st_size
                except OSError:
                    continue
        return {
            "root": str(self.root),
            "entries": len(scan.entries),
            "bytes": total_bytes,
            "stream_ops": sum(int(m.get("num_ops", 0))
                              for m in scan.entries),
            "format_version": CACHE_FORMAT_VERSION,
            "format_versions": dict(sorted(scan.format_versions.items())),
            "stale_entries": len(scan.stale),
            "corrupt_sidecars": len(scan.corrupt_sidecars),
            "orphan_sidecars": len(scan.orphan_sidecars),
            "orphan_payloads": len(scan.orphan_payloads),
            "quarantined": scan.quarantined,
            "tmp_files": scan.tmp_files,
        }

    def fsck(self, *, strict: bool = False) -> dict:
        """Verify every entry end-to-end; quarantine whatever fails.

        Deep check: each intact-looking entry is fully loaded and its
        checksum verified (via :meth:`get`, which quarantines on
        corruption).  Orphans, unparseable sidecars, and stale-format
        entries are quarantined too.  With ``strict=True`` a repair
        raises :class:`~repro.errors.CacheCorruptionError` after
        completing, for CI gates.
        """
        from repro.errors import CacheCorruptionError

        scan = self.scan()
        quarantined = 0
        for path in scan.corrupt_sidecars:
            quarantined += self._quarantine_file(
                path, "fsck: sidecar is not valid JSON")
        for path in scan.orphan_sidecars:
            quarantined += self._quarantine_file(
                path, "fsck: sidecar without payload")
        for path in scan.orphan_payloads:
            quarantined += self._quarantine_file(
                path, "fsck: payload without sidecar")
        stale = set(scan.stale)
        checked = ok = corrupt = 0
        for key in scan.entry_keys:
            checked += 1
            if key in stale:
                self._quarantine(key, "fsck: stale format_version")
                quarantined += 1
                continue
            if self.get(key) is None:  # quarantines internally
                corrupt += 1
                quarantined += 1
            else:
                ok += 1
        report = {
            "root": str(self.root),
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt + len(scan.corrupt_sidecars),
            "stale": len(scan.stale),
            "format_versions": dict(sorted(scan.format_versions.items())),
            "orphans": (len(scan.orphan_sidecars)
                        + len(scan.orphan_payloads)),
            "quarantined": quarantined,
        }
        if strict and quarantined:
            raise CacheCorruptionError(
                f"cache fsck quarantined {quarantined} damaged "
                f"file(s)/entr(y|ies) under {self.root}")
        return report

    def clear(self) -> int:
        """Delete every cache entry (quarantine and leftover temp files
        included); returns the number of entries removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.iterdir():
            if path.is_dir() and path.name == QUARANTINE_DIR:
                shutil.rmtree(path, ignore_errors=True)
                continue
            if path.suffix in (".npz", ".json") or path.name.endswith(".tmp"):
                try:
                    path.unlink()
                    removed += path.suffix == ".npz"
                except OSError:
                    continue
        return removed

    def __repr__(self) -> str:
        return f"RunCache({str(self.root)!r})"


_DEFAULT_CACHE: RunCache | None = None
#: backing directory of a disabled-by-env default cache
_PRIVATE_DIR: tempfile.TemporaryDirectory | None = None


def default_run_cache() -> RunCache:
    """Process-wide default cache.

    With ``REPRO_RUN_CACHE=0`` it lives in a process-private temporary
    directory that :func:`reset_default_run_cache` and interpreter exit
    remove: each run still records once per process, but nothing
    persists across processes.
    """
    global _DEFAULT_CACHE, _PRIVATE_DIR
    if _DEFAULT_CACHE is None:
        if cache_enabled():
            _DEFAULT_CACHE = RunCache()
        else:
            _PRIVATE_DIR = tempfile.TemporaryDirectory(prefix="repro-runs-")
            atexit.register(_PRIVATE_DIR.cleanup)
            _DEFAULT_CACHE = RunCache(_PRIVATE_DIR.name)
    return _DEFAULT_CACHE


def reset_default_run_cache() -> None:
    """Forget the default cache, deleting a private one (tests / env
    changes)."""
    global _DEFAULT_CACHE, _PRIVATE_DIR
    if _PRIVATE_DIR is not None:
        _PRIVATE_DIR.cleanup()
    _DEFAULT_CACHE = _PRIVATE_DIR = None


__all__ = [
    "CACHE_FORMAT_VERSION", "CacheScan", "CachedRun", "QUARANTINE_DIR",
    "RunCache", "cache_enabled", "default_cache_dir", "default_run_cache",
    "fingerprint", "reset_default_run_cache",
]
