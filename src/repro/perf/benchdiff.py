"""Schema-aware benchmark comparison: ``python -m repro bench diff``.

Turns the committed ``BENCH_wallclock.json`` / ``BENCH_profile.json``
trajectories into a **gated regression signal**: given an old and a new
report the comparator classifies every shared numeric leaf, applies a
relative tolerance, and exits nonzero when the new report regressed —
so CI can diff the current commit's smoke run against the committed
baseline instead of letting the artifacts rot write-only.

Classification is by report kind and dotted key path:

* **time** (lower is better) — ``timings_s.*`` and
  ``ledger.cold_serial_ledger_s`` in wallclock reports,
  ``workloads.*.wall_seconds`` in profile reports.  Regression when
  ``new > old * (1 + tolerance)``.
* **ratio** (higher is better) — ``speedups.*``, ``throughput.*``
  and ``workloads.*.speedup_vs_cpu``.
  Regression when ``new < old * (1 - tolerance)``.  Ratio checks are
  only applied when both reports ran the same ``mode`` (a smoke run's
  warm/cold ratio is not comparable to a full run's).
* everything else is informational (cycles and counters are
  deterministic model outputs pinned by the golden tests, not wall
  time — drift there is reported but does not gate).

Exit codes: 0 = no regression, 1 = regression beyond tolerance,
2 = schema problem (unreadable file, mismatched kinds, or a gated key
present in the old report but missing from the new one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Default relative tolerance (wall time is noisy; ratios doubly so).
DEFAULT_TOLERANCE = 0.25

#: Exit statuses (also the ``BenchDiff.exit_code`` values).
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_SCHEMA = 2


class BenchSchemaError(ValueError):
    """The reports cannot be compared (unknown or mismatched kinds)."""


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested report, keyed by dotted path."""
    out: dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix[:-1]] = float(obj)
    return out


def detect_kind(report: dict) -> str:
    """``"wallclock"`` or ``"profile"``; raises on anything else."""
    if not isinstance(report, dict):
        raise BenchSchemaError("report is not a JSON object")
    if "timings_s" in report:
        return "wallclock"
    if "workloads" in report:
        return "profile"
    raise BenchSchemaError(
        "unrecognized benchmark report (expected BENCH_wallclock.json "
        "with 'timings_s' or BENCH_profile.json with 'workloads')")


def classify(kind: str, path: str) -> str:
    """``"time"`` (lower better), ``"ratio"`` (higher better), ``"info"``."""
    if kind == "wallclock":
        if path.startswith("timings_s.") \
                or path == "ledger.cold_serial_ledger_s":
            return "time"
        if path.startswith(("speedups.", "throughput.")):
            return "ratio"
        return "info"
    if path.endswith(".wall_seconds"):
        return "time"
    if path.endswith(".speedup_vs_cpu"):
        return "ratio"
    return "info"


@dataclass
class BenchDelta:
    """One compared leaf."""

    path: str
    kind: str  # time | ratio | info
    old: float
    new: float
    #: relative change ``(new - old) / old`` (None when old == 0)
    change: float | None
    status: str  # ok | regression | improved | drift


@dataclass
class BenchDiff:
    """Outcome of one report comparison."""

    kind: str
    tolerance: float
    same_mode: bool
    deltas: list[BenchDelta] = field(default_factory=list)
    #: gated (time/ratio) keys in the old report absent from the new
    missing: list[str] = field(default_factory=list)
    #: checks skipped because the reports ran different modes
    skipped_ratio_keys: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    @property
    def exit_code(self) -> int:
        if self.missing:
            return EXIT_SCHEMA
        return EXIT_REGRESSION if self.regressions else EXIT_OK

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "tolerance": self.tolerance,
            "same_mode": self.same_mode,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "regressions": [vars(d) for d in self.regressions],
            "missing_keys": list(self.missing),
            "skipped_ratio_keys": list(self.skipped_ratio_keys),
            "compared": len(self.deltas),
            "deltas": [vars(d) for d in self.deltas
                       if d.status != "ok"],
        }

    def render(self) -> str:
        lines = [f"bench diff ({self.kind}, tolerance "
                 f"{self.tolerance:.0%}, "
                 f"{'same' if self.same_mode else 'DIFFERENT'} mode): "
                 f"{len(self.deltas)} leaves compared"]
        for delta in self.deltas:
            if delta.status == "ok":
                continue
            pct = f"{delta.change:+.1%}" if delta.change is not None \
                else "n/a"
            lines.append(f"  {delta.status.upper():10s} {delta.path}: "
                         f"{delta.old:g} -> {delta.new:g} ({pct}, "
                         f"{delta.kind})")
        for path in self.missing:
            lines.append(f"  MISSING    {path}: present in old report, "
                         f"absent from new")
        if self.skipped_ratio_keys:
            lines.append(f"  (skipped {len(self.skipped_ratio_keys)} "
                         f"ratio check(s): reports ran different modes)")
        lines.append(f"verdict: "
                     f"{'OK' if self.ok else 'REGRESSION' if self.regressions else 'SCHEMA'}"
                     + (f" ({len(self.regressions)} regression(s))"
                        if self.regressions else ""))
        return "\n".join(lines)


def diff_reports(old: dict, new: dict, *,
                 tolerance: float = DEFAULT_TOLERANCE) -> BenchDiff:
    """Compare two benchmark reports of the same kind.

    Every gated key of the *old* report must exist in the new one
    (missing keys are a schema failure — a silently dropped phase must
    not read as "no regression"); keys new to the new report are fine.
    """
    kind = detect_kind(old)
    if detect_kind(new) != kind:
        raise BenchSchemaError(
            f"cannot compare a {kind} report against a "
            f"{detect_kind(new)} report")
    same_mode = old.get("mode") == new.get("mode")
    old_flat, new_flat = flatten(old), flatten(new)
    diff = BenchDiff(kind=kind, tolerance=float(tolerance),
                     same_mode=same_mode)
    for path, old_value in sorted(old_flat.items()):
        cls = classify(kind, path)
        if cls == "info":
            continue
        if cls == "ratio" and not same_mode:
            diff.skipped_ratio_keys.append(path)
            continue
        if path not in new_flat:
            diff.missing.append(path)
            continue
        new_value = new_flat[path]
        change = (new_value - old_value) / old_value if old_value else None
        if cls == "time":
            regressed = new_value > old_value * (1.0 + diff.tolerance)
            improved = new_value < old_value * (1.0 - diff.tolerance)
        else:
            regressed = new_value < old_value * (1.0 - diff.tolerance)
            improved = new_value > old_value * (1.0 + diff.tolerance)
        status = ("regression" if regressed
                  else "improved" if improved else "ok")
        diff.deltas.append(BenchDelta(path=path, kind=cls, old=old_value,
                                      new=new_value, change=change,
                                      status=status))
    # Informational drift: deterministic leaves that changed at all.
    if kind == "profile":
        for path, old_value in sorted(old_flat.items()):
            if classify(kind, path) != "info" or path not in new_flat:
                continue
            if new_flat[path] != old_value and not path.startswith(
                    ("schema_version", "machine.")):
                diff.deltas.append(BenchDelta(
                    path=path, kind="info", old=old_value,
                    new=new_flat[path],
                    change=((new_flat[path] - old_value) / old_value
                            if old_value else None),
                    status="drift"))
    return diff


def load_report(path: str | Path) -> dict:
    """Read one benchmark JSON; raises :class:`BenchSchemaError`."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise BenchSchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path} is not valid JSON: {exc}") from exc


def diff_files(old_path, new_path, *,
               tolerance: float = DEFAULT_TOLERANCE) -> BenchDiff:
    """File-level entry point used by the CLI."""
    return diff_reports(load_report(old_path), load_report(new_path),
                        tolerance=tolerance)


__all__ = [
    "BenchDelta", "BenchDiff", "BenchSchemaError", "DEFAULT_TOLERANCE",
    "EXIT_OK", "EXIT_REGRESSION", "EXIT_SCHEMA", "classify",
    "detect_kind", "diff_files", "diff_reports", "flatten", "load_report",
]
