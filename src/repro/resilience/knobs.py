"""Central validation of environment knobs.

Every ``REPRO_*`` tuning variable is read through :func:`env_int` /
:func:`env_float` so nonsense values (non-numeric, negative where a
count is required) are rejected the same way everywhere: one
``RuntimeWarning`` naming the variable, the bad value, and the
documented default that is used instead — not a scattering of silent
``except ValueError`` fallbacks.

Knobs validated through this module:

========================== ======= ===============================
variable                   default meaning
========================== ======= ===============================
``REPRO_WORKERS``               1  default engine worker count
``REPRO_JOB_RETRIES``           2  pool retries before inline fallback
``REPRO_JOB_TIMEOUT``           0  per-job seconds (0 = no timeout)
``REPRO_RETRY_BACKOFF``      0.05  base retry backoff seconds
========================== ======= ===============================
"""

from __future__ import annotations

import os
import warnings

#: Variables already warned about this process (warn once per knob).
_warned: set[str] = set()


def reset_knob_warnings() -> None:
    """Allow each knob to warn again (tests)."""
    _warned.clear()


def _warn_once(name: str, message: str) -> None:
    if name in _warned:
        return
    _warned.add(name)
    warnings.warn(message, RuntimeWarning, stacklevel=4)
    # One-shot RuntimeWarnings are invisible in non-interactive runs
    # (CI logs swallow them); leave a durable trail too: a resilience
    # counter and, when the run ledger is on, a ledger event.
    # Imported lazily so the knob layer stays import-cycle-free.
    from repro.obs.spans import clock
    from repro.resilience.metrics import RES_COUNTERS

    RES_COUNTERS.inc("resilience.knob_warnings")
    clock().instant("resilience.knob_warning", knob=name, message=message)


def _env_number(name: str, default, cast, describe: str, *,
                minimum=None, maximum=None):
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = cast(raw)
    except (TypeError, ValueError):
        _warn_once(name, f"ignoring {name}={raw!r}: not {describe}; "
                         f"using default {default}")
        return default
    if minimum is not None and value < minimum:
        _warn_once(name, f"ignoring {name}={raw!r}: must be >= {minimum}; "
                         f"using default {default}")
        return default
    if maximum is not None and value > maximum:
        _warn_once(name, f"ignoring {name}={raw!r}: must be <= {maximum}; "
                         f"using default {default}")
        return default
    return value


def env_int(name: str, default: int, *, minimum: int | None = None,
            maximum: int | None = None) -> int:
    """Read an integer knob, falling back to ``default`` with one warning."""
    return _env_number(name, default, int, "an integer",
                       minimum=minimum, maximum=maximum)


def env_float(name: str, default: float, *, minimum: float | None = None,
              maximum: float | None = None) -> float:
    """Read a float knob, falling back to ``default`` with one warning."""
    return _env_number(name, default, float, "a number",
                       minimum=minimum, maximum=maximum)


__all__ = ["env_float", "env_int", "reset_knob_warnings"]
