"""Declarative sweep axes and grid construction.

An :class:`Axis` names one :class:`~repro.arch.config.SparseCoreConfig`
field and the values it sweeps over; a grid is the cartesian product of
axes, each point one :class:`~repro.arch.config.MachineConfigs` derived
from a named preset via :func:`~repro.arch.config.config_variant`.

Axis syntax (the CLI ``--axis`` argument)::

    num_sus=1,2,4,8,16        explicit value list
    scache_bandwidth=2..64    geometric range, doubling (2,4,8,16,32,64)
    num_sus=2..8:2            arithmetic range with step (2,4,6,8)
    scalar_cpi=0.1..0.3:0.1   arithmetic range of floats (0.1,0.2,0.3)

Field names are validated against
:func:`~repro.arch.config.sweepable_fields` (the fields pricing reads)
up front, and every derived config revalidates on construction — a
typo'd axis, a field pricing does not read, or an illegal value (zero
SUs, a fractional SU count) fails with
:class:`~repro.errors.ConfigError` before any model runs.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass

from repro.arch.config import MachineConfigs, check_sweep_axis, config_variant
from repro.errors import ConfigError


@dataclass(frozen=True)
class Axis:
    """One swept configuration dimension: a field and its values."""

    field: str
    values: tuple

    def __post_init__(self):
        check_sweep_axis(self.field)
        if not self.values:
            raise ConfigError(f"axis {self.field!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(
                f"axis {self.field!r} has duplicate values: {self.values}")


def _parse_number(text: str, axis: str):
    """One axis value: int when int-shaped, float otherwise."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(
            f"axis {axis!r}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"axis {axis!r}: {text!r} is not finite")
    return value


def _decimals(text: str) -> int:
    """Decimal places written in a number (``"0.25"`` -> 2, ``"1e-3"`` -> 3)."""
    return max(0, -decimal.Decimal(text.strip()).as_tuple().exponent)


def _expand_range(spec: str, axis: str) -> list:
    """``lo..hi`` (doubling) or ``lo..hi:step`` (arithmetic)."""
    step = None
    if ":" in spec:
        spec, step_text = spec.split(":", 1)
        step = _parse_number(step_text, axis)
        if step <= 0:
            raise ConfigError(f"axis {axis!r}: step must be positive, "
                              f"got {step}")
    lo_text, hi_text = spec.split("..", 1)
    lo, hi = _parse_number(lo_text, axis), _parse_number(hi_text, axis)
    if lo > hi:
        raise ConfigError(f"axis {axis!r}: empty range {lo}..{hi}")
    values = []
    if step is None:
        # Geometric doubling — the shape of every hardware sweep in the
        # paper (SU counts, bandwidths, SRAM sizes).
        value = lo
        while value <= hi:
            values.append(value)
            value *= 2
        if values[-1] != hi:
            raise ConfigError(
                f"axis {axis!r}: {hi} is not {lo} doubled; use an "
                f"explicit list or lo..hi:step for arithmetic ranges")
    else:
        # lo + i*step, never a running sum (which drifts), with hi kept
        # when it is on the step grid up to float error, and each value
        # after lo (kept as written) rounded to the decimals the user
        # wrote.
        span = (hi - lo) / step
        count = round(span) if math.isclose(span, round(span)) \
            else math.floor(span)
        if isinstance(lo, int) and isinstance(step, int):
            values = [lo + i * step for i in range(count + 1)]
        else:
            digits = max(_decimals(lo_text), _decimals(step_text))
            values = [lo] + [round(lo + i * step, digits)
                             for i in range(1, count + 1)]
    return values


def parse_axis(text: str) -> Axis:
    """Parse one ``field=values`` axis specification."""
    if "=" not in text:
        raise ConfigError(
            f"malformed axis {text!r}; expected field=v1,v2,... or "
            f"field=lo..hi")
    field, _, value_text = text.partition("=")
    field = field.strip()
    value_text = value_text.strip()
    if not value_text:
        raise ConfigError(f"axis {field!r} has no values")
    values: list = []
    for part in value_text.split(","):
        if ".." in part:
            values.extend(_expand_range(part, field))
        else:
            values.append(_parse_number(part, field))
    return Axis(field=field, values=tuple(values))


def parse_axes(texts) -> tuple[Axis, ...]:
    """Parse a list of axis specs; duplicate fields are an error."""
    axes = tuple(parse_axis(t) for t in texts)
    seen: set[str] = set()
    for axis in axes:
        if axis.field in seen:
            raise ConfigError(f"axis {axis.field!r} specified twice")
        seen.add(axis.field)
    return axes


@dataclass(frozen=True)
class GridPoint:
    """One design point: axis assignments plus the derived config."""

    index: int
    values: tuple  # ((field, value), ...) in axis order
    config: MachineConfigs

    @property
    def label(self) -> str:
        return ",".join(f"{f}={v}" for f, v in self.values)

    def fingerprint(self) -> str:
        return self.config.fingerprint()


def grid_points(axes, base: MachineConfigs) -> list[GridPoint]:
    """The cartesian product of ``axes`` around the ``base`` preset.

    Deterministic order (row-major in axis order), every config built
    through :func:`~repro.arch.config.config_variant` so validation
    fires at grid-construction time.
    """
    axes = tuple(axes)
    points = []
    for index, combo in enumerate(
            itertools.product(*(axis.values for axis in axes))):
        sc = base.sparsecore
        for axis, value in zip(axes, combo):
            sc = config_variant(sc, axis.field, value)
        points.append(GridPoint(
            index=index,
            values=tuple(zip((a.field for a in axes), combo)),
            config=MachineConfigs(cpu=base.cpu, sparsecore=sc)))
    return points


__all__ = ["Axis", "GridPoint", "grid_points", "parse_axes", "parse_axis"]
