"""Parameter grids over input pairs and deterministic result tables.

Grid semantics: four ranges (p1, p2, phase1, phase2) walked in row-major
order with p1 outermost and phase2 innermost. ``diagonal`` collapses the
grid to identical inputs, iterating (p1, phase1) and copying them to the
second input; that is how the closed-form success curve is traced.

CSV output is byte-deterministic: fixed column order, fixed number
formatting (12 significant digits, lowercase scientific below 1e-4, bare
"0" for zero), LF newlines. Points are independent pure evaluations, so
any execution order must produce the same bytes; emission follows grid
order regardless.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigInvalid
from .fock import input_from_probability
from .scheme import SchemeResult, run_scheme

#: Numeric row fields, in CSV column order.
_NUMERIC_FIELDS = (
    "p1",
    "p2",
    "phase1",
    "phase2",
    "theta",
    "phi",
    "p_success",
    "fidelity",
)

CSV_HEADER = ",".join(_NUMERIC_FIELDS + ("degenerate",))

#: Most points one sweep may walk, per axis and over the whole grid; a
#: config past it is a config error. Rows stay in memory until the sweep
#: ends, at about 0.65 KB and 0.2 ms per point (CPython 3.11, x86-64 Xeon),
#: so a sweep at the cap peaks near 650 MB and runs for a few minutes.
MAX_GRID_POINTS = 1_000_000

#: Output formats of ``run`` and of ``sweep``.
OUTPUT_FORMATS = ("table", "csv", "json")
SWEEP_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RangeSpec:
    """Inclusive linear range with a fixed point count."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        for name in ("start", "stop"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigInvalid(f"range {name} must be finite, got {v!r}")
        if not 1 <= self.steps <= MAX_GRID_POINTS:
            raise ConfigInvalid(f"steps must lie in [1, {MAX_GRID_POINTS}], got {self.steps}")
        if self.start > self.stop:
            raise ConfigInvalid(f"range start {self.start} exceeds stop {self.stop}")

    def points(self) -> tuple[float, ...]:
        return tuple(float(x) for x in np.linspace(self.start, self.stop, self.steps))


def fixed(value: float) -> RangeSpec:
    """Single-point range pinning a parameter to one value."""
    return RangeSpec(value, value, 1)


@dataclass(frozen=True)
class RunConfig:
    """One scheme evaluation: two inputs and the output format."""

    p1: float
    p2: float
    phase1: float = 0.0
    phase2: float = 0.0
    output_format: str = "table"

    def __post_init__(self):
        for name in ("p1", "p2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigInvalid(f"{name} must lie in [0, 1], got {v!r}")
        for name in ("phase1", "phase2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigInvalid(f"{name} must be finite, got {v!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigInvalid(f"unknown format {self.output_format!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid over input parameters plus output destinations."""

    p1: RangeSpec
    p2: RangeSpec
    phase1: RangeSpec = field(default_factory=lambda: fixed(0.0))
    phase2: RangeSpec = field(default_factory=lambda: fixed(0.0))
    diagonal: bool = False
    output_format: str = "csv"
    out: str | None = None
    plot: str | None = None

    def __post_init__(self):
        for name in ("p1", "p2"):
            r = getattr(self, name)
            if not (0.0 <= r.start and r.stop <= 1.0):
                raise ConfigInvalid(f"{name} range [{r.start}, {r.stop}] leaves [0, 1]")
        if self.output_format not in SWEEP_FORMATS:
            raise ConfigInvalid(f"sweep format must be csv or json, got {self.output_format!r}")
        walked = [self.p1, self.phase1] + ([] if self.diagonal else [self.p2, self.phase2])
        points = math.prod(r.steps for r in walked)
        if points > MAX_GRID_POINTS:
            raise ConfigInvalid(f"grid of {points} points exceeds {MAX_GRID_POINTS}")


def grid_points(cfg: SweepConfig) -> Iterator[tuple[float, float, float, float]]:
    """Row-major grid order; the diagonal copies input 1 onto input 2."""
    if cfg.diagonal:
        for p, ph in itertools.product(cfg.p1.points(), cfg.phase1.points()):
            yield p, p, ph, ph
        return
    yield from itertools.product(
        cfg.p1.points(), cfg.p2.points(), cfg.phase1.points(), cfg.phase2.points()
    )


def run_point(p1: float, p2: float, phase1: float, phase2: float) -> SchemeResult:
    """Evaluate the scheme at one grid point."""
    return run_scheme(
        input_from_probability(p1, phase1), input_from_probability(p2, phase2)
    )


def result_row(
    p1: float, p2: float, phase1: float, phase2: float, result: SchemeResult
) -> dict:
    """Flat row for one grid point, keys matching the CSV header."""
    return {
        "p1": p1,
        "p2": p2,
        "phase1": phase1,
        "phase2": phase2,
        "theta": result.lambda1.theta,
        "phi": result.lambda1.phi,
        "p_success": result.p_success,
        "fidelity": result.output_fidelity,
        "degenerate": result.degenerate,
    }


def sweep_rows(cfg: SweepConfig) -> list[dict]:
    """Evaluate the whole grid in deterministic order."""
    return [
        result_row(p1, p2, ph1, ph2, run_point(p1, p2, ph1, ph2))
        for p1, p2, ph1, ph2 in grid_points(cfg)
    ]


def fmt(x: float) -> str:
    """Deterministic decimal form: 12 significant digits, lowercase
    scientific below 1e-4, plain 0 for zero."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


def rows_to_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        cells = [fmt(float(row[name])) for name in _NUMERIC_FIELDS]
        cells.append("true" if row["degenerate"] else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"
