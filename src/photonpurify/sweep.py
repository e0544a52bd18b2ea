"""Parameter grids over input pairs and deterministic result tables.

Grid semantics: four ranges (p1, p2, phase1, phase2) walked in row-major
order with p1 outermost and phase2 innermost. ``diagonal`` collapses the
grid to identical inputs, iterating (p1, phase1) and copying them to the
second input; that is how the closed-form success curve is traced.
``sweep_rows`` builds each input once per (p, phase) pair of its own
side's axes, not once per grid point, and the diagonal pairs each input
with itself. The pairs then go to ``scheme._run_batch``, which evaluates
them in fixed-size chunks on numpy arrays and gives every field the bits
``run_scheme`` gives it (see ``scheme`` for the rules that keep them), so
the rows equal a per-point ``run_point`` by ``repr``.

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
from .scheme import SchemeResult, _grid_index, _run_batch, run_scheme

#: Numeric row fields, in CSV column order: the grid axes, whose values
#: repeat from row to row, then the scheme's results.
_AXIS_FIELDS = ("p1", "p2", "phase1", "phase2")
_RESULT_FIELDS = ("theta", "phi", "p_success", "fidelity")

CSV_HEADER = ",".join(_AXIS_FIELDS + _RESULT_FIELDS + ("degenerate",))

#: Most points one sweep may walk, per axis and over the whole grid; a
#: config past it is a config error. Rows stay in memory until the sweep
#: ends. A 200,000-point CSV sweep took about 0.73 KB of peak RSS and 10 to
#: 12 us per point (CPython 3.11, numpy 2.4, shared 2-vCPU x86-64 Xeon), so
#: a sweep at the cap peaks near 730 MB and runs for about 12 s.
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
        # np.linspace steps by stop - start, which overflows for some finite
        # bounds (-1e308 to 1e308) and would give NaN points.
        if not math.isfinite(self.stop - self.start):
            raise ConfigInvalid(f"range [{self.start}, {self.stop}] spans more than a float holds")

    def points(self) -> tuple[float, ...]:
        # A constant range repeats ``start`` itself: np.linspace turns -0.0
        # into 0.0 at its first point and keeps it at its last.
        if self.start == self.stop:
            return (float(self.start),) * self.steps
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
    """Row-major grid order, the order of ``sweep_rows``' rows; the
    diagonal copies input 1 onto input 2."""
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
    """Evaluate the whole grid in ``grid_points`` order.

    Each side's inputs are built once per (p, phase) pair of its own axes,
    into one list, and each grid point names its two inputs by position in
    that list; on the diagonal input 2 is input 1. ``scheme._run_batch``
    evaluates the points, bit-identical to ``run_scheme`` per point.
    """
    p1s, h1s = cfg.p1.points(), cfg.phase1.points()
    states = [input_from_probability(p, h) for p in p1s for h in h1s]
    if cfg.diagonal:
        index = np.repeat(np.arange(len(states))[:, None], 2, axis=1)
    else:
        p2s, h2s = cfg.p2.points(), cfg.phase2.points()
        first = len(states)
        states += [input_from_probability(p, h) for p in p2s for h in h2s]
        index = _grid_index(len(p1s), len(p2s), len(h1s), len(h2s), first)
    rows = []
    points = grid_points(cfg)
    for res in _run_batch(states, index):
        # result_row's layout, written out: a call per row would cost about
        # 5% of a CSV sweep. TestEquivalence holds the two equal by repr.
        rows += [
            {
                "p1": p1,
                "p2": p2,
                "phase1": h1,
                "phase2": h2,
                "theta": theta,
                "phi": phi,
                "p_success": p_success,
                "fidelity": fid,
                "degenerate": degenerate,
            }
            for (p1, p2, h1, h2), theta, phi, p_success, fid, degenerate in zip(
                itertools.islice(points, len(res.theta)),
                res.theta.tolist(),
                res.phi.tolist(),
                res.p_success.tolist(),
                res.output_fidelity.tolist(),
                res.degenerate.tolist(),
            )
        ]
    return rows


def fmt(x: float) -> str:
    """Deterministic decimal form: 12 significant digits, lowercase
    scientific below 1e-4, plain 0 for zero."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


def rows_to_csv(rows: list[dict]) -> str:
    # fmt depends on the value alone, so each axis value is formatted once
    # per call; equal keys (0.0 and -0.0 too) share a cell.
    axis_cells: dict[float, str] = {}
    lines = [CSV_HEADER]
    for row in rows:
        cells = []
        for name in _AXIS_FIELDS:
            x = row[name]
            cell = axis_cells.get(x)
            if cell is None:
                cell = axis_cells[x] = fmt(float(x))
            cells.append(cell)
        cells += [fmt(float(row[name])) for name in _RESULT_FIELDS]
        cells.append("true" if row["degenerate"] else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"
