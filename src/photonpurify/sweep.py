"""Parameter grids over input pairs and deterministic result tables.

Grid semantics: four ranges (p1, p2, phase1, phase2) walked in row-major
order with p1 outermost and phase2 innermost. ``diagonal`` collapses the
grid to identical inputs, iterating (p1, phase1) and copying them to the
second input; that is how the closed-form success curve is traced.
``SweepConfig`` holds exactly those ranges and the diagonal flag. It is
the one description of what to evaluate: ``sweep`` walks its grid, and
``run`` evaluates the one point of a grid of ``fixed`` ranges. Output
formats and paths are the command line's, not the grid's.

One private walk, ``_walk``, is the only place that decides the grid
order, the diagonal and the chunks. It builds each input once per
(p, phase) pair of its own side's axes, not once per grid point, and the
diagonal pairs each input with itself. It cuts the grid into chunks of
``_BATCH_CHUNK`` points and hands each chunk's input amplitudes to one
``scheme._run_batch`` call, which evaluates them on numpy arrays and
gives every field the bits ``run_scheme`` gives it (see ``scheme`` for
the rules that keep them). For each chunk the walk yields its columns in
the one row layout, ``_ROW_FIELDS``, with each point's axis values
picked by the same positions of its two inputs.

``sweep_csv`` formats those columns straight into CSV lines, chunk by
chunk, and builds no row dicts. It is the package's one CSV writer:
``run --format csv`` prints the one-point sweep of its inputs.
``sweep_rows`` zips the columns into one dict per point, equal to a
per-point ``run_point`` by ``repr``, and JSON output serializes those
rows. ``grid_points`` writes the grid order out point by point, as the
reference the tests hold the walk to.

CSV output is byte-deterministic: fixed column order, fixed number
formatting (12 significant digits, lowercase scientific below 1e-4, bare
"0" for zero), LF newlines. Points are independent pure evaluations, so
any execution order must produce the same bytes; emission follows grid
order regardless. ``fmt`` depends on the value alone, so ``sweep_csv``
formats each axis value once per sweep and each distinct result value
once per chunk (0.0 and -0.0 share the cell "0").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigInvalid
from .fock import input_from_probability
from .scheme import SchemeResult, _run_batch, run_scheme

#: The row layout, in CSV column order: the grid axes, the scheme's
#: results, then the degenerate flag, the one field that is not a number.
_ROW_FIELDS = ("p1", "p2", "phase1", "phase2", "theta", "phi", "p_success", "fidelity", "degenerate")

CSV_HEADER = ",".join(_ROW_FIELDS)

#: Most points one sweep may walk, per axis and over the whole grid; a
#: config past it is a config error. The output stays in memory until the
#: sweep ends, and a JSON sweep's rows with it. Over 200,000 points a CSV
#: sweep took 0.27 to 0.33 KB of peak RSS and 4 to 7 us per point, a JSON
#: sweep 2.35 KB and 26 to 29 us (CPython 3.11, numpy 2.4, shared 2-vCPU
#: x86-64 Xeon; ``BENCH_16.json``), so at the cap a CSV sweep peaks near
#: 330 MB and runs for about 7 s, a JSON sweep near 2.4 GB and about 30 s.
MAX_GRID_POINTS = 1_000_000

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
class SweepConfig:
    """Grid over input parameters: what ``sweep`` walks, and, as one
    point, what ``run`` evaluates."""

    p1: RangeSpec
    p2: RangeSpec
    phase1: RangeSpec = field(default_factory=lambda: fixed(0.0))
    phase2: RangeSpec = field(default_factory=lambda: fixed(0.0))
    diagonal: bool = False

    def __post_init__(self):
        for name in ("p1", "p2"):
            r = getattr(self, name)
            if not (0.0 <= r.start and r.stop <= 1.0):
                raise ConfigInvalid(f"{name} range [{r.start}, {r.stop}] leaves [0, 1]")
        walked = [self.p1, self.phase1] + ([] if self.diagonal else [self.p2, self.phase2])
        points = math.prod(r.steps for r in walked)
        if points > MAX_GRID_POINTS:
            raise ConfigInvalid(f"grid of {points} points exceeds {MAX_GRID_POINTS}")


def grid_points(cfg: SweepConfig) -> Iterator[tuple[float, float, float, float]]:
    """Row-major grid order, written out point by point: the reference
    that the tests hold ``_walk``'s order to, and how ``run`` reads its
    one point. The diagonal copies input 1 onto input 2."""
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


#: Points per ``scheme._run_batch`` call; bounds the batch's temporaries.
_BATCH_CHUNK = 2048


def _walk(cfg: SweepConfig, axis: Callable[[list[float]], list]) -> Iterator[tuple[list, list]]:
    """The grid's rows in grid order, ``_BATCH_CHUNK`` points at a time:
    per chunk, (the four axis columns, the five result columns) as lists,
    in ``_ROW_FIELDS`` order, each result bit-identical to ``run_point``'s.
    The result columns are ``_run_batch``'s, in the order it returns them.

    Each side's inputs are built once per (p, phase) pair of its own axes,
    p-major, side 1's first, and a grid point names its two inputs by
    their positions in that order; on the diagonal input 2 is input 1.
    Per chunk those positions pick both the inputs' amplitudes for one
    ``_run_batch`` call and the axis columns, from ``axis`` of the inputs'
    p values and of their phases: the values themselves, or their cells.
    """
    p1s, h1s = cfg.p1.points(), cfg.phase1.points()
    p, phase = [x for x in p1s for _ in h1s], list(h1s) * len(p1s)
    if cfg.diagonal:
        index = np.repeat(np.arange(len(p))[:, None], 2, axis=1)
    else:
        p2s, h2s = cfg.p2.points(), cfg.phase2.points()
        # Row-major over (p1, p2, phase1, phase2); side 2's inputs follow side 1's.
        i1, i2, j1, j2 = np.indices((len(p1s), len(p2s), len(h1s), len(h2s))).reshape(4, -1)
        index = np.column_stack((i1 * len(h1s) + j1, len(p) + i2 * len(h2s) + j2))
        # The index grids would otherwise stay alive for the whole walk.
        del i1, i2, j1, j2
        p += [x for x in p2s for _ in h2s]
        phase += list(h2s) * len(p2s)
    states = map(input_from_probability, p, phase)
    alpha, beta = np.array([(s.alpha, s.beta) for s in states], dtype=complex).T
    # Rebinding frees the float lists: a diagonal holds one input per point.
    p, phase = (np.array(axis(values), dtype=object) for values in (p, phase))
    for start in range(0, len(index), _BATCH_CHUNK):
        i, j = index[start : start + _BATCH_CHUNK].T
        results = _run_batch(alpha[i], beta[i], alpha[j], beta[j])
        yield [c.tolist() for c in (p[i], p[j], phase[i], phase[j])], [c.tolist() for c in results]


def sweep_rows(cfg: SweepConfig) -> list[dict]:
    """Evaluate the whole grid in grid order, one row dict per point,
    bit-identical to ``run_point`` per point."""
    rows = []
    for axes, results in _walk(cfg, list):
        rows += [dict(zip(_ROW_FIELDS, values)) for values in zip(*axes, *results)]
    return rows


def sweep_csv(cfg: SweepConfig) -> str:
    """The grid's CSV table: a header line, then per point its
    ``_ROW_FIELDS`` cells, the numbers through ``fmt``. Formatted from the
    walk's columns with no row dicts; each axis value is formatted once
    per sweep."""
    cells: dict[float, str] = {}
    blocks = [CSV_HEADER]
    for axes, (*numbers, degenerate) in _walk(cfg, lambda values: list(_formatted(values, cells))):
        blocks.append(_csv_block(axes, numbers, degenerate))
    return "\n".join(blocks) + "\n"


def fmt(x: float) -> str:
    """Deterministic decimal form: 12 significant digits, lowercase
    scientific below 1e-4, plain 0 for zero."""
    if x == 0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


#: The degenerate column's cells, indexed by the flag.
_FLAG_CELLS = ("false", "true")


def _formatted(column: Sequence[float], cells: dict[float, str]) -> Iterator[str]:
    """``fmt`` of each value, read from ``cells``, which first gains every
    value of ``column`` it lacks. Equal floats share a cell, which is
    exact: only 0.0 and -0.0 are equal with different bits, and ``fmt``
    gives both "0". A NaN matches only itself, by identity."""
    for x in set(column).difference(cells):
        cells[x] = fmt(x)
    return map(cells.__getitem__, column)


def _csv_block(
    leading: list[Iterable[str]], numbers: list[list[float]], degenerate: list[bool]
) -> str:
    """CSV lines, without the last newline: per line, the ``leading``
    cells as given, each column of ``numbers`` through ``fmt``, then the
    degenerate flag.

    The cells of ``numbers`` are memoized per block, not per sweep: a
    sweep-wide memo would hold every distinct result until the sweep
    ends, while repeats (theta across phases, phi across p) mostly fall
    within one block."""
    cells: dict[float, str] = {}
    columns = [_formatted(column, cells) for column in numbers]
    flags = map(_FLAG_CELLS.__getitem__, degenerate)
    return "\n".join(map(",".join, zip(*leading, *columns, flags)))

