import functools
import hashlib
import json
import math

import pytest
from test_golden import PHASE_GRID, PHASE_GRID_CSV_SHA256, PHASE_GRID_JSON_SHA256

from photonpurify import ConfigInvalid, cli, sweep
from photonpurify.sweep import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    RangeSpec,
    SweepConfig,
    fixed,
    fmt,
    grid_points,
    run_point,
    sweep_csv,
    sweep_rows,
)

AXIS_1001 = RangeSpec(0.0, 1.0, 1001)

PI = math.pi
UNIT_11 = RangeSpec(0.0, 1.0, 11)

#: Sweeps the CLI runs, plus edge axes. The diagonal one keeps the CLI's
#: default p2, which a diagonal sweep does not walk.
SWEEPS = {
    "default": SweepConfig(p1=UNIT_11, p2=UNIT_11),
    "phase-grid": SweepConfig(
        p1=RangeSpec(0.0, 1.0, 21),
        p2=RangeSpec(0.0, 1.0, 21),
        phase1=RangeSpec(-PI, PI, 4),
        phase2=RangeSpec(-PI, PI, 4),
    ),
    "diagonal": SweepConfig(
        p1=RangeSpec(0.0, 1.0, 41), p2=UNIT_11, phase1=RangeSpec(-PI, PI, 5), diagonal=True
    ),
    "fixed-axis": SweepConfig(
        p1=fixed(0.3), p2=RangeSpec(0.0, 1.0, 9), phase1=RangeSpec(-PI, PI, 3), phase2=fixed(0.7)
    ),
    # -pi, -pi/2, -0.0 against 0.0, pi/2, pi.
    "signed-phases": SweepConfig(
        p1=RangeSpec(0.0, 1.0, 5),
        p2=RangeSpec(0.0, 1.0, 5),
        phase1=RangeSpec(-PI, -0.0, 3),
        phase2=RangeSpec(0.0, PI, 3),
    ),
}


@functools.cache
def reference_rows(cfg: SweepConfig) -> list[dict]:
    # One fresh pair of inputs per grid point, its row keyed by the CSV
    # header; shared by the tests, which do not modify it.
    rows = []
    for pt in grid_points(cfg):
        res = run_point(*pt)
        results = (res.lambda1.theta, res.lambda1.phi, res.p_success, res.output_fidelity, res.degenerate)
        rows.append(dict(zip(CSV_HEADER.split(","), (*pt, *results))))
    return rows


def reference_csv(rows: list[dict]) -> str:
    # Every cell through fmt, joined per row.
    fields = CSV_HEADER.split(",")[:-1]
    lines = [CSV_HEADER]
    for row in rows:
        cells = [fmt(float(row[name])) for name in fields]
        cells.append("true" if row["degenerate"] else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def assert_same_lines(got: list[str], want: list[str]):
    # Line by line, as strict as comparing the whole texts, but a failure
    # names the first differing line instead of diffing megabytes.
    differing = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
    if differing:
        k = differing[0]
        pytest.fail(f"{len(differing)} of {len(want)} lines differ; first, line {k}: {got[k]} != {want[k]}")
    assert len(got) == len(want)


@pytest.fixture(scope="module", params=sorted(SWEEPS))
def sweep_case(request):
    cfg = SWEEPS[request.param]
    return cfg, sweep_rows(cfg)


class TestEquivalence:
    def test_rows_equal_per_point_evaluation(self, sweep_case):
        cfg, rows = sweep_case
        assert_same_lines([repr(row) for row in rows], [repr(row) for row in reference_rows(cfg)])

    def test_csv_equals_per_cell_formula(self, sweep_case):
        # ``run --format csv`` at about 100 points of the grid, its last
        # included: the per-cell formula of the point's reference row.
        cfg, _ = sweep_case
        points, rows = list(grid_points(cfg)), reference_rows(cfg)
        step = max(1, len(points) // 100)
        for k in sorted({*range(0, len(points), step), len(points) - 1}):
            config = SweepConfig(*map(fixed, points[k]))
            assert cli.cmd_run(config, "csv") == reference_csv([rows[k]]), points[k]

    def test_columnar_csv_equals_per_cell_formula(self, sweep_case):
        cfg, _ = sweep_case
        assert_same_lines(sweep_csv(cfg).split("\n"), reference_csv(reference_rows(cfg)).split("\n"))

    def test_json_equals_json_dumps(self, sweep_case):
        # A JSON sweep is json.dumps of the per-point reference rows.
        cfg, _ = sweep_case
        want = json.dumps(reference_rows(cfg), indent=2) + "\n"
        got = cli.cmd_sweep(cfg, "json")
        assert_same_lines(got.split("\n"), want.split("\n"))

    def test_signed_zero_phases_reach_rows(self):
        rows = sweep_rows(SWEEPS["signed-phases"])
        assert {repr(row["phase1"]) for row in rows} >= {"-0.0", repr(-PI)}
        assert {repr(row["phase2"]) for row in rows} >= {"0.0", repr(PI)}



@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_chunk_size_is_invisible(monkeypatch, name):
    # Chunks of 7 points end inside every sweep's runs of phases and of
    # p; only the phase grid spans more than one chunk of the default size.
    monkeypatch.setattr(sweep, "_BATCH_CHUNK", 7)
    cfg = SWEEPS[name]
    rows = reference_rows(cfg)
    assert_same_lines([repr(row) for row in sweep_rows(cfg)], [repr(row) for row in rows])
    assert_same_lines(sweep_csv(cfg).split("\n"), reference_csv(rows).split("\n"))


@pytest.mark.parametrize("name, builds", [("phase-grid", 168), ("diagonal", 205), ("default", 22)])
def test_each_input_is_built_once(monkeypatch, name, builds):
    calls = []
    real = sweep.input_from_probability

    def counting(p, phase=0.0):
        calls.append((p, phase))
        return real(p, phase)

    monkeypatch.setattr(sweep, "input_from_probability", counting)
    for evaluate in (sweep_rows, sweep_csv):
        calls.clear()
        evaluate(SWEEPS[name])
        assert len(calls) == builds, evaluate.__name__


def test_csv_sweep_builds_no_rows(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep walked grid_points, or a CSV sweep built row dicts")

    def sweep_sha256(*flags):
        out = tmp_path / "grid.out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), *flags]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    # The walk is the one source of the row order, in either format.
    monkeypatch.setattr(sweep, "grid_points", forbidden)
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(PHASE_GRID))
    assert sweep_sha256("--format", "json") == PHASE_GRID_JSON_SHA256
    # cli holds its own reference to the row builder.
    for module in (sweep, cli):
        monkeypatch.setattr(module, "sweep_rows", forbidden)
    assert sweep_sha256() == PHASE_GRID_CSV_SHA256


def test_memoized_cells_equal_fmt():
    # Signed zeros share a memo key and each NaN object is its own; the
    # values straddle fmt's switch to scientific form at 1e-4, and the
    # columns share one memo.
    values = [
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
        1e-4, math.nextafter(1e-4, 0.0), -1e-4, math.nextafter(-1e-4, 0.0),
        0.25, 1e-4, -0.0, 0.0, math.nan,
    ]
    columns = [values, values[::-1], [abs(v) for v in values]]
    degenerate = [k % 3 == 0 for k in range(len(values))]
    want = [
        ",".join([*map(fmt, cells), "true" if flag else "false"])
        for *cells, flag in zip(*columns, degenerate)
    ]
    assert sweep._csv_block([], columns, degenerate).split("\n") == want


def test_fmt_switches_to_scientific_below_1e4():
    # 1e-4 itself is plain; the next float toward zero is scientific.
    assert (fmt(1e-4), fmt(-1e-4)) == ("0.0001", "-0.0001")
    assert fmt(math.nextafter(1e-4, 0.0)) == "1.00000000000e-04"


class TestGridCap:
    @pytest.mark.parametrize("steps", [0, MAX_GRID_POINTS + 1, 10**20])
    def test_steps_outside_range_rejected(self, steps):
        with pytest.raises(ConfigInvalid):
            RangeSpec(0.0, 1.0, steps)

    @pytest.mark.parametrize("steps", [1, 2, 3, 1001])
    def test_range_span_that_overflows_rejected(self, steps):
        # Both bounds are finite, but stop - start is inf.
        with pytest.raises(ConfigInvalid):
            RangeSpec(-1e308, 1e308, steps)

    def test_widest_finite_span_accepted(self):
        points = RangeSpec(-8e307, 8e307, 3).points()
        assert points == (-8e307, 0.0, 8e307)

    def test_grid_over_cap_rejected(self):
        with pytest.raises(ConfigInvalid):
            SweepConfig(p1=AXIS_1001, p2=AXIS_1001)

    def test_diagonal_walks_only_p1_and_phase1(self):
        cfg = SweepConfig(p1=AXIS_1001, p2=AXIS_1001, diagonal=True)
        assert cfg.diagonal

    def test_single_step_is_start(self):
        assert RangeSpec(0.2, 0.9, 1).points() == (0.2,)
        # np.linspace drops the sign of -0.0 at a range's first point.
        for steps in (1, 3):
            points = RangeSpec(-0.0, -0.0, steps).points()
            assert [math.copysign(1.0, x) for x in points] == [-1.0] * steps

    def test_cap_is_inclusive(self):
        axis = RangeSpec(0.0, 1.0, 1000)
        SweepConfig(p1=axis, p2=axis)
