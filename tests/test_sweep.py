import json
import math

import pytest

from photonpurify import ConfigInvalid, sweep
from photonpurify.sweep import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    RangeSpec,
    SweepConfig,
    fixed,
    fmt,
    grid_points,
    result_row,
    rows_to_csv,
    rows_to_json,
    run_point,
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


def reference_rows(cfg: SweepConfig) -> list[dict]:
    # One fresh pair of inputs per grid point.
    return [result_row(*pt, run_point(*pt)) for pt in grid_points(cfg)]


def reference_csv(rows: list[dict]) -> str:
    # Every cell through fmt, joined per row.
    fields = CSV_HEADER.split(",")[:-1]
    lines = [CSV_HEADER]
    for row in rows:
        cells = [fmt(float(row[name])) for name in fields]
        cells.append("true" if row["degenerate"] else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", params=sorted(SWEEPS))
def sweep_case(request):
    cfg = SWEEPS[request.param]
    return cfg, sweep_rows(cfg)


class TestEquivalence:
    def test_rows_equal_per_point_evaluation(self, sweep_case):
        cfg, rows = sweep_case
        assert repr(rows) == repr(reference_rows(cfg))

    def test_csv_equals_per_cell_formula(self, sweep_case):
        _, rows = sweep_case
        assert rows_to_csv(rows) == reference_csv(rows)

    def test_json_equals_json_dumps(self, sweep_case):
        _, rows = sweep_case
        assert rows_to_json(rows) == json.dumps(rows, indent=2) + "\n"

    def test_signed_zero_phases_reach_rows(self):
        rows = sweep_rows(SWEEPS["signed-phases"])
        assert {repr(row["phase1"]) for row in rows} >= {"-0.0", repr(-PI)}
        assert {repr(row["phase2"]) for row in rows} >= {"0.0", repr(PI)}

    def test_json_spells_non_finite_values_like_json_dumps(self):
        finite = result_row(0.5, 0.5, 0.0, 0.0, run_point(0.5, 0.5, 0.0, 0.0))
        odd = dict(finite, theta=math.nan, phi=math.inf, p_success=-math.inf, fidelity=-0.0)
        rows = [finite, odd, finite]
        assert rows_to_json(rows) == json.dumps(rows, indent=2) + "\n"
        assert rows_to_csv(rows) == reference_csv(rows)

    def test_json_of_no_rows(self):
        assert rows_to_json([]) == json.dumps([], indent=2) + "\n"


@pytest.mark.parametrize("name, builds", [("phase-grid", 168), ("diagonal", 205), ("default", 22)])
def test_each_input_is_built_once(monkeypatch, name, builds):
    calls = []
    real = sweep.input_from_probability

    def counting(p, phase=0.0):
        calls.append((p, phase))
        return real(p, phase)

    monkeypatch.setattr(sweep, "input_from_probability", counting)
    sweep_rows(SWEEPS[name])
    assert len(calls) == builds


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
