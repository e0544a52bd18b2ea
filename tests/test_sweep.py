import pytest

from photonpurify import ConfigInvalid
from photonpurify.sweep import MAX_GRID_POINTS, RangeSpec, SweepConfig

AXIS_1001 = RangeSpec(0.0, 1.0, 1001)


class TestGridCap:
    @pytest.mark.parametrize("steps", [0, MAX_GRID_POINTS + 1, 10**20])
    def test_steps_outside_range_rejected(self, steps):
        with pytest.raises(ConfigInvalid):
            RangeSpec(0.0, 1.0, steps)

    def test_grid_over_cap_rejected(self):
        with pytest.raises(ConfigInvalid):
            SweepConfig(p1=AXIS_1001, p2=AXIS_1001)

    def test_diagonal_walks_only_p1_and_phase1(self):
        cfg = SweepConfig(p1=AXIS_1001, p2=AXIS_1001, diagonal=True)
        assert cfg.diagonal

    def test_single_step_is_start(self):
        assert RangeSpec(0.2, 0.9, 1).points() == (0.2,)

    def test_cap_is_inclusive(self):
        axis = RangeSpec(0.0, 1.0, 1000)
        SweepConfig(p1=axis, p2=axis)
