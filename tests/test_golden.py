"""Golden output: sweep and plot bytes pinned by sha256 across builds.

Repeated runs of one build are compared elsewhere; these pins compare a
build against the bytes recorded before any refactor or optimisation, so
a change that drifts a single last digit of any row fails here.
"""

import hashlib
import json
import math

import pytest

from photonpurify.cli import main

DEFAULT_SWEEP_SHA256 = {
    "csv": "1ab74454a8455b86ccb6467be2bbeec2c9513588ef95cd91b6cdd822b30e6677",
    "json": "2c58e6564ac3f9af6398458d10ad09268c2bcba035e1387f4e2e1516eda4b3cf",
}

#: 21x21 input probabilities by 4x4 phases on [-pi, pi], ends included.
PHASE_GRID = {
    "p1": {"start": 0.0, "stop": 1.0, "steps": 21},
    "p2": {"start": 0.0, "stop": 1.0, "steps": 21},
    "phase1": {"start": -math.pi, "stop": math.pi, "steps": 4},
    "phase2": {"start": -math.pi, "stop": math.pi, "steps": 4},
}
PHASE_GRID_CSV_SHA256 = "8ff84399ebe1b13f3f1044070bc646d3197a9498215399c5c16b07ac817cdfc4"

PLOT_SVG_SHA256 = "f248c5e839928c4a7f5d38879f6c39d32ffef23e61a470914a2d2fe2df5c5b30"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(DEFAULT_SWEEP_SHA256))
def test_default_sweep_bytes(tmp_path, fmt):
    out = tmp_path / f"default.{fmt}"
    assert main(["sweep", "--format", fmt, "--out", str(out)]) == 0
    assert sha256(out) == DEFAULT_SWEEP_SHA256[fmt]


def test_phase_grid_sweep_bytes(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(PHASE_GRID))
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert sha256(out) == PHASE_GRID_CSV_SHA256


def test_plot_svg_bytes(tmp_path):
    out = tmp_path / "rows.csv"
    plot = tmp_path / "curves.svg"
    args = ["sweep", "--p1", "0.5", "--p2", "0.5", "--out", str(out), "--plot", str(plot)]
    assert main(args) == 0
    assert sha256(plot) == PLOT_SVG_SHA256
