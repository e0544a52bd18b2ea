"""Golden output: sweep and plot bytes, and the generic engine's and the
scheme's reprs, pinned by sha256 across builds.

Repeated runs of one build are compared elsewhere; these pins compare a
build against the bytes recorded before any refactor or optimisation, so
a change that drifts a single last digit of any row fails here.
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from photonpurify import (
    BeamSplitterParams,
    InterferometerUnitary,
    StageOneCoefficients,
    StateVector,
    apply,
    input_from_probability,
    permanent,
    permanent_naive,
    run_scheme,
    sector_occupations,
    stage_two,
    state_to_polynomial,
    substitute,
)
from photonpurify.cli import main
from seeded_pairs import scalar_path_pairs

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
PHASE_GRID_JSON_SHA256 = "3977c5afa2c58ee937031c7c3c49310f76fd9f42c962ff2e2d14fe6b8735b641"

#: Identical inputs, 41 probabilities by 5 phases on [-pi, pi]: 205 rows.
DIAGONAL_GRID = {
    "p1": {"start": 0.0, "stop": 1.0, "steps": 41},
    "phase1": {"start": -math.pi, "stop": math.pi, "steps": 5},
    "diagonal": True,
}
DIAGONAL_CSV_SHA256 = "83398c0d4ed2fd64689978c3dbdd1c067943fc866ebae1440ff29e06f6614f03"

PLOT_SVG_SHA256 = "f248c5e839928c4a7f5d38879f6c39d32ffef23e61a470914a2d2fe2df5c5b30"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(DEFAULT_SWEEP_SHA256))
def test_default_sweep_bytes(tmp_path, fmt):
    out = tmp_path / f"default.{fmt}"
    assert main(["sweep", "--format", fmt, "--out", str(out)]) == 0
    assert sha256(out) == DEFAULT_SWEEP_SHA256[fmt]


def sweep_sha256(tmp_path, config: dict, fmt: str) -> str:
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"grid.{fmt}"
    assert main(["sweep", "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
    return sha256(out)


def test_phase_grid_sweep_bytes(tmp_path):
    assert sweep_sha256(tmp_path, PHASE_GRID, "csv") == PHASE_GRID_CSV_SHA256


def test_phase_grid_sweep_json_bytes(tmp_path):
    assert sweep_sha256(tmp_path, PHASE_GRID, "json") == PHASE_GRID_JSON_SHA256


def test_diagonal_sweep_bytes(tmp_path):
    assert sweep_sha256(tmp_path, DIAGONAL_GRID, "csv") == DIAGONAL_CSV_SHA256


def test_plot_svg_bytes(tmp_path):
    out = tmp_path / "rows.csv"
    plot = tmp_path / "curves.svg"
    args = ["sweep", "--p1", "0.5", "--p2", "0.5", "--out", str(out), "--plot", str(plot)]
    assert main(args) == 0
    assert sha256(plot) == PLOT_SVG_SHA256


# The generic engine (``apply``, ``permanent``, the permutation-sum
# permanent and ``substitute``) on seeded inputs. Inputs are built with
# Python's ``random`` and only +, -, *, / and sqrt, which IEEE-754 rounds
# correctly, so the pin rests on the engine's own arithmetic.

GENERIC_ENGINE_SHA256 = "73805199b305bbd1155472ab090211241cb7bdcdcfb5bb9e1f85fafe34e502a6"


def _random_complex(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _su2(rng: random.Random) -> list[list[complex]]:
    a, b = _random_complex(rng), _random_complex(rng)
    r = math.sqrt(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    a, b = complex(a.real / r, a.imag / r), complex(b.real / r, b.imag / r)
    return [[a, -b.conjugate()], [b, a.conjugate()]]


def _on_modes(block, first: int) -> list[list[complex]]:
    # A 2x2 block acting on modes (first, first + 1) of three.
    m = [[1.0 + 0j if i == j else 0j for j in range(3)] for i in range(3)]
    for i in range(2):
        for j in range(2):
            m[first + i][first + j] = block[i][j]
    return m


def _matmul3(a, b) -> list[list[complex]]:
    return [
        [a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3)]
        for i in range(3)
    ]


def _golden_unitary(rng: random.Random, modes: int) -> InterferometerUnitary:
    if modes == 1:
        z = _random_complex(rng)
        r = math.sqrt(z.real * z.real + z.imag * z.imag)
        return InterferometerUnitary([[complex(z.real / r, z.imag / r)]])
    if modes == 2:
        return InterferometerUnitary(_su2(rng))
    m = _on_modes(_su2(rng), 0)
    m = _matmul3(m, _on_modes(_su2(rng), 1))
    m = _matmul3(m, _on_modes(_su2(rng), 0))
    return InterferometerUnitary(m)


def _golden_state(rng: random.Random, modes: int, max_photons: int) -> StateVector:
    amps = {}
    for photons in range(max_photons + 1):
        for occ in sector_occupations(photons, modes):
            amps[occ] = _random_complex(rng)
    return StateVector(modes, amps)


def generic_engine_lines() -> list[str]:
    rng = random.Random(20261018)
    lines = []
    for modes in (1, 2, 3):
        for max_photons in range(5):
            for _ in range(3):
                u = _golden_unitary(rng, modes)
                s = _golden_state(rng, modes, max_photons)
                lines.append(repr(apply(u, s)))
                lines.append(repr(substitute(state_to_polynomial(s), u)))
    for dim in range(1, 7):
        for _ in range(4):
            m = np.array([[_random_complex(rng) for _ in range(dim)] for _ in range(dim)])
            lines.append(repr(permanent(m)))
            lines.append(repr(complex(permanent_naive(m))))
    return lines


def test_generic_engine_reprs():
    digest = hashlib.sha256("\n".join(generic_engine_lines()).encode()).hexdigest()
    assert digest == GENERIC_ENGINE_SHA256


# The scheme's scalar path (``run_scheme`` and ``stage_two``) on a seeded
# set: ROADMAP item 2's three edge-accuracy reproducers, log-uniform p and
# 1 - p down to 1e-30 and uniform p at random phases, and the p in {0, 1}, phase +-pi
# corners. Every field's repr counts, so the last bit and the sign of a
# zero do. Inputs pass through ``input_from_probability``, whose cos, sin
# and sqrt come from the C library like the sweep pins'.

SCALAR_PATH_SHA256 = "bc20abc8ebdebe2755bf1f7d32c3901dbbe86391667073277834b55006e9651e"


def scalar_path_lines() -> list[str]:
    rng = random.Random(20261019)
    pairs = scalar_path_pairs(rng)
    lines = []
    for p1, p2, phase1, phase2 in pairs:
        res = run_scheme(input_from_probability(p1, phase1), input_from_probability(p2, phase2))
        lines.append(repr(res))
    for _ in range(300):
        c0, c2 = (_random_complex(rng) * 10.0 ** rng.uniform(-16.0, 0.0) for _ in range(2))
        bs2 = BeamSplitterParams(rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi))
        lines.append(repr(stage_two(StageOneCoefficients(c0, 0j, c2), bs2)))
    return lines


def test_scalar_path_reprs():
    digest = hashlib.sha256("\n".join(scalar_path_lines()).encode()).hexdigest()
    assert digest == SCALAR_PATH_SHA256
