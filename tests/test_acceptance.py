"""End-to-end acceptance gate.

Each test pins one externally promised behavior at its stated tolerance.
Keep the tolerances literal: loosening one here is an interface change,
not a test fix.
"""

import math
import subprocess
import sys

import numpy as np

from photonpurify import (
    InputState,
    apply,
    input_from_probability,
    outcome_distribution,
    permanent,
    permanent_naive,
    polynomial_to_state,
    run_scheme,
    solve_cancellation,
    state_to_polynomial,
    substitute,
    success_curve_new,
    success_curve_old,
    tensor,
)
from photonpurify.cli import cmd_sweep, main
from photonpurify.fock import input_to_state
from photonpurify.optics import BeamSplitterParams, beamsplitter
from photonpurify.sweep import RangeSpec, SweepConfig, sweep_rows
from photonpurify.verify import (
    amplitude_distance,
    random_matrix,
    random_state,
    random_unitary,
)
from circuit import squared_norm, stage_one_closed_form


def test_balanced_half_inputs_reach_one_sixteenth():
    res = run_scheme(input_from_probability(0.5), input_from_probability(0.5))
    assert abs(res.p_success - 0.0625) <= 1e-12
    assert res.output_fidelity >= 1 - 1e-10


def test_identical_input_sweep_matches_quarter_square():
    cfg = SweepConfig(p1=RangeSpec(0.0, 1.0, 101), p2=RangeSpec(0.0, 1.0, 101),
                      diagonal=True)
    rows = sweep_rows(cfg)
    assert len(rows) == 101
    for row in rows:
        assert row["p1"] == row["p2"]
        assert abs(row["p_success"] - row["p1"] ** 2 / 4) <= 1e-12
    assert abs(rows[-1]["p_success"] - 0.25) <= 1e-12


def test_two_splitter_curve_dominates_three_splitter_curve():
    for p in np.linspace(1e-3, 1.0, 1000):
        assert success_curve_new(p) > success_curve_old(p)
    assert abs(success_curve_old(1.0) - 16 / 81) <= 1e-15


def test_output_purity_across_amplitude_and_phase_grid():
    ps = np.linspace(0.05, 0.95, 20)
    phases = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    for p1 in ps:
        for p2 in ps:
            for h1 in phases:
                for h2 in phases:
                    res = run_scheme(
                        input_from_probability(p1, h1), input_from_probability(p2, h2)
                    )
                    assert not res.degenerate
                    assert res.output_fidelity >= 1 - 1e-10


def test_identical_inputs_solve_to_balanced_splitter():
    rng = np.random.default_rng(101)
    for _ in range(50):
        s = input_from_probability(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        params, vacuous = solve_cancellation(s, s)
        assert not vacuous
        assert abs(params.theta - math.pi / 4) <= 1e-12


def test_transformation_routes_agree():
    rng = np.random.default_rng(103)
    for _ in range(200):
        modes = int(rng.integers(1, 4))
        s = random_state(rng, modes, 4)
        u = random_unitary(rng, modes)
        direct = apply(u, s)
        via_poly = polynomial_to_state(substitute(state_to_polynomial(s), u))
        assert amplitude_distance(direct, via_poly) <= 1e-12
    for _ in range(20):
        p1, p2 = rng.uniform(0.05, 0.95, size=2)
        a1, b1 = math.sqrt(1 - p1), math.sqrt(p1)
        a2, b2 = math.sqrt(1 - p2), math.sqrt(p2)
        bs = BeamSplitterParams(rng.uniform(0, math.pi / 2), rng.uniform(-math.pi, math.pi))
        m = beamsplitter(bs).matrix
        pair = tensor(input_to_state(InputState(a1, b1)), input_to_state(InputState(a2, b2)))
        out = apply(beamsplitter(bs), pair)
        assert abs(out.amplitude((0, 0)) - a1 * a2) <= 1e-12
        assert abs(out.amplitude((1, 0)) - (a2 * b1 * m[0, 0] + a1 * b2 * m[0, 1])) <= 1e-12
        assert abs(out.amplitude((0, 1)) - (a2 * b1 * m[1, 0] + a1 * b2 * m[1, 1])) <= 1e-12
        sq2 = math.sqrt(2)
        assert abs(out.amplitude((2, 0)) - sq2 * b1 * b2 * m[0, 0] * m[0, 1]) <= 1e-12
        assert abs(out.amplitude((0, 2)) - sq2 * b1 * b2 * m[1, 0] * m[1, 1]) <= 1e-12


def sector_weights(s):
    weights = {}
    for occ, amp in s.amps.items():
        n = sum(occ)
        weights[n] = weights.get(n, 0.0) + abs(amp) ** 2
    return weights


def test_norm_and_sector_preservation():
    rng = np.random.default_rng(107)
    for _ in range(200):
        modes = int(rng.integers(1, 4))
        s = random_state(rng, modes, 4)
        u = random_unitary(rng, modes)
        out = apply(u, s)
        assert abs(out.norm_squared - s.norm_squared) <= 1e-12
        before, after = sector_weights(s), sector_weights(out)
        for n in set(before) | set(after):
            assert abs(before.get(n, 0.0) - after.get(n, 0.0)) <= 1e-12
        dist = outcome_distribution(out, tuple(range(modes)))
        assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_permanent_kernel_matches_permutation_sum():
    rng = np.random.default_rng(109)
    for dim in range(1, 7):
        for _ in range(100):
            m = random_matrix(rng, dim)
            assert abs(permanent(m) - permanent_naive(m)) <= 1e-12


def test_stage_two_optimum_is_balanced():
    # The 50/50 Lambda' reaches w / 2, the largest 2 w cos^2 sin^2, with w
    # the two-photon weight of stage 1's closed form at the solved Lambda.
    rng = np.random.default_rng(113)
    for _ in range(50):
        in1, in2 = (input_from_probability(rng.uniform(), rng.uniform(-math.pi, math.pi)) for _ in range(2))
        res = run_scheme(in1, in2)
        assert abs(res.lambda2.theta - math.pi / 4) <= 1e-8
        c = stage_one_closed_form(in1, in2, res.lambda1)
        weight = abs(c[2]) ** 2 / squared_norm(c)
        assert abs(res.stage_two_probability - weight / 2) <= 1e-10


def test_sweep_output_is_byte_stable(tmp_path):
    cfg = SweepConfig(p1=RangeSpec(0.0, 1.0, 11), p2=RangeSpec(0.0, 1.0, 11))
    first = cmd_sweep(cfg)
    second = cmd_sweep(cfg)
    assert first == second

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--out", str(out1)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "photonpurify", "sweep", "--out", str(out2)],
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == first.encode()
