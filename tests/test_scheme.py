import cmath
import math

import numpy as np
import pytest

from photonpurify import (
    BeamSplitterParams,
    InputState,
    OutOfRange,
    apply,
    beamsplitter,
    closed_form_success,
    condition,
    fock_state,
    input_from_probability,
    input_to_state,
    run_scheme,
    solve_cancellation,
    success_curve_new,
    success_curve_old,
    tensor,
)
from photonpurify.scheme import (
    CANCELLATION_VACUOUS,
    NO_PHOTON_PAIR,
    NO_VACUUM_AMPLITUDE,
)
from circuit import conditioned_mode, reference_herald, squared_norm, stage_one_closed_form

BALANCED = InputState(1 / math.sqrt(2), 1 / math.sqrt(2))
HALF_PI = math.pi / 2


def random_input(rng, p_lo=0.05, p_hi=0.95):
    return input_from_probability(rng.uniform(p_lo, p_hi), rng.uniform(-math.pi, math.pi))


def assert_engine_conditions_to(in1, in2, bs, c):
    # The generic engine's stage 1 leaves the normalized closed form c.
    res = condition(apply(beamsplitter(bs), tensor(input_to_state(in1), input_to_state(in2))), {1: 0})
    assert abs(res.probability - squared_norm(c)) < 1e-12
    scale = math.sqrt(squared_norm(c))
    for n, coeff in enumerate(c):
        assert abs(res.state.amplitude((n,)) - coeff / scale) < 1e-12


def stage_two_probability(c, bs2):
    # The generic engine's stage-2 probability for stage-1 amplitudes c.
    return reference_herald(conditioned_mode(c[0], c[2]), bs2).probability


class TestStageOneCoefficients:
    # The module docstring's closed form for c0, c1 and c2, held to the
    # generic engine's conditioning.
    def test_balanced_inputs(self):
        bs = BeamSplitterParams(math.pi / 4, math.pi)
        c0, c1, c2 = c = stage_one_closed_form(BALANCED, BALANCED, bs)
        assert abs(c0 - 0.5) < 1e-15
        assert abs(c1) < 1e-15
        assert abs(c2 - (-math.sqrt(2) / 4)) < 1e-15
        assert abs(squared_norm(c) - 0.375) < 1e-15
        assert_engine_conditions_to(BALANCED, BALANCED, bs, c)

    def test_identity_splitter_keeps_input_one(self):
        in1, in2, bs = InputState(0.6, 0.8), InputState(1.0, 0.0), BeamSplitterParams(0.0, 0.0)
        c0, c1, c2 = c = stage_one_closed_form(in1, in2, bs)
        assert abs(c0 - 0.6) < 1e-15
        assert abs(c1 - 0.8) < 1e-15
        assert abs(c2) < 1e-15
        assert_engine_conditions_to(in1, in2, bs, c)

    def test_matches_simulated_conditioning(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            in1, in2 = random_input(rng), random_input(rng)
            bs = BeamSplitterParams(rng.uniform(0, HALF_PI), rng.uniform(-math.pi, math.pi))
            assert_engine_conditions_to(in1, in2, bs, stage_one_closed_form(in1, in2, bs))


class TestSolveCancellation:
    def test_identical_inputs_give_balanced_splitter(self):
        params, vacuous = solve_cancellation(BALANCED, BALANCED)
        assert params.theta == pytest.approx(math.pi / 4, abs=1e-15)
        assert params.phi == pytest.approx(math.pi, abs=1e-15)
        assert not vacuous

    def test_unbalanced_pair(self):
        params, vacuous = solve_cancellation(
            input_from_probability(0.8), input_from_probability(0.2)
        )
        assert params.theta == pytest.approx(math.atan(4.0), abs=1e-12)
        assert params.phi == pytest.approx(math.pi, abs=1e-12)
        assert not vacuous

    def test_input_phase_shifts_phi(self):
        chi = 0.5
        shifted = InputState(1 / math.sqrt(2), cmath.exp(1j * chi) / math.sqrt(2))
        params, _ = solve_cancellation(shifted, BALANCED)
        assert params.phi == pytest.approx(chi - math.pi, abs=1e-12)

    def test_no_photon_in_second_input(self):
        params, vacuous = solve_cancellation(BALANCED, InputState(1.0, 0.0))
        assert (params.theta, params.phi) == (HALF_PI, 0.0)
        assert not vacuous

    def test_no_photon_in_first_input(self):
        params, vacuous = solve_cancellation(InputState(1.0, 0.0), BALANCED)
        assert (params.theta, params.phi) == (0.0, 0.0)
        assert not vacuous

    def test_both_terms_vanish_is_vacuous(self):
        for s in (InputState(1.0, 0.0), InputState(0.0, 1.0)):
            params, vacuous = solve_cancellation(s, s)
            assert params.theta == pytest.approx(math.pi / 4, abs=1e-15)
            assert params.phi == pytest.approx(math.pi, abs=1e-15)
            assert vacuous

    def test_solution_kills_middle_coefficient(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            in1, in2 = random_input(rng), random_input(rng)
            params, vacuous = solve_cancellation(in1, in2)
            assert not vacuous
            _, c1, _ = stage_one_closed_form(in1, in2, params)
            assert abs(c1) < 1e-14


class TestStageTwo:
    # Stage 2 at any Lambda' runs on the generic engine.
    def test_pure_pair_gives_half(self):
        res = reference_herald(fock_state((2,)), BeamSplitterParams(math.pi / 4, 0))
        assert abs(res.probability - 0.5) < 1e-12
        assert set(res.state.amps) == {(1,)}
        assert abs(abs(res.state.amplitude((1,))) - 1.0) < 1e-12

    def test_pure_vacuum_never_heralds(self):
        res = reference_herald(fock_state((0,)), BeamSplitterParams(math.pi / 4, 0))
        assert res.probability == 0.0
        assert res.state is None

    def test_balanced_coefficients_give_one_sixth(self):
        res = reference_herald(conditioned_mode(0.5, -math.sqrt(2) / 4), BeamSplitterParams(math.pi / 4, 0))
        assert abs(res.probability - 1 / 6) < 1e-12
        assert set(res.state.amps) == {(1,)}

    def test_angle_dependence_matches_closed_form(self):
        rng = np.random.default_rng(41)
        c = (0.5, 0.0, -math.sqrt(2) / 4)
        weight = abs(c[2]) ** 2 / squared_norm(c)
        for _ in range(20):
            theta2 = rng.uniform(0, HALF_PI)
            phi2 = rng.uniform(-math.pi, math.pi)
            prob = stage_two_probability(c, BeamSplitterParams(theta2, phi2))
            expected = 2 * weight * (math.sin(theta2) * math.cos(theta2)) ** 2
            assert abs(prob - expected) < 1e-12


class TestOptimizeStageTwo:
    def test_balanced_splitter_is_optimal(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            in1, in2 = random_input(rng), random_input(rng)
            res = run_scheme(in1, in2)
            assert abs(res.lambda2.theta - math.pi / 4) < 1e-8
            assert res.lambda2.phi == 0.0
            c = stage_one_closed_form(in1, in2, res.lambda1)
            p_best = stage_two_probability(c, res.lambda2)
            for theta2 in np.linspace(0.0, HALF_PI, 9):
                p_other = stage_two_probability(c, BeamSplitterParams(theta2, 0.0))
                assert p_other <= p_best + 1e-12

    def test_flat_objective_falls_back_to_balanced(self):
        res = run_scheme(InputState(1.0, 0.0), InputState(1.0, 0.0))
        assert res.stage_two_probability == 0.0
        assert res.lambda2.theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_optimum_beats_neighbors(self):
        c = (0.3, 0.0, 0.7)
        best = BeamSplitterParams(math.pi / 4, 0.0)
        p_best = stage_two_probability(c, best)
        for delta in (-0.01, 0.01):
            p_off = stage_two_probability(c, BeamSplitterParams(best.theta + delta, 0.0))
            assert p_best >= p_off


class TestRunScheme:
    def test_balanced_half_probability_inputs(self):
        res = run_scheme(BALANCED, BALANCED)
        assert abs(res.lambda1.theta - math.pi / 4) < 1e-15
        assert abs(res.lambda1.phi - math.pi) < 1e-15
        assert abs(res.stage_one_probability - 0.375) < 1e-12
        assert abs(res.stage_two_probability - 1 / 6) < 1e-12
        assert abs(res.p_success - 0.0625) < 1e-12
        assert res.output_fidelity >= 1 - 1e-10
        assert not res.degenerate
        assert res.degenerate_reasons == ()
        assert set(res.output_state.amps) == {(1,)}

    def test_unbalanced_pair(self):
        res = run_scheme(input_from_probability(0.8), input_from_probability(0.2))
        assert abs(res.p_success - 0.16 * (4 / 17) ** 2) < 1e-12
        assert res.output_fidelity >= 1 - 1e-10
        assert not res.degenerate

    def test_two_single_photons(self):
        res = run_scheme(InputState(0.0, 1.0), InputState(0.0, 1.0))
        assert abs(res.p_success - 0.25) < 1e-12
        assert res.degenerate
        assert NO_VACUUM_AMPLITUDE in res.degenerate_reasons
        assert CANCELLATION_VACUOUS in res.degenerate_reasons
        assert res.output_fidelity >= 1 - 1e-10

    def test_vacuum_first_input(self):
        res = run_scheme(InputState(1.0, 0.0), BALANCED)
        assert abs(res.stage_one_probability - 0.5) < 1e-12
        assert res.stage_two_probability == 0.0
        assert res.p_success == 0.0
        assert res.lambda2 == BeamSplitterParams(math.pi / 4, 0.0)
        assert res.degenerate
        assert res.degenerate_reasons == (NO_PHOTON_PAIR,)
        assert res.output_state is None
        assert res.output_fidelity == 0.0

    @pytest.mark.parametrize("photon_first", [True, False])
    def test_nothing_survives_stage_one(self, photon_first):
        # One photon against vacuum: Lambda routes it onto the stage-1
        # detector, so zero photons there never happens.
        photon, vac = InputState(0.0, 1.0), InputState(1.0, 0.0)
        res = run_scheme(*((photon, vac) if photon_first else (vac, photon)))
        assert res.stage_one_probability == 0.0
        assert res.stage_two_probability == 0.0
        assert res.p_success == 0.0
        assert res.lambda2 == BeamSplitterParams(math.pi / 4, 0.0)
        assert res.output_state is None
        assert res.output_fidelity == 0.0
        assert res.degenerate_reasons == (NO_PHOTON_PAIR, NO_VACUUM_AMPLITUDE)

    def test_double_vacuum(self):
        res = run_scheme(InputState(1.0, 0.0), InputState(1.0, 0.0))
        assert res.p_success == 0.0
        assert NO_PHOTON_PAIR in res.degenerate_reasons
        assert CANCELLATION_VACUOUS in res.degenerate_reasons

    def test_matches_coefficient_route(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            in1, in2 = random_input(rng), random_input(rng)
            res = run_scheme(in1, in2)
            params, _ = solve_cancellation(in1, in2)
            c = stage_one_closed_form(in1, in2, params)
            n2 = squared_norm(c)
            assert abs(res.stage_one_probability - n2) < 1e-12
            # At the 50/50 optimum, 2 |c2|^2 / n2 cos^2 sin^2 = |c2|^2 / (2 n2).
            p2 = abs(c[2]) ** 2 / (2 * n2)
            assert abs(res.stage_two_probability - p2) < 1e-12
            assert abs(res.p_success - n2 * p2) < 1e-12

    def test_output_is_pure_across_random_inputs(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            res = run_scheme(random_input(rng), random_input(rng))
            assert not res.degenerate
            assert res.output_fidelity >= 1 - 1e-10


class TestClosedForm:
    def test_matches_simulation(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            in1, in2 = random_input(rng, 0.01, 0.99), random_input(rng, 0.01, 0.99)
            assert abs(closed_form_success(in1, in2) - run_scheme(in1, in2).p_success) < 1e-12

    def test_matches_simulation_in_corners(self):
        for in1, in2 in [
            (InputState(1.0, 0.0), BALANCED),
            (InputState(0.0, 1.0), InputState(0.0, 1.0)),
            (BALANCED, InputState(1.0, 0.0)),
        ]:
            assert abs(closed_form_success(in1, in2) - run_scheme(in1, in2).p_success) < 1e-12


class TestSuccessCurves:
    def test_new_curve_values(self):
        assert success_curve_new(0.0) == 0.0
        assert abs(success_curve_new(0.5) - 0.0625) < 1e-15
        assert abs(success_curve_new(1.0) - 0.25) < 1e-15

    def test_old_curve_values(self):
        assert success_curve_old(0.0) == 0.0
        assert abs(success_curve_old(1.0) - 16 / 81) < 1e-15

    def test_new_matches_identical_input_scheme(self):
        for p in (0.1, 0.37, 0.5, 0.82):
            s = input_from_probability(p)
            assert abs(success_curve_new(p) - run_scheme(s, s).p_success) < 1e-12

    def test_new_dominates_old_strictly_inside(self):
        for p in np.linspace(0.001, 1.0, 200):
            assert success_curve_new(p) > success_curve_old(p)

    def test_domain_checks(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(OutOfRange):
                success_curve_new(bad)
            with pytest.raises(OutOfRange):
                success_curve_old(bad)
