import math

import numpy as np
import pytest

from photonpurify import (
    BeamSplitterParams,
    InputState,
    ModeMismatch,
    StateVector,
    apply,
    beamsplitter,
    condition,
    fidelity,
    fock_state,
    input_to_state,
    outcome_distribution,
    tensor,
    vacuum,
)
from photonpurify.errors import AmplitudeOverflow, IndexOutOfRange, OutOfRange
from photonpurify.verify import random_state


def balanced_pair_after_bs():
    # Both inputs (|0>+|1>)/sqrt(2) through the (pi/4, pi) splitter.
    half = input_to_state(InputState(1 / math.sqrt(2), 1 / math.sqrt(2)))
    return apply(beamsplitter(BeamSplitterParams(math.pi / 4, math.pi)), tensor(half, half))


class TestCondition:
    def test_vacuum_detection_certain(self):
        res = condition(fock_state((0, 0)), {1: 0})
        assert res.probability == 1.0
        assert res.state.amps == {(0,): 1}

    def test_single_photon_detection_certain(self):
        res = condition(fock_state((0, 1)), {1: 1})
        assert res.probability == 1.0
        assert res.state.amps == {(0,): 1}

    def test_balanced_pair_zero_detection(self):
        """Conditioning the mixed balanced pair on zero photons in mode 1."""
        res = condition(balanced_pair_after_bs(), {1: 0})
        assert abs(res.probability - 0.375) < 1e-12
        assert abs(res.state.amplitude((0,)) - 0.81650) < 1e-4
        assert abs(res.state.amplitude((2,)) - (-0.57735)) < 1e-4
        assert res.state.amplitude((1,)) == 0

    def test_impossible_outcome_is_not_an_error(self):
        res = condition(fock_state((0, 0)), {1: 2})
        assert res.probability == 0.0
        assert res.state is None

    def test_state_is_normalized(self):
        res = condition(balanced_pair_after_bs(), {0: 2})
        assert abs(res.probability - 0.125) < 1e-12
        assert abs(res.state.norm_squared - 1.0) < 1e-12

    def test_remaining_modes_keep_order(self):
        s = StateVector(3, {(0, 1, 2): 1.0})
        res = condition(s, {1: 1})
        assert res.state.amps == {(0, 2): 1}

    def test_pattern_validation(self):
        s = vacuum(2)
        with pytest.raises(ModeMismatch):
            condition(s, {})
        with pytest.raises(ModeMismatch):
            condition(s, {0: 0, 1: 0})
        with pytest.raises(IndexOutOfRange):
            condition(s, {5: 0})
        with pytest.raises(OutOfRange):
            condition(s, {0: -1})
        # A mode index must be an int, as a count must: no float, no bool.
        for mode in (0.5, 1.0, True):
            with pytest.raises(IndexOutOfRange):
                condition(s, {mode: 0})

    def test_chaining_equals_joint(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_state(rng, 3, 3)
            joint = condition(s, {0: 0, 2: 1})
            first = condition(s, {0: 0})
            if first.state is None or joint.state is None:
                continue
            # After dropping mode 0, original mode 2 is index 1.
            second = condition(first.state, {1: 1})
            assert abs(joint.probability - first.probability * second.probability) < 1e-12
            assert abs(fidelity(joint.state, second.state) - 1.0) < 1e-12


class TestOutcomeDistribution:
    def test_vacuum(self):
        assert outcome_distribution(fock_state((0, 0)), (0, 1)) == {(0, 0): 1.0}

    def test_hong_ou_mandel_bunching(self):
        out = apply(beamsplitter(BeamSplitterParams(math.pi / 4, math.pi)), fock_state((1, 1)))
        dist = outcome_distribution(out, (0, 1))
        assert abs(dist[(2, 0)] - 0.5) < 1e-12
        assert abs(dist[(0, 2)] - 0.5) < 1e-12
        assert (1, 1) not in dist

    def test_marginal_on_one_mode(self):
        dist = outcome_distribution(balanced_pair_after_bs(), (1,))
        assert abs(dist[(0,)] - 0.375) < 1e-12
        assert abs(sum(dist.values()) - 1.0) < 1e-12

    def test_sums_to_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_state(rng, 2, 4)
            dist = outcome_distribution(s, (0, 1))
            assert abs(sum(dist.values()) - 1.0) < 1e-12

    def test_matches_condition_probability(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            s = random_state(rng, 3, 3)
            dist = outcome_distribution(s, (2,))
            for pattern, prob in dist.items():
                res = condition(s, {2: pattern[0]})
                assert abs(res.probability - prob) < 1e-12

    def test_validation(self):
        s = vacuum(2)
        with pytest.raises(ModeMismatch):
            outcome_distribution(s, ())
        with pytest.raises(ModeMismatch):
            outcome_distribution(s, (0, 0))
        with pytest.raises(IndexOutOfRange):
            outcome_distribution(s, (4,))
        for modes in ((0.0,), (1.0,), (False,)):
            with pytest.raises(IndexOutOfRange):
                outcome_distribution(s, modes)

    def test_huge_amplitude_is_package_error(self):
        with pytest.raises(AmplitudeOverflow, match="1.000e[+]200"):
            outcome_distribution(StateVector(1, {(0,): 1e200}), (0,))
