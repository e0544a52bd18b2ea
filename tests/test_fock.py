import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpurify import (
    AmplitudeOverflow,
    InputState,
    ModeMismatch,
    NotNormalized,
    OutOfRange,
    StateVector,
    ZeroState,
    fidelity,
    fock_state,
    inner_product,
    input_from_probability,
    input_to_state,
    normalize,
    sector_occupations,
    tensor,
    vacuum,
)
from photonpurify.fock import _squared_norm

INV_SQRT2 = 1 / math.sqrt(2)


class TestStateVector:
    def test_stores_amplitudes(self):
        s = StateVector(2, {(0, 0): 0.6, (1, 1): 0.8j})
        assert s.amplitude((0, 0)) == 0.6
        assert s.amplitude((1, 1)) == 0.8j
        assert s.amplitude((1, 0)) == 0

    def test_norm_squared(self):
        s = StateVector(1, {(0,): 0.6, (1,): 0.8})
        assert abs(s.norm_squared - 1.0) < 1e-15

    def test_prunes_tiny_amplitudes(self):
        s = StateVector(1, {(0,): 1.0, (1,): 1e-15})
        assert (1,) not in s.amps

    def test_rejects_zero_state(self):
        with pytest.raises(ZeroState):
            StateVector(1, {(0,): 1e-15})

    def test_amplitudes_read_only(self):
        given_amps = {(0,): 0.6, (1,): 0.8}
        s = StateVector(1, given_amps)
        with pytest.raises(TypeError):
            s.amps[(0,)] = 1.0
        given_amps[(0,)] = 0.0
        assert s.amplitude((0,)) == 0.6

    def test_norm_squared_of_huge_amplitude_is_package_error(self):
        with pytest.raises(AmplitudeOverflow, match="1.000e[+]200"):
            StateVector(1, {(0,): 1e200}).norm_squared

    def test_amplitude_whose_modulus_overflows_is_package_error(self):
        # Both parts are finite; only abs() of the complex overflows.
        with pytest.raises(AmplitudeOverflow, match="modulus"):
            StateVector(1, {(0,): complex(1.5e308, 1.5e308)})

    def test_rejects_no_modes(self):
        with pytest.raises(ValueError, match="mode count"):
            StateVector(0, {})

    def test_rejects_wrong_occupation_length(self):
        with pytest.raises(ValueError):
            StateVector(2, {(0,): 1.0})

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            StateVector(1, {(-1,): 1.0})

    def test_rejects_bool_counts(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            fock_state((True,))
        with pytest.raises(ValueError, match="non-negative integers"):
            StateVector(2, {(True, 0): 1})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(1, {(0,): float("nan")})

    def test_immutable(self):
        s = fock_state((0,))
        with pytest.raises(AttributeError):
            s.modes = 3


class TestInputs:
    def test_make_input_vacuum(self):
        assert InputState(1, 0).p == 0

    def test_make_input_single_photon(self):
        assert InputState(0, 1).p == 1

    def test_make_input_balanced(self):
        s = InputState(INV_SQRT2, INV_SQRT2)
        assert abs(s.p - 0.5) < 1e-15

    def test_make_input_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            InputState(1.0, 0.5)

    def test_make_input_rejects_nan(self):
        with pytest.raises(ValueError):
            InputState(float("nan"), 0)

    def test_input_to_state_amplitudes(self):
        s = input_to_state(InputState(INV_SQRT2, INV_SQRT2))
        assert abs(s.amplitude((0,)) - 0.70711) < 1e-5
        assert abs(s.amplitude((1,)) - 0.70711) < 1e-5

    def test_input_to_state_basis_cases(self):
        assert input_to_state(InputState(1, 0)).amps == {(0,): 1}
        assert input_to_state(InputState(0, 1)).amps == {(1,): 1}

    def test_input_from_probability(self):
        s = input_from_probability(0.3, 1.2)
        assert abs(s.p - 0.3) < 1e-15
        assert abs(s.alpha - math.sqrt(0.7)) < 1e-15
        assert abs(s.beta - math.sqrt(0.3) * np.exp(1.2j)) < 1e-15

    def test_input_from_probability_range(self):
        with pytest.raises(OutOfRange):
            input_from_probability(1.2)

    def test_p_property(self):
        assert abs(InputState(0.6, 0.8j).p - 0.64) < 1e-15

    @pytest.mark.parametrize("alpha, beta", [(0.1, 0.1), (1.0, 0.5), (0.0, 0.0)])
    def test_input_state_rejects_unnormalized(self, alpha, beta):
        with pytest.raises(NotNormalized):
            InputState(alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(float("nan"), 1.0), (1.0, complex(0, float("inf")))])
    def test_input_state_rejects_non_finite(self, alpha, beta):
        with pytest.raises(ValueError):
            InputState(alpha, beta)

    def test_input_state_huge_amplitude_is_package_error(self):
        with pytest.raises(AmplitudeOverflow, match="1.000e[+]200"):
            InputState(1e200, 0)
        # Finite parts whose modulus overflows: abs itself raises
        # OverflowError, before any square.
        with pytest.raises(AmplitudeOverflow, match="magnitude inf"):
            InputState(complex(1.5e308, 1.5e308), 0)

    def test_input_state_stores_what_it_validated(self):
        s = InputState("0.6", 0.8)
        assert (s.alpha, s.beta) == (0.6 + 0j, 0.8 + 0j)
        assert type(s.alpha) is type(s.beta) is complex


class TestTensor:
    def test_vacuum_pair(self):
        s = tensor(vacuum(1), vacuum(1))
        assert s.amps == {(0, 0): 1}

    def test_two_superpositions(self):
        """Product of two inputs carries all four joint amplitudes."""
        a1, b1 = math.sqrt(0.7), math.sqrt(0.3)
        a2, b2 = math.sqrt(0.4), math.sqrt(0.6)
        s = tensor(
            input_to_state(InputState(a1, b1)), input_to_state(InputState(a2, b2))
        )
        assert abs(s.amplitude((0, 0)) - a1 * a2) < 1e-15
        assert abs(s.amplitude((1, 0)) - b1 * a2) < 1e-15
        assert abs(s.amplitude((0, 1)) - a1 * b2) < 1e-15
        assert abs(s.amplitude((1, 1)) - b1 * b2) < 1e-15

    def test_balanced_gives_quarter_weights(self):
        half = input_to_state(InputState(INV_SQRT2, INV_SQRT2))
        s = tensor(half, half)
        for occ in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            assert abs(s.amplitude(occ) - 0.5) < 1e-15


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner_product(vacuum(1), vacuum(1)) == 1
        assert inner_product(vacuum(1), fock_state((1,))) == 0

    def test_self_product_is_norm(self):
        s = StateVector(1, {(0,): 0.5, (1,): 0.5j, (2,): -0.5})
        self_ip = inner_product(s, s)
        assert abs(self_ip.imag) < 1e-15
        assert abs(self_ip.real - s.norm_squared) < 1e-12

    def test_conjugate_linear_first_argument(self):
        a = StateVector(1, {(0,): 1j})
        b = StateVector(1, {(0,): 1.0})
        assert abs(inner_product(a, b) - (-1j)) < 1e-15

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            inner_product(vacuum(1), vacuum(2))


class TestFidelity:
    def test_identical(self):
        assert abs(fidelity(fock_state((1,)), fock_state((1,))) - 1) < 1e-15

    def test_orthogonal(self):
        assert fidelity(vacuum(1), fock_state((1,))) == 0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(11)
        for chi in rng.uniform(0, 2 * math.pi, size=8):
            rotated = StateVector(1, {(1,): np.exp(1j * chi)})
            assert abs(fidelity(rotated, fock_state((1,))) - 1) < 1e-12

    def test_symmetric(self):
        a, _ = normalize(StateVector(1, {(0,): 1.0, (2,): 1j}))
        b, _ = normalize(StateVector(1, {(0,): 0.3, (1,): 0.9}))
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            fidelity(StateVector(1, {(0,): 0.5}), vacuum(1))

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            fidelity(vacuum(1), vacuum(2))


class TestNormalize:
    def test_simple_rescale(self):
        s, n2 = normalize(StateVector(1, {(0,): 2.0}))
        assert abs(n2 - 4.0) < 1e-15
        assert abs(s.amplitude((0,)) - 1.0) < 1e-15

    def test_conditioned_state_example(self):
        s, n2 = normalize(StateVector(1, {(0,): 0.5, (2,): -0.35355}))
        assert abs(n2 - 0.375) < 1e-4
        assert abs(s.amplitude((0,)) - 0.81650) < 1e-4
        assert abs(s.amplitude((2,)) - (-0.57735)) < 1e-4

    def test_unit_norm_out(self):
        rng = np.random.default_rng(3)
        amps = {occ: complex(*rng.normal(size=2)) for occ in sector_occupations(2, 2)}
        s, _ = normalize(StateVector(2, amps))
        assert abs(s.norm_squared - 1.0) < 1e-12

    def test_squared_norm_sums_left_to_right(self):
        # Each 1e-16 square is below half an ulp of 1.0, so a plain
        # left-to-right sum stays at 1.0; the compensated sum() of Python
        # 3.12 and later gives 1.0000000000000002.
        assert _squared_norm((1.0, 1e-8, 1e-8)) == 1.0

    def test_huge_amplitude_is_package_error(self):
        # A square past about 1.34e154 overflows to inf; the caller sees a
        # ValueError that names the magnitude instead.
        with pytest.raises(AmplitudeOverflow, match="1.000e[+]200") as info:
            normalize(StateVector(1, {(0,): 1e200}))
        assert isinstance(info.value, ValueError)


class TestSectors:
    def test_counts(self):
        # stars and bars: C(photons + modes - 1, modes - 1)
        assert len(sector_occupations(3, 2)) == 4
        assert len(sector_occupations(4, 3)) == 15

    def test_content(self):
        occs = set(sector_occupations(2, 2))
        assert occs == {(2, 0), (1, 1), (0, 2)}

    def test_total_photons(self):
        for n in range(4):
            assert {sum(occ) for occ in sector_occupations(n, 3)} == {n}


@given(
    st.lists(
        st.tuples(
            st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent(parts):
    amps = {(n,): complex(re, im) for n, (re, im) in enumerate(parts)}
    if all(abs(a) < 1e-7 for a in amps.values()):
        return
    once, _ = normalize(StateVector(1, amps))
    twice, n2 = normalize(once)
    assert abs(n2 - 1.0) < 1e-12
    assert abs(fidelity(once, twice) - 1.0) < 1e-12


@given(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_tensor_norm_multiplies(p1, p2):
    a = input_to_state(input_from_probability(p1))
    b = input_to_state(input_from_probability(p2))
    prod = tensor(a, b)
    assert abs(prod.norm_squared - a.norm_squared * b.norm_squared) < 1e-12
