import math

import numpy as np
import pytest

from photonpurify import (
    BeamSplitterParams,
    CreationPolynomial,
    InputState,
    ModeMismatch,
    NotSquare,
    apply,
    beamsplitter,
    fock_state,
    input_to_state,
    polynomial_to_state,
    state_to_polynomial,
    substitute,
    tensor,
)
from photonpurify.verify import amplitude_distance, random_state, random_unitary


class TestStateToPolynomial:
    def test_vacuum_is_constant_one(self):
        poly = state_to_polynomial(fock_state((0,)))
        assert poly.terms == {(0,): 1}

    def test_two_photons_divides_by_sqrt_factorial(self):
        poly = state_to_polynomial(fock_state((2,)))
        assert abs(poly.coefficient((2,)) - 1 / math.sqrt(2)) < 1e-15

    def test_product_state_monomials(self):
        a1, b1 = 0.8, 0.6
        a2, b2 = 0.6, 0.8
        s = tensor(input_to_state(InputState(a1, b1)), input_to_state(InputState(a2, b2)))
        poly = state_to_polynomial(s)
        assert abs(poly.coefficient((0, 0)) - a1 * a2) < 1e-15
        assert abs(poly.coefficient((1, 0)) - b1 * a2) < 1e-15
        assert abs(poly.coefficient((0, 1)) - a1 * b2) < 1e-15
        assert abs(poly.coefficient((1, 1)) - b1 * b2) < 1e-15

    def test_missing_exponents_are_zero(self):
        poly = state_to_polynomial(fock_state((1, 0)))
        assert poly.coefficient((0, 1)) == 0


class TestPolynomialToState:
    def test_constant_gives_vacuum(self):
        s = polynomial_to_state(CreationPolynomial(2, {(0, 0): 1.0}))
        assert s.amps == {(0, 0): 1}

    def test_multiplies_by_sqrt_factorial(self):
        s = polynomial_to_state(CreationPolynomial(1, {(3,): 1.0}))
        assert abs(s.amplitude((3,)) - math.sqrt(6)) < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = random_state(rng, 3, 4)
            back = polynomial_to_state(state_to_polynomial(s))
            assert amplitude_distance(s, back) < 1e-15


class TestSubstitute:
    def test_identity_leaves_polynomial_alone(self):
        poly = state_to_polynomial(fock_state((1, 2)))
        out = substitute(poly, np.eye(2))
        assert amplitude_distance(polynomial_to_state(out), polynomial_to_state(poly)) < 1e-15

    def test_hong_ou_mandel_cross_term_cancels(self):
        poly = state_to_polynomial(fock_state((1, 1)))
        m = beamsplitter(BeamSplitterParams(math.pi / 4, math.pi)).matrix
        out = substitute(poly, m)
        assert abs(out.coefficient((1, 1))) < 1e-15
        assert abs(out.coefficient((2, 0)) - (-0.5)) < 1e-15
        assert abs(out.coefficient((0, 2)) - 0.5) < 1e-15

    def test_single_mode_scaling(self):
        poly = CreationPolynomial(1, {(2,): 1.0})
        out = substitute(poly, np.array([[0.5j]]))
        assert abs(out.coefficient((2,)) - (0.5j) ** 2) < 1e-15

    def test_preserves_total_degree(self):
        rng = np.random.default_rng(11)
        poly = state_to_polynomial(random_state(rng, 2, 3))
        out = substitute(poly, random_unitary(rng, 2))
        degrees_in = {sum(e) for e in poly.terms}
        for exponents, coeff in out.terms.items():
            if abs(coeff) > 1e-14:
                assert sum(exponents) in degrees_in

    def test_validation(self):
        poly = state_to_polynomial(fock_state((1, 0)))
        with pytest.raises(NotSquare):
            substitute(poly, np.ones((2, 3)))
        with pytest.raises(ModeMismatch):
            substitute(poly, np.eye(3))

    def test_transformed_pair_coefficients(self):
        """Product-input coefficients after a general splitter, in closed form."""
        rng = np.random.default_rng(23)
        for _ in range(20):
            p1, p2 = rng.uniform(0.05, 0.95, size=2)
            a1, b1 = math.sqrt(1 - p1), math.sqrt(p1)
            a2, b2 = math.sqrt(1 - p2), math.sqrt(p2)
            bs = BeamSplitterParams(rng.uniform(0, math.pi / 2), rng.uniform(-math.pi, math.pi))
            m = beamsplitter(bs).matrix
            s = tensor(input_to_state(InputState(a1, b1)), input_to_state(InputState(a2, b2)))
            out = substitute(state_to_polynomial(s), m)
            assert abs(out.coefficient((0, 0)) - a1 * a2) < 1e-12
            assert abs(out.coefficient((1, 0)) - (a2 * b1 * m[0, 0] + a1 * b2 * m[0, 1])) < 1e-12
            assert abs(out.coefficient((0, 1)) - (a2 * b1 * m[1, 0] + a1 * b2 * m[1, 1])) < 1e-12
            assert abs(out.coefficient((2, 0)) - b1 * b2 * m[0, 0] * m[0, 1]) < 1e-12
            assert abs(out.coefficient((0, 2)) - b1 * b2 * m[1, 0] * m[1, 1]) < 1e-12


class TestAgainstApply:
    def test_routes_agree_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            modes = int(rng.integers(1, 4))
            s = random_state(rng, modes, 4)
            u = random_unitary(rng, modes)
            direct = apply(u, s)
            via_poly = polynomial_to_state(substitute(state_to_polynomial(s), u))
            assert amplitude_distance(direct, via_poly) < 1e-12

    def test_routes_agree_on_fock_basis(self):
        rng = np.random.default_rng(29)
        u = random_unitary(rng, 2)
        for occ in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2)]:
            s = fock_state(occ)
            direct = apply(u, s)
            via_poly = polynomial_to_state(substitute(state_to_polynomial(s), u))
            assert amplitude_distance(direct, via_poly) < 1e-12
