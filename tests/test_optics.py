import math

import numpy as np
import pytest

from photonpurify import (
    BeamSplitterParams,
    InterferometerUnitary,
    ModeMismatch,
    NotSquare,
    NotUnitary,
    OutOfRange,
    StateVector,
    apply,
    beamsplitter,
    fock_state,
    normalize,
    permanent,
    sector_occupations,
    vacuum,
)
from photonpurify import optics
from photonpurify.optics import beamsplitter_matrix, permanent_kernel, unitarity_defect
from photonpurify.verify import amplitude_distance, permanent_naive, random_state, random_unitary

INV_SQRT2 = 1 / math.sqrt(2)


class TestBeamSplitterParams:
    def test_accepts_range(self):
        BeamSplitterParams(0.0, -math.pi)
        BeamSplitterParams(math.pi / 2, math.pi)

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0), (2.0, 0), (0.5, 4.0), (0.5, -4.0)])
    def test_rejects_out_of_range(self, theta, phi):
        with pytest.raises(OutOfRange):
            BeamSplitterParams(theta, phi)


class TestBeamsplitter:
    def test_identity_at_zero(self):
        m = beamsplitter(BeamSplitterParams(0, 0)).matrix
        assert np.allclose(m, np.eye(2), atol=1e-15)

    def test_fifty_fifty_pi_phase(self):
        m = beamsplitter(BeamSplitterParams(math.pi / 4, math.pi)).matrix
        expected = np.array([[INV_SQRT2, -INV_SQRT2], [INV_SQRT2, INV_SQRT2]])
        assert np.max(np.abs(m - expected)) < 1e-15

    def test_swap_at_half_pi(self):
        m = beamsplitter(BeamSplitterParams(math.pi / 2, 0)).matrix
        assert np.max(np.abs(m - np.array([[0, 1], [-1, 0]]))) < 1e-15

    def test_convention_entries(self):
        theta, phi = 0.7, 1.3
        m = beamsplitter(BeamSplitterParams(theta, phi)).matrix
        assert abs(m[0, 0] - math.cos(theta)) < 1e-15
        assert abs(m[0, 1] - np.exp(1j * phi) * math.sin(theta)) < 1e-15
        assert abs(m[1, 0] + np.exp(-1j * phi) * math.sin(theta)) < 1e-15

    def test_random_params_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = beamsplitter(
                BeamSplitterParams(rng.uniform(0, math.pi / 2), rng.uniform(-math.pi, math.pi))
            )
            defect = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(2)))
            assert defect < 1e-12

    def test_splitter_formula_is_unitary_to_a_few_ulp(self):
        # The scheme builds its splitters from beamsplitter_matrix without a
        # unitarity check: over the edges of BeamSplitterParams' ranges and
        # random pairs, every entry of U^dag U - I stays within 1e-15, far
        # inside UNITARITY_TOL.
        half_pi = math.pi / 2
        thetas = (0.0, 5e-324, 1e-300, math.pi / 4, half_pi, math.nextafter(half_pi, 0.0))
        phis = [0.0, -0.0, 5e-324]
        for edge in (math.pi, math.nextafter(math.pi, 0.0)):
            phis += [edge, -edge]
        rng = np.random.default_rng(23)
        pairs = [(theta, phi) for theta in thetas for phi in phis]
        pairs += zip(rng.uniform(0.0, half_pi, 20_000), rng.uniform(-math.pi, math.pi, 20_000))
        worst = max(
            unitarity_defect(np.array(beamsplitter_matrix(BeamSplitterParams(float(t), float(p)))))
            for t, p in pairs
        )
        assert worst <= 1e-15


class TestInterferometerUnitary:
    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            InterferometerUnitary(np.zeros((2, 3)))
        with pytest.raises(NotSquare, match="at least one mode"):
            InterferometerUnitary(np.zeros((0, 0)))

    def test_rejects_non_unitary(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-6
        with pytest.raises(NotUnitary):
            InterferometerUnitary(bad)

    def test_accepts_within_tolerance(self):
        InterferometerUnitary([[1.0, 0.0], [0.0, 1.0 + 4e-11]])

    def test_rejects_nan_matrix(self):
        with pytest.raises(NotUnitary):
            InterferometerUnitary(np.full((2, 2), np.nan))

    def test_matrix_read_only(self):
        u = beamsplitter(BeamSplitterParams(0.3, 0.0))
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 5.0

    def test_dim(self):
        assert random_unitary(np.random.default_rng(0), 3).dim == 3


class TestPermanent:
    def test_empty_is_one(self):
        assert permanent(np.zeros((0, 0))) == 1
        assert permanent_kernel(np.zeros((0, 0))) == 1

    def test_identity(self):
        assert abs(permanent(np.eye(2)) - 1) < 1e-15

    def test_two_by_two(self):
        # 1*4 + 2*3
        assert abs(permanent([[1, 2], [3, 4]]) - 10) < 1e-12

    def test_all_ones_is_factorial(self):
        assert abs(permanent(np.ones((3, 3))) - 6) < 1e-12
        assert abs(permanent(np.ones((5, 5))) - 120) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            permanent(np.zeros((2, 3)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(17)
        for dim in range(1, 7):
            for _ in range(10):
                m = (rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))) / 2
                assert abs(permanent(m) - permanent_naive(m)) < 1e-12
                # the kernel itself, also below the direct-formula cutover
                assert abs(permanent_kernel(m) - permanent_naive(m)) < 1e-12


def _signed_zero_stack(rng, count, dim):
    # Random entries with exact 0.0 and -0.0 parts mixed in, and every
    # matrix's rows and columns drawn with repetition from two modes'
    # worth of a random matrix, as apply's repeated-mode submatrices are.
    parts = rng.uniform(-1, 1, (2, count, dim, dim))
    parts[rng.random(parts.shape) < 0.25] = 0.0
    parts[rng.random(parts.shape) < 0.25] = -0.0
    stack = np.empty((count, dim, dim), dtype=complex)
    stack.real, stack.imag = parts
    for mat in stack[: count // 2]:
        rows = rng.integers(0, 2, dim)
        cols = rng.integers(0, 2, dim)
        mat[:] = mat[rows][:, cols]
    return stack


class TestRyserStack:
    """``optics._ryser_stack`` is ``permanent_kernel`` on each matrix of a
    stack, bit for bit."""

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_equals_kernel_by_repr(self, dim):
        rng = np.random.default_rng(dim)
        for count in (1, 7, 40):
            stack = _signed_zero_stack(rng, count, dim)
            got = [repr(per) for per in optics._ryser_stack(stack).tolist()]
            assert got == [repr(permanent_kernel(mat)) for mat in stack]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_exact_and_non_finite_parts(self, dim):
        """Parts drawn from 0.0, -0.0, +-1, +-0.5 and +-inf: row sums and
        products cancel to signed zeros or turn NaN, and each permanent's
        parts still equal the kernel's. Dimensions 1 and 2 are below
        ``apply``'s use, but there an infinite part shows whether the
        ``0.0 *`` terms of ``1.0+0j`` times the first row sum are kept."""
        rng = np.random.default_rng(11 + dim)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, math.inf, -math.inf])
        weights = np.array([6, 6, 3, 3, 3, 3, 1, 1]) / 26
        stack = np.empty((400, dim, dim), dtype=complex)
        stack.real = rng.choice(values, size=stack.shape, p=weights)
        stack.imag = rng.choice(values, size=stack.shape, p=weights)
        stack[0] = 0j
        stack[1].real, stack[1].imag = -0.0, -0.0
        got = [repr(per) for per in optics._ryser_stack(stack).tolist()]
        assert got == [repr(permanent_kernel(mat)) for mat in stack]

    def test_stack_larger_than_one_chunk(self):
        rng = np.random.default_rng(5)
        stack = _signed_zero_stack(rng, optics._STACK_CHUNK + 5, 3)
        got = [repr(per) for per in optics._ryser_stack(stack).tolist()]
        assert got == [repr(permanent_kernel(mat)) for mat in stack]


class TestApply:
    def test_identity(self):
        s = random_state(np.random.default_rng(2), 2, 3)
        out = apply(InterferometerUnitary(np.eye(2)), s)
        assert amplitude_distance(s, out) < 1e-15

    def test_single_photon_follows_column(self):
        """One photon in mode j picks up column j as its amplitude vector."""
        u = random_unitary(np.random.default_rng(9), 3)
        for j in range(3):
            occ = tuple(1 if i == j else 0 for i in range(3))
            out = apply(u, fock_state(occ))
            for i in range(3):
                target = tuple(1 if k == i else 0 for k in range(3))
                assert abs(out.amplitude(target) - u.matrix[i, j]) < 1e-14

    def test_hong_ou_mandel(self):
        out = apply(beamsplitter(BeamSplitterParams(math.pi / 4, math.pi)), fock_state((1, 1)))
        assert abs(out.amplitude((2, 0)) - (-INV_SQRT2)) < 1e-14
        assert abs(out.amplitude((0, 2)) - INV_SQRT2) < 1e-14
        assert out.amplitude((1, 1)) == 0

    def test_bunching_amplitude(self):
        """|20> through a 50/50 splitter: per-element formula with the 2! factors."""
        u = beamsplitter(BeamSplitterParams(math.pi / 4, 0))
        out = apply(u, fock_state((2, 0)))
        m = u.matrix
        assert abs(out.amplitude((2, 0)) - m[0, 0] ** 2) < 1e-14
        assert abs(out.amplitude((1, 1)) - math.sqrt(2) * m[0, 0] * m[1, 0]) < 1e-14
        assert abs(out.amplitude((0, 2)) - m[1, 0] ** 2) < 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            modes = int(rng.integers(2, 4))
            s = random_state(rng, modes, 4)
            out = apply(random_unitary(rng, modes), s)
            assert abs(out.norm_squared - s.norm_squared) < 1e-12

    def test_photon_sectors_preserved(self):
        rng = np.random.default_rng(29)
        s = StateVector(2, {(0, 0): 0.6, (1, 1): 0.8})
        out = apply(random_unitary(rng, 2), s)
        assert {sum(occ) for occ in out.amps} <= {0, 2}

    def test_composition(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            u1 = random_unitary(rng, 3)
            u2 = random_unitary(rng, 3)
            s = random_state(rng, 3, 3)
            chained = apply(u2, apply(u1, s))
            merged = apply(InterferometerUnitary(u2.matrix @ u1.matrix), s)
            assert amplitude_distance(chained, merged) < 1e-10

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            apply(InterferometerUnitary(np.eye(3)), vacuum(2))

    def test_high_occupation_past_old_factorial_table(self):
        """Twelve photons in one mode: i^12 = 1, and the norm stays 1."""
        out = apply(InterferometerUnitary([[1j]]), StateVector(1, {(12,): 1}))
        assert abs(out.amplitude((12,)) - 1) < 1e-9
        assert abs(out.norm_squared - 1) < 1e-9

    def test_transformed_pair_coefficients(self):
        """Both-input product state picks up the five quadratic coefficients."""
        rng = np.random.default_rng(37)
        for _ in range(10):
            p1, p2 = rng.uniform(0.1, 0.9, size=2)
            a1, b1 = math.sqrt(1 - p1), math.sqrt(p1)
            a2, b2 = math.sqrt(1 - p2), math.sqrt(p2)
            bs = BeamSplitterParams(rng.uniform(0, math.pi / 2), rng.uniform(-math.pi, math.pi))
            m = beamsplitter(bs).matrix
            s = StateVector(2, {(0, 0): a1 * a2, (1, 0): b1 * a2, (0, 1): a1 * b2, (1, 1): b1 * b2})
            out = apply(beamsplitter(bs), s)
            assert abs(out.amplitude((0, 0)) - a1 * a2) < 1e-14
            assert abs(out.amplitude((1, 0)) - (a2 * b1 * m[0, 0] + a1 * b2 * m[0, 1])) < 1e-14
            assert abs(out.amplitude((0, 1)) - (a2 * b1 * m[1, 0] + a1 * b2 * m[1, 1])) < 1e-14
            two = math.sqrt(2) * b1 * b2
            assert abs(out.amplitude((2, 0)) - two * m[0, 0] * m[0, 1]) < 1e-14
            assert abs(out.amplitude((0, 2)) - two * m[1, 0] * m[1, 1]) < 1e-14
            per = m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]
            assert abs(out.amplitude((1, 1)) - b1 * b2 * per) < 1e-14

    @pytest.mark.parametrize("modes, photons", [(2, 3), (3, 4), (3, 5)])
    def test_kernel_sees_every_transition_of_three_or_more_photons(
        self, monkeypatch, modes, photons
    ):
        """Each sector of k >= 3 photons reaches the stacked kernel
        ``_ryser_stack`` as its N_out * N_in k x k transition submatrices,
        output-major, in passes of at most ``_STACK_CHUNK`` matrices, and
        never the scalar kernel; the split does not change a bit of the
        result."""
        s = random_state(np.random.default_rng(43), modes, photons)
        u = random_unitary(np.random.default_rng(47), modes)
        whole = repr(sorted(apply(u, s).amps.items()))
        stacks = []
        ryser_stack = optics._ryser_stack

        def recording_stack(mats):
            stacks.append(mats.copy())
            return ryser_stack(mats)

        monkeypatch.setattr(optics, "_ryser_stack", recording_stack)
        monkeypatch.setattr(optics, "_STACK_CHUNK", 7)
        monkeypatch.setattr(optics, "permanent_kernel", None)
        assert repr(sorted(apply(u, s).amps.items())) == whole

        assert all(len(mats) <= 7 for mats in stacks)
        for k in range(3, photons + 1):
            rows = [optics._repeat_modes(occ) for occ in sector_occupations(k, modes)]
            cols = [optics._repeat_modes(occ) for occ in s.amps if sum(occ) == k]
            passes = [mats for mats in stacks if mats.shape[1] == k]
            assert len(passes) == -(-len(rows) * len(cols) // 7)
            expected = np.array([u.matrix[r][:, c] for r in rows for c in cols])
            assert np.array_equal(np.concatenate(passes), expected)

    def test_unitarity_perturbation_detected(self):
        u = random_unitary(np.random.default_rng(41), 3)
        bad = u.matrix.copy()
        bad[0, 0] += 1e-6
        with pytest.raises(NotUnitary):
            InterferometerUnitary(bad)
