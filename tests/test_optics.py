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

    def test_repr_names_the_dimension(self):
        assert repr(random_unitary(np.random.default_rng(0), 3)) == "InterferometerUnitary(dim=3)"
        assert repr(beamsplitter(BeamSplitterParams(0.3, 0.0))) == "InterferometerUnitary(dim=2)"


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


def _signed_zero_matrix(rng, modes):
    # Random entries with exact 0.0 and -0.0 parts mixed in.
    parts = rng.uniform(-1, 1, (2, modes, modes))
    parts[rng.random(parts.shape) < 0.25] = 0.0
    parts[rng.random(parts.shape) < 0.25] = -0.0
    m = np.empty((modes, modes), dtype=complex)
    m.real, m.imag = parts
    return m


def _sector_inputs(photons, modes, rng=None, count=None):
    # The sector's occupations as repeated mode lists: all of them, or
    # ``count`` drawn with repetition.
    occs = sector_occupations(photons, modes)
    if count is not None:
        occs = [occs[i] for i in rng.integers(0, len(occs), count)]
    return [optics._repeat_modes(occ) for occ in occs]


def _sector_reprs(matrix, photons, cols):
    rows = np.array(_sector_inputs(photons, matrix.shape[0]))
    got = optics._sector_permanents(matrix, rows, cols)
    return [[repr(per) for per in row] for row in got]


def _kernel_reprs(matrix, photons, cols):
    rows = _sector_inputs(photons, matrix.shape[0])
    return [[repr(permanent_kernel(matrix[np.ix_(r, c)])) for c in cols] for r in rows]


class TestRyserStack:
    """``optics._sector_permanents`` is ``permanent_kernel`` on the
    submatrix of each (output, input) transition of a sector, bit for bit,
    without gathering the submatrices."""

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_equals_kernel_by_repr(self, dim):
        rng = np.random.default_rng(dim)
        for modes, count in ((1, 1), (2, 7), (3, 3)):
            m = _signed_zero_matrix(rng, modes)
            cols = _sector_inputs(dim, modes, rng, count)
            assert _sector_reprs(m, dim, cols) == _kernel_reprs(m, dim, cols)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_exact_and_non_finite_parts(self, dim):
        """Parts drawn from 0.0, -0.0, +-1, +-0.5 and +-inf: row sums and
        products cancel to signed zeros or turn NaN, and each permanent's
        parts still equal the kernel's. Sectors of 1 and 2 photons are
        below ``apply``'s use, but there an infinite part shows whether the
        ``0.0 *`` terms of ``1.0+0j`` times the first row sum are kept."""
        rng = np.random.default_rng(11 + dim)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, math.inf, -math.inf])
        weights = np.array([6, 6, 3, 3, 3, 3, 1, 1]) / 26
        for n in range(90):
            modes = 1 + n % 3
            m = np.empty((modes, modes), dtype=complex)
            m.real = rng.choice(values, size=m.shape, p=weights)
            m.imag = rng.choice(values, size=m.shape, p=weights)
            if n < 3:
                m[:] = 0j
            elif n < 6:
                m.real, m.imag = -0.0, -0.0
            cols = _sector_inputs(dim, modes)
            assert _sector_reprs(m, dim, cols) == _kernel_reprs(m, dim, cols)

    def test_stack_larger_than_one_chunk(self, monkeypatch):
        """A ``_STACK_CHUNK`` below the sector's size splits the inputs into
        groups (a last one short) and the Gray-code steps into blocks; the
        bits stay the kernel's."""
        rng = np.random.default_rng(5)
        m = _signed_zero_matrix(rng, 3)
        for chunk in (1, 7, 35, 250):
            monkeypatch.setattr(optics, "_STACK_CHUNK", chunk)
            for photons in (3, 4):
                cols = _sector_inputs(photons, 3)
                assert _sector_reprs(m, photons, cols) == _kernel_reprs(m, photons, cols)


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
        """Each sector of k >= 3 photons reaches the sector kernel
        ``_sector_permanents`` once, with the unitary's own matrix and the
        repeated modes of the sector's inputs in the state's order: no
        submatrix is gathered, and the scalar kernel is never called. A
        ``_STACK_CHUNK`` that splits every sector into many groups and
        blocks does not change a bit of the result."""
        s = random_state(np.random.default_rng(43), modes, photons)
        u = random_unitary(np.random.default_rng(47), modes)
        whole = repr(sorted(apply(u, s).amps.items()))
        calls = []
        sector_permanents = optics._sector_permanents

        def recording_kernel(matrix, rows, cols):
            calls.append((matrix, rows, cols))
            return sector_permanents(matrix, rows, cols)

        monkeypatch.setattr(optics, "_sector_permanents", recording_kernel)
        monkeypatch.setattr(optics, "_STACK_CHUNK", 7)
        monkeypatch.setattr(optics, "permanent_kernel", None)
        assert repr(sorted(apply(u, s).amps.items())) == whole

        assert [rows.shape[1] for _, rows, _ in calls] == list(range(3, photons + 1))
        for matrix, rows, cols in calls:
            k = rows.shape[1]
            assert matrix is u.matrix
            assert np.array_equal(rows, _sector_inputs(k, modes))
            assert cols == [optics._repeat_modes(occ) for occ in s.amps if sum(occ) == k]

    def test_single_transition_sector_takes_the_scalar_kernel(self, monkeypatch):
        """A one-mode sector has one transition; it goes to the scalar
        kernel as its k x k matrix, never to the sector kernel."""
        s = random_state(np.random.default_rng(53), 1, 5)
        u = random_unitary(np.random.default_rng(59), 1)
        whole = repr(sorted(apply(u, s).amps.items()))
        dims = []
        kernel = optics.permanent_kernel

        def recording_kernel(m):
            dims.append(m.shape)
            return kernel(m)

        monkeypatch.setattr(optics, "permanent_kernel", recording_kernel)
        monkeypatch.setattr(optics, "_sector_permanents", None)
        assert repr(sorted(apply(u, s).amps.items())) == whole
        assert dims == [(k, k) for k in range(3, 6)]

    def test_unitarity_perturbation_detected(self):
        u = random_unitary(np.random.default_rng(41), 3)
        bad = u.matrix.copy()
        bad[0, 0] += 1e-6
        with pytest.raises(NotUnitary):
            InterferometerUnitary(bad)
