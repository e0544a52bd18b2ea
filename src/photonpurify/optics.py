"""Passive interferometer unitaries and their action on Fock states.

Mode convention, stated once for the whole package: **columns transform
creation operators**. For a unitary U acting on M modes,

    a_j^dag  ->  sum_i U[i, j] a_i^dag

so column j of U is the image of mode j's creation operator. Mixing up the
row and column convention is the single most likely implementation bug in
this kind of simulator; every routine here and in the oracle module uses
the column form.

Beam splitters are two-mode unitaries, parameterized by a mixing angle
theta and one phase phi:

    [[cos(theta),               exp(i phi) sin(theta)],
     [-exp(-i phi) sin(theta),  cos(theta)           ]]

Two parameters suffice because global and external phases never change
post-selection probabilities or the fidelity to a photon-number state.
The scheme applies each splitter to a two-mode state directly; nothing
here places a splitter inside a larger interferometer.

Transition amplitudes between occupations are matrix permanents of row- and
column-repeated submatrices:

    <n'|U|n> = per(U[n', n]) / sqrt(prod_i n_i! * prod_j n'_j!)

where U[n', n] repeats row i n'_i times and column j n_j times. The
permanent itself is evaluated by a pure-Python Ryser kernel with direct
formulas below dimension 3. All of it runs on Python complexes: ``apply``
reads the unitary once per call with ``tolist``, writes the zero- to
two-photon permanents out on those scalars, and hands each larger
submatrix to :func:`permanent_kernel` as an ndarray; the kernel reads it
once with ``tolist`` and walks a Gray-code schedule cached per dimension.
The scheme calls neither ``apply`` nor
``beamsplitter``: its states hold at most two photons, and ``scheme``
evaluates them on scalars with the same arithmetic, taking each splitter
from :func:`beamsplitter_matrix` with a scalar unitarity check.
``beamsplitter`` and ``apply`` are the general engine that the scheme's
tests compare against and that ``verify`` checks; only those oracle
checks reach the kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ModeMismatch, NotSquare, NotUnitary, OutOfRange
from .fock import StateVector, sector_occupations

#: Unitarity tolerance at construction; looser than the norm tolerance
#: after apply because user-supplied matrices may come from text files.
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class BeamSplitterParams:
    """(theta, phi) with theta in [0, pi/2] and phi in [-pi, pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi / 2):
            raise OutOfRange(f"theta {self.theta!r} outside [0, pi/2]")
        if not (-math.pi <= self.phi <= math.pi):
            raise OutOfRange(f"phi {self.phi!r} outside [-pi, pi]")


def unitarity_defect(m: np.ndarray) -> float:
    """||U^dag U - I||_max of a square matrix; NaN entries give NaN."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


class InterferometerUnitary:
    """M x M unitary on mode creation operators (column convention).

    Every matrix is validated against ||U^dag U - I||_max <= UNITARITY_TOL
    at construction and stored read-only; there is no unchecked route.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotSquare(f"interferometer matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise NotSquare("interferometer needs at least one mode")
        defect = unitarity_defect(m)
        # Written so that a NaN defect fails too.
        if not defect <= UNITARITY_TOL:
            raise NotUnitary(
                f"||U^dag U - I||_max = {defect:.3e} exceeds {UNITARITY_TOL:.0e}"
            )
        m.setflags(write=False)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"InterferometerUnitary(dim={self.dim})"


Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


def _splitter_entries(params: BeamSplitterParams) -> Matrix2:
    # The splitter's formula, written once for both forms below.
    c = complex(math.cos(params.theta))
    s = math.sin(params.theta)
    ph = cmath.exp(1j * params.phi)
    return ((c, ph * s), (-s / ph, c))


def check_unitary_2x2(m: Matrix2) -> None:
    """Raise NotUnitary unless every entry of U^dag U - I is within
    UNITARITY_TOL, for a 2x2 matrix given as nested rows of scalars.

    The scalar counterpart of ``InterferometerUnitary``'s check, with the
    same tolerance; an entry that is NaN fails.
    """
    (a, b), (c, d) = m
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    defects = (
        abs(ac * a + cc * c - 1.0),
        abs(ac * b + cc * d),
        abs(bc * a + dc * c),
        abs(bc * b + dc * d - 1.0),
    )
    for defect in defects:
        if not defect <= UNITARITY_TOL:
            raise NotUnitary(
                f"|U^dag U - I| entry {defect:.3e} exceeds {UNITARITY_TOL:.0e}"
            )


def beamsplitter_matrix(params: BeamSplitterParams) -> Matrix2:
    """The splitter's matrix as nested rows of Python complexes, checked by
    :func:`check_unitary_2x2`.

    Equal entry for entry to ``beamsplitter(params).matrix.tolist()``, with
    no numpy on the way; the scheme evaluates its stages on these.
    """
    m = _splitter_entries(params)
    check_unitary_2x2(m)
    return m


def beamsplitter(params: BeamSplitterParams) -> InterferometerUnitary:
    """Two-mode unitary for the given mixing angle and phase."""
    return InterferometerUnitary(_splitter_entries(params))


@lru_cache(maxsize=None)
def _gray_schedule(n: int) -> tuple[tuple[int, bool, bool], ...]:
    """Ryser's column subsets of an n x n matrix in Gray-code order.

    Step k (k = 1 .. 2^n - 1) is ``(column, add, negate)``: the column
    that enters (``add``) or leaves the subset, and whether the subset's
    product is subtracted, (-1)^(n - |S|) = -1. Computed once per
    dimension, like ``fock.sector_occupations``.
    """
    steps = []
    old_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ old_gray
        steps.append((bit.bit_length() - 1, bool(gray & bit), bool((n - gray.bit_count()) & 1)))
        old_gray = gray
    return tuple(steps)


def permanent_kernel(m: np.ndarray) -> complex:
    """Ryser permanent of a square ndarray.

    per(A) = sum over non-empty column subsets S of
    (-1)^(n-|S|) * prod_i sum_{j in S} A[i, j]; subsets are visited in
    the cached Gray-code order of :func:`_gray_schedule`, so each step
    updates the row sums by one column. The matrix is read once, with one
    ``tolist``, and the sums run on Python complexes.
    """
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    cols = m.T.tolist()
    sums = [0j] * n
    rows = range(n)
    total = 0j
    for j, add, negate in _gray_schedule(n):
        col = cols[j]
        if add:
            for i in rows:
                sums[i] += col[i]
        else:
            for i in rows:
                sums[i] -= col[i]
        prod = 1.0 + 0j
        for v in sums:
            prod *= v
        if negate:
            total -= prod
        else:
            total += prod
    return total


def permanent(m) -> complex:
    """Matrix permanent: the transition path's direct formulas below
    dimension 3, the Ryser kernel above.

    Empty matrices have permanent 1 by convention.
    """
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquare(f"permanent needs a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 3:
        return _repeated_permanent(arr, arr.tolist(), list(range(n)), list(range(n)))
    return permanent_kernel(arr)


def _repeated_permanent(
    matrix: np.ndarray, entries: list[list[complex]], rows: list[int], cols: list[int]
) -> complex:
    # Transition permanent with rows/cols given as repeated mode indices;
    # ``entries`` is ``matrix.tolist()``. Zero to two photons are written
    # out on those Python complexes: building submatrices for them would
    # dominate the hot path. The kernel is looked up as a module global on
    # each call, so a rebinding of ``permanent_kernel`` sees every call.
    k = len(rows)
    if k == 0:
        return 1.0 + 0j
    if k == 1:
        return entries[rows[0]][cols[0]]
    if k == 2:
        r0, r1 = entries[rows[0]], entries[rows[1]]
        c0, c1 = cols
        return r0[c0] * r1[c1] + r0[c1] * r1[c0]
    return permanent_kernel(matrix.take(rows, 0).take(cols, 1))


def _occupation_factorial(occ) -> int:
    f = 1
    for n in occ:
        f *= math.factorial(n)
    return f


def _repeat_modes(occ) -> list[int]:
    out: list[int] = []
    for mode, n in enumerate(occ):
        out.extend([mode] * n)
    return out


def apply(u: InterferometerUnitary, s: StateVector) -> StateVector:
    """Transform a state through an interferometer.

    Photon number is conserved exactly: the transformation is block
    diagonal over photon-number sectors, and each output sector is
    enumerated in full. States carry no photon cap, so any photon number
    is accepted.

    Norm is preserved to float precision only at small photon numbers.
    With several photons in one input mode the repeated kernel columns
    make Ryser's alternating subset sums cancel: for n photons in one
    mode through ``BeamSplitterParams(0.3, 0.1)`` the squared-norm drift
    is at most 4.4e-16 up to n = 5, then 1.1e-14 at n = 6, 1.9e-13 at
    n = 8, 8.0e-12 at n = 10 and 1.3e-10 at n = 12. The scheme's states
    hold at most two photons.
    """
    if u.dim != s.modes:
        raise ModeMismatch(f"unitary on {u.dim} modes, state on {s.modes}")
    by_sector: dict[int, list[tuple]] = {}
    for occ, amp in s.amps.items():
        by_sector.setdefault(sum(occ), []).append((occ, amp))

    matrix = u.matrix
    entries = matrix.tolist()
    out: dict[tuple[int, ...], complex] = {}
    for photons, members in by_sector.items():
        inputs = [
            (_repeat_modes(occ), amp / math.sqrt(_occupation_factorial(occ)))
            for occ, amp in members
        ]
        for out_occ in sector_occupations(photons, s.modes):
            rows = _repeat_modes(out_occ)
            acc = 0j
            for cols, weighted_amp in inputs:
                acc += weighted_amp * _repeated_permanent(matrix, entries, rows, cols)
            if acc != 0j:
                out[out_occ] = acc / math.sqrt(_occupation_factorial(out_occ))
    return StateVector(s.modes, out)
