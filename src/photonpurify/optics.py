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
permanent is evaluated by Ryser's formula, with direct formulas below
dimension 3. ``apply`` reads the unitary once per call with ``tolist``
and writes the zero- to two-photon permanents out on those scalars. A
sector of k >= 3 photons goes to :func:`_sector_permanents` in one pass
per group of inputs, and no transition's k x k submatrix is gathered:
for each input it keeps one running Ryser row sum per mode row of U
(M of them), updated per step of the same Gray-code schedule as the
scalar :func:`permanent_kernel`, and a transition's k row sums are the
rows of its output occupation picked from those M. Each picked sum has
had the kernel's additions in the kernel's order, and the products and
the signed total are formed in the kernel's order with CPython
3.10-3.12's complex arithmetic on float64 arrays (:class:`_Lanes`,
which ``scheme``'s sweep batch runs on too), so each permanent equals
the kernel's bit for bit. :func:`permanent` on a single matrix, and
``apply`` on a sector with a single transition (any sector of a one-mode
state), keep the scalar kernel, which reads the matrix once with
``tolist``; a pass of the sector kernel costs far more than one scalar
call there.
The scheme calls neither ``apply`` nor ``beamsplitter``: its states hold
at most two photons, and its stages take each splitter's entries from
``_splitter_formula``, on scalars through :func:`beamsplitter_matrix`
and on the sweep's lanes. Those entries are not checked for unitarity:
for every (theta, phi) that ``BeamSplitterParams`` admits, each entry of
U^dag U - I is a few ulp, far inside ``UNITARITY_TOL``, since
|e^{i phi}| is within an ulp of 1. ``beamsplitter`` wraps the same
entries in :class:`InterferometerUnitary`, which checks every matrix it
is given. ``beamsplitter`` and ``apply`` are the general engine that the
scheme's tests compare against and that ``verify`` checks; only those
oracle checks reach the permanents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


def _splitter_formula(c, s, ph) -> Matrix2:
    # The splitter's entries from cos(theta) as a complex, sin(theta) and
    # e^{i phi}: written once for beamsplitter_matrix and for the sweep
    # batch's lanes in ``scheme``.
    return ((c, ph * s), (-s / ph, c))


def beamsplitter_matrix(params: BeamSplitterParams) -> Matrix2:
    """The splitter's matrix as nested rows of Python complexes.

    Equal entry for entry to ``beamsplitter(params).matrix.tolist()``, with
    no numpy on the way; the scheme evaluates its stages on these.
    """
    theta, phi = params.theta, params.phi
    return _splitter_formula(complex(math.cos(theta)), math.sin(theta), cmath.exp(1j * phi))


def beamsplitter(params: BeamSplitterParams) -> InterferometerUnitary:
    """Two-mode unitary for the given mixing angle and phase."""
    return InterferometerUnitary(beamsplitter_matrix(params))


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
        return _repeated_permanent(arr.tolist(), list(range(n)), list(range(n)))
    return permanent_kernel(arr)


class _Lanes:
    """One complex number per lane of a batch, held as float64 arrays (or
    floats) of real and imaginary parts: the complex arithmetic of
    ``scheme``'s sweep batch and of :func:`_sector_permanents`.

    ``+ * /``, unary minus, ``abs`` and ``==`` give every lane the bits
    that CPython 3.10-3.12 gives the same operation on complexes:
    ``_Py_c_prod`` for products, and both Smith branches of
    ``_Py_c_quot``, chosen per lane, for quotients. The other operand, on
    either side, is read through ``.real`` and ``.imag``, which a lane
    value shares with complex, float, int and ndarray; a real x has
    ``.imag`` 0, so it acts as (x, 0.0), as CPython promotes it. ``abs``
    is ``np.hypot``, which equals ``_Py_c_abs`` wherever that does not
    raise OverflowError. ``__array_ufunc__ = None`` makes numpy defer to
    the reflected methods.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None

    def __init__(self, real, imag=0.0):
        self.real, self.imag = real, imag

    def __add__(self, other):
        return _Lanes(self.real + other.real, self.imag + other.imag)

    def __mul__(self, other):
        # _Py_c_prod
        (ar, ai), (br, bi) = (self.real, self.imag), (other.real, other.imag)
        return _Lanes(ar * br - ai * bi, ar * bi + ai * br)

    # IEEE-754 sums and products commute, signed zeros included.
    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        # _Py_c_quot: Smith's method, scaling by the larger part of the
        # divisor. Both branches are evaluated and each lane keeps its own.
        ar, ai = self.real, self.imag
        br, bi = np.asarray(other.real, dtype=float), np.asarray(other.imag, dtype=float)
        by_real = np.abs(br) >= np.abs(bi)
        ratio = bi / br
        denom = br + bi * ratio
        real = np.where(by_real, (ar + ai * ratio) / denom, 0.0)
        imag = np.where(by_real, (ai - ar * ratio) / denom, 0.0)
        ratio = br / bi
        denom = br * ratio + bi
        real = np.where(by_real, real, (ar * ratio + ai) / denom)
        imag = np.where(by_real, imag, (ai * ratio - ar) / denom)
        return _Lanes(real, imag)

    def __rtruediv__(self, other):
        return _Lanes(other.real, other.imag) / self

    def __neg__(self):
        return _Lanes(-self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def __eq__(self, other):
        return (self.real == other.real) & (self.imag == other.imag)

    def where(self, keep) -> _Lanes:
        """The lanes where ``keep``, 0.0 elsewhere."""
        return _Lanes(np.where(keep, self.real, 0.0), np.where(keep, self.imag, 0.0))


#: (Gray-code step, output, input) entries per block of
#: :func:`_sector_permanents`. A sector's inputs run in groups of
#: ``_STACK_CHUNK // N_out`` and each group's steps in blocks of
#: ``_STACK_CHUNK // (N_out x group)``, at least one of each, so no
#: temporary holds more than 2 x photons x max(_STACK_CHUNK, N_out)
#: complex entries, whatever the sector size.
_STACK_CHUNK = 4096


@lru_cache(maxsize=None)
def _step_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # _gray_schedule(n) for _sector_permanents: per step, the row of
    # [columns; -columns] that updates the row sums (j when column j
    # enters, n + j when it leaves), and the sign of the subset's product
    # as (step, 1, 1) floats.
    steps = _gray_schedule(n)
    pick = np.array([j if add else n + j for j, add, _ in steps])
    sign = np.array([-1.0 if negate else 1.0 for _, _, negate in steps])
    return pick, sign[:, None, None]


class _Sector(NamedTuple):
    #: Each occupation of the sector, in ``sector_occupations`` order, with
    #: sqrt(prod n_i!) and its modes repeated n_i times.
    members: dict[tuple[int, ...], tuple[float, list[int]]]
    #: The repeated modes of every occupation, (occupation, photon).
    rows: np.ndarray


@lru_cache(maxsize=None)
def _sector(occupations: tuple[tuple[int, ...], ...]) -> _Sector:
    # Computed once per sector, like sector_occupations. Keyed by the
    # occupations themselves: apply asks sector_occupations for them on
    # every call, so a traced run counts the same calls whatever this
    # cache holds.
    members = {
        occ: (math.sqrt(_occupation_factorial(occ)), _repeat_modes(occ)) for occ in occupations
    }
    rows = [r for _, r in members.values()]
    return _Sector(members, np.array(rows, dtype=np.intp).reshape(len(rows), sum(occupations[0])))


def _sector_permanents(matrix: np.ndarray, rows: np.ndarray, cols: list[list[int]]):
    """per(matrix[r, c]) for every r in ``rows``, an (output, photon)
    array of repeated mode indices (a sector's ``_Sector.rows``), and every
    c in ``cols``, each a list of as many (>= 1) repeated mode indices, as
    rows of Python complexes: :func:`permanent_kernel` of each submatrix,
    bit for bit.

    No submatrix is gathered. A transition's row i sums the entries of
    mode row r_i over the input's columns in the current subset, so one
    running sum per mode row and input, updated per Gray-code step by
    +-column with ``cumsum`` (left to right from the previous block's
    last sums, ``0j`` before the first), gives every transition's row sums
    by picking rows: each with the kernel's additions in the kernel's
    order. Subtracting equals adding the negation in IEEE-754. Each
    product starts from ``1.0+0j`` and multiplies the picked row sums in
    row order with :class:`_Lanes`' ``*``, CPython's ``_Py_c_prod``. The
    total takes each signed product in step order the same way. Inputs
    and steps run in the groups and blocks of ``_STACK_CHUNK``.
    """
    n_out, photons = rows.shape
    pick, sign = _step_schedule(photons)
    group = max(1, _STACK_CHUNK // n_out)
    out = np.empty((n_out, len(cols)), dtype=complex)
    # Python's complex arithmetic never warns; inf - inf is NaN here too.
    with np.errstate(all="ignore"):
        for first in range(0, len(cols), group):
            # (column, mode row, input) entries, then their negations
            columns = matrix[:, np.array(cols[first : first + group])].transpose(2, 0, 1)
            signed = np.concatenate((columns, -columns))
            block = max(1, _STACK_CHUNK // (n_out * columns.shape[2]))
            sums, total = 0j, 0.0
            for start in range(0, len(pick), block):
                # (step, mode row, input) row sums of this block
                steps = signed[pick[start : start + block]]
                steps[0] += sums
                steps = steps.cumsum(axis=0)
                sums = steps[-1]
                # (step, output, row, input)
                picked = steps[:, rows]
                prod = _Lanes(1.0, 0.0)
                for i in range(photons):
                    row = picked[:, :, i]
                    prod = prod * _Lanes(row.real, row.imag)
                # (part, step, output, input); the sign scales the parts:
                # a complex product by (-1, 0) would turn an inf part
                # times 0.0 into NaN.
                terms = np.stack((prod.real, prod.imag)) * sign[start : start + block]
                terms[:, 0] += total
                total = terms.cumsum(axis=1)[:, -1]
            part = out[:, first : first + group]
            part.real, part.imag = total
    return out.tolist()


def _repeated_permanent(entries: list[list[complex]], rows: list[int], cols: list[int]) -> complex:
    # Permanent of zero to two photons with rows/cols given as repeated
    # mode indices, written out on ``entries``, a matrix's ``tolist()``:
    # building submatrices for them would dominate the hot path. Larger
    # sectors go to _sector_permanents, larger matrices to permanent_kernel.
    k = len(rows)
    if k == 0:
        return 1.0 + 0j
    if k == 1:
        return entries[rows[0]][cols[0]]
    r0, r1 = entries[rows[0]], entries[rows[1]]
    c0, c1 = cols
    return r0[c0] * r1[c1] + r0[c1] * r1[c0]


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

    Each sector's outputs, their sqrt(n!) factors and repeated modes are
    computed once per (photons, modes). A sector of three or more photons
    on two or more modes gets all its (output, input) permanents from
    :func:`_sector_permanents`, which shares the Ryser row sums of each
    input's subsets among all outputs and gives each permanent the scalar
    kernel's bits. The amplitudes are then summed per output over the
    inputs, in the state's order.
    """
    if u.dim != s.modes:
        raise ModeMismatch(f"unitary on {u.dim} modes, state on {s.modes}")
    by_sector: dict[int, list[tuple]] = {}
    for occ, amp in s.amps.items():
        by_sector.setdefault(sum(occ), []).append((occ, amp))

    entries = u.matrix.tolist()
    out: dict[tuple[int, ...], complex] = {}
    for photons, members in by_sector.items():
        sector = _sector(sector_occupations(photons, s.modes))
        outputs = sector.members
        cols = [outputs[occ][1] for occ, _ in members]
        weights = [amp / outputs[occ][0] for occ, amp in members]
        if photons < 3:
            pers = [[_repeated_permanent(entries, r, c) for c in cols] for _, r in outputs.values()]
        elif len(outputs) * len(cols) == 1:
            # A one-mode sector, whose matrix repeats the unitary's one
            # entry: a single scalar kernel call costs far less than one
            # pass of the sector kernel, with the same bits.
            pers = [[permanent_kernel(np.full((photons, photons), entries[0][0]))]]
        else:
            pers = _sector_permanents(u.matrix, sector.rows, cols)
        for (out_occ, (scale, _)), row in zip(outputs.items(), pers):
            acc = 0j
            for weighted_amp, per in zip(weights, row):
                acc += weighted_amp * per
            if acc != 0j:
                out[out_occ] = acc / scale
    return StateVector(s.modes, out)
