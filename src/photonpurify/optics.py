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
and writes the zero- to two-photon permanents out on those scalars. For
a sector of k >= 3 photons it gathers the k x k submatrix of every
(output, input) transition with one fancy index, ``_STACK_CHUNK``
transitions at a time, and evaluates the stack in one vectorized pass of
``_ryser_stack``. That pass walks the same Gray-code schedule as the
scalar :func:`permanent_kernel`, on float64 arrays with CPython
3.10-3.12's complex arithmetic (:class:`_Lanes`, which ``scheme``'s
sweep batch runs on too), so each permanent equals the kernel's bit for
bit. :func:`permanent` on a single matrix, and ``apply`` on a sector
with a single transition, keep the scalar kernel, which reads the matrix
once with ``tolist``; a stack of one costs far more.
The scheme calls neither ``apply`` nor ``beamsplitter``: its states hold
at most two photons, and its stages take each splitter's entries and
unitarity defects from the helpers behind :func:`beamsplitter_matrix`,
on scalars and on the sweep's lanes. ``beamsplitter`` and ``apply`` are
the general engine that the scheme's tests compare against and that
``verify`` checks; only those oracle checks reach the permanents.
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


def _splitter_formula(c, s, ph) -> Matrix2:
    # The splitter's entries from cos(theta) as a complex, sin(theta) and
    # e^{i phi}: written once for both forms below and for the sweep
    # batch's lanes in ``scheme``.
    return ((c, ph * s), (-s / ph, c))


def _splitter_entries(params: BeamSplitterParams) -> Matrix2:
    theta, phi = params.theta, params.phi
    return _splitter_formula(complex(math.cos(theta)), math.sin(theta), cmath.exp(1j * phi))


def _unitarity_defects(m) -> tuple:
    # |U^dag U - I| entry by entry, for a 2x2 matrix of nested rows of
    # complex scalars or of the sweep batch's lanes.
    (a, b), (c, d) = m
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return (
        abs(ac * a + cc * c - 1.0),
        abs(ac * b + cc * d),
        abs(bc * a + dc * c),
        abs(bc * b + dc * d - 1.0),
    )


def check_unitary_2x2(m: Matrix2) -> None:
    """Raise NotUnitary unless every entry of U^dag U - I is within
    UNITARITY_TOL, for a 2x2 matrix given as nested rows of scalars.

    The scalar counterpart of ``InterferometerUnitary``'s check, with the
    same tolerance; an entry that is NaN fails.
    """
    for defect in _unitarity_defects(m):
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
        return _repeated_permanent(arr.tolist(), list(range(n)), list(range(n)))
    return permanent_kernel(arr)


class _Lanes:
    """One complex number per lane of a batch, held as float64 arrays (or
    floats) of real and imaginary parts: the complex arithmetic of
    ``scheme``'s sweep batch and of :func:`_ryser_stack`.

    ``+ - * /``, unary minus, ``abs``, ``conjugate`` and ``==`` give every
    lane the bits that CPython 3.10-3.12 gives the same operation on
    complexes: ``_Py_c_prod`` for products, and both Smith branches of
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

    def __sub__(self, other):
        return _Lanes(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return _Lanes(other.real - self.real, other.imag - self.imag)

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

    def conjugate(self):
        return _Lanes(self.real, -self.imag)

    def __eq__(self, other):
        return (self.real == other.real) & (self.imag == other.imag)

    def where(self, keep) -> _Lanes:
        """The lanes where ``keep``, 0.0 elsewhere."""
        return _Lanes(np.where(keep, self.real, 0.0), np.where(keep, self.imag, 0.0))


#: Transitions per pass of ``_ryser_stack``, and Gray-code steps times
#: transitions per block inside it. Every temporary of a pass then holds
#: at most 2 x _STACK_CHUNK x k x k complex entries, whatever the sector
#: size.
_STACK_CHUNK = 4096


@lru_cache(maxsize=None)
def _stack_schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # _gray_schedule(n) for _ryser_stack: per step, the row of
    # [columns; -columns] that updates the row sums (j when column j
    # enters, n + j when it leaves), and the sign of the subset's product
    # as (step, 1) floats.
    steps = _gray_schedule(n)
    pick = np.array([j if add else n + j for j, add, _ in steps])
    sign = np.array([-1.0 if negate else 1.0 for _, _, negate in steps])
    return pick, sign[:, None]


def _ryser_stack(mats: np.ndarray) -> np.ndarray:
    """:func:`permanent_kernel` of each matrix in a (b, k, k) complex
    stack (k >= 1), bit for bit.

    The Gray-code steps run on all b matrices at once, in blocks of
    ``_STACK_CHUNK // b`` steps. A step's row sums are a running sum over
    the steps of +-column, and ``np.cumsum`` adds left to right from the
    previous block's last sums (``0j`` before the first), so each sum is
    the kernel's ``+=`` / ``-=``; subtracting equals adding the negation in
    IEEE-754. Each product starts from ``1.0+0j`` and multiplies by the row
    sums left to right with :class:`_Lanes`' ``*``, CPython's
    ``_Py_c_prod``. The total takes each signed product in step order the
    same way.
    """
    b, k = mats.shape[0], mats.shape[1]
    cols = mats.transpose(2, 1, 0)
    signed = np.concatenate((cols, -cols))
    pick, sign = _stack_schedule(k)
    block = max(1, _STACK_CHUNK // b)
    sums = np.zeros((k, b), dtype=complex)
    total_re = total_im = 0.0
    # Python's complex arithmetic never warns; inf - inf is NaN here too.
    with np.errstate(all="ignore"):
        for start in range(0, len(pick), block):
            # (step, row, matrix) row sums of this block
            steps = signed[pick[start : start + block]]
            steps[0] += sums
            steps = np.cumsum(steps, axis=0)
            sums = steps[-1]
            re, im = steps.real, steps.imag
            prod = _Lanes(1.0, 0.0)
            for i in range(k):
                prod = prod * _Lanes(re[:, i], im[:, i])
            # The sign scales the parts: a complex product by (-1, 0)
            # would turn an inf part times 0.0 into NaN.
            signs = sign[start : start + block]
            pr, pi = prod.real * signs, prod.imag * signs
            pr[0] += total_re
            pi[0] += total_im
            total_re = np.cumsum(pr, axis=0)[-1]
            total_im = np.cumsum(pi, axis=0)[-1]
    out = np.empty(b, dtype=complex)
    out.real, out.imag = total_re, total_im
    return out


def _transition_permanents(matrix: np.ndarray, rows: list[list[int]], cols: list[list[int]]):
    # per(matrix[r, c]) for each r in rows, then each c in cols, as Python
    # complexes: _STACK_CHUNK submatrices gathered by one fancy index per
    # pass of _ryser_stack. A single transition (a one-mode sector) goes to
    # permanent_kernel, whose bits are the same: a stack of one costs far
    # more than one scalar call.
    n_in = len(cols)
    n = len(rows) * n_in
    if n == 1:
        yield permanent_kernel(matrix[np.ix_(rows[0], cols[0])])
        return
    rows_arr, cols_arr = np.array(rows), np.array(cols)
    for start in range(0, n, _STACK_CHUNK):
        pair = np.arange(start, min(start + _STACK_CHUNK, n))
        r, c = rows_arr[pair // n_in], cols_arr[pair % n_in]
        yield from _ryser_stack(matrix[r[:, :, None], c[:, None, :]]).tolist()


def _repeated_permanent(entries: list[list[complex]], rows: list[int], cols: list[int]) -> complex:
    # Permanent of zero to two photons with rows/cols given as repeated
    # mode indices, written out on ``entries``, a matrix's ``tolist()``:
    # building submatrices for them would dominate the hot path. Larger
    # transitions go to _ryser_stack, larger matrices to permanent_kernel.
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
    """
    if u.dim != s.modes:
        raise ModeMismatch(f"unitary on {u.dim} modes, state on {s.modes}")
    by_sector: dict[int, list[tuple]] = {}
    for occ, amp in s.amps.items():
        by_sector.setdefault(sum(occ), []).append((occ, amp))

    entries = u.matrix.tolist()
    out: dict[tuple[int, ...], complex] = {}
    for photons, members in by_sector.items():
        outputs = sector_occupations(photons, s.modes)
        rows = [_repeat_modes(occ) for occ in outputs]
        cols = [_repeat_modes(occ) for occ, _ in members]
        weights = [amp / math.sqrt(_occupation_factorial(occ)) for occ, amp in members]
        if photons < 3:
            pers = (_repeated_permanent(entries, r, c) for r in rows for c in cols)
        else:
            pers = _transition_permanents(u.matrix, rows, cols)
        for out_occ in outputs:
            acc = 0j
            for weighted_amp in weights:
                acc += weighted_amp * next(pers)
            if acc != 0j:
                out[out_occ] = acc / math.sqrt(_occupation_factorial(out_occ))
    return StateVector(s.modes, out)
