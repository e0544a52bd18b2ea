"""Two-stage circuit turning a pair of zero/one-photon superpositions into
a heralded single photon.

Stage 1 interferes the two inputs on a beam splitter Lambda and conditions
on zero photons at one output. The surviving mode then holds

    c0 |0> + c1 |1> + c2 |2>

with c0 = a1 a2, c1 = a2 b1 L00 + a1 b2 L01, c2 = sqrt(2) b1 b2 L00 L01,
writing (a_k, b_k) for the input amplitudes and L for the matrix of
``optics.beamsplitter``. Choosing Lambda so that c1 = 0 exactly removes the
single-photon term:

    tan(theta) e^{i phi} = -(a2 b1) / (a1 b2)

Stage 2 mixes the conditioned mode with vacuum on a second splitter
Lambda' and conditions on one photon at a detector. Because only |0> and
|2> remain, seeing exactly one photon forces the other output to hold
exactly one photon as well, so the heralded state is |1> with unit
fidelity whenever the detector can fire at all. The vacuum ancilla only
enters here: Lambda' takes it on its first mode and the conditioned mode
on its second, and the stage-2 detector watches the second output port;
watching the first gives identical statistics.

Conditional stage-2 success is 2 |c2n|^2 cos^2(theta2) sin^2(theta2) with
c2n the normalized two-photon amplitude, maximized by a 50/50 splitter.
The joint success probability reduces to |b1 b2|^2 sin^2(theta)
cos^2(theta), which is p^2/4 for identical inputs with one-photon
probability p.

The circuit runs on complex scalars from the inputs to the herald: one
straight-line private function per stage does the work of
``fock.tensor``, ``optics.apply``, ``measurement.condition`` and
``fock.normalize``. It forms only the products that can be nonzero and
skips those with an exact 0j, which can change only the sign of a zero
that the projection then clears, so every result is bit-identical to the
generic engine's. ``run_scheme`` and ``stage_two`` share the stage-2
function. Every amplitude passes ``StateVector``'s prune and finiteness
rule as a scalar (an ``InputState`` is already finite and of unit norm,
so no input vanishes), each splitter passes a scalar unitarity check,
and only the heralded output becomes a ``StateVector``. The generic
engine stays the reference the tests compare against.

Sweeps evaluate their pairs through ``_run_batch``, which reproduces
``run_scheme`` bit for bit on float64 numpy arrays, ``_BATCH_CHUNK``
pairs at a time. The rules that keep the bits:

* each complex operation is written as float64 ufuncs in CPython
  3.10-3.12's own order: ``_Py_c_prod`` for products and both Smith
  branches of ``_Py_c_quot``, chosen per lane, for quotients. A float
  operand is promoted to (x, 0.0) as CPython promotes it, the ``0j +``
  adds stay (they clear the sign of a zero), and ``abs`` is ``np.hypot``;
* atan, atan2, cos, sin and exp run per element through ``math`` and
  ``cmath``, whose results numpy's own versions do not reproduce;
* squares run per element as ``x ** 2``, libm's ``pow``, like
  ``fock._squared_norm``; numpy squares by multiplying, which glibc's
  ``pow`` does not always match;
* per-point branches (t1 == 0, t2 == 0, nothing heralded) become masks.

Every check of the scalar path (``_stored``'s finiteness and prune rule,
``check_unitary_2x2``, ``BeamSplitterParams``' ranges, the zero-norm
floor and ``fidelity``'s norm test) runs on the whole chunk with the
owning module's constant. A chunk with a failing pair re-runs its first
one through ``run_scheme``, which raises that pair's error. A single
pair stays on the scalar path, which costs far less than a batch of one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .errors import OutOfRange, PurityViolated
from .fock import (
    NORM_TOL,
    PRUNE_THRESHOLD,
    _ZERO_NORM_FLOOR,
    InputState,
    StateVector,
    _squared_norm,
    _stored,
    _unit_amplitudes,
    fidelity,
    fock_state,
)
from .optics import UNITARITY_TOL, BeamSplitterParams, beamsplitter_matrix

if TYPE_CHECKING:
    from fractions import Fraction

#: Residual single-photon amplitude allowed after cancellation.
CANCEL_TOL = 1e-10

# The stage-2 optimum for every c: a 50/50 splitter with phi2 = 0.
_STAGE_TWO_OPTIMUM = BeamSplitterParams(math.pi / 4, 0.0)
# Stage 2's fixed parts, built once and shared by every run: the 50/50
# matrix and the |1> target.
_STAGE_TWO_MATRIX = beamsplitter_matrix(_STAGE_TWO_OPTIMUM)
_ONE_PHOTON = fock_state((1,))
_SQRT2 = math.sqrt(2.0)
# The parts of that matrix _stage_two reads, as (real, imag) pairs for
# the batch: m11, and m01 * m11 + m01 * m11 formed as _stage_two forms it.
(_, _m01), (_, _m11) = _STAGE_TWO_MATRIX
_pair = _m01 * _m11 + _m01 * _m11
_STAGE_TWO_M11 = (_m11.real, _m11.imag)
_STAGE_TWO_PAIR = (_pair.real, _pair.imag)

#: Degenerate reason codes, reported in this order.
NO_PHOTON_PAIR = "no-photon-pair"
NO_VACUUM_AMPLITUDE = "no-vacuum-amplitude"
CANCELLATION_VACUOUS = "cancellation-vacuous"


@dataclass(frozen=True)
class StageOneCoefficients:
    """Unnormalized |0>, |1>, |2> amplitudes after the first detection."""

    c0: complex
    c1: complex
    c2: complex

    @property
    def norm_squared(self) -> float:
        return _squared_norm((self.c0, self.c1, self.c2))


@dataclass(frozen=True)
class SchemeResult:
    """Full-circuit outcome for one pair of inputs."""

    lambda1: BeamSplitterParams
    lambda2: BeamSplitterParams
    stage_one_probability: float
    stage_two_probability: float
    p_success: float
    output_fidelity: float
    degenerate: bool
    degenerate_reasons: tuple[str, ...]
    output_state: StateVector | None


def stage_one_coefficients(
    in1: InputState, in2: InputState, bs: BeamSplitterParams
) -> StageOneCoefficients:
    """Closed-form amplitudes left on the undetected stage-1 mode."""
    (m00, m01), _ = beamsplitter_matrix(bs)
    c0 = in1.alpha * in2.alpha
    c1 = in2.alpha * in1.beta * m00 + in1.alpha * in2.beta * m01
    c2 = math.sqrt(2.0) * in1.beta * in2.beta * m00 * m01
    return StageOneCoefficients(complex(c0), complex(c1), complex(c2))


def solve_cancellation(
    in1: InputState, in2: InputState
) -> tuple[BeamSplitterParams, bool]:
    """Beam splitter removing the stage-1 single-photon term.

    Solves tan(theta) e^{i phi} = -t1/t2 with t1 = a2 b1 and t2 = a1 b2,
    taking theta in [0, pi/2] and phi as the principal argument. When one
    term vanishes the equation degenerates to a pure theta condition; when
    both vanish any splitter cancels, so the identical-input limit
    (pi/4, pi) is returned and the vacuous flag is set.
    """
    t1 = in2.alpha * in1.beta
    t2 = in1.alpha * in2.beta
    if t1 == 0 and t2 == 0:
        return BeamSplitterParams(math.pi / 4, math.pi), True
    if t2 == 0:
        return BeamSplitterParams(math.pi / 2, 0.0), False
    if t1 == 0:
        return BeamSplitterParams(0.0, 0.0), False
    ratio = -t1 / t2
    return BeamSplitterParams(math.atan(abs(ratio)), cmath.phase(ratio)), False


def stage_two(
    c: StageOneCoefficients, bs2: BeamSplitterParams
) -> tuple[float, StateVector | None]:
    """Mix the conditioned mode with vacuum and herald on one photon.

    The vacuum ancilla enters Lambda' first, the normalized conditioned
    mode second, and the detector watches the conditioned mode's port.
    Returns the conditional success probability and the heralded state on
    the ancilla's port, or (0.0, None) when no amplitude survives pruning
    and the detector can never fire. The purity precondition
    |c1| <= CANCEL_TOL is enforced; past it the residual c1 is dropped, so
    the heralded state is exactly |1>.
    """
    if abs(c.c1) > CANCEL_TOL:
        raise PurityViolated(
            f"|c1| = {abs(c.c1):.3e} exceeds {CANCEL_TOL:.0e}; cancel first"
        )
    _, c_amps = _normalized((complex(c.c0), 0j, complex(c.c2)))
    if c_amps is None:
        return 0.0, None
    return _stage_two(c_amps, beamsplitter_matrix(bs2))


def _normalized(amps) -> tuple[float, list[complex] | None]:
    # normalize(StateVector(1, amps)) on scalars: (squared norm, unit-norm
    # amplitudes with 0j where StateVector stores none), or (0.0, None)
    # when no amplitude survives pruning.
    kept = [_stored(z) for z in amps]
    if not any(kept):
        return 0.0, None
    scaled, n2 = _unit_amplitudes(kept)
    return n2, scaled


def _stage_one(in1: InputState, in2: InputState, m) -> tuple[float, list[complex] | None]:
    """``tensor``, ``apply`` (U's rows ``m``) and ``condition`` on no photon
    at mode 1, on scalars: (probability, the normalized (|0>, |1>, |2>)
    amplitudes of mode 0, or None).

    Bit-identical to that route although it skips the products with the
    second input's |2> amplitude, an exact 0j: each skipped term can change
    only the sign of a zero, and the projection's ``0j +`` clears that sign
    before pruning.
    """
    # tensor: StateVector drops the small inputs and products.
    a0, a1, b0, b1 = [_stored(z) for z in (in1.alpha, in1.beta, in2.alpha, in2.beta)]
    e00, e01, e10, e11 = [_stored(z) for z in (a0 * b0, a0 * b1, a1 * b0, a1 * b1)]
    (m00, m01), _ = m
    # apply: the two-photon permanent written out, weighted by 1/sqrt(2!).
    out = (e00, e01 * m01 + e10 * m00, e11 * (m00 * m01 + m01 * m00) / _SQRT2)
    return _normalized([0j + z for z in out])


def _stage_two(amps, m) -> tuple[float, StateVector | None]:
    """``tensor`` of the vacuum ancilla (mode 0) with the normalized mode
    ``amps`` (mode 1), ``apply`` (U's rows ``m``) and ``condition`` on one
    photon at mode 1, on scalars: (probability, heralded state or None).

    Bit-identical to that route although it skips the products with the
    ancilla's |1> amplitude, an exact 0j, and the factor of its unit |0>
    amplitude: each changes only the sign of a zero, and the projection's
    ``0j +`` clears that sign before pruning. ``amps``' |0> cannot reach
    one photon at mode 1.
    """
    _, r1, r2 = amps
    (_, m01), (_, m11) = m
    out = (r1 * m11, r2 / _SQRT2 * (m01 * m11 + m01 * m11))
    p, scaled = _normalized([0j + z for z in out])
    if scaled is None:
        return p, None
    return p, StateVector(1, {(n,): z for n, z in enumerate(scaled) if z})


def _degenerate_reasons(
    in1: InputState, in2: InputState, vacuous: bool
) -> tuple[str, ...]:
    reasons = []
    if in1.beta * in2.beta == 0:
        reasons.append(NO_PHOTON_PAIR)
    if in1.alpha * in2.alpha == 0:
        reasons.append(NO_VACUUM_AMPLITUDE)
    if vacuous:
        reasons.append(CANCELLATION_VACUOUS)
    return tuple(reasons)


def run_scheme(in1: InputState, in2: InputState) -> SchemeResult:
    """Solve the cancellation splitter and simulate the whole circuit.

    Mode layout: stage 1 runs on two modes, 0 and 1 carrying the inputs.
    Lambda acts on (0, 1) and the stage-1 detector watches mode 1 for zero
    photons. Stage 2 then puts the vacuum ancilla on mode 0 and the
    conditioned mode on mode 1; Lambda' acts on that pair and the stage-2
    detector watches mode 1 for one photon. No state holds more than two
    photons, so each stage is one function on complex scalars (see the
    module docstring) rather than the generic ``tensor``, ``apply``,
    ``condition`` and ``normalize`` route; it forms fewer products than
    that route but reproduces its results bit for bit. Only the heralded
    output is built as a ``StateVector``.
    p_success is the joint probability of both outcomes.

    Lambda' is the analytic optimum, a 50/50 splitter; for any other
    Lambda' use ``stage_two(stage_one_coefficients(in1, in2, lambda1),
    bs2)``. Degenerate inputs never raise; they come back flagged with
    honestly computed probabilities.
    """
    params, vacuous = solve_cancellation(in1, in2)
    reasons = _degenerate_reasons(in1, in2, vacuous)

    p1, amps1 = _stage_one(in1, in2, beamsplitter_matrix(params))
    if amps1 is None:
        p2, state = 0.0, None
    else:
        p2, state = _stage_two(amps1, _STAGE_TWO_MATRIX)
    fid = 0.0 if state is None else fidelity(state, _ONE_PHOTON)
    return SchemeResult(
        lambda1=params,
        lambda2=_STAGE_TWO_OPTIMUM,
        stage_one_probability=p1,
        stage_two_probability=p2,
        p_success=p1 * p2,
        output_fidelity=fid,
        degenerate=bool(reasons),
        degenerate_reasons=reasons,
        output_state=state,
    )


#: Pairs per vectorized pass of ``_run_batch``; bounds its temporaries.
_BATCH_CHUNK = 2048

# Degenerate reasons by bit code: 1 no photon pair, 2 no vacuum amplitude,
# 4 vacuous cancellation, in _degenerate_reasons' order.
_REASONS_BY_CODE = tuple(
    tuple(
        reason
        for bit, reason in ((1, NO_PHOTON_PAIR), (2, NO_VACUUM_AMPLITUDE), (4, CANCELLATION_VACUOUS))
        if code & bit
    )
    for code in range(8)
)


class _BatchColumns(NamedTuple):
    """``SchemeResult``'s scalar fields for a chunk of pairs, as float64
    arrays in pair order (theta and phi are ``lambda1``'s); the degenerate
    reasons are held as bit codes of ``_REASONS_BY_CODE``."""

    theta: np.ndarray
    phi: np.ndarray
    stage_one_probability: np.ndarray
    stage_two_probability: np.ndarray
    p_success: np.ndarray
    output_fidelity: np.ndarray
    reason_codes: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        return self.reason_codes != 0

    def degenerate_reasons(self) -> list[tuple[str, ...]]:
        return [_REASONS_BY_CODE[k] for k in self.reason_codes.tolist()]


def _run_batch(states, index) -> Iterator[_BatchColumns]:
    """``run_scheme`` over many pairs of inputs, bit for bit.

    ``states`` is a sequence of ``InputState``; row k of the integer array
    ``index`` (shape (n, 2)) names pair k, ``(states[index[k, 0]],
    states[index[k, 1]])``. Pairs are evaluated ``_BATCH_CHUNK`` at a time
    on float64 arrays (the module docstring gives the rules that keep the
    bits), and each chunk yields its results, whose ``tolist()`` values
    equal ``run_scheme``'s fields by ``repr``. Every check of the scalar
    path runs on the whole chunk; when one fails, the chunk's first
    failing pair goes through ``run_scheme``, which raises that pair's
    error, so each message is written once.
    """
    amps = np.array([(s.alpha, s.beta) for s in states], dtype=complex).reshape(-1, 2)
    parts = amps.view(float).T.copy()
    for start in range(0, len(index), _BATCH_CHUNK):
        rows = index[start : start + _BATCH_CHUNK]
        with np.errstate(all="ignore"):
            columns, failed = _batch_chunk(parts[:, rows[:, 0]], parts[:, rows[:, 1]])
        if failed.any():
            i, j = rows[int(np.argmax(failed))].tolist()
            run_scheme(states[i], states[j])
            raise RuntimeError("a batch check failed on a pair that run_scheme accepts")
        yield columns


def _grid_index(n_p1: int, n_p2: int, n_h1: int, n_h2: int, second: int = 0) -> np.ndarray:
    """``_run_batch``'s index for the (p1, p2, phase1, phase2) grid in
    row-major order, with each side's inputs listed p-major by (p, phase):
    side 1's from position 0, side 2's from position ``second``."""
    i1, i2, j1, j2 = np.indices((n_p1, n_p2, n_h1, n_h2)).reshape(4, -1)
    return np.column_stack((i1 * n_h1 + j1, second + i2 * n_h2 + j2))


# Complex arithmetic on (real, imag) pairs of float64 arrays or floats, in
# CPython 3.10-3.12's order; a float operand of a complex operation is
# written as (x, 0.0), as CPython promotes it.


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _mul(a, b):
    # _Py_c_prod
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _div(a, b):
    # _Py_c_quot: Smith's method, scaling by the larger part of b. Both
    # branches are evaluated and each lane keeps its own.
    (ar, ai), (br, bi) = a, np.asarray(b, dtype=float)
    by_real = np.abs(br) >= np.abs(bi)
    ratio = bi / br
    denom = br + bi * ratio
    real = np.where(by_real, (ar + ai * ratio) / denom, 0.0)
    imag = np.where(by_real, (ai - ar * ratio) / denom, 0.0)
    ratio = br / bi
    denom = br * ratio + bi
    real = np.where(by_real, real, (ar * ratio + ai) / denom)
    imag = np.where(by_real, imag, (ai * ratio - ar) / denom)
    return real, imag


def _abs(a):
    # _Py_c_abs, where the parts are finite and the result does not
    # overflow (abs raises otherwise).
    return np.hypot(a[0], a[1])


def _per_element(fn, *args: np.ndarray) -> np.ndarray:
    # fn, a math or cmath function, on each element through Python floats.
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, len(args[0]))


def _squares(x: np.ndarray) -> np.ndarray:
    # ``x ** 2`` per element, libm's pow as in _squared_norm; a zero stays
    # 0.0 without the call.
    out = np.zeros_like(x)
    nonzero = x != 0
    out[nonzero] = [v**2 for v in x[nonzero].tolist()]
    return out


def _stored_v(z, failed, lanes=True):
    """``fock._stored`` on the lanes the scalar path reaches: flags a
    non-finite value there in ``failed``, and returns (the stored value,
    its abs), both 0.0 where it is pruned or outside ``lanes``."""
    # hypot is not finite exactly where a part is not, or where abs(z)
    # would overflow; _stored raises in both cases.
    re, im = z
    h = _abs(z)
    failed |= lanes & ~np.isfinite(h)
    keep = lanes & (h >= PRUNE_THRESHOLD)
    return (np.where(keep, re, 0.0), np.where(keep, im, 0.0)), np.where(keep, h, 0.0)


def _normalized_v(amps, failed, lanes=True):
    """``_normalized`` on the lanes the scalar path reaches, applied to the
    ``0j +`` of each amplitude: (lanes where an amplitude survives, the
    squared norm or 0.0, each unit amplitude as (value, abs))."""
    kept = [_stored_v(_add((0.0, 0.0), z), failed, lanes) for z in amps]
    alive = np.logical_or.reduce([h != 0 for _, h in kept])
    n2 = 0.0
    for _, h in kept:
        n2 = n2 + _squares(h)
    failed |= alive & (n2 <= _ZERO_NORM_FLOOR)
    scale = (1.0 / np.sqrt(n2), 0.0)
    scaled = [_stored_v(_mul(z, scale), failed, alive) for z, _ in kept]
    return alive, np.where(alive, n2, 0.0), scaled


def _unitarity_failures(m) -> np.ndarray:
    # check_unitary_2x2 per lane: True where an entry of U^dag U - I
    # exceeds UNITARITY_TOL or is NaN.
    (a, b), (c, d) = m
    ac, bc, cc, dc = [(re, -im) for re, im in (a, b, c, d)]
    one = (1.0, 0.0)
    defects = (
        _abs(_sub(_add(_mul(ac, a), _mul(cc, c)), one)),
        _abs(_add(_mul(ac, b), _mul(cc, d))),
        _abs(_add(_mul(bc, a), _mul(dc, c))),
        _abs(_sub(_add(_mul(bc, b), _mul(dc, d)), one)),
    )
    return np.logical_or.reduce([~(x <= UNITARITY_TOL) for x in defects])


def _is_zero(z) -> np.ndarray:
    return (z[0] == 0) & (z[1] == 0)


def _batch_chunk(first, second):
    """One vectorized pass of ``run_scheme``: ``first`` and ``second`` hold
    each pair's (alpha.real, alpha.imag, beta.real, beta.imag) as rows.
    Returns (the result columns ``_run_batch`` yields, a mask of the pairs
    whose scalar run raises). Each step is a function of its own, as on
    the scalar path, so that its temporaries are freed when it returns."""
    alpha1, beta1 = (first[0], first[1]), (first[2], first[3])
    alpha2, beta2 = (second[0], second[1]), (second[2], second[3])
    failed = np.zeros(first.shape[1], dtype=bool)
    theta, phi, vacuous = _solve_cancellation_v(alpha1, beta1, alpha2, beta2, failed)
    m00, m01 = _splitter_v(theta, phi, failed)
    alive1, p1, r1, r2 = _stage_one_v(alpha1, beta1, alpha2, beta2, m00, m01, failed)
    p2, fid = _stage_two_v(r1, r2, alive1, failed)
    codes = _is_zero(_mul(beta1, beta2)) * 1 + _is_zero(_mul(alpha1, alpha2)) * 2 + vacuous * 4
    return _BatchColumns(theta, phi, p1, p2, p1 * p2, fid, codes), failed


def _solve_cancellation_v(alpha1, beta1, alpha2, beta2, failed):
    # solve_cancellation and BeamSplitterParams' ranges: (theta, phi,
    # vacuous).
    t1, t2 = _mul(alpha2, beta1), _mul(alpha1, beta2)
    t1_zero, t2_zero = _is_zero(t1), _is_zero(t2)
    vacuous = t1_zero & t2_zero
    solved = ~(t1_zero | t2_zero)
    ratio = _div((-t1[0], -t1[1]), t2)
    size = _abs(ratio)
    # abs(ratio) raises OverflowError where finite parts overflow.
    failed |= solved & np.isfinite(ratio[0]) & np.isfinite(ratio[1]) & np.isinf(size)
    theta = np.where(
        solved,
        _per_element(math.atan, size),
        np.where(vacuous, math.pi / 4, np.where(t2_zero, math.pi / 2, 0.0)),
    )
    phi = np.where(solved, _per_element(math.atan2, ratio[1], ratio[0]), np.where(vacuous, math.pi, 0.0))
    failed |= ~((theta >= 0.0) & (theta <= math.pi / 2)) | ~((phi >= -math.pi) & (phi <= math.pi))
    return theta, phi, vacuous


def _splitter_v(theta, phi, failed):
    # beamsplitter_matrix (_splitter_entries and check_unitary_2x2): the
    # first row, (m00, m01); m11 is m00.
    c = (_per_element(math.cos, theta), 0.0)
    s = _per_element(math.sin, theta)
    ph = np.fromiter(map(cmath.exp, [1j * x for x in phi.tolist()]), complex, len(phi))
    ph = (ph.real, ph.imag)
    m01, m10 = _mul(ph, (s, 0.0)), _div((-s, 0.0), ph)
    failed |= _unitarity_failures(((c, m01), (m10, c)))
    return c, m01


def _stage_one_v(alpha1, beta1, alpha2, beta2, m00, m01, failed):
    # _stage_one: (heralding lanes, probability, unit |1> and |2>
    # amplitudes).
    a0, a1, b0, b1 = [_stored_v(z, failed)[0] for z in (alpha1, beta1, alpha2, beta2)]
    e00, e01, e10, e11 = [_stored_v(_mul(x, y), failed)[0] for x, y in ((a0, b0), (a0, b1), (a1, b0), (a1, b1))]
    pair = _add(_mul(m00, m01), _mul(m01, m00))
    out = (e00, _add(_mul(e01, m01), _mul(e10, m00)), _div(_mul(e11, pair), (_SQRT2, 0.0)))
    alive, p, (_, (r1, _), (r2, _)) = _normalized_v(out, failed)
    return alive, p, r1, r2


def _stage_two_v(r1, r2, lanes, failed):
    # _stage_two and fidelity(state, |1>) on the lanes where stage 1
    # heralds: (probability, fidelity).
    out = (_mul(r1, _STAGE_TWO_M11), _mul(_div(r2, (_SQRT2, 0.0)), _STAGE_TWO_PAIR))
    alive, p, ((_, h0), (_, h1)) = _normalized_v(out, failed, lanes)
    # The state keeps the nonzero amplitudes, and a pruned one adds an
    # exact 0.0 to its squared norm; |1>'s is 1.0. |<1|state>| is the |1>
    # amplitude's abs: conj(z) * (1+0j) and 0j + change at most the sign
    # of a zero part, which hypot ignores.
    sq0, sq1 = _squares(h0), _squares(h1)
    na2 = 0.0 + sq0 + sq1
    failed |= alive & (np.abs(na2 - 1.0) > NORM_TOL)
    return p, np.where(alive, sq1 / na2, 0.0)


def closed_form_success(in1: InputState, in2: InputState) -> float:
    """Analytic joint success |b1 b2|^2 sin^2(theta) cos^2(theta).

    Uses the solved cancellation angle, so it agrees with run_scheme in
    the degenerate corners too. Validated against the simulation by the
    acceptance suite before being trusted anywhere else.
    """
    params, _ = solve_cancellation(in1, in2)
    s = math.sin(params.theta)
    c = math.cos(params.theta)
    return abs(in1.beta * in2.beta) ** 2 * (s * c) ** 2


def exact_success(p1: float, p2: float) -> Fraction:
    """The exact joint success for inputs of one-photon probabilities p1
    and p2, whatever their phases: the oracle that ``run_scheme`` and
    ``closed_form_success`` are measured against.

    With x = p1 (1 - p2) and y = p2 (1 - p1), sin^2 cos^2 of the
    cancellation angle is x y / (x + y)^2, so P = p1 p2 x y / (x + y)^2.
    Where x = y = 0, ``solve_cancellation`` returns theta = pi/4 and
    P = p1 p2 / 4. Evaluated in rationals on the exact binary values of
    p1 and p2, so a float route's error against it includes the rounding
    of its inputs' amplitudes, sqrt(1 - p) and sqrt(p).
    """
    # Imported here: no run path needs the oracle, and importing fractions
    # (with decimal and numbers) adds about 3 ms to every start-up.
    from fractions import Fraction

    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise OutOfRange(f"{name} must lie in [0, 1], got {p!r}")
    p1, p2 = Fraction(p1), Fraction(p2)
    x, y = p1 * (1 - p2), p2 * (1 - p1)
    if x + y == 0:
        return p1 * p2 / 4
    return p1 * p2 * x * y / (x + y) ** 2


def success_curve_new(p: float) -> float:
    """Joint success for identical inputs at one-photon probability p."""
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    return p * p / 4.0


def success_curve_old(p: float) -> float:
    """Success of the earlier three-splitter proposal, for comparison.

    Quoted as the source paper reports it, not derived here: this package
    does not simulate that circuit.
    """
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    return 16.0 * p**3 / 81.0
