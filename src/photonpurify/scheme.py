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

Each stage is written once, as plain Python operators, in ``_stage_one``
and ``_stage_two``: one straight-line function doing the work of
``fock.tensor``, ``optics.apply``, ``measurement.condition`` and
``fock.normalize``. It forms only the products that can be nonzero and
skips those with an exact 0j, which can change only the sign of a zero
that the projection then clears, so every result is bit-identical to the
generic engine's, the reference the tests compare against.

``run_scheme`` and ``stage_two`` run the stages on complex scalars, and
only the heralded output becomes a ``StateVector``. Sweeps run them
through ``_run_batch``, ``_BATCH_CHUNK`` pairs at a time, on
``optics._Lanes``: one complex per pair, held as float64 arrays of
parts. The lane rules that keep ``run_scheme``'s bits:

* ``_Lanes`` does complex arithmetic in CPython 3.10-3.12's order;
* atan, atan2, cos, sin and exp run per element through Python floats,
  since numpy's own versions do not always give libm's bits; squares are
  ``h * h``, one IEEE-754 multiply on either;
* per-pair branches (t1 == 0, t2 == 0) become masks, and a squared norm
  of 0.0, where nothing survives, divides as ``n2 + (n2 == 0.0)`` on both.

A rules object holds what a scalar run raises on and a batch flags per
lane: ``_ScalarRules`` raises, ``_LaneRules`` sets its ``failed`` mask.
Both prune through ``fock._stored``, square through ``fock._squared_norm``
and normalize with ``fock._normalized``, as ``fock.normalize`` and
``measurement.condition`` do; the lanes pass its hooks their masks and
numpy's sqrt. The lanes also check the splitter's ranges and its
unitarity through ``optics``' own defects.
Every constant is read from its owning module when it is used. A chunk
with a failing pair re-runs its first one through ``run_scheme``, which
raises that pair's error. A single pair stays on the scalar path, which
costs far less than a batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from . import optics
from .errors import OutOfRange, PurityViolated
from .fock import InputState, StateVector, _normalized, _squared_norm, _stored
from .optics import BeamSplitterParams, _Lanes, _splitter_formula, _unitarity_defects, beamsplitter_matrix

if TYPE_CHECKING:
    from fractions import Fraction

#: Residual single-photon amplitude allowed after cancellation.
CANCEL_TOL = 1e-10

# The stage-2 optimum for every c: a 50/50 splitter with phi2 = 0.
_STAGE_TWO_OPTIMUM = BeamSplitterParams(math.pi / 4, 0.0)
# Stage 2's fixed 50/50 matrix, built once and shared by every run.
_STAGE_TWO_MATRIX = beamsplitter_matrix(_STAGE_TWO_OPTIMUM)
_SQRT2 = math.sqrt(2.0)

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
    try:
        size = abs(ratio)
    except OverflowError:  # finite parts, modulus past the float range
        size = math.inf
    return BeamSplitterParams(math.atan(size), cmath.phase(ratio)), False


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
    alive, _, amps = _normalized((complex(c.c0), 0j, complex(c.c2)))
    if not alive:
        return 0.0, None
    heralded, p, amps = _stage_two(_ScalarRules, amps, beamsplitter_matrix(bs2))
    return p, _herald(amps) if heralded else None


def _stage_one(rules, alpha1, beta1, alpha2, beta2, m):
    """``tensor`` of the inputs, ``apply`` (U's rows ``m``) and
    ``condition`` on no photon at mode 1: ``rules.normalized`` of mode 0's
    (|0>, |1>, |2>) amplitudes, that is (alive, probability, unit
    amplitudes).

    Bit-identical to that route although it skips the products with the
    second input's |2> amplitude, an exact 0j: each skipped term can change
    only the sign of a zero, and the projection's ``0j +`` clears that sign
    before pruning.
    """
    stored = rules.stored
    # tensor: StateVector drops the small inputs and products.
    a0, a1, b0, b1 = stored(alpha1), stored(beta1), stored(alpha2), stored(beta2)
    e00, e01, e10, e11 = stored(a0 * b0), stored(a0 * b1), stored(a1 * b0), stored(a1 * b1)
    (m00, m01), _ = m
    # apply: the two-photon permanent written out, weighted by 1/sqrt(2!).
    c1 = e01 * m01 + e10 * m00
    c2 = e11 * (m00 * m01 + m01 * m00) / _SQRT2
    return rules.normalized((0j + e00, 0j + c1, 0j + c2))


def _stage_two(rules, amps, m):
    """``tensor`` of the vacuum ancilla (mode 0) with the normalized mode
    ``amps`` (mode 1), ``apply`` (U's rows ``m``) and ``condition`` on one
    photon at mode 1: ``rules.normalized`` of mode 0's (|0>, |1>)
    amplitudes.

    Bit-identical to that route although it skips the products with the
    ancilla's |1> amplitude, an exact 0j, and the factor of its unit |0>
    amplitude: each changes only the sign of a zero, and the projection's
    ``0j +`` clears that sign before pruning. ``amps``' |0> cannot reach
    one photon at mode 1.
    """
    _, r1, r2 = amps
    (_, m01), (_, m11) = m
    return rules.normalized((0j + r1 * m11, 0j + r2 / _SQRT2 * (m01 * m11 + m01 * m11)))


def _fidelity(rules, amps):
    """``fidelity`` to |1> of the state heralded with stage 2's unit
    amplitudes (r0, r1), 0.0 where none is: |r1|^2 / (0.0 + |r0|^2 +
    |r1|^2), that route's bits, since |1>'s squared norm is 1.0 and
    conj(r1) * (1+0j) changes at most the sign of a zero part of r1.
    Nothing is heralded exactly where that squared norm is 0.0, and there
    |r1|^2 = 0.0 is divided by 1.0."""
    h = abs(amps[1])
    n2 = _squared_norm(amps, rules.fail)
    return h * h / (n2 + (n2 == 0.0))


def _reason_code(alpha1, beta1, alpha2, beta2, vacuous):
    # The degenerate reasons as a bit code into _REASONS_BY_CODE: 1 no
    # photon pair, 2 no vacuum amplitude, 4 vacuous cancellation.
    return (beta1 * beta2 == 0) + (alpha1 * alpha2 == 0) * 2 + vacuous * 4


_REASONS = (NO_PHOTON_PAIR, NO_VACUUM_AMPLITUDE, CANCELLATION_VACUOUS)
_REASONS_BY_CODE = tuple(
    tuple(reason for bit, reason in enumerate(_REASONS) if code >> bit & 1) for code in range(8)
)


class _ScalarRules:
    """The stages' rules on complex scalars: a failed check raises."""

    stored = staticmethod(_stored)
    normalized = staticmethod(_normalized)
    # _squared_norm's overflow hook: none, so an overflow raises.
    fail = None


def _herald(amps) -> StateVector:
    # The heralded state of stage 2's unit amplitudes.
    return StateVector(1, {(n,): z for n, z in enumerate(amps) if z})


def run_scheme(in1: InputState, in2: InputState) -> SchemeResult:
    """Solve the cancellation splitter and simulate the whole circuit.

    Mode layout: stage 1 runs on two modes, 0 and 1 carrying the inputs.
    Lambda acts on (0, 1) and the stage-1 detector watches mode 1 for zero
    photons. Stage 2 then puts the vacuum ancilla on mode 0 and the
    conditioned mode on mode 1; Lambda' acts on that pair and the stage-2
    detector watches mode 1 for one photon. No state holds more than two
    photons, so each stage is one straight-line function (see the module
    docstring), bit-identical to the generic ``tensor``, ``apply``,
    ``condition`` and ``normalize`` route. p_success is the joint
    probability of both outcomes.

    Lambda' is the analytic optimum, a 50/50 splitter; for any other
    Lambda' use ``stage_two(stage_one_coefficients(in1, in2, lambda1),
    bs2)``. Degenerate inputs never raise; they come back flagged with
    honestly computed probabilities.
    """
    params, vacuous = solve_cancellation(in1, in2)
    a1, b1, a2, b2 = in1.alpha, in1.beta, in2.alpha, in2.beta
    reasons = _REASONS_BY_CODE[_reason_code(a1, b1, a2, b2, vacuous)]
    # A stage 1 that heralds nothing leaves zeros, which herald nothing.
    _, p1, amps = _stage_one(_ScalarRules, a1, b1, a2, b2, beamsplitter_matrix(params))
    heralded, p2, amps = _stage_two(_ScalarRules, amps, _STAGE_TWO_MATRIX)
    return SchemeResult(
        lambda1=params,
        lambda2=_STAGE_TWO_OPTIMUM,
        stage_one_probability=p1,
        stage_two_probability=p2,
        p_success=p1 * p2,
        output_fidelity=_fidelity(_ScalarRules, amps),
        degenerate=bool(reasons),
        degenerate_reasons=reasons,
        output_state=_herald(amps) if heralded else None,
    )


#: Pairs per vectorized pass of ``_run_batch``; bounds its temporaries.
_BATCH_CHUNK = 2048


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
    on ``_Lanes`` (the module docstring gives the rules that keep the
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


class _LaneRules:
    """The stages' rules on ``_Lanes``: a check that raises on scalars
    sets ``failed`` on the lanes where it fails instead."""

    def __init__(self, n: int):
        self.failed = np.zeros(n, dtype=bool)

    def take(self, z, finite, kept):
        # fock._stored's decisions per lane.
        self.failed |= ~finite
        return z.where(kept)

    def fail(self, mask):
        # fock._squared_norm's overflow decision per lane.
        self.failed |= mask

    def stored(self, z):
        return _stored(z, self.take)

    def normalized(self, amps):
        return _normalized(amps, self.take, self.fail, np.sqrt)

    def splitter(self, theta, phi):
        # beamsplitter_matrix(BeamSplitterParams(theta, phi)) per lane,
        # with BeamSplitterParams' ranges, where NaN fails.
        self.failed |= ~((theta >= 0.0) & (theta <= math.pi / 2) & (phi >= -math.pi) & (phi <= math.pi))
        ph = np.fromiter(map(cmath.exp, [1j * x for x in phi.tolist()]), complex, len(phi))
        c = _Lanes(_per_element(math.cos, theta))
        m = _splitter_formula(c, _per_element(math.sin, theta), _Lanes(ph.real, ph.imag))
        for defect in _unitarity_defects(m):
            self.failed |= ~(defect <= optics.UNITARITY_TOL)
        return m


def _per_element(fn, *args: np.ndarray) -> np.ndarray:
    # fn, a math or cmath function, on each element through Python floats.
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, len(args[0]))


def _batch_chunk(first, second):
    """One vectorized pass of ``run_scheme``: ``first`` and ``second`` hold
    each pair's (alpha.real, alpha.imag, beta.real, beta.imag) as rows.
    Returns (the result columns ``_run_batch`` yields, a mask of the pairs
    whose scalar run raises)."""
    rules = _LaneRules(first.shape[1])
    inputs = [_Lanes(x[k], x[k + 1]) for x in (first, second) for k in (0, 2)]
    theta, phi, vacuous = _solve_cancellation_lanes(*inputs)
    _, p1, amps = _stage_one(rules, *inputs, rules.splitter(theta, phi))
    _, p2, amps = _stage_two(rules, amps, _STAGE_TWO_MATRIX)
    fid = _fidelity(rules, amps)
    codes = _reason_code(*inputs, vacuous)
    return _BatchColumns(theta, phi, p1, p2, p1 * p2, fid, codes), rules.failed


def _solve_cancellation_lanes(alpha1, beta1, alpha2, beta2):
    # solve_cancellation per lane: (theta, phi, vacuous).
    t1, t2 = alpha2 * beta1, alpha1 * beta2
    t1_zero, t2_zero = t1 == 0, t2 == 0
    vacuous = t1_zero & t2_zero
    solved = ~(t1_zero | t2_zero)
    ratio = -t1 / t2
    theta = np.where(
        solved,
        _per_element(math.atan, abs(ratio)),
        np.where(vacuous, math.pi / 4, np.where(t2_zero, math.pi / 2, 0.0)),
    )
    phi = np.where(solved, _per_element(math.atan2, ratio.imag, ratio.real), np.where(vacuous, math.pi, 0.0))
    return theta, phi, vacuous


def closed_form_success(in1: InputState, in2: InputState) -> float:
    """Analytic joint success |b1 b2|^2 sin^2(theta) cos^2(theta).

    Uses the solved cancellation angle, rebuilding cos(theta) from it. At
    theta = pi/2 that is about 6e-17, not 0, so where the exact success is
    0 this leaves a residue: at p = (1.0, 0.5) with phases 0.3 and -1.1 it
    returns 1.87e-33 where run_scheme gives 0 (ROADMAP item 2 (d)).
    Validated against the simulation by the acceptance suite before being
    trusted anywhere else.
    """
    params, _ = solve_cancellation(in1, in2)
    h = abs(in1.beta * in2.beta)
    sc = math.sin(params.theta) * math.cos(params.theta)
    return h * h * (sc * sc)


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
