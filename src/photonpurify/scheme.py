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

Stage 2 runs only at the optimum; any other Lambda' runs on that generic
engine. ``run_scheme`` runs the stages on complex scalars, and only the
heralded output becomes a ``StateVector``. Sweeps run them through
``_run_batch``, one call per chunk of pairs that ``sweep`` cuts, on
``optics._Lanes``: one complex per pair, held as float64 arrays of
parts. The lane rules that keep ``run_scheme``'s bits:

* ``_Lanes`` does complex arithmetic in CPython 3.10-3.12's order;
* atan, atan2, cos, sin and exp run per element through Python floats,
  since numpy's own versions do not always give libm's bits; squares are
  ``h * h``, one IEEE-754 multiply on either;
* per-pair branches (t1 == 0, t2 == 0) become masks, and a squared norm
  of 0.0, where nothing survives, divides as ``n2 + (n2 == 0.0)`` on both.

A rules class says how the stages prune and normalize: ``_ScalarRules``
on complex scalars, ``_LaneRules`` on lanes. Both prune through
``fock._stored``, square through ``fock._squared_norm`` and normalize with
``fock._normalized``, as ``fock.normalize`` and ``measurement.condition``
do; the lanes pass it ``_Lanes.where`` and numpy's sqrt. Only the scalar
path raises. A sweep's inputs are valid ``InputState``s, finite and
normalized, so no lane meets a check that the scalar path would fail:
every amplitude stays finite and at most about 2 in modulus, and the
solved splitter's angles lie in ``BeamSplitterParams``' ranges. Neither
path checks the splitter's unitarity, which its formula keeps to a few
ulp (see ``optics``).
Every constant is read from its owning module when it is used.
``run_scheme`` serves ``run``'s table and JSON reports, ``verify``'s
dominance check and the Python API; every sweep, ``run --format csv`` (a
one-point sweep) and ``verify``'s purity grid take ``_run_batch``, whose
fixed numpy cost a single pair pays in full: 0.4-0.7 ms per in-process
``run --format csv`` call against 0.02-0.08 ms for the table and JSON
reports (Python 3.11, numpy 2.4, Xeon).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import OutOfRange
from .fock import InputState, StateVector, _normalized, _squared_norm, _stored
from .optics import BeamSplitterParams, _Lanes, _splitter_formula, beamsplitter_matrix

if TYPE_CHECKING:
    from fractions import Fraction

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


def _stage_two(rules, amps):
    """``tensor`` of the vacuum ancilla (mode 0) with the normalized mode
    ``amps`` (mode 1), ``apply`` of the 50/50 Lambda' and ``condition`` on
    one photon at mode 1: ``rules.normalized`` of mode 0's (|0>, |1>)
    amplitudes.

    Bit-identical to that route although it skips the products with the
    ancilla's |1> amplitude, an exact 0j, and the factor of its unit |0>
    amplitude: each changes only the sign of a zero, and the projection's
    ``0j +`` clears that sign before pruning. ``amps``' |0> cannot reach
    one photon at mode 1.
    """
    _, r1, r2 = amps
    (_, m01), (_, m11) = _STAGE_TWO_MATRIX
    return rules.normalized((0j + r1 * m11, 0j + r2 / _SQRT2 * (m01 * m11 + m01 * m11)))


def _fidelity(amps):
    """``fidelity`` to |1> of the state heralded with stage 2's unit
    amplitudes (r0, r1), 0.0 where none is: |r1|^2 / (0.0 + |r0|^2 +
    |r1|^2), that route's bits, since |1>'s squared norm is 1.0 and
    conj(r1) * (1+0j) changes at most the sign of a zero part of r1.
    Nothing is heralded exactly where that squared norm is 0.0, and there
    |r1|^2 = 0.0 is divided by 1.0."""
    h = abs(amps[1])
    n2 = _squared_norm(amps)
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
    """The stages' rules on complex scalars: every check raises."""

    stored = staticmethod(_stored)
    normalized = staticmethod(_normalized)


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

    Lambda' is the analytic optimum, a 50/50 splitter. For any other
    Lambda', or any other Lambda, run the circuit on the generic engine
    (``tensor``, ``apply``, ``condition``), which these stages match bit
    for bit. Degenerate inputs never raise; they come back flagged with
    honestly computed probabilities.
    """
    params, vacuous = solve_cancellation(in1, in2)
    a1, b1, a2, b2 = in1.alpha, in1.beta, in2.alpha, in2.beta
    reasons = _REASONS_BY_CODE[_reason_code(a1, b1, a2, b2, vacuous)]
    # A stage 1 that heralds nothing leaves zeros, which herald nothing.
    _, p1, amps = _stage_one(_ScalarRules, a1, b1, a2, b2, beamsplitter_matrix(params))
    heralded, p2, amps = _stage_two(_ScalarRules, amps)
    return SchemeResult(
        lambda1=params,
        lambda2=_STAGE_TWO_OPTIMUM,
        stage_one_probability=p1,
        stage_two_probability=p2,
        p_success=p1 * p2,
        output_fidelity=_fidelity(amps),
        degenerate=bool(reasons),
        degenerate_reasons=reasons,
        output_state=_herald(amps) if heralded else None,
    )


class _BatchColumns(NamedTuple):
    """The five ``SchemeResult`` fields a sweep prints, for a batch of
    pairs, as arrays in pair order (theta and phi are ``lambda1``'s)."""

    theta: np.ndarray
    phi: np.ndarray
    p_success: np.ndarray
    output_fidelity: np.ndarray
    degenerate: np.ndarray


class _LaneRules:
    """The stages' rules on ``_Lanes``: fock's prune decision per lane and
    numpy's sqrt."""

    @staticmethod
    def stored(z):
        return _stored(z, _Lanes.where)

    @staticmethod
    def normalized(amps):
        return _normalized(amps, _Lanes.where, np.sqrt)

    @staticmethod
    def splitter(theta, phi):
        # beamsplitter_matrix(BeamSplitterParams(theta, phi)) per lane.
        ph = np.fromiter(map(cmath.exp, [1j * x for x in phi.tolist()]), complex, len(phi))
        c = _Lanes(_per_element(math.cos, theta))
        return _splitter_formula(c, _per_element(math.sin, theta), _Lanes(ph.real, ph.imag))


def _per_element(fn, *args: np.ndarray) -> np.ndarray:
    # fn, a math or cmath function, on each element through Python floats.
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, len(args[0]))


def _run_batch(alpha1, beta1, alpha2, beta2) -> _BatchColumns:
    """``run_scheme`` over many pairs of inputs, bit for bit, in one
    vectorized pass: pair k's inputs have the amplitudes ``(alpha1[k],
    beta1[k])`` and ``(alpha2[k], beta2[k])``, complex arrays taken from
    valid ``InputState``s. Runs on ``_Lanes`` (the module docstring gives
    the rules that keep the bits); the returned columns' ``tolist()``
    values equal ``run_scheme``'s fields by ``repr``. Nothing is checked
    per pair: valid inputs pass every check of the scalar path (module
    docstring). The caller bounds the temporaries by the pairs it passes.
    """
    inputs = [_Lanes(z.real, z.imag) for z in (alpha1, beta1, alpha2, beta2)]
    with np.errstate(all="ignore"):
        theta, phi, vacuous = _solve_cancellation_lanes(*inputs)
        _, p1, amps = _stage_one(_LaneRules, *inputs, _LaneRules.splitter(theta, phi))
        _, p2, amps = _stage_two(_LaneRules, amps)
        return _BatchColumns(theta, phi, p1 * p2, _fidelity(amps), _reason_code(*inputs, vacuous) != 0)


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
