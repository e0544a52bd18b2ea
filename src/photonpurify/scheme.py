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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import OutOfRange, PurityViolated
from .fock import (
    InputState,
    StateVector,
    _squared_norm,
    _stored,
    _unit_amplitudes,
    fidelity,
    fock_state,
)
from .optics import BeamSplitterParams, beamsplitter_matrix

#: Residual single-photon amplitude allowed after cancellation.
CANCEL_TOL = 1e-10

# The stage-2 optimum for every c: a 50/50 splitter with phi2 = 0.
_STAGE_TWO_OPTIMUM = BeamSplitterParams(math.pi / 4, 0.0)
# Stage 2's fixed parts, built once and shared by every run: the 50/50
# matrix and the |1> target.
_STAGE_TWO_MATRIX = beamsplitter_matrix(_STAGE_TWO_OPTIMUM)
_ONE_PHOTON = fock_state((1,))
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
