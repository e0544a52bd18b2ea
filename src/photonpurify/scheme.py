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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import OutOfRange, PurityViolated
from .fock import (
    PRUNE_THRESHOLD,
    InputState,
    StateVector,
    fidelity,
    fock_state,
    input_to_state,
    normalize,
    tensor,
    vacuum,
)
from .measurement import ConditionResult, condition
from .optics import BeamSplitterParams, InterferometerUnitary, apply, beamsplitter

#: Residual single-photon amplitude allowed after cancellation.
CANCEL_TOL = 1e-10

# The stage-2 optimum for every c: a 50/50 splitter with phi2 = 0.
_STAGE_TWO_OPTIMUM = BeamSplitterParams(math.pi / 4, 0.0)
# Stage 2's fixed parts, built once and shared by every run: the matrix is
# read-only and states are immutable.
_STAGE_TWO_UNITARY = beamsplitter(_STAGE_TWO_OPTIMUM)
_VACUUM = vacuum(1)
_ONE_PHOTON = fock_state((1,))

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
        return abs(self.c0) ** 2 + abs(self.c1) ** 2 + abs(self.c2) ** 2


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
    m = beamsplitter(bs).matrix
    c0 = in1.alpha * in2.alpha
    c1 = in2.alpha * in1.beta * m[0, 0] + in1.alpha * in2.beta * m[0, 1]
    c2 = math.sqrt(2.0) * in1.beta * in2.beta * m[0, 0] * m[0, 1]
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


def _require_cancelled(c: StageOneCoefficients) -> None:
    if abs(c.c1) > CANCEL_TOL:
        raise PurityViolated(
            f"|c1| = {abs(c.c1):.3e} exceeds {CANCEL_TOL:.0e}; cancel first"
        )


def stage_two(
    c: StageOneCoefficients, bs2: BeamSplitterParams
) -> tuple[float, StateVector | None]:
    """Mix the conditioned mode with vacuum and herald on one photon.

    The vacuum ancilla enters Lambda' first, the normalized conditioned
    mode second, and the detector watches the conditioned mode's port.
    Returns the conditional success probability and the heralded state on
    the ancilla's port (None when the detector can never fire). The purity
    precondition |c1| <= CANCEL_TOL is enforced; past it the residual c1
    is dropped, so the heralded state is exactly |1>.
    """
    _require_cancelled(c)
    if max(abs(c.c0), abs(c.c2)) <= PRUNE_THRESHOLD:
        return 0.0, None
    raw = StateVector(1, {(0,): complex(c.c0), (2,): complex(c.c2)})
    c_state, _ = normalize(raw)
    heralded = _herald(c_state, beamsplitter(bs2))
    return heralded.probability, heralded.state


def _herald(c_state: StateVector, u2: InterferometerUnitary) -> ConditionResult:
    # Stage 2 on (vacuum ancilla, conditioned mode) = modes (0, 1): mix on
    # Lambda' and detect one photon at the conditioned mode's port.
    joint = tensor(_VACUUM, c_state)
    return condition(apply(u2, joint), {1: 1})


def optimize_stage_two(c: StageOneCoefficients) -> BeamSplitterParams:
    """Stage-2 splitter maximizing the heralding probability.

    The conditional success 2 |c2n|^2 cos^2(theta2) sin^2(theta2) peaks at
    theta2 = pi/4 for every c, so the optimum is the 50/50 splitter with
    phi2 = 0. Raises PurityViolated when |c1| exceeds CANCEL_TOL.
    """
    _require_cancelled(c)
    return _STAGE_TWO_OPTIMUM


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
    photons. p_success is the joint probability of both outcomes.

    Lambda' is the analytic optimum, a 50/50 splitter; for any other
    Lambda' use ``stage_two(stage_one_coefficients(in1, in2, lambda1),
    bs2)``. Degenerate inputs never raise; they come back flagged with
    honestly computed probabilities.
    """
    params, vacuous = solve_cancellation(in1, in2)
    reasons = _degenerate_reasons(in1, in2, vacuous)

    inputs = tensor(input_to_state(in1), input_to_state(in2))
    stage1 = condition(apply(beamsplitter(params), inputs), {1: 0})
    if stage1.state is None:
        # Nothing survived stage 1: stage1 already reads (0.0, None).
        heralded = stage1
    else:
        heralded = _herald(stage1.state, _STAGE_TWO_UNITARY)
    if heralded.state is None:
        fid = 0.0
    else:
        fid = fidelity(heralded.state, _ONE_PHOTON)
    return SchemeResult(
        lambda1=params,
        lambda2=_STAGE_TWO_OPTIMUM,
        stage_one_probability=stage1.probability,
        stage_two_probability=heralded.probability,
        p_success=stage1.probability * heralded.probability,
        output_fidelity=fid,
        degenerate=bool(reasons),
        degenerate_reasons=reasons,
        output_state=heralded.state,
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
