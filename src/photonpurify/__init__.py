"""Heralded single-photon purification on passive linear optics.

Two zero/one-photon superpositions interfere on a beam splitter chosen to
cancel the single-photon term of the conditioned output; a second splitter
and a one-photon detection then herald an exact |1> state. This package
simulates the circuit on sparse Fock states, solves the cancellation
splitter Lambda (the second splitter Lambda' is its analytic optimum, a
fixed 50/50 splitter), sweeps parameter grids deterministically, and
checks itself against a permanent-free oracle. The circuit has two
routes: ``run_scheme`` for one pair, and the sweep's batch
(``scheme._run_batch``), which evaluates a chunk of pairs on numpy arrays
and gives the five fields a sweep prints ``run_scheme``'s bits. Any other
Lambda or Lambda' runs on the generic engine (``tensor``, ``apply``,
``condition``), which both routes match bit for bit.
"""

from .errors import (
    AmplitudeOverflow,
    ConfigInvalid,
    IndexOutOfRange,
    ModeMismatch,
    NotNormalized,
    NotSquare,
    NotUnitary,
    OutOfRange,
    ZeroState,
)
from .expansion import (
    CreationPolynomial,
    polynomial_to_state,
    state_to_polynomial,
    substitute,
)
from .fock import (
    InputState,
    StateVector,
    fidelity,
    fock_state,
    inner_product,
    input_from_probability,
    input_to_state,
    normalize,
    sector_occupations,
    tensor,
    vacuum,
)
from .measurement import ConditionResult, condition, outcome_distribution
from .optics import (
    BeamSplitterParams,
    InterferometerUnitary,
    apply,
    beamsplitter,
    permanent,
)
from .scheme import (
    SchemeResult,
    closed_form_success,
    exact_success,
    run_scheme,
    solve_cancellation,
    success_curve_new,
    success_curve_old,
)
from .verify import CheckResult, permanent_naive, run_checks

__version__ = "11.0.1"

# The only kernel; kept as a constant because perfbench/run.py records it.
BACKEND = "python"

__all__ = [
    "AmplitudeOverflow",
    "BACKEND",
    "BeamSplitterParams",
    "CheckResult",
    "ConditionResult",
    "ConfigInvalid",
    "CreationPolynomial",
    "IndexOutOfRange",
    "InputState",
    "InterferometerUnitary",
    "ModeMismatch",
    "NotNormalized",
    "NotSquare",
    "NotUnitary",
    "OutOfRange",
    "SchemeResult",
    "StateVector",
    "ZeroState",
    "apply",
    "beamsplitter",
    "closed_form_success",
    "condition",
    "exact_success",
    "fidelity",
    "fock_state",
    "inner_product",
    "input_from_probability",
    "input_to_state",
    "normalize",
    "outcome_distribution",
    "permanent",
    "permanent_naive",
    "polynomial_to_state",
    "run_checks",
    "run_scheme",
    "sector_occupations",
    "solve_cancellation",
    "state_to_polynomial",
    "substitute",
    "success_curve_new",
    "success_curve_old",
    "tensor",
    "vacuum",
]
