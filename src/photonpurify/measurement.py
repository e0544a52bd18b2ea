"""Photon-number detection on a subset of modes.

Conditioning on an outcome projects the state onto the subspace where the
detected modes hold exactly the requested counts, drops those modes, and
renormalizes. The detection probability is the squared norm of the
projected (unnormalized) state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, ModeMismatch, OutOfRange
from .fock import StateVector, _normalized, _squared_norm


@dataclass(frozen=True)
class ConditionResult:
    """Post-selection outcome: probability and the conditional state.

    ``state`` is None, and the probability exactly 0, when no projected
    amplitude survives pruning (``fock._normalized``). Stored amplitudes
    are at least ``fock.PRUNE_THRESHOLD`` in magnitude, so any other
    outcome has probability of at least its square.
    """

    probability: float
    state: StateVector | None


def _check_mode(mode, modes: int) -> None:
    # A mode index is an int, not a bool, in 0..modes-1.
    if not isinstance(mode, int) or isinstance(mode, bool) or not 0 <= mode < modes:
        raise IndexOutOfRange(f"mode {mode!r} is not an index in 0..{modes - 1}")


def _validate_detected(s: StateVector, detected: dict[int, int]) -> None:
    if not detected:
        raise ModeMismatch("must detect at least one mode")
    if len(detected) >= s.modes:
        raise ModeMismatch(
            f"detecting {len(detected)} of {s.modes} modes leaves no output"
        )
    for mode, count in detected.items():
        _check_mode(mode, s.modes)
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise OutOfRange(f"photon count for mode {mode} must be a non-negative int")


def condition(s: StateVector, detected: dict[int, int]) -> ConditionResult:
    """Project onto detector outcomes and trace out the detected modes.

    ``detected`` maps mode index to the exact photon count seen there. The
    surviving modes keep their relative order and are renumbered from 0.
    It renormalizes with ``fock._normalized``, as ``normalize`` and the
    scheme's stages do, and builds only the conditional state.
    """
    _validate_detected(s, detected)
    keep = [m for m in range(s.modes) if m not in detected]
    projected: dict[tuple[int, ...], complex] = {}
    for occ, amp in s.amps.items():
        if any(occ[m] != n for m, n in detected.items()):
            continue
        reduced = tuple(occ[m] for m in keep)
        projected[reduced] = projected.get(reduced, 0j) + amp
    alive, prob, amps = _normalized(projected.values())
    if not alive:
        return ConditionResult(0.0, None)
    return ConditionResult(prob, StateVector(len(keep), dict(zip(projected, amps))))


def outcome_distribution(s: StateVector, modes: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    """Marginal photon-count distribution over the given modes.

    Returns a map from count patterns (ordered as ``modes``) to their
    probabilities. Probabilities sum to the squared norm of the state.
    """
    if not modes:
        raise ModeMismatch("need at least one mode for a distribution")
    seen = set()
    for m in modes:
        _check_mode(m, s.modes)
        if m in seen:
            raise ModeMismatch(f"mode {m} listed twice")
        seen.add(m)
    groups: dict[tuple[int, ...], list[complex]] = {}
    for occ, amp in s.amps.items():
        groups.setdefault(tuple(occ[m] for m in modes), []).append(amp)
    return {pattern: _squared_norm(amps) for pattern, amps in groups.items()}
