"""Photon-number detection on a subset of modes.

Conditioning on an outcome projects the state onto the subspace where the
detected modes hold exactly the requested counts, drops those modes, and
renormalizes. The detection probability is the squared norm of the
projected (unnormalized) state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, ModeMismatch, OutOfRange
from .fock import StateVector, normalize


@dataclass(frozen=True)
class ConditionResult:
    """Post-selection outcome: probability and the conditional state.

    ``state`` is None, and the probability exactly 0, when no amplitude
    survives the projection. Stored amplitudes are at least
    ``fock.PRUNE_THRESHOLD`` in magnitude, so any other outcome has
    probability of at least its square.
    """

    probability: float
    state: StateVector | None


def _validate_detected(s: StateVector, detected: dict[int, int]) -> None:
    if not detected:
        raise ModeMismatch("must detect at least one mode")
    if len(detected) >= s.modes:
        raise ModeMismatch(
            f"detecting {len(detected)} of {s.modes} modes leaves no output"
        )
    for mode, count in detected.items():
        if not (0 <= mode < s.modes):
            raise IndexOutOfRange(f"detected mode {mode} outside 0..{s.modes - 1}")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise OutOfRange(f"photon count for mode {mode} must be a non-negative int")


def condition(s: StateVector, detected: dict[int, int]) -> ConditionResult:
    """Project onto detector outcomes and trace out the detected modes.

    ``detected`` maps mode index to the exact photon count seen there. The
    surviving modes keep their relative order and are renumbered from 0.
    """
    _validate_detected(s, detected)
    keep = [m for m in range(s.modes) if m not in detected]
    projected: dict[tuple[int, ...], complex] = {}
    for occ, amp in s.amps.items():
        if any(occ[m] != n for m, n in detected.items()):
            continue
        reduced = tuple(occ[m] for m in keep)
        projected[reduced] = projected.get(reduced, 0j) + amp
    if not projected:
        return ConditionResult(0.0, None)
    raw = StateVector(len(keep), projected)
    normalized, prob = normalize(raw)
    return ConditionResult(prob, normalized)


def outcome_distribution(s: StateVector, modes: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    """Marginal photon-count distribution over the given modes.

    Returns a map from count patterns (ordered as ``modes``) to their
    probabilities. Probabilities sum to the squared norm of the state.
    """
    if not modes:
        raise ModeMismatch("need at least one mode for a distribution")
    seen = set()
    for m in modes:
        if not (0 <= m < s.modes):
            raise IndexOutOfRange(f"mode {m} outside 0..{s.modes - 1}")
        if m in seen:
            raise ModeMismatch(f"mode {m} listed twice")
        seen.add(m)
    dist: dict[tuple[int, ...], float] = {}
    for occ, amp in s.amps.items():
        pattern = tuple(occ[m] for m in modes)
        dist[pattern] = dist.get(pattern, 0.0) + abs(amp) ** 2
    return dist
