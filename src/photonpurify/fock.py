"""Multimode bosonic Fock states as sparse amplitude maps.

A state is a map from occupation tuples ``(n_0, ..., n_{M-1})`` to complex
amplitudes. The scheme keeps only its heralded output here, one mode and
at most two basis elements. Its inputs and both stages run in ``scheme``,
on scalars and on a sweep's lanes, reproducing :func:`tensor`,
``optics.apply``, ``measurement.condition`` and :func:`normalize` bit for
bit; the per-amplitude rule, the squared norm and the normalization they
share are defined below.

Conventions enforced here:

* amplitudes below :data:`PRUNE_THRESHOLD` in magnitude are dropped after
  every operation (the single global pruning threshold);
* construction rejects the all-zero state (:class:`~.errors.ZeroState`) and
  non-finite amplitudes; intermediate unnormalized states are legal and are
  brought back to unit norm with :func:`normalize`;
* global phase is never canonicalized in storage; compare states through
  :func:`fidelity`, not amplitude-by-amplitude.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Mapping

from .errors import AmplitudeOverflow, ModeMismatch, NotNormalized, OutOfRange, ZeroState

Occupation = tuple[int, ...]

#: Single global pruning threshold for stored amplitude magnitudes.
PRUNE_THRESHOLD = 1e-14

#: Tolerance on squared norm for "is this state normalized" preconditions.
NORM_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Sparse multimode Fock state.

    Args:
        modes: number of optical modes (positive).
        amps: map from occupation tuple to complex amplitude. Copied,
            pruned and stored read-only at construction; entries below the
            pruning threshold are dropped.

    A state carries no photon cap: it stores only the amplitudes it is
    given, and no operation in the package adds photons.

    Raises:
        ZeroState: if no amplitude survives pruning.
        ValueError: on malformed occupations or non-finite amplitudes.
    """

    modes: int
    amps: Mapping[Occupation, complex]

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"mode count must be positive, got {self.modes}")
        kept: dict[Occupation, complex] = {}
        for occ, amp in self.amps.items():
            if len(occ) != self.modes:
                raise ValueError(
                    f"occupation {occ} has {len(occ)} modes, state has {self.modes}"
                )
            for n in occ:
                # A count is an int, not a bool, as ``measurement`` holds
                # its detector counts and mode indices to; a plain int
                # skips the isinstance tests.
                if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)) or n < 0:
                    raise ValueError(f"occupation {occ} must hold non-negative integers")
            z = _stored(complex(amp))
            if z:
                kept[tuple(occ)] = z
        if not kept:
            raise ZeroState("all amplitudes vanished; refusing to store a zero state")
        object.__setattr__(self, "amps", MappingProxyType(kept))

    @property
    def norm_squared(self) -> float:
        return _squared_norm(self.amps.values())

    def amplitude(self, occ: Occupation) -> complex:
        return self.amps.get(tuple(occ), 0j)


@dataclass(frozen=True)
class InputState:
    """Zero/one-photon superposition alpha|0> + beta|1>.

    Both amplitudes are stored as Python complexes. Rejects non-normalized
    pairs rather than silently rescaling: silent rescaling hides bugs in
    whatever produced the amplitudes.

    Raises:
        ValueError: if an amplitude is not finite.
        AmplitudeOverflow: if an amplitude is too large to square.
        NotNormalized: if |alpha|^2 + |beta|^2 is not 1 within NORM_TOL.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError("input amplitudes must be finite")
        n2 = _squared_norm((a, b))
        if abs(n2 - 1.0) > NORM_TOL:
            raise NotNormalized(f"|alpha|^2 + |beta|^2 = {n2!r}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def p(self) -> float:
        """Probability of the single-photon component, |beta|^2."""
        h = abs(self.beta)
        return h * h


def input_to_state(s: InputState) -> StateVector:
    """One-mode state vector {(0,): alpha, (1,): beta} for an input."""
    return StateVector(1, {(0,): s.alpha, (1,): s.beta})


def input_from_probability(p: float, phase: float = 0.0) -> InputState:
    """Input with one-photon probability p and phase on the |1> amplitude.

    Builds sqrt(1-p)|0> + e^{i phase} sqrt(p)|1>, the parameterization the
    sweep grids walk over.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"probability must lie in [0, 1], got {p!r}")
    return InputState(math.sqrt(1.0 - p), cmath.exp(1j * phase) * math.sqrt(p))


def fock_state(occ: Occupation) -> StateVector:
    """Basis state |n_0 n_1 ...> with unit amplitude."""
    occ = tuple(occ)
    return StateVector(len(occ), {occ: 1.0 + 0j})


def vacuum(modes: int) -> StateVector:
    return fock_state((0,) * modes)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; occupations concatenate, amplitudes multiply."""
    out: dict[Occupation, complex] = {}
    for na, aa in a.amps.items():
        for nb, ab in b.amps.items():
            out[na + nb] = aa * ab
    return StateVector(a.modes + b.modes, out)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.modes != b.modes:
        raise ModeMismatch(f"inner product over {a.modes} vs {b.modes} modes")
    small, large = (a.amps, b.amps) if len(a.amps) <= len(b.amps) else (b.amps, a.amps)
    acc = 0j
    for occ in small:
        if occ in large:
            acc += a.amps[occ].conjugate() * b.amps[occ]
    return acc


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized states; invariant under global phase."""
    if a.modes != b.modes:
        raise ModeMismatch(f"fidelity over {a.modes} vs {b.modes} modes")
    na2, nb2 = a.norm_squared, b.norm_squared
    if abs(na2 - 1.0) > NORM_TOL or abs(nb2 - 1.0) > NORM_TOL:
        raise NotNormalized(
            f"fidelity needs normalized states, got squared norms {na2!r}, {nb2!r}"
        )
    # Divide by the norms so slightly off-unit inputs cannot push the
    # result past 1 beyond float rounding.
    h = abs(inner_product(a, b))
    return h * h / (na2 * nb2)


def normalize(a: StateVector) -> tuple[StateVector, float]:
    """Rescale to unit norm; returns (state, original squared norm)."""
    _, n2, scaled = _normalized(a.amps.values())
    return StateVector(a.modes, dict(zip(a.amps, scaled))), n2


# The helpers below are the per-amplitude rule, the squared norm and the
# normalization: StateVector and InputState use the first two, and
# normalize, ``measurement.condition`` and both stages in ``scheme`` share
# _normalized, on complex scalars and, through its ``take`` and ``sqrt``
# hooks, on the lanes of ``scheme``'s sweep batch. Only scalars raise: the
# batch's lanes come from valid InputStates, whose amplitudes stay finite
# and at most about 2 in modulus through both stages.
# They stay private so that tracing the package's public layers does not
# wrap a call per amplitude.


def _stored(z: complex, take=None) -> complex:
    """``z`` as a StateVector stores it, with 0j for a pruned amplitude: the
    prune and finiteness rule. A non-finite ``z`` (whose abs is inf or NaN)
    raises ValueError, and a modulus that overflows raises
    AmplitudeOverflow. ``take(z, kept)``, given by ``scheme``'s sweep
    batch, applies the prune decision per lane instead."""
    try:
        h = abs(z)
    except OverflowError:  # lanes' abs gives inf instead
        raise AmplitudeOverflow(f"amplitude {z!r} has a modulus beyond the float range") from None
    kept = h >= PRUNE_THRESHOLD
    if take is not None:
        return take(z, kept)
    if not h < math.inf:
        raise ValueError(f"non-finite amplitude {z!r}")
    return z if kept else 0j


def _squared_norm(amps) -> float:
    # The package's one squared norm, of complex scalars or ``scheme``'s
    # lanes: ``h * h`` of each ``h = abs(a)``, one IEEE-754 multiply, summed
    # in a plain left-to-right loop, not sum(), which adds with compensation
    # from Python 3.12 on; a pruned 0j adds an exact zero. On scalars, a
    # square that overflows to inf raises AmplitudeOverflow; a sum of finite
    # squares may still reach inf. Lanes are summed unchecked.
    acc = 0.0
    try:
        for a in amps:
            h = abs(a)
            acc += h * h
    except OverflowError:  # abs of a complex whose modulus overflows
        raise _overflow(amps) from None
    if isinstance(acc, float) and not acc < math.inf and any(abs(a) * abs(a) == math.inf for a in amps):
        raise _overflow(amps)
    return acc


def _overflow(amps) -> AmplitudeOverflow:
    # The error for amplitudes whose squares overflowed, naming the largest.
    peak = max(math.hypot(a.real, a.imag) for a in amps)
    return AmplitudeOverflow(
        f"amplitude of magnitude {peak:.3e} overflows its square (limit about 1.34e154)"
    )


def _normalized(amps, take=None, sqrt=math.sqrt) -> tuple[bool, float, list[complex]]:
    """(alive, squared norm, unit amplitudes) of ``amps`` as a StateVector
    stores them: each is pruned by :func:`_stored`, scaled by 1/sqrt of
    the squared norm and pruned again, 0j where it falls below. A kept
    amplitude is at least :data:`PRUNE_THRESHOLD`, so the squared norm is
    at least 1e-28 exactly when one survives; where none does it is 0.0,
    and the zeros come back scaled by 1.0. ``take`` goes to
    :func:`_stored`, and ``sqrt`` is numpy's on ``scheme``'s lanes, where
    ``alive`` is a mask."""
    kept = [_stored(z, take) for z in amps]
    n2 = _squared_norm(kept)
    scale = 1.0 / sqrt(n2 + (n2 == 0.0))
    return n2 > 0.0, n2, [_stored(a * scale, take) for a in kept]


@lru_cache(maxsize=None)
def sector_occupations(photons: int, modes: int) -> tuple[Occupation, ...]:
    """All occupations of ``modes`` modes holding exactly ``photons`` photons.

    Deterministic (lexicographic in photon->mode placement) and cached;
    the simulator enumerates these for every photon-number sector.
    """
    out = []
    for placement in combinations_with_replacement(range(modes), photons):
        counts = [0] * modes
        for m in placement:
            counts[m] += 1
        out.append(tuple(counts))
    return tuple(out)
