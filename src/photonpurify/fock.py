"""Multimode bosonic Fock states as sparse amplitude maps.

A state is a map from occupation tuples ``(n_0, ..., n_{M-1})`` to complex
amplitudes. Scheme states never hold more than a handful of basis elements,
so the sparse representation is both the fastest and the clearest one.

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

from .errors import ModeMismatch, NotNormalized, OutOfRange, ZeroState

Occupation = tuple[int, ...]

#: Single global pruning threshold for stored amplitude magnitudes.
PRUNE_THRESHOLD = 1e-14

#: Tolerance on squared norm for "is this state normalized" preconditions.
NORM_TOL = 1e-9

_ZERO_NORM_FLOOR = 1e-300


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
            if any(not isinstance(n, int) or n < 0 for n in occ):
                raise ValueError(f"occupation {occ} must hold non-negative integers")
            z = complex(amp)
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite amplitude {z!r} at {occ}")
            if abs(z) >= PRUNE_THRESHOLD:
                kept[tuple(occ)] = z
        if not kept:
            raise ZeroState("all amplitudes vanished; refusing to store a zero state")
        object.__setattr__(self, "amps", MappingProxyType(kept))

    @property
    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values())

    def amplitude(self, occ: Occupation) -> complex:
        return self.amps.get(tuple(occ), 0j)


@dataclass(frozen=True)
class InputState:
    """Zero/one-photon superposition alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    @property
    def p(self) -> float:
        """Probability of the single-photon component, |beta|^2."""
        return abs(self.beta) ** 2


def make_input(alpha: complex, beta: complex) -> InputState:
    """Validate and build a zero/one-photon superposition input.

    Rejects non-normalized pairs rather than silently rescaling: silent
    rescaling hides bugs in whatever produced the amplitudes.
    """
    a, b = complex(alpha), complex(beta)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError("input amplitudes must be finite")
    n2 = abs(a) ** 2 + abs(b) ** 2
    if abs(n2 - 1.0) > NORM_TOL:
        raise NotNormalized(f"|alpha|^2 + |beta|^2 = {n2!r}, expected 1 within {NORM_TOL}")
    return InputState(a, b)


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
    return make_input(math.sqrt(1.0 - p), cmath.exp(1j * phase) * math.sqrt(p))


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
    return abs(inner_product(a, b)) ** 2 / (na2 * nb2)


def normalize(a: StateVector) -> tuple[StateVector, float]:
    """Rescale to unit norm; returns (state, original squared norm)."""
    n2 = a.norm_squared
    if n2 <= _ZERO_NORM_FLOOR:
        raise ZeroState(f"squared norm {n2!r} is below the zero-state floor")
    scale = 1.0 / math.sqrt(n2)
    scaled = {occ: amp * scale for occ, amp in a.amps.items()}
    return StateVector(a.modes, scaled), n2


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
