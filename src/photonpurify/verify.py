"""Randomized invariant suite behind the verify subcommand.

Six named checks: unitarity (two-mode splitters), norm-preservation,
permanent-vs-oracle, apply-vs-oracle, purity-grid, and dominance (simulated
identical-input runs against p^2/4 and 16p^3/81). Each returns a
CheckResult with a worst-case defect so failures carry numbers, not just a
flag.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigInvalid
from .expansion import polynomial_to_state, state_to_polynomial, substitute
from .fock import StateVector, input_from_probability, normalize, sector_occupations
from .measurement import outcome_distribution
from .optics import (
    BeamSplitterParams,
    UNITARITY_TOL,
    InterferometerUnitary,
    apply,
    beamsplitter,
    permanent,
    unitarity_defect,
)
from .scheme import run_scheme, success_curve_new, success_curve_old

NORM_TOL = 1e-12
ORACLE_TOL = 1e-12
PERMANENT_TOL = 1e-12
PURITY_TOL = 1e-10
DOMINANCE_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def permanent_naive(m) -> complex:
    """Permutation-sum permanent, the slow cross-check for the kernel."""
    arr = np.asarray(m, dtype=np.complex128)
    n = arr.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= arr[i, j]
        total += prod
    return total


def random_unitary(rng: np.random.Generator, dim: int) -> InterferometerUnitary:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return InterferometerUnitary(q)


def random_state(rng: np.random.Generator, modes: int, max_photons: int) -> StateVector:
    """Random normalized state with every sector up to max_photons filled.

    There is no photon cap: the state holds C(modes + max_photons, modes)
    amplitudes.
    """
    amps: dict[tuple[int, ...], complex] = {}
    for photons in range(max_photons + 1):
        for occ in sector_occupations(photons, modes):
            amps[occ] = complex(rng.normal(), rng.normal())
    state, _ = normalize(StateVector(modes, amps))
    return state


def _worst(defects) -> float:
    # numpy's max propagates NaN (Python's max(0.0, nan) is 0.0), so a NaN
    # defect fails its check's `<= tol` test.
    return float(np.max(defects, initial=0.0))


def check_unitarity(rng: np.random.Generator, trials: int) -> CheckResult:
    """Random splitters composed with two-mode Haar unitaries stay unitary."""
    defects = []
    for _ in range(trials):
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(-math.pi, math.pi)
        bs = beamsplitter(BeamSplitterParams(theta, phi))
        defects.append(unitarity_defect(bs.matrix @ random_unitary(rng, 2).matrix))
    worst = _worst(defects)
    return CheckResult(
        "unitarity", worst <= UNITARITY_TOL, f"max defect {worst:.3e} over {trials} trials"
    )


def check_norm_preservation(rng: np.random.Generator, trials: int) -> CheckResult:
    """apply keeps squared norm within 1e-12; distributions sum to 1."""
    drifts = []
    for _ in range(trials):
        modes = int(rng.integers(2, 4))
        u = random_unitary(rng, modes)
        s = random_state(rng, modes, max_photons=3)
        out = apply(u, s)
        drifts.append(abs(out.norm_squared - s.norm_squared))
        dist = outcome_distribution(out, tuple(range(modes)))
        drifts.append(abs(sum(dist.values()) - out.norm_squared))
    worst = _worst(drifts)
    return CheckResult(
        "norm-preservation",
        worst <= NORM_TOL,
        f"max norm drift {worst:.3e} over {trials} trials",
    )


def random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random complex matrix with every entry of modulus at most 1.

    Bounded entries keep permanents at O(n!) worst case and float error
    well under the absolute 1e-12 agreement tolerance; unbounded normal
    entries would make the tolerance scale-dependent.
    """
    re = rng.uniform(-1.0, 1.0, size=(dim, dim))
    im = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return (re + 1j * im) / math.sqrt(2.0)


def check_permanent_vs_oracle(rng: np.random.Generator, trials: int) -> CheckResult:
    """Ryser kernel against the permutation sum, dims 1 through 6."""
    gaps = []
    for k in range(trials):
        m = random_matrix(rng, 1 + k % 6)
        gaps.append(abs(permanent(m) - permanent_naive(m)))
    worst = _worst(gaps)
    return CheckResult(
        "permanent-vs-oracle",
        worst <= PERMANENT_TOL,
        f"max |ryser - naive| {worst:.3e} over {trials} trials",
    )


def check_apply_vs_oracle(rng: np.random.Generator, trials: int) -> CheckResult:
    """Permanent route against the operator-expansion route."""
    gaps = []
    for _ in range(trials):
        modes = int(rng.integers(1, 4))
        u = random_unitary(rng, modes)
        s = random_state(rng, modes, max_photons=4)
        direct = apply(u, s)
        expanded = polynomial_to_state(substitute(state_to_polynomial(s), u))
        gaps.append(amplitude_distance(direct, expanded))
    worst = _worst(gaps)
    return CheckResult(
        "apply-vs-oracle",
        worst <= ORACLE_TOL,
        f"max amplitude gap {worst:.3e} over {trials} trials",
    )


def amplitude_distance(a: StateVector, b: StateVector) -> float:
    keys = set(a.amps) | set(b.amps)
    return max(abs(a.amplitude(k) - b.amplitude(k)) for k in keys) if keys else 0.0


def check_purity_grid() -> CheckResult:
    """Non-degenerate scheme runs herald |1> with fidelity 1 - 1e-10.

    A coarse 10x10x4x4 grid; the acceptance suite sweeps the full one.
    """
    ps = np.linspace(0.05, 0.95, 10)
    phases = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
    deficits = []
    for p1 in ps:
        for p2 in ps:
            for ph1 in phases:
                for ph2 in phases:
                    in1 = input_from_probability(float(p1), float(ph1))
                    in2 = input_from_probability(float(p2), float(ph2))
                    result = run_scheme(in1, in2)
                    if result.degenerate:
                        continue
                    deficits.append(1.0 - result.output_fidelity)
    worst = _worst(deficits)
    return CheckResult(
        "purity-grid", worst <= PURITY_TOL, f"max fidelity deficit {worst:.3e} on 10x10x4x4 grid"
    )


def check_dominance(rng: np.random.Generator) -> CheckResult:
    """Simulated identical-input runs follow p^2/4 and beat 16p^3/81.

    At 101 points of (0, 1], ``run_scheme`` gets the same input twice, with
    a random phase; its success must match ``success_curve_new`` to a
    relative DOMINANCE_TOL and exceed ``success_curve_old``.
    """
    gaps, margins = [], []
    for p in np.linspace(1e-3, 1.0, 101):
        p = float(p)
        s = input_from_probability(p, rng.uniform(-math.pi, math.pi))
        p_success = run_scheme(s, s).p_success
        new = success_curve_new(p)
        gaps.append(abs(p_success - new) / new)
        margins.append(p_success - success_curve_old(p))
    # numpy reductions propagate NaN, so a NaN success fails the check.
    worst, margin = float(np.max(gaps)), float(np.min(margins))
    return CheckResult(
        "dominance",
        worst <= DOMINANCE_TOL and margin > 0.0,
        f"max relative gap to p^2/4 {worst:.3e}, min margin over 16p^3/81 "
        f"{margin:.3e} on 101 simulated points",
    )


def run_checks(seed: int, trials: int) -> list[CheckResult]:
    """Run all six checks with reproducible randomness."""
    if trials < 1:
        raise ConfigInvalid(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return [
        check_unitarity(rng, trials),
        check_norm_preservation(rng, trials),
        check_permanent_vs_oracle(rng, trials),
        check_apply_vs_oracle(rng, trials),
        check_purity_grid(),
        check_dominance(rng),
    ]
