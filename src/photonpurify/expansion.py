"""Operator-expansion route for interferometer action, used as an oracle.

A Fock state is a polynomial in creation operators applied to vacuum:

    |n> = prod_i (a_i^dag)^{n_i} / sqrt(n_i!) |0>

Pushing a state through an interferometer then becomes textbook algebra:
substitute a_j^dag -> sum_i U[i, j] a_i^dag in the polynomial, expand with
exact integer multinomial coefficients, and read amplitudes back off the
monomials. This route never touches the permanent kernel, so agreement
with the permanent route checks both implementations at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ModeMismatch, NotSquare
from .fock import StateVector

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class CreationPolynomial:
    """Polynomial in commuting creation operators a_0^dag .. a_{modes-1}^dag.

    ``terms`` maps exponent tuples to complex coefficients. The monomial
    with exponents k applied to vacuum gives sqrt(prod k_i!) |k>.
    """

    modes: int
    terms: dict[Exponents, complex]

    def coefficient(self, exponents: Exponents) -> complex:
        return self.terms.get(tuple(exponents), 0j)


def state_to_polynomial(s: StateVector) -> CreationPolynomial:
    """Rewrite a state as a creation-operator polynomial on vacuum."""
    terms = {
        occ: amp / math.sqrt(_exponent_factorial(occ))
        for occ, amp in s.amps.items()
    }
    return CreationPolynomial(s.modes, terms)


def polynomial_to_state(poly: CreationPolynomial) -> StateVector:
    """Apply a creation polynomial to vacuum and collect amplitudes."""
    amps = {
        exponents: coeff * math.sqrt(_exponent_factorial(exponents))
        for exponents, coeff in poly.terms.items()
        if coeff != 0j
    }
    return StateVector(poly.modes, amps)


def substitute(poly: CreationPolynomial, u) -> CreationPolynomial:
    """Replace a_j^dag by sum_i U[i, j] a_i^dag and expand.

    Accepts an interferometer object (anything with a ``matrix``
    attribute) or a bare square array. Unitarity is not required here;
    each factor (sum_i U[i, j] a_i^dag)^k expands by the multinomial
    theorem with exact integer coefficients, once per call.
    """
    m = np.asarray(getattr(u, "matrix", u), dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"substitution matrix must be square, got shape {m.shape}")
    if m.shape[0] != poly.modes:
        raise ModeMismatch(f"matrix on {m.shape[0]} modes, polynomial on {poly.modes}")
    modes = poly.modes
    columns = m.T.tolist()
    # A monomial is packed into one integer, its exponents as the digits
    # of base 1 + the largest total degree, mode 0 lowest: no exponent of
    # a product reaches the base, so multiplying monomials adds their keys.
    base = 1 + max((sum(exponents) for exponents in poly.terms), default=0)
    powers: dict[tuple[int, int], list[tuple[int, complex]]] = {}
    out: dict[int, complex] = {}
    for exponents, coeff in poly.terms.items():
        partial: dict[int, complex] = {0: coeff}
        for j, power in enumerate(exponents):
            if power == 0:
                continue
            factor = powers.get((j, power))
            if factor is None:
                factor = powers[j, power] = _column_power(columns[j], power, base)
            partial = _multiply(partial, factor)
        for key, c in partial.items():
            out[key] = out.get(key, 0j) + c
    return CreationPolynomial(
        modes, {_unpack(key, base, modes): c for key, c in out.items() if c != 0j}
    )


def _unpack(key: int, base: int, modes: int) -> Exponents:
    exponents = []
    for _ in range(modes):
        key, e = divmod(key, base)
        exponents.append(e)
    return tuple(exponents)


def _exponent_factorial(exponents: Exponents) -> int:
    f = 1
    for k in exponents:
        f *= math.factorial(k)
    return f


def _compositions(total: int, parts: int) -> Iterator[Exponents]:
    # All ways to split `total` into `parts` non-negative ordered summands.
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _multinomials(power: int, modes: int) -> tuple[tuple[Exponents, int], ...]:
    # (composition, multinomial coefficient) pairs of (x_1 + ... + x_modes)^power,
    # exact integers, computed once per (power, modes).
    base = math.factorial(power)
    table = []
    for split in _compositions(power, modes):
        multinomial = base
        for e_i in split:
            multinomial //= math.factorial(e_i)
        table.append((split, multinomial))
    return tuple(table)


def _column_power(column: list[complex], power: int, base: int) -> list[tuple[int, complex]]:
    # (sum_i c_i a_i^dag)^power expanded by the multinomial theorem, each
    # monomial packed as substitute packs them. The multinomial
    # coefficient stays an exact integer before floats enter.
    out = []
    for split, multinomial in _multinomials(power, len(column)):
        coeff = complex(multinomial)
        key, digit = 0, 1
        for c_i, e_i in zip(column, split):
            if e_i:
                coeff *= c_i ** e_i
                key += e_i * digit
            digit *= base
        if coeff != 0j:
            out.append((key, coeff))
    return out


def _multiply(a: dict[int, complex], b: list[tuple[int, complex]]) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for ka, ca in a.items():
        for kb, cb in b:
            key = ka + kb
            out[key] = out.get(key, 0j) + ca * cb
    return out
