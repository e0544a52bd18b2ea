"""Seeded input pairs shared by the golden pin of the scheme's scalar path
and the batch's equivalence test.

A pair is ``(p1, p2, phase1, phase2)``, the arguments of
``input_from_probability`` for each input.
"""

import math
import random


def edge_probability(rng: random.Random) -> float:
    # Log-uniform p, log-uniform 1 - p, or uniform p, one third each.
    kind = rng.randrange(3)
    if kind == 2:
        return rng.random()
    p = 10.0 ** rng.uniform(-30.0, 0.0)
    return 1.0 - p if kind else p


def edge_pairs(rng: random.Random, count: int) -> list[tuple[float, float, float, float]]:
    """``count`` pairs of edge probabilities at uniform phases on [-pi, pi]."""
    return [
        (
            edge_probability(rng),
            edge_probability(rng),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi, math.pi),
        )
        for _ in range(count)
    ]


def scalar_path_pairs(rng: random.Random) -> list[tuple[float, float, float, float]]:
    """ROADMAP item 2's three edge-accuracy reproducers, 300 edge pairs
    drawn from ``rng``, and the p in {0, 1}, phase +-pi corners."""
    pairs = [(1e-20, 0.5, 0.0, 0.0), (1e-12, 1.0 - 1e-12, 0.0, 0.0), (1.0 - 7.3e-15, 1.35e-14, 0.0, 0.0)]
    pairs += edge_pairs(rng, 300)
    corners = [(p, phase) for p in (0.0, 1.0) for phase in (-math.pi, math.pi)]
    pairs += [(p1, p2, phase1, phase2) for p1, phase1 in corners for p2, phase2 in corners]
    return pairs
