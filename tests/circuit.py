"""The circuit's stages written out for tests, apart from the package's own
stages: stage 1's amplitudes in closed form, and stage 2 at any Lambda' on
the generic engine, the route for a Lambda' other than the 50/50 optimum.
"""

import math

from photonpurify import StateVector, apply, beamsplitter, condition, normalize, tensor, vacuum


def stage_one_closed_form(in1, in2, bs):
    """The ``scheme`` module docstring's unnormalized (c0, c1, c2) left on
    the undetected mode by inputs ``in1``, ``in2`` and Lambda = ``bs``."""
    (m00, m01), _ = beamsplitter(bs).matrix
    c0 = in1.alpha * in2.alpha
    c1 = in2.alpha * in1.beta * m00 + in1.alpha * in2.beta * m01
    c2 = math.sqrt(2.0) * in1.beta * in2.beta * m00 * m01
    return complex(c0), complex(c1), complex(c2)


def squared_norm(amps):
    return sum(abs(z) ** 2 for z in amps)


def reference_herald(c_state, bs2):
    """Stage 2 of the conditioned mode ``c_state`` through Lambda' = ``bs2``
    on the generic engine: the vacuum ancilla on mode 0, one photon
    detected at the conditioned mode's port, mode 1."""
    return condition(apply(beamsplitter(bs2), tensor(vacuum(1), c_state)), {1: 1})


def conditioned_mode(c0, c2):
    """The unit-norm stage-1 mode with amplitudes c0 |0> + c2 |2>."""
    state, _ = normalize(StateVector(1, {(0,): complex(c0), (2,): complex(c2)}))
    return state
