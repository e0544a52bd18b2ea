"""Every square on a result path is ``h * h``, one IEEE-754 multiply.

A float ``** 2`` calls the C library's ``pow``, which need not be
correctly rounded: at ``B`` below, glibc's gives 0.14286043973506585 where
``B * B`` is 0.14286043973506582. Each result here must equal the value
written with multiplies, whatever ``pow`` the platform has. Squares that
overflow are checked too: on scalars they raise ``AmplitudeOverflow``, and
on the sweep batch's lanes, which valid inputs keep far below that, they
come out as inf without raising.
"""

import math

import numpy as np
import pytest

from photonpurify import (
    AmplitudeOverflow,
    InputState,
    closed_form_success,
    fidelity,
    fock_state,
    input_to_state,
    outcome_distribution,
    run_scheme,
)
from photonpurify.fock import _normalized, _squared_norm
from photonpurify.optics import _Lanes

B = 0.37796883434360806
A = math.sqrt(1.0 - B * B)
STATE = InputState(A, B)


def test_input_probability():
    assert STATE.p == B * B


def test_squared_norm():
    assert _squared_norm((B,)) == B * B
    assert _squared_norm((STATE.alpha, STATE.beta)) == 0.0 + A * A + B * B


def test_fidelity():
    assert fidelity(input_to_state(STATE), fock_state((1,))) == B * B / (0.0 + A * A + B * B)


def test_outcome_distribution():
    assert outcome_distribution(input_to_state(STATE), (0,)) == {(0,): A * A, (1,): B * B}


def test_closed_form_success():
    # |1> with STATE solves to theta = pi/2, so sin(theta) is 1 and the
    # product |b1 b2| is B: the result is B^2 cos^2(pi/2).
    c = math.cos(math.pi / 2)
    assert closed_form_success(InputState(0.0, 1.0), STATE) == B * B * (c * c)


def test_one_pair_batch():
    # With vacuum second, stage 1 keeps only the first input's |0>
    # amplitude, B, so its probability is B^2. The batch normalizes its
    # lanes as here (numpy's sqrt, the lanes' prune), squaring with one
    # multiply.
    states = [InputState(B, A), InputState(1.0, 0.0)]
    assert run_scheme(*states).stage_one_probability == B * B
    _, n2, _ = _normalized([_Lanes(np.array([B]), np.array([0.0]))], _Lanes.where, np.sqrt)
    assert n2.tolist() == [B * B]


def test_finite_squares_may_sum_to_inf():
    # Each square is about 1.69e308, finite; only their sum overflows.
    assert _squared_norm((1.3e154, 1.3e154)) == math.inf


def test_infinite_square_raises_on_scalars():
    with pytest.raises(AmplitudeOverflow, match="1.000e[+]200"):
        _squared_norm((1.0, 1e200))


def test_infinite_square_passes_through_lanes():
    # The batch runs its lanes under this errstate.
    amps = [_Lanes(np.array([1.0, 1e200]), np.array([0.0, 0.0]))]
    with np.errstate(all="ignore"):
        n2 = _squared_norm(amps)
    assert n2.tolist() == [1.0, math.inf]
