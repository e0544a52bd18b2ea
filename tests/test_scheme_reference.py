"""Bit-identity of the scheme's scalar stages against the generic Fock engine.

``run_scheme`` and ``stage_two`` evaluate the two-photon circuit on
complex scalars. The reference below rebuilds the same circuit from the
public generic engine (``tensor``, ``apply``, ``condition``), and every
result must match it exactly, compared by ``repr`` so that the last bit
and the sign of a zero count. Further tests keep the scalar path scalar:
no numpy splitter and one ``StateVector``, the heralded output, per call.
The last ones hold the sweeps' vectorized batch to ``run_scheme`` in the
same way, errors included.
"""

import cmath
import math
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpurify import (
    BeamSplitterParams,
    InputState,
    InterferometerUnitary,
    NotUnitary,
    StageOneCoefficients,
    StateVector,
    apply,
    beamsplitter,
    condition,
    fidelity,
    fock,
    fock_state,
    input_from_probability,
    input_to_state,
    normalize,
    optics,
    run_scheme,
    scheme,
    solve_cancellation,
    stage_two,
    tensor,
    vacuum,
)
from photonpurify.fock import PRUNE_THRESHOLD
from photonpurify.optics import beamsplitter_matrix, check_unitary_2x2
from photonpurify.scheme import (
    CANCELLATION_VACUOUS,
    NO_PHOTON_PAIR,
    NO_VACUUM_AMPLITUDE,
    SchemeResult,
)
from photonpurify.sweep import RangeSpec
from seeded_pairs import edge_pairs, scalar_path_pairs

BALANCED = BeamSplitterParams(math.pi / 4, 0.0)


def reference_herald(c_state: StateVector, bs2: BeamSplitterParams):
    # Stage 2 on (vacuum ancilla, conditioned mode), detecting one photon
    # at the conditioned mode's port.
    return condition(apply(beamsplitter(bs2), tensor(vacuum(1), c_state)), {1: 1})


def reference_run(in1, in2) -> SchemeResult:
    params, vacuous = solve_cancellation(in1, in2)
    joint = tensor(input_to_state(in1), input_to_state(in2))
    stage1 = condition(apply(beamsplitter(params), joint), {1: 0})
    heralded = stage1 if stage1.state is None else reference_herald(stage1.state, BALANCED)
    fid = 0.0 if heralded.state is None else fidelity(heralded.state, fock_state((1,)))
    reasons = tuple(
        reason
        for reason, hit in (
            (NO_PHOTON_PAIR, in1.beta * in2.beta == 0),
            (NO_VACUUM_AMPLITUDE, in1.alpha * in2.alpha == 0),
            (CANCELLATION_VACUOUS, vacuous),
        )
        if hit
    )
    return SchemeResult(
        lambda1=params,
        lambda2=BALANCED,
        stage_one_probability=stage1.probability,
        stage_two_probability=heralded.probability,
        p_success=stage1.probability * heralded.probability,
        output_fidelity=fid,
        degenerate=bool(reasons),
        degenerate_reasons=reasons,
        output_state=heralded.state,
    )


def assert_same_run(p1, p2, phase1=0.0, phase2=0.0):
    in1 = input_from_probability(p1, phase1)
    in2 = input_from_probability(p2, phase2)
    got, want = run_scheme(in1, in2), reference_run(in1, in2)
    for field in fields(SchemeResult):
        name = field.name
        assert repr(getattr(got, name)) == repr(getattr(want, name)), (name, p1, p2, phase1, phase2)
    if want.output_state is not None:
        # The state's repr lists its amplitudes; compare them one by one too.
        assert list(got.output_state.amps) == list(want.output_state.amps)
        for occ, amp in want.output_state.amps.items():
            assert repr(got.output_state.amps[occ]) == repr(amp), (occ, p1, p2, phase1, phase2)


def grid(steps, lo=0.0, hi=1.0):
    return RangeSpec(lo, hi, steps).points()


def test_default_sweep_grid():
    for p1 in grid(11):
        for p2 in grid(11):
            assert_same_run(p1, p2)


def test_pinned_phase_grid():
    phases = grid(4, -math.pi, math.pi)
    for p1 in grid(21):
        for p2 in grid(21):
            for phase1 in phases:
                for phase2 in phases:
                    assert_same_run(p1, p2, phase1, phase2)


@pytest.mark.parametrize("p1", [0.0, 1.0])
@pytest.mark.parametrize("p2", [0.0, 1.0])
@pytest.mark.parametrize("phase1", [-math.pi, math.pi])
@pytest.mark.parametrize("phase2", [-math.pi, math.pi])
def test_corners_at_phase_pi(p1, p2, phase1, phase2):
    assert_same_run(p1, p2, phase1, phase2)


# Inputs where run_scheme and the exact success disagree today (ROADMAP
# item 2). The scalar stages must reproduce the generic route's values.
@pytest.mark.parametrize(
    "p1, p2", [(1e-20, 0.5), (1e-12, 1.0 - 1e-12), (1.0 - 7.3e-15, 1.35e-14)]
)
def test_edge_accuracy_reproducers(p1, p2):
    assert_same_run(p1, p2)


edge_probability = st.one_of(
    st.floats(-30.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-30.0, 0.0).map(lambda e: 1.0 - 10.0**e),
    st.floats(0.0, 1.0),
)
phase = st.floats(-math.pi, math.pi)


@given(edge_probability, edge_probability, phase, phase)
@settings(max_examples=300, deadline=None)
def test_matches_reference_near_the_edges(p1, p2, phase1, phase2):
    assert_same_run(p1, p2, phase1, phase2)


def assert_same_stage_two(c: StageOneCoefficients, bs2: BeamSplitterParams):
    got = stage_two(c, bs2)
    raw = {(0,): complex(c.c0), (2,): complex(c.c2)}
    if all(abs(z) < PRUNE_THRESHOLD for z in raw.values()):
        # StateVector would refuse the all-pruned state; stage_two reports
        # a detector that can never fire.
        assert got == (0.0, None)
        return
    c_state, _ = normalize(StateVector(1, raw))
    want = reference_herald(c_state, bs2)
    assert repr(got) == repr((want.probability, want.state))


def test_stage_two_matches_reference():
    rng = np.random.default_rng(9)
    for i in range(2000):
        c0, c2 = (complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-16, 0) for _ in range(2))
        c1 = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-20, -12)
        theta = (0.0, math.pi / 4, math.pi / 2, rng.uniform(0, math.pi / 2))[i % 4]
        bs2 = BeamSplitterParams(theta, rng.uniform(-math.pi, math.pi))
        assert_same_stage_two(StageOneCoefficients(c0, c1, c2), bs2)


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, 0.3])
@pytest.mark.parametrize(
    "c0, c2", [(1.0, 0.0), (0.0, 1.0), (1e-14, 0.5), (0.5, 1e-14), (1e-14, 1e-14), (9.9e-15, 9.9e-15)]
)
def test_stage_two_matches_reference_at_the_prune_threshold(theta, c0, c2):
    assert_same_stage_two(StageOneCoefficients(c0, 0.0, c2), BeamSplitterParams(theta, 0.4))


@pytest.fixture
def constructions(monkeypatch):
    """Count StateVector and InterferometerUnitary constructions."""
    counts = {"StateVector": 0, "InterferometerUnitary": 0}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(StateVector, "__post_init__", counting("StateVector", StateVector.__post_init__))
    monkeypatch.setattr(
        InterferometerUnitary,
        "__init__",
        counting("InterferometerUnitary", InterferometerUnitary.__init__),
    )
    return counts


def test_scalar_path_builds_only_the_heralded_state(constructions):
    phases = (-math.pi, 0.0, 1.3, math.pi)
    pairs = [
        (input_from_probability(p1, ph1), input_from_probability(p2, ph2))
        for p1 in [*grid(6), 1e-20, 1.0 - 1e-12]
        for p2 in grid(6)
        for ph1 in phases
        for ph2 in phases
    ]
    heralded = 0
    for in1, in2 in pairs:
        constructions["StateVector"] = 0
        result = run_scheme(in1, in2)
        expected = 0 if result.output_state is None else 1
        heralded += expected
        assert constructions == {"StateVector": expected, "InterferometerUnitary": 0}
    assert 0 < heralded < len(pairs)

    rng = np.random.default_rng(4)
    heralded = 0
    for i in range(200):
        c0, c2 = (complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-15, 0) for _ in range(2))
        bs2 = BeamSplitterParams((0.0, math.pi / 4, math.pi / 2, 0.3)[i % 4], rng.uniform(-math.pi, math.pi))
        constructions["StateVector"] = 0
        _, state = stage_two(StageOneCoefficients(c0, 0j, c2), bs2)
        expected = 0 if state is None else 1
        heralded += expected
        assert constructions == {"StateVector": expected, "InterferometerUnitary": 0}
    assert 0 < heralded < 200


def test_scalar_splitter_matches_numpy_splitter():
    rng = np.random.default_rng(5)
    thetas = (0.0, math.pi / 4, math.pi / 2, rng.uniform(0, math.pi / 2))
    phis = (-math.pi, 0.0, math.pi, rng.uniform(-math.pi, math.pi))
    for theta in thetas:
        for phi in phis:
            params = BeamSplitterParams(theta, phi)
            scalar = [list(row) for row in beamsplitter_matrix(params)]
            assert repr(scalar) == repr(beamsplitter(params).matrix.tolist()), params
            assert all(type(z) is complex for row in scalar for z in row)


@pytest.mark.parametrize(
    "m",
    [
        [[1.0, 0.0], [0.0, 1.0 + 1e-9]],
        [[1.0, 1e-9], [0.0, 1.0]],
        [[0.6, 0.8], [0.8, 0.6]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, complex(0.0, math.nan)]],
    ],
)
def test_scalar_unitarity_check_rejects_what_the_numpy_check_rejects(m):
    with pytest.raises(NotUnitary):
        InterferometerUnitary(m)
    with pytest.raises(NotUnitary):
        check_unitary_2x2([[complex(z) for z in row] for row in m])


def test_scalar_unitarity_check_accepts_within_tolerance():
    check_unitary_2x2([[1.0 + 0j, 0j], [0j, 1.0 + 4e-11]])
    check_unitary_2x2(beamsplitter_matrix(BeamSplitterParams(0.7, -2.0)))


# The sweep's batch (``scheme._run_batch``) against ``run_scheme``, field
# by field: the golden pin's pairs, the smallest probabilities, signed zero
# phases and a large seeded set, which spans many batch chunks.


def batch_values(states, index) -> list[tuple]:
    # _run_batch's fields per pair, in scalar_fields' order.
    got = []
    for chunk in scheme._run_batch(states, index):
        values = [column.tolist() for column in chunk[:6]] + [chunk.degenerate.tolist(), chunk.degenerate_reasons()]
        got += zip(*values)
    return got


def batch_and_scalar(pairs):
    states = [input_from_probability(p, phase) for p1, p2, h1, h2 in pairs for p, phase in ((p1, h1), (p2, h2))]
    index = np.arange(len(states)).reshape(-1, 2)
    want = [run_scheme(states[i], states[j]) for i, j in index.tolist()]
    return batch_values(states, index), want


BATCH_FIELDS = (
    "theta",
    "phi",
    "stage_one_probability",
    "stage_two_probability",
    "p_success",
    "output_fidelity",
    "degenerate",
    "degenerate_reasons",
)


def scalar_fields(result: SchemeResult) -> tuple:
    return (result.lambda1.theta, result.lambda1.phi) + tuple(
        getattr(result, name) for name in BATCH_FIELDS[2:]
    )


def test_batch_matches_run_scheme_field_by_field():
    pairs = scalar_path_pairs(random.Random(20261019))
    tiny = (0.0, 1e-300, 5e-324, 0.5, 1.0)
    phases = (0.0, -0.0, math.pi, -math.pi)
    pairs += [(p1, p2, h1, h2) for p1 in tiny for p2 in tiny for h1 in phases for h2 in phases]
    pairs += edge_pairs(random.Random(14), 40_000)
    got, want = batch_and_scalar(pairs)
    assert len(got) == len(want) == len(pairs) > 10 * scheme._BATCH_CHUNK
    mismatches = {name: 0 for name in BATCH_FIELDS}
    for pair, values, result in zip(pairs, got, want):
        for name, value, expected in zip(BATCH_FIELDS, values, scalar_fields(result)):
            assert type(value) is type(expected), (name, pair)
            mismatches[name] += repr(value) != repr(expected)
    assert mismatches == {name: 0 for name in BATCH_FIELDS}
    # The set reaches every branch: each reason, and pairs with and
    # without a herald.
    assert {r for values in got for r in values[-1]} == {
        NO_PHOTON_PAIR,
        NO_VACUUM_AMPLITUDE,
        CANCELLATION_VACUOUS,
    }
    assert {values[5] == 0.0 for values in got} == {True, False}


def test_heralded_output_has_unit_norm():
    # The fidelity divides by the heralded state's squared norm without
    # checking it: those are the unit amplitudes stage 2 has just scaled,
    # and the batch equals run_scheme field by field (above).
    pairs = scalar_path_pairs(random.Random(20261019)) + edge_pairs(random.Random(14), 5_000)
    states = [
        run_scheme(input_from_probability(p1, h1), input_from_probability(p2, h2)).output_state
        for p1, p2, h1, h2 in pairs
    ]
    drifts = [abs(s.norm_squared - 1.0) for s in states if s is not None]
    assert len(drifts) > 2_000
    assert max(drifts) <= 1e-14


def test_batch_reads_the_prune_threshold_from_fock(monkeypatch):
    # Patching fock's constant alone moves both paths: at 1e-3 many more
    # amplitudes are pruned, and the batch still equals run_scheme.
    pairs = scalar_path_pairs(random.Random(20261019))
    _, default = batch_and_scalar(pairs)
    monkeypatch.setattr(fock, "PRUNE_THRESHOLD", 1e-3)
    got, want = batch_and_scalar(pairs)
    assert [scalar_fields(r) for r in want] != [scalar_fields(r) for r in default]
    for pair, values, result in zip(pairs, got, want):
        assert [repr(v) for v in values] == [repr(v) for v in scalar_fields(result)], pair


def first_scalar_error(states, index):
    # (position, error type, message) of the first pair run_scheme rejects.
    for k, (i, j) in enumerate(index.tolist()):
        try:
            run_scheme(states[i], states[j])
        except Exception as exc:  # noqa: BLE001 - any error, compared below
            return k, type(exc), str(exc)
    raise AssertionError("no pair fails")


def test_batch_raises_the_first_unitarity_failure_like_run_scheme(monkeypatch):
    # At a zero tolerance only the exact splitters of (1, 0) and (0, 1)
    # pass; every later pair fails with its own defect.
    # Only optics' constant is patched: the batch reads it from there.
    monkeypatch.setattr(optics, "UNITARITY_TOL", 0.0)
    states = [input_from_probability(p, 0.4) for p in (1.0, 0.0, 0.25, 0.5, 0.75)]
    index = np.array([(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
    k, kind, message = first_scalar_error(states, index)
    assert (k, kind) == (2, NotUnitary)
    with pytest.raises(NotUnitary) as info:
        for _ in scheme._run_batch(states, index):
            pass
    assert str(info.value) == message


def unchecked_input(alpha: complex, beta: complex) -> InputState:
    # InputState refuses a non-finite amplitude; build one around the check.
    state = object.__new__(InputState)
    object.__setattr__(state, "alpha", alpha)
    object.__setattr__(state, "beta", beta)
    return state


@pytest.mark.parametrize(
    "in1, in2, kind, words",
    [
        # A non-finite amplitude, which _stored rejects.
        (input_from_probability(0.6), unchecked_input(complex(math.inf, 0.0), 0j), ValueError, "non-finite"),
    ],
)
def test_batch_raises_a_failure_past_the_first_chunk_like_run_scheme(in1, in2, kind, words):
    states = [input_from_probability(0.3, 0.2), in1, in2]
    rows = [(0, 1)] * (scheme._BATCH_CHUNK + 5) + [(1, 2), (2, 0)]
    index = np.array(rows)
    k, got_kind, message = first_scalar_error(states, index)
    assert (k, got_kind) == (len(rows) - 2, kind) and words in message
    chunks = scheme._run_batch(states, index)
    next(chunks)
    with pytest.raises(kind) as info:
        next(chunks)
    assert str(info.value) == message


def test_cancellation_ratio_past_the_float_range_gives_a_right_angle():
    # -t1 / t2 has finite parts near -1.41e308, so its modulus overflows:
    # Python's abs raises OverflowError, numpy's hypot gives inf, and the
    # angle is atan(inf) = pi/2 on both paths.
    in1, in2 = InputState(1e-200, cmath.exp(1j * math.pi / 4)), InputState(1.0, 5e-109)
    assert run_scheme(in1, in2).lambda1.theta == solve_cancellation(in1, in2)[0].theta == math.pi / 2
    assert math.isfinite(scheme.closed_form_success(in1, in2))
    states = [in1, in2]
    index = np.array([(0, 1), (1, 0)])
    for (i, j), values in zip(index.tolist(), batch_values(states, index)):
        want = scalar_fields(run_scheme(states[i], states[j]))
        assert [repr(v) for v in values] == [repr(v) for v in want], (i, j)
