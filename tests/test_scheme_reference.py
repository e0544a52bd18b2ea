"""Bit-identity of the scheme's scalar stages against the generic Fock engine.

``run_scheme`` evaluates the two-photon circuit on complex scalars. The
reference below rebuilds the same circuit from the public generic engine
(``tensor``, ``apply``, ``condition``), and every result must match it
exactly, compared by ``repr`` so that the last bit and the sign of a zero
count. That engine is also the route for a Lambda' other than the 50/50
optimum, and two tests hold its stage 2 at any Lambda' to the closed
form, down to the prune threshold. Further tests keep the scalar path
scalar: no numpy splitter and one ``StateVector``, the heralded output,
per call. The last ones hold the sweeps' vectorized batch to
``run_scheme`` in the same way, on any valid pair of inputs.
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
    StateVector,
    apply,
    beamsplitter,
    condition,
    fidelity,
    fock,
    fock_state,
    input_from_probability,
    input_to_state,
    run_scheme,
    scheme,
    solve_cancellation,
    tensor,
)
from photonpurify.errors import ZeroState
from photonpurify.fock import PRUNE_THRESHOLD
from photonpurify.optics import beamsplitter_matrix
from photonpurify.scheme import (
    CANCELLATION_VACUOUS,
    NO_PHOTON_PAIR,
    NO_VACUUM_AMPLITUDE,
    SchemeResult,
)
from photonpurify.sweep import RangeSpec
from circuit import conditioned_mode, reference_herald
from seeded_pairs import edge_pairs, scalar_path_pairs

BALANCED = BeamSplitterParams(math.pi / 4, 0.0)


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


def assert_stage_two_matches_closed_form(c0, c2, bs2: BeamSplitterParams):
    # The engine's stage 2 on the mode c0 |0> + c2 |2> against
    # 2 w cos^2(theta2) sin^2(theta2), w = |c2|^2 / (|c0|^2 + |c2|^2) over
    # the amplitudes the mode keeps: equal to 1e-12, or 0.0 where the
    # heralding amplitude, below the prune threshold, is pruned. Whatever
    # it heralds is exactly |1>.
    raw = {(0,): complex(c0), (2,): complex(c2)}
    kept = [abs(z) if abs(z) >= PRUNE_THRESHOLD else 0.0 for z in raw.values()]
    if not any(kept):
        with pytest.raises(ZeroState):  # the engine refuses the all-pruned mode
            StateVector(1, raw)
        return
    got = reference_herald(conditioned_mode(c0, c2), bs2)
    weight = kept[1] ** 2 / (kept[0] ** 2 + kept[1] ** 2)
    sc = math.sin(bs2.theta) * math.cos(bs2.theta)
    want = 2 * weight * sc * sc
    assert got.probability == pytest.approx(want, rel=1e-12, abs=2 * PRUNE_THRESHOLD**2)
    assert got.state is None or set(got.state.amps) == {(1,)}


def test_stage_two_matches_reference():
    rng = np.random.default_rng(9)
    for i in range(2000):
        c0, c2 = (complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-16, 0) for _ in range(2))
        theta = (0.0, math.pi / 4, math.pi / 2, rng.uniform(0, math.pi / 2))[i % 4]
        bs2 = BeamSplitterParams(theta, rng.uniform(-math.pi, math.pi))
        assert_stage_two_matches_closed_form(c0, c2, bs2)


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, 0.3])
@pytest.mark.parametrize(
    "c0, c2", [(1.0, 0.0), (0.0, 1.0), (1e-14, 0.5), (0.5, 1e-14), (1e-14, 1e-14), (9.9e-15, 9.9e-15)]
)
def test_stage_two_matches_reference_at_the_prune_threshold(theta, c0, c2):
    assert_stage_two_matches_closed_form(c0, c2, BeamSplitterParams(theta, 0.4))


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
    # beamsplitter hands InterferometerUnitary nested rows of Python
    # complexes, the form beamsplitter_matrix returns; that form is
    # rejected exactly as the numpy array is.
    with pytest.raises(NotUnitary):
        InterferometerUnitary(np.array(m))
    with pytest.raises(NotUnitary):
        InterferometerUnitary([[complex(z) for z in row] for row in m])


# The sweep's batch (``scheme._run_batch``) against ``run_scheme``, field
# by field: the golden pin's pairs, the smallest probabilities, signed zero
# phases and a large seeded set, all in one call.


def batch_values(states, index) -> list[tuple]:
    # One _run_batch call on the amplitudes of the pairs ``index`` names:
    # its five columns per pair, in scalar_fields' order.
    alpha, beta = np.array([(s.alpha, s.beta) for s in states], dtype=complex).T
    i, j = index.T
    columns = scheme._run_batch(alpha[i], beta[i], alpha[j], beta[j])
    return list(zip(*(column.tolist() for column in columns)))


def batch_and_scalar(pairs):
    states = [input_from_probability(p, phase) for p1, p2, h1, h2 in pairs for p, phase in ((p1, h1), (p2, h2))]
    index = np.arange(len(states)).reshape(-1, 2)
    want = [run_scheme(states[i], states[j]) for i, j in index.tolist()]
    return batch_values(states, index), want


BATCH_FIELDS = ("theta", "phi", "p_success", "output_fidelity", "degenerate")


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
    assert len(got) == len(want) == len(pairs) > 20_000
    mismatches = {name: 0 for name in BATCH_FIELDS}
    for pair, values, result in zip(pairs, got, want):
        for name, value, expected in zip(BATCH_FIELDS, values, scalar_fields(result)):
            assert type(value) is type(expected), (name, pair)
            mismatches[name] += repr(value) != repr(expected)
    assert mismatches == {name: 0 for name in BATCH_FIELDS}
    # The set reaches every branch: each of run_scheme's reasons for the
    # same pairs, and pairs with and without a herald.
    assert {r for result in want for r in result.degenerate_reasons} == {
        NO_PHOTON_PAIR,
        NO_VACUUM_AMPLITUDE,
        CANCELLATION_VACUOUS,
    }
    assert {values[3] == 0.0 for values in got} == {True, False}


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


def assert_batch_is_run_scheme(states, index):
    for (i, j), values in zip(index.tolist(), batch_values(states, index)):
        want = scalar_fields(run_scheme(states[i], states[j]))
        assert [repr(v) for v in values] == [repr(v) for v in want], (i, j)


def test_cancellation_ratio_past_the_float_range_gives_a_right_angle():
    # -t1 / t2 has finite parts near -1.41e308, so its modulus overflows:
    # Python's abs raises OverflowError, numpy's hypot gives inf, and the
    # angle is atan(inf) = pi/2 on both paths.
    in1, in2 = InputState(1e-200, cmath.exp(1j * math.pi / 4)), InputState(1.0, 5e-109)
    assert run_scheme(in1, in2).lambda1.theta == solve_cancellation(in1, in2)[0].theta == math.pi / 2
    assert math.isfinite(scheme.closed_form_success(in1, in2))
    assert_batch_is_run_scheme([in1, in2], np.array([(0, 1), (1, 0)]))


def unit_direction():
    # e^{i t} at any phase, or a unit on an axis with signed-zero parts.
    axes = [complex(x, y) for u in (1.0, -1.0) for z in (0.0, -0.0) for x, y in ((u, z), (z, u))]
    return st.one_of(st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t)), st.sampled_from(axes))


@st.composite
def valid_inputs(draw):
    # One amplitude of modulus log-uniform down to 5e-324 (or exactly 0
    # or 1), the other of modulus sqrt(1 - m^2), either way round, each
    # at its own phase; built part by part so that a zero keeps its sign.
    m = draw(st.one_of(st.floats(-323.3, 0.0).map(lambda e: max(10.0**e, 5e-324)), st.sampled_from([0.0, 1.0])))
    moduli = (m, math.sqrt(1.0 - m * m))
    if draw(st.booleans()):
        moduli = moduli[::-1]
    (r1, r2), d1, d2 = moduli, draw(unit_direction()), draw(unit_direction())
    return InputState(complex(r1 * d1.real, r1 * d1.imag), complex(r2 * d2.real, r2 * d2.imag))


@given(valid_inputs(), valid_inputs())
@settings(max_examples=300, deadline=None)
def test_batch_matches_run_scheme_on_any_valid_inputs(in1, in2):
    # The batch checks nothing per pair: every valid InputState passes
    # every check of run_scheme, and the batch gives its bits.
    assert_batch_is_run_scheme([in1, in2], np.array([(0, 1), (1, 0), (0, 0), (1, 1)]))
