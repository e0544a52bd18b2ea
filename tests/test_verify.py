import dataclasses
import itertools
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from photonpurify import (
    CheckResult,
    ConfigInvalid,
    NotSquare,
    StateVector,
    input_from_probability,
    normalize,
    permanent,
    permanent_naive,
    run_checks,
    run_scheme,
    sector_occupations,
)
from photonpurify import verify
from photonpurify.verify import (
    amplitude_distance,
    check_dominance,
    check_norm_preservation,
    check_purity_grid,
    check_unitarity,
    random_matrix,
    random_state,
    random_unitary,
)

NAN = float("nan")

CHECK_NAMES = [
    "unitarity",
    "norm-preservation",
    "permanent-vs-oracle",
    "apply-vs-oracle",
    "purity-grid",
    "dominance",
]


class TestHelpers:
    def test_permanent_naive_known_values(self):
        assert permanent_naive(np.array([[1.0, 2.0], [3.0, 4.0]])) == 10
        assert permanent_naive(np.ones((3, 3))) == 6
        assert permanent_naive(np.eye(4)) == 1

    @pytest.mark.parametrize("m", [np.arange(6.0).reshape(2, 3), np.arange(3.0)],
                             ids=["2x3", "1-d"])
    def test_permanent_naive_rejects_non_square_like_permanent(self, m):
        with pytest.raises(NotSquare) as naive:
            permanent_naive(m)
        with pytest.raises(NotSquare) as kernel:
            permanent(m)
        assert str(naive.value) == str(kernel.value)

    def test_permanent_naive_agrees_with_kernel(self):
        rng = np.random.default_rng(2)
        for dim in range(1, 6):
            m = random_matrix(rng, dim)
            assert abs(permanent(m) - permanent_naive(m)) < 1e-12

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3, 5):
            u = random_unitary(rng, dim).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

    def test_random_state_is_normalized_and_full(self):
        rng = np.random.default_rng(5)
        s = random_state(rng, 2, 3)
        assert abs(s.norm_squared - 1.0) < 1e-12
        photons = {sum(occ) for occ in s.amps}
        assert photons == {0, 1, 2, 3}

    def test_random_state_draws_each_part_in_turn(self):
        """The seeded stream is read as one rng.normal() per part, real then
        imaginary, occupation by occupation: verify's inputs, and so its
        output, stay those of that loop."""
        for seed, modes, max_photons in [(0, 1, 0), (5, 2, 3), (9, 3, 4), (11, 4, 2)]:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            amps = {
                occ: complex(ref.normal(), ref.normal())
                for photons in range(max_photons + 1)
                for occ in sector_occupations(photons, modes)
            }
            expected, _ = normalize(StateVector(modes, amps))
            assert repr(random_state(rng, modes, max_photons)) == repr(expected)
            assert rng.normal() == ref.normal()

    def test_random_matrix_entries_bounded(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 6)
        assert np.max(np.abs(m)) <= 1.0

    def test_amplitude_distance(self):
        a = random_state(np.random.default_rng(11), 2, 2)
        assert amplitude_distance(a, a) == 0.0


class TestRunChecks:
    def test_all_pass_with_default_seed(self):
        results = run_checks(seed=0, trials=50)
        assert [r.name for r in results] == CHECK_NAMES
        assert all(isinstance(r, CheckResult) for r in results)
        assert all(r.passed for r in results)

    def test_details_carry_numbers(self):
        for r in run_checks(seed=1, trials=10):
            assert any(ch.isdigit() for ch in r.detail)

    def test_reproducible(self):
        first = run_checks(seed=42, trials=20)
        second = run_checks(seed=42, trials=20)
        assert [(r.name, r.passed, r.detail) for r in first] == [
            (r.name, r.passed, r.detail) for r in second
        ]

    def test_seed_changes_details(self):
        a = run_checks(seed=0, trials=20)
        b = run_checks(seed=1, trials=20)
        assert any(x.detail != y.detail for x, y in zip(a, b))

    def test_fault_injection_fails_norm_preservation(self, monkeypatch):
        real_apply = verify.apply

        def leaky_apply(u, s):
            out = real_apply(u, s)
            return StateVector(out.modes, {k: 1.001 * a for k, a in out.amps.items()})

        monkeypatch.setattr(verify, "apply", leaky_apply)
        result = check_norm_preservation(np.random.default_rng(0), trials=20)
        assert result.name == "norm-preservation"
        assert not result.passed

    def test_package_import_leaves_sweep_unloaded(self):
        # check_purity_grid imports sweep when it runs: at the top of verify,
        # sweep and json would load on every start-up.
        code = "import sys, photonpurify; print(sorted({'json', 'photonpurify.sweep'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.stdout == "[]\n", proc.stderr

    def test_purity_grid_equals_run_scheme_per_point(self):
        """The sweep route reports the same worst deficit as ``run_scheme``
        called on each of the 1,600 points (the sweep's batch equals
        ``run_scheme`` bit for bit; ``test_scheme_reference`` checks that)."""
        ps = np.linspace(0.05, 0.95, 10)
        phases = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
        deficits = [
            1.0 - result.output_fidelity
            for p1, p2, ph1, ph2 in itertools.product(ps, ps, phases, phases)
            for result in [
                run_scheme(
                    input_from_probability(float(p1), float(ph1)),
                    input_from_probability(float(p2), float(ph2)),
                )
            ]
            if not result.degenerate
        ]
        worst = float(np.max(deficits, initial=0.0))
        assert check_purity_grid().detail == f"max fidelity deficit {worst:.3e} on 10x10x4x4 grid"

    def test_purity_grid_builds_no_rows(self, monkeypatch):
        """The check reads the walk's columns: it passes, with the same
        detail, when building a row dict would fail."""
        from photonpurify import sweep

        detail = check_purity_grid().detail

        def forbidden(*args):
            raise AssertionError("row dicts built")

        monkeypatch.setattr(sweep, "sweep_rows", forbidden)
        result = check_purity_grid()
        assert result.passed
        assert result.detail == detail

    def test_wrong_success_fails_dominance(self, monkeypatch):
        real_run_scheme = verify.run_scheme

        def inflated(in1, in2):
            result = real_run_scheme(in1, in2)
            return dataclasses.replace(result, p_success=1.001 * result.p_success)

        monkeypatch.setattr(verify, "run_scheme", inflated)
        result = check_dominance(np.random.default_rng(0))
        assert result.name == "dominance"
        assert not result.passed

    def test_non_unitary_splitter_fails_unitarity(self, monkeypatch):
        skewed = SimpleNamespace(matrix=np.array([[1, 1e-6], [0, 1]], dtype=np.complex128))
        monkeypatch.setattr(verify, "beamsplitter", lambda params: skewed)
        result = check_unitarity(np.random.default_rng(0), trials=5)
        assert result.name == "unitarity"
        assert not result.passed

    @pytest.mark.parametrize(
        "check, target, fake",
        [
            (lambda: verify.check_norm_preservation(np.random.default_rng(0), 3),
             "photonpurify.verify.outcome_distribution", lambda s, modes: {modes: NAN}),
            (lambda: verify.check_permanent_vs_oracle(np.random.default_rng(0), 3),
             "photonpurify.verify.permanent_naive", lambda m: complex(NAN, 0.0)),
            (lambda: verify.check_apply_vs_oracle(np.random.default_rng(0), 3),
             "photonpurify.verify.amplitude_distance", lambda a, b: NAN),
            # check_purity_grid imports _walk from sweep when it runs.
            (verify.check_purity_grid, "photonpurify.sweep._walk",
             lambda cfg, axis: iter([([[0.5]] * 4, [[0.0], [0.0], [0.25], [NAN], [False]])])),
        ],
        ids=["norm-preservation", "permanent-vs-oracle", "apply-vs-oracle", "purity-grid"],
    )
    def test_nan_defect_fails(self, monkeypatch, check, target, fake):
        monkeypatch.setattr(target, fake)
        result = check()
        assert not result.passed
        assert "nan" in result.detail

    def test_trials_validation(self):
        with pytest.raises(ConfigInvalid):
            run_checks(seed=0, trials=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 99991])
    def test_many_seeds_pass(self, seed):
        assert all(r.passed for r in run_checks(seed=seed, trials=25))
