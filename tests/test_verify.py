import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from photonpurify import (
    CheckResult,
    ConfigInvalid,
    StateVector,
    permanent,
    permanent_naive,
    run_checks,
)
from photonpurify import verify
from photonpurify.verify import (
    amplitude_distance,
    check_dominance,
    check_norm_preservation,
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
             "outcome_distribution", lambda s, modes: {modes: NAN}),
            (lambda: verify.check_permanent_vs_oracle(np.random.default_rng(0), 3),
             "permanent_naive", lambda m: complex(NAN, 0.0)),
            (lambda: verify.check_apply_vs_oracle(np.random.default_rng(0), 3),
             "amplitude_distance", lambda a, b: NAN),
            (verify.check_purity_grid, "run_scheme",
             lambda in1, in2: SimpleNamespace(degenerate=False, output_fidelity=NAN)),
        ],
        ids=["norm-preservation", "permanent-vs-oracle", "apply-vs-oracle", "purity-grid"],
    )
    def test_nan_defect_fails(self, monkeypatch, check, target, fake):
        monkeypatch.setattr(verify, target, fake)
        result = check()
        assert not result.passed
        assert "nan" in result.detail

    def test_trials_validation(self):
        with pytest.raises(ConfigInvalid):
            run_checks(seed=0, trials=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 99991])
    def test_many_seeds_pass(self, seed):
        assert all(r.passed for r in run_checks(seed=seed, trials=25))
