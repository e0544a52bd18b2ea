"""Tests for the benchmark itself: pins, repeatable counts, the output contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

package = run.import_package()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_default_sweep_matches_golden_hashes(tmp_path):
    tally = workloads.Tally()
    workloads.check_default_sweep_pins(workloads.SweepGrid(package, 0, str(tmp_path)), tally)
    assert tally.errors == []


def test_sweep_grid_matches_golden_hash(tmp_path):
    tally = workloads.SweepGrid(package, 0, str(tmp_path)).traced_pass()
    assert tally.errors == []
    assert (tally.attempted, tally.failed) == (workloads.GRID_POINTS, 0)


def _traced(make):
    tracer = Tracer()
    workload = make()
    with tracer.installed(package):
        tally = workload.traced_pass()
    assert tally.errors == []
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "calls": dict(tracer.calls),
        "kernel_dims": dict(tracer.kernel_dims),
        "pruned": tracer.pruned,
        "condition_null": tracer.condition_null,
        "heralded": tracer.heralded,
    }


@pytest.mark.parametrize("name, make, kernel_used", [
    ("sweep_grid", lambda d: workloads.SweepGrid(package, 3, d), False),
    ("verify_suite", lambda d: workloads.VerifySuite(package, 3, d, trials=12), True),
    ("random_pairs", lambda d: workloads.RandomPairs(package, 3, d, traced_pairs=600), False),
])
def test_traced_counts_repeat_exactly(tmp_path, name, make, kernel_used):
    first = _traced(lambda: make(str(tmp_path)))
    second = _traced(lambda: make(str(tmp_path)))
    assert first == second
    kernel_calls = first["calls"].get("optics.kernel", 0)
    assert (kernel_calls > 0) == kernel_used
    assert sum(first["kernel_dims"].values()) == kernel_calls
    assert first["calls"]["fock.StateVector"] > first["attempted"] > 0


def test_tracer_restores_every_binding():
    def bindings():
        return {
            (name, attr): obj
            for name, module in sys.modules.items()
            if name.startswith("photonpurify")
            for attr, obj in vars(module).items()
        } | {("StateVector", "__post_init__"): vars(package.StateVector)["__post_init__"]}

    before = bindings()
    tracer = Tracer()
    with tracer.installed(package):
        assert package.scheme.run_scheme is not before[("photonpurify.scheme", "run_scheme")]
        assert package.sweep.run_scheme is package.scheme.run_scheme
        assert package.optics.permanent_kernel is not before[
            ("photonpurify.optics", "permanent_kernel")]
        package.run_scheme(package.input_from_probability(0.5), package.input_from_probability(0.5))
    after = bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert tracer.calls["scheme.run_scheme"] == 1
    assert tracer.self_s["scheme.run_scheme"] <= tracer.total_s["scheme.run_scheme"]


def test_pair_source_is_seeded_with_a_fixed_extreme_share():
    first = list(itertools.islice(workloads.pair_stream(11), 3000))
    second = list(itertools.islice(workloads.pair_stream(11), 3000))
    assert first == second
    kinds = [pair[4] for pair in first]
    assert kinds.count("uniform") == 2700
    assert {kind: kinds.count(kind) for kind in workloads.EXTREME_KINDS} == {
        "corner": 100, "near-edge": 100, "tiny-p": 100}
    for p1, ph1, p2, ph2, kind in first:
        assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
        if kind == "corner":
            assert {p1, p2} <= {0.0, 1.0} and abs(ph1) == abs(ph2) == 3.141592653589793


def _pairs_tally(pairs, counted):
    """Run the given pairs, then one healthy pair, as a traced pass would;
    ``counted`` is how many of them are operations rather than probes."""
    workload = workloads.RandomPairs(package, 0, "", traced_pairs=1)
    tally = workloads.Tally()
    source = iter([(*pair, "test") for pair in pairs] + [(0.5, 0.0, 0.5, 0.0, "test")])
    workload._run(tally, source, counted, None, record=False)
    return tally


def test_underflow_band_pairs_are_probes_not_operations():
    # A pruned cancelling term heralds a wrong state at success ~5e-29.
    near = (1 - 7.327471962526033e-15, 3.05500436734202, 1.3538338403939074e-14, 1.7930853698153033)
    tally = _pairs_tally([(1e-20, 0.0, 0.5, 0.0), near], counted=1)
    assert (tally.attempted, tally.failed, tally.errors) == (1, 0, [])
    assert (tally.band_pairs, tally.band_misses) == (2, 2)

    tally = _pairs_tally([(0.3, 0.0, 0.5, 0.0), (0.0, 3.141592653589793, 1.0, -3.141592653589793)],
                         counted=3)
    assert (tally.attempted, tally.failed, tally.errors) == (3, 0, [])
    assert tally.band_pairs == 0


def test_every_miss_outside_the_band_is_an_error():
    in1, in2 = package.input_from_probability(0.3), package.input_from_probability(0.5)
    healthy = package.run_scheme(in1, in2)
    expected = package.closed_form_success(in1, in2)
    assert workloads.matches(healthy, expected)
    wrong = type(healthy)(**{**vars(healthy), "p_success": healthy.p_success * (1 + 1e-6)})
    assert not workloads.matches(wrong, expected)
    impure = type(healthy)(**{**vars(healthy), "output_fidelity": 1.0 - 1e-9})
    assert not workloads.matches(impure, expected)


def test_metric_names_match_benchmark_json():
    tally = workloads.Tally(attempted=10)
    tally.start()
    tally.sample(4, 1.0, [0.2, 0.3, 0.5])
    metrics, _, _ = run.end_to_end(tally, [0.1, 0.2])
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in BENCHMARK["end_to_end"])

    rows = [{"dim": d, "us": 1.0, "ops": d * (2**d - 1)} for d in run.KERNEL_DIMS]
    metrics, _ = run.per_layer(Tracer(), tally, tally, rows)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in BENCHMARK["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_one_result_line(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random_pairs", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if trace:
        assert result["metrics"]["optics.kernel.calls"]["value"] == 0


def test_run_refuses_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
