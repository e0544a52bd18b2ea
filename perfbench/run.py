"""Layered benchmark for photonpurify.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_grid --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` of that checkout, in this process,
on one thread. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` measures the same workload untraced for half the time,
then a fixed, seeded amount of it with every layer traced (see
``tracer.py``), then the permanent kernel by dimension, and reports the
per-layer metrics. Both print a human-readable report, then as the last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and write the same result, stamped with a run manifest, to
``.perfbench/results/`` in the checkout. The metric names, units and
bounds are declared in ``BENCHMARK.json``.

Throughput and median latency are gated in units of ``ref``, the
duration of the reference loop timed next to each sample (see
``workloads.py``), because their wall-clock figures drift with the host by
more than any useful bound. The tail latency is gated in wall-clock
microseconds: over ten-run sets its spread was at most 0.20 that way and
up to 0.32 in ``ref`` units, the tail being set by a few slow calls that a
nearby reference time does not explain. ``ops_per_s``, ``call_p50_us``,
``call_p99_ref``, ``failed_ratio`` and ``underflow_misses`` (the known
underflow defect, counted on probes that are not operations; see
``workloads.py``) are printed beside the gated metrics and kept in the
result file.

Without ``src/photonpurify`` in the checkout it exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Fresh processes timed for setup_s, half before and half after the
#: measured loop so that the median spans the host's slower and faster
#: spells; one untimed process first leaves the bytecode cache warm.
SETUP_PROCESSES = 12
SETUP_PROBE = """\
import sys
sys.path.insert(0, {src!r})
from photonpurify import input_from_probability, run_scheme
result = run_scheme(input_from_probability(0.5), input_from_probability(0.5))
print(repr(result.p_success), flush=True)
"""

#: Dimensions of the kernel table and the per-round time it calibrates to.
KERNEL_DIMS = range(3, 9)
KERNEL_ROUND_S = 0.02
KERNEL_ROUNDS = 5

SELF_TIMED_LAYERS = (
    "fock.StateVector",
    "fock.tensor",
    "fock.normalize",
    "fock.fidelity",
    "optics.InterferometerUnitary",
    "optics.embed",
    "optics.beamsplitter",
    "optics.apply",
    "measurement.condition",
    "scheme.solve_cancellation",
    "scheme.run_scheme",
    "optics.kernel",
    "expansion.substitute",
    "sweep.sweep_rows",
    "sweep.rows_to_csv",
    "cli.main",
)
COUNTED_LAYERS = (
    "fock.StateVector",
    "optics.InterferometerUnitary",
    "optics.embed",
    "optics.apply",
    "measurement.condition",
    "scheme.run_scheme",
    "optics.kernel",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="photonpurify benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_package():
    """Import photonpurify from this checkout's src/, or exit with status 2."""
    if not (SRC / "photonpurify" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'photonpurify'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import photonpurify
    import photonpurify.cli  # the CLI entry point is not imported by the package

    if Path(photonpurify.__file__).resolve().parent != SRC / "photonpurify":
        print(f"perfbench: imported {photonpurify.__file__}, not this checkout's source",
              file=sys.stderr)
        sys.exit(2)
    return photonpurify


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(package, args, workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": package.BACKEND,
        "version": package.__version__,
        "commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": workload.size(),
    }


def percentile(sorted_values, q: float) -> float:
    """Linearly interpolated percentile, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure_setup(errors: list[str], processes: int, warm_up: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first run_scheme result."""
    code = SETUP_PROBE.format(src=str(SRC))
    times = []
    for i in range(processes + warm_up):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
        try:
            ok = proc.returncode == 0 and abs(float(line) - 0.0625) <= 1e-12
        except ValueError:
            ok = False
        if not ok:
            errors.append(f"setup probe exit {proc.returncode}: {line.strip()} {err.strip()}")
        if i or not warm_up:
            times.append(elapsed)
    return times


def ops_per_ref(tally) -> float:
    """Median over samples of operations per reference-loop duration."""
    return statistics.median(rate * ref for rate, ref in zip(tally.rates, tally.refs))


def end_to_end(tally, setup_times) -> tuple[dict, dict]:
    """The gated metrics, then the wall-clock ones shown beside them."""
    calls_ref, calls_us = sorted(tally.call_ref), sorted(tally.call_us)
    metrics = {
        "ops_per_ref": (ops_per_ref(tally), "1/ref"),
        "call_p50_ref": (percentile(calls_ref, 50), "ref"),
        "call_p99_us": (percentile(calls_us, 99), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    wall = {
        "ops_per_s": (statistics.median(tally.rates), "1/s"),
        "call_p50_us": (percentile(calls_us, 50), "us"),
        "call_p99_ref": (percentile(calls_ref, 99), "ref"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "underflow_misses": (tally.band_misses, "count"),
        "reference_ms": (statistics.median(tally.refs) * 1e3, "ms"),
    }
    samples = f"median of {len(tally.rates)} samples"
    calls = f"{len(calls_us)} timed calls"
    notes = {
        "ops_per_ref": samples,
        "call_p50_ref": calls,
        "call_p99_us": calls,
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "ops_per_s": samples,
        "call_p50_us": calls,
        "call_p99_ref": calls,
        "failed_ratio": f"{tally.failed} of {tally.attempted} ops failed",
        "underflow_misses": f"of {tally.band_pairs} uncounted underflow-band probes",
        "reference_ms": f"reference loop, {samples}",
    }
    return metrics, wall, notes


def kernel_table(package, seed: int, errors: list[str]) -> list[dict]:
    """Per-call time of optics.permanent at each dimension, untraced.

    The operation count is computed, not measured: Ryser visits 2^n - 1
    column subsets in Gray-code order, each costing n complex additions
    and n complex multiplications.
    """
    import numpy as np

    permanent, naive = package.optics.permanent, package.verify.permanent_naive
    rng = np.random.default_rng(seed)
    rows = []
    for dim in KERNEL_DIMS:
        m = (rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))) / math.sqrt(2)
        value = permanent(m)
        reference = naive(m)
        if abs(value - reference) > 1e-9 * max(1.0, abs(reference)):
            errors.append(f"permanent at dim {dim}: {value!r} vs permutation sum {reference!r}")
        start = time.perf_counter()
        permanent(m)
        once = time.perf_counter() - start
        repeats = max(1, int(KERNEL_ROUND_S / max(once, 1e-9)))
        per_call = []
        for _ in range(KERNEL_ROUNDS):
            start = time.perf_counter()
            for _ in range(repeats):
                permanent(m)
            per_call.append((time.perf_counter() - start) / repeats)
        rows.append({"dim": dim, "us": statistics.median(per_call) * 1e6,
                     "ops": dim * (2**dim - 1), "repeats": repeats})
    return rows


def per_layer(tracer, traced, untraced, kernel_rows) -> tuple[dict, dict]:
    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
    metrics["fock.StateVector.calls_per_op"] = (
        ratio(tracer.calls["fock.StateVector"], traced.attempted), "count/op")
    for dim in range(3, 7):
        metrics[f"optics.kernel.calls.d{dim}"] = (tracer.kernel_dims[dim], "count")
    metrics["fock.prune.dropped"] = (tracer.pruned, "count")
    metrics["measurement.condition.null_ratio"] = (
        ratio(tracer.condition_null, tracer.calls["measurement.condition"]), "ratio")
    metrics["scheme.herald_ratio"] = (
        ratio(tracer.heralded, tracer.calls["scheme.run_scheme"]), "ratio")
    metrics["scheme.underflow.probes"] = (traced.band_pairs, "count")
    metrics["scheme.underflow.misses"] = (traced.band_misses, "count")
    for layer in SELF_TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = (float(tracer.self_s[layer]), "s")
    for check in workloads.VERIFY_CHECKS:
        function = "verify.check_" + check.replace("-", "_")
        metrics[f"verify.{check}.s"] = (float(tracer.total_s[function]), "s")
    for row in kernel_rows:
        metrics[f"optics.permanent.d{row['dim']}.us"] = (row["us"], "us")
        metrics[f"optics.permanent.d{row['dim']}.ops"] = (row["ops"], "count")
    untraced_rate, traced_rate = ops_per_ref(untraced), ops_per_ref(traced)
    metrics["trace.ops"] = (traced.attempted, "count")
    metrics["trace.untraced_ops_per_ref"] = (untraced_rate, "1/ref")
    metrics["trace.traced_ops_per_ref"] = (traced_rate, "1/ref")
    metrics["trace.overhead_ratio"] = (1.0 - traced_rate / untraced_rate, "ratio")
    notes = {
        "trace.untraced_ops_per_ref": f"median of {len(untraced.rates)} samples",
        "trace.traced_ops_per_ref": f"median of {len(traced.rates)} samples",
    }
    return metrics, notes


def report(workload, metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:<13} {name:<36} {value:>16.6g} {unit}{note}")


def run(args, package) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](package, args.seed, workdir)
        errors: list[str] = []
        if args.trace == 0:
            setup_times = measure_setup(errors, SETUP_PROCESSES // 2, warm_up=True)
            tally = workload.measure(args.seconds)
            setup_times += measure_setup(errors, SETUP_PROCESSES // 2, warm_up=False)
            metrics, wall, notes = end_to_end(tally, setup_times)
            shown = {**metrics, **wall}
            extra = {"wall_clock": {name: {"value": value, "unit": unit}
                                    for name, (value, unit) in wall.items()}}
            attempted, failed = tally.attempted, tally.failed
            errors += tally.errors
        else:
            untraced = workload.measure(args.seconds / 2)
            tracer = Tracer()
            with tracer.installed(package):
                traced = workload.traced_pass()
            kernel_rows = kernel_table(package, args.seed, errors)
            metrics, notes = per_layer(tracer, traced, untraced, kernel_rows)
            shown = metrics
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            errors += untraced.errors + traced.errors
            extra = {"trace_table": tracer.table(), "kernel_table": kernel_rows}
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        stamp = manifest(package, args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("manifest " + json.dumps(stamp, sort_keys=True))
    report(args.workload, shown, notes)
    if "trace_table" in extra:
        print(f"{'layer':<40} {'calls':>10} {'self_s':>12} {'total_s':>12}")
        for row in extra["trace_table"]:
            print(f"{row['layer']:<40} {row['calls']:>10} "
                  f"{row['self_s']:>12.6f} {row['total_s']:>12.6f}")
    for message in errors:
        print(f"error: {message}")
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {"manifest": stamp, "errors": errors, **result, **extra}, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    package = import_package()
    result = run(args, package)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
