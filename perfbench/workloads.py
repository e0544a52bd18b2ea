"""The benchmark's three workloads, driven only through public entry points.

Each workload offers ``measure(seconds)``, an untraced closed loop that
runs operations back to back for a wall-clock budget, and
``traced_pass()``, a fixed amount of the same work whose layer counts
repeat exactly for a given seed. Every operation's output is checked.

Before the first timing sample (one CLI call, or one batch of pairs) and
after each one, the benchmark times ``reference_loop``, a fixed piece of
pure-Python work. On a shared 2-vCPU virtual machine the wall-clock
speed of all code drifted together by 15-25% over minutes, which left the
medians of ten 30-second runs 20-36% apart (quartile distance over
median); dividing each sample's time by the mean of the reference times
just before and just after it brought the throughput and median-latency
spreads down to 3-11%. Wider windows of marks tracked the drift worse,
because the host's speed also changed within seconds. The benchmark gates
on these host-relative times and reports the wall-clock ones beside them.

* ``sweep_grid``: ``cli.main(["sweep", ...])`` over a fixed 4-D grid read
  from a config file and written to a CSV file, the users' main traffic.
  The grid does not depend on the seed, so its CSV bytes are pinned to
  the values the parent commit produced. One operation is one grid point.
* ``verify_suite``: ``cli.main(["verify", "--seed", S, "--trials", N])``
  with N large enough that the oracle checks, the only callers of the
  permanent kernel and of ``expansion``, dominate; S is 1000 x seed plus
  the call's index. One operation is one trial.
* ``random_pairs``: one client calling ``input_from_probability`` twice
  and ``run_scheme`` once per operation, on seeded input pairs of which a
  fixed 10% are extreme (exact corners, p within 1e-12 of 0 or 1,
  log-uniform p down to 1e-30). Each result is checked against
  ``closed_form_success``. Pairs whose closed-form success lies in the
  known underflow band (0, UNDERFLOW_BELOW) still run through the same
  calls, but as probes outside the counted operations: their misses are
  the known defect and are reported as ``underflow misses``, so that the
  counted operations are exactly those the program must get right.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field

#: sha256 of ``photon-purify sweep`` (the default 11x11 grid) as CSV and as
#: JSON, recorded before any optimisation; output bytes must not drift.
DEFAULT_SWEEP_CSV_SHA256 = "1ab74454a8455b86ccb6467be2bbeec2c9513588ef95cd91b6cdd822b30e6677"
DEFAULT_SWEEP_JSON_SHA256 = "2c58e6564ac3f9af6398458d10ad09268c2bcba035e1387f4e2e1516eda4b3cf"

#: The sweep_grid grid: dense p1 x p2 on [0, 1], small phase grids on [-pi, pi].
GRID = {
    "p1": {"start": 0.0, "stop": 1.0, "steps": 21},
    "p2": {"start": 0.0, "stop": 1.0, "steps": 21},
    "phase1": {"start": -math.pi, "stop": math.pi, "steps": 4},
    "phase2": {"start": -math.pi, "stop": math.pi, "steps": 4},
}
GRID_POINTS = math.prod(axis["steps"] for axis in GRID.values())
GRID_CSV_SHA256 = "8ff84399ebe1b13f3f1044070bc646d3197a9498215399c5c16b07ac817cdfc4"

#: verify trials per call. At 200 the kernel and expansion oracles take
#: over half of the time and the fixed 1,600-point purity grid about a
#: quarter, and a call is short enough (about 2 s) for the reference marks
#: on either side of it to follow the host's drift.
VERIFY_TRIALS = 200
VERIFY_CHECKS = (
    "unitarity",
    "norm-preservation",
    "permanent-vs-oracle",
    "apply-vs-oracle",
    "purity-grid",
    "dominance",
)

#: Every EXTREME_EVERY-th random pair is extreme, cycling through the kinds.
EXTREME_EVERY = 10
EXTREME_KINDS = ("corner", "near-edge", "tiny-p")
#: Operations per throughput sample, and the most call latencies kept.
PAIRS_PER_SAMPLE = 4_000
LATENCY_SAMPLES_MAX = 100_000
PAIRS_TRACED = 4_000
PAIRS_WARMUP = 300
#: Known defect: fock prunes amplitudes below 1e-14 absolutely, on
#: unnormalized states, so success probabilities below about 1e-28 come
#: back wrong (0, or a nonzero value with fidelity 0 when a cancelling
#: term is pruned). Pairs whose closed-form success lies in (0, this
#: bound) are run as probes, not as counted operations; a probe whose
#: simulated success reaches this bound makes the run incorrect.
UNDERFLOW_BELOW = 1e-24
REL_TOL = 1e-9
FIDELITY_TOL = 1e-10
#: Iterations of the reference loop, 10-20 ms of work.
REFERENCE_ITERATIONS = 20_000


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the interpreter work the package does:
    complex arithmetic, tuple-keyed dict stores and function calls."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        z = complex(i & 255, 1.0)
        table[(i & 63, i & 7)] = z * z.conjugate()
        acc += abs(cmath.exp(1j * (i & 15))) * (i % 3)
    return time.perf_counter() - start


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class Tally:
    """What a run did: operations, failures and the timing samples."""

    attempted: int = 0
    failed: int = 0
    #: Pairs in the known underflow band run as probes, and their misses.
    band_pairs: int = 0
    band_misses: int = 0
    #: Failures outside the known underflow defect, and other broken checks.
    errors: list[str] = field(default_factory=list)
    #: Per sample (a CLI call or a batch of pairs): operations, seconds
    #: and how many of its call latencies were kept.
    ops: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    kept: list[int] = field(default_factory=list)
    #: Reference loop seconds before the first sample and after each one.
    marks: list[float] = field(default_factory=list)
    #: Seconds of each timed call, for the first LATENCY_SAMPLES_MAX calls.
    latencies: array = field(default_factory=lambda: array("d"))

    def start(self) -> None:
        """Time the reference loop ahead of the first sample."""
        self.marks.append(reference_loop())

    def sample(self, ops: int, seconds: float, latencies) -> None:
        """Record one throughput sample and its calls' latencies."""
        kept = latencies[:max(0, LATENCY_SAMPLES_MAX - len(self.latencies))]
        self.ops.append(ops)
        self.seconds.append(seconds)
        self.kept.append(len(kept))
        self.latencies.extend(kept)
        self.marks.append(reference_loop())

    @property
    def rates(self) -> list[float]:
        """Operations per second of each sample."""
        return [ops / seconds for ops, seconds in zip(self.ops, self.seconds)]

    @property
    def refs(self) -> list[float]:
        """Reference loop seconds for each sample: the mean of the marks
        just before and just after it."""
        return [(self.marks[i] + self.marks[i + 1]) / 2 for i in range(len(self.ops))]

    @property
    def call_us(self) -> array:
        return array("d", (latency * 1e6 for latency in self.latencies))

    @property
    def call_ref(self) -> array:
        """Each kept call latency in units of its sample's reference time."""
        out = array("d")
        position = 0
        for ref, kept in zip(self.refs, self.kept):
            out.extend(latency / ref for latency in self.latencies[position:position + kept])
            position += kept
        return out

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = f"... and more, last: {message}"


class _CliWorkload:
    """Common loop for the workloads that call ``cli.main`` in-process."""

    def __init__(self, package, seed: int, workdir: str):
        self.cli = package.cli
        self.seed = seed
        self.workdir = workdir

    def invoke(self, argv: list[str]) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def _call(self, tally: Tally, index: int) -> None:
        ops, ok, elapsed = self.call(tally, index)
        tally.attempted += ops
        if not ok:
            tally.failed += ops
        tally.sample(ops, elapsed, [elapsed])

    def measure(self, seconds: float) -> Tally:
        tally = Tally()
        self.warm_up(tally)
        tally.start()
        deadline = time.perf_counter() + seconds
        for index in itertools.count():
            self._call(tally, index)
            if time.perf_counter() >= deadline:
                return tally

    def traced_pass(self) -> Tally:
        tally = Tally()
        tally.start()
        self._call(tally, 0)
        return tally


class SweepGrid(_CliWorkload):
    name = "sweep_grid"

    def __init__(self, package, seed: int, workdir: str):
        super().__init__(package, seed, workdir)
        self.config = os.path.join(workdir, "grid.json")
        self.out = os.path.join(workdir, "grid.csv")
        with open(self.config, "w", encoding="utf-8") as f:
            json.dump(GRID, f)

    def size(self) -> dict:
        return {"grid": GRID, "points_per_call": GRID_POINTS}

    def call(self, tally: Tally, index: int) -> tuple[int, bool, float]:
        code, _, err, elapsed = self.invoke(
            ["sweep", "--config", self.config, "--out", self.out])
        ok = code == 0 and sha256_file(self.out) == GRID_CSV_SHA256
        if not ok:
            tally.error(f"sweep exit {code}, CSV sha256 mismatch or error: {err.strip()}")
        return GRID_POINTS, ok, elapsed

    def warm_up(self, tally: Tally) -> None:
        check_default_sweep_pins(self, tally)


def check_default_sweep_pins(workload: _CliWorkload, tally: Tally) -> None:
    """The default sweep's CSV and JSON bytes against the recorded hashes."""
    for fmt, pin in (("csv", DEFAULT_SWEEP_CSV_SHA256), ("json", DEFAULT_SWEEP_JSON_SHA256)):
        path = os.path.join(workload.workdir, f"default.{fmt}")
        code, _, err, _ = workload.invoke(["sweep", "--format", fmt, "--out", path])
        if code != 0 or sha256_file(path) != pin:
            tally.error(f"default sweep {fmt}: exit {code}, sha256 mismatch or error: {err.strip()}")


class VerifySuite(_CliWorkload):
    name = "verify_suite"

    def __init__(self, package, seed: int, workdir: str, trials: int = VERIFY_TRIALS):
        super().__init__(package, seed, workdir)
        self.trials = trials

    def size(self) -> dict:
        return {"verify_seeds": f"{self.seed * 1000} + call index", "trials_per_call": self.trials}

    def call(self, tally: Tally, index: int, trials: int | None = None) -> tuple[int, bool, float]:
        # Each call checks another seed, so a run's median spans the spread
        # in work between seeds instead of repeating one seed's draw.
        trials = self.trials if trials is None else trials
        verify_seed = self.seed * 1000 + index
        code, report, err, elapsed = self.invoke(
            ["verify", "--seed", str(verify_seed), "--trials", str(trials)])
        lines = report.splitlines()
        expected = [f"PASS {check}:" for check in VERIFY_CHECKS]
        ok = (
            code == 0
            and len(lines) == len(VERIFY_CHECKS) + 1
            and all(line.startswith(head) for line, head in zip(lines, expected))
            and lines[-1] == f"all {len(VERIFY_CHECKS)} checks passed"
        )
        if not ok:
            tally.error(f"verify seed {verify_seed} exit {code}: {report.strip()} {err.strip()}")
        return trials, ok, elapsed

    def warm_up(self, tally: Tally) -> None:
        # A short call warms every code path without the cost of a full one.
        _, ok, _ = self.call(tally, 0, trials=len(VERIFY_CHECKS))
        if not ok:
            tally.error("verify warm-up failed")


def pair_stream(seed: int):
    """Seeded input pairs (p1, phase1, p2, phase2, kind), without end.

    Pair i is extreme when i % EXTREME_EVERY == EXTREME_EVERY - 1, of kind
    EXTREME_KINDS[(i // EXTREME_EVERY) % 3]; all others draw p uniform on
    [0, 1] and phases uniform on [-pi, pi].
    """
    rng = random.Random(seed)

    def phase() -> float:
        return rng.uniform(-math.pi, math.pi)

    def near_edge() -> float:
        delta = 10.0 ** rng.uniform(-16.0, -12.0)
        return delta if rng.random() < 0.5 else 1.0 - delta

    for i in itertools.count():
        if i % EXTREME_EVERY != EXTREME_EVERY - 1:
            yield rng.random(), phase(), rng.random(), phase(), "uniform"
            continue
        kind = EXTREME_KINDS[(i // EXTREME_EVERY) % len(EXTREME_KINDS)]
        if kind == "corner":
            p1, p2 = rng.choice((0.0, 1.0)), rng.choice((0.0, 1.0))
            ph1, ph2 = rng.choice((-math.pi, math.pi)), rng.choice((-math.pi, math.pi))
            yield p1, ph1, p2, ph2, kind
            continue
        if kind == "near-edge":
            p1, p2 = near_edge(), near_edge()
        else:
            p1, p2 = 10.0 ** rng.uniform(-30.0, 0.0), rng.random()
            if rng.random() < 0.5:
                p1, p2 = p2, p1
        yield p1, phase(), p2, phase(), kind


def matches(result, expected: float) -> bool:
    """Success within REL_TOL of the closed form, and a pure |1> whenever
    the closed form is positive."""
    return abs(result.p_success - expected) <= REL_TOL * abs(expected) and (
        expected <= 0.0 or result.output_fidelity >= 1.0 - FIDELITY_TOL)


class RandomPairs:
    name = "random_pairs"

    def __init__(self, package, seed: int, workdir: str, traced_pairs: int = PAIRS_TRACED):
        self.package = package
        self.seed = seed
        self.traced_pairs = traced_pairs
        # Captured now so that checks never run through traced wrappers.
        self.closed_form = package.closed_form_success

    def size(self) -> dict:
        return {
            "extreme_share": 1 / EXTREME_EVERY,
            "extreme_kinds": list(EXTREME_KINDS),
            "pairs_per_sample": PAIRS_PER_SAMPLE,
            "latency_samples_max": LATENCY_SAMPLES_MAX,
            "traced_pairs": self.traced_pairs,
            "underflow_band": f"closed-form success in (0, {UNDERFLOW_BELOW:g}), "
                              "run as uncounted probes",
        }

    def _run(self, tally: Tally, source, count: int | None,
             deadline: float | None, record: bool) -> None:
        pkg = self.package
        clock = time.perf_counter
        batch: list[float] = []
        if record:
            tally.start()
        while True:
            p1, ph1, p2, ph2, kind = next(source)
            pair = (p1, ph1, p2, ph2)
            expected = self.closed_form(pkg.input_from_probability(p1, ph1),
                                        pkg.input_from_probability(p2, ph2))
            if 0.0 < expected < UNDERFLOW_BELOW:
                self._probe(tally, pair, kind, expected)
                continue
            start = clock()
            try:
                in1 = pkg.input_from_probability(p1, ph1)
                in2 = pkg.input_from_probability(p2, ph2)
                result = pkg.run_scheme(in1, in2)
            except Exception as exc:  # counted and reported, never fatal
                elapsed = clock() - start
                tally.failed += 1
                tally.error(f"{kind} pair {pair} raised {exc!r}")
            else:
                elapsed = clock() - start
                if not matches(result, expected):
                    tally.failed += 1
                    tally.error(f"{kind} pair {pair}: p_success {result.p_success!r} vs "
                                f"closed form {expected!r}, fidelity {result.output_fidelity!r}")
            tally.attempted += 1
            if record:
                batch.append(elapsed)
                if len(batch) == PAIRS_PER_SAMPLE:
                    tally.sample(len(batch), sum(batch), batch)
                    batch = []
            if count is not None and tally.attempted >= count:
                break
            if deadline is not None and not batch and clock() >= deadline:
                break
        if batch and not tally.ops:
            tally.sample(len(batch), sum(batch), batch)

    def _probe(self, tally: Tally, pair, kind: str, expected: float) -> None:
        """Run a pair of the underflow band outside the counted operations."""
        pkg = self.package
        p1, ph1, p2, ph2 = pair
        try:
            result = pkg.run_scheme(pkg.input_from_probability(p1, ph1),
                                    pkg.input_from_probability(p2, ph2))
        except Exception as exc:
            tally.error(f"underflow-band {kind} pair {pair} raised {exc!r}")
            return
        tally.band_pairs += 1
        if matches(result, expected):
            return
        tally.band_misses += 1
        if result.p_success >= UNDERFLOW_BELOW:
            tally.error(f"underflow-band {kind} pair {pair}: p_success {result.p_success!r} "
                        f"vs closed form {expected!r}")

    def measure(self, seconds: float) -> Tally:
        warm = Tally()
        self._run(warm, pair_stream(self.seed + 1), PAIRS_WARMUP, None, record=False)
        tally = Tally(errors=warm.errors)
        self._run(tally, pair_stream(self.seed), None, time.perf_counter() + seconds, record=True)
        return tally

    def traced_pass(self) -> Tally:
        tally = Tally()
        self._run(tally, pair_stream(self.seed), self.traced_pairs, None, record=True)
        return tally


WORKLOADS = {w.name: w for w in (SweepGrid, VerifySuite, RandomPairs)}
