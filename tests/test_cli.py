import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpurify import AmplitudeOverflow, __version__, cli
from photonpurify.cli import main
from photonpurify.verify import CheckResult
from photonpurify.sweep import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_values(out: str) -> dict:
    values = {}
    for line in out.splitlines():
        name, _, rest = line.partition(" ")
        values[name] = rest.strip()
    return values


class TestRun:
    def test_table_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--p1", "0.5", "--p2", "0.5")
        assert code == 0
        values = table_values(out)
        assert values["theta"] == "0.785398"
        assert values["phi"] == "3.14159"
        assert values["p_stage1"] == "0.375"
        assert values["p_success"] == "0.0625"
        assert values["fidelity"] == "1"
        assert values["degenerate"] == "false"

    def test_table_degenerate_lists_reasons(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--p1", "1", "--p2", "1")
        assert code == 0
        values = table_values(out)
        assert values["p_success"] == "0.25"
        assert "no-vacuum-amplitude" in values["degenerate"]
        assert "cancellation-vacuous" in values["degenerate"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--p1", "0.8", "--p2", "0.2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_success"] == pytest.approx(0.16 * (4 / 17) ** 2, abs=1e-12)
        assert payload["degenerate"] is False
        assert payload["degenerate_reasons"] == []

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--p1", "0.5", "--p2", "0.5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert row["p_success"] == "0.0625"
        assert row["degenerate"] == "false"

    def test_csv_equals_one_point_sweep(self, capsys, tmp_path):
        # run's CSV is, byte for byte, what sweep prints for the same fixed
        # flags, at edge probabilities and phases: every pair of p values,
        # and each phase on either side.
        ps = ("0.0", "-0.0", "5e-324", "1e-20", "0.5", repr(1 - 7.3e-15), "1.0")
        phases = (repr(-math.pi), "-0.0", "0.3", repr(math.pi))
        for p1, p2, (phase1, phase2) in itertools.product(ps, ps, zip(phases, phases[::-1])):
            flags = (f"--p1={p1}", f"--p2={p2}", f"--phase1={phase1}", f"--phase2={phase2}")
            ran = run_cli(capsys, "run", *flags, "--format", "csv")
            assert ran[0] == 0
            assert ran == run_cli(capsys, "sweep", *flags), flags
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "input1": {"p": 1e-20, "phase": -math.pi},
            "input2": {"p": 1 - 7.3e-15, "phase": -0.0},
            "format": "csv",
        }))
        _, ran, _ = run_cli(capsys, "run", "--config", str(cfg))
        flags = ("--p1=1e-20", f"--p2={1 - 7.3e-15!r}", f"--phase1={-math.pi!r}", "--phase2=-0.0")
        assert ran == run_cli(capsys, "sweep", *flags)[1]

    def test_csv_evaluates_no_run_point(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("run's CSV evaluated run_point")

        monkeypatch.setattr(cli, "run_point", forbidden)
        code, out, _ = run_cli(capsys, "run", "--p1", "0.5", "--p2", "0.5", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input1": {"p": 0.8}, "input2": {"p": 0.2}}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)["p_success"] == pytest.approx(0.16 * (4 / 17) ** 2, abs=1e-12)

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input1": {"p": 0.8}, "input2": {"p": 0.2}}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--p2", "0.8")
        assert code == 0
        assert table_values(out)["theta"] == "0.785398"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "run", "--p1", "0.5", "--p2", "0.5", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(CSV_HEADER)

    def test_missing_inputs_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--p1", "0.5")
        assert code == 2
        assert "config error" in err

    def test_out_of_range_probability(self, capsys):
        code, _, err = run_cli(capsys, "run", "--p1", "1.5", "--p2", "0.5")
        assert code == 2
        assert "config error" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p_one": 0.5}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "p_one" in err

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2

    def test_non_object_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert run_cli(capsys, "run", "--config", str(cfg))[0] == 2

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--config", str(tmp_path / "absent.json")
        )
        assert code == 3
        assert "i/o error" in err

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--p1", "0.5", "--p2", "0.5",
            "--out", str(tmp_path / "missing-dir" / "x.txt"),
        )
        assert code == 3

    @pytest.mark.parametrize("flag", ["--phase1", "--phase2"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_phase_is_config_error(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "run", "--p1", "0.5", "--p2", "0.5", f"{flag}={value}")
        assert code == 2
        assert "config error" in err

    def test_bad_flag_value_exits_two(self, capsys):
        assert main(["run", "--p1", "abc", "--p2", "0.5"]) == 2

    def test_removed_cutoff_flag_exits_two(self, capsys):
        assert main(["run", "--p1", ".5", "--p2", ".5", "--cutoff", "4"]) == 2

    def test_removed_cutoff_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input1": {"p": 0.5}, "input2": {"p": 0.5}, "cutoff": 4}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "cutoff" in err

    def test_missing_subcommand_exits_two(self, capsys):
        assert main([]) == 2


class TestSweep:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 11 * 11

    def test_fixed_p1_collapses_axis(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p1", "0.5")
        assert code == 0
        assert len(out.splitlines()) == 1 + 11

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "sweep")
        _, second, _ = run_cli(capsys, "sweep")
        assert first == second

    def test_diagonal_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "diagonal": True,
            "p1": {"start": 0.0, "stop": 1.0, "steps": 5},
        }))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 5
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        for row in rows:
            assert row["p1"] == row["p2"]
        assert rows[2]["p_success"] == "0.0625"
        assert rows[4]["p_success"] == "0.25"
        assert rows[4]["degenerate"] == "true"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p1", "0.5", "--p2", "0.5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["p_success"] == pytest.approx(0.0625, abs=1e-12)

    def test_json_phase_matches_run(self, capsys):
        args = ("--p1", "0.5", "--p2", "0.3", "--phase1=-0.0", "--format", "json")
        _, out, _ = run_cli(capsys, "sweep", *args)
        _, run_out, _ = run_cli(capsys, "run", *args)
        swept, ran = json.loads(out)[0]["phase1"], json.loads(run_out)["phase1"]
        assert (swept, math.copysign(1.0, swept)) == (ran, math.copysign(1.0, ran)) == (0.0, -1.0)

    def test_out_and_plot_files(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        plot_path = tmp_path / "curves.svg"
        code, out, _ = run_cli(
            capsys, "sweep", "--p1", "0.5", "--out", str(out_path),
            "--plot", str(plot_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith(CSV_HEADER)
        svg = plot_path.read_text()
        assert svg.count("<polyline") == 2
        assert "</svg>" in svg

    def test_plot_failure_follows_complete_output(self, capsys, tmp_path):
        # The rows are written before the plot, so exit 3 can follow the
        # whole sweep on stdout when only the plot path fails.
        missing = tmp_path / "missing" / "x.svg"
        code, out, err = run_cli(capsys, "sweep", "--p1", "0.5", "--plot", str(missing))
        assert code == 3
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert out == run_cli(capsys, "sweep", "--p1", "0.5")[1]

    def test_incomplete_range_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"p1": {"start": 0.0, "stop": 1.0}}))
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 2

    def test_range_outside_unit_interval_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"p1": {"start": 0.0, "stop": 1.5, "steps": 3}}))
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 2

    @pytest.mark.parametrize("flag", ["--phase1", "--phase2"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_phase_flag_is_config_error(self, capsys, flag, value):
        code, _, err = run_cli(capsys, "sweep", flag, value)
        assert code == 2
        assert "config error" in err

    def test_non_finite_range_bound_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text('{"phase1": {"start": 0, "stop": Infinity, "steps": 2}}')
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_overflowing_range_span_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        unit = {"start": 0, "stop": 1, "steps": 2}
        span = {"start": -1e308, "stop": 1e308, "steps": 3}
        cfg.write_text(json.dumps({"p1": unit, "p2": unit, "phase1": span}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "config error" in err
        assert out == ""

    def test_huge_steps_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"p1": {"start": 0.0, "stop": 1.0, "steps": 10**20}}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_removed_cutoff_flag_exits_two(self, capsys):
        assert main(["sweep", "--cutoff", "4"]) == 2

    def test_removed_cutoff_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"cutoff": 4}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "cutoff" in err


class TestVerify:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "0", "--trials", "20")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("PASS ") for line in lines) == 6
        assert lines[-1] == "all 6 checks passed"

    def test_zero_trials_is_config_error(self, capsys):
        assert run_cli(capsys, "verify", "--trials", "0")[0] == 2

    def test_negative_seed_is_config_error(self, capsys):
        assert run_cli(capsys, "verify", "--seed", "-1", "--trials", "1")[0] == 2

    def test_seed_defaults_to_zero(self, capsys):
        _, default, _ = run_cli(capsys, "verify", "--trials", "10")
        _, zero, _ = run_cli(capsys, "verify", "--seed", "0", "--trials", "10")
        assert default == zero

    def test_flag_beats_env(self, capsys, monkeypatch):
        # The old PHOTON_PURIFY_SEED fallback is gone: a stale value in the
        # environment must not change what --seed selects.
        _, baseline, _ = run_cli(capsys, "verify", "--seed", "0", "--trials", "10")
        monkeypatch.setenv("PHOTON_PURIFY_SEED", "999")
        _, out, _ = run_cli(capsys, "verify", "--seed", "0", "--trials", "10")
        assert out == baseline


UNIT = {"start": 0.0, "stop": 1.0, "steps": 3}

#: Config files that must exit 2, by test id: each is (command, file bytes).
BAD_CONFIGS = {
    "not-utf8-run": ("run", b'\xff\xfe{"p1": 0.5}'),
    "not-utf8-sweep": ("sweep", b'\xff\xfe{"p1": 0.5}'),
    "too-deep-run": ("run", b"[" * 100_000 + b"]" * 100_000),
    "too-deep-sweep": ("sweep", b"[" * 100_000 + b"]" * 100_000),
    "string-p": ("run", {"input1": {"p": "0.5"}, "input2": {"p": 0.5}}),
    "input-not-object": ("run", {"input1": 0.5, "input2": {"p": 0.5}}),
    "run-format-xml": ("run", {"input1": {"p": 0.5}, "input2": {"p": 0.5}, "format": "xml"}),
    "range-not-object": ("sweep", {"p1": 0.5}),
    "float-steps": ("sweep", {"p1": dict(UNIT, steps=2.0)}),
    "bool-steps": ("sweep", {"p1": dict(UNIT, steps=True)}),
    "string-start": ("sweep", {"p1": dict(UNIT, start="0")}),
    "start-past-stop": ("sweep", {"p1": dict(UNIT, start=1.0, stop=0.0)}),
    "integer-diagonal": ("sweep", {"diagonal": 1}),
    "numeric-out": ("sweep", {"out": 3}),
    "list-plot": ("sweep", {"plot": ["curves.svg"]}),
    "sweep-format-table": ("sweep", {"format": "table"}),
    # Integers past the float range, and past int's digit limit for parsing.
    "huge-int-p": ("run", {"input1": {"p": 10**400}, "input2": {"p": 0.5}}),
    "huge-int-start": ("sweep", {"p1": dict(UNIT, start=10**400)}),
    "too-many-digits": ("run", b'{"input1": {"p": 1' + b"0" * 4400 + b"}}"),
}


@pytest.mark.parametrize("command, content", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_undecodable_config_is_config_error(capsys, tmp_path, command, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "config error" in err
    assert out == ""


def test_config_path_is_quoted_on_one_line(capsys, tmp_path):
    cfg = tmp_path / "a\nb.json"
    cfg.write_text("not json")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {str(cfg)!r}: not valid JSON")
    assert err.count("\n") == 1


NUL_PATH = "a\x00b"


def path_entry_points(path: str) -> dict:
    """Each way a path reaches ``open``, given ``path``, by test id: (argv,
    the config file's content or None for no config file)."""
    return {
        "run-config": (["run", "--config", path], None),
        "sweep-config": (["sweep", "--config", path], None),
        "run-out": (["run", "--p1", ".5", "--p2", ".5", "--out", path], None),
        "sweep-out": (["sweep", "--p1", ".5", "--out", path], None),
        "sweep-plot": (["sweep", "--p1", ".5", "--plot", path], None),
        "config-out": (["sweep", "--p1", ".5"], {"out": path}),
        "config-plot": (["sweep", "--p1", ".5"], {"plot": path}),
    }


def run_with_config(capsys, tmp_path, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    return run_cli(capsys, *argv)


NUL_PATHS = path_entry_points(NUL_PATH)


@pytest.mark.parametrize("argv, config", list(NUL_PATHS.values()), ids=list(NUL_PATHS))
def test_path_with_nul_byte_is_io_error(capsys, tmp_path, argv, config):
    code, _, err = run_with_config(capsys, tmp_path, argv, config)
    assert code == 3
    assert err == "i/o error: cannot open 'a\\x00b': embedded null byte\n"


EMPTY_PATHS = path_entry_points("")


@pytest.mark.parametrize("argv, config", list(EMPTY_PATHS.values()), ids=list(EMPTY_PATHS))
def test_empty_path_is_io_error(capsys, tmp_path, argv, config):
    # ``--config ""`` names a file, as ``--out ""`` does: it is not "no config".
    code, _, err = run_with_config(capsys, tmp_path, argv, config)
    assert code == 3
    assert err == "i/o error: [Errno 2] No such file or directory: ''\n"


#: One bad range per flag and per config key, and a config number of the
#: wrong type, by test id: (argv, the config file's content or None, the
#: stderr line). Between them the ranges reach every message of
#: ``RangeSpec``.
NAMED_ERRORS = {
    "run-p1": (["run", "--p1", "nan", "--p2", ".5"], None, "p1: range start must be finite, got nan"),
    "run-p2": (["run", "--p1", ".5", "--p2=-inf"], None, "p2: range start must be finite, got -inf"),
    "run-phase1": (["run", "--p1", ".5", "--p2", ".5", "--phase1", "inf"], None,
                   "phase1: range start must be finite, got inf"),
    "run-phase2": (["run", "--p1", ".5", "--p2", ".5", "--phase2", "inf"], None,
                   "phase2: range start must be finite, got inf"),
    "sweep-p1": (["sweep", "--p1", "nan"], None, "p1: range start must be finite, got nan"),
    "sweep-p2": (["sweep", "--p2", "inf"], None, "p2: range start must be finite, got inf"),
    "sweep-phase1": (["sweep", "--phase1", "inf"], None, "phase1: range start must be finite, got inf"),
    "sweep-phase2": (["sweep", "--phase2=-inf"], None, "phase2: range start must be finite, got -inf"),
    "run-input1.p": (["run", "--p2", ".5"], {"input1": {"p": math.nan}},
                     "input1.p: range start must be finite, got nan"),
    "run-input2.p": (["run", "--p1", ".5"], {"input2": {"p": -math.inf}},
                     "input2.p: range start must be finite, got -inf"),
    "run-input1.phase": (["run", "--p1", ".5", "--p2", ".5"], {"input1": {"phase": math.inf}},
                         "input1.phase: range start must be finite, got inf"),
    "run-input2.phase": (["run", "--p1", ".5", "--p2", ".5"], {"input2": {"phase": math.nan}},
                         "input2.phase: range start must be finite, got nan"),
    "sweep-config-p1": (["sweep"], {"p1": {"start": 0, "stop": math.nan, "steps": 2}},
                        "p1: range stop must be finite, got nan"),
    "sweep-config-p2": (["sweep"], {"p2": {"start": 0, "stop": 1, "steps": 0}},
                        "p2: steps must lie in [1, 1000000], got 0"),
    "sweep-config-phase1": (["sweep"], {"phase1": {"start": 1, "stop": 0, "steps": 2}},
                            "phase1: range start 1.0 exceeds stop 0.0"),
    "sweep-config-phase2": (["sweep"], {"phase2": {"start": -1e308, "stop": 1e308, "steps": 2}},
                            "phase2: range [-1e+308, 1e+308] spans more than a float holds"),
    "run-input2.phase-type": (["run", "--p1", ".5", "--p2", ".5"], {"input2": {"phase": "x"}},
                              "input2.phase must be a number, got 'x'"),
}


@pytest.mark.parametrize("argv, config, message", list(NAMED_ERRORS.values()), ids=list(NAMED_ERRORS))
def test_config_error_names_its_flag_or_key(capsys, tmp_path, argv, config, message):
    code, out, err = run_with_config(capsys, tmp_path, argv, config)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"


#: Flag values: the number edges of the example tests, drawn as often
#: from [0, 1] as from past it.
UNIT_FLAGS = ("0", "-0.0", "5e-324", "1e-20", "0.5", repr(1 - 7.3e-15), "1")
EDGE_FLAGS = ("1.5", "-1", repr(math.pi), repr(-math.pi), "1e300", "inf", "-inf", "nan")
#: Config leaves: the same edges as JSON values, drawn as often from
#: [0, 1] as from past it, integers past the float range, and values of
#: the wrong type. Path strings come only from ``PATH_LEAVES``, so no draw
#: writes outside the test's directory.
UNIT_LEAVES = (0, 1, 0.0, -0.0, 5e-324, 1e-20, 0.5, 1 - 7.3e-15, 1.0)
CONFIG_LEAVES = (
    1.5, -1.0, math.pi, -math.pi, 1e300, -1e308, 1e308, math.inf, -math.inf, math.nan,
    10**400, True, False, None, [], {},
)
#: Paths, under the test's directory: a file name, the directory itself,
#: a missing parent, a NUL byte, a newline and a lone surrogate.
PATH_LEAVES = ("out.txt", "", "missing/out.txt", "a\x00b", "a\nb.json", "\ud800")


def optional(strategy):
    return st.none() | strategy


@st.composite
def cli_calls(draw, base: str) -> tuple[list[str], object]:
    """A ``run`` or ``sweep`` argv that argparse accepts, and the content
    of its config file: a dict to write as JSON, or None for a config path
    from ``PATH_LEAVES`` or no config at all. Ranges take at most 2 steps,
    so no sweep walks more than 11 x 11 x 2 x 2 points."""
    command = draw(st.sampled_from(("run", "sweep")))
    paths = st.sampled_from([os.path.join(base, leaf) for leaf in PATH_LEAVES])
    value = st.sampled_from(UNIT_LEAVES) | st.sampled_from(CONFIG_LEAVES)
    formats = cli.OUTPUT_FORMATS if command == "run" else cli.SWEEP_FORMATS
    # None, for no flag, is one leaf among the numbers in [0, 1].
    number = st.sampled_from((None, *UNIT_FLAGS)) | st.sampled_from(EDGE_FLAGS)
    flags = {f"--{name}": number for name in ("p1", "p2", "phase1", "phase2")}
    flags["--format"] = optional(st.sampled_from(formats))
    flags["--out"] = optional(paths)
    format_value = st.sampled_from(("table", "csv", "json", "xml")) | value
    if command == "run":
        side = st.fixed_dictionaries({}, optional={"p": value, "phase": value})
        keys = {"input1": side | value, "input2": side | value, "format": format_value}
    else:
        flags["--plot"] = optional(paths)
        steps = st.sampled_from((0, 1, 2, 2.0, 10**20))
        span = st.fixed_dictionaries({}, optional={"start": value, "stop": value, "steps": steps})
        keys = {name: span | value for name in ("p1", "p2", "phase1", "phase2")}
        keys.update(diagonal=value, format=format_value, out=paths | value, plot=paths | value)
    argv = [command]
    argv += [f"{flag}={v}" for flag, strategy in flags.items() if (v := draw(strategy)) is not None]
    content = draw(optional(st.fixed_dictionaries({}, optional=keys)))
    config = os.path.join(base, "config.json") if content is not None else draw(optional(paths))
    if config is not None:
        argv.append(f"--config={config}")
    return argv, content


@pytest.fixture(scope="module")
def call_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("calls"))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exit_code_contract(call_dir, data):
    # Every call exits 0, 2 or 3 without raising; a config error writes
    # nothing to stdout, and an error writes exactly one stderr line.
    argv, content = data.draw(cli_calls(call_dir))
    if content is not None:
        with open(os.path.join(call_dir, "config.json"), "w", encoding="utf-8") as f:
            json.dump(content, f)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


def test_failed_check_exits_one(capsys, monkeypatch):
    results = [CheckResult("unitarity", True, "ok"), CheckResult("purity-grid", False, "broken")]
    monkeypatch.setattr(cli, "run_checks", lambda seed, trials: results)
    code, out, _ = run_cli(capsys, "verify", "--trials", "1")
    assert code == 1
    assert out.splitlines()[-1] == "failed checks: purity-grid"


@pytest.mark.parametrize("command, evaluate", [("run", "run_point"), ("sweep", "sweep_csv")])
def test_invariant_failure_exits_one(capsys, monkeypatch, command, evaluate):
    def broken(*args):
        raise AmplitudeOverflow("amplitude of magnitude 1.000e+200 squares past the float range")

    monkeypatch.setattr(cli, evaluate, broken)
    code, out, err = run_cli(capsys, command, "--p1", "0.5", "--p2", "0.5")
    assert code == 1
    assert err.startswith("invariant failure: amplitude of magnitude 1.000e+200")
    assert out == ""


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out == f"photon-purify {__version__}\n"


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "photonpurify", "run", "--p1", "0.5", "--p2", "0.5"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "p_success" in proc.stdout
        assert "0.0625" in proc.stdout
