import json
import math
import subprocess
import sys

import pytest

from photonpurify import __version__
from photonpurify.cli import main
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


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"p1": 0.5}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "too-deep"],
)
def test_undecodable_config_is_config_error(capsys, tmp_path, command, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, _, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert "config error" in err


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
