"""Command-line front end: run | sweep | verify.

Exit codes are a stable contract: 0 success, 1 invariant failure, 2
configuration error, 3 I/O error. Config comes from a JSON file
(--config) with inline flags overriding file values.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import ConfigInvalid, OutOfRange
from .sweep import RangeSpec, SweepConfig, fixed, grid_points, run_point, sweep_csv, sweep_rows
from .svgplot import success_comparison_svg
from .verify import CheckResult, run_checks

DEFAULT_TRIALS = 100

#: Output formats of ``run`` and of ``sweep``, each command's default first.
OUTPUT_FORMATS = ("table", "csv", "json")
SWEEP_FORMATS = ("csv", "json")

_RUN_KEYS = {"input1", "input2", "format"}
_SWEEP_KEYS = {"p1", "p2", "phase1", "phase2", "diagonal", "format", "out", "plot"}
_INPUT_KEYS = {"p", "phase"}
_RANGE_KEYS = {"start", "stop", "steps"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photon-purify",
        description="Heralded single-photon purification: solve, simulate, sweep, verify.",
    )
    parser.add_argument("--version", action="version", version=f"photon-purify {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve and simulate one input pair")
    _add_shared_flags(run_p)
    run_p.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")

    sweep_p = sub.add_parser("sweep", help="evaluate a parameter grid")
    _add_shared_flags(sweep_p)
    sweep_p.add_argument("--format", choices=SWEEP_FORMATS, default=None)
    sweep_p.add_argument("--out", default=None, help="write rows here instead of stdout")
    sweep_p.add_argument("--plot", default=None, metavar="PATH.SVG",
                         help="also write the success-curve comparison figure")

    verify_p = sub.add_parser("verify", help="run the randomized invariant suite")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    return parser


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--phase1", type=float, default=None)
    p.add_argument("--phase2", type=float, default=None)


def _open(path: str, mode: str, **kwargs):
    """``open`` as UTF-8 text. ``open`` refuses a path with a NUL byte, or
    one that cannot be encoded, with a ``ValueError``; that is an I/O
    error, as a missing directory is."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except ValueError as exc:
        raise OSError(f"cannot open {path!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    with _open(path, "r") as f:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, and so is
        # the error for an integer literal past int's digit limit.
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise ConfigInvalid(f"{path!r}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path!r}: top level must be a JSON object")
    return data


def _format(args, data: dict, formats: tuple[str, ...]) -> str:
    """The --format flag, else the config's format, else the command's
    default; argparse has already checked the flag."""
    value = args.format if args.format is not None else data.get("format", formats[0])
    if value not in formats:
        raise ConfigInvalid(f"format must be one of {', '.join(formats)}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the float range
        raise ConfigInvalid(f"{name} is too large for a float") from exc


def _check_keys(data: dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown {where} keys: {sorted(unknown)}")


def _input_section(data: dict, name: str) -> dict:
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigInvalid(f"{name} must be an object with p and phase")
    _check_keys(section, _INPUT_KEYS, name)
    return section


def _run_config(args) -> tuple[SweepConfig, str]:
    """The one-point grid of the run's inputs, and the run's format."""
    data = _load_json(args.config) if args.config is not None else {}
    _check_keys(data, _RUN_KEYS, "run config")
    sections = (_input_section(data, "input1"), _input_section(data, "input2"))

    def pick(key, side, fallback=None):
        # The --{key}{side} flag, else the config's input{side}.{key}, else
        # ``fallback``: (the value, the name of the flag or key).
        flag, name = getattr(args, f"{key}{side}"), f"input{side}.{key}"
        if flag is not None:
            return flag, f"{key}{side}"
        section = sections[side - 1]
        return (_number(section[key], name) if key in section else fallback), name

    p1, p2 = pick("p", 1), pick("p", 2)
    if p1[0] is None or p2[0] is None:
        raise ConfigInvalid("p1 and p2 are required (flag or config file)")
    point = (p1, p2, pick("phase", 1, 0.0), pick("phase", 2, 0.0))
    config = SweepConfig(*(_range(name, value, value, 1) for value, name in point))
    return config, _format(args, data, OUTPUT_FORMATS)


def _range(name: str, start: float, stop: float, steps: int) -> RangeSpec:
    """``RangeSpec(start, stop, steps)``, whose config error names the flag
    or key that gave the range."""
    try:
        return RangeSpec(start, stop, steps)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{name}: {exc}") from exc


def _range_spec(data: dict, name: str, override: float | None, default: RangeSpec) -> RangeSpec:
    if override is not None:
        return _range(name, override, override, 1)
    if name not in data:
        return default
    obj = data[name]
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{name} must be an object with start, stop, steps")
    _check_keys(obj, _RANGE_KEYS, name)
    missing = _RANGE_KEYS - set(obj)
    if missing:
        raise ConfigInvalid(f"{name} is missing {sorted(missing)}")
    steps = obj["steps"]
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ConfigInvalid(f"{name}.steps must be an integer, got {steps!r}")
    return _range(name, _number(obj["start"], f"{name}.start"), _number(obj["stop"], f"{name}.stop"), steps)


def _sweep_config(args) -> tuple[SweepConfig, str, str | None, str | None]:
    """The sweep's grid, its format, and its output and plot paths."""
    data = _load_json(args.config) if args.config is not None else {}
    _check_keys(data, _SWEEP_KEYS, "sweep config")
    default_p = RangeSpec(0.0, 1.0, 11)
    diagonal = data.get("diagonal", False)
    if not isinstance(diagonal, bool):
        raise ConfigInvalid(f"diagonal must be true or false, got {diagonal!r}")
    out = args.out if args.out is not None else data.get("out")
    plot = args.plot if args.plot is not None else data.get("plot")
    for name, value in (("out", out), ("plot", plot)):
        if value is not None and not isinstance(value, str):
            raise ConfigInvalid(f"{name} must be a path string, got {value!r}")
    config = SweepConfig(
        p1=_range_spec(data, "p1", args.p1, default_p),
        p2=_range_spec(data, "p2", args.p2, default_p),
        phase1=_range_spec(data, "phase1", args.phase1, fixed(0.0)),
        phase2=_range_spec(data, "phase2", args.phase2, fixed(0.0)),
        diagonal=diagonal,
    )
    return config, _format(args, data, SWEEP_FORMATS), out, plot


def cmd_run(config: SweepConfig, output_format: str) -> str:
    """Evaluate the one point of ``config`` and render the report. The CSV
    report is the one-point sweep."""
    if output_format == "csv":
        return sweep_csv(config)
    (point,) = grid_points(config)
    result = run_point(*point)
    fields = [
        *zip(("p1", "p2", "phase1", "phase2"), point),
        ("theta", result.lambda1.theta),
        ("phi", result.lambda1.phi),
        ("theta2", result.lambda2.theta),
        ("phi2", result.lambda2.phi),
        ("p_stage1", result.stage_one_probability),
        ("p_stage2", result.stage_two_probability),
        ("p_success", result.p_success),
        ("fidelity", result.output_fidelity),
    ]
    if output_format == "json":
        payload = dict(fields)
        payload["degenerate"] = result.degenerate
        payload["degenerate_reasons"] = list(result.degenerate_reasons)
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"{name:<11} {value:.6g}" for name, value in fields]
    flag = "true" if result.degenerate else "false"
    if result.degenerate_reasons:
        flag += " (" + ", ".join(result.degenerate_reasons) + ")"
    lines.append(f"{'degenerate':<11} {flag}")
    return "\n".join(lines) + "\n"


def cmd_sweep(config: SweepConfig, output_format: str = "csv") -> str:
    """Evaluate the grid and render its rows in ``output_format``."""
    if output_format == "json":
        return json.dumps(sweep_rows(config), indent=2) + "\n"
    return sweep_csv(config)


def cmd_verify(seed: int, trials: int) -> tuple[str, bool]:
    """Run the invariant suite; returns (report text, all passed)."""
    results = run_checks(seed, trials)
    lines = [_check_line(r) for r in results]
    failed = [r.name for r in results if not r.passed]
    if failed:
        lines.append("failed checks: " + ", ".join(failed))
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines) + "\n", not failed


def _check_line(r: CheckResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{status} {r.name}: {r.detail}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with _open(path, "w", newline="") as f:
        f.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "run":
            config, output_format = _run_config(args)
            _emit(cmd_run(config, output_format), args.out)
            return 0
        if args.command == "sweep":
            config, output_format, out, plot = _sweep_config(args)
            _emit(cmd_sweep(config, output_format), out)
            if plot is not None:
                _emit(success_comparison_svg(), plot)
            return 0
        report, ok = cmd_verify(args.seed, args.trials)
        sys.stdout.write(report)
        return 0 if ok else 1
    except (ConfigInvalid, OutOfRange) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
