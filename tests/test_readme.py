"""The README's examples run as written: its Python blocks top to bottom,
and each ``$ photon-purify ...`` line of its shell blocks through
``cli.main``, against the output printed below it."""

import re
import shlex
from pathlib import Path

from photonpurify import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    # One namespace: later blocks reuse earlier imports and names.
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out


def transcripts() -> list[tuple[list[str], list[str]]]:
    # (arguments, output lines) of each prompt in the sh blocks; a prompt's
    # output runs to the next prompt or the end of its block.
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for session in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = session.splitlines()
            program, *args = shlex.split(command)
            assert program == "photon-purify"
            out.append((args, lines))
    return out


def measured(lines: list[str]) -> list[str]:
    # verify's values go through numpy's QR and matmul, whose last digits
    # vary with the BLAS build, so each line is compared up to its numbers.
    return [re.sub(r"\d\.\d+e[-+]\d+", "<value>", line) for line in lines]


def test_cli_transcripts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sessions = transcripts()
    assert [args[0] for args, _ in sessions] == ["run", "sweep", "verify"]
    for args, want in sessions:
        assert cli.main(args) == 0, args
        got = capsys.readouterr().out.splitlines()
        if args[0] == "verify":
            got, want = measured(got), measured(want)
            assert want[-1] == "all 6 checks passed"
        if "..." in want:  # lines the README leaves out
            k = want.index("...")
            head, tail = want[:k], want[k + 1 :]
            assert got[:k] == head and got[len(got) - len(tail) :] == tail, args
        else:
            assert got == want, args
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.svg", "rows.csv"]
