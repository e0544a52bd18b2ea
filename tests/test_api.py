"""The package's public surface: every exported name resolves, and the
names of the removed second route through the scheme (a copy of stage 1
and a stand-alone stage 2 with its own purity gate) stay gone. Also no
source or test file imports a name it never reads."""

import ast
import re
from pathlib import Path

import photonpurify
from photonpurify import errors, scheme

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
REMOVED = {"StageOneCoefficients", "stage_one_coefficients", "stage_two", "PurityViolated", "CANCEL_TOL"}


def test_every_exported_name_resolves():
    assert len(set(photonpurify.__all__)) == len(photonpurify.__all__)
    namespace: dict = {}
    exec("from photonpurify import *", namespace)
    assert set(photonpurify.__all__) <= set(namespace)


def test_removed_names_stay_gone():
    for module in (photonpurify, scheme, errors):
        assert not REMOVED & set(vars(module)), module.__name__
    assert not REMOVED & set(re.findall(r"\w+", README.read_text()))


def unread_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads anywhere in the file. A
    name listed in ``__all__`` counts as read; ``__future__`` imports are
    not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_unread_imports():
    files = [*(ROOT / "src" / "photonpurify").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    assert len(files) > 20
    unread = {path.relative_to(ROOT).as_posix(): unread_imports(path) for path in sorted(files)}
    assert {name: names for name, names in unread.items() if names} == {}
