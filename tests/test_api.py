"""The package's public surface: every exported name resolves, and the
names of the removed second route through the scheme (a copy of stage 1
and a stand-alone stage 2 with its own purity gate), of the removed
second config type of ``run`` and of the batch's removed result record
stay gone from every module. Also no
source or test file imports a name it never reads, and every private
module-level name of the package is read by some source module."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import photonpurify

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
REMOVED = {
    "StageOneCoefficients", "stage_one_coefficients", "stage_two", "PurityViolated", "CANCEL_TOL",
    "RunConfig", "_BatchColumns",
}


def test_every_exported_name_resolves():
    assert len(set(photonpurify.__all__)) == len(photonpurify.__all__)
    namespace: dict = {}
    exec("from photonpurify import *", namespace)
    assert set(photonpurify.__all__) <= set(namespace)


def test_removed_names_stay_gone():
    names = {info.name for info in pkgutil.iter_modules(photonpurify.__path__)}
    assert names == {path.stem for path in (ROOT / "src" / "photonpurify").glob("*.py")} - {"__init__"}
    for module in (photonpurify, *(importlib.import_module(f"photonpurify.{name}") for name in sorted(names))):
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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level private functions, classes and constants of
    ``tree``, each with the statement that binds it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, stmt) for name in targets if is_private(name))
    return defined


def dead_private_names(package: Path) -> list[str]:
    """``module.name`` for each private module-level name of ``package``
    that no source module reads. A read resolves through ``from .module
    import name`` and ``from . import module``; a name read only inside its
    own definition is not read."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in package.glob("*.py")}
    defined = {module: private_definitions(tree) for module, tree in trees.items()}
    read = set()
    for module, tree in trees.items():
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is not None:
                        names[alias.asname or alias.name] = (node.module, alias.name)
                    elif alias.name in trees:
                        modules[alias.asname or alias.name] = alias.name
        for stmt in tree.body:
            own = {name for name, binding in defined[module].items() if binding is stmt}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                    read.add(names.get(node.id, (module, node.id)))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in modules:
                        read.add((modules[node.value.id], node.attr))
    return sorted(f"{module}.{name}" for module, names in defined.items() for name in names if (module, name) not in read)


def test_dead_private_names_are_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED, _DEAD = 1, 2\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Imported:\n    pass\n"
        "def public():\n    return _USED\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _Imported as Alias\nx = Alias, a._USED\n")
    assert dead_private_names(tmp_path) == ["a._DEAD", "a._recursive"]


def test_no_dead_private_names():
    assert dead_private_names(ROOT / "src" / "photonpurify") == []
