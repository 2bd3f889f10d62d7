"""No private name of the library that nothing reads, and no export that
nothing uses.

A module-level ``_name`` or a private method is meant for the library
itself, so once no code in the package reads it, it is dead. This guard
parses every module of the package with ``ast`` and fails on any such name
that no module reads, by name or as an attribute. Dunder names are the
interpreter's and are not checked.

A name in ``glpstar.__all__`` is meant for callers, so one that neither the
package, the demos, the benchmark nor the README uses is dead too.
"""

import ast
import re
from pathlib import Path

import glpstar

ROOT = Path(__file__).resolve().parents[1]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> list[str]:
    """Private module-level names and private methods of module-level
    classes, in source order; a method as ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and _is_private(item.name)]
    return [name for name in found if _is_private(name.rpartition(".")[2])]


def read_names(tree: ast.Module) -> set[str]:
    """Names the code reads: loaded names and loaded attributes."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private definition no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in private_definitions(tree) if name.rpartition(".")[2] not in read]


def test_every_private_name_is_read():
    package = Path(glpstar.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert dead_private_names(sources) == []


def unused_exports(exported: list[str], package: dict[str, str], users: list[str],
                   readme: str) -> list[str]:
    """The exported names that no package module but ``__init__`` reads
    outside the name's own definition, no user module reads and the README
    does not mention."""
    read = set()
    for module, source in package.items():
        if module != "__init__":
            for node in ast.parse(source).body:
                own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
                read |= read_names(node) - own
    read = read.union(*(read_names(ast.parse(source)) for source in users), re.findall(r"\w+", readme))
    return [name for name in exported if name not in read]


def test_every_export_is_used():
    package = Path(glpstar.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    users = [path.read_text(encoding="utf-8")
             for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_exports(glpstar.__all__, sources, users, readme) == []


def test_export_guard_skips_own_definitions_and_reads_users_and_readme():
    package = {
        "__init__": "from .core import run, loop, helper, Shown, Quoted\nrun, loop, helper",
        "core": "def run():\n    return helper()\n\ndef loop():\n    return loop()\n\n"
                "def helper():\n    pass\n\nclass Shown:\n    pass\n\nclass Quoted:\n    pass\n",
    }
    users = ["import pkg\npkg.Shown()"]
    assert unused_exports(["run", "loop", "helper", "Shown", "Quoted"], package, users,
                          "Call `Quoted` to quote.") == ["run", "loop"]


def test_export_list_holds_no_submodule():
    assert "oracle" not in glpstar.__all__ and "cross_validate" in glpstar.__all__
    assert all(not isinstance(getattr(glpstar, name), type(glpstar)) for name in glpstar.__all__)


def test_guard_sees_functions_classes_assignments_and_methods():
    first = '''
_used = 1
_dead: int = 2
_a, (_b, public) = 1, (2, 3)
_cached = None

def _helper():
    return _used + _a

class _Kept:
    def _read(self):
        return self._cached

    def _unread(self):
        pass

    def __init__(self):
        self._read()

class Public:
    def _elsewhere(self):
        pass
'''
    second = '''
from first import _helper, _Kept

def run(obj):
    _helper()
    obj._elsewhere()
    return _Kept
'''
    assert dead_private_names({"first": first, "second": second}) == [
        "first._dead", "first._b", "first._Kept._unread"]
