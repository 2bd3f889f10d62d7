"""No unused imports in the library or its tests.

A name a module imports but never uses is dead weight that outlives the
code it once served. This guard parses every module of the package other
than ``__init__.py`` (whose imports are its public names), and every module
of the test suite, with ``ast`` and fails on any imported name that the
module never reads.
"""

import ast
from pathlib import Path

import glpstar


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads, in
    source order; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in used]


def unused_in(paths) -> list[str]:
    """``module.name`` for each unused import of the given modules."""
    return [f"{path.stem}.{name}" for path in paths
            for name in unused_imports(path.read_text(encoding="utf-8"))]


def test_every_imported_name_is_used():
    package = Path(glpstar.__file__).parent
    assert unused_in(path for path in sorted(package.glob("*.py")) if path.name != "__init__.py") == []


def test_every_name_a_test_module_imports_is_used():
    assert unused_in(sorted(Path(__file__).parent.glob("*.py"))) == []


def test_guard_sees_plain_dotted_aliased_and_from_imports():
    source = '''
from __future__ import annotations
import os
import os.path
import numpy as np
from typing import Optional, Iterable
from .formulas import Var as V, Dia

def f(x: Optional[int]) -> V:
    return np.zeros(x), Dia
'''
    assert unused_imports(source) == ["os", "os", "Iterable"]


def test_guard_reads_test_modules_and_counts_only_loads(tmp_path):
    # a name a module only assigns is never read
    (tmp_path / "test_a.py").write_text("from reference import helper, check\n\nhelper = 1\ncheck()\n")
    (tmp_path / "test_b.py").write_text("import pytest\n\n@pytest.mark.slow\ndef test():\n    pass\n")
    assert unused_in(sorted(tmp_path.glob("*.py"))) == ["test_a.helper"]
