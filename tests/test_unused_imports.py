"""No unused imports in the library.

A name a module imports but never uses is dead weight that outlives the
code it once served. This guard parses every module of the package other
than ``__init__.py`` (whose imports are its public names) with ``ast`` and
fails on any imported name that the module never reads.
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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    found = []
    for path in sorted(Path(glpstar.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            found += [f"{path.stem}.{name}"
                      for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


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
