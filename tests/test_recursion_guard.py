"""No unbounded recursion in the library.

Formulas can nest deeper than the interpreter's recursion limit, so code
that walks them must not recurse. This guard parses every module of the
package with ``ast``, builds each module's call graph from plain-name calls
(resolved through the enclosing function scopes, then the module) and from
``self.``/``cls.`` method calls (resolved in the enclosing class), and fails
on any cycle, direct or mutual, that is not a recursion listed below with
what bounds its depth.
"""

import ast
from pathlib import Path

import glpstar

# module.qualified name -> what bounds the recursion depth
ALLOWED = {
    "oracle._strict_orders": "the world count of the search",
}


def _own_calls(function):
    """Calls in a function's body, not in the functions and classes nested in it."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


class _Scopes(ast.NodeVisitor):
    """Qualified names of functions and the calls made in each."""

    def __init__(self):
        self.defs: set[str] = set()
        self.calls: dict[str, list[tuple[tuple[str, ...], str, str]]] = {}
        self.path: list[tuple[str, str]] = []  # (kind, name) of enclosing scopes

    def _qual(self, name: str) -> str:
        return ".".join([n for _, n in self.path] + [name])

    def visit_ClassDef(self, node):
        self.path.append(("class", node.name))
        self.generic_visit(node)
        self.path.pop()

    def visit_FunctionDef(self, node):
        qual = self._qual(node.name)
        self.defs.add(qual)
        self.path.append(("def", node.name))
        # plain names resolve through function scopes only, not class bodies
        visible = tuple(
            ".".join(n for _, n in self.path[: i + 1])
            for i, (kind, _) in enumerate(self.path) if kind == "def"
        )
        klass = next((".".join(n for _, n in self.path[:i + 1])
                      for i in range(len(self.path) - 1, -1, -1)
                      if self.path[i][0] == "class"), None)
        for sub in _own_calls(node):
            fn = sub.func
            if isinstance(fn, ast.Name):
                self.calls.setdefault(qual, []).append((visible, "name", fn.id))
            elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                  and fn.value.id in ("self", "cls") and klass is not None):
                self.calls.setdefault(qual, []).append(((klass,), "method", fn.attr))
        self.generic_visit(node)
        self.path.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def call_graph(source: str) -> dict[str, set[str]]:
    scopes = _Scopes()
    scopes.visit(ast.parse(source))
    graph: dict[str, set[str]] = {name: set() for name in scopes.defs}
    for caller, calls in scopes.calls.items():
        for visible, kind, name in calls:
            prefixes = visible[::-1] + ("",) if kind == "name" else visible
            for prefix in prefixes:
                target = f"{prefix}.{name}" if prefix else name
                if target in scopes.defs:
                    graph[caller].add(target)
                    break
    return graph


def cycles(graph: dict[str, set[str]]) -> list[set[str]]:
    """Strongly connected components that contain a cycle (Tarjan, iterative)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out = []
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            child = next(children, None)
            if child is not None:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    out.append(component)
    return out


def package_cycles() -> list[set[str]]:
    found = []
    for path in sorted(Path(glpstar.__file__).parent.glob("*.py")):
        for component in cycles(call_graph(path.read_text(encoding="utf-8"))):
            found.append({f"{path.stem}.{name}" for name in component})
    return found


def test_no_recursion_outside_the_bounded_ones():
    found = package_cycles()
    unexpected = [sorted(c) for c in found if not c <= ALLOWED.keys() or len(c) > 1]
    assert unexpected == []
    # each allowed recursion still exists, so the list stays current
    assert sorted(name for c in found for name in c) == sorted(ALLOWED)


def test_guard_sees_direct_mutual_nested_and_method_recursion():
    source = '''
def direct(n):
    return direct(n - 1)

def ping(n):
    return pong(n)

def pong(n):
    return ping(n)

def outer():
    def inner(n):
        return inner(n - 1) + outer_helper()
    return inner(3)

def outer_helper():
    return outer()

class Walker:
    def visit(self, node):
        return self.visit(node.child)

    def leave(self, node):
        return visit(node)

def visit(node):
    return len(node)
'''
    found = sorted(sorted(c) for c in cycles(call_graph(source)))
    assert found == [["Walker.visit"], ["direct"], ["outer", "outer.inner", "outer_helper"],
                     ["ping", "pong"]]
