"""Spans around the library's layer boundaries, recorded from outside it.

``instrument`` replaces, for the duration of a ``with`` block, the names
that the decide and oracle modules look up at call time (and a few engine
methods) with wrappers that record a span per call. Nothing under ``src/``
changes. Spans live in flat arrays: name, start, end, parent span and the
id of the timed call that caused them.

A wrapper opens no span while the innermost open span has its own name, so
recursion and calls between functions of one phase (``build_model`` calling
``relation``) fold into one span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from typing import Callable

# (module, attribute looked up at call time, span name)
FUNCTION_POINTS = (
    ("glpstar.parsing", "parse_formula", "parsing.parse"),
    ("glpstar.decide", "decide", "decide.decide"),
    ("glpstar.decide", "reduction_target", "reductions.reduce"),
    ("glpstar.decide", "modified_negation", "formulas.closure"),
    ("glpstar.decide", "subformulas", "formulas.closure"),
    ("glpstar.decide", "adequate_closure", "formulas.closure"),
    ("glpstar.decide", "CanonicalEngine", "hintikka.build"),
    ("glpstar.hintikka", "is_adequate", "formulas.adequacy"),
    ("glpstar.decide", "model_check", "kripke.model_check"),
    ("glpstar.decide", "check_jstar_frame", "kripke.validate"),
    ("glpstar.decide", "check_strong_persistence", "kripke.validate"),
    ("glpstar.oracle", "brute_force_countermodel", "oracle.search"),
    ("glpstar.oracle", "check_jstar_frame", "kripke.validate"),
    ("glpstar.oracle", "check_strong_persistence", "kripke.validate"),
)

# (module, class, method, span name); patched on the class itself
METHOD_POINTS = (
    ("glpstar.hintikka", "CanonicalEngine", "truth_column", "hintikka.truth_column"),
    ("glpstar.hintikka", "CanonicalEngine", "eliminate", "hintikka.eliminate"),
    ("glpstar.hintikka", "CanonicalEngine", "find_witness", "decide.extract"),
    ("glpstar.hintikka", "CanonicalEngine", "build_model", "decide.extract"),
    ("glpstar.hintikka", "CanonicalEngine", "contains", "decide.extract"),
    ("glpstar.hintikka", "CanonicalEngine", "relation", "decide.extract"),
)

# The oracle's evaluator is swapped for a traced subclass in the oracle
# module only, so model checks on the decide path stay under kripke.
EVALUATOR_POINT = ("glpstar.oracle", "Evaluator", "oracle.evaluate")


class Tracer:
    """In-memory span store."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.call_id = -1
        self._stack: list[tuple[int, str]] = []
        self.skipped: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        label_id = self._intern(name)
        stack, label, start, end, parent, call = (
            self._stack, self.label, self.start, self.end, self.parent, self.call
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            idx = len(start)
            label.append(label_id)
            parent.append(stack[-1][0] if stack else -1)
            call.append(tracer.call_id)
            end.append(0.0)
            stack.append((idx, name))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def spans(self):
        """(name, start, end, parent, call) for every recorded span."""
        for i in range(len(self.start)):
            yield (self.names[self.label[i]], self.start[i], self.end[i],
                   self.parent[i], self.call[i])


def self_times(names: list[str], label, start, end, parent) -> tuple[dict, dict, dict]:
    """Per span name: summed self time, summed wall of outermost spans, count.

    Self time is a span's duration minus the durations of its direct
    children; children of one synchronous span never overlap.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    self_sum: dict[str, float] = {}
    wall_sum: dict[str, float] = {}
    count: dict[str, int] = {}
    for i in range(n):
        name = names[label[i]]
        dur = end[i] - start[i]
        self_sum[name] = self_sum.get(name, 0.0) + dur - child[i]
        count[name] = count.get(name, 0) + 1
        p = parent[i]
        if p < 0 or names[label[p]] != name:
            wall_sum[name] = wall_sum.get(name, 0.0) + dur
    return self_sum, wall_sum, count


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers; restore every replaced name on exit."""
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, span in FUNCTION_POINTS:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                tracer.skipped.append(f"{module_name}.{attr}")
                continue
            restore.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        for module_name, cls_name, method, span in METHOD_POINTS:
            cls = getattr(sys.modules[module_name], cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                tracer.skipped.append(f"{module_name}.{cls_name}.{method}")
                continue
            restore.append((cls, method, original))
            setattr(cls, method, tracer.wrap(span, original))
        module_name, cls_name, span = EVALUATOR_POINT
        module = sys.modules[module_name]
        base = getattr(module, cls_name, None)
        if base is None:
            tracer.skipped.append(f"{module_name}.{cls_name}")
        else:
            traced_cls = type(
                f"Traced{cls_name}",
                (base,),
                {
                    "__init__": tracer.wrap(span, base.__init__),
                    "extension": tracer.wrap(span, base.extension),
                },
            )
            restore.append((module, cls_name, base))
            setattr(module, cls_name, traced_cls)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
