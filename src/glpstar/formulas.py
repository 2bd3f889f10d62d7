"""Sorted polymodal formulas: AST, sort calculus, modified negation, closures.

Formulas are immutable trees. The core connectives are T, F, variables,
negation, conjunction, disjunction and the indexed diamonds <n>. Boxes [n]
and implications are sugar removed by :func:`desugar`; every operation below
except :func:`desugar` itself expects core formulas.

Variable sorts range over 0, 1, 2, ... and the top sort omega. Negation
bumps a sort by one; the successor saturates at omega so sorts stay in range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union


class _Omega:
    """The top sort. Compares above every natural number."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "w"

    def __lt__(self, other):
        if isinstance(other, (int, _Omega)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, _Omega):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, _Omega):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, _Omega)):
            return True
        return NotImplemented

    def __hash__(self):
        return hash("_Omega")


OMEGA = _Omega()

Sort = Union[int, _Omega]


def sort_succ(s: Sort) -> Sort:
    """Successor of a sort, saturating at omega."""
    if s is OMEGA:
        return OMEGA
    return s + 1


def sort_max(a: Sort, b: Sort) -> Sort:
    if a is OMEGA or b is OMEGA:
        return OMEGA
    return max(a, b)


def render_sort(s: Sort) -> str:
    return "w" if s is OMEGA else str(s)


def _sort_key_of_sort(s: Sort):
    return (1, 0) if s is OMEGA else (0, s)


@dataclass(frozen=True)
class Formula:
    """Base class; use the concrete node classes below."""


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str
    sort: Sort = OMEGA


@dataclass(frozen=True, slots=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Dia(Formula):
    index: int
    child: Formula


@dataclass(frozen=True, slots=True)
class Box(Formula):
    """Sugar: [n]x stands for ~<n>~x."""

    index: int
    child: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    """Sugar: x -> y stands for ~x | y."""

    left: Formula
    right: Formula


TOP = Top()
BOT = Bot()


def desugar(formula: Formula) -> Formula:
    """Rewrite boxes and implications into the core connectives. Idempotent."""
    if isinstance(formula, (Top, Bot, Var)):
        return formula
    if isinstance(formula, Neg):
        return Neg(desugar(formula.child))
    if isinstance(formula, And):
        return And(desugar(formula.left), desugar(formula.right))
    if isinstance(formula, Or):
        return Or(desugar(formula.left), desugar(formula.right))
    if isinstance(formula, Dia):
        return Dia(formula.index, desugar(formula.child))
    if isinstance(formula, Box):
        return Neg(Dia(formula.index, Neg(desugar(formula.child))))
    if isinstance(formula, Implies):
        return Or(Neg(desugar(formula.left)), desugar(formula.right))
    raise TypeError(f"not a formula: {formula!r}")


def _require_core(formula: Formula) -> None:
    if isinstance(formula, (Box, Implies)):
        raise ValueError(f"expected a desugared formula, got {formula!r}")


def sort_of(formula: Formula) -> Sort:
    """Sort of a core formula: T/F are 0, <n>x is n, negation adds one."""
    _require_core(formula)
    if isinstance(formula, (Top, Bot)):
        return 0
    if isinstance(formula, Var):
        return formula.sort
    if isinstance(formula, Neg):
        return sort_succ(sort_of(formula.child))
    if isinstance(formula, (And, Or)):
        return sort_max(sort_of(formula.left), sort_of(formula.right))
    if isinstance(formula, Dia):
        return formula.index
    raise TypeError(f"not a formula: {formula!r}")


def modified_negation(formula: Formula) -> Formula:
    """Strip a top-level negation if present, otherwise negate."""
    _require_core(formula)
    if isinstance(formula, Neg):
        return formula.child
    return Neg(formula)


def subformulas(formula: Formula) -> frozenset[Formula]:
    """All subtrees of a core formula, including the formula itself."""
    out: set[Formula] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        _require_core(f)
        if f in out:
            continue
        out.add(f)
        if isinstance(f, Neg):
            stack.append(f.child)
        elif isinstance(f, (And, Or)):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, Dia):
            stack.append(f.child)
    return frozenset(out)


def _preorder(formula: Formula) -> Iterator[Formula]:
    yield formula
    if isinstance(formula, Neg):
        yield from _preorder(formula.child)
    elif isinstance(formula, (And, Or)):
        yield from _preorder(formula.left)
        yield from _preorder(formula.right)
    elif isinstance(formula, Dia):
        yield from _preorder(formula.child)


def diamond_subformulas(formula: Formula, order: str = "occurrence") -> list[tuple[int, Formula]]:
    """Distinct diamond subformulas <k>x as (k, x) pairs.

    "occurrence" lists them in leftmost-outermost order; "level" stable-sorts
    the occurrence order by modality index, so ties keep occurrence order.
    """
    _require_core(formula)
    seen: set[Formula] = set()
    pairs: list[tuple[int, Formula]] = []
    for f in _preorder(formula):
        if isinstance(f, Dia) and f not in seen:
            seen.add(f)
            pairs.append((f.index, f.child))
    if order == "occurrence":
        return pairs
    if order == "level":
        return sorted(pairs, key=lambda p: p[0])
    raise ValueError(f"unknown order {order!r}")


def variables_of(formula: Formula) -> list[Var]:
    """Distinct variables in leftmost-outermost occurrence order."""
    seen: set[Formula] = set()
    out: list[Var] = []
    for f in _preorder(formula):
        if isinstance(f, Var) and f not in seen:
            seen.add(f)
            out.append(f)
    return out


def modal_levels(formulas: Iterable[Formula]) -> frozenset[int]:
    """Indices n with a top-level diamond <n>x among the given formulas."""
    return frozenset(f.index for f in formulas if isinstance(f, Dia))


def adequate_closure(gamma: Iterable[Formula]) -> frozenset[Formula]:
    """Least adequate superset of gamma.

    Adds T, closes under subformulas and modified negations, and applies the
    three closure rules: every diamond body gets rediamonded at every present
    level; a variable of finite sort m gets <n> for present n >= m, and its
    negation gets <n> for present n > m.
    """
    delta: set[Formula] = set()

    def absorb(f: Formula) -> None:
        for g in subformulas(f):
            delta.add(g)
            delta.add(modified_negation(g))

    absorb(TOP)
    for f in gamma:
        _require_core(f)
        absorb(f)

    changed = True
    while changed:
        changed = False
        levels = modal_levels(delta)
        todo: list[Formula] = []
        for f in delta:
            if isinstance(f, Dia):
                for m in levels:
                    todo.append(Dia(m, f.child))
            elif isinstance(f, Var) and f.sort is not OMEGA:
                for n in levels:
                    if n >= f.sort:
                        todo.append(Dia(n, f))
            elif isinstance(f, Neg) and isinstance(f.child, Var) and f.child.sort is not OMEGA:
                for n in levels:
                    if n > f.child.sort:
                        todo.append(Dia(n, f))
        for f in todo:
            if f not in delta:
                absorb(f)
                changed = True
    return frozenset(delta)


def is_adequate(delta: Iterable[Formula]) -> bool:
    """Check adequacy directly against the closure conditions.

    Closure under subformulas is checked one step down: when every member's
    immediate children are members, so is every subtree, by induction on depth.
    """
    dset = frozenset(delta)
    if TOP not in dset:
        return False
    levels = modal_levels(dset)
    for f in dset:
        if modified_negation(f) not in dset:
            return False
        if isinstance(f, (Neg, Dia)) and f.child not in dset:
            return False
        if isinstance(f, (And, Or)) and (f.left not in dset or f.right not in dset):
            return False
        if isinstance(f, Dia):
            if any(Dia(m, f.child) not in dset for m in levels):
                return False
        if isinstance(f, Var) and f.sort is not OMEGA:
            if any(Dia(n, f) not in dset for n in levels if n >= f.sort):
                return False
        if isinstance(f, Neg) and isinstance(f.child, Var) and f.child.sort is not OMEGA:
            if any(Dia(n, f) not in dset for n in levels if n > f.child.sort):
                return False
    return True


def to_omega_sorted(formula: Formula) -> Formula:
    """Replace every variable's sort by omega, keeping the shape."""
    if isinstance(formula, Var):
        return Var(formula.name, OMEGA)
    if isinstance(formula, (Top, Bot)):
        return formula
    if isinstance(formula, Neg):
        return Neg(to_omega_sorted(formula.child))
    if isinstance(formula, And):
        return And(to_omega_sorted(formula.left), to_omega_sorted(formula.right))
    if isinstance(formula, Or):
        return Or(to_omega_sorted(formula.left), to_omega_sorted(formula.right))
    if isinstance(formula, Dia):
        return Dia(formula.index, to_omega_sorted(formula.child))
    if isinstance(formula, Box):
        return Box(formula.index, to_omega_sorted(formula.child))
    if isinstance(formula, Implies):
        return Implies(to_omega_sorted(formula.left), to_omega_sorted(formula.right))
    raise TypeError(f"not a formula: {formula!r}")


def formula_size(formula: Formula) -> int:
    """Node count."""
    if isinstance(formula, (Top, Bot, Var)):
        return 1
    if isinstance(formula, (Neg, Dia, Box)):
        return 1 + formula_size(formula.child)
    if isinstance(formula, (And, Or, Implies)):
        return 1 + formula_size(formula.left) + formula_size(formula.right)
    raise TypeError(f"not a formula: {formula!r}")


_KIND_ORDER = {Top: 0, Bot: 1, Var: 2, Neg: 3, And: 4, Or: 5, Dia: 6, Box: 7, Implies: 8}


def sort_key(formula: Formula):
    """Total structural order on formulas, for deterministic enumeration."""
    k = _KIND_ORDER[type(formula)]
    if isinstance(formula, (Top, Bot)):
        return (k,)
    if isinstance(formula, Var):
        return (k, formula.name, _sort_key_of_sort(formula.sort))
    if isinstance(formula, (Dia, Box)):
        return (k, formula.index, sort_key(formula.child))
    if isinstance(formula, Neg):
        return (k, sort_key(formula.child))
    return (k, sort_key(formula.left), sort_key(formula.right))


def conjoin(conjuncts: list[Formula]) -> Formula:
    """Left-associated conjunction; the empty conjunction is T."""
    if not conjuncts:
        return TOP
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = And(out, c)
    return out
