"""Sorted polymodal formulas: AST, sort calculus, modified negation, closures.

Formula nodes are hash-consed: building a node equal to a live one returns
that same node, so structurally equal formulas are identical objects and
``==`` and ``hash`` are the identity ones, O(1) at any depth. Construction
is thread-safe: two threads building equal formulas get one node. Nodes are
immutable; ``copy`` and ``pickle`` round-trip to the interned node. Each
node computes its size and sort once, from its children's. Nodes carry no
order: a caller that needs one takes the order of a walk.

The connectives are T, F, variables, negation, conjunction, disjunction
and the indexed diamonds <n>; these are the only node classes. The boxes
[n]x and the implications x -> y are abbreviations: :func:`Box` and
:func:`Implies` build ~<n>~x and ~x | y, so every formula is core.

A sort is a number: a natural 0, 1, 2, ... or the top sort omega, which is
:data:`OMEGA`, positive infinity, printed ``w``. Sorts compare as numbers,
the sort of x & y is the larger one, and negation adds one, with
omega + 1 = omega. A variable's name is an ASCII identifier other than T
and F (:func:`is_variable_name`); :class:`Var` refuses any other name or sort.
A modality index is a natural number (:func:`is_natural`); :class:`Dia`
refuses any other.
"""

from __future__ import annotations

import string
import threading
import weakref
from dataclasses import FrozenInstanceError
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Union


class _Omega(float):
    """The top sort omega: positive infinity, so it lies above every natural
    number, and omega + 1 is omega. Copies and pickles are ``OMEGA`` itself."""

    __slots__ = ()

    def __new__(cls):
        return super().__new__(cls, "inf")

    def __repr__(self):
        return "w"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __reduce__(self):
        return "OMEGA"


OMEGA = _Omega()  # the one instance; a sort is a natural number or OMEGA

Sort = Union[int, _Omega]

# The name rule, as sets rather than a regex: the tokenizer scans a name on
# every parse, and a regex call per name costs it several percent.
NAME_START = frozenset(string.ascii_letters + "_")
NAME_CHARS = NAME_START | frozenset(string.digits)

# The six ASCII whitespace characters, which separate tokens and fields in
# formula, model and proof text.
WHITESPACE = " \t\n\r\f\v"


def is_natural(value) -> bool:
    """True for a natural number: an ``int`` at least 0, ``bool`` excluded.
    A modality index is one, and so is every sort but omega."""
    return type(value) is int and value >= 0


@lru_cache(maxsize=1024)  # every parse builds its variables anew
def is_variable_name(text: str) -> bool:
    """True for a name a formula can refer to: an ASCII identifier other than T, F."""
    return (isinstance(text, str) and text[:1] in NAME_START and NAME_CHARS.issuperset(text)
            and text not in ("T", "F"))


class Formula:
    """Base class; use the concrete node classes below.

    A node's fields are named in ``__match_args__``. Each node also carries
    its node count and its sort, computed once from its children's values
    when the node is first built.
    """

    __slots__ = ("_size", "_sort", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # slot setters, which bypass __setattr__, for fields then derived values
        names = (*cls.__match_args__, "_size", "_sort")
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which interns
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# Live nodes by (class, *fields). An entry lives as long as its node; the key
# holds the children, which the node holds anyway.
_nodes: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()
_nodes_lock = threading.Lock()


def _intern(cls: type, fields: tuple) -> Formula:
    """The live node of this class with these fields, built on a miss.

    On a miss the node is built, then inserted under the lock by
    ``setdefault``, which looks the key up again: when another thread
    inserted an equal node first, that one is returned and ours is dropped,
    so equal formulas are one node. ``cls._derive`` maps the fields to the
    node's (size, sort). A field that cannot be hashed breaks its rule, so
    ``_derive`` raises that rule's error for it.
    """
    key = (cls, *fields)
    try:
        node = _nodes.get(key)
    except TypeError:
        cls._derive(*fields)
        raise
    if node is None:
        node = object.__new__(cls)
        for setter, value in zip(cls._setters, (*fields, *cls._derive(*fields))):
            setter(node, value)
        with _nodes_lock:
            node = _nodes.setdefault(key, node)
    return node


def _not_a_formula(*children) -> ValueError:
    """The error for a node over a child that is not a formula. ``_derive``
    raises it when a child lacks the derived values, so only a failed
    derivation pays for the check, and only a miss runs ``_derive``."""
    bad = next(child for child in children if not isinstance(child, Formula))
    return ValueError(f"a formula's child is a formula, not {bad!r}")


class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ())

    @staticmethod
    def _derive():
        return 1, 0


class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, ())

    @staticmethod
    def _derive():
        return 1, 0


class Var(Formula):
    __slots__ = ("name", "sort")
    __match_args__ = ("name", "sort")

    def __new__(cls, name: str, sort: Sort = OMEGA):
        if sort is not OMEGA and not is_natural(sort):
            raise ValueError(f"a sort is a natural number or w, not {sort!r}")
        return _intern(cls, (name, sort))

    @staticmethod
    def _derive(name, sort):
        # only a new node gets here, so an invalid name is never interned;
        # the name cache hashes its argument, so a non-string is refused first
        if not isinstance(name, str) or not is_variable_name(name):
            raise ValueError(f"{name!r} is not a variable name")
        return 1, sort


class Neg(Formula):
    __slots__ = ("child",)
    __match_args__ = ("child",)

    def __new__(cls, child: Formula):
        return _intern(cls, (child,))

    @staticmethod
    def _derive(child):
        try:
            return 1 + child._size, child._sort + 1
        except AttributeError:
            raise _not_a_formula(child) from None


class And(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _intern(cls, (left, right))

    @staticmethod
    def _derive(left, right):
        try:
            return 1 + left._size + right._size, max(left._sort, right._sort)
        except AttributeError:
            raise _not_a_formula(left, right) from None


class Or(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _intern(cls, (left, right))

    @staticmethod
    def _derive(left, right):
        try:
            return 1 + left._size + right._size, max(left._sort, right._sort)
        except AttributeError:
            raise _not_a_formula(left, right) from None


class Dia(Formula):
    __slots__ = ("index", "child")
    __match_args__ = ("index", "child")

    def __new__(cls, index: int, child: Formula):
        # checked before the lookup: True and 1.0 are equal keys to 1
        if not is_natural(index):
            raise ValueError(f"a modality index is a natural number, not {index!r}")
        return _intern(cls, (index, child))

    @staticmethod
    def _derive(index, child):
        try:
            return 1 + child._size, index
        except AttributeError:
            raise _not_a_formula(child) from None


TOP = Top()
BOT = Bot()


def Box(index: int, child: Formula) -> Formula:
    """[n]x, which abbreviates ~<n>~x."""
    return Neg(Dia(index, Neg(child)))


def Implies(left: Formula, right: Formula) -> Formula:
    """x -> y, which abbreviates ~x | y."""
    return Or(Neg(left), right)


_UNARY = frozenset({Neg, Dia})
_BINARY = frozenset({And, Or})


def walk(formula: Formula, memo=(), dia_leaves: bool = False) -> list[Formula]:
    """The distinct nodes of a formula in entry order: leftmost-outermost,
    each node before its children.

    One iterative depth-first walk, children left to right. A node in
    ``memo`` is skipped with everything below it; with ``dia_leaves`` a
    diamond's body is not entered.
    """
    seen: dict[Formula, None] = {}  # insertion-ordered, so it is the order too
    stack: list[Formula] = [formula]
    pop = stack.pop
    while stack:
        f = pop()
        if f not in seen and f not in memo:
            seen[f] = None
            cls = type(f)
            if cls in _BINARY:
                stack += (f.right, f.left)
            elif cls in _UNARY and not (dia_leaves and cls is Dia):
                stack.append(f.child)
    return list(seen)


def children_first(nodes: Iterable[Formula]) -> list[Formula]:
    """The nodes, each after those of its children that are among them.

    A child's size is strictly below its parent's, so sorting by size puts
    children first; the sort is stable, so the leaves, all of size 1, keep
    their order (leftmost-outermost, on a walk).
    """
    return sorted(nodes, key=attrgetter("_size"))


def fold_boolean(formula: Formula, memo: dict, full, atom):
    """Boolean value of a formula over its variables and diamonds.

    The one boolean kernel: values are bit columns (Python ints or numpy
    bool arrays) combined by ``&``, ``|`` and ``full ^``, where ``full`` is
    the all-true column. ``atom`` gives a variable's or a diamond's column.
    ``memo`` maps nodes to their columns; it is read and extended.
    """
    for f in children_first(walk(formula, memo, dia_leaves=True)):
        cls = type(f)
        if cls is Neg:
            value = full ^ memo[f.child]
        elif cls is And:
            value = memo[f.left] & memo[f.right]
        elif cls is Or:
            value = memo[f.left] | memo[f.right]
        elif cls is Var or cls is Dia:
            value = atom(f)
        else:
            value = full if cls is Top else full ^ full
        memo[f] = value
    return memo[formula]


def desugar(formula: Formula) -> Formula:
    """The formula itself: :func:`Box` and :func:`Implies` already build
    core formulas, so there is nothing to rewrite."""
    return formula


def sort_of(formula: Formula) -> Sort:
    """Sort of a formula: T/F are 0, <n>x is n, negation adds one."""
    return formula._sort


def modified_negation(formula: Formula) -> Formula:
    """Strip a top-level negation if present, otherwise negate."""
    if isinstance(formula, Neg):
        return formula.child
    return Neg(formula)


def subformulas(formula: Formula) -> frozenset[Formula]:
    """All subtrees of a formula, including the formula itself."""
    return frozenset(walk(formula))


def diamond_subformulas(formula: Formula) -> list[tuple[int, Formula]]:
    """Distinct diamond subformulas <k>x as (k, x) pairs, leftmost-outermost."""
    return [(f.index, f.child) for f in walk(formula) if type(f) is Dia]


def variables_of(formula: Formula) -> list[Var]:
    """Distinct variables in leftmost-outermost occurrence order."""
    return [f for f in walk(formula) if type(f) is Var]


def modal_levels(formulas: Iterable[Formula]) -> frozenset[int]:
    """Indices n with a top-level diamond <n>x among the given formulas."""
    return frozenset(f.index for f in formulas if isinstance(f, Dia))


def require_one_sort_per_name(variables: Iterable[tuple[str, Sort]]) -> None:
    """Refuse a variable name used with two sorts: a model's valuation is
    keyed by name, so the two would merge."""
    seen: dict[str, Sort] = {}
    for name, sort in variables:
        if seen.setdefault(name, sort) != sort:
            low, high = sorted((seen[name], sort))
            raise ValueError(f"variable {name!r} used with sorts {low} and {high}")


def _bodies(delta: Iterable[Formula], levels: frozenset[int]) -> list[Formula]:
    """The formulas an adequate set holds under a diamond at every present level.

    These are the bodies of its diamonds, its variables p of finite sort s
    when some present level is at least s, and their negations ~p when
    some present level exceeds s, built here, so that a set closed under
    subformulas gives the bodies of its adequate closure. They come in the
    order in which ``delta`` first meets them.
    """
    top = max(levels, default=-1)
    bodies: dict[Formula, None] = {}  # insertion-ordered
    for f in delta:
        cls = type(f)
        if cls is Dia:
            bodies[f.child] = None
        elif cls is Var and f.sort <= top:
            bodies[f] = None
            if f.sort < top:
                bodies[Neg(f)] = None
    return list(bodies)


def adequate_closure(gamma: Iterable[Formula]) -> frozenset[Formula]:
    """Least adequate superset of gamma.

    Adds T and closes under subformulas and modified negations; then, for
    the present levels L and the bodies b (see :func:`_bodies`), adds the
    grid of diamonds <m>b for every m in L. One pass suffices: the grid adds
    diamonds only at levels in L, over bodies already in the set, and their
    negations, so neither L nor the bodies change.
    """
    delta: set[Formula] = {TOP, Neg(TOP)}
    for f in gamma:
        # delta stays closed under subformulas and modified negations, so
        # the walk skips members: a negation's modified negation is its
        # child, and any other node g brings ~g.
        for g in walk(f, delta):
            delta.add(g)
            delta.add(g.child if type(g) is Neg else Neg(g))
    levels = modal_levels(delta)
    for body in _bodies(delta, levels):
        for m in levels:  # over a member body, a diamond brings only its negation
            delta.update((Dia(m, body), Neg(Dia(m, body))))
    return frozenset(delta)


def to_omega_sorted(formula: Formula) -> Formula:
    """Replace every variable's sort by omega, keeping the shape."""
    out: dict[Formula, Formula] = {}
    for f in children_first(walk(formula)):
        cls = type(f)
        if cls is Var:
            out[f] = Var(f.name, OMEGA)
        elif cls is Neg:
            out[f] = Neg(out[f.child])
        elif cls is Dia:
            out[f] = Dia(f.index, out[f.child])
        elif cls in _BINARY:
            out[f] = cls(out[f.left], out[f.right])
        else:
            out[f] = f
    return out[formula]


def formula_size(formula: Formula) -> int:
    """Node count of the tree, shared subtrees counted once per occurrence."""
    return formula._size


def conjoin(conjuncts: list[Formula]) -> Formula:
    """Left-associated conjunction; the empty conjunction is T."""
    if not conjuncts:
        return TOP
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = And(out, c)
    return out
