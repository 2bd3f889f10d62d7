"""Kripke models, frame-class validators, model checking.

A model is finite: a world tuple, finitely many nonempty indexed relations
and a valuation; a frame is a model without a valuation. The frame
validator checks the three conditions that carve out the target frame class
(per-level transitive irreflexive relations and the two inter-level
conditions); the persistence validator checks the two valuation clauses
tying variable truth to sorts along edges.

Model checking has one kernel: :func:`compile_formula` turns a formula
into a children-first program, and :func:`evaluate` runs it over world
bitmasks given each world's successor bitmask per modality and each
variable's extension. :class:`Evaluator` feeds it a :class:`KripkeModel`;
the oracle feeds it the bitmasks it enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .formulas import (
    WHITESPACE,
    And,
    Dia,
    Formula,
    Neg,
    Or,
    Sort,
    Top,
    Var,
    children_first,
    is_natural,
    walk,
)

IRREFLEXIVITY = "irreflexivity"
TRANSITIVITY = "transitivity"
CONDITION_II = "condition-ii"
CONDITION_III = "condition-iii"
PERSISTENCE_I = "persistence-i"
PERSISTENCE_II = "persistence-ii"


@dataclass(frozen=True)
class Violation:
    kind: str
    modalities: tuple[int, ...]
    worlds: tuple[str, ...]
    variable: Optional[str] = None

    def __str__(self):
        parts = [self.kind]
        if self.modalities:
            parts.append("levels " + ",".join(map(str, self.modalities)))
        if self.worlds:
            parts.append("worlds " + ",".join(self.worlds))
        if self.variable is not None:
            parts.append(f"variable {self.variable}")
        return ": ".join([parts[0], "; ".join(parts[1:])])


_NOT_IN_WORLD_NAMES = frozenset(WHITESPACE + ",#")  # field, member and comment separators


def is_world_name(text) -> bool:
    """True for a name a model file can give a world: a nonempty string
    without ASCII whitespace, ',' or '#'."""
    return isinstance(text, str) and text != "" and _NOT_IN_WORLD_NAMES.isdisjoint(text)


class KripkeModel:
    """Worlds, indexed relations over them and a valuation in which each
    variable name carries one sort; with no valuation, a frame.

    World names follow :func:`is_world_name` and relation indices are
    natural numbers; anything else is refused with a ValueError.
    """

    def __init__(
        self,
        worlds: Iterable[str] = (),
        relations: Optional[Mapping[int, Iterable[tuple[str, str]]]] = None,
        valuation: Optional[Mapping[str, Iterable[str]]] = None,
        sorts: Optional[Mapping[str, Sort]] = None,
        root: Optional[str] = None,
    ):
        self.worlds = tuple(worlds)
        if not self.worlds:
            raise ValueError("a frame needs at least one world")
        seen = set()
        for w in self.worlds:
            if not is_world_name(w):
                raise ValueError(f"{w!r} is not a world name")
            if w in seen:
                raise ValueError(f"duplicate world {w!r}")
            seen.add(w)
        self.relations: dict[int, frozenset[tuple[str, str]]] = {}
        for n, pairs in (relations or {}).items():
            if not is_natural(n):
                raise ValueError(f"a modality index is a natural number, not {n!r}")
            pairset = frozenset(pairs)
            if any(x not in seen or y not in seen for x, y in pairset):
                raise ValueError(f"relation {n} references undeclared world")
            if pairset:
                self.relations[n] = pairset
        self.valuation = {name: frozenset(members) for name, members in (valuation or {}).items()}
        self.sorts = dict(sorts or {})
        for name, sort in self.sorts.items():
            Var(name, sort)  # refuses a name or sort that no formula variable has
        for name, members in self.valuation.items():
            if name not in self.sorts:
                raise ValueError(f"variable {name!r} has no declared sort")
            for w in members:
                if w not in seen:
                    raise ValueError(f"valuation of {name!r} references undeclared world {w!r}")
        if root is not None and root not in seen:
            raise ValueError(f"undeclared root {root!r}")
        self.root = root

    def __eq__(self, other):
        return (
            isinstance(other, KripkeModel)
            and set(self.worlds) == set(other.worlds)
            and self.relations == other.relations
            and self.valuation == other.valuation
            and self.sorts == other.sorts
            and self.root == other.root
        )

    def __repr__(self):
        val = {f"{n}:{self.sorts[n]}": sorted(m) for n, m in self.valuation.items()}
        return (
            f"KripkeModel(worlds={self.worlds!r}, relations={self.relations!r}, "
            f"valuation={val!r}, root={self.root!r})"
        )


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def model_from_masks(count: int, succ: Mapping[int, Sequence[int]], valuation: Mapping[str, int],
                     sorts: Mapping[str, Sort], root: Optional[int] = None) -> KripkeModel:
    """Model on worlds w0 ... w(count-1) given as bitmasks over world positions.

    ``succ`` holds per level each world's successor mask, ``valuation`` per
    variable name its member mask; ``root`` is a world position.
    """
    names = tuple(f"w{i}" for i in range(count))
    return KripkeModel(
        worlds=names,
        relations={n: frozenset((names[x], names[y]) for x, row in enumerate(rows) for y in _bits(row))
                   for n, rows in succ.items()},
        valuation={name: frozenset(names[y] for y in _bits(mask)) for name, mask in valuation.items()},
        sorts=sorts,
        root=None if root is None else names[root],
    )


def check_jstar_frame(model: KripkeModel) -> list[Violation]:
    """All violations of the three frame conditions (empty list = valid frame)."""
    out: list[Violation] = []
    levels = sorted(model.relations)
    edges = {n: sorted(model.relations[n]) for n in levels}
    succ: dict[tuple[int, str], list[str]] = {}  # (level, world) -> its successors, ascending
    for n in levels:
        for x, y in edges[n]:
            succ.setdefault((n, x), []).append(y)
    for n in levels:
        rel = model.relations[n]
        for x, y in edges[n]:
            if x == y:
                out.append(Violation(IRREFLEXIVITY, (n,), (x,)))
        for x, y in edges[n]:
            for z in succ.get((n, y), ()):
                if (x, z) not in rel:
                    out.append(Violation(TRANSITIVITY, (n,), (x, y, z)))
    for ni, n in enumerate(levels):
        for m in levels[:ni]:
            rel_m = model.relations[m]
            for x, y in edges[n]:
                for z in model.worlds:
                    if ((x, z) in rel_m) != ((y, z) in rel_m):
                        out.append(Violation(CONDITION_II, (m, n), (x, y, z)))
            for x, y in edges[m]:
                for z in succ.get((n, y), ()):
                    if (x, z) not in rel_m:
                        out.append(Violation(CONDITION_III, (m, n), (x, y, z)))
    return out


def check_strong_persistence(model: KripkeModel) -> list[Violation]:
    """All violations of the two persistence clauses (omega variables are free)."""
    out: list[Violation] = []
    for n in sorted(model.relations):
        rel = model.relations[n]
        for name in sorted(model.valuation):
            sort = model.sorts[name]
            members = model.valuation[name]
            for x, y in sorted(rel):
                if sort <= n and y in members and x not in members:
                    out.append(Violation(PERSISTENCE_I, (n,), (x, y), name))
                if sort < n and y not in members and x in members:
                    out.append(Violation(PERSISTENCE_II, (n,), (x, y), name))
    return out


# Opcodes of a compiled program. Instruction i of a program computes the
# extension of node i: (TOP|BOT, 0, 0), (VAR, variable slot, 0),
# (NEG, child, 0), (AND|OR, left, right) and (DIA, modality, child), where
# child, left and right are the numbers of earlier instructions.
_TOP, _BOT, _VAR, _NEG, _AND, _OR, _DIA = range(7)


class Program(NamedTuple):
    """A formula compiled to a children-first program over world bitmasks.

    ``nodes`` are the distinct subformulas, each after its children;
    ``code`` holds one instruction per node; ``variables`` are the distinct
    variables in leftmost-outermost order, indexed by the VAR instructions;
    ``modalities`` are the diamond indices that occur.
    """

    nodes: tuple[Formula, ...]
    code: tuple[tuple[int, int, int], ...]
    variables: tuple[Var, ...]
    modalities: frozenset[int]


@lru_cache(maxsize=1)
def compile_formula(formula: Formula) -> Program:
    """Compile a formula's distinct nodes, children first
    (:func:`formulas.children_first`).

    Variables come out in leftmost-outermost order, and a shared subformula
    is compiled once. The last program is kept: a search checks its
    refutation, and ``decide`` checks its countermodel, against the formula
    it just compiled.
    """
    nodes = children_first(walk(formula))
    slot = {f: i for i, f in enumerate(nodes)}
    variables: list[Var] = []
    code: list[tuple[int, int, int]] = []
    modalities: set[int] = set()
    for f in nodes:
        cls = type(f)
        if cls is Neg:
            op = (_NEG, slot[f.child], 0)
        elif cls is And:
            op = (_AND, slot[f.left], slot[f.right])
        elif cls is Or:
            op = (_OR, slot[f.left], slot[f.right])
        elif cls is Dia:
            op = (_DIA, f.index, slot[f.child])
            modalities.add(f.index)
        elif cls is Var:
            op = (_VAR, len(variables), 0)
            variables.append(f)
        else:
            op = (_TOP if cls is Top else _BOT, 0, 0)
        code.append(op)
    return Program(tuple(nodes), tuple(code), tuple(variables), frozenset(modalities))


def evaluate(code: Sequence[tuple[int, int, int]], full: int,
             succ: Mapping[int, Sequence[int]], values: Sequence[int]) -> list[int]:
    """Run a program: the extension of every node, as world bitmasks.

    ``full`` has one bit per world; ``succ`` maps a modality to the
    successor bitmask of each world (a missing modality has no edges);
    ``values`` holds each variable slot's extension.
    """
    ext: list[int] = []
    push = ext.append
    for op, a, b in code:
        if op == _DIA:
            child = ext[b]
            rows = succ.get(a)
            out = 0
            if rows and child:
                bit = 1
                for row in rows:
                    if row & child:
                        out |= bit
                    bit <<= 1
            push(out)
        elif op == _NEG:
            push(full & ~ext[a])
        elif op == _AND:
            push(ext[a] & ext[b])
        elif op == _OR:
            push(ext[a] | ext[b])
        elif op == _VAR:
            push(values[a])
        else:
            push(full if op == _TOP else 0)
    return ext


class Evaluator:
    """Extensions over a model, as world bitmasks (bit i is world i).

    A formula variable is read from the valuation by name; a name that the
    model lacks, or declares with another sort, is refused with a ValueError.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self.index = {w: i for i, w in enumerate(model.worlds)}
        self.full = (1 << len(model.worlds)) - 1
        self.succ: dict[int, list[int]] = {}
        for n, rel in model.relations.items():
            masks = [0] * len(model.worlds)
            for x, y in rel:
                masks[self.index[x]] |= 1 << self.index[y]
            self.succ[n] = masks

    def _members(self, var: Var) -> int:
        name = var.name
        sort = self.model.sorts.get(name, var.sort)
        if sort != var.sort:
            raise ValueError(f"variable {name!r} has sort {var.sort} in the formula "
                             f"and sort {sort} in the model")
        members = self.model.valuation.get(name)
        if members is None:
            raise ValueError(f"variable {name!r} is not in the model's valuation")
        mask = 0
        for w in members:
            mask |= 1 << self.index[w]
        return mask

    def extension(self, formula: Formula) -> int:
        program = compile_formula(formula)
        values = [self._members(v) for v in program.variables]
        return evaluate(program.code, self.full, self.succ, values)[-1]

    def holds(self, world: str, formula: Formula) -> bool:
        if world not in self.index:
            raise KeyError(f"unknown world {world!r}")
        return bool(self.extension(formula) >> self.index[world] & 1)


def model_check(model: KripkeModel, world: str, formula: Formula) -> bool:
    """Truth of a formula at a world."""
    return Evaluator(model).holds(world, formula)


def valid_in_model(model: KripkeModel, formula: Formula) -> bool:
    """True when the formula holds at every world."""
    ev = Evaluator(model)
    return ev.extension(formula) == ev.full


def find_roots(model: KripkeModel) -> frozenset[str]:
    """Worlds seeing every other world in one step, under some relation. On a
    frame that passes :func:`check_jstar_frame` these are the worlds reaching
    every other one along a path (see the :mod:`oracle` module docstring)."""
    index = {w: i for i, w in enumerate(model.worlds)}
    full = (1 << len(model.worlds)) - 1
    step = [0] * len(model.worlds)
    for rel in model.relations.values():
        for x, y in rel:
            step[index[x]] |= 1 << index[y]
    return frozenset(w for w, i in index.items() if step[i] | (1 << i) == full)


def adjoin_root(model: KripkeModel) -> KripkeModel:
    """Add a fresh world below everything at level 0, copying the root's valuation.

    The input needs a designated root; the new world becomes the root, sees
    every old world through the level-0 relation, and agrees with the old
    root on every variable.
    """
    if model.root is None:
        raise ValueError("adjoin_root needs a model with a designated root")
    fresh = "0"
    k = 0
    while fresh in model.worlds:
        fresh = f"r{k}"
        k += 1
    relations = {n: set(rel) for n, rel in model.relations.items()}
    r0 = relations.setdefault(0, set())
    for w in model.worlds:
        r0.add((fresh, w))
    valuation = {}
    for name, members in model.valuation.items():
        if model.root in members:
            valuation[name] = frozenset(members | {fresh})
        else:
            valuation[name] = members
    return KripkeModel(
        worlds=(fresh,) + model.worlds,
        relations=relations,
        valuation=valuation,
        sorts=model.sorts,
        root=fresh,
    )
