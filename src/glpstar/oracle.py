"""Exhaustive finite-model search: refuter and cross-validator.

Models are enumerated by world count, then by the relation bitmaps in
ascending order (lowest modality outermost), then by valuation bitmaps.
The strict orders on k worlds are built from those on k-1 worlds, one new
world at a time, and sorted. Frames are stacked level by level from these
tables. The two inter-level conditions each restrict one pair of the higher
relation at a time, so every chosen level yields an allowed-pairs mask, and
a higher order fits the levels below it when it lies inside the AND of
their masks; every frame passes the frame validator by construction.
Valuations are the persistence-closed member sets per variable (closed
under predecessors at levels from the sort up and successors strictly above
it): a set is kept when it holds every member's direct requirements.

The search runs in index space. The goal is compiled once into a post-order
program (:func:`kripke.compile_formula`), and each enumerated model, as
relation rows and valuation bitmasks, runs it through the same kernel as
:class:`kripke.Evaluator`. Only the refuting model is materialized as a
:class:`KripkeModel`, which both validators and an ``Evaluator`` then check.
The model budget is checked before a world count's frame table or a frame's
valuations are built.

Absence of a countermodel within the budget proves nothing; this module
never claims theoremhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .formulas import OMEGA, Formula, Sort, desugar
from .kripke import (
    Evaluator,
    KripkeModel,
    check_jstar_frame,
    check_strong_persistence,
    compile_formula,
    evaluate,
)


@dataclass(frozen=True)
class SearchBudget:
    max_worlds: int = 4
    modalities: Optional[tuple[int, ...]] = None
    max_models: int = 10_000_000

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_models < 1:
            raise ValueError("budget bounds must be positive")


_strict_orders_cache: dict[int, list[int]] = {1: [0]}


def _rows(mask: int, k: int) -> list[int]:
    return [(mask >> (i * k)) & ((1 << k) - 1) for i in range(k)]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _strict_orders(k: int) -> list[int]:
    """All transitive irreflexive relations on k worlds, ascending bitmaps.

    Bit ``x * k + y`` stands for x R y. Each order on worlds 0..k-2 is
    extended by world m = k-1 with predecessors P and successors S: P is
    closed downwards, S upwards, and every member of P sees every member of
    S (so P and S are disjoint, as no world sees itself). Those conditions
    are exactly transitivity and irreflexivity at m, so each order on k
    worlds arises once.
    """
    cached = _strict_orders_cache.get(k)
    if cached is not None:
        return cached
    m = k - 1
    subsets = range(1 << m)
    out = []
    for prev in _strict_orders(m):
        succ = _rows(prev, m)
        pred = [0] * m
        base = 0
        for x, row in enumerate(succ):
            base |= row << (x * k)
            for y in _bits(row):
                pred[y] |= 1 << x
        downs = [p for p in subsets if all(pred[y] & ~p == 0 for y in _bits(p))]
        ups = [s for s in subsets if all(succ[y] & ~s == 0 for y in _bits(s))]
        for p in downs:
            allowed = (1 << m) - 1
            column = 0
            for x in _bits(p):
                allowed &= succ[x]
                column |= 1 << (x * k + m)
            for s in ups:
                if s & ~allowed == 0:
                    out.append(base | column | s << (m * k))
    out.sort()
    _strict_orders_cache[k] = out
    return out


def _allowed(lower: int, k: int) -> int:
    """Pairs a higher relation may hold over a lower one, as a bitmap.

    x R_n y needs equal R_m rows at x and y (condition ii), and every
    R_m-predecessor of x must be an R_m-predecessor of y (condition iii).
    """
    rows = _rows(lower, k)
    pred = [0] * k
    for x, row in enumerate(rows):
        for y in _bits(row):
            pred[y] |= 1 << x
    out = 0
    for x in range(k):
        for y in range(k):
            if rows[x] == rows[y] and pred[x] & ~pred[y] == 0:
                out |= 1 << (x * k + y)
    return out


def _normalize_variables(variables) -> list[tuple[str, Sort]]:
    if isinstance(variables, Mapping):
        return sorted(variables.items())
    out = []
    for item in variables:
        if hasattr(item, "name"):
            out.append((item.name, item.sort))
        else:
            name, sort = item
            out.append((name, sort))
    return out


def _closed_valuations(succ: Mapping[int, list[int]], k: int, sort: Sort) -> list[int]:
    """Persistence-closed member sets for one variable, ascending bitmaps.

    A set is closed exactly when it holds the direct requirements of each
    of its members, so each set's requirements come from the set without
    its lowest member, and no transitive closure is needed.
    """
    if sort is OMEGA:
        return list(range(1 << k))
    edges = [0] * k  # the worlds that a member forces in
    for level, rows in succ.items():
        for x in range(k):
            for y in _bits(rows[x]):
                if sort <= level:
                    edges[y] |= 1 << x  # member successor forces the predecessor in
                if sort < level:
                    edges[x] |= 1 << y  # member predecessor forces the successor in
    req = [0] * (1 << k)
    out = [0]
    for s in range(1, 1 << k):
        low = s & -s
        req[s] = req[s ^ low] | edges[low.bit_length() - 1]
        if req[s] & ~s == 0:
            out.append(s)
    return out


class WorldCount(NamedTuple):
    """Search effort at one world count: frames and models examined."""

    worlds: int
    frames: int
    models: int


class ModelEnumeration:
    """Iterable over the valid models within a budget; exposes truncation.

    :meth:`masks` yields each model as ``(k, succ, val_masks)``: the world
    count, the successor rows of each level (one dict per frame, shared by
    its valuations) and one member bitmask per variable. Iterating yields
    the same models materialized as :class:`KripkeModel` (worlds w0, w1, ...).
    """

    def __init__(self, variables, modalities: Iterable[int], budget: Optional[SearchBudget] = None):
        self.variables = _normalize_variables(variables)
        self.levels = sorted(set(modalities))
        self.budget = budget or SearchBudget()
        self.truncated = False
        self.models_examined = 0
        self._counts: list[list[int]] = []  # per world count: frames, first model

    @property
    def by_worlds(self) -> tuple[WorldCount, ...]:
        """Frames and models examined for each world count begun."""
        ends = [first for _, first in self._counts[1:]] + [self.models_examined]
        return tuple(
            WorldCount(k, frames, end - first)
            for k, ((frames, first), end) in enumerate(zip(self._counts, ends), start=1)
        )

    def __iter__(self) -> Iterator[KripkeModel]:
        for k, succ, val_masks in self.masks():
            yield self.materialize(k, succ, val_masks)

    def masks(self) -> Iterator[tuple[int, dict[int, list[int]], tuple[int, ...]]]:
        self.truncated = False
        self.models_examined = 0
        self._counts = []
        max_models = self.budget.max_models
        sorts = [sort for _, sort in self.variables]
        for k in range(1, self.budget.max_worlds + 1):
            if self.models_examined >= max_models:
                self.truncated = True
                return
            counts = [0, self.models_examined]
            self._counts.append(counts)
            for rel_masks in self._frames(k):
                if self.models_examined >= max_models:
                    self.truncated = True
                    return
                counts[0] += 1
                succ = {level: _rows(mask, k) for level, mask in zip(self.levels, rel_masks)}
                per_var = [_closed_valuations(succ, k, sort) for sort in sorts]
                for val_masks in product(*per_var):
                    if self.models_examined >= max_models:
                        self.truncated = True
                        return
                    self.models_examined += 1
                    yield k, succ, val_masks

    def _frames(self, k: int) -> Iterator[tuple[int, ...]]:
        levels = self.levels
        if not levels:
            yield ()
            return
        orders = _strict_orders(k)
        last = len(levels) - 1

        def extend(chosen: list[int], allowed: int) -> Iterator[tuple[int, ...]]:
            more = len(chosen) < last
            for mask in orders:
                if mask & ~allowed == 0:
                    chosen.append(mask)
                    if more:
                        yield from extend(chosen, allowed & _allowed(mask, k))
                    else:
                        yield tuple(chosen)
                    chosen.pop()

        yield from extend([], (1 << (k * k)) - 1)

    def materialize(self, k: int, succ: Mapping[int, list[int]], val_masks: tuple[int, ...],
                    root: Optional[str] = None) -> KripkeModel:
        names = tuple(f"w{i}" for i in range(k))
        relations = {}
        for level, rows in succ.items():
            pairs = frozenset((names[x], names[y]) for x, row in enumerate(rows) for y in _bits(row))
            if pairs:
                relations[level] = pairs
        valuation = {}
        sorts = {}
        for (name, sort), mask in zip(self.variables, val_masks):
            valuation[name] = frozenset(names[i] for i in _bits(mask))
            sorts[name] = sort
        return KripkeModel(worlds=names, relations=relations, valuation=valuation,
                           sorts=sorts, root=root)


def enumerate_models(variables, modalities: Iterable[int],
                     budget: Optional[SearchBudget] = None) -> ModelEnumeration:
    """Every valid model within the budget (worlds named w0, w1, ...)."""
    return ModelEnumeration(variables, modalities, budget)


@dataclass
class SearchResult:
    model: Optional[KripkeModel]
    world: Optional[str]
    truncated: bool
    models_examined: int
    by_worlds: tuple[WorldCount, ...] = ()

    @property
    def found(self) -> bool:
        return self.model is not None

    def __bool__(self):
        return self.found


def brute_force_countermodel(formula: Formula, budget: Optional[SearchBudget] = None) -> SearchResult:
    """First enumerated model and world refuting the formula, if any."""
    budget = budget or SearchBudget()
    f = desugar(formula)
    program = compile_formula(f)
    modalities = budget.modalities if budget.modalities is not None else program.modalities
    enumeration = ModelEnumeration(program.variables, modalities, budget)
    # a model's valuation is keyed by name: when two variables share a name
    # (p:0 and p:1), the one enumerated last gives both their extension
    pick = None
    names = [name for name, _ in enumeration.variables]
    if len(set(names)) < len(names):
        last = {name: i for i, name in enumerate(names)}
        pick = [last[name] for name in names]
    code = program.code
    for k, succ, val_masks in enumeration.masks():
        full = (1 << k) - 1
        values = val_masks if pick is None else [val_masks[i] for i in pick]
        missed = full & ~evaluate(code, full, succ, values)[-1]
        if missed:
            world = f"w{(missed & -missed).bit_length() - 1}"
            model = enumeration.materialize(k, succ, val_masks, root=world)
            if check_jstar_frame(model) or check_strong_persistence(model):
                raise AssertionError("enumerator produced an invalid model")
            if Evaluator(model).holds(world, f):
                raise AssertionError("refutation does not refute")
            return SearchResult(model, world, enumeration.truncated,
                                enumeration.models_examined, enumeration.by_worlds)
    return SearchResult(None, None, enumeration.truncated,
                        enumeration.models_examined, enumeration.by_worlds)


@dataclass
class CrossValidationReport:
    system: object
    formula: Formula
    target: Formula
    verdict: object
    search: SearchResult
    status: str  # agreement | disagreement | inconclusive

    @property
    def agreement(self) -> bool:
        return self.status == "agreement"


def cross_validate(formula: Formula, system, budget: Optional[SearchBudget] = None) -> CrossValidationReport:
    """Run the decision procedure against the brute-force refuter.

    A disagreement (validated refutation of a claimed theorem, or a small
    claimed countermodel the exhaustive search cannot reproduce) is always a
    bug in one of the two engines.
    """
    from .decide import SystemId, decide, reduction_target

    if isinstance(system, str):
        system = SystemId.parse(system)
    budget = budget or SearchBudget()
    target = reduction_target(system, desugar(formula))
    verdict = decide(system, formula)
    search = brute_force_countermodel(target, budget)
    searched_modalities = (
        set(budget.modalities) if budget.modalities is not None else compile_formula(target).modalities
    )
    if verdict.theorem:
        if search.found:
            status = "disagreement"
        elif search.truncated:
            status = "inconclusive"
        else:
            status = "agreement"
    else:
        if search.found:
            status = "agreement"
        else:
            cm = verdict.countermodel
            fits = (
                len(cm.worlds) <= budget.max_worlds
                and set(cm.relations) <= searched_modalities
                and not search.truncated
            )
            status = "disagreement" if fits else "inconclusive"
    return CrossValidationReport(system, formula, target, verdict, search, status)
