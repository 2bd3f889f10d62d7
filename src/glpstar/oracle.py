"""Exhaustive finite-model search: the refuter and the model enumerator.

Models are enumerated by world count, then by the relation bitmaps in
ascending order (lowest modality outermost), then by valuation bitmaps.
The strict orders on k worlds are built from those on k-1 worlds, one new
world at a time, and sorted. Frames are stacked level by level from these
tables, grouped by row 0 (the successors of w0). The two inter-level
conditions each restrict one pair of the higher relation at a time, so
every chosen level yields an allowed-pairs mask, and a higher order fits
the levels below it when it lies inside the AND of their masks; every frame
passes the frame validator by construction. Only the groups whose row 0 lies
inside the mask are scanned.
Valuations are the persistence-closed member sets per variable (closed
under predecessors at levels from the sort up and successors strictly above
it): a set is kept when it holds every member's direct requirements. They
depend only on the frame and the sort, so they are cached across variables
and searches.

The refuter searches rooted frames only: those in which w0 sees every other
world at some level, and it tests w0 alone. This loses no countermodel
size. In a J* frame a path x R_m y R_n z gives x R_min(m,n) z, so the worlds
a world w reaches by any chain of steps are the worlds it sees directly, and
those worlds with w form a generated submodel, in which every formula keeps
its truth value. The frame and persistence conditions are universal, so they
hold in every submodel. Hence a countermodel with the fewest worlds is
generated by its refuting world, and renaming that world w0 gives a rooted
frame of the same size. The search stops at the first world count with a
rooted countermodel, exactly where the unrooted search would stop. The
allowed-pairs mask only shrinks, so a partial frame whose seen worlds and
the row 0 of its mask cannot cover every world is cut. :func:`enumerate_models`
still lists every valid model.

The search runs in index space. The goal is compiled once into a children-first
program (:func:`kripke.compile_formula`), and each enumerated model, as
relation rows and valuation bitmasks, runs it through the same kernel as
:class:`kripke.Evaluator`. Only the refuting model is materialized as a
:class:`KripkeModel`, which both validators and an ``Evaluator`` then check.
The model budget is checked before a world count's frame table or a frame's
valuations are built.

Absence of a countermodel within the budget proves nothing; this module
never claims theoremhood. :func:`decide.cross_validate` sets its search
against ``decide``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .formulas import Formula, Sort, Var, require_one_sort_per_name
from .kripke import (
    Evaluator,
    KripkeModel,
    _bits,
    check_jstar_frame,
    check_strong_persistence,
    compile_formula,
    evaluate,
    model_from_masks,
)


# The strict orders on 6 worlds are 130,023 (0.3 s to build); those on 7 and
# 8 worlds are 6,129,859 and 431,723,379, more than a search can hold.
MAX_WORLDS = 6


@dataclass(frozen=True)
class SearchBudget:
    """Bounds of a model search: worlds (1 to MAX_WORLDS) and models examined."""

    max_worlds: int = 4
    max_models: int = 10_000_000

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_models < 1:
            raise ValueError("budget bounds must be positive")
        if self.max_worlds > MAX_WORLDS:
            raise ValueError(f"max_worlds must be at most {MAX_WORLDS}")


def _rows(mask: int, k: int) -> list[int]:
    return [(mask >> (i * k)) & ((1 << k) - 1) for i in range(k)]


@cache
def _strict_orders(k: int) -> list[int]:
    """All transitive irreflexive relations on k worlds, ascending bitmaps.

    Bit ``x * k + y`` stands for x R y. Each order on worlds 0..k-2 is
    extended by world m = k-1 with predecessors P and successors S: P is
    closed downwards, S upwards, and every member of P sees every member of
    S (so P and S are disjoint, as no world sees itself). Those conditions
    are exactly transitivity and irreflexivity at m, so each order on k
    worlds arises once.
    """
    if k == 1:
        return [0]
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
    return out


@cache
def _orders_by_row0(k: int) -> dict[int, list[int]]:
    """The strict orders on k worlds grouped by row 0 (the successors of w0),
    each group ascending."""
    groups: dict[int, list[int]] = {}
    low = (1 << k) - 1
    for mask in _strict_orders(k):
        groups.setdefault(mask & low, []).append(mask)
    return groups


@cache
def _allowed(lower: int, k: int) -> int:
    """Pairs a higher relation may hold over a lower one, as a bitmap.

    x R_n y needs equal R_m rows at x and y (condition ii), and every
    R_m-predecessor of x must be an R_m-predecessor of y (condition iii).
    Cached: it holds at most one entry per strict order, as _strict_orders does.
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
    """(name, sort) pairs, each checked by :class:`formulas.Var` and listed once."""
    if isinstance(variables, Mapping):
        variables = sorted(variables.items())
    out = []
    for item in variables:
        name, sort = (item.name, item.sort) if hasattr(item, "name") else item
        out.append(Var(name, sort))
    return [(v.name, v.sort) for v in dict.fromkeys(out)]


@lru_cache(maxsize=4096)
def _closed_valuations(k: int, levels: tuple[int, ...], rel_masks: tuple[int, ...],
                       sort: Sort) -> tuple[int, ...]:
    """Persistence-closed member sets for one variable, ascending bitmaps.

    ``rel_masks`` holds one relation bitmap per level. A set is closed
    exactly when it holds the direct requirements of each of its members,
    so each set's requirements come from the set without its lowest member,
    and no transitive closure is needed.
    """
    edges = [0] * k  # the worlds that a member forces in
    for level, mask in zip(levels, rel_masks):
        for x, row in enumerate(_rows(mask, k)):
            for y in _bits(row):
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
    return tuple(out)


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

    With ``rooted`` set (by :func:`brute_force_countermodel` only), only the
    frames in which w0 sees every other world at some level are listed, in
    the same order as among all frames. A name given two sorts is refused
    with a ``ValueError``, as ``decide`` refuses it, and so is a name or
    sort that no formula variable has.
    """

    def __init__(self, variables, modalities: Iterable[int], budget: Optional[SearchBudget] = None,
                 *, rooted: bool = False):
        self.variables = _normalize_variables(variables)
        require_one_sort_per_name(self.variables)
        self.levels = tuple(sorted(set(modalities)))
        self.budget = budget or SearchBudget()
        self.rooted = rooted
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
        levels = self.levels
        sorts = [sort for _, sort in self.variables]
        # with no relation, only the one-world frame is rooted
        max_worlds = self.budget.max_worlds if levels or not self.rooted else 1
        for k in range(1, max_worlds + 1):
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
                succ = {level: _rows(mask, k) for level, mask in zip(levels, rel_masks)}
                per_var = [_closed_valuations(k, levels, rel_masks, sort) for sort in sorts]
                for val_masks in product(*per_var):
                    if self.models_examined >= max_models:
                        self.truncated = True
                        return
                    self.models_examined += 1
                    yield k, succ, val_masks

    def _frames(self, k: int) -> Iterator[tuple[int, ...]]:
        """Frames on k worlds as one relation bitmap per level, ascending.

        A rooted frame's row 0 bits, over all levels, cover ``rest``: the
        last level draws only the groups that cover what is still unseen.
        The levels are walked depth first on an explicit stack, so a frame
        of many levels does not recurse.
        """
        levels = self.levels
        if not levels:
            yield ()
            return
        rest = (1 << k) - 2 if self.rooted else 0  # the worlds w0 must see
        groups = _orders_by_row0(k)
        low = (1 << k) - 1
        last = len(levels) - 1

        def options(depth: int, allowed: int, seen: int) -> Iterator[int]:
            unseen = rest & ~seen
            if unseen & ~allowed:
                return iter(())
            need = unseen if depth == last else 0
            return iter(sorted(
                mask
                for row0, group in groups.items()
                if need & ~row0 == 0 and row0 & ~allowed == 0
                for mask in group if mask & ~allowed == 0
            ))

        chosen: list[int] = []  # the masks of the levels below the top of the stack
        full = (1 << (k * k)) - 1
        stack = [(options(0, full, 0), full, 0)]  # per level begun: its masks, allowed, seen
        while stack:
            masks, allowed, seen = stack[-1]
            if len(chosen) == last:
                for mask in masks:
                    yield (*chosen, mask)
                mask = None
            else:
                mask = next(masks, None)
            if mask is None:
                stack.pop()
                if chosen:
                    chosen.pop()
            else:
                chosen.append(mask)
                below, seen = allowed & _allowed(mask, k), seen | mask & low
                stack.append((options(len(chosen), below, seen), below, seen))

    def materialize(self, k: int, succ: Mapping[int, list[int]], val_masks: tuple[int, ...],
                    root: Optional[int] = None) -> KripkeModel:
        names = [name for name, _ in self.variables]
        return model_from_masks(k, succ, dict(zip(names, val_masks)), dict(self.variables), root)


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
    """First enumerated rooted model refuting the formula at w0, if any.

    Only frames in which w0 sees every other world at some level are
    searched (see the module docstring): whether a countermodel is found
    within an untruncated budget, and the world count of the first one, are
    those of a search through every model.
    """
    budget = budget or SearchBudget()
    program = compile_formula(formula)
    enumeration = ModelEnumeration(program.variables, program.modalities, budget, rooted=True)
    code = program.code
    for k, succ, val_masks in enumeration.masks():
        if not evaluate(code, (1 << k) - 1, succ, val_masks)[-1] & 1:
            model = enumeration.materialize(k, succ, val_masks, root=0)
            if check_jstar_frame(model) or check_strong_persistence(model):
                raise AssertionError("enumerator produced an invalid model")
            if Evaluator(model).holds("w0", formula):
                raise AssertionError("refutation does not refute")
            return SearchResult(model, "w0", enumeration.truncated,
                                enumeration.models_examined, enumeration.by_worlds)
    return SearchResult(None, None, enumeration.truncated,
                        enumeration.models_examined, enumeration.by_worlds)
