"""Decision procedures for the four systems, with countermodel extraction.

The base case decides the Kripke-complete system by the canonical
construction: a :class:`hintikka.CanonicalEngine` reads the atoms of the
target's adequate closure off the compiled target's nodes, and ``refute``
asks it for a row that holds the negated goal and survives witness
elimination. The other three systems reduce to it syntactically:

  * glpstar:  valid iff the base system proves M+(x) -> x (or N+(x) -> x
    with the nplus route);
  * glp:      glpstar on the omega-sorted copy;
  * glpsstar: glpstar on H(x) -> x.

Non-theorem verdicts carry a rooted countermodel of the base-level target:
the engine's witness-closed generated submodel from that row
(``witness_closure``) as bitmasks (``masks``, computed once), greedily shrunk
on them while it keeps falsifying the target, then materialized from them
(``kripke.model_from_masks``) and checked against the target and both
validators once. ``decide`` is the only caller of the engine, and only the
engine knows how its table lays out rows and columns.

Past the candidate cap, or past the engine's fixed limits on atoms and
diamonds, ``decide`` does not give up at once: it runs the oracle's rooted
search (:func:`oracle.brute_force_countermodel`) on the reduction target,
over models of at most two worlds and at most 1,000 models
(``PAST_CAP_BUDGET``). The base system is sound for its frame class, so a
model that passes both validators and refutes the target at its root
settles a non-theorem however large the target's closure; the search
validates the model it returns, and it lists the one-world models, the
valuations with every diamond false, first. The verdict's ``stats`` then
hold the target's size and the closure's atoms, with 0 candidates, no
rounds and path ``"bounded"``. Absence of such a model proves nothing. On
the 89 capped calls of the enum-heavy benchmark pool, two worlds decide 77
for at most 0.5 ms of search each; three worlds decide two more for up to
11 ms each (2-core x86-64 VM). The model budget bounds the search on wide
targets, whose one-world valuations alone number 2^variables.

After a miss, ``decide`` tries the same table on a smaller target (path
``"polarity"``): each variable name of the input that occurs only
positively (under an even number of negations) becomes F, and each that
occurs only negatively becomes T (:func:`formulas.polarity_constants`, the
affirmative-negative rule of Davis & Putnam, JACM 7, 1960, which Massacci
carried to modal tableaux, TABLEAUX 1998). The reduction target of the
result is folded by K-valid equivalences (:func:`formulas.fold_constants`).
This is sound both ways. Let f' be the substituted input:

  * f' -> f is K-valid, since &, | and every <n> are monotone, and every
    system contains K and is closed under modus ponens; so a theorem f'
    gives a theorem f, and a folded target is valid exactly when its
    unfolded one is.
  * The reductions build their premises from the input's diamonds, so they
    commute with the substitution up to repeated conjuncts: the reduction
    target of f' is that of f with the substituted names replaced. A
    countermodel of it, extended by an empty extension for each name made F
    and a full one for each made T (both persistent at any sort), refutes
    the reduction target of f. A name that folding removed takes the empty
    extension: the folded target's value does not depend on it.
  * Folding comes after the reduction, not before: folding the input
    changes the levels that M+ spans, and then 7 enum-heavy and 87
    small-mixed countermodels failed to refute the original target.

So the countermodel, extended, is checked against the original reduction
target, which stays ``falsified``, and the stats describe the folded
target's table. When the folded target is the reduction target itself, or
its table passes a limit too, the engine's first
:class:`hintikka.ResourceLimitError` is raised unchanged. Of the 12
enum-heavy pool calls that the search leaves capped, this decides 10
(5 theorems, 5 non-theorems of 3 to 4 worlds) on tables of at most 21
atoms.

:func:`cross_validate` checks a verdict against the oracle's exhaustive
search over the same target, within a budget the caller gives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .formulas import (
    TOP,
    Formula,
    Implies,
    Var,
    fold_constants,
    modified_negation,
    polarity_constants,
    substitute,
    to_omega_sorted,
    variables_of,
)
from .hintikka import DEFAULT_CANDIDATE_CAP, CanonicalEngine, ResourceLimitError
from .kripke import (
    KripkeModel,
    Program,
    check_jstar_frame,
    check_strong_persistence,
    compile_formula,
    evaluate,
    model_check,
    model_from_masks,
)
from . import oracle
from .reductions import h_formula, m_plus, n_plus


class SystemId(enum.Enum):
    JSTAR = "jstar"
    GLPSTAR = "glpstar"
    GLP = "glp"
    GLPSSTAR = "glpsstar"

    @classmethod
    def parse(cls, name: str) -> "SystemId":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown system {name!r}") from None


@dataclass
class DecideStats:
    """Sizes of one call, and the route that gave its verdict.

    ``path`` names the route: ``"table"``, the canonical table over the
    reduction target; ``"bounded"``, the search past the cap, in at most two
    worlds; ``"polarity"``, the table over the polarity-reduced, folded
    target, past the cap. The sizes are those of the table that decided:
    its target's subformulas, its closure's atoms, the candidate rows, and
    the survivors after each elimination round that deleted rows. A
    ``"bounded"`` verdict built no table, so it holds the reduction target's
    size and closure atoms, with 0 candidates and no rounds.
    ``delta_size`` repeats ``atom_count``; it is kept only because the
    benchmark harness sums it."""

    target_size: int = 0
    delta_size: int = 0
    atom_count: int = 0
    candidates: int = 0
    rounds: list[int] = field(default_factory=list)
    path: str = "table"


@dataclass
class Verdict:
    theorem: bool
    countermodel: Optional[KripkeModel] = None
    falsified: Optional[Formula] = None
    stats: Optional[DecideStats] = None

    def __bool__(self):
        return self.theorem


# the search past the cap (see the module docstring)
PAST_CAP_BUDGET = oracle.SearchBudget(max_worlds=2, max_models=1_000)

_PREMISES = {"mplus": m_plus, "nplus": n_plus}


def reduction_target(system: SystemId, formula: Formula, via: str = "mplus") -> Formula:
    """The base-level formula whose validity settles the query: GLP takes the
    omega-sorted copy x, GLPS* takes H(x) -> x, then each takes premise -> x."""
    if system is SystemId.JSTAR:
        return formula
    if system is SystemId.GLP:
        formula = to_omega_sorted(formula)
    elif system is SystemId.GLPSSTAR:
        formula = Implies(h_formula(formula), formula)
    elif system is not SystemId.GLPSTAR:
        raise ValueError(f"unknown system {system!r}")
    if via not in _PREMISES:
        raise ValueError(f"unknown reduction route {via!r}")
    return Implies(_PREMISES[via](formula), formula)


def decide(system: SystemId, formula: Formula, *, via: str = "mplus",
           candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> Verdict:
    """Theorem or a validated rooted countermodel of the reduction target.

    Raises :class:`hintikka.ResourceLimitError` when the engine hits a limit,
    no model of at most two worlds refutes the target, and the table of the
    polarity-reduced, folded target hits a limit too or is that of the target.
    """
    if isinstance(system, str):
        system = SystemId.parse(system)
    target = reduction_target(system, formula, via)
    try:
        return _table_verdict(target, candidate_cap)
    except ResourceLimitError as limit:
        search = oracle.brute_force_countermodel(target, PAST_CAP_BUDGET)
        if search.found:
            stats = DecideStats(len(compile_formula(target).nodes), limit.atoms, limit.atoms, 0, [], "bounded")
            return Verdict(theorem=False, countermodel=search.model, falsified=target, stats=stats)
        constants = polarity_constants(formula)
        reduced = target
        if constants:
            reduced = reduction_target(system, substitute(formula, lambda v: constants.get(v.name, v)), via)
        folded = fold_constants(reduced)
        if folded is target:
            raise
        fill = [(v, constants.get(v.name) is TOP) for v in variables_of(target)]
        try:
            return _table_verdict(folded, candidate_cap, "polarity", target, fill)
        except ResourceLimitError:
            raise limit from None


def _table_verdict(target: Formula, candidate_cap: int, path: str = "table",
                   falsified: Optional[Formula] = None,
                   fill: Iterable[tuple[Var, bool]] = ()) -> Verdict:
    """The canonical table's verdict on ``target``.

    A countermodel refutes ``falsified`` (by default the target itself): each
    variable in ``fill`` that the table lacks holds at every world when its
    flag is set and at none otherwise.
    """
    falsified = target if falsified is None else falsified
    # compiled first, so the countermodel check finds it in the cache
    program = compile_formula(target)
    engine = CanonicalEngine(program.nodes, candidate_cap)
    root = engine.refute(modified_negation(target))
    stats = DecideStats(len(program.nodes), len(engine.atoms), len(engine.atoms), engine.count,
                        engine.rounds, path)
    if root is None:
        return Verdict(theorem=True, stats=stats)
    rows = engine.witness_closure(root)
    succ, extension = engine.masks(rows)
    # the root, at position 0, stays through minimization
    kept = _minimize_countermodel(len(rows), succ, extension, program)
    valuation = {name: _restrict(mask, kept) for name, mask in extension.items()}
    sorts = {v.name: v.sort for v in engine.variables}
    for v, everywhere in fill:
        if v.name not in sorts:
            valuation[v.name], sorts[v.name] = (1 << len(kept)) - 1 if everywhere else 0, v.sort
    model = model_from_masks(len(kept), {n: [_restrict(succ[n][p], kept) for p in kept] for n in succ},
                             valuation, sorts, 0)
    _check_countermodel(model, falsified)
    return Verdict(theorem=False, countermodel=model, falsified=falsified, stats=stats)


@dataclass
class CrossValidationReport:
    system: SystemId
    formula: Formula
    target: Formula
    verdict: Verdict
    search: oracle.SearchResult
    status: str  # agreement | disagreement | inconclusive


def cross_validate(formula: Formula, system: SystemId,
                   budget: Optional[oracle.SearchBudget] = None) -> CrossValidationReport:
    """Run the decision procedure against the brute-force refuter.

    A disagreement (validated refutation of a claimed theorem, or a small
    claimed countermodel the exhaustive search cannot reproduce) is always a
    bug in one of the two engines. A non-theorem that ``decide`` settled
    by the bounded search past its candidate cap (``stats.path ==
    "bounded"``) came from the oracle's own search, so it is reported
    inconclusive.
    """
    if isinstance(system, str):
        system = SystemId.parse(system)
    budget = budget or oracle.SearchBudget()
    target = reduction_target(system, formula)
    verdict = decide(system, formula)
    search = oracle.brute_force_countermodel(target, budget)
    if verdict.theorem:
        status = "disagreement" if search.found else "inconclusive" if search.truncated else "agreement"
    elif verdict.stats.path == "bounded":
        status = "inconclusive"
    elif search.found:
        status = "agreement"
    elif search.truncated or len(verdict.countermodel.worlds) > budget.max_worlds:
        status = "inconclusive"
    else:
        status = "disagreement"
    return CrossValidationReport(system, formula, target, verdict, search, status)


def _minimize_countermodel(count: int, succ: dict[int, list[int]], extension: dict[str, int],
                           program: Program) -> list[int]:
    """Positions kept after greedily dropping worlds, of ``count`` given as
    bitmasks over their positions, while world 0 still refutes the target.

    After each drop the scan starts again after world 0. The target's
    program runs on the masks; a trial is the submodel induced by the
    worlds kept. The frame and persistence conditions are universal, so
    every induced submodel of a valid model is valid, and no trial needs the
    validators: the final model is validated once.
    """
    values = [extension[v.name] for v in program.variables]

    def refutes(keep: int) -> bool:
        trial = {n: [row & keep for row in masks] for n, masks in succ.items()}
        return not evaluate(program.code, keep, trial, [v & keep for v in values])[-1] & 1

    keep = (1 << count) - 1
    changed = True
    while changed:
        changed = False
        for j in range(1, count):
            if keep >> j & 1 and refutes(keep & ~(1 << j)):
                keep &= ~(1 << j)
                changed = True
                break
    return [j for j in range(count) if keep >> j & 1]


def _restrict(mask: int, kept: list[int]) -> int:
    """A mask over all positions as a mask over the kept ones, renumbered."""
    return sum(1 << k for k, p in enumerate(kept) if mask >> p & 1)


def _check_countermodel(model: KripkeModel, target: Formula) -> None:
    if model.root is None:
        raise AssertionError("countermodel lacks a root")
    if model_check(model, model.root, target):
        raise AssertionError("countermodel fails to refute the target")
    if check_jstar_frame(model):
        raise AssertionError("countermodel frame is invalid")
    if check_strong_persistence(model):
        raise AssertionError("countermodel valuation is not persistent")
