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
hold the target's size and the closure's atoms, with 0 candidates and no
rounds. Absence of such a model proves nothing, so a miss re-raises the
engine's :class:`hintikka.ResourceLimitError` unchanged. On the 89 capped
calls of the enum-heavy benchmark pool, two worlds decide 77 for at most
0.5 ms of search each; three worlds decide two more for up to 11 ms each
(2-core x86-64 VM). The model budget bounds the search on wide targets,
whose one-world valuations alone number 2^variables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .formulas import (
    Formula,
    Implies,
    modified_negation,
    to_omega_sorted,
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
    """Sizes of one call: the target's subformulas, its closure's atoms,
    the candidate rows, and the survivors after each elimination round that
    deleted rows. ``delta_size`` repeats ``atom_count``; it is kept only
    because the benchmark harness sums it. ``candidates`` is 0 exactly when
    the search past the cap gave the verdict, as no table has 0 rows."""

    target_size: int = 0
    delta_size: int = 0
    atom_count: int = 0
    candidates: int = 0
    rounds: list[int] = field(default_factory=list)


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

    Raises :class:`hintikka.ResourceLimitError` when the engine hits a limit
    and no model of at most two worlds refutes the target.
    """
    if isinstance(system, str):
        system = SystemId.parse(system)
    target = reduction_target(system, formula, via)
    # compiled first, so the countermodel check finds it in the cache
    program = compile_formula(target)
    try:
        engine = CanonicalEngine(program.nodes, candidate_cap)
    except ResourceLimitError as limit:
        search = oracle.brute_force_countermodel(target, PAST_CAP_BUDGET)
        if not search.found:
            raise
        return Verdict(theorem=False, countermodel=search.model, falsified=target,
                       stats=DecideStats(len(program.nodes), limit.atoms, limit.atoms, 0, []))
    root = engine.refute(modified_negation(target))
    stats = DecideStats(len(program.nodes), len(engine.atoms), len(engine.atoms), engine.count,
                        engine.rounds)
    if root is None:
        return Verdict(theorem=True, stats=stats)
    rows = engine.witness_closure(root)
    succ, extension = engine.masks(rows)
    # the root, at position 0, stays through minimization
    kept = _minimize_countermodel(len(rows), succ, extension, program)
    model = model_from_masks(len(kept), {n: [_restrict(succ[n][p], kept) for p in kept] for n in succ},
                             {name: _restrict(mask, kept) for name, mask in extension.items()},
                             {v.name: v.sort for v in engine.variables}, 0)
    _check_countermodel(model, target)
    return Verdict(theorem=False, countermodel=model, falsified=target, stats=stats)


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
