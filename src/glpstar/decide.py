"""Decision procedures for the four systems, with countermodel extraction.

The base case decides the Kripke-complete system by the canonical
construction: close the target into an adequate set, build a
:class:`hintikka.CanonicalEngine` over it, and ask the engine for a row that
holds the negated goal and survives witness elimination (``refute``). The
other three systems reduce to it syntactically:

  * glpstar:  valid iff the base system proves M+(x) -> x (or N+(x) -> x
    with the nplus route);
  * glp:      glpstar on the omega-sorted copy;
  * glpsstar: glpstar on H(x) -> x.

Non-theorem verdicts carry a rooted countermodel of the base-level target:
the engine's witness-closed generated submodel from that row
(``witness_closure``), greedily shrunk on its bitmasks (``masks``) while it
keeps falsifying the target, then materialized (``build_model``) and checked
against the target and both validators once. ``decide`` is the only caller
of the engine, and only the engine knows how its table lays out rows and
columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .formulas import (
    Formula,
    adequate_closure,
    desugar,
    modified_negation,
    subformulas,
    to_omega_sorted,
)
from .hintikka import DEFAULT_CANDIDATE_CAP, CanonicalEngine
from .kripke import (
    KripkeModel,
    check_jstar_frame,
    check_strong_persistence,
    compile_formula,
    evaluate,
    model_check,
)
from .reductions import h_formula, m_plus, n_plus, _implies


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
    """Sizes of one call: the target's subformulas, the closure, its atoms,
    the candidate rows, and the survivors after each elimination round that
    deleted rows."""

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


def reduction_target(system: SystemId, formula: Formula, via: str = "mplus",
                     nplus_variant: str = "default") -> Formula:
    """The base-level formula whose validity settles the query."""
    f = desugar(formula)
    if system is SystemId.JSTAR:
        return f
    if system is SystemId.GLP:
        return reduction_target(SystemId.GLPSTAR, to_omega_sorted(f), via, nplus_variant)
    if system is SystemId.GLPSSTAR:
        return reduction_target(SystemId.GLPSTAR, _implies(h_formula(f), f), via, nplus_variant)
    if system is SystemId.GLPSTAR:
        if via == "mplus":
            premise = m_plus(f)
        elif via == "nplus":
            premise = n_plus(f, nplus_variant)
        else:
            raise ValueError(f"unknown reduction route {via!r}")
        return _implies(premise, f)
    raise ValueError(f"unknown system {system!r}")


def decide(system: SystemId, formula: Formula, *, via: str = "mplus",
           nplus_variant: str = "default",
           candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> Verdict:
    """Theorem or a validated rooted countermodel of the reduction target."""
    if isinstance(system, str):
        system = SystemId.parse(system)
    target = reduction_target(system, formula, via, nplus_variant)
    negated = modified_negation(target)
    # the target's closure holds its subformulas and negated; the closure
    # of negated alone lacks the target when the target is a double negation
    delta = adequate_closure({target})

    engine = CanonicalEngine(delta, candidate_cap)
    root = engine.refute(negated)
    stats = DecideStats(len(subformulas(target)), len(engine.delta), len(engine.atoms), engine.count,
                        engine.rounds)
    if root is None:
        return Verdict(theorem=True, stats=stats)
    # the root stays the first row through minimization
    rows = _minimize_countermodel(engine, engine.witness_closure(root), target)
    model = engine.build_model(rows)
    _check_countermodel(model, target)
    return Verdict(theorem=False, countermodel=model, falsified=target, stats=stats)


def _minimize_countermodel(engine: CanonicalEngine, rows: list[int], target: Formula) -> list[int]:
    """Greedily drop rows while the first row still refutes the target.

    After each drop the scan starts again after the first row. The target
    is compiled once and run on bitmasks over the given rows; a trial is
    the submodel induced by the rows kept. The frame and persistence conditions are
    universal, so every induced submodel of a valid model is valid, and no
    trial needs the validators: the final model is validated once.
    """
    program = compile_formula(target)
    succ, extension = engine.masks(rows)
    values = [extension[v.name] for v in program.variables]

    def refutes(keep: int) -> bool:
        trial = {n: [row & keep for row in masks] for n, masks in succ.items()}
        return not evaluate(program.code, keep, trial, [v & keep for v in values])[-1] & 1

    keep = (1 << len(rows)) - 1
    changed = True
    while changed:
        changed = False
        for j in range(1, len(rows)):
            if keep >> j & 1 and refutes(keep & ~(1 << j)):
                keep &= ~(1 << j)
                changed = True
                break
    return [r for j, r in enumerate(rows) if keep >> j & 1]


def _check_countermodel(model: KripkeModel, target: Formula) -> None:
    if model.root is None:
        raise AssertionError("countermodel lacks a root")
    if model_check(model, model.root, target):
        raise AssertionError("countermodel fails to refute the target")
    if check_jstar_frame(model):
        raise AssertionError("countermodel frame is invalid")
    if check_strong_persistence(model):
        raise AssertionError("countermodel valuation is not persistent")
