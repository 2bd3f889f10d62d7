"""Decision procedures for the four systems, with countermodel extraction.

The base case decides the Kripke-complete system by the canonical
construction: close the negated goal into an adequate set, enumerate
candidate worlds, eliminate until every diamond is witnessed, and test
whether a survivor contains the negated goal. The other three systems
reduce to it syntactically:

  * glpstar:  valid iff the base system proves M+(x) -> x (or N+(x) -> x
    with the nplus route);
  * glp:      glpstar on the omega-sorted copy;
  * glpsstar: glpstar on H(x) -> x.

Non-theorem verdicts carry a rooted countermodel of the base-level target,
extracted as a witness-closed generated submodel and then greedily shrunk
while it keeps falsifying the target and passing both validators.
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
from .hintikka import (
    DEFAULT_CANDIDATE_CAP,
    CanonicalEngine,
    EliminationStats,
    ResourceLimitError,
)
from .kripke import (
    KripkeModel,
    check_jstar_frame,
    check_strong_persistence,
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
    target_size: int = 0
    delta_size: int = 0
    atom_count: int = 0
    candidates: int = 0
    rounds: list[int] = field(default_factory=list)

    @classmethod
    def from_elimination(cls, target_size: int, es: EliminationStats) -> "DecideStats":
        return cls(
            target_size=target_size,
            delta_size=es.delta_size,
            atom_count=es.atom_count,
            candidates=es.candidates,
            rounds=list(es.rounds),
        )


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
           candidate_cap: int = DEFAULT_CANDIDATE_CAP,
           minimize: bool = True,
           verify_truth_lemma: bool = False) -> Verdict:
    """Theorem or a validated rooted countermodel of the reduction target."""
    if isinstance(system, str):
        system = SystemId.parse(system)
    target = reduction_target(system, formula, via, nplus_variant)
    negated = modified_negation(target)
    # the target's closure holds its subformulas and negated; the closure
    # of negated alone lacks the target when the target is a double negation
    delta = adequate_closure({target})

    engine = CanonicalEngine(delta, candidate_cap)
    refuting = engine.truth_column(negated)
    engine.eliminate(stop_mask=refuting)
    if verify_truth_lemma:
        from .hintikka import build_canonical_detailed

        build_canonical_detailed(delta, candidate_cap, verify_truth_lemma=True)
    stats = DecideStats.from_elimination(len(subformulas(target)), engine.stats)
    alive_refuting = refuting & engine.alive
    if not bool(alive_refuting.any()):
        return Verdict(theorem=True, stats=stats)

    import numpy as np

    root_row = int(np.flatnonzero(alive_refuting)[0])
    model = _extract_countermodel(engine, root_row, target, minimize)
    _check_countermodel(model, target)
    return Verdict(theorem=False, countermodel=model, falsified=target, stats=stats)


def _extract_countermodel(engine: CanonicalEngine, root_row: int, target: Formula,
                          minimize: bool) -> KripkeModel:
    """Witness-closed generated submodel from the refuting world, then shrink."""
    chosen = [root_row]
    chosen_set = {root_row}
    queue = [root_row]
    while queue:
        x = queue.pop(0)
        for n in engine.levels:
            d_mask = int(engine.col[("d", n)][x])
            for bit, dia in enumerate(engine.level_dias[n]):
                if not d_mask >> bit & 1:
                    continue
                found = None
                for y in chosen:
                    if engine.relation(x, y, n) and engine.contains(y, dia.child):
                        found = y
                        break
                if found is None:
                    found = engine.find_witness(x, n, dia.child)
                    if found is None:
                        raise AssertionError("surviving world lost its witness")
                    chosen.append(found)
                    chosen_set.add(found)
                    queue.append(found)
    model = engine.build_model(chosen, root=root_row)
    if minimize:
        model = _minimize_countermodel(model, target)
        model = _rename_worlds(model)
    return model


def _rename_worlds(model: KripkeModel) -> KripkeModel:
    """Consecutive w0, w1, ... names with the root first."""
    ordered = [model.root] + [w for w in model.worlds if w != model.root]
    name_of = {w: f"w{k}" for k, w in enumerate(ordered)}
    return KripkeModel(
        worlds=tuple(name_of[w] for w in ordered),
        relations={
            n: frozenset((name_of[x], name_of[y]) for x, y in rel)
            for n, rel in model.relations.items()
        },
        valuation={name: frozenset(name_of[w] for w in m) for name, m in model.valuation.items()},
        sorts=model.sorts,
        root=name_of[model.root],
    )


def _minimize_countermodel(model: KripkeModel, target: Formula) -> KripkeModel:
    """Greedily drop worlds while the root still refutes and validators pass."""
    changed = True
    while changed:
        changed = False
        for w in model.worlds:
            if w == model.root:
                continue
            candidate = _without_world(model, w)
            if (
                not model_check(candidate, candidate.root, target)
                and not check_jstar_frame(candidate)
                and not check_strong_persistence(candidate)
            ):
                model = candidate
                changed = True
                break
    return model


def _without_world(model: KripkeModel, doomed: str) -> KripkeModel:
    worlds = tuple(w for w in model.worlds if w != doomed)
    relations = {
        n: frozenset((x, y) for x, y in rel if x != doomed and y != doomed)
        for n, rel in model.relations.items()
    }
    valuation = {name: frozenset(m - {doomed}) for name, m in model.valuation.items()}
    return KripkeModel(
        worlds=worlds, relations=relations, valuation=valuation,
        sorts=model.sorts, root=model.root,
    )


def _check_countermodel(model: KripkeModel, target: Formula) -> None:
    if model.root is None:
        raise AssertionError("countermodel lacks a root")
    if model_check(model, model.root, target):
        raise AssertionError("countermodel fails to refute the target")
    if check_jstar_frame(model):
        raise AssertionError("countermodel frame is invalid")
    if check_strong_persistence(model):
        raise AssertionError("countermodel valuation is not persistent")
