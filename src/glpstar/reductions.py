"""Syntactic reduction premises between the four systems.

Each builder returns a formula assembled in a fixed order, so the output
is byte-identical across runs. Its implications and boxes are the core
forms ~x | y and ~<n>~x that :func:`formulas.Implies` and
:func:`formulas.Box` build. Nothing is simplified: empty conjunctions
become T and trivial conjuncts stay visible.

The pair builder for the language-preserving premise keeps the *same* body
on both sides of each implication, pairing every enumerated diamond body
with every higher-or-equal enumerated level. The displayed form that mixes
two bodies makes the premise unprovable (for <2>p and <0>q it would demand
<2>p -> <0>q), while each same-body pair <j>x -> <m>x with m <= j is an
instance of monotonicity. The reduction theorems need a premise that GLP*
proves, so the same-body reading is the one they need. ``TestReductionRoutes``
in ``tests/test_decide.py`` checks that N+ is a GLP* theorem on seeded
formulas, and that the N+ route gives the M+ route's verdicts.
"""

from __future__ import annotations

from typing import Iterable

from .formulas import (
    TOP,
    Box,
    Dia,
    Formula,
    Implies,
    Neg,
    conjoin,
    diamond_subformulas,
    variables_of,
)


def m_formula(formula: Formula) -> Formula:
    """For every diamond subformula <m>x and every level m < j <= max, add <j>x -> <m>x."""
    return _m_core(diamond_subformulas(formula))


def m_plus(formula: Formula) -> Formula:
    """m_formula plus its boxed copies at every level up to the maximum."""
    dias = diamond_subformulas(formula)
    if not dias:
        return TOP
    core = _m_core(dias)
    return conjoin([core] + [Box(i, core) for i in range(max(m for m, _ in dias) + 1)])


def _m_core(dias: list[tuple[int, Formula]]) -> Formula:
    """m_formula over the listed diamonds <m>x, given as (m, x) pairs."""
    top_level = max((m for m, _ in dias), default=0)
    return conjoin([Implies(Dia(j, body), Dia(m, body))
                    for m, body in dias for j in range(m + 1, top_level + 1)])


def n_formula(formula: Formula) -> Formula:
    """Like m_formula but only using levels that occur in the input.

    Diamond subformulas are enumerated in level order (stable in occurrence
    order on ties); each body at position i is paired with the level of every
    later position j, giving <m_j>x_i -> <m_i>x_i.
    """
    return _n_core(diamond_subformulas(formula))


def n_plus(formula: Formula, variant: str = "default") -> Formula:
    """n_formula plus boxed copies.

    The default puts n_formula under one box per distinct occurring level,
    ascending. The "literal" variant reproduces the displayed text instead,
    boxing the bare input once per enumeration entry.
    """
    dias = diamond_subformulas(formula)
    core = _n_core(dias)
    levels = sorted(m for m, _ in dias)
    if not levels:
        return core
    if variant == "default":
        return conjoin([core] + [Box(m, core) for m in sorted(set(levels))])
    if variant == "literal":
        return conjoin([core] + [Box(m, formula) for m in levels])
    raise ValueError(f"unknown n_plus variant {variant!r}")


def _n_core(dias: list[tuple[int, Formula]]) -> Formula:
    """n_formula over the listed diamonds, given as (m, x) pairs in occurrence order."""
    dias = sorted(dias, key=lambda pair: pair[0])
    return conjoin([Implies(Dia(dias[j][0], body), Dia(m, body))
                    for i, (m, body) in enumerate(dias) for j in range(i + 1, len(dias))])


def h_formula(formula: Formula) -> Formula:
    """For every diamond subformula <n>x, add x -> <n>x (occurrence order)."""
    dias = diamond_subformulas(formula)
    return conjoin([Implies(body, Dia(n, body)) for n, body in dias])


def r_theta(formula: Formula, theta: Iterable[int]) -> Formula:
    """Sort axioms over a modality set: <j>p -> p for j >= sort(p), and
    <j>~p -> ~p for j > sort(p); omega variables contribute nothing."""
    levels = sorted(set(theta))
    conjuncts: list[Formula] = []
    for var in variables_of(formula):
        for j in levels:
            if j >= var.sort:
                conjuncts.append(Implies(Dia(j, var), var))
        for j in levels:
            if j > var.sort:
                conjuncts.append(Implies(Dia(j, Neg(var)), Neg(var)))
    return conjoin(conjuncts)


def r_theta_plus(formula: Formula, theta: Iterable[int]) -> Formula:
    """r_theta plus one boxed copy per modality in the set, ascending."""
    levels = sorted(set(theta))
    core = r_theta(formula, levels)
    return conjoin([core] + [Box(j, core) for j in levels]) if levels else core


def occurring_modalities(formula: Formula) -> frozenset[int]:
    """All diamond indices occurring anywhere in the formula."""
    return frozenset(m for m, _ in diamond_subformulas(formula))
