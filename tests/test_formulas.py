import random

import pytest

from glpstar.formulas import (
    BOT,
    OMEGA,
    TOP,
    And,
    Box,
    Dia,
    Implies,
    Neg,
    Or,
    Var,
    adequate_closure,
    desugar,
    diamond_subformulas,
    is_adequate,
    modal_levels,
    modified_negation,
    sort_of,
    sort_succ,
    subformulas,
    to_omega_sorted,
)
from conftest import gen_sorted_formula

p0 = Var("p", 0)
q1 = Var("q", 1)
pw = Var("p", OMEGA)
qw = Var("q", OMEGA)


class TestSorts:
    def test_order(self):
        assert 0 < OMEGA
        assert not OMEGA < 5
        assert OMEGA <= OMEGA
        assert 3 <= OMEGA
        assert OMEGA >= 3

    def test_successor_saturates(self):
        assert sort_succ(4) == 5
        assert sort_succ(OMEGA) is OMEGA


class TestDesugar:
    def test_box(self):
        assert desugar(Box(0, p0)) == Neg(Dia(0, Neg(p0)))

    def test_core_unchanged(self):
        assert desugar(p0) == p0

    def test_implication(self):
        assert desugar(Implies(p0, q1)) == Or(Neg(p0), q1)

    def test_idempotent(self):
        f = Implies(Box(2, Neg(qw)), Dia(1, p0))
        assert desugar(desugar(f)) == desugar(f)


class TestSortOf:
    def test_diamond_fixes_sort(self):
        assert sort_of(Dia(3, Var("p", 5))) == 3

    def test_negation_bumps(self):
        assert sort_of(Neg(Var("p", 2))) == 3

    def test_max_with_omega(self):
        assert sort_of(And(pw, q1)) is OMEGA

    def test_omega_negation_saturates(self):
        assert sort_of(Neg(pw)) is OMEGA

    def test_constants(self):
        assert sort_of(TOP) == 0
        assert sort_of(BOT) == 0

    def test_diamond_ignores_child_sort(self):
        rng = random.Random(1)
        for _ in range(50):
            f = gen_sorted_formula(rng)
            for n in (0, 2, 7):
                assert sort_of(Dia(n, f)) == n


class TestModifiedNegation:
    def test_strips(self):
        assert modified_negation(Neg(p0)) == p0

    def test_adds(self):
        assert modified_negation(p0) == Neg(p0)

    def test_diamond_goes_negative(self):
        assert modified_negation(Dia(1, p0)) == Neg(Dia(1, p0))

    def test_involutive_without_double_negation(self):
        rng = random.Random(2)
        checked = 0
        for _ in range(200):
            f = gen_sorted_formula(rng)
            if isinstance(f, Neg) and isinstance(f.child, Neg):
                continue
            assert modified_negation(modified_negation(f)) == f
            checked += 1
        assert checked > 100


class TestSubformulas:
    def test_diamond(self):
        assert subformulas(Dia(1, p0)) == {Dia(1, p0), p0}

    def test_conjunction(self):
        f = And(p0, Neg(p0))
        assert subformulas(f) == {f, Neg(p0), p0}

    def test_top(self):
        assert subformulas(TOP) == {TOP}


class TestDiamondSubformulas:
    def test_occurrence_and_level_order(self):
        f = And(Dia(2, pw), Dia(0, qw))
        assert diamond_subformulas(f, "occurrence") == [(2, pw), (0, qw)]
        assert diamond_subformulas(f, "level") == [(0, qw), (2, pw)]

    def test_no_diamonds(self):
        assert diamond_subformulas(p0) == []

    def test_nested(self):
        f = Dia(1, Dia(0, p0))
        assert diamond_subformulas(f) == [(1, Dia(0, p0)), (0, p0)]

    def test_level_sort_is_stable(self):
        f = And(Dia(0, pw), Dia(0, qw))
        assert diamond_subformulas(f, "level") == [(0, pw), (0, qw)]


class TestModalLevels:
    def test_direct(self):
        assert modal_levels({Dia(0, pw), Dia(2, qw), Var("r")}) == {0, 2}

    def test_empty(self):
        assert modal_levels(set()) == frozenset()

    def test_top_level_reading(self):
        # a negated diamond is not itself a diamond member
        assert modal_levels({Neg(Dia(1, pw))}) == frozenset()


class TestAdequateClosure:
    def test_single_diamond(self):
        delta = adequate_closure({Dia(1, p0)})
        assert delta == {
            TOP, Neg(TOP), p0, Neg(p0),
            Dia(1, p0), Neg(Dia(1, p0)), Dia(1, Neg(p0)), Neg(Dia(1, Neg(p0))),
        }

    def test_variable_only(self):
        assert adequate_closure({p0}) == {TOP, Neg(TOP), p0, Neg(p0)}

    def test_top(self):
        assert adequate_closure({TOP}) == {TOP, Neg(TOP)}

    def test_result_is_adequate_and_extensive(self):
        rng = random.Random(3)
        for _ in range(40):
            f = gen_sorted_formula(rng)
            gamma = {f}
            delta = adequate_closure(gamma)
            assert gamma <= delta
            assert is_adequate(delta)

    def test_idempotent_and_monotone(self):
        rng = random.Random(4)
        for _ in range(25):
            f = gen_sorted_formula(rng)
            g = gen_sorted_formula(rng)
            once = adequate_closure({f})
            assert adequate_closure(once) == once
            assert once <= adequate_closure({f, g})

    def test_levels_preserved(self):
        rng = random.Random(5)
        for _ in range(40):
            f = gen_sorted_formula(rng)
            delta = adequate_closure({f})
            occurring = modal_levels(subformulas(f))
            assert modal_levels(delta) == occurring

    def test_rediamond_rule(self):
        delta = adequate_closure({And(Dia(0, pw), Dia(1, qw))})
        assert Dia(0, qw) in delta and Dia(1, pw) in delta


class TestToOmegaSorted:
    def test_variable(self):
        assert to_omega_sorted(Dia(0, Var("p", 2))) == Dia(0, pw)

    def test_top(self):
        assert to_omega_sorted(TOP) == TOP

    def test_identity_on_omega(self):
        assert to_omega_sorted(pw) == pw


def test_sugar_rejected_by_core_operations():
    with pytest.raises(ValueError):
        sort_of(Box(1, p0))
    with pytest.raises(ValueError):
        subformulas(Implies(p0, q1))


def _adequate_by_definition(delta):
    """Adequacy with closure under subformulas tested on whole subtrees."""
    dset = frozenset(delta)
    if TOP not in dset:
        return False
    levels = modal_levels(dset)
    for f in dset:
        if modified_negation(f) not in dset or not subformulas(f) <= dset:
            return False
        if isinstance(f, Dia) and any(Dia(m, f.child) not in dset for m in levels):
            return False
        if isinstance(f, Var) and f.sort is not OMEGA:
            if any(Dia(n, f) not in dset for n in levels if n >= f.sort):
                return False
        if isinstance(f, Neg) and isinstance(f.child, Var) and f.child.sort is not OMEGA:
            if any(Dia(n, f) not in dset for n in levels if n > f.child.sort):
                return False
    return True


def test_adequacy_check_matches_definition():
    rng = random.Random(6)
    checked = pair_cases = 0
    for _ in range(60):
        delta = adequate_closure({gen_sorted_formula(rng, depth=3, mods=(0, 1, 2))})
        members = sorted(delta, key=repr)
        damaged = [delta]
        for _ in range(5):
            damaged.append(delta - {rng.choice(members)})
        # drop a pair {x, ~x} under a surviving member: the set stays closed
        # under modified negation and is only caught by the subformula rule
        children = [g.child for g in members if isinstance(g, (Neg, Dia))]
        children += [c for g in members if isinstance(g, (And, Or)) for c in (g.left, g.right)]
        for x in rng.sample(children, min(3, len(children))):
            cut = delta - {x, modified_negation(x)}
            if x != TOP and all(modified_negation(g) in cut for g in cut) and \
                    any(not subformulas(g) <= cut for g in cut):
                damaged.append(cut)
                pair_cases += 1
                assert not is_adequate(cut)
        for dset in damaged:
            assert is_adequate(dset) == _adequate_by_definition(dset)
            checked += 1
    assert pair_cases > 20 and checked > 400
