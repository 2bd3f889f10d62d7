import copy
import os
import pickle
import random
import sys
import threading
import uuid

import pytest

from glpstar import formulas
from glpstar.decide import SystemId, decide, reduction_target
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
    Top,
    Var,
    adequate_closure,
    desugar,
    diamond_subformulas,
    formula_size,
    modal_levels,
    modified_negation,
    sort_of,
    subformulas,
    to_omega_sorted,
)
from glpstar.parsing import parse_formula
from conftest import gen_sorted_formula
from reference import is_adequate

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
        assert sort_of(Neg(Var("p", 4))) == 5
        assert OMEGA + 1 is OMEGA

    def test_omega_is_a_number_above_every_natural(self):
        assert all(n < OMEGA for n in (0, 1, 2, 10**400))
        assert max(2, OMEGA) is OMEGA and max(OMEGA, 2) is OMEGA
        assert str(OMEGA) == repr(OMEGA) == "w"
        assert copy.copy(OMEGA) is OMEGA
        assert copy.deepcopy(OMEGA) is OMEGA
        assert pickle.loads(pickle.dumps(OMEGA)) is OMEGA

    @pytest.mark.parametrize("sort", [-1, 1.5, True, float("inf"), "0", None])
    def test_var_refuses_what_is_not_a_sort(self, sort):
        with pytest.raises(ValueError, match="a sort is a natural number or w"):
            Var("p", sort)

    @pytest.mark.parametrize("name", ["p q", "T", "F", "", "1p", "p-q", "日本", "p\n", 7])
    def test_var_refuses_what_no_formula_can_name(self, name):
        # each would render as text that parse_formula refuses or reads otherwise
        with pytest.raises(ValueError, match="is not a variable name"):
            Var(name, 0)
        assert (Var, name, 0) not in formulas._nodes


class TestModalityIndex:
    # each index was once accepted, and rendered as text that parse_formula
    # refuses or reads otherwise
    def _refuses(self, index):
        with pytest.raises(ValueError, match="a modality index is a natural number, not "):
            Dia(index, p0)

    def test_negative(self):
        self._refuses(-1)
        with pytest.raises(ValueError, match="a modality index is a natural number"):
            Box(-1, p0)
        assert (Dia, -1, p0) not in formulas._nodes

    def test_fractional(self):
        # decide once called <1.5>p:0 -> p:0 a theorem
        with pytest.raises(ValueError, match="a modality index is a natural number, not 1.5"):
            decide("jstar", Implies(Dia(1.5, p0), p0))
        assert (Dia, 1.5, p0) not in formulas._nodes

    def test_bool(self):
        # True equals 1 as a key, so it is refused even while <1>p:0 lives
        live = Dia(1, p0)
        self._refuses(True)
        assert Dia(1, p0) is live

    def test_string(self):
        # decide once raised a bare TypeError on <"1">p:0 -> p:0
        self._refuses("1")
        assert (Dia, "1", p0) not in formulas._nodes


class TestChildren:
    # each once raised a bare AttributeError, naming a derived slot of the child
    @pytest.mark.parametrize("cls, fields, shown", [
        (Neg, (5,), "5"),
        (And, (Var("p"), "q"), "'q'"),
        (Or, (None, TOP), "None"),
        (Dia, (0, None), "None"),
    ])
    def test_refuses_what_is_not_a_formula(self, cls, fields, shown):
        with pytest.raises(ValueError, match=f"a formula's child is a formula, not {shown}$"):
            cls(*fields)
        assert (cls, *fields) not in formulas._nodes

    @pytest.mark.parametrize("build, message", [
        (lambda: Neg([]), r"a formula's child is a formula, not \[\]$"),
        (lambda: And(TOP, {}), r"a formula's child is a formula, not \{\}$"),
        (lambda: Or({}, TOP), r"a formula's child is a formula, not \{\}$"),
        (lambda: Dia(0, []), r"a formula's child is a formula, not \[\]$"),
        (lambda: Var(["p"], 0), r"^\['p'\] is not a variable name$"),
    ], ids=["neg", "and", "or", "dia", "var"])
    def test_refuses_an_unhashable_field(self, build, message):
        # each once raised a bare TypeError from the intern table's lookup
        with pytest.raises(ValueError, match=message):
            build()

    def test_sugar_refuses_it_too(self):
        for build in (lambda: Box(1, 3), lambda: Implies("p", TOP)):
            with pytest.raises(ValueError, match="a formula's child is a formula"):
                build()


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
        assert diamond_subformulas(f) == [(2, pw), (0, qw)]
        assert sorted(diamond_subformulas(f), key=lambda p: p[0]) == [(0, qw), (2, pw)]

    def test_no_diamonds(self):
        assert diamond_subformulas(p0) == []

    def test_nested(self):
        f = Dia(1, Dia(0, p0))
        assert diamond_subformulas(f) == [(1, Dia(0, p0)), (0, p0)]

    def test_level_sort_is_stable(self):
        f = And(Dia(0, pw), Dia(0, qw))
        assert sorted(diamond_subformulas(f), key=lambda p: p[0]) == [(0, pw), (0, qw)]


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

    def test_goal_alone_matches_subformula_walk(self):
        # decide closes only the goal; the walk that stops at members must
        # give what the full subformula walk gave on the negated goal and
        # the goal's subformulas
        rng = random.Random(7)
        double_negations = 0
        for k in range(160):
            f = gen_sorted_formula(rng, depth=4, max_vars=3, mods=(0, 1, 2, 3))
            system = (SystemId.JSTAR, SystemId.GLPSTAR, SystemId.GLP, SystemId.GLPSSTAR)[k % 4]
            target = reduction_target(system, f)
            negated = modified_negation(target)
            expected = _closure_by_subformula_walk({negated} | subformulas(target))
            assert adequate_closure({target}) == expected
            if isinstance(target, Neg) and isinstance(negated, Neg):
                # ~~x as the goal: the closure of ~x alone would miss it
                double_negations += 1
                assert target not in adequate_closure({negated})
            else:
                assert adequate_closure({negated}) == expected
        assert double_negations > 0

    def test_gammas_match_subformula_walk(self):
        # several formulas at once, finite and omega sorts, and sets with
        # no diamond, where no rule applies
        rng = random.Random(9)
        shapes = {"finite": 0, "omega": 0, "no diamond": 0}
        for k in range(150):
            mods = () if k % 5 == 0 else (0, 1, 2, 3)
            sorts = ((0, 1, 2, OMEGA), (0, 1, 2), (OMEGA,))[k % 3]
            gamma = {gen_sorted_formula(rng, depth=rng.choice([2, 3, 4]), max_vars=3,
                                        mods=mods, sorts=sorts)
                     for _ in range(rng.randint(1, 3))}
            delta = adequate_closure(gamma)
            assert delta == _closure_by_subformula_walk(gamma)
            variables = [f for f in delta if isinstance(f, Var)]
            shapes["finite"] += any(v.sort is not OMEGA for v in variables)
            shapes["omega"] += any(v.sort is OMEGA for v in variables)
            shapes["no diamond"] += not modal_levels(delta)
        assert min(shapes.values()) > 20


def _closure_by_subformula_walk(gamma):
    """The closure as first written: every subformula of every absorbed
    formula, with its modified negation, then the three rules to a fixpoint."""
    delta = set()

    def absorb(f):
        for g in subformulas(f):
            delta.add(g)
            delta.add(modified_negation(g))

    absorb(TOP)
    for f in gamma:
        absorb(f)
    changed = True
    while changed:
        changed = False
        levels = modal_levels(delta)
        todo = []
        for f in delta:
            if isinstance(f, Dia):
                todo.extend(Dia(m, f.child) for m in levels)
            elif isinstance(f, Var) and f.sort is not OMEGA:
                todo.extend(Dia(n, f) for n in levels if n >= f.sort)
            elif isinstance(f, Neg) and isinstance(f.child, Var) and f.child.sort is not OMEGA:
                todo.extend(Dia(n, f) for n in levels if n > f.child.sort)
        for f in todo:
            if f not in delta:
                absorb(f)
                changed = True
    return frozenset(delta)


class TestInterning:
    def test_equal_constructions_are_identical(self):
        rng = random.Random(8)
        for _ in range(50):
            state = rng.getstate()
            f = gen_sorted_formula(rng, depth=4)
            rng.setstate(state)
            assert gen_sorted_formula(rng, depth=4) is f
        assert Var("p", 0) is p0 and Var("p") is pw and Var("p", OMEGA) is pw
        assert Neg(Dia(1, And(p0, TOP))) is Neg(Dia(1, And(Var("p", 0), Top())))
        assert Box(2, p0) is Box(2, p0) and Implies(p0, q1) is Implies(p0, q1)
        assert Dia(1, p0) is not Dia(2, p0) and And(p0, q1) is not Or(p0, q1)

    def test_equality_and_hash_are_identity(self):
        f = Or(Neg(p0), Dia(0, q1))
        assert f == Or(Neg(p0), Dia(0, q1)) and hash(f) == hash(Or(Neg(p0), Dia(0, q1)))
        assert type(f).__eq__ is object.__eq__ and type(f).__hash__ is object.__hash__
        assert f != Or(Neg(p0), Dia(1, q1))

    def test_copy_pickle_and_repr_round_trip(self):
        f = And(Dia(1, Neg(Var("p", 2))), Or(TOP, Box(0, Implies(BOT, qw))))
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert repr(Var("p", 2)) == "Var(name='p', sort=2)"
        assert repr(pw) == "Var(name='p', sort=w)"
        assert repr(Neg(TOP)) == "Neg(child=Top())"
        assert repr(Dia(1, BOT)) == "Dia(index=1, child=Bot())"
        assert eval(repr(f), vars(formulas) | {"w": OMEGA}) is f

    def test_fields_cannot_be_assigned(self):
        f = Dia(1, p0)
        for name, value in (("index", 2), ("child", q1), ("_size", 0), ("fresh", 0)):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
        with pytest.raises(AttributeError):
            del f.child
        assert f.index == 1 and f.child is p0 and Dia(1, p0) is f

    def test_derived_values_match_the_tree(self):
        f = And(Neg(Dia(2, Neg(Var("p", 1)))), Or(Var("q", 0), Neg(Var("q", 0))))
        assert formula_size(f) == 9
        assert sort_of(f) == 3

    def test_concurrent_construction_yields_one_node(self):
        # fresh names, so every thread races to build nodes none has built
        threads_n = (os.cpu_count() or 1) + 4
        prefix = f"t{uuid.uuid4().hex}_"
        barrier = threading.Barrier(threads_n)
        built = [None] * threads_n
        errors = []

        def build(slot):
            try:
                barrier.wait(timeout=10)
                out = []
                for k in range(300):
                    v = Var(f"{prefix}{k % 23}", k % 3)
                    f = Dia(k % 4, And(Neg(v), Or(v, Var(f"{prefix}{k % 7}"))))
                    out.append(Neg(And(f, Dia(k % 2, f))))
                built[slot] = out
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(i,)) for i in range(threads_n)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        first = built[0]
        assert len(first) == 300
        for other in built[1:]:
            assert all(a is b for a, b in zip(first, other, strict=True))
            for a, b in zip(first, other):
                assert a.child.left.child is b.child.left.child


class TestToOmegaSorted:
    def test_variable(self):
        assert to_omega_sorted(Dia(0, Var("p", 2))) == Dia(0, pw)

    def test_top(self):
        assert to_omega_sorted(TOP) == TOP

    def test_identity_on_omega(self):
        assert to_omega_sorted(pw) == pw


def test_box_and_implies_build_core_forms():
    p, q = Var("p"), Var("q")
    assert Box(1, p) is Neg(Dia(1, Neg(p)))
    assert Implies(p, q) is Or(Neg(p), q)
    assert parse_formula("[1]p -> q") is Implies(Box(1, p), q)
    f = Implies(Box(2, Neg(qw)), Dia(1, p0))
    assert desugar(f) is f
    classes, todo = set(), [formulas.Formula]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes.update(subclasses)
        todo += subclasses
    assert classes == {Top, formulas.Bot, Var, Neg, And, Or, Dia}


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


def test_adequacy_check_catches_missing_variable_twins():
    # drop, with their negations, a twin <m>p with m below p's sort, which
    # only rediamonding from p's higher diamonds asks for, or every twin of
    # p or of ~p, which only the variable rules ask for
    rng = random.Random(10)
    low = every = caught_by_rules_only = 0
    for _ in range(40):
        delta = adequate_closure({gen_sorted_formula(rng, depth=3, max_vars=3, mods=(0, 1, 2, 3),
                                                     sorts=(1, 2, 3)) for _ in range(3)})
        levels = modal_levels(delta)
        for p in (g for g in delta if isinstance(g, Var)):
            cuts = [[Dia(m, p)] for m in levels if m < p.sort <= max(levels)]
            low += len(cuts)
            for body in (p, Neg(p)):
                if any(Dia(m, body) in delta for m in levels):
                    cuts.append([Dia(m, body) for m in levels])
                    every += 1
            for twins in cuts:
                cut = delta - set(twins) - {Neg(t) for t in twins}
                assert is_adequate(cut) == _adequate_by_definition(cut)
                if not is_adequate(cut):
                    caught_by_rules_only += all(subformulas(g) <= cut for g in cut)
    assert low > 30 and every > 30 and caught_by_rules_only > 40
