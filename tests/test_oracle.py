import random
from itertools import product

import pytest

from glpstar import kripke, oracle
from glpstar.decide import SystemId, decide
from glpstar.formulas import OMEGA, TOP, Dia, Neg, Or, Var, variables_of
from glpstar.kripke import (
    Evaluator,
    KripkeModel,
    check_jstar_frame,
    check_strong_persistence,
    model_check,
)
from glpstar.oracle import (
    SearchBudget,
    WorldCount,
    brute_force_countermodel,
    cross_validate,
    enumerate_models,
)
from glpstar.parsing import parse_formula
from glpstar.reductions import occurring_modalities
from conftest import gen_sorted_formula


@pytest.mark.parametrize("variables, message", [
    ({"p": 1.5}, "a sort is a natural number or w"),
    ([("p", -1)], "a sort is a natural number or w"),
    ({"T": 0}, "is not a variable name"),
], ids=["fractional sort", "negative sort", "constant name"])
def test_enumeration_refuses_what_no_variable_has(variables, message):
    with pytest.raises(ValueError, match=message):
        enumerate_models(variables, [0], SearchBudget(max_worlds=2))


def reference_orders(k):
    """Strict orders on k worlds by a scan of every relation bitmap."""
    out = []
    for mask in range(1 << (k * k)):
        rel = {(x, y) for x in range(k) for y in range(k) if mask >> (x * k + y) & 1}
        if any(x == y for x, y in rel):
            continue
        if all((x, z) in rel for x, y in rel for y2, z in rel if y == y2):
            out.append(mask)
    return out


def is_rooted(model):
    """Whether w0 sees every other world at some level."""
    seen = {y for pairs in model.relations.values() for x, y in pairs if x == "w0"}
    return seen == set(model.worlds[1:])


def reference_search(formula, budget):
    """The search done on materialized models: the first model in which w0
    sees every world at some level and refutes the formula, counting only
    such models against the budget."""
    modalities = (budget.modalities if budget.modalities is not None
                  else sorted(occurring_modalities(formula)))
    every = SearchBudget(max_worlds=budget.max_worlds, modalities=budget.modalities)
    examined = 0
    for model in enumerate_models(variables_of(formula), modalities, every):
        if not is_rooted(model):
            continue
        if examined == budget.max_models:
            return False, None, None, examined, True
        examined += 1
        if not Evaluator(model).holds("w0", formula):
            rooted = KripkeModel(worlds=model.worlds, relations=model.relations,
                                 valuation=model.valuation, sorts=model.sorts, root="w0")
            return True, "w0", rooted, examined, False
    return False, None, None, examined, False


def unrooted_search(formula, budget):
    """The first refuted world of the first model, among every model."""
    modalities = (budget.modalities if budget.modalities is not None
                  else sorted(occurring_modalities(formula)))
    enum = enumerate_models(variables_of(formula), modalities, budget)
    for model in enum:
        ev = Evaluator(model)
        ext = ev.extension(formula)
        if ext != ev.full:
            world = next(w for w in model.worlds if not ext >> ev.index[w] & 1)
            return True, world, model, enum.truncated
    return False, None, None, enum.truncated


class TestStrictOrders:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equal_to_a_scan_of_all_relations(self, k):
        assert oracle._strict_orders(k) == reference_orders(k)

    def test_counts_and_order(self):
        counts = []
        for k in range(1, 7):
            orders = oracle._strict_orders(k)
            assert all(a < b for a, b in zip(orders, orders[1:])), k
            counts.append(len(orders))
        assert counts == [1, 3, 19, 219, 4231, 130023]  # OEIS A001035


def reference_model(k, levels, rel_masks, valuation=None, sorts=None):
    """A model on worlds w0..w(k-1) with every level's relation, even an empty one."""
    names = [f"w{i}" for i in range(k)]
    relations = {
        level: {(names[x], names[y]) for x in range(k) for y in range(k) if mask >> (x * k + y) & 1}
        for level, mask in zip(levels, rel_masks)
    }
    return KripkeModel(worlds=names, relations=relations, valuation=valuation, sorts=sorts)


def reference_frames(k, levels):
    """Frames by a scan of every tuple of strict orders, through the frame validator."""
    return [masks for masks in product(reference_orders(k), repeat=len(levels))
            if not check_jstar_frame(reference_model(k, levels, masks))]


FRAME_CASES = [(levels, k) for levels in [(0, 1), (0, 2), (0, 1, 2)] for k in [1, 2, 3]]


class TestFramesAndValuations:
    @pytest.mark.parametrize("levels,k", FRAME_CASES)
    def test_frames_equal_a_scan_through_the_validator(self, levels, k):
        enum = enumerate_models([], levels)
        assert list(enum._frames(k)) == reference_frames(k, levels)

    @pytest.mark.parametrize("levels,k", FRAME_CASES)
    def test_rooted_frames_equal_a_filtered_scan(self, levels, k):
        enum = oracle.ModelEnumeration([], levels, rooted=True)
        assert list(enum._frames(k)) == [masks for masks in reference_frames(k, levels)
                                         if is_rooted(reference_model(k, levels, masks))]

    @pytest.mark.parametrize("levels", [(0,), (0, 1), (1, 2), (0, 1, 2)])
    def test_rooted_frames_filter_every_frame_at_four_worlds(self, levels):
        rooted = oracle.ModelEnumeration([], levels, rooted=True)
        every = enumerate_models([], levels)
        assert list(rooted._frames(4)) == [masks for masks in every._frames(4)
                                           if is_rooted(reference_model(4, levels, masks))]

    @pytest.mark.parametrize("levels,k", FRAME_CASES)
    def test_valuations_equal_a_scan_through_the_validator(self, levels, k):
        worlds = [f"w{i}" for i in range(k)]
        for masks in reference_frames(k, levels):
            for sort in (0, 1, 2, OMEGA):
                expected = tuple(
                    s for s in range(1 << k)
                    if not check_strong_persistence(reference_model(
                        k, levels, masks, {"p": {worlds[i] for i in range(k) if s >> i & 1}},
                        {"p": sort}))
                )
                assert oracle._closed_valuations(k, levels, masks, sort) == expected, (masks, sort)

    def test_two_levels_at_five_worlds(self):
        frames = list(enumerate_models([], [0, 1])._frames(5))
        assert len(frames) == 33571
        assert all(a < b for a, b in zip(frames, frames[1:]))

    def test_many_levels_do_not_recurse(self):
        # 1200 levels, past the recursion limit: one frame level per stack entry
        levels = range(1200)
        assert list(enumerate_models([], levels)._frames(1)) == [(0,) * 1200]
        rooted = oracle.ModelEnumeration([], levels, rooted=True)
        # w0 sees w1 (bit 1) at one level; no other level can hold a pair
        assert list(rooted._frames(2)) == [tuple(2 if n == level else 0 for n in levels)
                                           for level in reversed(levels)]


class TestSearchBudget:
    def test_world_limit(self):
        assert SearchBudget(max_worlds=oracle.MAX_WORLDS).max_worlds == 6
        with pytest.raises(ValueError, match="at most 6"):
            SearchBudget(max_worlds=7)


class TestEnumerateModels:
    def test_one_world_one_omega_variable(self):
        models = list(enumerate_models({"p": OMEGA}, [0], SearchBudget(max_worlds=1)))
        assert len(models) == 2
        assert {frozenset(m.valuation["p"]) for m in models} == {frozenset(), frozenset({"w0"})}

    def test_no_variables_single_world(self):
        models = list(enumerate_models({}, [0], SearchBudget(max_worlds=1)))
        assert len(models) == 1

    def test_two_world_frames(self):
        models = [
            m
            for m in enumerate_models({}, [0], SearchBudget(max_worlds=2))
            if len(m.worlds) == 2
        ]
        rels = {m.relations.get(0, frozenset()) for m in models}
        assert rels == {
            frozenset(),
            frozenset({("w0", "w1")}),
            frozenset({("w1", "w0")}),
        }

    def test_all_yielded_models_are_valid(self):
        count = 0
        for m in enumerate_models({"p": 0, "q": OMEGA}, [0, 2], SearchBudget(max_worlds=3, max_models=4000)):
            assert check_jstar_frame(m) == []
            assert check_strong_persistence(m) == []
            count += 1
        assert count > 100

    def test_truncation_flag(self):
        enum = enumerate_models({"p": OMEGA}, [0], SearchBudget(max_worlds=3, max_models=5))
        models = list(enum)
        assert len(models) == 5
        assert enum.truncated

    def test_deterministic_order(self):
        first = [m for m in enumerate_models({"p": 0}, [0, 1], SearchBudget(max_worlds=2))]
        second = [m for m in enumerate_models({"p": 0}, [0, 1], SearchBudget(max_worlds=2))]
        assert first == second


class TestBruteForce:
    def test_dia_top(self):
        r = brute_force_countermodel(parse_formula("<0>T"))
        assert r.found
        assert len(r.model.worlds) == 1
        assert r.model.relations == {}

    def test_tautology(self):
        r = brute_force_countermodel(TOP, SearchBudget(max_worlds=2))
        assert not r.found
        assert not r.truncated

    def test_monotonicity_countermodel(self):
        r = brute_force_countermodel(parse_formula("<1>p -> <0>p"))
        assert r.found
        assert len(r.model.worlds) == 2
        assert r.model.relations == {1: frozenset({("w0", "w1")})}
        assert r.model.valuation["p"] == frozenset({"w1"})

    def test_returned_refutation_is_sound(self):
        rng = random.Random(61)
        found = 0
        for _ in range(40):
            f = gen_sorted_formula(rng)
            r = brute_force_countermodel(f, SearchBudget(max_worlds=3))
            if r.found:
                found += 1
                assert check_jstar_frame(r.model) == []
                assert check_strong_persistence(r.model) == []
                assert not model_check(r.model, r.world, f)
        assert found > 10


class TestCrossValidate:
    def test_theorem_agreement(self):
        rep = cross_validate(parse_formula("<1>p:1 -> p:1"), "glpstar", SearchBudget(max_worlds=3))
        assert rep.status == "agreement"
        assert rep.verdict.theorem and not rep.search.found

    def test_nontheorem_agreement(self):
        rep = cross_validate(parse_formula("<1>p -> <0>p"), "jstar", SearchBudget(max_worlds=3))
        assert rep.status == "agreement"
        assert not rep.verdict.theorem and rep.search.found

    def test_bottom(self):
        rep = cross_validate(parse_formula("F"), "glpstar", SearchBudget(max_worlds=2))
        assert rep.status == "agreement"
        assert not rep.verdict.theorem

    def test_random_batch_never_disagrees(self):
        rng = random.Random(62)
        budget = SearchBudget(max_worlds=3)
        for _ in range(60):
            f = gen_sorted_formula(rng)
            system = rng.choice(["jstar", "glpstar"])
            rep = cross_validate(f, system, budget)
            assert rep.status != "disagreement", (
                f"engines disagree on {f!r} in {system}"
            )

    def test_small_countermodels_matched_by_oracle(self):
        rng = random.Random(63)
        matched = 0
        for _ in range(60):
            f = gen_sorted_formula(rng)
            rep = cross_validate(f, "jstar", SearchBudget(max_worlds=3))
            v = rep.verdict
            if not v.theorem and len(v.countermodel.worlds) <= 3 and not rep.search.truncated:
                assert rep.search.found
                matched += 1
        assert matched > 10


    def test_more_modalities_at_more_worlds(self):
        # J* formulas that hold on one world: over {0,1} at 5 worlds and,
        # every fourth, over {0,1,2} at 4 worlds; none is truncated
        rng = random.Random(70)
        matched = theorems = 0
        for i in range(200):
            mods, worlds = ((0, 1, 2), 4) if i % 4 == 3 else ((0, 1), 5)
            while True:
                f = gen_sorted_formula(rng, depth=5, max_vars=1, mods=mods)
                if not brute_force_countermodel(f, SearchBudget(max_worlds=1)).found:
                    break
            rep = cross_validate(f, "jstar", SearchBudget(max_worlds=worlds))
            assert rep.status == "agreement", f
            matched += rep.search.found
            theorems += rep.verdict.theorem
        assert (matched, theorems) == (93, 107)


class TestMaskSearch:
    BUDGETS = [
        SearchBudget(max_worlds=3),
        SearchBudget(max_worlds=4, max_models=150),
        SearchBudget(max_worlds=3, modalities=(0, 1)),
        SearchBudget(max_worlds=4, modalities=(1,), max_models=40),
        SearchBudget(max_worlds=4, max_models=7),
    ]

    def test_agrees_with_search_over_materialized_models(self, monkeypatch):
        built = []

        class CountingModel(KripkeModel):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        rng = random.Random(64)
        found = truncated = larger = 0
        for i in range(200):
            while True:
                # every other formula holds on one world, so its search goes further
                f = gen_sorted_formula(rng, depth=rng.choice([2, 3, 4]), max_vars=rng.choice([1, 2]))
                if i % 2 == 0 or not reference_search(f, SearchBudget(max_worlds=1))[0]:
                    break
            budget = self.BUDGETS[i % len(self.BUDGETS)]
            expected = reference_search(f, budget)
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(kripke, "KripkeModel", CountingModel)
                r = brute_force_countermodel(f, budget)
            assert len(built) == int(r.found) <= 1, f
            got = (r.found, r.world, r.model, r.models_examined, r.truncated)
            assert got == expected, f
            assert repr(r.model) == repr(expected[2])
            assert sum(c.models for c in r.by_worlds) == r.models_examined
            found += r.found
            truncated += r.truncated
            larger += r.found and len(r.model.worlds) > 1
        assert found > 60 and truncated > 20 and larger > 10

    def test_found_and_world_count_match_every_model(self):
        # on untruncated searches the rooted search finds a countermodel
        # exactly when some model has one, and one with as few worlds
        rng = random.Random(65)
        budgets = [SearchBudget(max_worlds=3), SearchBudget(max_worlds=3, modalities=(1, 2))]
        found = larger = 0
        for i in range(300):
            while True:
                # most formulas fail on one world; keep mostly those that hold there
                f = gen_sorted_formula(rng, depth=rng.choice([2, 3, 4]), max_vars=rng.choice([1, 2]))
                if i % 4 == 0 or not unrooted_search(f, SearchBudget(max_worlds=1))[0]:
                    break
            budget = budgets[i % len(budgets)]
            r = brute_force_countermodel(f, budget)
            every_found, _, model, every_truncated = unrooted_search(f, budget)
            assert not r.truncated and not every_truncated
            assert r.found == every_found, f
            if r.found:
                assert len(r.model.worlds) == len(model.worlds), f
                assert check_jstar_frame(r.model) == [] and check_strong_persistence(r.model) == []
                assert r.world == "w0" and not model_check(r.model, "w0", f)
                found += 1
                larger += len(model.worlds) > 1
        assert found > 80 and larger > 25

    def test_same_name_in_two_sorts(self):
        # refused as the parser and decide refuse it: a model's valuation is keyed by name
        f = Or(Neg(Dia(1, Var("p", 0))), Dia(0, Var("p", 1)))
        with pytest.raises(ValueError, match="variable 'p' used with sorts 0 and 1"):
            brute_force_countermodel(f, SearchBudget(max_worlds=3))
        with pytest.raises(ValueError, match="variable 'p' used with sorts 0 and 1"):
            enumerate_models([Var("p", 0), Var("p", 1)], [0], SearchBudget(max_worlds=2))

    def test_variable_listed_twice(self):
        budget = SearchBudget(max_worlds=2)
        once = list(enumerate_models([Var("p", 0)], [0], budget))
        assert list(enumerate_models([Var("p", 0), ("p", 0)], [0], budget)) == once

    def test_counts_per_world_count(self):
        # a theorem over one level: every rooted frame and model up to 3 worlds is examined
        f = parse_formula("<0>p:0 -> p:0")
        r = brute_force_countermodel(f, SearchBudget(max_worlds=3))
        assert not r.found and not r.truncated
        models = [
            sum(1 for m in enumerate_models([Var("p", 0)], [0], SearchBudget(max_worlds=k))
                if len(m.worlds) == k and is_rooted(m))
            for k in (1, 2, 3)
        ]
        assert r.by_worlds == tuple(
            WorldCount(k, frames, n) for k, frames, n in zip((1, 2, 3), (1, 1, 3), models)
        )

    def test_budget_checked_before_the_next_frame_table(self, monkeypatch):
        built = []
        tables = oracle._orders_by_row0  # cached, so spied on where the search asks for it
        monkeypatch.setattr(oracle, "_orders_by_row0", lambda k: built.append(k) or tables(k))
        budget = SearchBudget(max_worlds=3, max_models=2)  # p alone has 2 models on 1 world
        r = brute_force_countermodel(parse_formula("p | ~p | <0>T"), budget)
        assert (r.found, r.models_examined, r.truncated) == (False, 2, True)
        assert built == [1]
        assert r.by_worlds == (WorldCount(1, 1, 2),)

    def test_budget_checked_before_the_next_frame_valuations(self, monkeypatch):
        # 2 models on one world, 4 on the rooted two-world frame, then 8 on
        # the first of the three rooted three-world frames
        budget = SearchBudget(max_worlds=3, max_models=14)
        f = parse_formula("p | ~p | <0>T")
        found, _, _, examined, truncated = reference_search(f, budget)
        built = []
        closed = oracle._closed_valuations
        monkeypatch.setattr(oracle, "_closed_valuations",
                            lambda *args: built.append(args[0]) or closed(*args))
        r = brute_force_countermodel(f, budget)
        assert (r.found, r.models_examined, r.truncated) == (found, examined, truncated) == (False, 14, True)
        assert built == [1, 2, 3]
        assert r.by_worlds == (WorldCount(1, 1, 2), WorldCount(2, 1, 4), WorldCount(3, 1, 8))
