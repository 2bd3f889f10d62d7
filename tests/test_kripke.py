import random

import pytest

from glpstar.decide import decide
from glpstar.formulas import (
    BOT,
    OMEGA,
    And,
    Bot,
    Box,
    Dia,
    Implies,
    Neg,
    Or,
    TOP,
    Top,
    Var,
    desugar,
    sort_of,
    variables_of,
)
from glpstar.kripke import (
    CONDITION_II,
    CONDITION_III,
    IRREFLEXIVITY,
    PERSISTENCE_I,
    PERSISTENCE_II,
    TRANSITIVITY,
    Evaluator,
    KripkeModel,
    adjoin_root,
    check_jstar_frame,
    check_strong_persistence,
    compile_formula,
    find_roots,
    generated_submodel,
    is_world_name,
    model_check,
    valid_in_model,
)
from glpstar.parsing import parse_formula
from glpstar.reductions import occurring_modalities
from conftest import gen_persistent_model, perturb_model
from reference import reference_check_jstar_frame


def kinds(violations):
    return {v.kind for v in violations}


class TestFrameValidator:
    # a frame is a model without a valuation

    def test_model_checks_its_worlds_and_relations(self):
        for worlds, relations, message in [
            ((), {}, "a frame needs at least one world"),
            (("a", "b", "a"), {}, "duplicate world 'a'"),
            (("a",), {0: {("a", "b")}}, "relation 0 references undeclared world"),
        ]:
            with pytest.raises(ValueError, match=message):
                KripkeModel(worlds, relations)

    @pytest.mark.parametrize("sort", [-1, "x"])
    def test_model_refuses_what_is_not_a_sort(self, sort):
        # built, -1 would read as a persistence violation and "x" would make
        # check_strong_persistence raise TypeError
        with pytest.raises(ValueError, match="a sort is a natural number or w"):
            KripkeModel(("a", "b"), {0: {("a", "b")}}, {"p": {"a"}}, {"p": sort})

    @pytest.mark.parametrize("index", [1.5, -1, True, "1"])
    def test_model_refuses_what_is_not_a_modality_index(self, index):
        # int() once made 1.5 level 1 and let -1 through
        with pytest.raises(ValueError, match="a modality index is a natural number, not "):
            KripkeModel(("a", "b"), {index: {("a", "b")}})

    @pytest.mark.parametrize("name", ["a#b", "a,b", "", "a b", "a\tb", "a\nb", "a\x0bb", 7, None])
    def test_model_refuses_what_is_not_a_world_name(self, name):
        # each would render as model text that parse_model refuses or reads otherwise
        with pytest.raises(ValueError, match="is not a world name"):
            KripkeModel((name, "c"))

    def test_generated_world_names_are_world_names(self):
        assert all(map(is_world_name, ("w0", "w12", "0", "r0", "r17", "a\u3000b", "{=:}")))
        m = KripkeModel(("0", "r0"), {0: {("0", "r0")}}, {}, {}, root="0")
        assert adjoin_root(m).worlds == ("r1", "0", "r0")
        verdict = decide("glpstar", parse_formula("<0>p & ~<1>q:0"))
        assert all(map(is_world_name, verdict.countermodel.worlds))

    def test_model_refuses_what_is_not_a_variable_name(self):
        with pytest.raises(ValueError, match="is not a variable name"):
            KripkeModel(("a",), {}, {"p q": {"a"}}, {"p q": 0})

    def test_matches_reference(self):
        # valid frames, and the same with up to three edges flipped at random levels
        rng = random.Random(31)
        invalid = 0
        for _ in range(300):
            model = perturb_model(rng, gen_persistent_model(rng, max_worlds=6))
            relations = {n: set(rel) for n, rel in model.relations.items()}
            for _ in range(rng.randint(0, 3)):
                pair = (rng.choice(model.worlds), rng.choice(model.worlds))
                relations.setdefault(rng.randrange(3), set()).symmetric_difference_update({pair})
            model = KripkeModel(model.worlds, relations, model.valuation, model.sorts)
            violations = check_jstar_frame(model)
            assert violations == reference_check_jstar_frame(model)
            invalid += bool(violations)
        assert 100 < invalid < 250

    def test_reflexive_point(self):
        frame = KripkeModel(("a",), {0: {("a", "a")}})
        assert kinds(check_jstar_frame(frame)) == {IRREFLEXIVITY}

    def test_missing_transitive_edge(self):
        frame = KripkeModel(("a", "b", "c"), {0: {("a", "b"), ("b", "c")}})
        assert kinds(check_jstar_frame(frame)) == {TRANSITIVITY}

    def test_condition_ii(self):
        frame = KripkeModel(("a", "b", "c"), {1: {("a", "b")}, 0: {("a", "c")}})
        assert CONDITION_II in kinds(check_jstar_frame(frame))

    def test_condition_iii(self):
        # a ->0 b ->1 c without a ->0 c; pad b's and a's level-0 successors
        # so condition (ii) is isolated away by keeping them equal
        frame = KripkeModel(("a", "b", "c"), {0: {("a", "b")}, 1: {("b", "c")}})
        assert CONDITION_III in kinds(check_jstar_frame(frame))

    def test_empty_relations_valid(self):
        frame = KripkeModel(("a", "b"), {})
        assert check_jstar_frame(frame) == []

    def test_all_violations_reported(self):
        frame = KripkeModel(("a", "b"), {0: {("a", "a"), ("b", "b")}})
        assert len([v for v in check_jstar_frame(frame) if v.kind == IRREFLEXIVITY]) == 2

    def test_generated_frames_pass(self):
        rng = random.Random(21)
        for _ in range(60):
            model = gen_persistent_model(rng)
            assert check_jstar_frame(model) == []


class TestPersistenceValidator:
    def test_clause_one(self):
        m = KripkeModel(("a", "b"), {1: {("a", "b")}}, {"p": {"b"}}, {"p": 1})
        assert kinds(check_strong_persistence(m)) == {PERSISTENCE_I}

    def test_clause_two(self):
        m = KripkeModel(("a", "b"), {1: {("a", "b")}}, {"p": {"a"}}, {"p": 0})
        assert kinds(check_strong_persistence(m)) == {PERSISTENCE_II}

    def test_omega_unconstrained(self):
        m = KripkeModel(("a", "b"), {1: {("a", "b")}}, {"p": {"a"}}, {"p": OMEGA})
        assert check_strong_persistence(m) == []

    def test_generated_models_pass(self):
        rng = random.Random(22)
        for _ in range(60):
            assert check_strong_persistence(gen_persistent_model(rng)) == []


class TestModelCheck:
    def setup_method(self):
        self.m = KripkeModel(("a", "b"), {1: {("a", "b")}}, {"p": {"b"}}, {"p": OMEGA})

    def test_diamond_true(self):
        assert model_check(self.m, "a", Dia(1, Var("p"))) is True

    def test_diamond_false_without_successors(self):
        assert model_check(self.m, "b", Dia(1, Var("p"))) is False

    def test_box(self):
        assert model_check(self.m, "a", Box(1, Var("p"))) is True

    def test_unknown_world(self):
        with pytest.raises(KeyError):
            model_check(self.m, "zz", TOP)

    def test_absent_variable_refused(self):
        for check in (lambda: model_check(self.m, "a", Var("ghost")),
                      lambda: valid_in_model(self.m, Var("ghost"))):
            with pytest.raises(ValueError, match="variable 'ghost' is not in the model's valuation"):
                check()

    def test_validity(self):
        assert valid_in_model(self.m, TOP) is True
        assert valid_in_model(self.m, Var("p")) is False

    def test_variable_of_another_sort_refused(self):
        # the model's p is omega-sorted, the formula's is of sort 0
        m = KripkeModel(("a", "b"), {0: [("a", "b")]}, {"p": ["b"]}, {"p": OMEGA})
        f = Implies(Dia(0, Var("p", 0)), Var("p", 0))
        message = "variable 'p' has sort 0 in the formula and sort w in the model"
        with pytest.raises(ValueError, match=message):
            model_check(m, "a", f)
        with pytest.raises(ValueError, match=message):
            valid_in_model(m, f)
        assert model_check(m, "a", Dia(0, Var("p"))) is True

    def test_sigma_scheme_in_persistent_model(self):
        m = KripkeModel(("a", "b"), {1: {("a", "b")}}, {"p": {"a", "b"}}, {"p": 1})
        assert check_strong_persistence(m) == []
        assert valid_in_model(m, Implies(Dia(1, Var("p", 1)), Var("p", 1)))


def truth_set(model, formula):
    """Worlds where a core formula holds, straight from the truth clauses."""
    if isinstance(formula, Top):
        return set(model.worlds)
    if isinstance(formula, Bot):
        return set()
    if isinstance(formula, Var):
        return set(model.valuation.get(formula.name, ()))
    if isinstance(formula, Neg):
        return set(model.worlds) - truth_set(model, formula.child)
    if isinstance(formula, And):
        return truth_set(model, formula.left) & truth_set(model, formula.right)
    if isinstance(formula, Or):
        return truth_set(model, formula.left) | truth_set(model, formula.right)
    body = truth_set(model, formula.child)
    return {x for x, y in model.relations.get(formula.index, ()) if y in body}


class TestEvaluator:
    def test_agrees_with_truth_clauses(self):
        rng = random.Random(27)
        for _ in range(80):
            m = gen_persistent_model(rng)
            pool = [Var(n, s) for n, s in m.sorts.items()]
            ev = Evaluator(m)
            for _ in range(10):
                f = desugar(gen_formula_over(rng, pool))
                ext = ev.extension(f)
                assert {w for w in m.worlds if ext >> ev.index[w] & 1} == truth_set(m, f), f
                assert ev.extension(f) == ext  # the value repeats

    def test_program_shape(self):
        rng = random.Random(28)
        for _ in range(200):
            f = desugar(gen_formula_over(rng, [Var("p", 0), Var("q", OMEGA), Var("r", 1)]))
            program = compile_formula(f)
            assert program.variables == tuple(variables_of(f))
            assert program.modalities == occurring_modalities(f)
            assert len(set(program.nodes)) == len(program.nodes) == len(program.code)
            assert program.nodes[-1] is f
            position = {node: i for i, node in enumerate(program.nodes)}
            for node in program.nodes:
                for child in (getattr(node, name) for name in ("child", "left", "right")
                              if hasattr(node, name)):
                    assert position[child] < position[node]

    def test_deep_formula_without_recursion(self):
        m = KripkeModel(("a", "b", "c"), {0: {("a", "b"), ("b", "c"), ("a", "c")}},
                        {"p": {"c"}}, {"p": OMEGA})
        f, truth = Var("p"), {"c"}
        for _ in range(5_000):  # <0>~<0>~...p, 10,000 deep
            f = Dia(0, Neg(f))
            truth = {x for x, y in m.relations[0] if y not in truth}
        assert truth == {"a", "b"}
        assert Evaluator(m).extension(f) == 0b011


class TestFindRoots:
    def test_single_world(self):
        m = KripkeModel(("a",), {}, {}, {})
        assert find_roots(m) == {"a"}

    def test_one_edge(self):
        m = KripkeModel(("a", "b"), {0: {("a", "b")}}, {}, {})
        assert find_roots(m) == {"a"}

    def test_disconnected(self):
        m = KripkeModel(("a", "b"), {}, {}, {})
        assert find_roots(m) == frozenset()

    def test_transitive_flag(self):
        # a sees b at level 1, b sees c at level 1: transitivity is violated,
        # and a reaches c only by a path, so no world is a root
        m = KripkeModel(("a", "b", "c"), {1: {("a", "b"), ("b", "c")}}, {}, {})
        assert find_roots(m) == frozenset()


class TestAdjoinRoot:
    def test_single_world(self):
        m = KripkeModel(("1",), {}, {"p": {"1"}}, {"p": OMEGA}, root="1")
        out = adjoin_root(m)
        assert set(out.worlds) == {"0", "1"}
        assert out.relations[0] == {("0", "1")}
        assert out.valuation["p"] == {"0", "1"}
        assert out.root == "0"

    def test_sees_every_old_world(self):
        m = KripkeModel(("1", "2"), {0: {("1", "2")}}, {}, {}, root="1")
        out = adjoin_root(m)
        assert {("0", "1"), ("0", "2")} <= out.relations[0]

    def test_requires_root(self):
        with pytest.raises(ValueError):
            adjoin_root(KripkeModel(("a",), {}, {}, {}))

    def test_preserves_validity_and_truth(self):
        rng = random.Random(23)
        done = 0
        while done < 25:
            m = gen_persistent_model(rng, max_worlds=4)
            roots = find_roots(m)
            if not roots:
                continue
            root = sorted(roots)[0]
            rooted = KripkeModel(m.worlds, m.relations, m.valuation, m.sorts, root=root)
            out = adjoin_root(rooted)
            assert check_jstar_frame(out) == []
            assert check_strong_persistence(out) == []
            pool = [Var(n, s) for n, s in m.sorts.items()]
            for _ in range(10):
                f = desugar(gen_formula_over(rng, pool))
                for w in m.worlds:
                    assert model_check(m, w, f) == model_check(out, w, f)
            done += 1


def gen_formula_over(rng, pool):
    from conftest import gen_formula

    return gen_formula(rng, 3, pool, [0, 1, 2])


class TestLemmaPersistenceTransfer:
    def test_formula_level_clauses(self):
        rng = random.Random(24)
        for _ in range(60):
            m = gen_persistent_model(rng)
            pool = [Var(n, s) for n, s in m.sorts.items()]
            for _ in range(5):
                f = desugar(gen_formula_over(rng, pool))
                s = sort_of(f)
                for n, rel in m.relations.items():
                    for x, y in rel:
                        if s is not OMEGA and s <= n and model_check(m, y, f):
                            assert model_check(m, x, f)
                        if s is not OMEGA and s < n and not model_check(m, y, f):
                            assert not model_check(m, x, f)

    def test_scheme_validity_iff_persistent(self):
        rng = random.Random(25)
        persistent_seen = perturbed_detected = 0
        for _ in range(80):
            m = gen_persistent_model(rng)
            pool = [Var(n, s) for n, s in m.sorts.items()]
            levels = sorted(m.relations) or [0]
            # persistent side: the completeness scheme holds for fitting sorts
            for _ in range(3):
                f = desugar(gen_formula_over(rng, pool))
                s = sort_of(f)
                for n in levels:
                    if s is not OMEGA and s <= n:
                        assert valid_in_model(m, Implies(Dia(n, f), f))
                        persistent_seen += 1
            # perturbed side: a variable-level violation yields an invalid instance
            bad = perturb_model(rng, m)
            report = check_strong_persistence(bad)
            if not report:
                continue
            v = report[0]
            n = v.modalities[0]
            var = Var(v.variable, bad.sorts[v.variable])
            witness = var if v.kind == PERSISTENCE_I else Neg(var)
            assert not valid_in_model(bad, Implies(Dia(n, witness), witness))
            perturbed_detected += 1
        assert persistent_seen > 50 and perturbed_detected > 10


class TestModifiedNegationSemantics:
    def test_agrees_with_classical_negation(self):
        from glpstar.formulas import modified_negation

        rng = random.Random(26)
        for _ in range(40):
            m = gen_persistent_model(rng)
            pool = [Var(n, s) for n, s in m.sorts.items()]
            for _ in range(5):
                f = desugar(gen_formula_over(rng, pool))
                for w in m.worlds:
                    assert model_check(m, w, modified_negation(f)) != model_check(m, w, f)


class TestGeneratedSubmodel:
    def test_restricts_and_roots(self):
        m = KripkeModel(
            ("a", "b", "c"), {0: {("a", "b")}}, {"p": {"c"}}, {"p": OMEGA}
        )
        sub = generated_submodel(m, "a")
        assert set(sub.worlds) == {"a", "b"}
        assert sub.root == "a"
        assert sub.valuation["p"] == frozenset()
