import importlib
import itertools
import os
import pkgutil
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import glpstar
from glpstar.decide import SystemId, _check_countermodel, cross_validate, decide, reduction_target
from glpstar.formulas import (
    OMEGA,
    And,
    Dia,
    Implies,
    Neg,
    Or,
    TOP,
    Var,
    adequate_closure,
    desugar,
    fold_constants,
    polarity_constants,
    variables_of,
)
from glpstar.hintikka import DEFAULT_CANDIDATE_CAP, CanonicalEngine, ResourceLimitError
from glpstar.kripke import (
    KripkeModel,
    check_jstar_frame,
    check_strong_persistence,
    compile_formula,
    find_roots,
    model_check,
)
from glpstar.oracle import SearchBudget
from glpstar.parsing import parse_formula
from glpstar.reductions import n_plus, r_theta_plus, occurring_modalities
from conftest import gen_formula, gen_sorted_formula
from reference import assert_truth_lemma, canonical_model, reference_fold, reference_polarity


def verdict(system, text, **kw):
    return decide(SystemId.parse(system), parse_formula(text), **kw)


class TestSpecVerdicts:
    def test_sigma_theorem(self):
        assert verdict("glpstar", "<1>p:1 -> p:1").theorem

    def test_monotonicity_absent_from_base_system(self):
        v = verdict("jstar", "<1>p -> <0>p")
        assert not v.theorem
        cm = v.countermodel
        assert len(cm.worlds) == 2
        assert cm.relations == {1: frozenset({("w0", "w1")})}
        assert cm.valuation["p"] == frozenset({"w1"})

    def test_monotonicity_theorem(self):
        assert verdict("glpstar", "<1>p -> <0>p").theorem

    def test_sort_too_high(self):
        assert not verdict("glpstar", "<0>p:2 -> p:2").theorem

    def test_transit_collapse(self):
        assert verdict("glpstar", "<0><1>p -> <0>p").theorem
        assert verdict("jstar", "<0><1>p -> <0>p").theorem

    def test_dia_top_across_systems(self):
        assert verdict("glpsstar", "<0>T").theorem
        assert not verdict("glpstar", "<0>T").theorem

    def test_persist_derived(self):
        assert verdict("glpstar", "<0>p -> [1]<0>p").theorem

    def test_glp_embedding_ignores_sorts(self):
        assert not verdict("glp", "<1>p:1 -> p:1").theorem
        assert verdict("glp", "<1>p -> <0>p").theorem


class TestVariableSorts:
    # Models key valuations by name, so one name at two sorts would merge
    # into one atom of the countermodel; the parser refuses such text.
    TWO_SORTS = Or(Var("p", 0), Neg(Var("p", 1)))

    @pytest.mark.parametrize("system", ["jstar", "glpstar", "glpsstar"])
    def test_name_at_two_sorts_is_refused(self, system):
        with pytest.raises(ValueError, match="variable 'p' used with sorts 0 and 1"):
            decide(system, self.TWO_SORTS)
        with pytest.raises(ValueError, match="variable 'p' used with sorts 0 and 1"):
            cross_validate(self.TWO_SORTS, system, SearchBudget(max_worlds=2))

    def test_candidates_refuse_it_too(self):
        with pytest.raises(ValueError, match="variable 'p' used with sorts 0 and 1"):
            CanonicalEngine(adequate_closure({self.TWO_SORTS}))

    def test_glp_merges_the_sorts(self):
        # the omega-sorted copy has one variable p, and p | ~p is a theorem
        assert decide("glp", self.TWO_SORTS).theorem


class TestCountermodels:
    def test_validated_rooted_falsifying(self):
        rng = random.Random(51)
        seen = 0
        for _ in range(120):
            f = gen_sorted_formula(rng)
            system = rng.choice(list(SystemId))
            v = decide(system, f)
            if v.theorem:
                continue
            seen += 1
            cm = v.countermodel
            assert cm.root is not None
            assert check_jstar_frame(cm) == []
            assert check_strong_persistence(cm) == []
            assert not model_check(cm, cm.root, v.falsified)
            assert cm.root in find_roots(cm)
            assert v.falsified == reduction_target(system, f)
        assert seen > 30

    def test_minimization_roundtrip(self):
        v = verdict("jstar", "<1>p -> <0>p")
        # two worlds are necessary: the root must satisfy a diamond
        assert len(v.countermodel.worlds) == 2

    def test_world_names(self):
        v = verdict("glpstar", "<0>p:2 -> p:2")
        assert set(v.countermodel.worlds) == {"w0", "w1"}
        assert v.countermodel.root == "w0"


class TestStats:
    def test_rounds_and_counts_populated(self):
        v = verdict("glpstar", "<0><1>p -> <0>p")
        assert v.stats is not None
        assert v.stats.candidates > 0
        assert v.stats.delta_size > 0

    def test_candidate_cap_raises(self):
        # a theorem: past the cap, no small model refutes it
        with pytest.raises(ResourceLimitError):
            verdict("glpstar", "<0>p & <1>q & <2>(p & q) -> <2>p", candidate_cap=4)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_nonpositive_cap_is_value_error(self, cap):
        # no candidate table has fewer than one row
        with pytest.raises(ValueError, match="candidate cap"):
            verdict("jstar", "p", candidate_cap=cap)
        with pytest.raises(ValueError, match="candidate cap"):
            CanonicalEngine(adequate_closure({TOP}), cap)


WIDE = " & ".join(f"<{k % 4}>v{k}" for k in range(16))  # 80 atoms
VARIABLES_64 = " | ".join(f"p{i}:0" for i in range(64))
DEEP_LEVELS = " & ".join(f"<{n}>T" for n in range(1000))  # 1000 atoms


def engine_limit(system, text, cap):
    """The limit the engine alone hits on the call's reduction target."""
    target = reduction_target(SystemId.parse(system), parse_formula(text))
    with pytest.raises(ResourceLimitError) as err:
        CanonicalEngine(compile_formula(target).nodes, cap)
    return err.value


class TestPastTheCap:
    @pytest.mark.parametrize("system, text, cap, table_decides", [
        ("glpstar", "<0>p & <1>q", 2, True),
        ("glpstar", "<0>p & <1>q & <2>(p & q)", 4, True),
        ("jstar", WIDE, DEFAULT_CANDIDATE_CAP, False),
        ("jstar", VARIABLES_64, DEFAULT_CANDIDATE_CAP, False),
        ("glpstar", "<0><3>(q:0 & F) & <1><2><1>F", 767, True),
    ], ids=["two-levels", "three-levels", "80-atoms", "64-variables", "33-atoms"])
    def test_small_countermodel_decides(self, system, text, cap, table_decides):
        limit = engine_limit(system, text, cap)
        v = verdict(system, text, candidate_cap=cap)
        assert not v.theorem
        assert v.falsified == reduction_target(SystemId.parse(system), parse_formula(text))
        assert len(v.countermodel.worlds) <= 2
        _check_countermodel(v.countermodel, v.falsified)
        assert (v.stats.atom_count, v.stats.delta_size, v.stats.candidates, v.stats.rounds, v.stats.path) \
            == (limit.atoms, limit.atoms, 0, [], "bounded")
        assert v.stats.target_size == len(compile_formula(v.falsified).nodes)
        if table_decides:
            assert not verdict(system, text).theorem

    @pytest.mark.parametrize("system, text, cap", [
        ("glpstar", "<0>p & <1>q -> <0>p", 2),
        ("glpstar", "~<0><0>T", 1),  # its smallest countermodel has 3 worlds
        ("jstar", f"{WIDE} -> {WIDE}", DEFAULT_CANDIDATE_CAP),
    ], ids=["theorem", "three-worlds", "wide-theorem"])
    def test_no_small_countermodel_raises_the_engine_limit(self, system, text, cap):
        limit = engine_limit(system, text, cap)
        with pytest.raises(ResourceLimitError) as err:
            verdict(system, text, candidate_cap=cap)
        assert (str(err.value), err.value.atoms, err.value.candidates, err.value.cap) \
            == (str(limit), limit.atoms, limit.candidates, limit.cap)

    def test_wide_theorem_ends_in_its_limit_quickly(self):
        # 2^64 one-world valuations: the model budget stops the search
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match="64 atoms exceed the 63-bit index budget"):
            verdict("jstar", f"{VARIABLES_64} | ~({VARIABLES_64.replace('|', '&')})")
        assert time.process_time() - start < 0.5

    def test_many_levels_decide_in_one_world(self):
        # the search walks one frame level at a time, so it reaches its
        # first frame without recursing
        v = verdict("jstar", DEEP_LEVELS)
        assert not v.theorem and v.stats.path == "bounded"
        assert len(v.countermodel.worlds) == 1
        _check_countermodel(v.countermodel, v.falsified)

    def test_polarity_theorem_past_the_cap(self):
        # q:2 occurs only negatively and p:1 only positively; the reduced
        # target folds to T, whose table has one row
        v = verdict("glpstar", "~(<1>(q:2 & p:1) & ~(T | p:1)) | <3><2>F", candidate_cap=2)
        assert v.theorem
        assert (v.stats.path, v.stats.target_size, v.stats.atom_count, v.stats.candidates) \
            == ("polarity", 1, 0, 1)

    def test_polarity_countermodel_names_every_variable(self):
        # p:0 and q:1 both occur only negatively: each holds at every world
        text = "~<0><3>(p:0 & p:0) | <1>~<1>q:1"
        with pytest.raises(ResourceLimitError):
            CanonicalEngine(compile_formula(reduction_target(SystemId.GLPSTAR, parse_formula(text))).nodes)
        v = verdict("glpstar", text)
        assert not v.theorem and v.stats.path == "polarity" and v.stats.candidates > 0
        assert v.falsified == reduction_target(SystemId.GLPSTAR, parse_formula(text))
        assert v.stats.target_size < len(compile_formula(v.falsified).nodes)
        assert len(v.countermodel.worlds) == 4
        assert v.countermodel.valuation == {name: frozenset(v.countermodel.worlds) for name in ("p", "q")}
        assert v.countermodel.sorts == {"p": 0, "q": 1}
        _check_countermodel(v.countermodel, v.falsified)

    @pytest.mark.parametrize("system, text, cap, engines, message", [
        # nothing to substitute or fold: the target's own table is not built twice
        ("jstar", DEEP_LEVELS + " -> <0>T", DEFAULT_CANDIDATE_CAP, 1, "1000 atoms exceed the 63-bit index budget"),
        # q becomes T, and the reduced target passes the cap too: the first limit is raised
        ("glpstar", "<0>p & <1>q -> <0>p", 2, 2, "candidate count exceeds the cap 2"),
    ], ids=["many-levels", "reduced-also-capped"])
    def test_past_the_cap_theorem_builds_at_most_two_engines(self, monkeypatch, system, text, cap, engines,
                                                             message):
        build = CanonicalEngine.__init__
        built = []

        def counted(self, *args):
            built.append(self)
            build(self, *args)

        monkeypatch.setattr(CanonicalEngine, "__init__", counted)
        with pytest.raises(ResourceLimitError) as err:
            verdict(system, text, candidate_cap=cap)
        assert (len(built), str(err.value)) == (engines, message)

    def test_cross_validation_does_not_count_the_oracle_against_itself(self):
        report = cross_validate(parse_formula(WIDE), "jstar", SearchBudget(max_worlds=2))
        assert report.verdict.stats.path == "bounded" and report.search.found
        assert report.status == "inconclusive"


class TestPolarityLaw:
    """A variable name that occurs in one polarity only can become F
    (positive) or T (negative) without changing the verdict, and the
    reduced call's countermodel, with each replaced name holding at no world
    (F) or at every world (T), refutes the original reduction target. So
    does the countermodel of the folded reduced target, decided as J*: the
    route ``decide`` takes past its candidate cap."""

    @staticmethod
    def extended(model, constants, target):
        valuation, sorts = dict(model.valuation), dict(model.sorts)
        for v in variables_of(target):
            if v.name not in valuation:
                valuation[v.name] = model.worlds if constants.get(v.name) == TOP else ()
                sorts[v.name] = v.sort
        return KripkeModel(model.worlds, model.relations, valuation, sorts, model.root)

    @pytest.mark.parametrize("system", list(SystemId))
    def test_polarity_keeps_the_verdict(self, system):
        # implications between two formulas over one pool: about a third are theorems
        rng = random.Random(60)
        reduced_calls = non_theorems = 0
        for _ in range(120):
            pool = [Var(name, rng.choice((0, 1, 2, OMEGA))) for name in "pqr"]
            f = Implies(*(gen_formula(rng, 3, pool, [0, 1, 2]) for _ in range(2)))
            reduced, constants = reference_polarity(f)
            assert polarity_constants(f) == constants
            if not constants:
                continue
            reduced_calls += 1
            target = reduction_target(system, f)
            folded = fold_constants(reduction_target(system, reduced))
            assert folded == reference_fold(reduction_target(system, reduced))
            expected = decide(system, f)
            for got in (decide(system, reduced), decide(SystemId.JSTAR, folded)):
                assert got.theorem == expected.theorem
                if not got.theorem:
                    _check_countermodel(self.extended(got.countermodel, constants, target), target)
            non_theorems += not expected.theorem
        assert reduced_calls >= 90 and 20 <= non_theorems <= reduced_calls - 20


class TestReductionRoutes:
    def test_nplus_route_agrees(self):
        rng = random.Random(52)
        for _ in range(60):
            f = gen_sorted_formula(rng)
            assert (
                decide(SystemId.GLPSTAR, f).theorem
                == decide(SystemId.GLPSTAR, f, via="nplus").theorem
            )

    def test_reduction_agreement_chain(self):
        rng = random.Random(53)
        for _ in range(40):
            f = gen_sorted_formula(rng)
            direct = decide(SystemId.GLPSTAR, f).theorem
            via_m = decide(SystemId.JSTAR, reduction_target(SystemId.GLPSTAR, f)).theorem
            via_n = decide(SystemId.JSTAR, desugar(Implies(n_plus(f, "default"), f))).theorem
            theta = sorted(occurring_modalities(f))
            via_r = decide(SystemId.GLP, desugar(Implies(r_theta_plus(f, theta), f))).theorem
            assert direct == via_m == via_n == via_r

    def test_premises_are_theorems(self):
        from glpstar.reductions import m_plus

        rng = random.Random(54)
        for _ in range(25):
            f = gen_sorted_formula(rng)
            assert decide(SystemId.GLPSTAR, m_plus(f)).theorem
            assert decide(SystemId.GLPSTAR, n_plus(f, "default")).theorem
            theta = sorted(occurring_modalities(f))
            assert decide(SystemId.GLPSTAR, r_theta_plus(f, theta)).theorem

    def test_glpsstar_extends_glpstar(self):
        rng = random.Random(55)
        for _ in range(40):
            f = gen_sorted_formula(rng)
            if decide(SystemId.GLPSTAR, f).theorem:
                assert decide(SystemId.GLPSSTAR, f).theorem

    def test_one_engine_and_no_adequacy_recheck(self, monkeypatch):
        # the engine's atoms are those of the adequate closure by
        # construction, so no module of the package holds an adequacy check;
        # the truth lemma holds over the target's closure on the engine that
        # gave the verdict, run on to the fixpoint
        modules = [importlib.import_module(f"glpstar.{m.name}") for m in pkgutil.iter_modules(glpstar.__path__)]
        assert [m.__name__ for m in [glpstar, *modules] if hasattr(m, "is_adequate")] == []
        hintikka = sys.modules["glpstar.hintikka"]
        build = hintikka.CanonicalEngine.__init__
        engines = []

        def engine(self, *args):
            engines.append(self)
            build(self, *args)

        rng = random.Random(56)
        cases = [(system, gen_sorted_formula(rng)) for system in SystemId for _ in range(10)]
        cases.append((SystemId.JSTAR, parse_formula("<0>p -> <0>p")))
        plain = [decide(system, f) for system, f in cases]
        monkeypatch.setattr(hintikka.CanonicalEngine, "__init__", engine)
        for (system, f), expected in zip(cases, plain):
            got = decide(system, f)
            assert (got.theorem, got.stats) == (expected.theorem, expected.stats)
            assert got.countermodel == expected.countermodel
            delta = adequate_closure({reduction_target(system, f)})
            assert_truth_lemma(*canonical_model(engines[-1], delta), delta)
        assert len(engines) == len(cases)
        assert any(not v.theorem for v in plain) and any(v.theorem for v in plain)
        assert plain[-1].theorem

    def test_countermodel_masks_computed_once(self, monkeypatch):
        # minimization and the model read the same masks of the witness closure
        decide_module = sys.modules["glpstar.decide"]
        masks, materialize = CanonicalEngine.masks, decide_module.model_from_masks
        calls = []

        def counted_masks(self, rows):
            calls.append("masks")
            return masks(self, rows)

        def counted_model(*args):
            calls.append("model")
            return materialize(*args)

        monkeypatch.setattr(CanonicalEngine, "masks", counted_masks)
        monkeypatch.setattr(decide_module, "model_from_masks", counted_model)
        verdict = decide(SystemId.JSTAR, parse_formula("<1>p -> <0>p"))
        assert not verdict.theorem and len(verdict.countermodel.worlds) == 2
        assert calls == ["masks", "model"]


class TestTargets:
    def test_jstar_target_is_identity(self):
        f = parse_formula("<0>p -> p")
        assert reduction_target(SystemId.JSTAR, f) == desugar(f)

    def test_glp_target_omega_sorts(self):
        f = parse_formula("<0>p:2")
        target = reduction_target(SystemId.GLP, f)
        omega_only = reduction_target(SystemId.GLPSTAR, parse_formula("<0>p"))
        assert target == omega_only

    def test_glpsstar_target_uses_reflection_premise(self):
        f = parse_formula("<0>T")
        target = reduction_target(SystemId.GLPSSTAR, f)
        inner = desugar(Implies(parse_formula("T -> <0>T"), parse_formula("<0>T")))
        assert target == reduction_target(SystemId.GLPSTAR, inner)


def _worm(indices):
    """The worm <a1><a2>...<ak>T."""
    f = TOP
    for a in reversed(indices):
        f = Dia(a, f)
    return f


class TestWorms:
    """Worms <a1>...<ak>T have a ground truth in GLP: A <0 B iff B -> <0>A
    is a theorem is a strict order, linear up to equivalence (Beklemishev,
    "Provability algebras and proof-theoretic ordinals, I", APAL 128, 2004).
    A failing law is a defect of decide or of a reduction."""

    WORMS = [_worm(w) for k in range(3) for w in itertools.product(range(3), repeat=k)]

    def test_order_laws_on_short_worms(self):
        worms = self.WORMS
        assert len(worms) == 13
        less = {(a, b): decide(SystemId.GLP, Implies(b, Dia(0, a))).theorem
                for a in worms for b in worms}
        incomparable = []
        for i, a in enumerate(worms):
            assert not less[a, a]
            for b in worms[i + 1:]:
                assert not (less[a, b] and less[b, a])
                if not less[a, b] and not less[b, a]:
                    incomparable.append((a, b))
            for b in worms:
                for c in worms:
                    assert not (less[a, b] and less[b, c]) or less[a, c]
        assert len(incomparable) == 4
        for a, b in incomparable:
            assert decide(SystemId.GLP, And(Implies(a, b), Implies(b, a))).theorem

    @pytest.mark.parametrize("system", list(SystemId))
    def test_deep_countermodels(self, system):
        # ~<0>^n T needs a <0>-chain of n+1 worlds, past the pools' depth
        for n in range(9):
            v = decide(system, Neg(_worm([0] * n)))
            assert not v.theorem
            assert len(v.countermodel.worlds) == n + 1
            assert check_jstar_frame(v.countermodel) == []


class TestEngineInput:
    """``decide`` builds its engine from the compiled target's nodes. The
    engine reads the atoms off them, so it must hold the same atoms and the
    same rows as the engine built from the target's adequate closure. The
    closure is a set, so its engine lays them out in another order: the two
    are compared as sets, each row as the set of atoms true in it."""

    @staticmethod
    def rows(engine, atoms):
        """Each row's set of true atoms, as a mask over the given atom list."""
        out = np.zeros(engine.count, dtype=np.uint64)
        for k, atom in enumerate(atoms):
            out |= (engine.words >> np.uint64(engine.bit[atom]) & np.uint64(1)) << np.uint64(k)
        return set(out.tolist())

    @classmethod
    def assert_same_engine(cls, target):
        from_nodes = CanonicalEngine(compile_formula(target).nodes)
        from_closure = CanonicalEngine(adequate_closure({target}))
        assert from_nodes.levels == from_closure.levels
        for name in ("atoms", "bodies"):
            assert len(set(getattr(from_nodes, name))) == len(getattr(from_nodes, name))
            assert set(getattr(from_nodes, name)) == set(getattr(from_closure, name)), name
        rows = cls.rows(from_nodes, from_nodes.atoms)
        assert from_nodes.count == from_closure.count == len(rows)
        assert rows == cls.rows(from_closure, from_nodes.atoms)

    def test_seeded_targets_of_every_system(self):
        rng = random.Random(57)
        for k in range(200):
            f = gen_sorted_formula(rng, depth=rng.choice((2, 3, 4)), max_vars=3, mods=(0, 1, 2, 3))
            self.assert_same_engine(reduction_target(list(SystemId)[k % 4], f))

    def test_worm_targets(self):
        worms = TestWorms.WORMS
        cases = [(SystemId.GLP, g) for a in worms for b in worms
                 for g in (Implies(b, Dia(0, a)), And(Implies(a, b), Implies(b, a)))]
        cases += [(system, Neg(_worm([0] * n))) for system in SystemId for n in range(9)]
        for system, f in cases:
            self.assert_same_engine(reduction_target(system, f))

    def test_layout_is_a_function_of_the_target(self):
        # the same atoms at the same bits in two processes whose string
        # hashes, and so whose node sets' iteration orders, differ
        script = (
            "import random\n"
            "from glpstar.decide import SystemId, reduction_target\n"
            "from glpstar.hintikka import CanonicalEngine\n"
            "from glpstar.kripke import compile_formula\n"
            "from glpstar.parsing import render_formula\n"
            "from conftest import gen_sorted_formula\n"
            "rng = random.Random(58)\n"
            "for k in range(40):\n"
            "    f = gen_sorted_formula(rng, depth=3, max_vars=3, mods=(0, 1, 2))\n"
            "    engine = CanonicalEngine(compile_formula(reduction_target(list(SystemId)[k % 4], f)).nodes)\n"
            "    print([(render_formula(a), engine.bit[a]) for a in engine.atoms])\n"
        )
        tests = os.path.dirname(__file__)
        path = os.pathsep.join((os.path.dirname(os.path.dirname(glpstar.__file__)), tests))
        outputs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                                  env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)).stdout
                   for seed in ("0", "1")]
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 40


class TestCompileCache:
    """``decide`` compiles its target once, and a non-theorem's countermodel
    check finds that program in the cache."""

    def test_two_calls(self):
        compile_formula.cache_clear()
        assert decide("jstar", parse_formula("<1>p -> <1>p"))
        assert not decide("jstar", parse_formula("<1>p -> <0>p"))
        info = compile_formula.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    def test_one_miss_per_call_and_one_hit_per_non_theorem(self):
        rng = random.Random(59)
        verdicts = set()
        for k in range(80):
            f = gen_sorted_formula(rng, depth=rng.choice((2, 3)), max_vars=2)
            compile_formula.cache_clear()
            theorem = decide(list(SystemId)[k % 4], f).theorem
            info = compile_formula.cache_info()
            assert (info.misses, info.hits) == (1, 0 if theorem else 1)
            verdicts.add(theorem)
        assert verdicts == {True, False}
