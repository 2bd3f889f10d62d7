"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The random suites are seeded, so reruns are reproducible.
"""

import random
import time

from glpstar.decide import SystemId, cross_validate, decide, reduction_target
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
    sort_of,
)
from glpstar.hintikka import CanonicalEngine
from glpstar.kripke import (
    Evaluator,
    check_jstar_frame,
    check_strong_persistence,
    model_check,
)
from glpstar.oracle import SearchBudget
from glpstar.parsing import parse_formula, render_formula
from glpstar.proofs import ProofLine, ProofObject, check_proof, corpus_proofs, parse_proof
from glpstar.reductions import n_plus, r_theta_plus, occurring_modalities
from conftest import gen_formula, gen_persistent_model, gen_sorted_formula, perturb_model
from reference import assert_truth_lemma, canonical_model
from test_proofs import mutate_line


def report(number: int, description: str):
    print(f"\nACCEPTANCE {number}: PASS - {description}")


MODEL_POOL_SORTS = {"p": 0, "q": 1, "r": OMEGA}
POOL = [Var(n, s) for n, s in MODEL_POOL_SORTS.items()]


def _scheme_instances(rng: random.Random, count: int = 100):
    """Random instances of the five frame-borne axiom schemes."""
    def body(depth=2):
        return desugar(gen_formula(rng, depth, POOL, [0, 1, 2]))

    instances = {"dist": [], "boxtop": [], "loeb": [], "sigma": [], "transit": []}
    while len(instances["dist"]) < count:
        n = rng.randrange(3)
        a, b = body(), body()
        instances["dist"].append(desugar(Implies(Dia(n, Or(a, b)), Or(Dia(n, a), Dia(n, b)))))
    while len(instances["boxtop"]) < count:
        n = rng.randrange(3)
        instances["boxtop"].append(Neg(Dia(n, Neg(TOP))))
    while len(instances["loeb"]) < count:
        n = rng.randrange(3)
        f = body()
        instances["loeb"].append(desugar(Implies(Dia(n, f), Dia(n, And(f, Neg(Dia(n, f)))))))
    while len(instances["sigma"]) < count:
        f = body()
        s = sort_of(f)
        if s is OMEGA or s > 2:
            continue
        n = rng.randrange(s, 3)
        instances["sigma"].append(desugar(Implies(Dia(n, f), f)))
    while len(instances["transit"]) < count:
        n = rng.randrange(1, 3)
        m = rng.randrange(0, n)
        f = body()
        instances["transit"].append(desugar(Implies(Dia(m, Dia(n, f)), Dia(m, f))))
    return instances


def test_criterion_1_axiom_validity_suite():
    rng = random.Random(101)
    start = time.monotonic()
    models = [
        gen_persistent_model(rng, max_worlds=5, levels=(0, 1, 2), var_sorts=MODEL_POOL_SORTS)
        for _ in range(200)
    ]
    instances = _scheme_instances(rng, 100)
    failures = 0
    for model in models:
        ev = Evaluator(model)
        for scheme, batch in instances.items():
            for instance in batch:
                if ev.extension(instance) != ev.full:
                    failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    assert elapsed < 60.0
    report(1, f"5 schemes x 100 instances valid in 200 models, {elapsed:.1f}s")


def _regression_corpus():
    """(system, formula text, expected theorem) triples."""
    mono_instances = [
        (0, 1, "p"), (1, 2, "p"), (0, 2, "~p"), (2, 3, "p | q"), (0, 1, "p & q"),
        (1, 3, "~(p & q)"), (0, 2, "p | q"), (1, 2, "p & q"), (0, 3, "~q"), (2, 4, "p"),
    ]
    rows = [("glpstar", "<1>p:1 -> p:1", True)]
    for m, n, phi in mono_instances:
        rows.append(("glpstar", f"<{n}>({phi}) -> <{m}>({phi})", True))
        rows.append(("jstar", f"<{n}>({phi}) -> <{m}>({phi})", False))
    rows += [
        ("glpstar", "<0><1>p -> <0>p", True),
        ("jstar", "<0><1>p -> <0>p", True),
        ("glpstar", "<0>p -> [1]<0>p", True),
        ("glpstar", "<0>(q | p) -> [1]<0>(q | p)", True),
        ("glpstar", "<0>~p -> [1]<0>~p", True),
        ("glpstar", "<0>T", False),
        ("glpsstar", "<0>T", True),
        ("glpstar", "<0>p:2 -> p:2", False),
    ]
    return rows


def test_criterion_2_regression_corpus():
    nontheorems = 0
    for system, text, expected in _regression_corpus():
        formula = parse_formula(text)
        v = decide(SystemId.parse(system), formula)
        assert v.theorem == expected, f"{system} {text}: expected {expected}"
        if not v.theorem:
            nontheorems += 1
            cm = v.countermodel
            assert check_jstar_frame(cm) == []
            assert check_strong_persistence(cm) == []
            assert not model_check(cm, cm.root, v.falsified)
    report(2, f"{len(_regression_corpus())} exact verdicts, {nontheorems} validated countermodels")


def test_criterion_3_reduction_agreement():
    rng = random.Random(103)
    start = time.monotonic()
    literal_agrees = 0
    total = 500
    for _ in range(total):
        f = gen_sorted_formula(rng, depth=3, max_vars=2, mods=(0, 1, 2), sorts=(0, 1, 2, OMEGA))
        direct = decide(SystemId.GLPSTAR, f).theorem
        via_m = decide(SystemId.JSTAR, reduction_target(SystemId.GLPSTAR, f)).theorem
        via_n = decide(SystemId.JSTAR, desugar(Implies(n_plus(f, "default"), f))).theorem
        theta = sorted(occurring_modalities(f))
        via_r = decide(SystemId.GLP, desugar(Implies(r_theta_plus(f, theta), f))).theorem
        assert direct == via_m == via_n == via_r, render_formula(f)
        via_n_literal = decide(
            SystemId.JSTAR, desugar(Implies(n_plus(f, "literal"), f))
        ).theorem
        literal_agrees += via_n_literal == direct
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    rate = literal_agrees / total
    report(
        3,
        f"{total} formulas, 4-way agreement 100%, {elapsed:.1f}s; "
        f"informational: literal-boxes variant agrees {rate:.1%}",
    )


def test_criterion_4_oracle_cross_validation():
    rng = random.Random(104)
    budget = SearchBudget(max_worlds=3)
    matched = 0
    for i in range(1000):
        f = gen_sorted_formula(rng, depth=3, max_vars=2, mods=(0, 1, 2))
        system = "jstar" if i % 2 else "glpstar"
        rep = cross_validate(f, system, budget)
        assert rep.status != "disagreement", render_formula(f)
        v = rep.verdict
        if (
            not v.theorem
            and len(v.countermodel.worlds) <= 3
            and set(v.countermodel.relations) <= set(occurring_modalities(rep.target))
            and not rep.search.truncated
        ):
            assert rep.search.found, render_formula(f)
            matched += 1
    assert matched > 150
    report(4, f"1000 formulas, zero disagreements, {matched} countermodels matched by the oracle")


def test_criterion_5_truth_lemma():
    rng = random.Random(105)
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 20000
        f = gen_sorted_formula(rng, depth=rng.choice((2, 3)), max_vars=2, mods=(0, 1))
        delta = adequate_closure({f})
        if len(delta) > 12:
            continue
        model, memberships = canonical_model(CanonicalEngine(delta), delta)
        assert_truth_lemma(model, memberships, delta)
        for w, membership in memberships.items():
            for member in delta:
                assert model_check(model, w, member) == (member in membership)
        done += 1
    report(5, "200 closures of size <= 12, membership matches satisfaction everywhere")


def test_criterion_6_proof_checker_anchor():
    corpus = corpus_proofs()
    assert len(corpus) >= 10
    rng = random.Random(106)
    mutations = 0
    for name, text in corpus:
        proof = parse_proof(text)
        result = check_proof(proof)
        assert result.accepted, f"{name}: {result.reason}"
        assert decide(proof.system, proof.goal).theorem, name
        for k, line in enumerate(proof.lines):
            mutated_formula = mutate_line(rng, line.formula)
            assert mutated_formula != line.formula
            lines = list(proof.lines)
            lines[k] = ProofLine(line.index, mutated_formula, line.justification)
            mutated = ProofObject(proof.system, tuple(lines), proof.goal)
            assert not check_proof(mutated).accepted, f"{name} line {line.index}"
            mutations += 1
    report(6, f"{len(corpus)} proofs accepted and decided, {mutations} mutations rejected")


def test_criterion_7_performance_target():
    small = checked = 0
    slowest = 0.0
    for system, text, _ in _regression_corpus():
        formula = parse_formula(text)
        start = time.monotonic()
        v = decide(SystemId.parse(system), formula)
        elapsed = time.monotonic() - start
        assert v.stats is not None and v.stats.candidates > 0
        checked += 1
        if len(adequate_closure({reduction_target(SystemId.parse(system), formula)})) <= 14:
            small += 1
            slowest = max(slowest, elapsed)
            assert elapsed < 10.0, f"{system} {text}: {elapsed:.2f}s"
    assert small >= 5
    report(
        7,
        f"{checked} corpus decides with stats; {small} had closures <= 14, "
        f"slowest {slowest * 1000:.0f}ms (< 10s)",
    )


def _deliberate_perturbation(rng: random.Random, model):
    """Force a clause-(i) pattern on an edge when possible, else flip randomly.

    A quarter of the perturbations stay random single flips so the
    both-directions reading of the iff is exercised too.
    """
    from glpstar.kripke import KripkeModel

    candidates = [
        (name, pair)
        for n, rel in model.relations.items()
        for pair in rel
        for name, s in model.sorts.items()
        if s is not OMEGA and s <= n
    ]
    if not candidates or rng.random() < 0.25:
        return perturb_model(rng, model)
    name, (x, y) = rng.choice(candidates)
    members = set(model.valuation[name]) | {y}
    members.discard(x)
    valuation = dict(model.valuation)
    valuation[name] = frozenset(members)
    return KripkeModel(model.worlds, model.relations, valuation, model.sorts, root=model.root)


def test_criterion_8_persistence_property():
    rng = random.Random(108)
    models = [gen_persistent_model(rng, var_sorts=MODEL_POOL_SORTS) for _ in range(200)]
    formulas = [desugar(gen_formula(rng, 3, POOL, [0, 1, 2])) for _ in range(200)]
    for model in models:
        ev = Evaluator(model)
        for f in formulas:
            s = sort_of(f)
            if s is OMEGA:
                continue
            ext = ev.extension(f)
            for n, rel in model.relations.items():
                for x, y in rel:
                    xi, yi = ev.index[x], ev.index[y]
                    if s <= n and ext >> yi & 1:
                        assert ext >> xi & 1
                    if s < n and not ext >> yi & 1:
                        assert not ext >> xi & 1

    detected = agreed = 0
    for _ in range(200):
        base = gen_persistent_model(rng, var_sorts=MODEL_POOL_SORTS)
        bad = _deliberate_perturbation(rng, base)
        # ground truth by a direct scan of the two variable-level clauses
        violated = False
        for n, rel in bad.relations.items():
            for x, y in rel:
                for name, members in bad.valuation.items():
                    s = bad.sorts[name]
                    if s is OMEGA:
                        continue
                    if s <= n and y in members and x not in members:
                        violated = True
                    if s < n and y not in members and x in members:
                        violated = True
        nonempty = bool(check_strong_persistence(bad))
        assert nonempty == violated
        agreed += 1
        detected += nonempty
    assert detected > 50
    report(8, f"clauses hold on 200x200 persistent pairs; perturbation detection agreed 200/200 ({detected} violations)")
