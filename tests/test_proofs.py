import random

import pytest

from glpstar.decide import SystemId, decide
from glpstar.formulas import And, Dia, Neg, Or, TOP, Var, desugar, subformulas
from glpstar.parsing import parse_formula, render_formula
from glpstar.proofs import (
    ProofError,
    ProofLine,
    ProofObject,
    SchemeUnavailableError,
    check_proof,
    corpus_proofs,
    is_tautology,
    match_axiom,
    parse_proof,
)


def f(text):
    return parse_formula(text)


class TestMatchAxiom:
    def test_sigma_instance(self):
        assert match_axiom(f("<1>p:1 -> p:1"), "sigma", SystemId.GLPSTAR)

    def test_sigma_sort_too_high(self):
        assert not match_axiom(f("<1>p:2 -> p:2"), "sigma", SystemId.GLPSTAR)

    def test_transit(self):
        assert match_axiom(f("<0><1>p -> <0>p"), "transit", SystemId.JSTAR)
        assert not match_axiom(f("<1><0>p -> <1>p"), "transit", SystemId.JSTAR)

    def test_sigma_on_negated_diamond(self):
        assert match_axiom(f("<1>~<0>p -> ~<0>p"), "sigma", SystemId.GLPSTAR)

    def test_mono(self):
        assert match_axiom(f("<2>p -> <1>p"), "mono", SystemId.GLPSTAR)
        assert not match_axiom(f("<1>p -> <2>p"), "mono", SystemId.GLPSTAR)

    def test_persist(self):
        assert match_axiom(f("<0>p -> [1]<0>p"), "persist", SystemId.GLP)
        assert not match_axiom(f("<1>p -> [1]<1>p"), "persist", SystemId.GLP)

    def test_dist_and_boxtop(self):
        assert match_axiom(f("<1>(p | q) -> <1>p | <1>q"), "dist", SystemId.JSTAR)
        assert match_axiom(f("[2]T"), "boxtop", SystemId.JSTAR)

    def test_loeb_default_and_literal(self):
        standard = f("<0>p -> <0>(p & ~<0>p)")
        literal = f("<0>p -> <0>(p & <0>~p)")
        assert match_axiom(standard, "loeb", SystemId.GLPSTAR)
        assert not match_axiom(literal, "loeb", SystemId.GLPSTAR)
        assert match_axiom(literal, "loeb", SystemId.GLPSTAR, loeb_literal=True)
        assert not match_axiom(standard, "loeb", SystemId.GLPSTAR, loeb_literal=True)

    def test_refl(self):
        assert match_axiom(f("p:0 -> <2>p:0"), "refl", SystemId.GLPSSTAR)

    def test_unavailable_scheme_raises(self):
        with pytest.raises(SchemeUnavailableError):
            match_axiom(f("<1>p -> <0>p"), "mono", SystemId.JSTAR)
        with pytest.raises(SchemeUnavailableError):
            match_axiom(f("p -> <0>p"), "refl", SystemId.GLPSTAR)

    def test_taut(self):
        assert match_axiom(f("<0>p | ~<0>p"), "taut", SystemId.JSTAR)
        assert not match_axiom(f("<0>p | ~<1>p"), "taut", SystemId.JSTAR)

    def test_taut_atom_limit(self):
        big = TOP
        for i in range(17):
            big = Or(big, Var(f"v{i}"))
        with pytest.raises(ProofError):
            is_tautology(desugar(big))


def proof_from(text):
    return parse_proof(text)


PERSIST_PROOF = """
system glpstar
goal <0>p -> [1]<0>p
1. <1>~<0>p -> ~<0>p ; ax sigma
2. (<1>~<0>p -> ~<0>p) -> (<0>p -> [1]<0>p) ; ax taut
3. <0>p -> [1]<0>p ; mp 1 2
"""


class TestCheckProof:
    def test_persist_derivation_accepted(self):
        assert check_proof(proof_from(PERSIST_PROOF)).accepted

    def test_corrupted_taut_line_rejected(self):
        broken = PERSIST_PROOF.replace(
            "2. (<1>~<0>p -> ~<0>p) -> (<0>p -> [1]<0>p) ; ax taut",
            "2. (<1>~<0>p -> ~<0>p) -> (<0>p -> [1]<1>p) ; ax taut",
        )
        result = check_proof(proof_from(broken))
        assert not result.accepted

    def test_scheme_unavailable_in_system(self):
        text = "system jstar\ngoal <1>p -> <0>p\n1. <1>p -> <0>p ; ax mono\n"
        result = check_proof(proof_from(text))
        assert not result.accepted and result.line == 1
        assert "not available" in result.reason

    def test_goal_mismatch(self):
        text = "system jstar\ngoal <0>p | ~<0>p\n1. T ; ax taut\n"
        result = check_proof(proof_from(text))
        assert not result.accepted and "goal" in result.reason

    def test_mp_wrong_direction(self):
        text = (
            "system jstar\ngoal T\n"
            "1. T -> T | p ; ax taut\n"
            "2. T ; ax taut\n"
            "3. T | p ; mp 3 1\n"
        )
        with pytest.raises(ProofError):
            proof_from(text)  # forward citation

    def test_nec_rejected_in_truth_system(self):
        text = (
            "system glpsstar\ngoal [0]T\n"
            "1. T ; ax taut\n"
            "2. [0]T ; nec 1 0\n"
        )
        result = check_proof(proof_from(text))
        assert not result.accepted and "unavailable" in result.reason

    def test_diamono_rejected_in_truth_system(self):
        text = (
            "system glpsstar\ngoal <0>(p & q) -> <0>p\n"
            "1. p & q -> p ; ax taut\n"
            "2. <0>(p & q) -> <0>p ; mono 1 0\n"
        )
        result = check_proof(proof_from(text))
        assert not result.accepted

    def test_parse_errors(self):
        with pytest.raises(ProofError):
            parse_proof("goal T\n1. T ; ax taut\n")  # missing system
        with pytest.raises(ProofError):
            parse_proof("system jstar\n1. T ; ax taut\n")  # missing goal
        with pytest.raises(ProofError):
            parse_proof("system jstar\ngoal T\n1. T ; zap\n")

    def test_any_ascii_whitespace_ends_a_keyword(self):
        text = "system jstar\ngoal T\n1. T ; ax taut\n"
        for space in ("\t", "\f", "\v", " \t "):
            tabbed = text.replace("system ", "system" + space).replace("goal ", "goal" + space)
            assert parse_proof(tabbed) == parse_proof(text), repr(space)
        # a bare keyword line is that keyword's own error
        with pytest.raises(ProofError, match=r"^line 1: .*system"):
            parse_proof("system\ngoal T\n1. T ; ax taut\n")
        with pytest.raises(ProofError, match=r"^line 2: bad goal formula"):
            parse_proof("system jstar\ngoal\n1. T ; ax taut\n")

    def test_non_ascii_numerals_rejected(self):
        for text, lineno in (
            ("system jstar\ngoal T\n². T ; ax taut\n", 3),
            ("system jstar\ngoal T\n1. T ; ax taut\n2. T ; mp 1 ²\n", 4),
        ):
            with pytest.raises(ProofError, match=rf"^line {lineno}:"):
                parse_proof(text)

    def test_only_ascii_line_breaks_and_spaces(self):
        text = "system jstar\ngoal T\n1. T ; ax taut\n"
        assert parse_proof(text.replace("\n", "\r\n")) == parse_proof(text)
        assert parse_proof(text.replace("\n", "\r")) == parse_proof(text)
        for bad, lineno in (
            (text.replace("\ngoal", "\x85goal"), 1),  # no line break: one bad system line
            (text.replace("\n1.", "\u20281."), 2),  # the goal line runs on
            (text.replace("ax taut", "ax\u3000taut"), 3),
            (text.replace("1. T", "\u30001. T"), 3),
            (text.replace("1. T", "1. \u3000T"), 3),
        ):
            with pytest.raises(ProofError, match=rf"^line {lineno}:"):
                parse_proof(bad)


def mutate_line(rng: random.Random, formula):
    """Swap one proper subformula occurrence for a constant, changing the line."""
    subs = sorted(
        (s for s in subformulas(formula) if s != formula),
        key=render_formula,
    )
    if not subs:
        return Neg(formula) if formula != TOP else And(TOP, TOP)
    victim = rng.choice(subs)
    replacement = TOP if victim != TOP else Neg(TOP)

    def swap(g):
        if g == victim:
            return replacement
        if isinstance(g, Neg):
            return Neg(swap(g.child))
        if isinstance(g, And):
            return And(swap(g.left), swap(g.right))
        if isinstance(g, Or):
            return Or(swap(g.left), swap(g.right))
        if isinstance(g, Dia):
            return Dia(g.index, swap(g.child))
        return g

    return swap(formula)


class TestCorpus:
    def test_bundled_corpus_is_large_enough(self):
        assert len(corpus_proofs()) >= 10

    def test_all_accepted_and_goals_are_theorems(self):
        for name, text in corpus_proofs():
            proof = parse_proof(text)
            result = check_proof(proof)
            assert result.accepted, f"{name}: {result.reason} at line {result.line}"
            assert decide(proof.system, proof.goal).theorem, name

    def test_single_line_mutations_rejected(self):
        rng = random.Random(71)
        for name, text in corpus_proofs():
            proof = parse_proof(text)
            for k, line in enumerate(proof.lines):
                mutated_formula = mutate_line(rng, line.formula)
                assert mutated_formula != line.formula
                lines = list(proof.lines)
                lines[k] = ProofLine(line.index, mutated_formula, line.justification)
                mutated = ProofObject(proof.system, tuple(lines), proof.goal)
                result = check_proof(mutated)
                assert not (result.accepted and desugar(mutated.lines[-1].formula) == desugar(proof.goal)), (
                    f"{name}: mutation of line {line.index} silently accepted"
                )

    def test_necessitation_admissibility_spot_check(self):
        for name, text in corpus_proofs():
            proof = parse_proof(text)
            if proof.system is SystemId.GLPSTAR:
                for n in (0, 1):
                    boxed = Neg(Dia(n, Neg(desugar(proof.goal))))
                    assert decide(SystemId.GLPSTAR, boxed).theorem, name
