import random

from glpstar.formulas import OMEGA, And, Dia, TOP, Var
from glpstar.parsing import parse_formula, render_formula
from glpstar.reductions import (
    h_formula,
    m_formula,
    m_plus,
    n_formula,
    n_plus,
    occurring_modalities,
    r_theta,
    r_theta_plus,
)
from conftest import gen_sorted_formula

p = Var("p", OMEGA)
q = Var("q", OMEGA)


def rendered(f):
    return render_formula(f)


class TestMFormula:
    def test_two_levels(self):
        f = And(Dia(2, p), Dia(0, q))
        assert rendered(m_formula(f)) == "(~<1>q | <0>q) & (~<2>q | <0>q)"

    def test_no_diamonds(self):
        assert m_formula(Var("p", 0)) == TOP

    def test_single_level(self):
        assert m_formula(Dia(0, p)) == TOP


class TestMPlus:
    def test_boxes_every_level(self):
        f = And(Dia(2, p), Dia(0, q))
        out = rendered(m_plus(f))
        core = rendered(m_formula(f))
        assert out == f"{core} & ~<0>~({core}) & ~<1>~({core}) & ~<2>~({core})"

    def test_no_diamonds(self):
        assert m_plus(Var("p", 0)) == TOP

    def test_single_level_keeps_trivial_conjuncts(self):
        assert rendered(m_plus(Dia(0, p))) == "T & ~<0>~T"


class TestNFormula:
    def test_two_levels(self):
        # the enumeration is (<0>q, <2>p); the pair premises the body of the
        # earlier entry at the later entry's level
        f = And(Dia(2, p), Dia(0, q))
        assert rendered(n_formula(f)) == "~<2>q | <0>q"

    def test_single_diamond(self):
        assert n_formula(Dia(0, p)) == TOP

    def test_stable_tie_order(self):
        f = And(Dia(0, p), Dia(0, q))
        assert rendered(n_formula(f)) == "~<0>p | <0>p"

    def test_only_occurring_levels(self):
        rng = random.Random(31)
        for _ in range(60):
            f = gen_sorted_formula(rng)
            levels = occurring_modalities(f)
            assert occurring_modalities(n_formula(f)) <= levels
            assert occurring_modalities(n_plus(f, "default")) <= levels


class TestNPlus:
    def test_default(self):
        f = And(Dia(2, p), Dia(0, q))
        core = rendered(n_formula(f))
        assert rendered(n_plus(f, "default")) == f"({core}) & ~<0>~({core}) & ~<2>~({core})"

    def test_literal_boxes_the_input(self):
        f = And(Dia(2, p), Dia(0, q))
        core = rendered(n_formula(f))
        body = rendered(f)
        assert rendered(n_plus(f, "literal")) == f"({core}) & ~<0>~({body}) & ~<2>~({body})"

    def test_no_diamonds(self):
        assert n_plus(Var("p", 0), "default") == TOP
        assert n_plus(Var("p", 0), "literal") == TOP


class TestHFormula:
    def test_single(self):
        assert rendered(h_formula(Dia(0, p))) == "~p | <0>p"

    def test_no_diamonds(self):
        assert h_formula(Var("p", 0)) == TOP

    def test_nested(self):
        f = Dia(1, Dia(0, p))
        assert rendered(h_formula(f)) == "(~<0>p | <1><0>p) & (~p | <0>p)"


class TestRTheta:
    def test_sort_one(self):
        f = Dia(0, Var("v", 1))
        assert rendered(r_theta(f, [0, 2])) == "(~<2>v:1 | v:1) & (~<2>~v:1 | ~v:1)"

    def test_omega_variable_contributes_nothing(self):
        assert r_theta(Dia(0, p), [0, 1, 2]) == TOP

    def test_sort_zero(self):
        f = Dia(0, Var("v", 0))
        assert rendered(r_theta(f, [0])) == "~<0>v:0 | v:0"


class TestRThetaPlus:
    def test_boxes_theta(self):
        f = Dia(0, Var("v", 1))
        core = rendered(r_theta(f, [0, 2]))
        assert rendered(r_theta_plus(f, [0, 2])) == f"{core} & ~<0>~({core}) & ~<2>~({core})"

    def test_empty_theta(self):
        assert r_theta_plus(Dia(0, p), []) == TOP

    def test_simple(self):
        f = Dia(0, Var("v", 0))
        assert rendered(r_theta_plus(f, [0])) == "(~<0>v:0 | v:0) & ~<0>~(~<0>v:0 | v:0)"


class TestDeterminism:
    def test_byte_identical_across_runs(self):
        rng = random.Random(32)
        for _ in range(40):
            f = gen_sorted_formula(rng)
            theta = sorted(occurring_modalities(f))
            for build in (
                m_formula, m_plus, n_formula, h_formula,
                lambda x: n_plus(x, "default"),
                lambda x: n_plus(x, "literal"),
                lambda x: r_theta(x, theta),
                lambda x: r_theta_plus(x, theta),
            ):
                once = render_formula(build(f))
                again = render_formula(build(parse_formula(render_formula(f))))
                assert once == again

    def test_m_output_modalities_bounded_by_max(self):
        rng = random.Random(33)
        for _ in range(60):
            f = gen_sorted_formula(rng)
            levels = occurring_modalities(f)
            if not levels:
                continue
            top = max(levels)
            assert all(m <= top for m in occurring_modalities(m_plus(f)))
