"""The syntactic reductions between the systems, checked empirically.

Each reduction turns provability in one system into provability of an
implication in a weaker one. The premises themselves are theorems of the
strong system, and the routes all agree on the verdict.

Run:  python demos/04_reductions.py
"""

import random

from glpstar import SystemId, decide, parse_formula, render_formula
from glpstar.decide import reduction_target
from glpstar.formulas import Implies
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

f = parse_formula("<2>p & <0>q")
print("input:", render_formula(f))
print("  M   :", render_formula(m_formula(f)))
print("  M+  :", render_formula(m_plus(f)))
print("  N   :", render_formula(n_formula(f)))
print("  N+  :", render_formula(n_plus(f, "default")))
print("  H   :", render_formula(h_formula(f)))

g = parse_formula("<0>v:1")
print("\ninput:", render_formula(g))
print("  R{0,2} :", render_formula(r_theta(g, [0, 2])))
print("  R+{0,2}:", render_formula(r_theta_plus(g, [0, 2])))

# The premises are theorems of the strong sorted system.
for premise in (m_plus(f), n_plus(f, "default"), r_theta_plus(g, [0, 2])):
    assert decide(SystemId.GLPSTAR, premise).theorem
print("\nall three premises are theorems of the strong system")

# And the four decision routes agree on random formulas.
from glpstar.formulas import OMEGA, And, Dia, Neg, Or, TOP, Var  # noqa: E402


def gen(rng, depth=3, pool=None):
    if pool is None:
        pool = [Var("p", rng.choice([0, 1, OMEGA])), Var("q"), TOP]
    if depth <= 1:
        return rng.choice(pool)
    pick = rng.random()
    if pick < 0.2:
        return gen(rng, 1, pool)
    if pick < 0.4:
        return Neg(gen(rng, depth - 1, pool))
    if pick < 0.7:
        return Dia(rng.randrange(3), gen(rng, depth - 1, pool))
    left, right = gen(rng, depth - 1, pool), gen(rng, depth - 1, pool)
    return rng.choice([And(left, right), Or(left, right)])


print("\nchecking route agreement on 40 random formulas...")
rng = random.Random(0)
for _ in range(40):
    phi = gen(rng)
    a = decide(SystemId.GLPSTAR, phi).theorem
    b = decide(SystemId.JSTAR, reduction_target(SystemId.GLPSTAR, phi)).theorem
    c = decide(SystemId.JSTAR, Implies(n_plus(phi, "default"), phi)).theorem
    theta = sorted(occurring_modalities(phi))
    d = decide(SystemId.GLP, Implies(r_theta_plus(phi, theta), phi), candidate_cap=1 << 22).theorem
    assert a == b == c == d, render_formula(phi)
print("all routes agree")
