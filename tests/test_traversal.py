"""Formula traversals against plain recursive references, and at depth.

Every traversal in the library is one iterative walk, read in entry order
or, sorted by size, children first. The references below are the recursive
definitions the walk replaced, written out here so that the library's
results can be compared with them on random formulas, built with boxes and
implications too. The deep tests build formulas 10^4 levels deep, far past
the interpreter's recursion limit.
"""

import copy
import itertools
import pickle
import random
import sys

import pytest

from glpstar.decide import SystemId, decide
from glpstar.formulas import (
    BOT,
    OMEGA,
    TOP,
    And,
    Bot,
    Box,
    Dia,
    Implies,
    Neg,
    Or,
    Top,
    Var,
    children_first,
    desugar,
    diamond_subformulas,
    modified_negation,
    subformulas,
    to_omega_sorted,
    variables_of,
    walk,
)
from glpstar.hintikka import CanonicalEngine
from glpstar.kripke import (
    Evaluator,
    KripkeModel,
    check_jstar_frame,
    check_strong_persistence,
    compile_formula,
    model_check,
)
from glpstar.parsing import parse_formula, render_formula
from glpstar.proofs import ProofError, is_tautology
from conftest import gen_sorted_formula
from reference import model_over

DEEP = 10_000


# ----- recursive references -----

def ref_to_omega_sorted(f):
    if isinstance(f, Var):
        return Var(f.name, OMEGA)
    if isinstance(f, (Top, Bot)):
        return f
    if isinstance(f, Neg):
        return Neg(ref_to_omega_sorted(f.child))
    if isinstance(f, Dia):
        return Dia(f.index, ref_to_omega_sorted(f.child))
    return type(f)(ref_to_omega_sorted(f.left), ref_to_omega_sorted(f.right))


def ref_preorder(f, memo=(), dia_leaves=False):
    if f in memo:
        return
    yield f
    if isinstance(f, Neg) or isinstance(f, Dia) and not dia_leaves:
        yield from ref_preorder(f.child, memo, dia_leaves)
    elif isinstance(f, (And, Or)):
        yield from ref_preorder(f.left, memo, dia_leaves)
        yield from ref_preorder(f.right, memo, dia_leaves)


def ref_distinct(f, kind):
    out = []
    for g in ref_preorder(f):
        if isinstance(g, kind) and g not in out:
            out.append(g)
    return out


def ref_render(f, parent=0):
    def wrap(s, prec):
        return f"({s})" if prec < parent else s

    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Var):
        return f.name if f.sort is OMEGA else f"{f.name}:{f.sort}"
    if isinstance(f, Neg):
        return wrap("~" + ref_render(f.child, 4), 4)
    if isinstance(f, Dia):
        return wrap(f"<{f.index}>" + ref_render(f.child, 4), 4)
    if isinstance(f, And):
        return wrap(ref_render(f.left, 3) + " & " + ref_render(f.right, 4), 3)
    return wrap(ref_render(f.left, 2) + " | " + ref_render(f.right, 3), 2)


def ref_boolean_atoms(f, acc):
    if isinstance(f, (Var, Dia)):
        if f not in acc:
            acc.append(f)
    elif isinstance(f, Neg):
        ref_boolean_atoms(f.child, acc)
    elif isinstance(f, (And, Or)):
        ref_boolean_atoms(f.left, acc)
        ref_boolean_atoms(f.right, acc)
    return acc


def ref_eval(f, value):
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, (Var, Dia)):
        return value[f]
    if isinstance(f, Neg):
        return not ref_eval(f.child, value)
    if isinstance(f, And):
        return ref_eval(f.left, value) and ref_eval(f.right, value)
    return ref_eval(f.left, value) or ref_eval(f.right, value)


def ref_is_tautology(f):
    atoms = ref_boolean_atoms(f, [])
    return all(
        ref_eval(f, dict(zip(atoms, bits)))
        for bits in itertools.product((False, True), repeat=len(atoms))
    )


def gen_sugared(rng, depth, pool, mods=(0, 1, 2)):
    """Random formula built with boxes and implications too."""
    if depth <= 1 or rng.random() < 0.15:
        r = rng.random()
        return rng.choice(pool) if r < 0.75 else TOP if r < 0.88 else BOT
    r = rng.random()
    if r < 0.15:
        return Neg(gen_sugared(rng, depth - 1, pool, mods))
    if r < 0.45:
        return rng.choice((Dia, Box))(rng.choice(mods), gen_sugared(rng, depth - 1, pool, mods))
    cls = rng.choice((And, Or, Implies))
    return cls(gen_sugared(rng, depth - 1, pool, mods), gen_sugared(rng, depth - 1, pool, mods))


def sugared_formulas(seed, count=300):
    rng = random.Random(seed)
    sorts = (0, 1, 2, OMEGA)
    out = []
    for _ in range(count):
        pool = [Var(name, rng.choice(sorts)) for name in "pqr"[: rng.randint(1, 3)]]
        out.append(gen_sugared(rng, rng.randint(1, 6), pool))
    return out


# ----- equality with the references -----

class TestAgainstReferences:
    def test_rewrites_and_rendering(self):
        for f in sugared_formulas(61):
            assert to_omega_sorted(f) == ref_to_omega_sorted(f)
            assert render_formula(f) == ref_render(f)

    def test_listings(self):
        rng = random.Random(62)
        formulas = [gen_sorted_formula(rng, depth=rng.randint(1, 6), max_vars=3) for _ in range(300)]
        formulas += [desugar(f) for f in sugared_formulas(63)]
        for f in formulas:
            assert subformulas(f) == frozenset(ref_preorder(f))
            assert variables_of(f) == ref_distinct(f, Var)
            pairs = [(d.index, d.child) for d in ref_distinct(f, Dia)]
            assert diamond_subformulas(f) == pairs

    def test_walk_is_the_distinct_preorder(self):
        rng = random.Random(67)
        for f in sugared_formulas(68):
            nodes = sorted(subformulas(f), key=repr)
            memo = set(rng.sample(nodes, rng.randint(0, min(2, len(nodes)))))
            for args in ((), (memo,), ((), True), (memo, True)):
                assert walk(f, *args) == list(dict.fromkeys(ref_preorder(f, *args))), args

    def test_children_first_puts_every_node_after_its_children(self):
        for f in sugared_formulas(69):
            for nodes in (walk(f), walk(f, dia_leaves=True)):
                ordered = children_first(nodes)
                _assert_children_first(nodes, ordered)

    def test_is_tautology_up_to_sixteen_atoms(self):
        rng = random.Random(64)
        checked = {True: 0, False: 0}
        for n_atoms in list(range(0, 9)) * 12 + [12, 14, 16, 16]:
            atoms = [Var(f"v{i}") for i in range(n_atoms // 2)]
            atoms += [Dia(i % 3, Var(f"d{i}")) for i in range(n_atoms - len(atoms))]
            f = _boolean_combination(rng, atoms)
            if rng.random() < 0.5:  # excluded middle on a random part
                g = _boolean_combination(rng, atoms)
                f = Or(f, Or(g, Neg(g)))
            assert len(ref_boolean_atoms(f, [])) <= 16
            expected = ref_is_tautology(f)
            assert is_tautology(f) == expected
            checked[expected] += 1
        assert min(checked.values()) > 20

    def test_seventeen_atoms_refused(self):
        big = TOP
        for i in range(17):
            big = Or(big, Var(f"v{i}"))
        with pytest.raises(ProofError, match="^tautology check limited to 16 atoms, got 17$"):
            is_tautology(big)


def _assert_children_first(nodes, ordered):
    """``ordered`` holds ``nodes``, each after its children among them, and
    the leaves in their order in ``nodes``."""
    assert sorted(ordered, key=id) == sorted(nodes, key=id)
    position = {g: i for i, g in enumerate(ordered)}
    for g in ordered:
        for child in (getattr(g, name) for name in ("child", "left", "right") if hasattr(g, name)):
            assert position.get(child, -1) < position[g]
    leaves = [g for g in nodes if isinstance(g, (Top, Bot, Var))]
    assert [g for g in ordered if isinstance(g, (Top, Bot, Var))] == leaves


def _boolean_combination(rng, atoms):
    """A random boolean formula using every given atom at least once."""
    parts = list(atoms) + [rng.choice((TOP, BOT))]
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        left, right = parts[i], parts.pop(i + 1)
        node = rng.choice((And, Or))(left, right)
        parts[i] = Neg(node) if rng.random() < 0.3 else node
    return parts[0]


# ----- countermodels against the greedy model-level minimization -----

def ref_minimize(model, target):
    """Drop one world of the KripkeModel at a time, first droppable first,
    while the root still refutes the target and both validators pass; then
    name the worlds w0, w1, ... with the root first."""
    changed = True
    while changed:
        changed = False
        for w in model.worlds:
            if w == model.root:
                continue
            kept = tuple(v for v in model.worlds if v != w)
            candidate = KripkeModel(
                worlds=kept,
                relations={n: {(x, y) for x, y in rel if w not in (x, y)}
                           for n, rel in model.relations.items()},
                valuation={name: m - {w} for name, m in model.valuation.items()},
                sorts=model.sorts, root=model.root,
            )
            if (not model_check(candidate, candidate.root, target)
                    and not check_jstar_frame(candidate)
                    and not check_strong_persistence(candidate)):
                model, changed = candidate, True
                break
    order = [model.root] + [w for w in model.worlds if w != model.root]
    name = {w: f"w{k}" for k, w in enumerate(order)}
    return KripkeModel(
        worlds=tuple(name[w] for w in order),
        relations={n: {(name[x], name[y]) for x, y in rel} for n, rel in model.relations.items()},
        valuation={v: {name[w] for w in m} for v, m in model.valuation.items()},
        sorts=model.sorts, root=name[model.root],
    )


def non_theorems(count=200, seed=65):
    """Non-theorems across the four systems: random formulas, formulas
    ~<a>x | <b>T with a < b, and formulas ~<a>x | ~<a>(x & r) with r not
    in x, whose extracted countermodels often shrink: in the last kind
    the witness of <a>x, chosen first, holds r false, and the witness of
    <a>(x & r) witnesses <a>x too."""
    rng = random.Random(seed)
    systems = list(SystemId)
    out = []
    for attempt in range(4 * count):
        if len(out) == count:
            break
        if attempt % 3 == 0:
            f = gen_sorted_formula(rng, depth=rng.randint(2, 4), max_vars=2)
        else:
            a, b = sorted(rng.sample([0, 1, 2], 2))
            x = gen_sorted_formula(rng, depth=rng.randint(1, 2), max_vars=2)
            if attempt % 3 == 1:
                f = Or(Neg(Dia(a, x)), Dia(b, TOP))
            else:  # x is over p and q
                f = Or(Neg(Dia(a, x)), Neg(Dia(a, And(x, Var("r")))))
        system = systems[attempt % 4]
        if not decide(system, f).theorem:
            out.append((system, f))
    assert len(out) == count and {s for s, _ in out} == set(systems)
    return out


class TestCountermodels:
    def test_equal_to_greedy_model_level_minimization(self):
        shrunk = 0
        for system, f in non_theorems():
            verdict = decide(system, f)
            # the engine's witness closure from decide's root, not minimized
            target = verdict.falsified
            engine = CanonicalEngine(compile_formula(target).nodes)
            root = engine.refute(modified_negation(target))
            unminimized = model_over(engine, engine.witness_closure(root))
            expected = ref_minimize(unminimized, target)
            assert verdict.countermodel == expected
            shrunk += len(unminimized.worlds) > len(expected.worlds)
        assert shrunk > 50

    def test_validators_run_once_per_non_theorem(self, monkeypatch):
        decide_module = sys.modules["glpstar.decide"]
        calls = []

        def counting(model):
            calls.append(model)
            return check_jstar_frame(model)

        cases = non_theorems(count=40, seed=66)
        monkeypatch.setattr(decide_module, "check_jstar_frame", counting)
        for system, f in cases:
            decide(system, f)
        assert len(calls) == len(cases)


# ----- walks per decide call -----

class TestWalkCounts:
    # Per system (jstar, glpstar, glp, glpsstar), with the compile cache
    # cleared first: each premise lists its diamonds in one walk, the target
    # is walked once, to compile it (the engine reads the compiled nodes),
    # the glp route walks to drop the sorts, and each boolean fold of the
    # engine walks once.
    WALKS = {
        "<0>p & ~<1>q:0": (5, 7, 7, 8),
        "<1>p:1 -> p:1": (3, 5, 6, 6),
        "[1](p:0 -> q) -> <2>T": (6, 8, 7, 9),
    }

    def test_pinned(self, monkeypatch):
        count = 0

        def counting(*args, **kwargs):
            nonlocal count
            count += 1
            return walk(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("glpstar") and getattr(module, "walk", None) is walk:
                monkeypatch.setattr(module, "walk", counting)
        for text, expected in self.WALKS.items():
            counts = []
            for system in SystemId:
                compile_formula.cache_clear()
                count = 0
                decide(system, parse_formula(text))
                counts.append(count)
            assert tuple(counts) == expected, text


# ----- depth far past the recursion limit -----

def _chain(wrap, leaf, depth=DEEP):
    f = leaf
    for _ in range(depth):
        f = wrap(f)
    return f


class TestDeepFormulas:
    def test_parse_prefixes_and_parentheses(self):
        p = Var("p")
        assert parse_formula("~" * DEEP + "p") == _chain(Neg, p)
        assert parse_formula("<0>" * DEEP + "p") == _chain(lambda f: Dia(0, f), p)
        assert parse_formula("(" * DEEP + "p" + ")" * DEEP) == p
        text = "(" * DEEP + "p" + " & q)" * DEEP
        assert parse_formula(text) == _chain(lambda f: And(f, Var("q")), p)

    def test_render_round_trip(self):
        for f in (_chain(Neg, Var("p")), _chain(lambda f: Implies(Var("p"), f), TOP),
                  _chain(lambda f: And(f, Var("q")), Var("p")),
                  _chain(lambda f: Box(1, f), Var("p"))):
            assert parse_formula(render_formula(f)) == desugar(f)

    def test_desugar_nested_boxes(self):
        boxes = _chain(lambda f: Box(0, f), Var("p", 1))
        assert desugar(boxes) == _chain(lambda f: Neg(Dia(0, Neg(f))), Var("p", 1))

    def test_listings_and_sorts(self):
        f = _chain(lambda f: Dia(f.index + 1 if isinstance(f, Dia) else 0, Neg(f)), Var("p", 2),
                   depth=DEEP // 2)
        assert to_omega_sorted(f) == _chain(
            lambda g: Dia(g.index + 1 if isinstance(g, Dia) else 0, Neg(g)), Var("p"),
            depth=DEEP // 2)
        assert len(subformulas(f)) == DEEP + 1
        assert variables_of(f) == [Var("p", 2)]
        dias = diamond_subformulas(f)
        assert len(dias) == DEEP // 2
        assert dias[0] == (DEEP // 2 - 1, f.child) and dias[-1] == (0, Neg(Var("p", 2)))

    def test_walk_and_children_first(self):
        f = _chain(lambda g: And(Neg(g), Var("q")), Var("p"))
        expected, g = [], f
        while isinstance(g, And):
            expected += [g, g.left]
            g = g.left.child
        expected += [Var("p"), Var("q")]
        assert walk(f) == expected
        _assert_children_first(expected, children_first(expected))
        assert walk(f, dia_leaves=True) == expected
        assert walk(f, {f.left}) == [f, Var("q")]

    def test_repr_and_deepcopy(self):
        # 3000 levels, past the recursion limit; each used to recurse per level
        f = parse_formula("~" * 3000 + "p")
        assert repr(f) == "Neg(child=" * 3000 + "Var(name='p', sort=w)" + ")" * 3000
        assert copy.deepcopy(f) is f

    def test_pickle_and_copy(self):
        # 3000 levels: the pickler used to recurse through each node's children
        for f in (parse_formula("~" * 3000 + "p"), parse_formula("<1>(" * 3000 + "p" + " & q:2)" * 3000)):
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(f, protocol)) is f
            assert copy.copy(f) is f

    def test_evaluator_and_tautology(self):
        m = KripkeModel(("a", "b"), {0: {("a", "b")}}, {"p": {"b"}}, {"p": OMEGA})
        f = parse_formula("<0>" * DEEP + "p")
        assert Evaluator(m).extension(f) == 0
        assert Evaluator(m).extension(parse_formula("~" * DEEP + "p")) == 0b10
        excluded_middle = Or(Var("p"), Neg(Var("p")))
        assert is_tautology(_chain(Neg, excluded_middle))
        assert not is_tautology(Neg(_chain(Neg, excluded_middle)))
