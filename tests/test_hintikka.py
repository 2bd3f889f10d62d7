import random
import sys

import numpy as np
import pytest

from glpstar.decide import SystemId, decide, reduction_target
from glpstar.formulas import (
    BOT,
    OMEGA,
    TOP,
    And,
    Dia,
    Neg,
    Or,
    Top,
    Var,
    adequate_closure,
    modified_negation,
    sort_of,
)
from glpstar.hintikka import CanonicalEngine, ResourceLimitError
from glpstar.kripke import check_jstar_frame, check_strong_persistence, model_check
from glpstar.oracle import SearchBudget, brute_force_countermodel
from glpstar.parsing import parse_formula, render_model
from conftest import gen_sorted_formula
from reference import assert_truth_lemma, canonical_model, canonical_relation, membership

p0 = Var("p", 0)
pw = Var("p", OMEGA)


def closure_of(*formulas):
    return adequate_closure(set(formulas))


def candidates(delta):
    """Every candidate row's formula set."""
    engine = CanonicalEngine(delta)
    return frozenset(membership(engine, delta, i) for i in range(engine.count))


class TestHintikkaCandidates:
    def test_single_diamond_sorted_variable(self):
        delta = closure_of(Dia(1, p0))
        worlds = candidates(delta)
        d, nd = Dia(1, p0), Neg(Dia(1, p0))
        dn, ndn = Dia(1, Neg(p0)), Neg(Dia(1, Neg(p0)))
        expected = {
            frozenset({TOP, p0, d, ndn}),
            frozenset({TOP, p0, nd, ndn}),
            frozenset({TOP, Neg(p0), nd, dn}),
            frozenset({TOP, Neg(p0), nd, ndn}),
        }
        assert worlds == expected

    def test_trivial_delta(self):
        assert candidates({TOP, Neg(TOP)}) == {frozenset({TOP})}

    def test_variable_pair(self):
        delta = closure_of(p0)
        assert candidates(delta) == {
            frozenset({TOP, p0}),
            frozenset({TOP, Neg(p0)}),
        }

    def test_invariants_hold(self):
        rng = random.Random(41)
        for _ in range(25):
            f = gen_sorted_formula(rng, depth=2, mods=(0, 1))
            delta = closure_of(f)
            if len(delta) > 20:
                continue
            for world in candidates(delta):
                assert TOP in world
                for member in delta:
                    assert (member in world) != (modified_negation(member) in world)
                for member in delta:
                    if isinstance(member, Dia) and member in world:
                        s = sort_of(member.child)
                        if s is not OMEGA and s <= member.index:
                            assert member.child in world
                        inner = member.child
                        if isinstance(inner, Dia) and member.index < inner.index:
                            assert Dia(member.index, inner.child) in world

    def test_requires_the_atoms_a_diamond_forces(self):
        # subformula closure is not re-checked: growth stops on the missing
        # variable and names it
        with pytest.raises(KeyError, match=r"Var\(name='p', sort=0\)"):
            CanonicalEngine({Dia(0, Var("p", 0))})

    def test_candidate_cap(self):
        delta = closure_of(And(Dia(0, pw), Dia(1, Var("q", OMEGA))))
        with pytest.raises(ResourceLimitError):
            CanonicalEngine(delta, candidate_cap=2)


def _holds(formula, truth):
    """Boolean value of a formula under an assignment to its atoms."""
    if isinstance(formula, (Var, Dia)):
        return truth[formula]
    if isinstance(formula, Neg):
        return not _holds(formula.child, truth)
    if isinstance(formula, And):
        return _holds(formula.left, truth) and _holds(formula.right, truth)
    if isinstance(formula, Or):
        return _holds(formula.left, truth) or _holds(formula.right, truth)
    return isinstance(formula, Top)


def _scan_indices(atoms):
    """Ascending indices in range(2**len(atoms)) passing the sigma and transit rules."""
    out = []
    for idx in range(1 << len(atoms)):
        truth = {a: bool(idx >> j & 1) for j, a in enumerate(atoms)}
        for d, true in truth.items():
            if not (true and isinstance(d, Dia)):
                continue
            body_sort = sort_of(d.child)
            if body_sort is not OMEGA and body_sort <= d.index and not _holds(d.child, truth):
                break
            if isinstance(d.child, Dia) and d.index < d.child.index \
                    and not truth[Dia(d.index, d.child.child)]:
                break
        else:
            out.append(idx)
    return out


class TestEnumeration:
    def test_matches_scan_of_all_assignments(self):
        rng = random.Random(44)
        checked = constrained = wide = 0
        while checked < 40:
            f = gen_sorted_formula(rng, depth=5, mods=(0, 1, 2, 3))
            delta = closure_of(f)
            if not 4 <= sum(isinstance(g, (Var, Dia)) for g in delta) <= 14:
                continue
            engine = CanonicalEngine(delta)
            # the same rows in the same order, each as the set of its true atoms
            expected = [{a for j, a in enumerate(engine.atoms) if idx >> j & 1}
                        for idx in _scan_indices(engine.atoms)]
            assert [{a for a in engine.atoms if int(word) >> engine.bit[a] & 1}
                    for word in engine.words] == expected
            checked += 1
            constrained += engine.count < 1 << len(engine.atoms)
            wide += len(engine.atoms) > 10
        assert constrained > 30 and wide > 3

    def test_cap_error_matches_materialized_prefixes(self):
        # forced formulas mention only lower atoms, so the rows over the
        # first k atoms are the scan of those atoms alone; growth stops at
        # the first prefix whose rows exceed the cap
        rng = random.Random(49)
        checked = 0
        while checked < 15:
            f = gen_sorted_formula(rng, depth=5, mods=(0, 1, 2, 3))
            delta = closure_of(f)
            if not 6 <= sum(isinstance(g, (Var, Dia)) for g in delta) <= 13:
                continue
            atoms = CanonicalEngine(delta).atoms
            prefixes = [len(_scan_indices(atoms[:k])) for k in range(1, len(atoms) + 1)]
            for cap in sorted({1, prefixes[-1] // 3, prefixes[-1] // 2, prefixes[-1] - 1} - {0}):
                with pytest.raises(ResourceLimitError) as err:
                    CanonicalEngine(delta, candidate_cap=cap)
                reached = next(count for count in prefixes if count > cap)
                assert (err.value.atoms, err.value.candidates, err.value.cap) == (len(atoms), reached, cap)
            checked += 1

    @pytest.mark.parametrize("text, message, atoms", [
        ("~" + "<0>" * 300 + "p:0 | p:0", "300 diamonds at each level exceed 32", 301),
        ("~" + "<0>" * 21 + "p:0 | <1>T | <2>T", "70 atoms exceed the 63-bit index budget", 70),
        (" | ".join(f"p{i}:0" for i in range(64)), "64 atoms exceed the 63-bit index budget", 64),
    ], ids=["width", "positions", "atoms"])
    def test_limits_refuse_before_sorting(self, monkeypatch, text, message, atoms):
        # the grid has levels x bodies diamonds, so the limits are checked on
        # the set sizes before the grid is ordered and any of it is built
        hintikka, calls = sys.modules["glpstar.hintikka"], []
        monkeypatch.setattr(hintikka, "Dia", lambda n, body: calls.append((n, body)) or Dia(n, body))
        with pytest.raises(ResourceLimitError, match=message) as err:
            decide("jstar", parse_formula(text))
        assert calls == []
        assert (err.value.atoms, err.value.candidates, err.value.cap) == (atoms, None, 1 << 20)

    def test_need_bits_match_body_membership(self):
        rng = random.Random(50)
        targets = [f for f, _ in random_engines(rng, 30, range(2, 3000))]
        targets += [target for names, count, _, _ in WIDE_MASKS for target in wide_targets(names, count)]
        for target in targets:
            delta = closure_of(target)
            engine = CanonicalEngine(delta)
            need = engine.need
            for row in range(0, engine.count, 1 + engine.count // 600):
                members = membership(engine, delta, row)
                assert [int(need[row]) >> b & 1 == 1 for b in range(len(engine.bodies))] \
                    == [body in members for body in engine.bodies]

    def test_truth_column_equals_membership(self):
        f = parse_formula("<0>(p & q) | ~(p & q) | <1>p")
        delta = closure_of(f)
        engine = CanonicalEngine(delta)
        for formula in (f, And(Var("p", OMEGA), Var("q", OMEGA))):  # a goal and a body
            column = engine.truth_column(formula)
            assert column.tolist() == [formula in membership(engine, delta, i) for i in range(engine.count)]

    def test_sparse_33_atom_closure_decides(self):
        # 33 atoms: 2^33 assignments, of which 768 are candidates
        f = parse_formula("<0><3>(q:0 & F) & <1><2><1>F")
        v = decide("glpstar", f)
        assert (v.stats.atom_count, v.stats.candidates) == (33, 768)
        assert not v.theorem
        model = v.countermodel
        assert check_jstar_frame(model) == []
        assert check_strong_persistence(model) == []
        assert not model_check(model, model.root, v.falsified)
        decide("glpstar", f, candidate_cap=768)
        with pytest.raises(ResourceLimitError) as err:
            decide("glpstar", f, candidate_cap=767)
        assert (err.value.atoms, err.value.candidates, err.value.cap) == (33, 768, 767)


def reference_uncovered(cls_id, d, req, need):
    """Rows x with a diamond bit of d(x) that no witness covers: a witness is
    a row y of x's class with req(y) a subset of d(x) and d(y) != d(x), and
    it covers the bits of need(y)."""
    rows = list(zip(*(col.tolist() for col in (cls_id, d, req, need))))
    witnesses = set(rows)
    cover = {}
    out = []
    for x, (c, dx, _, _) in enumerate(rows):
        if (c, dx) not in cover:
            cover[c, dx] = 0
            for cy, dy, ry, ny in witnesses:
                if cy == c and ry & ~dx == 0 and dy != dx:
                    cover[c, dx] |= ny
        if dx & ~cover[c, dx]:
            out.append(x)
    return out


def reference_eliminate(engine):
    """Survivors per round and the final alive set, by full rounds.

    Every round checks every level in order with the plain-Python coverage
    above and deletes at once what a level leaves uncovered; a round that
    deletes nothing ends the loop. Also returns the number of level checks
    that had some diamond to test.
    """
    alive = np.ones(engine.count, dtype=bool)
    rounds, checks = [], 0
    while True:
        changed = False
        for n in engine.levels:
            rows = np.flatnonzero(alive)
            cols = [engine.col[(name, n)][rows] for name in ("class", "d", "req")]
            cols.append(engine.need[rows])
            if not cols[1].any():
                continue
            checks += 1
            dead = reference_uncovered(*cols)
            if dead:
                alive[rows[dead]] = False
                changed = True
        if not changed:
            return rounds, alive, checks
        rounds.append(int(alive.sum()))


def random_engines(rng, count, rows):
    """Engines over the closures of random targets, half of them Loeb
    instances <n>g -> <n>(g & ~<n>g), with a candidate count in ``rows``."""
    engines = []
    while len(engines) < count:
        f = gen_sorted_formula(rng, depth=4, mods=(0, 1, 2))
        if rng.random() < 0.5:
            n, g = rng.choice((0, 1, 2)), gen_sorted_formula(rng, depth=3, mods=(0, 1, 2))
            f = Or(Neg(Dia(n, g)), Dia(n, And(g, Neg(Dia(n, g)))))
        engine = CanonicalEngine(closure_of(f))
        if engine.levels and engine.count in rows:
            engines.append((f, engine))
    return engines


class TestCoverageKernels:
    @pytest.mark.parametrize("fallback", [False, True])
    def test_kernel_matches_reference(self, monkeypatch, fallback):
        if fallback:
            monkeypatch.setattr(CanonicalEngine, "_LATTICE_LIMIT", 1)
        rng = random.Random(45)
        compared = uncovered = deduplicated = 0
        for _, engine in random_engines(rng, 50, range(100, 3000)):
            width = len(engine.bodies)
            for n in engine.levels:
                classes = engine.classes[n]
                for keep in (1.0, 0.7, 0.3):
                    # all candidates, then random alive sets as elimination leaves them
                    rows = np.flatnonzero(rng_mask(rng, engine.count, keep))
                    if len(rows) == 0:
                        continue
                    cols = [engine.col[(name, n)][rows] for name in ("class", "d", "req")]
                    cols.append(engine.need[rows])
                    got = CanonicalEngine._uncovered(cols[0], classes, *cols[1:], width)
                    assert got.tolist() == reference_uncovered(*cols)
                    compared += 1
                    uncovered += len(got) > 0
                    deduplicated += (classes << width << width + 1) < len(rows)
        assert compared > 150 and uncovered > 40
        if not fallback:
            # both the scatter of every row and the de-duplicated scatter ran
            assert 10 < deduplicated < compared - 10

    def test_early_stop_matches_full_rounds(self, monkeypatch):
        calls = []
        kernel = CanonicalEngine._uncovered.__func__

        def counted(cls, *args):
            calls.append(1)
            return kernel(cls, *args)

        monkeypatch.setattr(CanonicalEngine, "_uncovered", classmethod(counted))
        rng = random.Random(47)
        reference_checks = engine_checks = theorems = eliminated = stopped = 0
        for f, engine in random_engines(rng, 60, range(1000)):
            rounds, alive, checks = reference_eliminate(engine)
            before = len(calls)
            engine.eliminate()
            engine_checks += len(calls) - before
            assert engine.rounds == rounds
            assert engine.alive.tolist() == alive.tolist()
            reference_checks += checks
            refuting = engine.truth_column(modified_negation(f))
            theorems += not bool((refuting & engine.alive).any())
            eliminated += rounds != []
            # re-entry: a full elimination after refute's early stop, and a
            # second elimination after the fixpoint
            resumed = CanonicalEngine(closure_of(f))
            resumed.refute(modified_negation(f))
            stopped += resumed.rounds != rounds
            resumed.eliminate()
            engine.eliminate()
            for got in (engine, resumed):
                assert got.rounds == rounds
                assert got.alive.tolist() == alive.tolist()
        assert 10 < theorems < 50 and eliminated > 20 and stopped > 3
        assert engine_checks < reference_checks

    def test_decide_agrees_on_crossjoin_alone(self, monkeypatch):
        rng = random.Random(46)
        formulas = [gen_sorted_formula(rng, depth=4, mods=(0, 1, 2)) for _ in range(80)]
        systems = ["jstar", "glpstar", "glp", "glpsstar"]
        expected = [decide(systems[k % 4], f) for k, f in enumerate(formulas)]
        monkeypatch.setattr(CanonicalEngine, "_LATTICE_LIMIT", 1)
        for k, (f, want) in enumerate(zip(formulas, expected)):
            got = decide(systems[k % 4], f)
            assert got.theorem == want.theorem
            assert got.stats == want.stats
            if not want.theorem:
                assert render_model(got.countermodel) == render_model(want.countermodel)
        assert sum(not v.theorem for v in expected) > 10
        assert sum(v.stats.rounds != [] for v in expected) > 10


def minterms(names, count):
    """The first ``count`` conjunctions of literals over sort-0 variables."""
    atoms = [Var(name, 0) for name in names]
    out = []
    for k in range(count):
        literals = [v if k >> i & 1 else Neg(v) for i, v in enumerate(atoms)]
        term = literals[0]
        for literal in literals[1:]:
            term = And(term, literal)
        out.append(term)
    return out


def disjunction(formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = Or(out, f)
    return out


def wide_targets(names, count):
    """Targets over wide levels, mapped to their validity."""
    terms = minterms(names, count)
    m0, rest = terms[0], disjunction([Dia(1, m) for m in terms[1:]])
    return {
        Or(Neg(Dia(1, m0)), Or(Dia(2, m0), rest)): False,
        # Loeb: a witness chain for <1>m0 ends in a world without <1>m0
        Or(Neg(Dia(1, m0)), Or(Dia(1, And(m0, Neg(Dia(1, m0)))), rest)): True,
    }


WIDE_MASKS = [("pqr", 4, range(9, 17), np.uint16), ("pqr", 8, range(9, 17), np.uint16),
              ("pqrs", 9, range(17, 33), np.uint32)]


class TestWideMasks:
    # The pools' closures have at most 8 bodies per level, so their masks
    # are all uint8. The closure adds <n>v and <n>~v for each variable v;
    # minterms, of sort at most 1, force their bodies at levels 1 and 2,
    # which keeps these tables small.
    @pytest.mark.parametrize("names, count, widths, dtype", WIDE_MASKS)
    def test_wide_levels_decide_and_validate(self, names, count, widths, dtype):
        for target, valid in wide_targets(names, count).items():
            engine = CanonicalEngine(closure_of(target))
            assert len(engine.bodies) in widths
            assert {engine.col[(name, n)].dtype for name in ("d", "req")
                    for n in engine.levels} | {engine.need.dtype} == {np.dtype(dtype)}
            v = decide("jstar", target)
            assert v.theorem == valid
            assert v.stats.rounds != []
            if not valid:
                model = v.countermodel
                assert len(model.worlds) > 1
                assert check_jstar_frame(model) == []
                assert check_strong_persistence(model) == []
                assert not model_check(model, model.root, v.falsified)

    def test_sparse_lattice_takes_the_crossjoin(self, monkeypatch):
        # 24 bodies per level: the lattice of level 1 has 2^24 slots for
        # 16,384 rows, where the cross join only sorts the rows
        kernel, crossjoin = CanonicalEngine._uncovered.__func__, CanonicalEngine._uncovered_crossjoin
        calls = []

        def spied(cls, cls_id, classes, *args):
            calls.append([len(cls_id), classes << args[-1], False])
            return kernel(cls, cls_id, classes, *args)

        def spied_crossjoin(*args):
            calls[-1][2] = True
            return crossjoin(*args)

        monkeypatch.setattr(CanonicalEngine, "_uncovered", classmethod(spied))
        monkeypatch.setattr(CanonicalEngine, "_uncovered_crossjoin", staticmethod(spied_crossjoin))
        target = next(t for t, valid in wide_targets("pqrs", 16).items() if not valid)
        assert not decide("jstar", target).theorem
        assert calls[0] == [16384, 1 << 24, True]
        assert all(took for rows, size, took in calls if size > rows << 9)


def rng_mask(rng, count, keep):
    return np.array([keep == 1.0 or rng.random() < keep for _ in range(count)], dtype=bool)


class TestCanonicalRelation:
    def setup_method(self):
        self.delta = closure_of(Dia(1, p0))
        self.d = Dia(1, p0)
        self.dn = Dia(1, Neg(p0))

    def test_edge_exists(self):
        x = {TOP, p0, self.d, Neg(self.dn)}
        y = {TOP, p0, Neg(self.d), Neg(self.dn)}
        assert canonical_relation(self.delta, x, y, 1)

    def test_never_reflexive(self):
        for world in candidates(self.delta):
            assert not canonical_relation(self.delta, world, world, 1)

    def test_level_without_diamonds_is_empty(self):
        x = {TOP, p0, self.d, Neg(self.dn)}
        y = {TOP, p0, Neg(self.d), Neg(self.dn)}
        assert not canonical_relation(self.delta, x, y, 0)

    def test_engine_matches_reference(self):
        rng = random.Random(42)
        checked = 0
        while checked < 15:
            f = gen_sorted_formula(rng, depth=2, mods=(0, 1))
            delta = closure_of(f)
            engine = CanonicalEngine(delta)
            if engine.count > 40:
                continue
            members = [membership(engine, delta, i) for i in range(engine.count)]
            for i, x in enumerate(members):
                for j, y in enumerate(members):
                    for n in engine.levels:
                        assert engine.relation(i, j, n) == canonical_relation(delta, x, y, n)
            checked += 1


def reference_witness_closure(engine, delta, root):
    """The witness closure over formula sets, breadth first from the root.

    A diamond <n>b of a chosen row x, by ascending level and then body,
    takes the first chosen row y with an R_n edge from x and b in M(y);
    failing that, the alive such row with the fewest diamonds in M(y), and
    the lowest row among those.
    """
    sets = {}

    def member(i):
        if i not in sets:
            sets[i] = membership(engine, delta, i)
        return sets[i]

    def witnesses(x, dia, rows):
        return [y for y in rows
                if dia.child in member(y) and canonical_relation(delta, member(x), member(y), dia.index)]

    alive = [int(r) for r in np.flatnonzero(engine.alive)]
    chosen = [root]
    for x in chosen:
        dias = sorted((f for f in member(x) if isinstance(f, Dia)),
                      key=lambda d: (d.index, engine.body_bit[d.child]))
        for dia in dias:
            if not witnesses(x, dia, chosen):
                chosen.append(min(witnesses(x, dia, alive),
                                  key=lambda y: (sum(isinstance(f, Dia) for f in member(y)), y)))
    return chosen


class TestWitnessClosure:
    @staticmethod
    def closure(system, formula, max_candidates=2000):
        """The witness closure of decide's engine from its refuting row,
        checked against the reference; None for a theorem or a large table."""
        target = reduction_target(system, formula)
        delta = adequate_closure({target})
        engine = CanonicalEngine(delta)
        if max_candidates is not None and engine.count > max_candidates:
            return None
        root = engine.refute(modified_negation(target))
        if root is None:
            return None
        got = engine.witness_closure(root)
        assert got == reference_witness_closure(engine, delta, root)
        return got

    def test_generated_formulas(self):
        rng = random.Random(48)
        sizes = []
        for k in range(400):
            system = list(SystemId)[k % 4]
            rows = self.closure(system, gen_sorted_formula(rng, depth=4, mods=(0, 1, 2)))
            if rows is not None:
                sizes.append(len(rows))
        # 315 refuted calls, 40 of them with several worlds
        assert len(sizes) > 250 and sum(size > 1 for size in sizes) > 30 and max(sizes) > 3

    def test_fewest_diamonds_beat_the_lowest_row(self):
        # b holds with <0>u & <0>v or with the one diamond <0>(p & q & r),
        # which sits at a higher atom: the lowest row holding b has two
        # diamonds, and the witness of <0>b must be another row
        f = parse_formula("~(<0>((<0>u & <0>v) | <0>(p & q & r)) & <0>u & <0>v & <0>(p & q & r))")
        rows = self.closure(SystemId.JSTAR, f)
        assert len(rows) == 5

    def test_deep_chains(self):
        for n in range(9):
            chain = TOP
            for _ in range(n):
                chain = Dia(0, chain)
            assert len(self.closure(SystemId.JSTAR, Neg(chain))) == n + 1

    @pytest.mark.parametrize("names, count", [(names, count) for names, count, _, _ in WIDE_MASKS])
    def test_wide_masks(self, names, count):
        for target, valid in wide_targets(names, count).items():
            if not valid:
                assert len(self.closure(SystemId.JSTAR, target, max_candidates=None)) > 1


class TestBuildCanonical:
    def test_all_survive_on_simple_closure(self):
        delta = closure_of(Dia(1, p0))
        model, memberships = canonical_model(CanonicalEngine(delta), delta)
        assert len(model.worlds) == 4
        # every diamond world has an edge to a body world without the diamond
        for w, mem in memberships.items():
            if Dia(1, p0) in mem:
                successors = [
                    y for x, y in model.relations.get(1, frozenset()) if x == w
                ]
                assert any(
                    p0 in memberships[y] and Dia(1, p0) not in memberships[y]
                    for y in successors
                )

    def test_trivial_delta(self):
        model, _ = canonical_model(CanonicalEngine({TOP, Neg(TOP)}), {TOP, Neg(TOP)})
        assert len(model.worlds) == 1
        assert model.relations == {}

    def test_unwitnessable_diamond_dies(self):
        delta = closure_of(Dia(0, BOT))
        model, memberships = canonical_model(CanonicalEngine(delta), delta)
        assert all(Dia(0, BOT) not in mem for mem in memberships.values())
        assert len(model.worlds) == 1

    def test_output_validates_and_truth_lemma(self):
        rng = random.Random(43)
        for _ in range(20):
            f = gen_sorted_formula(rng, depth=2, mods=(0, 1, 2))
            delta = closure_of(f)
            model, memberships = canonical_model(CanonicalEngine(delta), delta)
            assert_truth_lemma(model, memberships, delta)
            assert check_jstar_frame(model) == []
            assert check_strong_persistence(model) == []

    def test_truth_lemma_via_model_check(self):
        delta = closure_of(Dia(1, p0))
        model, memberships = canonical_model(CanonicalEngine(delta), delta)
        for w, mem in memberships.items():
            for member in delta:
                assert model_check(model, w, member) == (member in mem)


class TestLiteralReading:
    """J* formulas on which the literal same-level reading of condition (2)
    of the canonical relation (req at level n = need | d at level n alone)
    builds a countermodel whose frame breaks R_m o R_n within R_m, so
    ``decide`` raises "countermodel frame is invalid". The widened reading
    decides both, and the oracle agrees without truncation."""

    @pytest.mark.parametrize("text, worlds", [
        ("~<2>(T | (~p:2 | T)) | <2>~<3>T", None),  # a theorem
        ("~<2>(<3>p | <1>p)", 3),
    ])
    def test_pinned(self, text, worlds):
        f = parse_formula(text)
        v = decide("jstar", f)
        assert (None if v.theorem else len(v.countermodel.worlds)) == worlds
        searched = brute_force_countermodel(f, SearchBudget(max_worlds=4))
        assert (searched.found, searched.truncated) == (not v.theorem, False)
