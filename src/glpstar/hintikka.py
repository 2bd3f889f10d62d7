"""Canonical-model machinery: Hintikka candidates and witness elimination.

A candidate world over an adequate set is determined by a truth assignment
to its atoms (variables and diamond formulas), which the engine reads off
the target's subformulas without building the set; every other member's
truth is forced by boolean evaluation. Candidates also satisfy two closure
constraints mirroring the completeness axioms: a diamond whose body has sort
at most its level pulls the body in, and <m><n>x with m < n pulls <m>x in.

Atoms are grown variables first, then diamonds by size, so everything a
diamond forces mentions only earlier atoms. The engine grows the candidates
one atom at a time with numpy, appending the rows where the next atom may be
true, so it only ever builds consistent assignments: work is at most atoms
times candidates, not 2^atoms. A row is a uint64 word with diamond <n>b, for
the b-th body, at bit low_offset[n] + b and the variables above
every diamond, so a level's diamond mask is one shift and mask of it. Growth
also carries each row's need mask, whose bit b says that body b holds: each
body is folded once, at the first diamond over it, so the sigma test reads a
need bit, the transit test a word bit, and after growth only the goal is folded.

The layout follows the order of the given formulas: the variables take
their bits by name, the bodies theirs in the order in which the formulas
first meet them (:func:`formulas._bodies`), and the diamonds of one size
grow by level, then by bit. So ``decide``'s layout, over its compiled
target's nodes, is a function of the target alone; a set gives a valid
layout in an arbitrary order. Any order of the atoms gives the same
canonical model.

Per candidate the engine keeps the need mask, and per level the diamond
mask, the mask a witness demand imposes on a predecessor, and a class id for
the masks of the lower levels, in the narrowest unsigned dtype that holds a
level's mask. The canonical relation then reduces to a few integer
comparisons, and each elimination step to a subset-OR transform on a
lattice of masks by classes, or to a cross join of the rows where that
lattice would be sparse.

``decide`` reaches the table only through ``refute``, ``witness_closure``
and ``masks``; the row layout, and ``relation``, its one edge test, live here.

The relation follows the four textbook conditions with condition (2) widened
from "same level" to "same or higher level": an edge at level n absorbs a
successor's diamonds at every level k >= n down to level n. The literal
same-level reading admits survivor triples x ->0 y ->1 z with no x ->0 z
edge, which breaks the frame condition R_m o R_n within R_m (m < n) that
the validators enforce: a body b of z puts <1>b into y, but nothing puts
<0>b into x. The widened reading asks for <0>b in x exactly then. It keeps
the witnesses the existence lemma needs: when x lacks <n>c it holds
[n]~c, hence [n][k]~c for every k >= n (axiom 4 for k = n, and the transit
axiom <n><k>c -> <n>c for k > n), so some witness of each of x's level-n
diamonds holds no <k>c. ``TestLiteralReading`` in ``tests/test_hintikka.py``
pins two formulas whose countermodels the literal reading breaks.
"""

from __future__ import annotations

from typing import Collection, Optional

import numpy as np

from .formulas import (
    Dia,
    Formula,
    Var,
    _bodies,
    fold_boolean,
    formula_size,
    modal_levels,
    require_one_sort_per_name,
    sort_of,
)

DEFAULT_CANDIDATE_CAP = 1 << 20


class ResourceLimitError(RuntimeError):
    """The candidate enumeration exceeded a limit; no verdict was produced.

    ``atoms`` is the closure's atom count, ``candidates`` the candidate
    count reached when the cap stopped the enumeration (None when a fixed
    limit refused the closure before enumerating), ``cap`` the candidate cap.
    """

    def __init__(self, message: str, *, atoms: Optional[int] = None,
                 candidates: Optional[int] = None, cap: Optional[int] = None):
        super().__init__(message)
        self.atoms = atoms
        self.candidates = candidates
        self.cap = cap


class CanonicalEngine:
    """Packed candidate table, with witness elimination, over the atoms of
    the adequate closure of a subformula-closed set (not re-checked), such
    as a compiled target's ``nodes``: its variables, and the grid <n>b over
    its present levels n and the bodies b of :func:`formulas._bodies`.
    """

    def __init__(self, formulas: Collection[Formula], candidate_cap: int = DEFAULT_CANDIDATE_CAP):
        if candidate_cap < 1:
            raise ValueError(f"candidate cap must be at least 1, not {candidate_cap}")
        levels = modal_levels(formulas)
        self.levels = sorted(levels)
        self.cap = candidate_cap

        # Variables by name, then sort (omega last).
        variables = sorted({f for f in formulas if isinstance(f, Var)}, key=lambda v: (v.name, v.sort))
        require_one_sort_per_name((v.name, v.sort) for v in variables)
        self.variables = variables

        # The diamonds are the grid, so a body has one bit for all levels.
        # The limits are checked on the grid's size before any grid diamond
        # is built, so a refused set builds none of its levels x bodies nodes.
        bodies = _bodies(formulas, levels)
        width, atom_count = len(bodies), len(variables) + len(levels) * len(bodies)
        limits = {"atoms": atom_count, "cap": candidate_cap}
        if width > 32:
            raise ResourceLimitError(f"{width} diamonds at each level exceed 32", **limits)
        if atom_count > 63:
            raise ResourceLimitError(f"{atom_count} atoms exceed the 63-bit index budget", **limits)
        # a body's bit is its place; diamonds grow by size, level, then bit
        self.bodies = bodies
        grid = sorted((formula_size(body), n, b) for b, body in enumerate(bodies) for n in self.levels)
        diamonds = [Dia(n, bodies[b]) for _, n, b in grid]
        self.atoms: list[Formula] = variables + diamonds
        self.low_offset = {n: k * width for k, n in enumerate(self.levels)}
        self.body_bit = {body: b for b, body in enumerate(self.bodies)}
        self.bit = {v: len(self.levels) * width + k for k, v in enumerate(variables)}
        self.bit.update((d, self.low_offset[d.index] + self.body_bit[d.child]) for d in diamonds)

        # One growth step per atom: its bit, the body folded at this step
        # (at the first diamond over it), and the need and word bits its
        # truth forces: sigma (<n>x with sort(x) <= n forces x) and transit
        # (<m><n>x with m < n forces <m>x). Variables come first and diamonds
        # grow in size, so both mention only earlier atoms (a missing one is a KeyError).
        first = {}
        self._steps = [(self.bit[v], None, 0, 0) for v in variables]
        for d in diamonds:
            body, need_bits, word_bits = d.child, 0, 0
            fold = body if first.setdefault(body, d) is d else None
            if sort_of(body) <= d.index:
                need_bits = 1 << self.body_bit[body]
            if isinstance(body, Dia) and d.index < body.index:
                word_bits = 1 << self.bit[Dia(d.index, body.child)]
            self._steps.append((self.bit[d], fold, need_bits, word_bits))

        reached, words, need = self._grow()
        if words is None:
            # raised here rather than in _grow, so the traceback holds no partial table
            raise ResourceLimitError(f"candidate count exceeds the cap {candidate_cap}",
                                     candidates=reached, **limits)
        self._columns(words, need)
        self.alive = np.ones(self.count, dtype=bool)
        self.rounds: list[int] = []

    # ----- candidate enumeration -----

    def _grow(self) -> tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        """Row count reached, and the rows' words and need masks in
        ascending order of their assignments, or Nones past the cap.

        Grown one atom at a time: every row over the earlier atoms stays
        with the atom clear, and the rows satisfying what it forces are
        appended with it set, so the order holds and the row count never
        falls, and the cap is checked as the table grows.
        """
        words = np.zeros(1, dtype=np.uint64)
        need = np.zeros(1, dtype=np.min_scalar_type((1 << len(self.bodies)) - 1))
        for bit, fold, need_bits, word_bits in self._steps:
            if fold is not None:
                column = fold_boolean(fold, {}, np.ones(len(words), dtype=bool),
                                      lambda f: words & np.uint64(1 << self.bit[f]) != 0)
                need |= column.astype(need.dtype) << self.body_bit[fold]
            ok, reached = slice(None), 2 * len(words)
            if need_bits or word_bits:
                ok = np.ones(len(words), dtype=bool)
                if need_bits:
                    ok &= need & need_bits != 0
                if word_bits:
                    ok &= words & np.uint64(word_bits) != 0
                reached = len(words) + int(np.count_nonzero(ok))
            if reached > self.cap:
                return reached, None, None
            words = np.concatenate((words, words[ok] | np.uint64(1 << bit)))
            need = np.concatenate((need, need[ok]))
        return len(words), words, need

    def _columns(self, words: np.ndarray, need: np.ndarray) -> None:
        """The need column as grown, and per level the d column sliced from
        the words, and req and the class ids derived from them."""
        self.count = len(words)
        self.words, self.need = words, need
        self.col: dict[tuple[str, int], np.ndarray] = {}
        self.classes: dict[int, int] = {}
        width = len(self.bodies)
        # An edge at level n absorbs the successor's diamonds at levels >= n
        # as their level-n twins, which sit at the same bits.
        absorbed = need
        for n in reversed(self.levels):
            d = (words >> np.uint64(self.low_offset[n])).astype(need.dtype) & (1 << width) - 1
            absorbed = absorbed | d
            self.col[("d", n)] = d
            self.col[("req", n)] = absorbed
        # Rows of one class at level n agree on every diamond below n. Class
        # ids, below classes[n], are numbered level by level from the class
        # and mask below: densely by a presence table where such a table
        # fits, and past it by the pair itself.
        cls_id, classes = np.zeros(self.count, dtype=np.uint8), 1
        for n in self.levels:
            self.col[("class", n)], self.classes[n] = cls_id, classes
            if n != self.levels[-1]:
                cls_id, classes = cls_id.astype(np.intp) << width | self.col[("d", n)], classes << width
                if self._table_fits(classes, self.count):
                    seen = np.zeros(classes, dtype=bool)
                    seen[cls_id] = True
                    remap = np.cumsum(seen, dtype=np.min_scalar_type(classes)) - 1
                    cls_id, classes = remap[cls_id], int(remap[-1]) + 1

    # ----- vector queries -----

    def truth_column(self, formula: Formula) -> np.ndarray:
        """Truth of a formula over the set's atoms at every candidate, as a
        bool column. A diamond is a bit of its level's narrow d column and
        a variable a bit of the row word."""

        def atom(f: Formula) -> np.ndarray:
            if type(f) is Var:
                return self.words & np.uint64(1 << self.bit[f]) != 0
            return self.col[("d", f.index)] & 1 << self.body_bit[f.child] != 0

        return fold_boolean(formula, {}, np.ones(self.count, dtype=bool), atom)

    # ----- elimination -----

    def eliminate(self, stop_mask: Optional[np.ndarray] = None) -> None:
        """Deletion of worlds with unwitnessed diamonds, to the fixpoint.

        Rounds visit the levels in order, each deleting its unwitnessed rows
        at once; the witnessed-worlds operator is monotone, so any removal
        order reaches the greatest fixpoint. ``rounds`` holds the survivors
        after each round that deleted. The loop ends once every level was
        checked after the last deletion, mid-round if need be; a call after
        the fixpoint checks each level once and deletes nothing.

        With a stop mask the loop returns early once no masked row is alive;
        survivors only ever shrink, so an early exit is sound for callers
        that only care whether some masked row survives to the fixpoint.
        """
        clean = 0  # levels checked, without deleting, since the last deletion
        while clean < len(self.levels):
            if stop_mask is not None and not bool((self.alive & stop_mask).any()):
                return
            alive_rows, changed = np.flatnonzero(self.alive), False
            for n in self.levels:
                cols = [self.col[(name, n)] for name in ("class", "d", "req")] + [self.need]
                if len(alive_rows) < self.count:
                    cols = [col[alive_rows] for col in cols]
                uncovered = self._uncovered(cols[0], self.classes[n], *cols[1:], len(self.bodies)) \
                    if cols[1].any() else alive_rows[:0]
                if len(uncovered):
                    self.alive[alive_rows[uncovered]] = False
                    alive_rows = np.flatnonzero(self.alive)
                    changed, clean = True, 0
                else:
                    clean += 1
                    if clean == len(self.levels):
                        break
            if changed:
                self.rounds.append(int(self.alive.sum()))

    def refute(self, negated: Formula) -> Optional[int]:
        """First row holding the negated goal that survives elimination, or
        None when the goal holds throughout the canonical model.

        Elimination stops as soon as no row holding the negated goal is
        alive, so a theorem can end it before the fixpoint.
        """
        refuting = self.truth_column(negated)
        self.eliminate(stop_mask=refuting)
        rows = np.flatnonzero(refuting & self.alive)
        return int(rows[0]) if len(rows) else None

    _LATTICE_LIMIT = 1 << 24

    @classmethod
    def _table_fits(cls, slots: int, rows: int) -> bool:
        """Whether a table of class (and mask) slots fits ``_LATTICE_LIMIT``
        with at most 512 slots per row; past that, sorting the rows is cheaper."""
        return slots <= min(cls._LATTICE_LIMIT, rows << 9)

    @classmethod
    def _uncovered(cls, cls_id: np.ndarray, classes: int, d: np.ndarray, req: np.ndarray,
                   need: np.ndarray, width: int) -> np.ndarray:
        """Rows whose diamond mask is not covered by witnesses in their class.

        A witness for target mask D within a class is a row y with req(y) a
        subset of D and d(y) != D; it covers the diamond bits of need(y).
        Coverage is computed for every mask at once on a mask-major
        (2^width x classes) lattice of the masks' dtype: scatter the need
        masks to the req slots, take the strict-subset OR along the mask
        axis, and patch the diagonal slots, whose rows only count when d
        differs from req. A table smaller than the rows de-duplicates them.
        The lattice costs width passes over all its slots however few rows
        there are; where it does not fit, the cross join runs instead.
        """
        size = classes << width
        if not cls._table_fits(size, len(cls_id)):
            return cls._uncovered_crossjoin(cls_id, d, req, need)
        # Witnesses with d == req go to the first plane, the others to the
        # second, which then seeds the strict-subset OR as the diagonal patch.
        pair = req.astype(np.intp) * classes + cls_id + (d != req) * size
        if size << width + 1 < len(pair):
            seen = np.zeros(size << width + 1, dtype=bool)
            seen[pair << width | need] = True
            key = np.flatnonzero(seen)
            pair, need = key >> width, (key & (1 << width) - 1).astype(d.dtype)
        subset_or, strict = planes = np.zeros((2, size), dtype=d.dtype)
        np.bitwise_or.at(planes.reshape(-1), pair, need)
        subset_or |= strict
        for lattice in (subset_or, strict):  # subset OR in place, then one bit off it
            for b in range(width):
                shape = (1 << (width - b - 1), 2, classes << b)
                lattice.reshape(shape)[:, 1] |= subset_or.reshape(shape)[:, 0]
        cov = strict[d.astype(np.intp) * classes + cls_id]
        return np.flatnonzero(d & ~cov)

    @staticmethod
    def _uncovered_crossjoin(cls_id: np.ndarray, d: np.ndarray, req: np.ndarray,
                             need: np.ndarray) -> np.ndarray:
        """Fallback for lattices too large to materialize: ragged cross join
        of aggregated witness groups against distinct target profiles."""
        gorder = np.lexsort((d, req, cls_id))
        gcls, greq, gd, gneed = cls_id[gorder], req[gorder], d[gorder], need[gorder]
        gb = (gcls[1:] != gcls[:-1]) | (greq[1:] != greq[:-1]) | (gd[1:] != gd[:-1])
        gstarts = np.flatnonzero(np.concatenate(([True], gb)))
        gcls, greq, gd = gcls[gstarts], greq[gstarts], gd[gstarts]
        gneed = np.bitwise_or.reduceat(gneed, gstarts)

        torder = np.lexsort((d, cls_id))
        tcls, td = cls_id[torder], d[torder]
        tb = np.concatenate(([True], (tcls[1:] != tcls[:-1]) | (td[1:] != td[:-1])))
        profile_of = np.empty(len(cls_id), dtype=np.int64)
        profile_of[torder] = np.cumsum(tb) - 1
        pstarts = np.flatnonzero(tb)
        pcls, pd = tcls[pstarts], td[pstarts]

        class_start = np.searchsorted(gcls, pcls, side="left")
        class_end = np.searchsorted(gcls, pcls, side="right")
        gcount = class_end - class_start
        # pair each profile with every group of its class, group ids ascending
        pid = np.repeat(np.arange(len(pd)), gcount)
        gid = np.arange(len(pid)) + np.repeat(class_start - np.cumsum(gcount) + gcount, gcount)
        valid = ((greq[gid] & ~pd[pid]) == 0) & (gd[gid] != pd[pid])
        cov = np.zeros(len(pd), dtype=d.dtype)
        np.bitwise_or.at(cov, pid[valid], gneed[gid[valid]])
        return np.flatnonzero((d != 0) & ((d & ~cov[profile_of]) != 0))

    # ----- scalar queries -----

    def relation(self, i: int, j, n: int):
        """Canonical edge at level n from row i to row j, by packed masks: one
        class, req of j within d of i, and d differing. ``j`` may also be an
        index array or a slice, for a bool column over those rows."""
        d, cls_id = self.col[("d", n)], self.col[("class", n)]
        return (cls_id[j] == cls_id[i]) & (self.col[("req", n)][j] & ~d[i] == 0) & (d[j] != d[i])

    def find_witness(self, i: int, n: int, bit: int) -> Optional[int]:
        """Alive successor of row i at level n that holds the body of diamond
        bit ``bit``: the one with the fewest diamonds, then the lowest row."""
        ok = self.alive & self.relation(i, slice(None), n) & (self.need >> bit & 1 != 0)
        rows = np.flatnonzero(ok)
        dia_bits = np.uint64((1 << len(self.levels) * len(self.bodies)) - 1)  # below the variables
        diamonds = np.bitwise_count(self.words[rows] & dia_bits)
        return int(rows[np.argmin(diamonds)]) if len(rows) else None

    def witness_closure(self, root: int) -> list[int]:
        """Rows of the witness-closed generated submodel from the root row.

        Breadth first, with the chosen rows as the queue: each diamond of a
        chosen row, by ascending level and bit, takes the first chosen row
        that witnesses it, else the witness ``find_witness`` picks. Row y
        holds the body of diamond bit b exactly when bit b of need[y] is set,
        so no formula is evaluated.
        """
        chosen, need = [root], self.need
        for x in chosen:
            for n in self.levels:
                d_mask = int(self.col[("d", n)][x])
                for bit in (b for b in range(len(self.bodies)) if d_mask >> b & 1):
                    if not any(self.relation(x, y, n) and int(need[y]) >> bit & 1 for y in chosen):
                        found = self.find_witness(x, n, bit)
                        if found is None:
                            raise AssertionError("surviving world lost its witness")
                        chosen.append(found)
        return chosen

    def masks(self, rows: list[int]) -> tuple[dict[int, list[int]], dict[str, int]]:
        """The model over the given rows, as bitmasks over their positions.

        Per level, each row's successors among the rows; per variable name,
        the rows where it holds.
        """
        succ = {n: [sum(1 << j for j, b in enumerate(rows) if self.relation(a, b, n)) for a in rows]
                for n in self.levels}
        extension = {v.name: sum(1 << j for j, r in enumerate(rows)
                                 if int(self.words[r]) >> self.bit[v] & 1) for v in self.variables}
        return succ, extension
