"""Plain definitions the closure and the canonical engine are tested against.

``is_adequate`` checks the closure conditions on a formula set, and
``canonical_relation`` states the canonical edge over formula sets.
``reference_tokenize`` and ``reference_check_jstar_frame`` are the formula
tokenizer and the frame validator as first written, which the library's
versions must match exactly.
``assert_truth_lemma`` checks that satisfaction is membership in a canonical
model. From an engine's own calls, ``membership`` reads a candidate row's
formula set within a given closure, ``canonical_model`` builds that model,
and ``model_over`` any model over candidate rows.
"""

import string
from typing import Iterable, Optional

import numpy as np

from glpstar.formulas import (
    OMEGA, TOP, And, Dia, Formula, Neg, Or, Sort, _bodies, fold_boolean, modal_levels,
    modified_negation,
)
from glpstar.kripke import (
    CONDITION_II, CONDITION_III, IRREFLEXIVITY, TRANSITIVITY, Evaluator, KripkeModel, Violation,
    model_from_masks,
)
from glpstar.parsing import WHITESPACE, ParseError, _byte_span, _Token


def is_adequate(delta: Iterable[Formula]) -> bool:
    """Check adequacy directly against the closure conditions.

    Closure under subformulas is checked one step down: when every member's
    immediate children are members, so is every subtree, by induction on depth.
    The three closure rules, rediamonding and the two variable rules, are
    checked as one: the set holds <m>b for every body b (see ``_bodies``)
    and every present level m. The rules imply this grid, since a variable's
    rule puts its diamond at one present level and rediamonding then puts it
    at every one; the grid implies each rule directly.
    """
    dset = frozenset(delta)
    if TOP not in dset:
        return False
    for f in dset:
        if modified_negation(f) not in dset:
            return False
        if isinstance(f, (Neg, Dia)) and f.child not in dset:
            return False
        if isinstance(f, (And, Or)) and (f.left not in dset or f.right not in dset):
            return False
    levels = modal_levels(dset)
    return all(Dia(m, body) in dset for body in _bodies(dset, levels) for m in levels)


def canonical_relation(delta: Iterable[Formula], x: Iterable[Formula], y: Iterable[Formula], n: int) -> bool:
    """Reference implementation of the canonical edge test at level n.

    (1) a body in y whose level-n diamond is in the set forces that diamond
    into x; (2) a diamond in y at level k >= n forces its level-n twin into
    x; (3) x and y agree on all diamonds below n; (4) some level-n diamond
    separates x from y. Levels without diamonds in the set carry no edges.
    """
    dset = frozenset(delta)
    xset = frozenset(x)
    yset = frozenset(y)
    if n not in modal_levels(dset):
        return False
    dias = [f for f in dset if isinstance(f, Dia)]
    for f in dias:
        if f.index == n and f.child in yset and f not in xset:
            return False
        if f.index >= n and f in yset and Dia(n, f.child) not in xset:
            return False
        if f.index < n and (f in xset) != (f in yset):
            return False
    return any(f.index == n and f in xset and f not in yset for f in dias)


def membership(engine, delta: Iterable[Formula], i: int) -> frozenset[Formula]:
    """The members of ``delta`` that the engine's candidate row i holds.

    ``delta`` is the adequate closure of the set the engine was built from;
    the engine's atoms are its atoms, so each member is a fold over them."""
    row, memo = int(engine.words[i]), {}
    return frozenset(f for f in delta
                     if fold_boolean(f, memo, 1, lambda g: row >> engine.bit[g] & 1))


def model_over(engine, rows: list[int]) -> KripkeModel:
    """Kripke model over the given candidate rows, worlds named w0, w1, ...
    and rooted at the first row's world w0."""
    succ, extension = engine.masks(rows)
    return model_from_masks(len(rows), succ, extension, {v.name: v.sort for v in engine.variables}, 0)


def canonical_model(engine, delta: Iterable[Formula]) -> tuple[KripkeModel, dict[str, frozenset[Formula]]]:
    """The engine's canonical model, after running its elimination to the
    fixpoint, and each world's formula set within the closure ``delta``."""
    engine.eliminate()
    rows = [int(r) for r in np.flatnonzero(engine.alive)]
    model = model_over(engine, rows)
    return model, {f"w{k}": membership(engine, delta, r) for k, r in enumerate(rows)}


def assert_truth_lemma(model: KripkeModel, memberships: dict[str, frozenset[Formula]],
                       delta: frozenset[Formula]) -> None:
    if not model.worlds:
        return
    ev = Evaluator(model)
    for formula in delta:
        ext = ev.extension(formula)
        for w in model.worlds:
            holds = bool(ext >> ev.index[w] & 1)
            if holds != (formula in memberships[w]):
                raise AssertionError(
                    f"truth lemma failed at {w} for {formula!r}: "
                    f"satisfaction {holds}, membership {formula in memberships[w]}"
                )


_DIGITS = frozenset(string.digits)
_NAME_START = frozenset(string.ascii_letters + "_")
_NAME_CHARS = _NAME_START | _DIGITS


def reference_tokenize(text: str) -> list[_Token]:
    """The tokenizer as first written, one branch per character class."""
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in WHITESPACE:
            i += 1
            continue
        if c == "#":
            break
        if c in "()":
            tokens.append(_Token("lparen" if c == "(" else "rparen", c, i, i + 1))
            i += 1
            continue
        if c in "~¬":
            tokens.append(_Token("neg", "~", i, i + 1))
            i += 1
            continue
        if c in "&∧":
            tokens.append(_Token("and", "&", i, i + 1))
            i += 1
            continue
        if c in "|∨":
            tokens.append(_Token("or", "|", i, i + 1))
            i += 1
            continue
        if c == "→":
            tokens.append(_Token("implies", "->", i, i + 1))
            i += 1
            continue
        if c == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(_Token("implies", "->", i, i + 2))
                i += 2
                continue
            raise ParseError("stray '-'", _byte_span(text, i, i + 1))
        if c in "<◊" or c in "[□":
            kind = "dia" if c in "<◊" else "box"
            closer = ">" if c == "<" else "]" if c == "[" else None
            j = i + 1
            if j >= n or text[j] not in _DIGITS:
                raise ParseError("expected modality index", _byte_span(text, i, min(j + 1, n)))
            k = j
            while k < n and text[k] in _DIGITS:
                k += 1
            index = int(text[j:k])
            if closer is not None:
                if k >= n or text[k] != closer:
                    raise ParseError(f"expected '{closer}'", _byte_span(text, i, k))
                k += 1
            tokens.append(_Token(kind, index, i, k))
            i = k
            continue
        if c == "⊤" or c == "⊥":
            tokens.append(_Token("top" if c == "⊤" else "bot", c, i, i + 1))
            i += 1
            continue
        if c in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            name = text[i:j]
            if name == "T":
                tokens.append(_Token("top", name, i, j))
                i = j
                continue
            if name == "F":
                tokens.append(_Token("bot", name, i, j))
                i = j
                continue
            sort: Optional[Sort] = None
            end = j
            if j < n and text[j] == ":":
                k = j + 1
                if k < n and (text[k] == "w" or text[k] == "ω"):
                    sort = OMEGA
                    end = k + 1
                elif k < n and text[k] in _DIGITS:
                    m = k
                    while m < n and text[m] in _DIGITS:
                        m += 1
                    sort = int(text[k:m])
                    end = m
                else:
                    raise ParseError("expected sort after ':'", _byte_span(text, j, min(k + 1, n)))
            tokens.append(_Token("var", (name, sort), i, end))
            i = end
            continue
        raise ParseError(f"unexpected character {c!r}", _byte_span(text, i, i + 1))
    tokens.append(_Token("eof", None, n, n))
    return tokens


def reference_check_jstar_frame(model: KripkeModel) -> list[Violation]:
    """The frame validator as first written: every composite edge is found
    by scanning the whole sorted relation."""
    out: list[Violation] = []
    levels = sorted(model.relations)
    for n in levels:
        rel = model.relations[n]
        for x, y in sorted(rel):
            if x == y:
                out.append(Violation(IRREFLEXIVITY, (n,), (x,)))
        for x, y in sorted(rel):
            for y2, z in sorted(rel):
                if y2 == y and (x, z) not in rel:
                    out.append(Violation(TRANSITIVITY, (n,), (x, y, z)))
    for ni, n in enumerate(levels):
        rel_n = model.relations[n]
        for m in levels[:ni]:
            rel_m = model.relations[m]
            for x, y in sorted(rel_n):
                for z in model.worlds:
                    if ((x, z) in rel_m) != ((y, z) in rel_m):
                        out.append(Violation(CONDITION_II, (m, n), (x, y, z)))
            for x, y in sorted(rel_m):
                for y2, z in sorted(rel_n):
                    if y2 == y and (x, z) not in rel_m:
                        out.append(Violation(CONDITION_III, (m, n), (x, y, z)))
    return out
