"""Concrete syntax: formulas, Kripke model files, DOT export.

Formula grammar (ASCII, with unicode aliases accepted on input):

    formula  := disj ('->' formula)?          right associative
    disj     := conj ('|' conj)*               left associative
    conj     := prefix ('&' prefix)*           left associative
    prefix   := '~' prefix | '<n>' prefix | '[n]' prefix | atom
    atom     := 'T' | 'F' | name (':' sort)? | '(' formula ')'
    name     := [A-Za-z_][A-Za-z0-9_]*
    sort     := n | 'w'
    n        := [0-9]+

Numerals (modality indices, sorts, and the indices in model files and
proof files) are ASCII digits 0-9 only. The nine unicode aliases accepted
on input are '¬' for '~', '∧' for '&', '∨' for '|', '→' for '->',
'◊n' for '<n>', '□n' for '[n]', '⊤' for 'T', '⊥' for 'F' and 'ω' for the
sort 'w'. Whitespace is the six ASCII characters space, tab, newline,
carriage return, form feed and vertical tab; any other character outside
the grammar, non-ASCII spaces such as U+3000 included, is a ParseError.
In formula, model and proof files a line ends at \\n, \\r\\n or \\r only, and
the fields of a line are separated by that ASCII whitespace only.

A bare variable name defaults to sort omega. '[n]x' and 'x -> y' are read
as the core formulas ~<n>~x and ~x | y (built by :func:`formulas.Box` and
:func:`formulas.Implies`), so rendering a parsed formula shows them in
that form. Errors carry byte-offset spans into the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .formulas import (
    BOT,
    NAME_CHARS,
    NAME_START,
    OMEGA,
    TOP,
    WHITESPACE,
    And,
    Bot,
    Box,
    Dia,
    Formula,
    Implies,
    Neg,
    Or,
    Sort,
    Top,
    Var,
    children_first,
    is_variable_name,
    walk,
)
from .kripke import KripkeModel, is_world_name


class SourceSpan(NamedTuple):
    start: int
    end: int


class ParseError(ValueError):
    """Syntax or sort error, with a byte-offset span into the input."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (bytes {span.start}..{span.end})")
        self.message = message
        self.span = span


def _byte_span(text: str, start: int, end: int) -> SourceSpan:
    # token positions are tracked in characters; spans are reported in bytes
    b0 = len(text[:start].encode("utf-8"))
    b1 = b0 + len(text[start:end].encode("utf-8"))
    return SourceSpan(b0, b1)


@dataclass(slots=True)
class _Token:
    kind: str
    value: object
    start: int
    end: int


_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_SPACES = re.compile(f"[{re.escape(WHITESPACE)}]+")


def is_numeral(text: str) -> bool:
    """True for a nonempty string of ASCII digits 0-9."""
    return text.isascii() and text.isdigit()


def _read_sort(text: str, start: int) -> tuple[Optional[Sort], int]:
    """The sort written at ``start`` and the index after it: a numeral, or
    'w' (or 'ω') for omega; ``(None, start)`` when none is written there."""
    end = start
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end > start:
        return int(text[start:end]), end
    if text[start:start + 1] in ("w", "ω"):
        return OMEGA, start + 1
    return None, start


def split_lines(text: str) -> list[str]:
    """The lines of a file: a line ends at \\n, \\r\\n or \\r, nowhere else."""
    return _LINE_BREAK.split(text)


def strip_line(line: str) -> str:
    """A line without its '#' comment and surrounding ASCII whitespace."""
    return line.split("#", 1)[0].strip(WHITESPACE)


def split_fields(text: str) -> list[str]:
    """The fields of a text, separated by runs of ASCII whitespace."""
    return [field for field in _SPACES.split(text) if field]


def split_head(line: str) -> tuple[str, str]:
    """A stripped line's first field, and the rest after it ('' for none)."""
    head, rest = (_SPACES.split(line, maxsplit=1) + [""])[:2]
    return head, rest


# One-character tokens as (kind, value), and the modality openers as
# (kind, closer); '<n>' and '[n]' close, '◊n' and '□n' do not.
_SINGLE = {
    "(": ("lparen", "("), ")": ("rparen", ")"), "~": ("neg", "~"), "¬": ("neg", "~"),
    "&": ("and", "&"), "∧": ("and", "&"), "|": ("or", "|"), "∨": ("or", "|"),
    "→": ("implies", "->"), "⊤": ("top", "⊤"), "⊥": ("bot", "⊥"),
}
_MODALITY = {"<": ("dia", ">"), "◊": ("dia", None), "[": ("box", "]"), "□": ("box", None)}
_CONSTANTS = {"T": "top", "F": "bot"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in WHITESPACE:
            i += 1
        elif c in _SINGLE:
            kind, value = _SINGLE[c]
            tokens.append(_Token(kind, value, i, i + 1))
            i += 1
        elif c in _MODALITY:
            kind, closer = _MODALITY[c]
            index, k = _read_sort(text, i + 1)  # a modality index is a finite sort
            if index is None or index is OMEGA:
                raise ParseError("expected modality index", _byte_span(text, i, min(i + 2, n)))
            if closer is not None:
                if text[k:k + 1] != closer:
                    raise ParseError(f"expected '{closer}'", _byte_span(text, i, k))
                k += 1
            tokens.append(_Token(kind, index, i, k))
            i = k
        elif c == "-":
            if text[i + 1:i + 2] != ">":
                raise ParseError("stray '-'", _byte_span(text, i, i + 1))
            tokens.append(_Token("implies", "->", i, i + 2))
            i += 2
        elif c == "#":
            break
        elif c in NAME_START:
            end = i + 1
            while end < n and text[end] in NAME_CHARS:
                end += 1
            name = text[i:end]
            if name in _CONSTANTS:
                tokens.append(_Token(_CONSTANTS[name], name, i, end))
            else:
                sort = None
                if text[end:end + 1] == ":":
                    sort, after = _read_sort(text, end + 1)
                    if sort is None:
                        raise ParseError("expected sort after ':'", _byte_span(text, end, min(end + 2, n)))
                    end = after
                tokens.append(_Token("var", (name, sort), i, end))
            i = end
        else:
            raise ParseError(f"unexpected character {c!r}", _byte_span(text, i, i + 1))
    tokens.append(_Token("eof", None, n, n))
    return tokens


# Binary connectives by token kind: (precedence, right associative, node)
_BINARY_OPS = {"implies": (1, True, Implies), "or": (2, False, Or), "and": (3, False, And)}
_PREFIX_OPS = {"neg": lambda _, f: Neg(f), "dia": Dia, "box": Box}


class _Parser:
    """Operator-precedence parser with explicit stacks, so nesting depth is
    bounded by memory only. Tokens are consumed left to right, and each
    error is raised at the first token the grammar cannot accept."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.var_sorts: dict[str, Sort] = {}

    def error(self, message: str, tok: _Token):
        raise ParseError(message, _byte_span(self.text, tok.start, tok.end))

    def parse(self) -> Formula:
        # ops holds prefix tokens, binary token kinds and open parentheses
        # (None); each parenthesis and the whole input start a new group
        operands: list[Formula] = []
        ops: list = []
        tokens = iter(self.tokens)
        for tok in tokens:
            # an operand: prefix operators and open parentheses, then an atom
            while tok.kind in _PREFIX_OPS or tok.kind == "lparen":
                ops.append(tok if tok.kind in _PREFIX_OPS else None)
                tok = next(tokens)
            operands.append(self.atom(tok))
            # then closing parentheses and at most one binary operator
            while True:
                while ops and isinstance(ops[-1], _Token):
                    prefix = ops.pop()
                    operands[-1] = _PREFIX_OPS[prefix.kind](prefix.value, operands[-1])
                tok = next(tokens)
                # any other token ends the group: reduce it completely
                prec, right_assoc, _ = _BINARY_OPS.get(tok.kind, (0, False, None))
                while ops and ops[-1] is not None:
                    top, _, node = _BINARY_OPS[ops[-1]]
                    if top < prec or (top == prec and right_assoc):
                        break
                    ops.pop()
                    right = operands.pop()
                    operands[-1] = node(operands[-1], right)
                if prec:
                    ops.append(tok.kind)
                    break
                if tok.kind == "rparen" and ops:
                    ops.pop()
                    continue
                if ops:
                    self.error("expected ')'", tok)
                if tok.kind != "eof":
                    self.error("unexpected trailing input", tok)
                return operands[0]

    def atom(self, tok: _Token) -> Formula:
        if tok.kind == "top":
            return TOP
        if tok.kind == "bot":
            return BOT
        if tok.kind == "var":
            name, sort = tok.value
            if sort is None:
                sort = OMEGA
            if self.var_sorts.setdefault(name, sort) != sort:
                self.error(
                    f"variable {name!r} used with sorts "
                    f"{self.var_sorts[name]} and {sort}",
                    tok,
                )
            return Var(name, sort)
        self.error("expected a formula", tok)


def parse_formula(text: str) -> Formula:
    """Parse one formula."""
    return _Parser(text).parse()


def parse_formula_file(text: str) -> list[Formula]:
    """One formula per non-blank line; '#' starts a comment."""
    out = []
    for line in split_lines(text):
        stripped = strip_line(line)
        if stripped:
            out.append(parse_formula(stripped))
    return out


# Precedence of each node's own text; leaves are never parenthesized.
_PREC = {Or: 2, And: 3, Neg: 4, Dia: 4, Var: 5, Top: 5, Bot: 5}
_INFIX = {Or: " | ", And: " & "}


def render_formula(formula: Formula) -> str:
    """Surface syntax with minimal parentheses; parse_formula inverts it.

    Each distinct node is rendered once, children first
    (:func:`formulas.children_first`); a parent parenthesizes a child whose
    precedence is below the one its position needs. ``&`` and ``|`` group
    to the left, so the right side needs one more.
    """
    return _render_into(formula, {})


def _render_into(formula: Formula, text: dict[Formula, str]) -> str:
    """The formula's text, entering that of every node it adds to ``text``,
    a table of node texts that is read and extended."""

    def operand(f: Formula, prec: int) -> str:
        return f"({text[f]})" if _PREC[type(f)] < prec else text[f]

    for f in children_first(walk(formula, text)):
        cls = type(f)
        if cls is Var:
            out = f.name if f.sort is OMEGA else f"{f.name}:{f.sort}"
        elif cls is Top or cls is Bot:
            out = "T" if cls is Top else "F"
        elif cls is Neg:
            out = "~" + operand(f.child, 4)
        elif cls is Dia:
            out = f"<{f.index}>" + operand(f.child, 4)
        else:
            prec = _PREC[cls]
            out = operand(f.left, prec) + _INFIX[cls] + operand(f.right, prec + 1)
        text[f] = out
    return text[formula]


def parse_model(text: str) -> KripkeModel:
    """Parse the line-oriented model file format.

    Sections in any order: 'worlds a b ...', 'rel <n>: <x> <y>' (one pair per
    line), 'val <name>:<sort> = {w1, w2, ...}', optional 'root <w>'. A val
    name follows the formula grammar's name rule and is not T or F; a world
    name contains no ASCII whitespace, ',' or '#' (:func:`kripke.is_world_name`).
    """
    worlds: list[str] = []
    world_set: set[str] = set()
    relations: dict[int, set[tuple[str, str]]] = {}
    valuation: dict[str, frozenset[str]] = {}
    sorts: dict[str, Sort] = {}
    root: Optional[str] = None

    deferred_rel: list[tuple[int, str, str, int]] = []
    deferred_val: list[tuple[str, Sort, list[str], int]] = []
    deferred_root: Optional[tuple[str, int]] = None

    def err(message: str, lineno: int):
        raise ParseError(message, _line_span(text, lineno))

    for lineno, raw in enumerate(split_lines(text), start=1):
        line = strip_line(raw)
        if not line:
            continue
        head, rest = split_head(line)
        if head == "worlds":
            if not rest:
                err("empty worlds line", lineno)
            for name in split_fields(rest):
                if not is_world_name(name):
                    err(f"bad world name {name!r}", lineno)
                if name in world_set:
                    err(f"duplicate world name {name!r}", lineno)
                world_set.add(name)
                worlds.append(name)
        elif head == "rel":
            label, sep, pair = rest.partition(":")
            label = label.strip(WHITESPACE)
            if not sep or not is_numeral(label):
                err("expected 'rel <n>: <x> <y>'", lineno)
            parts = split_fields(pair)
            if len(parts) != 2:
                err("expected 'rel <n>: <x> <y>'", lineno)
            deferred_rel.append((int(label), parts[0], parts[1], lineno))
        elif head == "val":
            name_part, sep, set_part = rest.partition("=")
            if not sep:
                err("expected 'val <name>:<sort> = {..}'", lineno)
            vname, csep, sort_text = name_part.partition(":")
            if not csep:
                err("expected '<name>:<sort>' on val line", lineno)
            vname = vname.strip(WHITESPACE)
            if not is_variable_name(vname):
                err(f"bad variable name {vname!r}", lineno)
            sort_text = sort_text.strip(WHITESPACE)
            sort, end = _read_sort(sort_text, 0)
            if sort is None or end != len(sort_text):
                err(f"bad sort {sort_text!r}", lineno)
            set_part = set_part.strip(WHITESPACE)
            if not (set_part.startswith("{") and set_part.endswith("}")):
                err("expected world set in braces", lineno)
            members = [w for w in (w.strip(WHITESPACE) for w in set_part[1:-1].split(",")) if w]
            deferred_val.append((vname, sort, members, lineno))
        elif head == "root":
            if deferred_root is not None:
                err("duplicate root line", lineno)
            if len(split_fields(rest)) != 1:
                err("expected 'root <w>'", lineno)
            deferred_root = (rest, lineno)
        else:
            err(f"unknown section {head!r}", lineno)

    if not worlds:
        raise ParseError("no worlds declared", SourceSpan(0, 0))
    for index, x, y, lineno in deferred_rel:
        for w in (x, y):
            if w not in world_set:
                err(f"undeclared world {w!r}", lineno)
        relations.setdefault(index, set()).add((x, y))
    for vname, sort, members, lineno in deferred_val:
        if vname in valuation:
            err(f"duplicate valuation for {vname!r}", lineno)
        for w in members:
            if w not in world_set:
                err(f"undeclared world {w!r}", lineno)
        valuation[vname] = frozenset(members)
        sorts[vname] = sort
    if deferred_root is not None:
        name, lineno = deferred_root
        if name not in world_set:
            err(f"undeclared world {name!r}", lineno)
        root = name

    return KripkeModel(
        worlds=tuple(worlds),
        relations={n: frozenset(pairs) for n, pairs in relations.items()},
        valuation=valuation,
        sorts=sorts,
        root=root,
    )


def _line_span(text: str, lineno: int) -> SourceSpan:
    """Span of a line as numbered by :func:`split_lines`, without its break."""
    start = 0
    for _ in range(lineno - 1):
        start = _LINE_BREAK.search(text, start).end()
    found = _LINE_BREAK.search(text, start)
    return _byte_span(text, start, found.start() if found else len(text))


def render_model(model: KripkeModel) -> str:
    """Model file text; parse_model inverts it."""
    out = ["worlds " + " ".join(model.worlds)]
    for n in sorted(model.relations):
        for x, y in sorted(model.relations[n]):
            out.append(f"rel {n}: {x} {y}")
    for name in sorted(model.valuation):
        members = ", ".join(sorted(model.valuation[name]))
        out.append(f"val {name}:{model.sorts[name]} = {{{members}}}")
    if model.root is not None:
        out.append(f"root {model.root}")
    return "\n".join(out) + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(s: str) -> str:
    return '"' + _dot_escape(s) + '"'


def export_dot(model: KripkeModel, highlight: Optional[str] = None) -> str:
    """DOT digraph: edges labeled by modality, nodes annotated with true variables."""
    lines = ["digraph kripke {"]
    for w in model.worlds:
        trues = sorted(name for name, members in model.valuation.items() if w in members)
        label = _dot_escape(w)
        if trues:
            label += "\\n{" + ", ".join(_dot_escape(t) for t in trues) + "}"
        attrs = [f'label="{label}"']
        if highlight is not None and w == highlight:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgrey")
            attrs.append("peripheries=2")
        lines.append(f"  {_dot_quote(w)} [{', '.join(attrs)}];")
    for n in sorted(model.relations):
        for x, y in sorted(model.relations[n]):
            lines.append(f"  {_dot_quote(x)} -> {_dot_quote(y)} [label={_dot_quote(str(n))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_formula_set(formulas) -> str:
    """Deterministic listing of a formula set, one per line, in text order.

    The members share one table of node texts, so each distinct node is
    rendered once however many members hold it.
    """
    text: dict[Formula, str] = {}
    return "\n".join(sorted(_render_into(f, text) for f in formulas))
