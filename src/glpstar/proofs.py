"""Hilbert-style proof objects and the axiom-schema checker.

Proof files are line oriented:

    system glpstar
    goal <0>p -> [1]<0>p
    1. <1>~<0>p -> ~<0>p ; ax sigma
    2. (<1>~<0>p -> ~<0>p) -> (<0>p -> [1]<0>p) ; ax taut
    3. <0>p -> [1]<0>p ; mp 1 2

Justifications: `ax <scheme>`, `mp <i> <j>` (line j is the implication),
`mono <i> <n>` (from x -> y infer <n>x -> <n>y), `nec <i> <n>` (infer
[n] of line i). Scheme ids: taut, dist, boxtop, loeb, persist, mono,
sigma, transit, refl.

Scheme availability mirrors the axiomatizations: the base system swaps
monotonicity for the transit scheme, the starred systems derive persistence
instead of assuming it, and the truth system adds refl but only admits
modus ponens. Tautologies are recognized by truth table over the maximal
non-boolean subformulas (at most 16 of them).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional, Union

from .decide import SystemId
from .formulas import (
    And,
    Box,
    Dia,
    Formula,
    Implies,
    Neg,
    Or,
    Top,
    Var,
    fold_boolean,
    sort_of,
    walk,
)
from .parsing import (
    WHITESPACE,
    ParseError,
    is_numeral,
    parse_formula,
    split_fields,
    split_head,
    split_lines,
    strip_line,
)

SCHEME_IDS = ("taut", "dist", "boxtop", "loeb", "persist", "mono", "sigma", "transit", "refl")

SYSTEM_SCHEMES: dict[SystemId, frozenset[str]] = {
    SystemId.GLP: frozenset({"taut", "dist", "boxtop", "loeb", "persist", "mono"}),
    SystemId.GLPSTAR: frozenset({"taut", "dist", "boxtop", "loeb", "mono", "sigma"}),
    SystemId.JSTAR: frozenset({"taut", "dist", "boxtop", "loeb", "sigma", "transit"}),
    SystemId.GLPSSTAR: frozenset({"taut", "dist", "boxtop", "loeb", "mono", "sigma", "refl"}),
}

# the truth system is closed under modus ponens only
MODAL_RULE_SYSTEMS = frozenset({SystemId.GLP, SystemId.GLPSTAR, SystemId.JSTAR})

TAUT_ATOM_LIMIT = 16


class SchemeUnavailableError(LookupError):
    pass


class ProofError(ValueError):
    pass


@dataclass(frozen=True)
class Axiom:
    scheme: str


@dataclass(frozen=True)
class ModusPonens:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class DiaMono:
    premise: int
    modality: int


@dataclass(frozen=True)
class Necessitation:
    premise: int
    modality: int


Justification = Union[Axiom, ModusPonens, DiaMono, Necessitation]


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofObject:
    system: SystemId
    lines: tuple[ProofLine, ...]
    goal: Formula


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    line: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self):
        return self.accepted


def is_tautology(formula: Formula) -> bool:
    """Truth-table check over the maximal non-boolean subformulas.

    The table is bit-parallel: with n atoms, each column is one 2^n-bit
    integer whose bit j is the value under assignment j, and atom i is true
    where bit i of j is set. The formula is a tautology when its column is
    all ones.
    """
    atoms = [f for f in walk(formula, dia_leaves=True) if type(f) in (Var, Dia)]
    if len(atoms) > TAUT_ATOM_LIMIT:
        raise ProofError(f"tautology check limited to {TAUT_ATOM_LIMIT} atoms, got {len(atoms)}")
    rows = 1 << len(atoms)
    full = (1 << rows) - 1
    column = {}
    for i, f in enumerate(atoms):
        half = 1 << i  # runs of 2^i false then 2^i true assignments
        column[f] = full // ((1 << 2 * half) - 1) * ((1 << half) - 1) << half
    return fold_boolean(formula, {}, full, column.__getitem__) == full


def _as_implication(formula: Formula) -> Optional[tuple[Formula, Formula]]:
    if isinstance(formula, Or) and isinstance(formula.left, Neg):
        return formula.left.child, formula.right
    return None


def match_axiom(formula: Formula, scheme: str, system: SystemId, *,
                loeb_literal: bool = False) -> bool:
    """Instance test for one axiom scheme, with its side conditions."""
    if scheme not in SCHEME_IDS:
        raise SchemeUnavailableError(f"unknown scheme {scheme!r}")
    if scheme not in SYSTEM_SCHEMES[system]:
        raise SchemeUnavailableError(f"scheme {scheme!r} not available in {system.value}")
    if scheme == "taut":
        return is_tautology(formula)
    imp = _as_implication(formula)
    if scheme == "boxtop":
        return (isinstance(formula, Neg) and isinstance(formula.child, Dia)
                and formula.child.child == Neg(Top()))
    if imp is None:
        return False
    ante, cons = imp
    if scheme == "dist":
        return (
            isinstance(ante, Dia)
            and isinstance(ante.child, Or)
            and cons == Or(Dia(ante.index, ante.child.left), Dia(ante.index, ante.child.right))
        )
    if scheme == "loeb":
        if not (isinstance(ante, Dia) and isinstance(cons, Dia) and ante.index == cons.index):
            return False
        n, body = ante.index, ante.child
        if loeb_literal:
            return cons.child == And(body, Dia(n, Neg(body)))
        return cons.child == And(body, Neg(Dia(n, body)))
    if scheme == "persist":
        if not (isinstance(ante, Dia) and isinstance(cons, Neg)):
            return False
        inner = cons.child
        return (
            isinstance(inner, Dia)
            and isinstance(inner.child, Neg)
            and inner.child.child == ante
            and ante.index < inner.index
        )
    if scheme == "mono":
        return (
            isinstance(ante, Dia)
            and isinstance(cons, Dia)
            and ante.child == cons.child
            and cons.index < ante.index
        )
    if scheme == "sigma":
        if not isinstance(ante, Dia) or ante.child != cons:
            return False
        return sort_of(cons) <= ante.index
    if scheme == "transit":
        return (
            isinstance(ante, Dia)
            and isinstance(ante.child, Dia)
            and isinstance(cons, Dia)
            and ante.index == cons.index
            and ante.child.child == cons.child
            and ante.index < ante.child.index
        )
    if scheme == "refl":
        return isinstance(cons, Dia) and cons.child == ante
    raise AssertionError(scheme)


def check_proof(proof: ProofObject, *, loeb_literal: bool = False) -> CheckResult:
    """Validate every line; report the first failure with its reason."""
    if not proof.lines:
        return CheckResult(False, None, "empty proof")
    by_index: dict[int, Formula] = {}
    for line in proof.lines:
        f = line.formula
        just = line.justification
        reason = None
        if isinstance(just, Axiom):
            try:
                if not match_axiom(f, just.scheme, proof.system, loeb_literal=loeb_literal):
                    reason = f"not an instance of scheme {just.scheme}"
            except (SchemeUnavailableError, ProofError) as exc:
                reason = str(exc)
        elif isinstance(just, ModusPonens):
            ante = by_index.get(just.antecedent)
            impl = by_index.get(just.implication)
            if ante is None or impl is None:
                reason = "modus ponens cites a line that is not above this one"
            elif impl != Implies(ante, f):
                reason = "cited implication does not match antecedent and conclusion"
        elif isinstance(just, DiaMono):
            if proof.system not in MODAL_RULE_SYSTEMS:
                reason = f"the diamond rule is unavailable in {proof.system.value}"
            else:
                premise = by_index.get(just.premise)
                pair = _as_implication(premise) if premise is not None else None
                if premise is None:
                    reason = "diamond rule cites a line that is not above this one"
                elif pair is None:
                    reason = "diamond rule needs an implication premise"
                else:
                    a, b = pair
                    n = just.modality
                    if f != Implies(Dia(n, a), Dia(n, b)):
                        reason = "conclusion is not the diamond image of the premise"
        elif isinstance(just, Necessitation):
            if proof.system not in MODAL_RULE_SYSTEMS:
                reason = f"necessitation is unavailable in {proof.system.value}"
            else:
                premise = by_index.get(just.premise)
                if premise is None:
                    reason = "necessitation cites a line that is not above this one"
                elif f != Box(just.modality, premise):
                    reason = "conclusion is not the boxed premise"
        else:
            reason = f"unknown justification {just!r}"
        if reason is not None:
            return CheckResult(False, line.index, reason)
        by_index[line.index] = f
    if proof.lines[-1].formula != proof.goal:
        return CheckResult(False, proof.lines[-1].index, "last line differs from the goal")
    return CheckResult(True)


def parse_proof(text: str) -> ProofObject:
    """Parse the proof file format; raises ProofError with the line number."""
    system: Optional[SystemId] = None
    goal: Optional[Formula] = None
    lines: list[ProofLine] = []
    last_index = 0
    for lineno, raw in enumerate(split_lines(text), start=1):
        stripped = strip_line(raw)
        if not stripped:
            continue

        def err(message: str):
            raise ProofError(f"line {lineno}: {message}")

        keyword, rest = split_head(stripped)
        if keyword == "system":
            if system is not None:
                err("duplicate system line")
            try:
                system = SystemId.parse(rest)
            except ValueError as exc:
                err(str(exc))
            continue
        if keyword == "goal":
            if goal is not None:
                err("duplicate goal line")
            try:
                goal = parse_formula(rest)
            except ParseError as exc:
                err(f"bad goal formula: {exc}")
            continue
        head, sep, just_text = stripped.partition(";")
        if not sep:
            err("expected '<index>. <formula> ; <justification>'")
        index_text, dot, formula_text = head.partition(".")
        index_text = index_text.strip(WHITESPACE)
        if not dot or not is_numeral(index_text):
            err("expected a numbered line like '3. <formula> ; mp 1 2'")
        index = int(index_text)
        if index <= last_index:
            err("line indices must increase")
        try:
            formula = parse_formula(formula_text)
        except ParseError as exc:
            err(f"bad formula: {exc}")
        parts = split_fields(just_text)
        if not parts:
            err("missing justification")
        kind = parts[0]
        just: Optional[Justification] = None
        if kind == "ax" and len(parts) == 2:
            just = Axiom(parts[1])
        elif kind == "mp" and len(parts) == 3 and all(is_numeral(p) for p in parts[1:]):
            just = ModusPonens(int(parts[1]), int(parts[2]))
        elif kind == "mono" and len(parts) == 3 and all(is_numeral(p) for p in parts[1:]):
            just = DiaMono(int(parts[1]), int(parts[2]))
        elif kind == "nec" and len(parts) == 3 and all(is_numeral(p) for p in parts[1:]):
            just = Necessitation(int(parts[1]), int(parts[2]))
        else:
            err(f"bad justification {just_text.strip(WHITESPACE)!r}")
        for cited in _cited_indices(just):
            if cited >= index:
                err("cited indices must be smaller than the line's own index")
        lines.append(ProofLine(index, formula, just))
        last_index = index
    if system is None:
        raise ProofError("missing 'system' header")
    if goal is None:
        raise ProofError("missing 'goal' header")
    if not lines:
        raise ProofError("no proof lines")
    return ProofObject(system=system, lines=tuple(lines), goal=goal)


def _cited_indices(just: Justification) -> tuple[int, ...]:
    if isinstance(just, ModusPonens):
        return (just.antecedent, just.implication)
    if isinstance(just, (DiaMono, Necessitation)):
        return (just.premise,)
    return ()


def corpus_proofs() -> list[tuple[str, str]]:
    """The bundled (name, text) proof corpus, sorted by name."""
    base = resources.files("glpstar") / "corpus"
    out = []
    for entry in base.iterdir():
        if entry.name.endswith(".proof"):
            out.append((entry.name, entry.read_text(encoding="utf-8")))
    return sorted(out)
