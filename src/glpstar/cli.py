"""Command-line front end.

Exit status contract: 0 affirmative (theorem / valid / accepted / nothing
found), 1 negative (non-theorem / invalid / rejected / countermodel found),
2 usage or input error, 3 resource limit. Formula arguments are read from
the command line, or from a file when prefixed with '@' (one formula per
line, '#' comments; only `decide` takes more than one). `--format json`
emits one JSON object instead of text; for a resource limit it carries the
message and the closure's atom count, the candidate count reached and the
candidate cap (null where unknown). A `decide` batch gives each formula its
own outcome, a resource limit included, and exits with the worst outcome's
code (3 over 1 over 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .decide import SystemId, decide
from .formulas import Formula, adequate_closure, modal_levels, sort_of
from .hintikka import DEFAULT_CANDIDATE_CAP, ResourceLimitError
from .kripke import check_jstar_frame, check_strong_persistence, model_check, valid_in_model
from .oracle import SearchBudget, brute_force_countermodel
from .parsing import (
    ParseError,
    export_dot,
    is_numeral,
    parse_formula,
    parse_formula_file,
    parse_model,
    render_formula,
    render_formula_set,
    render_model,
)
from .proofs import ProofError, check_proof, parse_proof
from .reductions import (
    h_formula,
    m_formula,
    m_plus,
    n_formula,
    n_plus,
    occurring_modalities,
    r_theta,
    r_theta_plus,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path!r}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc}") from exc


def _read_formulas(arg: str) -> list[Formula]:
    if arg.startswith("@"):
        text = _read_text(arg[1:])
        try:
            formulas = parse_formula_file(text)
        except ParseError as exc:
            raise _UsageError(f"bad formula: {exc}") from exc
        if not formulas:
            raise _UsageError(f"no formulas in {arg[1:]!r}")
        return formulas
    return [_parse(arg)]


def _read_formula(arg: str) -> Formula:
    """The formula of a one-formula command; a file holding more is refused."""
    formulas = _read_formulas(arg)
    if len(formulas) > 1:
        raise _UsageError(f"{arg[1:]!r} holds {len(formulas)} formulas; this command takes one")
    return formulas[0]


def _parse(text: str) -> Formula:
    try:
        return parse_formula(text)
    except ParseError as exc:
        raise _UsageError(f"bad formula: {exc}") from exc


def _read_model(path: str):
    text = _read_text(path)
    try:
        return parse_model(text)
    except ParseError as exc:
        raise _UsageError(f"bad model file {path!r}: {exc}") from exc


def _model_json(model) -> dict:
    return {
        "worlds": list(model.worlds),
        "relations": {str(n): sorted(map(list, rel)) for n, rel in sorted(model.relations.items())},
        "valuation": {
            f"{name}:{model.sorts[name]}": sorted(model.valuation[name])
            for name in sorted(model.valuation)
        },
        "root": model.root,
    }


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        _out(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            _out(line)


def _out(text: str) -> None:
    """A line on stdout. Once the reader has closed it, the rest of the
    output is dropped, and the command still ends with its own exit code."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    # what stays buffered, and the flush at exit, go to devnull
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _cmd_decide(args) -> int:
    formulas = _read_formulas(args.formula)
    if len(formulas) > 1 and (args.countermodel or args.dot):
        raise _UsageError("--countermodel/--dot need a single formula argument")
    system = SystemId.parse(args.system)
    worst = EXIT_YES
    results = []
    for formula in formulas:
        try:
            verdict = decide(system, formula, via=args.via, candidate_cap=args.candidate_cap)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        except ResourceLimitError as exc:
            if len(formulas) == 1:
                raise
            # a batch goes on: the limit is this formula's outcome
            print(f"resource limit: {exc}", file=sys.stderr)
            results.append((formula, exc))
            worst = EXIT_RESOURCE
            continue
        results.append((formula, verdict))
        if not verdict.theorem:
            worst = max(worst, EXIT_NO)
        if args.verbose:
            stats = verdict.stats
            print(
                f"# {stats.atom_count} atoms, {stats.candidates} candidates; survivors per round: "
                f"{stats.rounds if stats.rounds else '[no eliminations]'}",
                file=sys.stderr,
            )
    single = results[0][1] if len(results) == 1 else None
    if single is not None and not single.theorem:
        if args.countermodel:
            _write_text(args.countermodel, render_model(single.countermodel))
        if args.dot:
            _write_text(args.dot, export_dot(single.countermodel, highlight=single.countermodel.root))
    if len(results) == 1:
        formula, verdict = results[0]
        payload = {
            "command": "decide",
            "system": system.value,
            "formula": render_formula(formula),
            "verdict": "theorem" if verdict.theorem else "non-theorem",
            "countermodel": _model_json(verdict.countermodel) if verdict.countermodel else None,
            "falsified": render_formula(verdict.falsified) if verdict.falsified else None,
            "stats": {
                "atoms": verdict.stats.atom_count,
                "candidates": verdict.stats.candidates,
                "rounds": verdict.stats.rounds,
            },
        }
        lines = ["theorem" if verdict.theorem else "non-theorem"]
        if not verdict.theorem and not args.countermodel:
            lines.append(render_model(verdict.countermodel).rstrip("\n"))
        _emit(args, payload, lines)
    else:
        entries = []
        for f, outcome in results:
            entry = {"formula": render_formula(f)}
            if isinstance(outcome, ResourceLimitError):
                entry.update(verdict="resource limit", **_limit_fields(outcome))
            else:
                entry["verdict"] = "theorem" if outcome.theorem else "non-theorem"
            entries.append(entry)
        payload = {"command": "decide", "system": system.value, "results": entries}
        _emit(args, payload, [f"{e['verdict']}  {e['formula']}" for e in entries])
    return worst


def _cmd_reduce(args) -> int:
    if args.theta is not None and args.kind not in ("rtheta", "rthetaplus"):
        raise _UsageError(f"--theta applies to the rtheta and rthetaplus kinds, not {args.kind}")
    formula = _read_formula(args.formula)
    theta = None
    if args.theta is not None:
        parts = args.theta.split(",")
        bad = [part for part in parts if not is_numeral(part)]
        if bad:
            raise _UsageError(f"bad --theta: {bad[0]!r} is not a modality index")
        theta = sorted({int(part) for part in parts})
    if args.kind in ("rtheta", "rthetaplus") and theta is None:
        theta = sorted(occurring_modalities(formula))
    builders = {
        "m": lambda: m_formula(formula),
        "mplus": lambda: m_plus(formula),
        "n": lambda: n_formula(formula),
        "nplus": lambda: n_plus(formula, args.nplus_variant),
        "h": lambda: h_formula(formula),
        "rtheta": lambda: r_theta(formula, theta),
        "rthetaplus": lambda: r_theta_plus(formula, theta),
    }
    out = builders[args.kind]()
    payload = {"command": "reduce", "kind": args.kind, "formula": render_formula(out)}
    if theta is not None:
        payload["theta"] = theta
    _emit(args, payload, [render_formula(out)])
    return EXIT_YES


def _cmd_modelcheck(args) -> int:
    model = _read_model(args.model)
    formula = _read_formula(args.formula)
    try:
        if args.world is not None:
            result = model_check(model, args.world, formula)
        else:
            result = valid_in_model(model, formula)
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc.args[0]) from exc
    payload = {
        "command": "modelcheck",
        "formula": render_formula(formula),
        "world": args.world,
        "result": result,
    }
    _emit(args, payload, ["true" if result else "false"])
    return EXIT_YES if result else EXIT_NO


def _cmd_validate(args) -> int:
    model = _read_model(args.model)
    frame_violations = check_jstar_frame(model)
    persistence_violations = check_strong_persistence(model)
    ok = not frame_violations and not persistence_violations
    payload = {
        "command": "validate",
        "frame_violations": [str(v) for v in frame_violations],
        "persistence_violations": [str(v) for v in persistence_violations],
        "valid": ok,
    }
    lines = []
    if ok:
        lines.append("valid")
    else:
        lines.extend(f"frame: {v}" for v in frame_violations)
        lines.extend(f"persistence: {v}" for v in persistence_violations)
    _emit(args, payload, lines)
    return EXIT_YES if ok else EXIT_NO


def _cmd_closure(args) -> int:
    formula = _read_formula(args.formula)
    delta = adequate_closure({formula})
    levels = sorted(modal_levels(delta))
    members = render_formula_set(delta).splitlines()
    payload = {"command": "closure", "formulas": members, "levels": levels}
    lines = members + ["levels: " + (" ".join(map(str, levels)) if levels else "(none)")]
    _emit(args, payload, lines)
    return EXIT_YES


def _cmd_sort(args) -> int:
    formula = _read_formula(args.formula)
    s = sort_of(formula)
    payload = {"command": "sort", "sort": str(s)}
    _emit(args, payload, [str(s)])
    return EXIT_YES


def _cmd_checkproof(args) -> int:
    text = _read_text(args.prooffile)
    try:
        proof = parse_proof(text)
    except ProofError as exc:
        raise _UsageError(str(exc)) from exc
    result = check_proof(proof, loeb_literal=args.loeb_literal)
    payload = {
        "command": "checkproof",
        "system": proof.system.value,
        "accepted": result.accepted,
        "line": result.line,
        "reason": result.reason,
    }
    if result.accepted:
        lines = ["accepted"]
    else:
        lines = [f"rejected at line {result.line}: {result.reason}"]
    _emit(args, payload, lines)
    return EXIT_YES if result.accepted else EXIT_NO


def _cmd_oracle(args) -> int:
    formula = _read_formula(args.formula)
    try:
        budget = SearchBudget(max_worlds=args.max_worlds, max_models=args.max_models)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    result = brute_force_countermodel(formula, budget)
    payload = {
        "command": "oracle",
        "formula": render_formula(formula),
        "found": result.found,
        "truncated": result.truncated,
        "models_examined": result.models_examined,
        "by_worlds": [count._asdict() for count in result.by_worlds],
        "countermodel": _model_json(result.model) if result.found else None,
        "world": result.world,
    }
    if result.found:
        lines = [f"countermodel found (falsified at {result.world})",
                 render_model(result.model).rstrip("\n")]
        if args.dot:
            _write_text(args.dot, export_dot(result.model, highlight=result.world))
    else:
        note = "search truncated by budget" if result.truncated else "search exhausted the budgeted space"
        lines = [f"no countermodel found ({note}; this is not a validity proof)"]
    _emit(args, payload, lines)
    return EXIT_NO if result.found else EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glpstar",
        description="Decision procedures, model checking and proof checking "
                    "for sorted polymodal provability logics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("decide", help="decide a formula in one of the four systems")
    p.add_argument("--system", required=True, choices=["jstar", "glpstar", "glp", "glpsstar"])
    p.add_argument("--via", choices=["mplus", "nplus"], default="mplus")
    p.add_argument("--countermodel", metavar="OUT.model")
    p.add_argument("--dot", metavar="OUT.dot")
    p.add_argument("--candidate-cap", type=int, default=DEFAULT_CANDIDATE_CAP)
    p.add_argument("--verbose", action="store_true", help="stream elimination statistics")
    p.add_argument("formula", metavar="FORMULA|@FILE")
    add_format(p)
    p.set_defaults(run=_cmd_decide)

    p = sub.add_parser("reduce", help="print a reduction formula")
    p.add_argument("--kind", required=True,
                   choices=["m", "mplus", "n", "nplus", "h", "rtheta", "rthetaplus"])
    p.add_argument("--theta", help="comma-separated modality set for the r kinds")
    p.add_argument("--nplus-variant", choices=["default", "literal"], default="default")
    p.add_argument("formula", metavar="FORMULA|@FILE")
    add_format(p)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("modelcheck", help="evaluate a formula in a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--world")
    p.add_argument("formula", metavar="FORMULA|@FILE")
    add_format(p)
    p.set_defaults(run=_cmd_modelcheck)

    p = sub.add_parser("validate", help="frame and persistence reports for a model file")
    p.add_argument("--model", required=True)
    add_format(p)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("closure", help="print the adequate closure and its levels")
    p.add_argument("formula", metavar="FORMULA|@FILE")
    add_format(p)
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("sort", help="print the sort of a formula")
    p.add_argument("formula", metavar="FORMULA|@FILE")
    add_format(p)
    p.set_defaults(run=_cmd_sort)

    p = sub.add_parser("checkproof", help="check a proof file")
    p.add_argument("--loeb-literal", action="store_true",
                   help="match the printed variant of the well-foundedness axiom")
    p.add_argument("prooffile")
    add_format(p)
    p.set_defaults(run=_cmd_checkproof)

    p = sub.add_parser("oracle", help="brute-force countermodel search")
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--max-models", type=int, default=10_000_000)
    p.add_argument("--dot", metavar="OUT.dot")
    p.add_argument("formula", metavar="FORMULA|@FILE")
    add_format(p)
    p.set_defaults(run=_cmd_oracle)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_YES
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        return _resource_limit(args, exc)


def _limit_fields(exc: ResourceLimitError) -> dict:
    return {"message": str(exc), "atoms": exc.atoms, "candidates": exc.candidates, "cap": exc.cap}


def _resource_limit(args, exc: ResourceLimitError) -> int:
    """One stderr line, and under --format json the structured cause on stdout."""
    print(f"resource limit: {exc}", file=sys.stderr)
    if args.format == "json":
        _out(json.dumps({"command": args.command, "error": "resource limit", **_limit_fields(exc)},
                        indent=2, sort_keys=True))
    return EXIT_RESOURCE


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    sys.exit(code)


if __name__ == "__main__":
    main()
