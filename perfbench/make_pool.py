"""Write a workload's pool file with reference verdicts.

Usage, from the repository root:

    python3 perfbench/make_pool.py small-mixed

Formulas come from the workload's generator settings and pool seed. Each is
rendered to text and kept only if parsing the text gives the formula back
exactly; duplicates are dropped. Every system's verdict is recorded as T, N
or C (the decide call hit its candidate cap), with the closure's atom count
and a reference cost that only groups formulas of similar cost: the CPU
milliseconds decide took on the machine that wrote the pool, or for the
oracle the models an exhaustive search examined. The oracle pool keeps J*
formulas on which the search within ORACLE_MAX_WORLDS worlds is conclusive
and agrees with decide, and ends within POOL_MAX_MODELS models. A workload
with ``max_atoms`` keeps formulas whose closures stay within it on every
system. The count of formulas skipped for each reason is printed.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import glpstar  # noqa: E402
from glpstar import formulas as lib  # noqa: E402

from workloads import (  # noqa: E402
    ORACLE_MAX_WORLDS,
    WORKLOADS,
    format_pool_line,
    gen_sorted_formula,
    pool_path,
)

POOL_MAX_MODELS = 100_000


def closure_atoms(system: str, formula) -> int:
    """Atom count (variables and diamonds) of decide's adequate closure."""
    target = glpstar.reduction_target(glpstar.SystemId.parse(system), formula)
    negated = glpstar.modified_negation(target)
    delta = glpstar.adequate_closure({negated} | glpstar.subformulas(target))
    return sum(isinstance(f, (lib.Var, lib.Dia)) for f in delta)


def reference(system: str, formula) -> tuple[str, int, float]:
    """Verdict code, closure atom count and CPU milliseconds of one decide."""
    cpu0 = time.process_time()
    try:
        verdict = glpstar.decide(system, formula)
    except glpstar.ResourceLimitError:
        verdict = None
    cost = (time.process_time() - cpu0) * 1e3
    if verdict is None:
        return "C", closure_atoms(system, formula), cost
    return ("T" if verdict.theorem else "N"), verdict.stats.atom_count, cost


def oracle_models(formula, theorem: bool) -> int | str:
    """Models examined by a conclusive agreeing search, else a skip reason."""
    budget = glpstar.SearchBudget(max_worlds=ORACLE_MAX_WORLDS, max_models=POOL_MAX_MODELS)
    result = glpstar.brute_force_countermodel(formula, budget)
    if result.truncated:
        return "search over budget"
    if result.found == theorem:
        return "oracle disagrees with decide"
    return result.models_examined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    rng = random.Random(workload.pool_seed)
    seen: set[str] = set()
    skipped: Counter = Counter()
    lines = [
        f"# {workload.name}: depth {workload.depth}, at most {workload.max_vars} variables, "
        f"modalities {list(workload.mods)}, systems {list(workload.systems)}, "
        f"pool seed {workload.pool_seed}\n",
        "# verdicts\tatoms\treference cost (CPU ms, or oracle models)\tformula\n",
    ]
    while len(lines) - 2 < workload.pool_size:
        formula = gen_sorted_formula(rng, lib, workload.depth, workload.max_vars, workload.mods)
        text = glpstar.render_formula(formula)
        if text in seen:
            skipped["duplicate"] += 1
            continue
        seen.add(text)
        if glpstar.parse_formula(text) != formula:
            skipped["render/parse round trip differs"] += 1
            continue
        refs = [reference(s, formula) for s in workload.systems]
        if workload.max_atoms is not None and max(a for _, a, _ in refs) > workload.max_atoms:
            skipped[f"closure above {workload.max_atoms} atoms"] += 1
            continue
        verdicts = "".join(v for v, _, _ in refs)
        costs = [c for _, _, c in refs]
        if workload.kind == "oracle":
            if verdicts == "C":
                skipped["capped"] += 1
                continue
            outcome = oracle_models(formula, verdicts == "T")
            if isinstance(outcome, str):
                skipped[outcome] += 1
                continue
            costs = [outcome]
        lines.append(format_pool_line(verdicts, [a for _, a, _ in refs], costs, text))
        if (len(lines) - 2) % 100 == 0:
            print(f"{len(lines) - 2} formulas", file=sys.stderr, flush=True)
    pool_path(workload).write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines) - 2} formulas to {pool_path(workload)}; skipped {dict(skipped)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
