"""Seeded decide/oracle benchmark for glpstar.

Run from the repository root:

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` next to this directory. The run
measures set-up time in fresh interpreters, then times the calls of
round(--seconds / block_seconds) seeded blocks (about ``--seconds`` when
the benchmark was written), checks every result, and prints one JSON
object as its last line. Calls are timed in process CPU time: the library
computes in one thread without I/O, so on an idle machine a call's wall
time equals its CPU time, while on a shared host the CPU time leaves out
the time other processes held the core. Every block holds the same mix of
inputs, and the latency and throughput metrics are medians over the run's
blocks. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
per-layer metrics from a traced pass, whose CPU time is compared with an
untraced pass over the same calls in a fresh process.
The exit code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from measure import (
    END_TO_END_UNITS,
    PER_CALL_COUNTS,
    PER_LAYER_UNITS,
    SELF_METRICS,
    classify_cap,
    outcome_code,
    percentile,
    reference_failure,
    tail_percentile,
)
from tracer import Tracer, instrument, self_times
from workloads import (
    ORACLE_MAX_WORLDS,
    WORKLOADS,
    Item,
    Workload,
    blocks,
    blocks_per_run,
    load_pool,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
# Outside every workload: the generator only uses the variables p, q and r.
WARMUP_FORMULA = "[1](s:1 -> <0>t) -> <2>s:1 | ~<0>t"
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import glpstar; "
    "glpstar.decide('glpstar', glpstar.parse_formula(sys.argv[2]))"
)
# A pass runs a fixed number of blocks, but stops mid-block after
# HARD_FACTOR times --seconds, so a much slower program still ends.
HARD_FACTOR = 2.5
NPLUS_CHECKS = 200


@dataclass
class Call:
    item: Item
    block: int
    cpu: float  # process CPU seconds of the call
    outcome: object  # Verdict, SearchResult or the exception raised


@dataclass
class Pass:
    calls: list[Call]
    elapsed: float
    cpu: float
    peak_rss_mb: float
    stopped_early: bool


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing glpstar and deciding once."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), WARMUP_FORMULA],
            check=True, timeout=120, cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_pass(workload: Workload, seed: int, seconds: float, tracer=None,
               limit: int | None = None) -> Pass:
    """Time the calls of the run's blocks (or of its first `limit` calls)."""
    parsing = sys.modules["glpstar.parsing"]
    decide_mod = sys.modules["glpstar.decide"]
    oracle = sys.modules["glpstar.oracle"]
    budget = oracle.SearchBudget(max_worlds=ORACLE_MAX_WORLDS)
    is_oracle = workload.kind == "oracle"
    stream = blocks(load_pool(workload), workload, seed)
    items = [(b, item) for b in range(blocks_per_run(workload, seconds)) for item in next(stream)]
    calls: list[Call] = []
    clock, cpu_clock = time.perf_counter, time.process_time
    cpu0 = cpu_clock()
    start = clock()
    hard = start + HARD_FACTOR * seconds
    stopped_early = False
    for block, item in items[:limit]:
        if tracer is not None:
            tracer.call_id = len(calls)
        t0 = cpu_clock()
        try:
            if is_oracle:
                outcome = oracle.brute_force_countermodel(parsing.parse_formula(item.text), budget)
            else:
                outcome = decide_mod.decide(item.system, parsing.parse_formula(item.text))
        except Exception as exc:  # recorded and reported as a failed call
            outcome = exc
        calls.append(Call(item, block, cpu_clock() - t0, outcome))
        if clock() > hard:
            stopped_early = True
            break
    elapsed, cpu = clock() - start, cpu_clock() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Pass(calls, elapsed, cpu, rss_mb, stopped_early)


def check(workload: Workload, run: Pass) -> tuple[dict[int, str], list[int]]:
    """Every correctness gate, run after the timed pass.

    Returns the failure message per failed call, and the closure atom counts
    of the decide verdicts seen (the timed ones, or on the oracle workload
    those of the cross-check).
    """
    import glpstar
    from glpstar.kripke import check_jstar_frame, check_strong_persistence, model_check

    failures: dict[int, str] = {}
    atoms: list[int] = []
    for k, call in enumerate(run.calls):
        got = outcome_code(call.outcome, workload.kind)
        why = reference_failure(call.item.verdict, got)
        if why:
            if isinstance(call.outcome, BaseException):
                why += ": " + "".join(traceback.format_exception_only(call.outcome)).strip()
            failures[k] = why
            continue
        if got not in "TN":
            continue
        if workload.kind == "oracle":
            formula = glpstar.parse_formula(call.item.text)
            verdict = glpstar.decide("jstar", formula)
            atoms.append(verdict.stats.atom_count)
            if verdict.theorem != (got == "T"):
                failures[k] = "oracle and decide disagree"
                continue
            model, world = call.outcome.model, call.outcome.world
        else:
            atoms.append(call.outcome.stats.atom_count)
            formula, model = call.outcome.falsified, call.outcome.countermodel
            world = model.root if model is not None else None
        if got == "T":
            continue
        if model is None or world is None or model_check(model, world, formula):
            failures[k] = "countermodel does not refute"
        elif check_jstar_frame(model) or check_strong_persistence(model):
            failures[k] = "countermodel fails a validator"
    if workload.name == "small-mixed":
        failures.update(check_routes(run))
    return failures, atoms


def check_routes(run: Pass) -> dict[int, str]:
    """GLP* verdicts agree between the M+ and N+ reductions."""
    import glpstar

    failures = {}
    checked = 0
    for k, call in enumerate(run.calls):
        if checked == NPLUS_CHECKS:
            break
        if call.item.system != "glpstar" or outcome_code(call.outcome, "decide") not in "TN":
            continue
        checked += 1
        try:
            nplus = glpstar.decide("glpstar", glpstar.parse_formula(call.item.text), via="nplus")
        except glpstar.ResourceLimitError:
            continue
        if nplus.theorem != call.outcome.theorem:
            failures[k] = "mplus and nplus verdicts differ"
    return failures


def end_to_end(workload: Workload, run: Pass, setup_s: float, atoms: list[int]) -> dict:
    n = len(run.calls)
    cpus = [c.cpu * 1e3 for c in run.calls]
    by_block: dict[int, list[float]] = {}
    for c in run.calls:
        by_block.setdefault(c.block, []).append(c.cpu)
    decided = sum(outcome_code(c.outcome, workload.kind) in "TN" for c in run.calls)
    return {
        "setup_s": setup_s,
        "p50_cpu_ms": statistics.median(statistics.median(b) * 1e3 for b in by_block.values()),
        "tail_cpu_ms": percentile(cpus, workload.tail_pct),
        "throughput_cpu_fps": statistics.median(len(b) / sum(b) for b in by_block.values()),
        "work_cpu_s": run.cpu,
        "decided_share": decided / n,
        "ceiling_atoms": float(max(atoms, default=0)),
    }


def per_layer(workload: Workload, run: Pass, tracer: Tracer, untraced: list[float]) -> dict:
    import glpstar
    from glpstar import hintikka

    n = len(run.calls)
    self_s, wall_s, span_count = self_times(
        tracer.names, tracer.label, tracer.start, tracer.end, tracer.parent
    )
    out = {metric: self_s.get(span, 0.0) / n for span, metric in SELF_METRICS.items()}
    search = wall_s.get("oracle.search", 0.0)
    decide_wall = wall_s.get("decide.decide", 0.0)
    out["oracle.search_s"] = search / n
    counts = dict.fromkeys(PER_CALL_COUNTS, 0)
    counts["kripke.model_checks"] = span_count.get("kripke.model_check", 0)
    cap = glpstar.DEFAULT_CANDIDATE_CAP
    slack = getattr(hintikka, "_SPACE_SLACK", None)
    for call in run.calls:
        o = call.outcome
        if workload.kind == "oracle":
            if not isinstance(o, BaseException):
                counts["oracle.models_examined"] += o.models_examined
                counts["oracle.truncated"] += int(o.truncated)
            continue
        if isinstance(o, glpstar.ResourceLimitError):
            counts[f"hintikka.cap_hits_{classify_cap(call.item.atoms, cap, slack)}"] += 1
            continue
        if isinstance(o, BaseException):
            continue
        st = o.stats
        counts["reductions.target_size"] += st.target_size
        counts["formulas.delta_size"] += st.delta_size
        counts["hintikka.assignments"] += 2 ** st.atom_count
        counts["hintikka.candidates"] += st.candidates
        counts["hintikka.rounds"] += len(st.rounds)
        counts["hintikka.eliminated"] += st.candidates - (st.rounds[-1] if st.rounds else st.candidates)
        if o.countermodel is not None:
            counts["decide.countermodel_worlds"] += len(o.countermodel.worlds)
    out.update({k: v / n for k, v in counts.items()})
    out["hintikka.candidate_yield"] = (
        counts["hintikka.candidates"] / counts["hintikka.assignments"]
        if counts["hintikka.assignments"] else 0.0
    )
    out["oracle.models_per_s"] = counts["oracle.models_examined"] / search if search else 0.0
    out["process.peak_rss_mb"] = run.peak_rss_mb
    out["trace.formulas"] = float(n)
    out["trace.unattributed_share"] = self_s.get("decide.decide", 0.0) / decide_wall if decide_wall else 0.0
    traced_cpu = sum(c.cpu for c in run.calls[: len(untraced)])
    out["trace.overhead_share"] = (traced_cpu - sum(untraced)) / sum(untraced)
    return {m: out[m] for m in PER_LAYER_UNITS}


def replay_cpu(args, n_calls: int) -> list[float]:
    """Untraced CPU time of each of the first n_calls calls, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--replay", str(n_calls)],
        check=True, timeout=HARD_FACTOR * args.seconds + 60, cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["cpu"]


def import_library():
    if not (SRC / "glpstar" / "__init__.py").is_file():
        raise SystemExit(f"error: no glpstar package under {SRC}")
    sys.path.insert(0, str(SRC))
    import glpstar

    if Path(glpstar.__file__).resolve().parent != (SRC / "glpstar").resolve():
        raise SystemExit(f"error: imported glpstar from {glpstar.__file__}, not {SRC}")
    glpstar.decide("glpstar", glpstar.parse_formula(WARMUP_FORMULA))
    return glpstar


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="glpstar decide/oracle benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.replay is not None:
        import_library()
        run = timed_pass(workload, args.seed, args.seconds, limit=args.replay)
        print(json.dumps({"cpu": [c.cpu for c in run.calls]}))
        return 0

    import_library()
    tracer = None
    if args.trace:
        tracer = Tracer()
        with instrument(tracer):
            run = timed_pass(workload, args.seed, args.seconds, tracer)
        metrics = per_layer(workload, run, tracer, replay_cpu(args, len(run.calls)))
        units = PER_LAYER_UNITS
        failures, _ = check(workload, run)
    else:
        setup_s = measure_setup()
        run = timed_pass(workload, args.seed, args.seconds)
        failures, atoms = check(workload, run)
        metrics = end_to_end(workload, run, setup_s, atoms)
        units = END_TO_END_UNITS

    n = len(run.calls)
    tail_ok = tail_percentile(n)
    n_blocks = len({c.block for c in run.calls})
    print(f"# {workload.name} seed {args.seed}: {n} calls in {n_blocks} blocks in {run.elapsed:.2f} s; "
          f"tail at p{workload.tail_pct:g} (highest with >=10 beyond at this n: p{tail_ok})")
    if run.stopped_early:
        print(f"# stopped mid-block after {HARD_FACTOR} x --seconds")
    if tracer is not None:
        if tracer.skipped:
            print(f"# not traced (absent): {', '.join(tracer.skipped)}")
        ranked = sorted(((metrics[m], m) for m in SELF_METRICS.values()), reverse=True)
        print("# self time per formula: " + ", ".join(f"{m} {v * 1e3:.3f} ms" for v, m in ranked))
    for k in sorted(failures)[:20]:
        call = run.calls[k]
        print(f"FAIL call {k} [{call.item.system}] {call.item.text!r}: {failures[k]}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
