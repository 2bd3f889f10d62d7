"""The benchmark's arithmetic: percentiles, reference checks, layer metrics."""

from __future__ import annotations

from typing import Optional

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            best = pct
    return best


def outcome_code(outcome, kind: str) -> str:
    """T, N, C (resource limit) or E (any other exception) for one call."""
    # by name: this module imports nothing from the library, so that its
    # tests run without it
    if isinstance(outcome, BaseException):
        return "C" if type(outcome).__name__ == "ResourceLimitError" else "E"
    if kind == "oracle":
        if outcome.truncated and not outcome.found:
            return "C"
        return "N" if outcome.found else "T"
    return "T" if outcome.theorem else "N"


def reference_failure(reference: str, got: str) -> Optional[str]:
    """Why a call's result breaks its stored reference, or None.

    A decided reference must be reproduced exactly. A capped reference may
    come back decided or capped. An unexpected exception always fails.
    """
    if got == "E":
        return "raised an exception"
    if reference == "C":
        return None
    if got == "C":
        return f"reference {reference} but the call hit the cap"
    if got != reference:
        return f"reference {reference} but got {got}"
    return None


def classify_cap(atoms: int, cap: int, space_slack: Optional[int]) -> str:
    """Cap cause from the closure's atom count and the engine's limits.

    The engine refuses an assignment space 2**atoms above cap * slack before
    enumerating ("space"); below that, the candidate count hit the cap.
    """
    if space_slack is not None and 1 << atoms > cap * space_slack:
        return "space"
    return "count"


# per-layer self time: span name -> metric name
SELF_METRICS = {
    "parsing.parse": "parsing.parse_s",
    "reductions.reduce": "reductions.reduce_s",
    "formulas.closure": "formulas.closure_s",
    "formulas.adequacy": "formulas.adequacy_s",
    "hintikka.build": "hintikka.build_s",
    "hintikka.truth_column": "hintikka.truth_column_s",
    "hintikka.eliminate": "hintikka.eliminate_s",
    "decide.extract": "decide.extract_s",
    "decide.decide": "decide.self_s",
    "kripke.model_check": "kripke.model_check_s",
    "kripke.validate": "kripke.validate_s",
    "oracle.search": "oracle.enumerate_s",
    "oracle.evaluate": "oracle.evaluate_s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_cpu_ms": "ms",
    "tail_cpu_ms": "ms",
    "throughput_cpu_fps": "1/s",
    "work_cpu_s": "s",
    "decided_share": "share",
    "ceiling_atoms": "atoms",
}

_PER_CALL_TIMES = list(SELF_METRICS.values()) + ["oracle.search_s"]
PER_CALL_COUNTS = [
    "reductions.target_size", "formulas.delta_size", "hintikka.assignments",
    "hintikka.candidates", "hintikka.cap_hits_space", "hintikka.cap_hits_count",
    "hintikka.rounds", "hintikka.eliminated", "decide.countermodel_worlds",
    "kripke.model_checks", "oracle.models_examined", "oracle.truncated",
]
PER_LAYER_UNITS = {
    **{m: "s/formula" for m in _PER_CALL_TIMES},
    **{m: "count/formula" for m in PER_CALL_COUNTS},
    "hintikka.candidate_yield": "share",
    "oracle.models_per_s": "1/s",
    "process.peak_rss_mb": "MB",
    "trace.formulas": "count",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
}
