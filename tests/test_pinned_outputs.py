"""Decide and oracle outputs pinned to digests.

A seeded sample of formulas from the shared generator goes through
``decide`` on all four systems and through the rooted oracle; every output
field is rendered and hashed, and the hashes are compared with constants.
A change meant to keep outputs fails here when it does not; a change meant
to alter them updates the constants below and declares the change in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

from glpstar.decide import SystemId, decide
from glpstar.formulas import Formula
from glpstar.hintikka import ResourceLimitError
from glpstar.oracle import SearchBudget, brute_force_countermodel
from glpstar.parsing import render_formula, render_model
from conftest import gen_sorted_formula

# a cap low enough that some of the sample is refused, so the limit's fields count too
CANDIDATE_CAP = 400
DECIDE_DIGEST = "22bd0d8f58909a8b3d98bfb37032f72fa4d9cc669c4fb53d58a3fd279074a7c1"
ORACLE_DIGEST = "10aec50251b16d10914d9b288aaedd0c081fbbef25f6eb9fc2e081f98f0ff1dd"


def _decide_sample() -> list[tuple[SystemId, Formula]]:
    rng = random.Random(1601)
    return [(list(SystemId)[k % 4],
             gen_sorted_formula(rng, depth=rng.choice([2, 3, 4]), max_vars=3, mods=(0, 1, 2)))
            for k in range(800)]


def _decide_records() -> list[str]:
    records = []
    for system, f in _decide_sample():
        try:
            v = decide(system, f, candidate_cap=CANDIDATE_CAP)
        except ResourceLimitError as exc:
            records.append(f"limit {exc} {exc.atoms} {exc.candidates} {exc.cap}")
            continue
        record = f"{v.theorem} {v.stats}"
        if not v.theorem:
            record += f"\n{render_model(v.countermodel)}{render_formula(v.falsified)}"
        records.append(record)
    return records


def _oracle_records() -> list[str]:
    rng = random.Random(1602)
    records = []
    for k in range(600):
        f = gen_sorted_formula(rng, depth=rng.choice([2, 3]), max_vars=2, mods=(0, 1, 2))
        r = brute_force_countermodel(f, SearchBudget(max_worlds=3 + k % 3, max_models=100))
        record = f"{r.found} {r.truncated} {r.models_examined} {r.by_worlds}"
        if r.found:
            record += f"\n{render_model(r.model)}"
        records.append(record)
    return records


def _digest(records: list[str]) -> str:
    return hashlib.sha256("\n\n".join(records).encode()).hexdigest()


def test_decide_outputs_pinned():
    records = _decide_records()
    kinds = {r.split(" ", 1)[0] for r in records}
    assert kinds == {"True", "False", "limit"}
    assert _digest(records) == DECIDE_DIGEST


def test_past_the_cap_verdicts_hold_at_the_default_cap():
    # each call that the search past the cap decides is a non-theorem that
    # the full table finds too
    checked = 0
    for system, f in _decide_sample():
        try:
            v = decide(system, f, candidate_cap=CANDIDATE_CAP)
        except ResourceLimitError:
            continue
        if v.stats.candidates == 0:
            assert not v.theorem and len(v.countermodel.worlds) <= 2
            assert not decide(system, f).theorem
            checked += 1
    assert checked == 36


def test_oracle_outcomes_pinned():
    records = _oracle_records()
    kinds = {tuple(r.split(" ", 2)[:2]) for r in records}
    assert kinds == {("True", "False"), ("False", "False"), ("False", "True")}
    assert _digest(records) == ORACLE_DIGEST
