"""Workloads: the seeded formula generator, the stored pools, the sampler.

Each workload draws its inputs from a pool file in ``pools/``. A pool line
holds one formula as text and, for every system the workload runs, the
reference verdict, the closure atom count and a reference cost.
``make_pool.py`` writes the pools with the generator below; the stored text,
not the generator, is what a run reads, so no edit elsewhere can shift a
workload.

A run's ``--seed`` shuffles each stratum of the pool and deals out blocks
that take one item from every stratum, so every block carries the same mix
of cheap, costly and capped inputs whatever the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

POOL_DIR = Path(__file__).resolve().parent / "pools"
ALL_SYSTEMS = ("jstar", "glpstar", "glp", "glpsstar")


@dataclass(frozen=True)
class Item:
    """One timed call: a formula text under one system."""

    system: str
    text: str
    verdict: str  # T theorem, N non-theorem, C capped (no verdict)
    atoms: int  # atoms of the decide closure
    cost: float  # reference cost: CPU ms of decide, or oracle models examined


@dataclass(frozen=True)
class Workload:
    """Generator settings of the pool, and how a run samples it."""

    name: str
    kind: str  # "decide" or "oracle"
    systems: tuple[str, ...]
    depth: int
    max_vars: int
    mods: tuple[int, ...]
    pool_seed: int
    pool_size: int
    max_atoms: Optional[int]  # pool keeps formulas whose closures stay within this
    # A run skips pool items of higher reference cost: the costliest few
    # would otherwise set a block's time by which of them the seed drew.
    max_cost: Optional[float]
    # Items per stratum: the pool holds this many distinct blocks.
    stratum_size: int
    # A run's wall time per block when this benchmark was written, on a
    # 2-core x86-64 machine; a run executes round(--seconds / block_seconds)
    # blocks, at least one.
    block_seconds: float
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-mixed", kind="decide", systems=ALL_SYSTEMS,
            depth=3, max_vars=3, mods=(0, 1, 2), pool_seed=16010, pool_size=5000,
            max_atoms=21, max_cost=None, stratum_size=10, block_seconds=3.8, tail_pct=99.0,
        ),
        Workload(
            name="enum-heavy", kind="decide", systems=("glpstar",),
            depth=5, max_vars=2, mods=(0, 1, 2, 3), pool_seed=16011, pool_size=1200,
            max_atoms=None, max_cost=500.0, stratum_size=12, block_seconds=3.4, tail_pct=95.0,
        ),
        Workload(
            name="oracle-exhaust", kind="oracle", systems=("jstar",),
            depth=3, max_vars=2, mods=(0, 1, 2), pool_seed=16012, pool_size=3000,
            max_atoms=None, max_cost=20000.0, stratum_size=22, block_seconds=1.2, tail_pct=99.0,
        ),
    )
}

ORACLE_MAX_WORLDS = 5


# ----- generator (a port of the test suite's gen_sorted_formula) -----


def gen_formula(rng: random.Random, depth: int, pool, mods, lib):
    """Random formula of height at most `depth` (leaves count one)."""
    if depth <= 1:
        r = rng.random()
        if r < 0.70 and pool:
            return rng.choice(pool)
        return lib.TOP if r < 0.85 else lib.BOT
    r = rng.random()
    if r < 0.18:
        return gen_formula(rng, 1, pool, mods, lib)
    if r < 0.34:
        return lib.Neg(gen_formula(rng, depth - 1, pool, mods, lib))
    if r < 0.62 and mods:
        return lib.Dia(rng.choice(mods), gen_formula(rng, depth - 1, pool, mods, lib))
    left = gen_formula(rng, depth - 1, pool, mods, lib)
    right = gen_formula(rng, depth - 1, pool, mods, lib)
    return rng.choice([lib.And(left, right), lib.Or(left, right), lib.Implies(left, right)])


def gen_sorted_formula(rng: random.Random, lib, depth: int = 3, max_vars: int = 2,
                       mods=(0, 1, 2)):
    """Desugared random formula over at most `max_vars` sorted variables."""
    sorts = (0, 1, 2, lib.OMEGA)
    pool = [lib.Var("p", rng.choice(sorts))]
    for extra in "qr"[: max_vars - 1]:
        if rng.random() < 0.7:
            pool.append(lib.Var(extra, rng.choice(sorts)))
    return lib.desugar(gen_formula(rng, depth, pool, list(mods), lib))


# ----- pools -----


def pool_path(workload: Workload) -> Path:
    return POOL_DIR / f"{workload.name}.tsv"


def format_pool_line(verdicts: str, atoms: list[int], costs: list[float], text: str) -> str:
    return f"{verdicts}\t{','.join(map(str, atoms))}\t{','.join(f'{c:g}' for c in costs)}\t{text}\n"


def load_pool(workload: Workload) -> list[Item]:
    """Every (formula, system) item of the workload's stored pool that a run
    may draw: those within the workload's ``max_cost``."""
    items = []
    lines = pool_path(workload).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        verdicts, atoms, costs, text = line.split("\t")
        atom_counts = [int(a) for a in atoms.split(",")]
        cost_values = [float(c) for c in costs.split(",")]
        if not len(verdicts) == len(atom_counts) == len(cost_values) == len(workload.systems):
            raise ValueError(f"pool line {lineno} does not cover {workload.systems}")
        for system, verdict, n_atoms, cost in zip(workload.systems, verdicts, atom_counts, cost_values):
            if verdict not in "TNC":
                raise ValueError(f"pool line {lineno}: bad verdict {verdict!r}")
            if workload.max_cost is None or cost <= workload.max_cost:
                items.append(Item(system, text, verdict, n_atoms, cost))
    return items


# ----- seeded sampling -----


def strata(items: list[Item], workload: Workload) -> list[list[Item]]:
    """Items cut into strata of similar reference cost.

    Items group by system, with capped formulas apart, so every block holds
    the same number of capped calls. On the oracle workload they also group
    by the exact number of models the search examines, which fixes a
    search's cost, when at least ``stratum_size`` formulas share that count;
    the rarer counts group together. Each group, sorted by cost, is cut into
    runs of ``stratum_size`` items; the last run of a group keeps the
    remainder, and a smaller group is one stratum.
    """
    k = workload.stratum_size
    class_sizes = Counter(item.cost for item in items) if workload.kind == "oracle" else {}
    groups: dict[tuple, list[Item]] = {}
    for item in items:
        exact = item.cost if class_sizes.get(item.cost, 0) >= k else 0.0
        groups.setdefault((item.system, item.verdict == "C", exact), []).append(item)
    out = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda i: (i.cost, i.text))
        cuts = [j * k for j in range(max(1, len(members) // k))] + [len(members)]
        out.extend(members[a:b] for a, b in zip(cuts, cuts[1:]))
    return out


def blocks_per_run(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.block_seconds))


def blocks(items: list[Item], workload: Workload, seed: int) -> Iterator[list[Item]]:
    """Endless seeded blocks, each holding one item of every stratum.

    A stratum is dealt out in its shuffled order and wraps around only after
    every member has been used once, so the first ``stratum_size`` blocks
    repeat no item (except from a group smaller than that).
    """
    rng = random.Random(seed)
    by_stratum = strata(items, workload)
    for members in by_stratum:
        rng.shuffle(members)
    j = 0
    while True:
        block = [members[j % len(members)] for members in by_stratum]
        rng.shuffle(block)
        yield block
        j += 1
