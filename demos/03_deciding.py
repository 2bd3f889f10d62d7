"""Deciding formulas in the four systems, with countermodel extraction.

Run:  python demos/03_deciding.py
"""

from glpstar import SystemId, decide, export_dot, parse_formula, render_formula, render_model

QUERIES = [
    # sigma-completeness needs the sort to fit under the modality
    ("glpstar", "<1>p:1 -> p:1"),
    ("glpstar", "<0>p:2 -> p:2"),
    # monotonicity separates the strong system from the base system
    ("glpstar", "<1>p -> <0>p"),
    ("jstar", "<1>p -> <0>p"),
    # the transit scheme holds in both
    ("jstar", "<0><1>p -> <0>p"),
    # ground consistency is a truth principle, not a provability one
    ("glpstar", "<0>T"),
    ("glpsstar", "<0>T"),
    # the one-sorted system ignores sort annotations entirely
    ("glp", "<1>p:1 -> p:1"),
]

for system, text in QUERIES:
    verdict = decide(SystemId.parse(system), parse_formula(text))
    print(f"{system:9s} {text:20s} ->", "theorem" if verdict.theorem else "non-theorem")
    if not verdict.theorem:
        print("  falsifies:", render_formula(verdict.falsified))
        print("  countermodel (root falsifies the target):")
        for line in render_model(verdict.countermodel).splitlines():
            print("   ", line)

# Countermodels are rooted, validated, minimized, and ready for graphviz.
verdict = decide(SystemId.JSTAR, parse_formula("<1>p -> <0>p"))
print("\nDOT of the monotonicity countermodel:")
print(export_dot(verdict.countermodel, highlight=verdict.countermodel.root))

# Elimination statistics show the size of the canonical construction.
stats = verdict.stats
print(f"atoms {stats.atom_count}, candidates {stats.candidates}, "
      f"survivors per sweep {stats.rounds}")
