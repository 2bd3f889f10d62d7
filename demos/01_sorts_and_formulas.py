"""Sorted formulas: parsing, the sort calculus, and adequate closures.

Run:  python demos/01_sorts_and_formulas.py
"""

from glpstar import (
    adequate_closure,
    modal_levels,
    modified_negation,
    parse_formula,
    render_formula,
    sort_of,
    subformulas,
)

# Variables carry sorts: `p:0`, `q:3`, `p:w` (omega). A bare name means
# omega, which is handy for one-sorted formulas.
examples = [
    "T",
    "~p:2",
    "<3>p:5",
    "p:w & q:1",
    "[1]p:0",          # boxes are sugar for ~<1>~...
    "<1>p:0 -> p:0",   # so are implications
]
print("== sorts ==")
for text in examples:
    f = parse_formula(text)
    print(f"  {text:18s} parses to {render_formula(f):22s} sort {sort_of(f)}")

# Modified negation strips one top-level negation instead of stacking a
# second; it keeps closure sets finite.
print("\n== modified negation ==")
for text in ["p:0", "~p:0", "<1>p:0"]:
    f = parse_formula(text)
    print(f"  ~~({text}) = {render_formula(modified_negation(f))}")

# The adequate closure is the finite universe the canonical construction
# works inside: subformula-closed, modified-negation-closed, plus the three
# rediamonding rules.
print("\n== adequate closure of <1>p:0 ==")
delta = adequate_closure({parse_formula("<1>p:0")})
for member in sorted(map(render_formula, delta)):
    print("  ", member)
print("  levels:", set(modal_levels(delta)))

print("\n== subformulas of (p:0 & ~p:0) ==")
for member in sorted(map(render_formula, subformulas(parse_formula("p:0 & ~p:0")))):
    print("  ", member)
