"""The brute-force oracle: exhaustive refutation and cross-validation.

The oracle enumerates every valid model within a budget. Its refuter
searches only the rooted ones, in which w0 sees every other world, and
tests w0: a smallest countermodel is generated by its refuting world, so
this loses no countermodel size. A find is a certified refutation, while
absence proves nothing. Cross-validation runs the decision procedure and
the oracle side by side; a disagreement would always be a bug.

Run:  python demos/05_oracle.py
"""

from glpstar import (
    SearchBudget,
    brute_force_countermodel,
    cross_validate,
    parse_formula,
    render_formula,
    render_model,
)
from glpstar.formulas import OMEGA
from glpstar.oracle import enumerate_models

print("== how many valid models are there? ==")
for worlds in (1, 2, 3):
    enum = enumerate_models({"p": 0, "q": OMEGA}, [0, 1], SearchBudget(max_worlds=worlds))
    print(f"  up to {worlds} worlds, levels {{0,1}}, p:0 and q:w -> {sum(1 for _ in enum)} models")

print("\n== refuting a few formulas ==")
for text in ["<0>T", "<1>p -> <0>p", "<0>p:0 -> p:0", "T"]:
    result = brute_force_countermodel(parse_formula(text), SearchBudget(max_worlds=3))
    if result.found:
        print(f"  {text:16s} refuted at {result.world} after {result.models_examined} rooted models:")
        for line in render_model(result.model).splitlines():
            print("     ", line)
    else:
        print(f"  {text:16s} no countermodel within budget "
              f"({result.models_examined} rooted models examined)")

print("\n== cross-validation ==")
for system, text in [
    ("glpstar", "<1>p:1 -> p:1"),
    ("jstar", "<1>p -> <0>p"),
    ("glpsstar", "<0>T"),
]:
    report = cross_validate(parse_formula(text), system, SearchBudget(max_worlds=3))
    print(f"  {system:9s} {text:16s} -> {report.status}; "
          f"decide says {'theorem' if report.verdict.theorem else 'non-theorem'}, "
          f"oracle {'found' if report.search.found else 'found nothing'}")
    print(f"            target: {render_formula(report.target)}")
