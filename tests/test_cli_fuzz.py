"""A seeded CLI fuzz: valid inputs with one token mutated.

Valid formulas, model files and proof files are generated (a model is a
``decide`` countermodel, a proof a corpus proof), one token of each is
deleted, doubled, swapped with its neighbour or replaced, and the result
goes through every command that reads it, by ``cli.run``. Every call must
return an exit code of the contract (0 to 3); an exception escaping
``cli.run`` fails the test with its traceback.
"""

import random
import re

import pytest

from glpstar.cli import run
from glpstar.decide import decide
from glpstar.parsing import render_formula, render_model
from glpstar.proofs import corpus_proofs
from conftest import gen_sorted_formula

# names, numerals, runs of whitespace, and single other characters
_TOKEN = re.compile(r"\w+|\s+|.", re.S)
_REPLACEMENTS = (
    "~", "&", "|", "->", "<", ">", "<0>", "<7>", "[1]", "(", ")", ":", "w", "T", "F", "p", "p:0",
    "0", "12345678901234567890", "-1", "#", ";", ",", "=", "{", "}", "@", "\n", "\r", " ", "",
    "worlds", "rel", "val", "root", "system", "goal", "ax", "mp", "nec", "mono", "glp", "jstar",
    "¬", "◊1", "□0", "ω", "²", "　", "\x00", "é",
)


def mutate(rng: random.Random, text: str) -> str:
    tokens = _TOKEN.findall(text)
    k = rng.randrange(len(tokens))
    kind = rng.randrange(4)
    if kind == 0:
        del tokens[k]
    elif kind == 1:
        tokens.insert(k, tokens[k])
    elif kind == 2 and k + 1 < len(tokens):
        tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    else:
        tokens[k] = rng.choice(_REPLACEMENTS)
    return "".join(tokens)


def valid_inputs(rng: random.Random):
    formulas = [render_formula(gen_sorted_formula(rng, depth=rng.randint(1, 3), max_vars=2))
                for _ in range(40)]
    models = []
    for _ in range(40):
        verdict = decide("jstar", gen_sorted_formula(rng, depth=2, max_vars=2))
        if verdict.countermodel is not None:
            models.append(render_model(verdict.countermodel))
    proofs = [text for _, text in corpus_proofs()]
    return formulas, models, proofs


def formula_calls(rng: random.Random, formula: str, model_path: str) -> list[list[str]]:
    system = rng.choice(("jstar", "glpstar", "glp", "glpsstar"))
    kind = rng.choice(("m", "mplus", "n", "nplus", "h", "rtheta", "rthetaplus"))
    return [
        ["decide", "--system", system, "--candidate-cap", "4096", formula],
        ["reduce", "--kind", kind, formula],
        ["sort", formula],
        ["closure", formula],
        ["oracle", "--max-worlds", "2", "--max-models", "200", formula],
        ["modelcheck", "--model", model_path, formula],
    ]


def test_one_token_mutations_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(37)
    formulas, models, proofs = valid_inputs(rng)
    assert len(models) >= 10 and len(proofs) >= 10
    model_path, proof_path = tmp_path / "m.model", tmp_path / "p.proof"
    model_path.write_text(models[0], encoding="utf-8")
    codes = []
    for _ in range(150):
        for argv in formula_calls(rng, mutate(rng, rng.choice(formulas)), str(model_path)):
            codes.append(run(argv))
    for _ in range(150):
        mutated = tmp_path / "mutated.model"
        mutated.write_text(mutate(rng, rng.choice(models)), encoding="utf-8")
        codes.append(run(["validate", "--model", str(mutated)]))
        codes.append(run(["modelcheck", "--model", str(mutated), rng.choice(formulas)]))
        proof_path.write_text(mutate(rng, rng.choice(proofs)), encoding="utf-8")
        codes.append(run(["checkproof", str(proof_path)]))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    # the mutations reach past the parsers: every outcome but a resource limit occurs
    assert {0, 1, 2} <= set(codes)


@pytest.mark.parametrize("text", ["", " ", "@", "-", "--", "~", "<0>", "p:", "(" * 50])
def test_degenerate_formula_arguments(capsys, text):
    for argv in formula_calls(random.Random(0), text, "missing.model"):
        assert run(argv) in {0, 1, 2, 3}
    capsys.readouterr()
