import random
import string

import pytest

from glpstar.formulas import OMEGA, And, Dia, Neg, Or, Var, TOP, desugar
from glpstar.kripke import KripkeModel
from glpstar.parsing import (
    ParseError,
    _tokenize,
    export_dot,
    parse_formula,
    parse_formula_file,
    parse_model,
    render_formula,
    render_model,
)
from conftest import gen_sorted_formula
from reference import reference_tokenize

# Pieces of formula text: the grammar, its unicode aliases, and characters
# just outside it (a superscript digit, a CJK letter, the ideographic space).
FRAGMENTS = [
    "(", ")", "~", "¬", "&", "∧", "|", "∨", "->", "-", ">", "→", "<", "[", "]", "◊", "□",
    "<0>", "[1]", "◊2", "□12", "⊤", "⊥", "T", "F", "p", "q_1", "Tx", "_", "0", "12", "w",
    "ω", ":", "p:0", "q:w", "r:ω", " ", "\t", "\n", "²", "日", "\u3000", "#",
]


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return err.message, err.span


class TestParseFormula:
    def test_implication_desugars(self):
        assert parse_formula("<1>p:0 -> p:0") == Or(Neg(Dia(1, Var("p", 0))), Var("p", 0))

    def test_box_desugars(self):
        assert parse_formula("[2]~q:w") == Neg(Dia(2, Neg(Neg(Var("q", OMEGA)))))

    def test_sort_conflict(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p:1 & p:2")
        assert "sorts" in str(err.value)

    def test_bare_variable_defaults_to_omega(self):
        assert parse_formula("p") == Var("p", OMEGA)

    def test_precedence(self):
        assert parse_formula("a & b | c") == Or(And(Var("a"), Var("b")), Var("c"))
        assert parse_formula("a | b & c") == Or(Var("a"), And(Var("b"), Var("c")))
        # implication associates to the right
        f = parse_formula("a -> b -> c")
        assert f == desugar(parse_formula("a -> (b -> c)"))

    def test_prefix_binds_tightest(self):
        assert parse_formula("~a & b") == And(Neg(Var("a")), Var("b"))
        assert parse_formula("<1>a | b") == Or(Dia(1, Var("a")), Var("b"))

    def test_unicode_aliases(self):
        assert parse_formula("◊1 p:0") == Dia(1, Var("p", 0))
        assert parse_formula("¬p ∧ ⊤") == And(Neg(Var("p")), TOP)
        assert parse_formula("□2 p:ω ∨ q → ⊥") == parse_formula("[2]p:w | q -> F")

    def test_error_span_inside_input(self):
        text = "p & ???"
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        span = err.value.span
        assert 0 <= span.start <= span.end <= len(text.encode())

    def test_error_span_on_unclosed_paren(self):
        with pytest.raises(ParseError) as err:
            parse_formula("(p & q")
        assert err.value.span.start <= len("(p & q".encode())

    def test_error_spans_always_inside_input(self):
        bad_inputs = [
            "", "p &", "& p", "p | | q", "<>p", "<1 p", "[2 p", "p:", "p:x",
            "p q", "(p", "p)", "p -", "~", "p & (q | )", "p:1 & p:w", "日本",
        ]
        for text in bad_inputs:
            with pytest.raises(ParseError) as err:
                parse_formula(text)
            span = err.value.span
            assert 0 <= span.start <= span.end <= len(text.encode("utf-8")), text

    def test_non_ascii_numerals_and_names_rejected(self):
        # str.isdigit / str.isalnum accept these; the grammar does not
        cases = {
            "<²>p": "²", "[²]p": "²", "◊² p": "²", "p:²": "²",
            "p²": "²", "<١>p": "١", "日本": "日",
        }
        for text, culprit in cases.items():
            with pytest.raises(ParseError) as err:
                parse_formula(text)
            span = err.value.span
            data = text.encode("utf-8")
            assert 0 <= span.start <= span.end <= len(data), text
            assert culprit.encode("utf-8") in data[span.start:span.end], text

    def test_only_ascii_whitespace(self):
        assert parse_formula(" p\t&\nq\r|\f~\vT ") == Or(And(Var("p"), Var("q")), Neg(TOP))
        # str.isspace accepts these; the grammar does not
        for space in ("\u3000", "\u00a0", "\u2003", "\u2028", "\x1c", "\x85"):
            text = f"p &{space}q"
            with pytest.raises(ParseError) as err:
                parse_formula(text)
            data = text.encode("utf-8")
            assert data[err.value.span.start:err.value.span.end] == space.encode("utf-8")
            if len(f"q{space}q".splitlines()) == 1:
                with pytest.raises(ParseError):
                    parse_formula_file(f"p & q{space}\n")

    def test_ascii_identifiers(self):
        assert parse_formula("_x9 & A_b:12") == And(Var("_x9"), Var("A_b", 12))

    def test_tokenizer_matches_reference(self):
        rng = random.Random(30)
        refused = 0
        for _ in range(100_000):
            text = "".join(rng.choices(FRAGMENTS, k=rng.randint(0, 12)))
            expected = tokens_or_error(reference_tokenize, text)
            assert tokens_or_error(_tokenize, text) == expected, text
            refused += isinstance(expected, tuple)
        assert 20_000 < refused < 90_000

    def test_formula_file(self):
        text = "# corpus\n<0>T\n\np:1 -> p:1  # trailing comment\n"
        formulas = parse_formula_file(text)
        assert formulas == [Dia(0, TOP), Or(Neg(Var("p", 1)), Var("p", 1))]

    def test_formula_file_breaks_lines_only_at_ascii_newlines(self):
        assert parse_formula_file("p\r\nq\rT\n") == [Var("p"), Var("q"), TOP]
        # str.splitlines also breaks at these; a formula file does not
        for brk in ("\x85", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e"):
            with pytest.raises(ParseError):
                parse_formula_file(f"p{brk}q\n")


class TestRenderFormula:
    def test_diamond(self):
        assert render_formula(Dia(1, Var("p", 0))) == "<1>p:0"

    def test_negated_conjunction(self):
        assert render_formula(Neg(And(Var("p", 0), Var("q", 0)))) == "~(p:0 & q:0)"

    def test_top(self):
        assert render_formula(TOP) == "T"

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            f = gen_sorted_formula(rng, depth=4)
            assert parse_formula(render_formula(f)) == f


MODEL_TEXT = """
# two worlds
worlds a b
rel 1: a b
val p:0 = {b}
val q:w = {}
root a
"""


class TestParseModel:
    def test_basic(self):
        m = parse_model(MODEL_TEXT)
        assert m.worlds == ("a", "b")
        assert m.relations == {1: frozenset({("a", "b")})}
        assert m.valuation == {"p": frozenset({"b"}), "q": frozenset()}
        assert m.sorts == {"p": 0, "q": OMEGA}
        assert m.root == "a"

    def test_undeclared_world_in_relation(self):
        with pytest.raises(ParseError):
            parse_model("worlds a b\nrel 0: a c\n")

    def test_duplicate_world(self):
        with pytest.raises(ParseError):
            parse_model("worlds a a\n")

    def test_duplicate_valuation(self):
        with pytest.raises(ParseError):
            parse_model("worlds a\nval p:0 = {a}\nval p:1 = {}\n")

    def test_non_ascii_numerals_rejected(self):
        for text in ("worlds a\nrel ²: a a\n", "worlds a\nval p:² = {a}\n"):
            with pytest.raises(ParseError) as err:
                parse_model(text)
            # the span of line 2, which starts after "worlds a\n"
            assert err.value.span == (9, len(text.encode("utf-8")) - 1), text

    @pytest.mark.parametrize("name", ["p q", "日本", "1p", "p-q", "T", "F", ""])
    def test_val_name_must_be_a_variable_name(self, name):
        text = f"worlds a\nval {name}:0 = {{a}}\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.span == (9, len(text.encode("utf-8")) - 1)

    def test_only_ascii_line_breaks_and_spaces(self):
        # U+3000 neither separates worlds nor is stripped from a line
        assert parse_model("worlds a\u3000b\n").worlds == ("a\u3000b",)
        for text in (
            "worlds a b\x85root a\n",  # one line: world 'a' declared twice
            "worlds a b\u2028rel 0: a b\n",
            "\u3000worlds a\n",
            "worlds a b\nrel 0: a\u3000b\n",
            "worlds a\nroot\u00a0a\n",
        ):
            with pytest.raises(ParseError):
                parse_model(text)
        crlf = MODEL_TEXT.replace("\n", "\r\n")
        assert parse_model(crlf) == parse_model(MODEL_TEXT) == parse_model(MODEL_TEXT.replace("\n", "\r"))

    def test_any_ascii_whitespace_ends_a_section_keyword(self):
        for space in ("\t", "\f", "\v", " \t "):
            text = "\n".join(line.replace(" ", space, 1) for line in MODEL_TEXT.split("\n"))
            assert parse_model(text) == parse_model(MODEL_TEXT), repr(space)
        assert parse_model("worlds\ta\tb\n").worlds == ("a", "b")

    def test_error_span_with_crlf_and_stray_breaks(self):
        for brk in ("\r\n", "\r"):
            text = f"worlds a{brk}rel x: a a{brk}"
            with pytest.raises(ParseError) as err:
                parse_model(text)
            start = len("worlds a") + len(brk)
            assert err.value.span == (start, start + len("rel x: a a"))
        head = "worlds a\n# a comment\x85with\u2028no line break\n"
        with pytest.raises(ParseError) as err:
            parse_model(head + "rel x: a a\n")  # line 3
        start = len(head.encode("utf-8"))
        assert err.value.span == (start, start + len("rel x: a a"))

    def test_val_name_identifiers_accepted(self):
        m = parse_model("worlds a\nval _p1:0 = {a}\nval Tx :w = {}\n")
        assert m.valuation == {"_p1": frozenset({"a"}), "Tx": frozenset()}

    def test_round_trip(self):
        m = parse_model(MODEL_TEXT)
        assert parse_model(render_model(m)) == m

    def test_worlds_line_refuses_a_comma(self):
        # a world a,b would read as the two worlds a and b in a val line
        text = "worlds c\nworlds a,b d\n"
        with pytest.raises(ParseError, match="bad world name 'a,b'") as err:
            parse_model(text)
        assert err.value.span == (9, len(text) - 1)

    def test_round_trip_random_world_names(self):
        # any nonempty name without ASCII whitespace, ',' or '#': punctuation,
        # control characters, and non-ASCII letters, spaces and line breaks
        alphabet = (string.ascii_letters + string.digits + string.punctuation.replace(",", "").replace("#", "")
                    + "\x00\x1c\x7f\x85\xa0\u2028\u3000é日ω²")
        rng = random.Random(13)
        for _ in range(300):
            worlds = list(dict.fromkeys(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 5))))
            relations = {n: {(rng.choice(worlds), rng.choice(worlds)) for _ in range(rng.randint(0, 4))}
                         for n in rng.sample(range(4), rng.randint(0, 3))}
            names = rng.sample(["p", "q", "r_1"], rng.randint(0, 3))
            m = KripkeModel(worlds, relations, {v: {w for w in worlds if rng.random() < 0.5} for v in names},
                            {v: rng.choice((0, 1, 2, OMEGA)) for v in names}, rng.choice(worlds + [None]))
            assert parse_model(render_model(m)) == m

    def test_round_trip_random(self):
        rng = random.Random(12)
        from conftest import gen_persistent_model

        for _ in range(25):
            m = gen_persistent_model(rng)
            assert parse_model(render_model(m)) == m


class TestExportDot:
    def test_single_world(self):
        m = KripkeModel(worlds=("a",), relations={}, valuation={}, sorts={})
        dot = export_dot(m)
        assert dot.startswith("digraph")
        assert '"a"' in dot

    def test_edge_label(self):
        m = KripkeModel(worlds=("a", "b"), relations={1: {("a", "b")}}, valuation={}, sorts={})
        dot = export_dot(m)
        assert '"a" -> "b" [label="1"]' in dot

    def test_highlight(self):
        m = KripkeModel(worlds=("a", "b"), relations={}, valuation={}, sorts={})
        dot = export_dot(m, highlight="a")
        a_line = next(line for line in dot.splitlines() if line.strip().startswith('"a"'))
        b_line = next(line for line in dot.splitlines() if line.strip().startswith('"b"'))
        assert "filled" in a_line and "filled" not in b_line

    def test_true_variables_annotated(self):
        m = KripkeModel(worlds=("a",), relations={}, valuation={"p": {"a"}}, sorts={"p": 0})
        assert "{p}" in export_dot(m)
