import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glpstar
from glpstar import formulas, oracle, parsing
from glpstar.cli import run
from glpstar.kripke import check_jstar_frame, check_strong_persistence, model_check
from glpstar.parsing import parse_formula, parse_model, render_formula


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecideCommand:
    def test_theorem(self, capsys):
        code, out, _ = invoke(capsys, "decide", "--system", "glpstar", "<1>p:1 -> p:1")
        assert code == 0
        assert out.strip().splitlines()[0] == "theorem"

    def test_nontheorem_with_files(self, capsys, tmp_path):
        cm = tmp_path / "cm.model"
        dot = tmp_path / "cm.dot"
        code, out, _ = invoke(
            capsys, "decide", "--system", "jstar",
            "--countermodel", str(cm), "--dot", str(dot), "<1>p -> <0>p",
        )
        assert code == 1
        assert out.strip().splitlines()[0] == "non-theorem"
        model = parse_model(cm.read_text())
        assert len(model.worlds) == 2
        assert check_jstar_frame(model) == []
        assert check_strong_persistence(model) == []
        assert not model_check(model, model.root, parse_formula("~<1>p | <0>p"))
        assert dot.read_text().startswith("digraph")
        # the emitted file re-validates and re-falsifies through the CLI too
        code, out, _ = invoke(capsys, "validate", "--model", str(cm))
        assert code == 0 and out.strip() == "valid"
        code, out, _ = invoke(
            capsys, "modelcheck", "--model", str(cm), "--world", model.root, "~<1>p | <0>p"
        )
        assert code == 1 and out.strip() == "false"

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "decide", "--system", "glpstar", "--format", "json", "<0>T"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "non-theorem"
        assert payload["countermodel"]["worlds"] == ["w0"]
        assert payload["stats"]["candidates"] > 0
        assert sorted(payload["stats"]) == ["atoms", "candidates", "rounds"]

    def test_formula_file(self, capsys, tmp_path):
        path = tmp_path / "batch.formulas"
        path.write_text("# two queries\n<1>p:1 -> p:1\n<0>T\n")
        code, out, _ = invoke(capsys, "decide", "--system", "glpstar", f"@{path}")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0].startswith("theorem")
        assert lines[1].startswith("non-theorem")

    def test_bad_formula_usage_error(self, capsys):
        code, _, err = invoke(capsys, "decide", "--system", "glpstar", "p &")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("formula", ["<²>p", "p:²", "日本", "p &\u3000q"])
    def test_non_ascii_formula_usage_error(self, capsys, formula):
        code, _, err = invoke(capsys, "decide", "--system", "jstar", formula)
        assert code == 2
        assert err.startswith("error:")

    def test_nplus_variant_is_not_a_decide_option(self, capsys):
        # reduce --nplus-variant literal still prints the literal premise
        code, out, err = invoke(capsys, "decide", "--system", "glpstar", "--via", "nplus",
                                "--nplus-variant", "literal", "<0>p")
        assert code == 2 and out == "" and "--nplus-variant" in err
        code, out, _ = invoke(capsys, "reduce", "--kind", "nplus", "--nplus-variant", "literal", "<0>p")
        assert code == 0 and out.strip()

    def test_resource_limit_exit(self, capsys):
        code, _, err = invoke(
            capsys, "decide", "--system", "glpstar", "--candidate-cap", "2",
            "<0>p & <1>q",
        )
        assert code == 3
        assert "resource" in err

    def test_resource_limit_json(self, capsys):
        code, out, err = invoke(
            capsys, "decide", "--system", "glpstar", "--candidate-cap", "5",
            "--format", "json", "<0>p & <1>q",
        )
        assert code == 3
        assert err.startswith("resource limit:")
        payload = json.loads(out)
        assert payload["command"] == "decide" and payload["error"] == "resource limit"
        assert payload["cap"] == 5
        assert payload["candidates"] > 5
        assert payload["atoms"] == 8
        assert "cap 5" in payload["message"]

    def test_batch_goes_on_past_a_resource_limit(self, capsys, tmp_path):
        # 16 bodies at 4 levels and 16 variables: 80 atoms, refused before enumerating
        wide = " & ".join(f"<{k % 4}>v{k}" for k in range(16))
        path = tmp_path / "batch.formulas"
        path.write_text(f"p -> p\n{wide}\n<0>T\n")
        code, out, err = invoke(capsys, "decide", "--system", "jstar", f"@{path}")
        assert code == 3
        assert [line.split("  ")[0] for line in out.splitlines()] == ["theorem", "resource limit", "non-theorem"]
        assert out.splitlines()[1] == f"resource limit  {render_formula(parse_formula(wide))}"
        assert err == "resource limit: 80 atoms exceed the 63-bit index budget\n"
        code, out, _ = invoke(capsys, "decide", "--system", "jstar", "--format", "json", f"@{path}")
        assert code == 3
        theorem, limit, non_theorem = json.loads(out)["results"]
        assert (theorem["verdict"], non_theorem["verdict"]) == ("theorem", "non-theorem")
        assert limit == {"formula": render_formula(parse_formula(wide)), "verdict": "resource limit",
                         "message": "80 atoms exceed the 63-bit index budget",
                         "atoms": 80, "candidates": None, "cap": 1 << 20}

    def test_nested_formula_decides(self, capsys):
        code, out, _ = invoke(capsys, "decide", "--system", "glpstar", "~" * 100 + "p")
        assert code == 1
        assert out.startswith("non-theorem")

    def test_deep_negation_chain_decides(self, capsys):
        # parsing, every traversal and the closure's membership are iterative
        code, out, _ = invoke(capsys, "decide", "--system", "glpstar", "~" * 5000 + "p")
        assert code == 1
        assert out.startswith("non-theorem")

    def test_deep_formula_decides(self, capsys, tmp_path):
        # two diamonds over 3000-deep bodies: nothing compares or orders
        # formulas by their structure, so no step recurses with the depth
        chain = "~" * 3000
        code, out, err = invoke(capsys, "decide", "--system", "glpstar",
                                f"<0>{chain}p & <0>{chain}q")
        assert code == 1
        assert out.startswith("non-theorem\n")
        assert err == ""
        path = tmp_path / "batch.formulas"
        path.write_text(f"~({chain}p & ~{chain}p)\n<0>{chain}p & <0>{chain}q\n<0>T\n")
        code, out, err = invoke(capsys, "decide", "--system", "glpstar", f"@{path}")
        assert code == 1
        assert [line.split("  ")[0] for line in out.splitlines()] == ["theorem", "non-theorem", "non-theorem"]
        assert err == ""

    def test_sparse_33_atom_closure_decides(self, capsys):
        code, out, _ = invoke(capsys, "decide", "--system", "glpstar", "<0><3>(q:0 & F) & <1><2><1>F")
        assert code == 1
        assert out.startswith("non-theorem")

    def test_verbose_stats(self, capsys):
        code, _, err = invoke(
            capsys, "decide", "--system", "glpstar", "--verbose", "<1>p -> <0>p"
        )
        assert code == 0
        assert err.startswith("# 5 atoms, 32 candidates; ")

    @pytest.mark.parametrize("args, expected", [
        (["--system", "glp", "<1>T -> <0>T"], 0),
        (["--system", "glp", "--format", "json", "<0>T -> <1>T"], 1),
        # enough output to fill the buffer while the command is still running
        (["--system", "glp", "@MANY"], 0),
    ])
    def test_closed_stdout_keeps_exit_code(self, tmp_path, args, expected):
        many = tmp_path / "many.txt"
        many.write_text("<1>T -> <0>T\n" * 2000, encoding="ascii")
        args = [f"@{many}" if a == "@MANY" else a for a in args]
        env = dict(os.environ, PYTHONPATH=str(Path(glpstar.__file__).parents[1]))
        with subprocess.Popen([sys.executable, "-m", "glpstar.cli", "decide", *args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()  # the reader goes away before any output
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == expected
        assert err == ""


class TestDeepFormulas:
    """Formulas 3000 deep, far past the interpreter's recursion limit,
    through every command that reads a formula."""

    CHAIN = "~" * 3000
    FORMULA = f"<0>{CHAIN}p & <0>{CHAIN}q"

    @pytest.mark.parametrize("argv, expected", [
        (["decide", "--system", "jstar"], 1),
        (["decide", "--system", "glp", "--format", "json"], 1),
        (["decide", "--system", "glpsstar"], 1),
        (["reduce", "--kind", "nplus"], 0),
        (["reduce", "--kind", "h"], 0),
        (["reduce", "--kind", "rthetaplus"], 0),
        (["sort"], 0),
        (["closure"], 0),
        (["oracle", "--max-worlds", "2"], 1),
    ], ids=lambda value: "-".join(value) if isinstance(value, list) else None)
    def test_each_command_ends_in_its_outcome(self, capsys, argv, expected):
        code, out, err = invoke(capsys, *argv, self.FORMULA)
        assert code == expected
        assert err == "" and out

    def test_closure_renders_each_node_once(self, capsys, monkeypatch):
        # every member's text is read off one table: a member is not rendered afresh
        walked = []

        def walk(formula, memo=()):
            nodes = formulas.walk(formula, memo)
            walked.extend(nodes)
            return nodes

        monkeypatch.setattr(parsing, "walk", walk)
        code, out, _ = invoke(capsys, "closure", self.FORMULA)
        members = out.splitlines()[:-1]
        assert code == 0 and members == sorted(members)
        assert len(walked) == len(set(walked)) == len(members)


class TestOtherCommands:
    def test_sort(self, capsys):
        code, out, _ = invoke(capsys, "sort", "~p:2")
        assert code == 0 and out.strip() == "3"

    def test_sort_omega(self, capsys):
        code, out, _ = invoke(capsys, "sort", "~p")
        assert code == 0 and out.strip() == "w"

    def test_closure(self, capsys):
        code, out, _ = invoke(capsys, "closure", "<1>p:0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # eight members plus the level line
        assert lines[-1] == "levels: 1"
        assert lines[:-1] == sorted(lines[:-1])

    def test_reduce(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "--kind", "m", "<2>p & <0>q")
        assert code == 0
        assert out.strip() == "(~<1>q | <0>q) & (~<2>q | <0>q)"

    def test_reduce_rtheta_defaults_to_occurring(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "--kind", "rtheta", "<0>v:0")
        assert code == 0
        assert out.strip() == "~<0>v:0 | v:0"

    def test_reduce_theta_list(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "--kind", "rtheta", "--theta", "2,0,2",
                              "--format", "json", "<0>v:0")
        assert code == 0
        assert json.loads(out)["theta"] == [0, 2]

    @pytest.mark.parametrize("value", ["-1", "+2", "1_0", "\u0661", "\uff12", " 1", "", "0,,1", "1,"])
    def test_reduce_bad_theta_is_usage_error(self, capsys, value):
        # the grammar's modality indices are ASCII numerals; int() takes more
        code, out, err = invoke(capsys, "reduce", "--kind", "rtheta", f"--theta={value}", "<0>v:0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad --theta") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["m", "mplus", "n", "nplus", "h"])
    def test_reduce_theta_for_other_kinds_is_usage_error(self, capsys, kind):
        # these kinds never read the set, so accepting it would report it as used
        code, out, err = invoke(capsys, "reduce", "--kind", kind, "--theta", "5",
                                "--format", "json", "<1>p")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --theta") and err.count("\n") == 1

    def test_modelcheck_and_validate(self, capsys, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("worlds a b\nrel 1: a b\nval p:w = {b}\n")
        code, out, _ = invoke(capsys, "modelcheck", "--model", str(path), "--world", "a", "<1>p")
        assert code == 0 and out.strip() == "true"
        code, out, _ = invoke(capsys, "modelcheck", "--model", str(path), "<1>p")
        assert code == 1 and out.strip() == "false"
        code, out, _ = invoke(capsys, "validate", "--model", str(path))
        assert code == 0 and out.strip() == "valid"

    @pytest.mark.parametrize("command", [
        ["reduce", "--kind", "m"], ["modelcheck", "--model", "MODEL"], ["closure"], ["sort"], ["oracle"],
    ])
    def test_one_formula_commands_refuse_a_file_of_many(self, capsys, tmp_path, command):
        model = tmp_path / "m.model"
        model.write_text("worlds a\nval p:0 = {a}\n")
        two = tmp_path / "two.txt"
        two.write_text("p:0\nq\n")
        argv = [str(model) if a == "MODEL" else a for a in command]
        code, out, err = invoke(capsys, *argv, f"@{two}")
        assert code == 2
        assert out == ""
        assert err == f"error: {str(two)!r} holds 2 formulas; this command takes one\n"
        one = tmp_path / "one.txt"
        one.write_text("# a comment\np:0\n")
        assert invoke(capsys, *argv, f"@{one}")[0] in (0, 1)

    def test_modelcheck_bad_world_or_sort_usage_error(self, capsys, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("worlds a b\nrel 0: a b\nval p:w = {b}\n")
        for argv, message in (
            (("--world", "zz", "p"), "unknown world 'zz'"),
            (("--world", "a", "<0>p:0 -> p:0"), "variable 'p' has sort 0 in the formula and sort w in the model"),
            (("<0>p:0 -> p:0",), "variable 'p' has sort 0 in the formula and sort w in the model"),
        ):
            code, out, err = invoke(capsys, "modelcheck", "--model", str(path), *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_validate_reports_violations(self, capsys, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("worlds a\nrel 0: a a\n")
        code, out, _ = invoke(capsys, "validate", "--model", str(path))
        assert code == 1
        assert "irreflexivity" in out

    def test_checkproof(self, capsys, tmp_path):
        good = tmp_path / "good.proof"
        good.write_text(
            "system glpsstar\ngoal <0>T\n"
            "1. T -> <0>T ; ax refl\n2. T ; ax taut\n3. <0>T ; mp 2 1\n"
        )
        code, out, _ = invoke(capsys, "checkproof", str(good))
        assert code == 0 and out.strip() == "accepted"
        bad = tmp_path / "bad.proof"
        bad.write_text("system jstar\ngoal <1>p -> <0>p\n1. <1>p -> <0>p ; ax mono\n")
        code, out, _ = invoke(capsys, "checkproof", str(bad))
        assert code == 1 and out.startswith("rejected at line 1")

    def test_non_ascii_numeral_in_model_usage_error(self, capsys, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("worlds a\nrel ²: a a\n", encoding="utf-8")
        for argv in (("validate",), ("modelcheck", "p")):
            code, _, err = invoke(capsys, argv[0], "--model", str(path), *argv[1:])
            assert code == 2
            assert err.startswith("error:")

    def test_bad_val_name_in_model_usage_error(self, capsys, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("worlds a\nval p q:0 = {a}\n", encoding="utf-8")
        code, _, err = invoke(capsys, "validate", "--model", str(path))
        assert code == 2
        assert err.startswith("error:") and "bad variable name 'p q'" in err

    def test_non_ascii_numeral_in_proof_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p.proof"
        path.write_text("system jstar\ngoal T\n1. T ; ax taut\n2. T ; mp 1 ²\n", encoding="utf-8")
        code, _, err = invoke(capsys, "checkproof", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_non_ascii_line_break_in_model_usage_error(self, capsys, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("worlds a b\u2028rel 0: a b\n", encoding="utf-8")
        code, _, err = invoke(capsys, "validate", "--model", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_non_ascii_line_break_in_proof_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p.proof"
        path.write_text("system jstar\ngoal T\x851. T ; ax taut\n", encoding="utf-8")
        code, _, err = invoke(capsys, "checkproof", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [("decide", "--system", "jstar", "@{}"),
                                      ("validate", "--model", "{}"),
                                      ("checkproof", "{}")], ids=["decide", "validate", "checkproof"])
    def test_non_utf8_file_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "input"
        path.write_bytes(b"\xff<0>p\n")
        code, out, err = invoke(capsys, *(arg.format(path) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {str(path)!r}") and "utf-8" in err

    @pytest.mark.parametrize("argv", [("decide", "--system", "jstar", "--countermodel", "{}", "<0>p"),
                                      ("decide", "--system", "jstar", "--dot", "{}", "<0>p"),
                                      ("oracle", "--dot", "{}", "<0>p")],
                             ids=["decide-countermodel", "decide-dot", "oracle-dot"])
    def test_unwritable_output_file_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "no" / "dir" / "x.out"
        code, out, err = invoke(capsys, *(arg.format(path) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {str(path)!r}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_oracle(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "--max-worlds", "2", "<0>T")
        assert code == 1
        assert "countermodel found" in out
        code, out, _ = invoke(capsys, "oracle", "--max-worlds", "2", "T")
        assert code == 0
        assert "no countermodel" in out

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_decide_nonpositive_cap_is_usage_error(self, capsys, value):
        code, out, err = invoke(capsys, "decide", "--system", "jstar", "--candidate-cap", value, "p")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--max-worlds", "--max-models"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_oracle_nonpositive_budget_is_usage_error(self, capsys, flag, value):
        code, out, err = invoke(capsys, "oracle", flag, value, "p")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_oracle_oversized_world_budget_is_usage_error(self, capsys, monkeypatch):
        # the strict orders on 9 worlds could not be built: none may be tried
        def refuse(k):
            raise AssertionError(f"built the orders on {k} worlds")

        monkeypatch.setattr(oracle, "_strict_orders", refuse)
        code, out, err = invoke(capsys, "oracle", "--max-worlds", "9", "<0>p")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_oracle_json_counts(self, capsys):
        # no relation: only the one-world frame is rooted
        code, out, _ = invoke(capsys, "oracle", "--max-worlds", "2", "--format", "json", "T")
        assert code == 0
        payload = json.loads(out)
        assert payload["models_examined"] == 1
        assert payload["by_worlds"] == [
            {"worlds": 1, "frames": 1, "models": 1},
        ]

    def test_json_agreement_with_text(self, capsys):
        code_t, out_t, _ = invoke(capsys, "decide", "--system", "glpsstar", "<0>T")
        code_j, out_j, _ = invoke(
            capsys, "decide", "--system", "glpsstar", "--format", "json", "<0>T"
        )
        assert code_t == code_j == 0
        assert json.loads(out_j)["verdict"] == out_t.strip()

    def test_usage_error_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
