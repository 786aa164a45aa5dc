"""Command-line tests: exit codes, reports, determinism, the game REPL."""

import argparse
import ast
import io
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cpspace.cli import _build_parser, main
from cpspace.symmetry import build_fragment, parse_fragment

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
PACKAGE = Path(__file__).parent.parent / "src" / "cpspace"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def cli(capsys, *argv):
    """Run main() in process; returns (exit code, stdout, stderr)."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def frag_files(tmp_path_factory):
    """Exported fragment files for the pebble subcommands."""
    root = tmp_path_factory.mktemp("frags")
    paths = {}
    for n, k, r in [(2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1), (4, 2, 1), (5, 2, 1)]:
        path = root / f"n{n}k{k}r{r}.frag"
        path.write_text(build_fragment(n, k, r).export_text(), encoding="utf-8")
        paths[(n, k, r)] = path
    return paths


class TestRun:
    def test_accepting_machine_exits_zero(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "halt_accept.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 0
        assert out.startswith("outcome accept steps=1")

    def test_rejecting_machine_exits_one(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "halt_reject.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 1
        assert "outcome reject" in out

    def test_space_exceeded_exits_two(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "grow.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 2
        assert "outcome space-exceeded" in out

    def test_diverging_machine_exits_three(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "toggle.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 3
        assert "outcome diverged" in out

    def test_step_cap_exits_four(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "toggle.machine",
                           "--naked-set", 3, "--max-steps", 1, "--no-meta")
        assert code == 4
        assert "outcome step-limit" in out

    def test_trace_none_prints_only_the_outcome(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "halt_accept.machine",
                           "--naked-set", 3, "--trace", "none", "--no-meta")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_trace_states_dumps_dynamic_tables(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "mark_all.machine",
                           "--input", FIXTURES / "edges.input",
                           "--trace", "states", "--no-meta")
        assert code == 0
        assert "  m(a0) = 1" in out
        assert "  Halt() = 1" in out

    def test_trace_states_dumps_a_deep_run(self, capsys):
        steps = 2000
        code, out, _ = cli(capsys, "run", FIXTURES / "deep.machine", "--naked-set", 3,
                           "--max-steps", steps, "--trace", "states", "--no-meta")
        assert code == 4
        lines = out.splitlines()
        assert lines[-2] == f"step {steps} active={3 + steps + 1}"
        # {} is written 0 and {{}} is written 1
        assert lines[-1] == "  c() = " + "{" * (steps - 1) + "1" + "}" * (steps - 1)

    def test_meta_line_appears_by_default(self, capsys):
        _, out, _ = cli(capsys, "run", FIXTURES / "halt_accept.machine",
                        "--naked-set", 3)
        assert out.splitlines()[-1].startswith("# elapsed ")

    def test_json_lines_records(self, capsys):
        code, out, _ = cli(capsys, "run", FIXTURES / "halt_accept.machine",
                           "--naked-set", 3, "--json-lines", "--no-meta")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["record"] == "outcome"
        assert records[0]["outcome"] == "accept"
        assert all(r["record"] == "step" for r in records[1:])

    def test_repeated_runs_are_byte_identical(self, capsys):
        args = ("run", FIXTURES / "mark_all.machine", "--input",
                FIXTURES / "edges.input", "--trace", "states", "--no-meta")
        _, first, _ = cli(capsys, *args)
        _, second, _ = cli(capsys, *args)
        assert first == second

    def test_missing_machine_file_exits_ten(self, capsys):
        code, _, err = cli(capsys, "run", "no/such.machine", "--naked-set", 2)
        assert code == 10
        assert "cannot read" in err

    def test_malformed_program_exits_eleven_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.machine"
        bad.write_text(
            "signature:\n  dynamic c/0\nspace: 1\n\nrule:\nif then c := 1 endif\n",
            encoding="utf-8",
        )
        code, _, err = cli(capsys, "run", bad, "--naked-set", 2)
        assert code == 11
        assert "line 6" in err and "col" in err

    def test_machine_without_space_line_exits_eleven(self, capsys, tmp_path):
        bad = tmp_path / "nospace.machine"
        bad.write_text("signature:\n  dynamic c/0\n\nrule:\nskip\n", encoding="utf-8")
        code, _, err = cli(capsys, "run", bad, "--naked-set", 2)
        assert code == 11
        assert "space" in err

    def test_malformed_input_file_exits_twelve(self, capsys, tmp_path):
        bad = tmp_path / "bad.input"
        bad.write_text("E 0 1\n", encoding="utf-8")
        code, _, err = cli(capsys, "run", FIXTURES / "mark_all.machine",
                           "--input", bad)
        assert code == 12
        assert "atoms N" in err

    def test_undeclared_relation_exits_twelve(self, capsys):
        code, _, err = cli(capsys, "run", FIXTURES / "halt_accept.machine",
                           "--input", FIXTURES / "edges.input")
        assert code == 12
        assert "not declared" in err

    def test_relational_register_misuse_exits_thirteen(self, capsys, tmp_path):
        bad = tmp_path / "setvalued.machine"
        bad.write_text(
            "signature:\n  dynamic m/1 relational\nspace: 9\n\nrule:\n"
            "forall v in Atoms do\n  m(v) := {v}\nenddo\n",
            encoding="utf-8",
        )
        code, _, err = cli(capsys, "run", bad, "--naked-set", 2)
        assert code == 13
        assert "relational" in err

    def test_relational_misuse_names_the_same_write_in_every_process(self, tmp_path):
        # both atoms get a set; the message names the first write in a
        # fixed order, not in the update set's hash order
        bad = tmp_path / "setvalued.machine"
        bad.write_text(
            "signature:\n  dynamic m/1 relational\nspace: 9\n\nrule:\n"
            "forall v in Atoms do\n  m(v) := {v}\nenddo\n",
            encoding="utf-8",
        )
        runs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "cpspace.cli", "run", str(bad),
                 "--naked-set", "2", "--no-meta"],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 13
            runs.append((proc.stdout, proc.stderr))
        assert runs[0] == runs[1]
        assert "was assigned {a0}" in runs[0][1]


class TestPfp:
    def test_extract_matches_golden_bytes(self, capsys):
        code, out, _ = cli(capsys, "pfp", "extract", FIXTURES / "toggle.machine",
                           "--name", "c", "--no-meta")
        assert code == 0
        assert out == (GOLDEN / "toggle_upd_state.sexpr").read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv", [
        ("extract",), ("eval", "--naked-set", 2), ("lockstep", "--naked-set", 2),
    ], ids=["extract", "eval", "lockstep"])
    def test_rule_without_update_formula_exits_eleven(self, capsys, tmp_path, argv):
        # a dynamic name under a comprehension has no update formula
        machine = tmp_path / "comprehension.machine"
        machine.write_text(
            "signature:\n  dynamic c/0\n  dynamic d/0\nspace: 2 1\n\nrule:\n"
            "d := {v | v in Atoms, v in c}\n",
            encoding="utf-8",
        )
        code, out, err = cli(capsys, "pfp", argv[0], machine, *argv[1:])
        assert code == 11
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "comprehension" in err and "Traceback" not in err

    def test_extract_has_no_mode_flag(self, capsys):
        # update formulas have one reading of dynamic atoms
        code, out, err = cli(capsys, "pfp", "extract", FIXTURES / "toggle.machine",
                             "--mode", "table")
        assert code == 10
        assert out == ""
        assert "--mode" in err

    def test_extract_defaults_to_every_dynamic_name(self, capsys):
        code, out, _ = cli(capsys, "pfp", "extract", FIXTURES / "toggle.machine",
                           "--no-meta")
        assert code == 0
        for name in ("c", "Output", "Halt"):
            assert f"; upd for {name}()" in out

    def test_extract_unknown_name_exits_ten(self, capsys):
        code, _, err = cli(capsys, "pfp", "extract", FIXTURES / "toggle.machine",
                           "--name", "nope")
        assert code == 10
        assert "dynamic" in err

    def test_extract_json_record_carries_the_sexpr(self, capsys):
        code, out, _ = cli(capsys, "pfp", "extract", FIXTURES / "toggle.machine",
                           "--name", "c", "--json-lines", "--no-meta")
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["record"] == "update-formula"
        assert record["sexpr"].startswith("(and ")

    def test_eval_accepting_machine_exits_zero(self, capsys):
        code, out, _ = cli(capsys, "pfp", "eval", FIXTURES / "halt_accept.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 0
        assert out.startswith("verdict accept")

    def test_eval_rejecting_machine_exits_one(self, capsys):
        code, out, _ = cli(capsys, "pfp", "eval", FIXTURES / "halt_reject.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 1
        assert out.startswith("verdict reject")

    def test_eval_diverging_machine_is_unknown(self, capsys):
        code, out, _ = cli(capsys, "pfp", "eval", FIXTURES / "toggle.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 3
        assert out.startswith("verdict unknown status=cycled")

    def test_eval_space_exceeded_run_is_unknown(self, capsys):
        code, out, _ = cli(capsys, "pfp", "eval", FIXTURES / "pairs.machine",
                           "--naked-set", 2, "--no-meta")
        assert code == 3
        assert out.startswith("verdict unknown status=fixed stages=3 run=space-exceeded")

    def test_eval_bounds_the_run_by_max_stages(self):
        # deep.machine neither halts nor outgrows its space bound, so only
        # the step limit that --max-stages sets ends the run before the
        # induction
        proc = subprocess.run(
            [sys.executable, "-m", "cpspace.cli", "pfp", "eval",
             str(FIXTURES / "deep.machine"), "--naked-set", "3", "--max-stages", "4",
             "--no-meta"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 3
        assert proc.stdout == "verdict unknown status=stage-cap stages=5 run=step-limit\n"

    def test_lockstep_reports_identical_stages(self, capsys):
        code, out, _ = cli(capsys, "pfp", "lockstep", FIXTURES / "mark_all.machine",
                           "--input", FIXTURES / "edges.input", "--no-meta")
        assert code == 0
        assert "stages 0..1 identical" in out
        assert "verdict accept" in out

    def test_lockstep_covers_a_diverging_run(self, capsys):
        code, out, _ = cli(capsys, "pfp", "lockstep", FIXTURES / "toggle.machine",
                           "--naked-set", 3, "--no-meta")
        assert code == 0
        assert "identical" in out


class TestSymmetry:
    def test_support_reports_small_supports(self, capsys):
        code, out, _ = cli(capsys, "symmetry", "support",
                           FIXTURES / "mark_all.machine",
                           "--input", FIXTURES / "edges.input",
                           "--k", 1, "--no-meta")
        assert code == 0
        assert "violations: none" in out
        assert "object a0 supp={a0} size=1" in out

    def test_support_lists_violations_without_failing(self, capsys):
        code, out, _ = cli(capsys, "symmetry", "support",
                           FIXTURES / "pairs.machine",
                           "--naked-set", 5, "--k", 1, "--no-meta")
        assert code == 0
        assert "violation" in out

    def test_support_json_records(self, capsys):
        code, out, _ = cli(capsys, "symmetry", "support",
                           FIXTURES / "mark_all.machine",
                           "--input", FIXTURES / "edges.input",
                           "--k", 1, "--json-lines", "--no-meta")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        header = records[0]
        assert header["record"] == "support-header" and header["ok"]
        assert any(r["record"] == "support" and r["object"] == "a0" for r in records)

    def test_fragment_stdout_round_trips(self, capsys):
        code, out, _ = cli(capsys, "symmetry", "fragment",
                           "--n", 3, "--k", 1, "--r", 1, "--no-meta")
        assert code == 0
        frag = parse_fragment(out)
        assert (frag.n, frag.k, frag.r, len(frag)) == (3, 1, 1, 19)

    def test_fragment_export_is_deterministic(self, capsys):
        args = ("symmetry", "fragment", "--n", 4, "--k", 1, "--r", 1, "--no-meta")
        _, first, _ = cli(capsys, *args)
        _, second, _ = cli(capsys, *args)
        assert first == second

    def test_fragment_out_file(self, capsys, tmp_path):
        target = tmp_path / "f.frag"
        code, out, _ = cli(capsys, "symmetry", "fragment",
                           "--n", 4, "--k", 1, "--r", 1,
                           "--out", target, "--no-meta")
        assert code == 0
        assert "objects=24" in out
        assert len(parse_fragment(target.read_text(encoding="utf-8"))) == 24

    def test_fragment_budget_flag_exits_fourteen(self, capsys):
        code, _, err = cli(capsys, "symmetry", "fragment",
                           "--n", 4, "--k", 1, "--r", 1, "--budget", 10)
        assert code == 14
        assert "budget" in err

    def test_fragment_honors_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CPS_BUDGET", "10")
        code, _, err = cli(capsys, "symmetry", "fragment",
                           "--n", 4, "--k", 1, "--r", 1)
        assert code == 14
        assert "budget" in err

    def test_forms_round_trip_audit(self, capsys):
        code, out, _ = cli(capsys, "symmetry", "forms",
                           "--n", 4, "--k", 2, "--r", 1, "--no-meta")
        assert code == 0
        assert "round trip ok, 22 distinct forms" in out

    def test_ineq_identical_tables(self, capsys):
        code, out, _ = cli(capsys, "symmetry", "ineq",
                           "--k", 1, "--n1", 4, "--n2", 5, "--no-meta")
        assert code == 0
        assert "forms=17 configs=2 cells=578" in out
        assert "tables identical across sizes" in out

    def test_ineq_input_dependence_exits_thirteen(self, capsys):
        # two atoms cannot tell a singleton from its complement
        code, out, _ = cli(capsys, "symmetry", "ineq",
                           "--k", 1, "--n1", 2, "--n2", 5, "--no-meta")
        assert code == 13
        assert out.startswith("input dependence:")

    def test_ineq_sizes_must_increase(self, capsys):
        code, _, err = cli(capsys, "symmetry", "ineq",
                           "--k", 1, "--n1", 5, "--n2", 4)
        assert code == 10
        assert "--n1" in err


class TestPebble:
    def test_verify_reports_survival(self, capsys, frag_files):
        code, out, _ = cli(capsys, "pebble", "verify",
                           "--fragA", frag_files[(4, 1, 1)],
                           "--fragB", frag_files[(5, 1, 1)],
                           "--m", 2, "--depth", 2, "--no-meta")
        assert code == 0
        assert out.startswith("duplicator survives to depth 2")

    def test_verify_counterexample_exits_one(self, capsys, frag_files):
        # below 6 atoms the transported co-pair form collides on equality
        code, out, _ = cli(capsys, "pebble", "verify",
                           "--fragA", frag_files[(4, 2, 1)],
                           "--fragB", frag_files[(5, 2, 1)],
                           "--m", 2, "--depth", 2, "--no-meta")
        assert code == 1
        assert "does not survive" in out
        assert "spoiler" in out

    def test_verify_json_record(self, capsys, frag_files):
        code, out, _ = cli(capsys, "pebble", "verify",
                           "--fragA", frag_files[(4, 1, 1)],
                           "--fragB", frag_files[(5, 1, 1)],
                           "--m", 2, "--depth", 2,
                           "--json-lines", "--no-meta")
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["record"] == "verify"
        assert record["survived"] and record["counterexample"] == []

    def test_solve_agrees_with_no_spoiler_win(self, capsys, frag_files):
        code, out, _ = cli(capsys, "pebble", "solve",
                           "--fragA", frag_files[(4, 1, 1)],
                           "--fragB", frag_files[(5, 1, 1)],
                           "--m", 2, "--depth", 2, "--no-meta")
        assert code == 0
        assert out.startswith("no spoiler win within depth 2")

    def test_solve_spoiler_win_exits_one(self, capsys, frag_files):
        # three pebbles pin three distinct atoms; two atoms cannot answer
        code, out, _ = cli(capsys, "pebble", "solve",
                           "--fragA", frag_files[(2, 1, 1)],
                           "--fragB", frag_files[(3, 1, 1)],
                           "--m", 3, "--depth", 3, "--no-meta")
        assert code == 1
        assert out.startswith("spoiler wins within depth 3")

    def test_mismatched_widths_exit_ten(self, capsys, frag_files):
        code, _, err = cli(capsys, "pebble", "verify",
                           "--fragA", frag_files[(4, 1, 1)],
                           "--fragB", frag_files[(5, 2, 1)],
                           "--m", 2, "--depth", 1)
        assert code == 10
        assert "widths differ" in err

    def test_malformed_fragment_exits_eleven(self, capsys, tmp_path):
        bad = tmp_path / "bad.frag"
        bad.write_text("fragment n=2 k=1 r=1\nnonsense here\n", encoding="utf-8")
        code, _, err = cli(capsys, "pebble", "verify",
                           "--fragA", bad, "--fragB", bad,
                           "--m", 1, "--depth", 1)
        assert code == 11
        assert "unrecognized" in err

    @pytest.mark.parametrize("text,reason", [
        ("fragment n=2 k=1 r=1\nconstant empty 7\n", "points at no object"),
        ("fragment n=2 k=1 r=1\nedge 1\n", "malformed"),
        ("fragment n=2 k=1 r=1\nobject 0 {a9}\n", "no atom a9"),
        ("fragment n=2 k=1 r=1\nobject 0 {a0\n", "unterminated"),
        ("fragment n=-1 k=1 r=1\n", "non-negative"),
    ], ids=["constant-index", "edge-fields", "atom-index", "unterminated", "negative-n"])
    def test_malformed_fragment_lines_exit_eleven(self, capsys, monkeypatch, tmp_path,
                                                  text, reason):
        # each subcommand that loads a board reports one error line naming
        # the fault, instead of raising
        bad = tmp_path / "bad.frag"
        bad.write_text(text, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        for sub in ("verify", "solve", "play"):
            extra = ("--depth", 1) if sub != "play" else ()
            code, out, err = cli(capsys, "pebble", sub, "--fragA", bad, "--fragB", bad,
                                 "--m", 1, *extra)
            assert code == 11
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert reason in err and "Traceback" not in err

    def play(self, capsys, monkeypatch, frag_files, script):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        return cli(capsys, "pebble", "play",
                   "--fragA", frag_files[(4, 1, 1)],
                   "--fragB", frag_files[(5, 1, 1)], "--m", 2)

    def test_play_scripted_session(self, capsys, monkeypatch, frag_files):
        code, out, _ = self.play(capsys, monkeypatch, frag_files,
                                 "A 0 a1\nboard\nquit\n")
        assert code == 0
        assert "duplicator answers a0" in out
        assert "pebble 0: A a1  |  B a0" in out
        assert "session over after 1 moves" in out

    def test_play_reprompts_on_illegal_input(self, capsys, monkeypatch, frag_files):
        script = "A 9 a0\nA 0 bogus\nwhat\nquit\n"
        code, out, _ = self.play(capsys, monkeypatch, frag_files, script)
        assert code == 0
        assert "error: no pebble 9" in out
        assert "error: bad object literal" in out
        assert "error: expected SIDE PEBBLE LITERAL" in out
        assert "session over after 0 moves" in out

    def test_play_ends_cleanly_at_eof(self, capsys, monkeypatch, frag_files):
        code, out, _ = self.play(capsys, monkeypatch, frag_files, "A 0 {}\n")
        assert code == 0
        assert "duplicator answers 0" in out
        assert "session over after 1 moves" in out


class TestPlumbing:
    def test_missing_subcommand_exits_ten(self, capsys):
        code, _, err = cli(capsys)
        assert code == 10
        assert "command" in err

    def test_unknown_flag_exits_ten(self, capsys):
        code, _, _ = cli(capsys, "run", FIXTURES / "halt_accept.machine",
                         "--naked-set", 2, "--frobnicate")
        assert code == 10

    def test_run_requires_an_input_source(self, capsys):
        code, _, err = cli(capsys, "run", FIXTURES / "halt_accept.machine")
        assert code == 10
        assert "required" in err

    FLAG_ERRORS = [
        (("run", "x.machine", "--naked-set", -1),
         "--naked-set needs a non-negative atom count"),
        (("run", "x.machine", "--naked-set", 2, "--max-steps", 0),
         "--max-steps must be at least 1"),
        (("pebble", "solve", "--fragA", "a", "--fragB", "b", "--m", 0, "--depth", 1),
         "--m needs at least one pebble"),
        (("pebble", "solve", "--fragA", "a", "--fragB", "b", "--m", 1, "--depth", -1),
         "--depth must be non-negative"),
        (("symmetry", "fragment", "--n", -1, "--k", 1, "--r", 1),
         "--n must be non-negative"),
        (("symmetry", "fragment", "--n", 2, "--k", 1, "--r", 1, "--budget", 0),
         "--budget must be at least 1"),
        (("pfp", "eval", "x.machine", "--naked-set", 2, "--max-stages", 0),
         "--max-stages must be at least 1"),
        (("pebble", "verify", "--fragA", "a", "--fragB", "b", "--m", 1, "--depth", 1,
          "--node-budget", 0),
         "--node-budget must be at least 1"),
        (("symmetry", "fragment", "--n", 2, "--k", -1, "--r", 1),
         "--k must be non-negative"),
        (("symmetry", "fragment", "--n", 2, "--k", 1, "--r", -1),
         "--r must be non-negative"),
    ]

    @pytest.mark.parametrize("argv, message", FLAG_ERRORS,
                             ids=[f"argv{i}" for i in range(len(FLAG_ERRORS))])
    def test_inconsistent_flags_exit_ten(self, capsys, argv, message):
        # the checks run before any file is read, so the paths need not exist
        code, out, err = cli(capsys, *argv)
        assert code == 10
        assert out == ""
        assert err == f"error: {message}\n"

    def test_readme_synopsis_matches_the_parser(self):
        # each synopsis line lists exactly the options its subcommand takes,
        # apart from --help and the two output flags every batch command takes
        def leaves(parser, words=()):
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield words, parser
                return
            for name, sub in subs[0].choices.items():
                yield from leaves(sub, (*words, name))

        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
        synopsis = {}
        for line in block.splitlines():
            words = line.split()
            assert words[0] == "cpspace"
            command = tuple(itertools.takewhile(
                lambda w: w.isalpha() and w.islower(), words[1:]))
            synopsis[command] = set(re.findall(r"--[\w-]+", line))
        parsers = dict(leaves(_build_parser()))
        assert set(synopsis) == set(parsers)
        output_flags = {"--json-lines", "--no-meta"}
        for command, parser in parsers.items():
            options = {s for a in parser._actions for s in a.option_strings
                       if s.startswith("--")} - {"--help"}
            assert synopsis[command] == options - output_flags, command
            interactive = command == ("pebble", "play")
            assert output_flags.isdisjoint(options) == interactive, command

    def test_package_imports_only_the_standard_library(self):
        # pure Python with no runtime dependencies: each import in each
        # module names a standard-library module or the package itself
        modules = sorted(PACKAGE.rglob("*.py"))
        assert modules
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    assert top in sys.stdlib_module_names or top == "cpspace", (path.name, name)

    def test_every_module_level_name_is_used(self):
        # delete helpers nothing uses: each function, class and constant a
        # module defines at its top level is named in src/, tests/ or bench/
        # somewhere besides the line that defines it
        root = PACKAGE.parent.parent
        words = Counter()
        for folder in ("src", "tests", "bench"):
            for path in (root / folder).rglob("*.py"):
                words.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
        unused = []
        for path in sorted(PACKAGE.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            for node in ast.parse(source).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                own = IDENTIFIER.findall(lines[node.lineno - 1])
                for name in names:
                    dunder = name.startswith("__") and name.endswith("__")
                    if not dunder and words[name] <= own.count(name):
                        unused.append(f"{path.name}: {name}")
        assert unused == []

    def test_console_script_is_wired(self):
        proc = subprocess.run(
            ["cpspace", "run", str(FIXTURES / "halt_accept.machine"),
             "--naked-set", "3", "--no-meta"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("outcome accept")

    def test_module_entry_point_matches(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cpspace.cli", "pfp", "eval",
             str(FIXTURES / "halt_reject.machine"), "--naked-set", "2",
             "--no-meta"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout.startswith("verdict reject")
