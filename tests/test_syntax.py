"""Parser, validator, walker and printer tests for machine programs."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from randgen import random_triple
from walks import contains_dynamic, preorder, variable_names

from cpspace.pfp import rule_variable_names
from cpspace.syntax import (
    Apply,
    Assign,
    Comprehension,
    Diagnostic,
    Forall,
    If,
    Program,
    ProgramError,
    Signature,
    Skip,
    Variable,
    free_vars,
    make_signature,
    nodes,
    numeral,
    parse_program,
    pretty_print,
    set_display,
    term_contains_dynamic,
    term_to_text,
    validate,
)

FIXTURES = Path(__file__).parent / "fixtures"

TRUE = Apply("true")
FALSE = Apply("false")
EMPTY = Apply("emptyset")


def prog(body: str, header: str = "") -> Program:
    return parse_program(header + "\nrule:\n" + body + "\n")


class TestTermParsing:
    def test_numerals_are_true_and_false(self):
        p = prog("Output := 1")
        assert p.rule == Assign("Output", (), TRUE)
        p = prog("Output := 0")
        assert p.rule == Assign("Output", (), FALSE)

    def test_empty_braces(self):
        p = prog("Output := {}")
        assert p.rule == Assign("Output", (), EMPTY)

    def test_singleton_display_duplicates_element(self):
        # {t} must denote the same set as Pair(t, t)
        p = prog("Output := {1}")
        assert p.rule == Assign("Output", (), Apply("Pair", (TRUE, TRUE)))

    def test_two_element_display(self):
        p = prog("Output := {0, 1}")
        assert p.rule == Assign("Output", (), Apply("Pair", (FALSE, TRUE)))

    def test_three_element_display_splits_via_union(self):
        # three elements: union of a singleton and a pair
        p = prog("Output := {0, 1, Atoms}")
        atoms = Apply("Atoms")
        expected = Apply(
            "Union",
            (Apply("Pair", (Apply("Pair", (FALSE, FALSE)), Apply("Pair", (TRUE, atoms)))),),
        )
        assert p.rule == Assign("Output", (), expected)

    def test_infix_equality_and_membership(self):
        p = prog("Output := (0 = 1)")
        assert p.rule == Assign("Output", (), Apply("=", (FALSE, TRUE)))
        p = prog("Output := (1 in Atoms)")
        assert p.rule == Assign("Output", (), Apply("in", (TRUE, Apply("Atoms"))))

    def test_chained_comparison_rejected(self):
        with pytest.raises(ProgramError, match="chain"):
            prog("Output := (0 = 1 = 1)")

    def test_parens_group(self):
        p = prog("Output := ((0 = 1) = (1 in Atoms))")
        inner_l = Apply("=", (FALSE, TRUE))
        inner_r = Apply("in", (TRUE, Apply("Atoms")))
        assert p.rule == Assign("Output", (), Apply("=", (inner_l, inner_r)))

    def test_comprehension_with_guard(self):
        p = prog(
            "c := {Pair(v, v) | v in Atoms, v in c}",
            header="signature:\n  dynamic c/0\n",
        )
        value = p.rule.value
        assert isinstance(value, Comprehension)
        assert value.var == "v"
        assert value.head == Apply("Pair", (Variable("v"), Variable("v")))
        assert value.source == Apply("Atoms")
        assert value.guard == Apply("in", (Variable("v"), Apply("c")))

    def test_comprehension_guard_defaults_to_true(self):
        p = prog("c := {v | v in Atoms}", header="signature:\n  dynamic c/0\n")
        assert p.rule.value.guard == TRUE

    def test_nullary_dynamic_resolves_as_application(self):
        p = prog("c := c", header="signature:\n  dynamic c/0\n")
        assert p.rule == Assign("c", (), Apply("c"))

    def test_keyword_cannot_start_term(self):
        with pytest.raises(ProgramError, match="keyword"):
            prog("Output := then")


class TestRuleParsing:
    def test_skip(self):
        assert prog("skip").rule == Skip()

    def test_if_without_else_defaults_to_skip(self):
        p = prog("if Halt then Output := 1 endif")
        assert p.rule == If(Apply("Halt"), Assign("Output", (), TRUE), Skip())

    def test_if_else(self):
        p = prog("if Halt then skip else Output := 0 endif")
        assert p.rule == If(Apply("Halt"), Skip(), Assign("Output", (), FALSE))

    def test_forall(self):
        p = prog(
            "forall v in Atoms do m(v) := true enddo",
            header="signature:\n  dynamic m/1 relational\n",
        )
        assert p.rule == Forall(
            "v", Apply("Atoms"), Assign("m", (Variable("v"),), TRUE)
        )

    def test_assignment_with_arguments(self):
        p = prog(
            "forall v in Atoms do g(v, v) := v enddo",
            header="signature:\n  dynamic g/2\n",
        )
        body = p.rule.body
        assert body == Assign("g", (Variable("v"), Variable("v")), Variable("v"))

    def test_par_single_branch_collapses(self):
        p = prog("par Output := 1 endpar")
        assert p.rule == Assign("Output", (), TRUE)

    def test_par_two_branches(self):
        p = prog("par Output := 1 Halt := true endpar")
        v = Variable("_par0")
        source = set_display([numeral(1), numeral(2)])
        inner = If(Apply("=", (v, numeral(2))), Assign("Halt", (), TRUE), Skip())
        body = If(Apply("=", (v, numeral(1))), Assign("Output", (), TRUE), inner)
        assert p.rule == Forall("_par0", source, body)

    def test_par_branch_order_matches_index_order(self):
        p = prog("par Output := 0 Output := 1 Halt := true endpar")
        body = p.rule.body
        assert body.then_rule == Assign("Output", (), FALSE)
        assert body.else_rule.then_rule == Assign("Output", (), TRUE)
        assert body.else_rule.else_rule.then_rule == Assign("Halt", (), TRUE)

    def test_nested_par_gets_distinct_index_variables(self):
        p = prog(
            "par par Output := 0 Output := 1 endpar Halt := true endpar"
        )
        names = set()

        def walk(rule):
            if isinstance(rule, Forall):
                names.add(rule.var)
                walk(rule.body)
            elif isinstance(rule, If):
                walk(rule.then_rule)
                walk(rule.else_rule)

        walk(p.rule)
        assert len(names) == 2

    def test_missing_keyword_names_the_found_token(self):
        text = "signature:\n  dynamic c/0\n\nrule:\nif not(Halt) then c := 1 els c := 0 endif\n"
        with pytest.raises(ProgramError) as info:
            parse_program(text)
        err = info.value
        assert (err.message, err.line, err.col) == ("expected 'endif', found 'els'", 5, 26)
        assert str(err) == "expected 'endif', found 'els' (line 5, col 26)"

    def test_unterminated_par(self):
        with pytest.raises(ProgramError, match="unterminated"):
            prog("par Output := 1")


class TestNumerals:
    def test_first_numerals(self):
        # 0 is the empty set, 1 is {0}; beyond that each numeral
        # collects all smaller ones
        assert numeral(0) == FALSE
        assert numeral(1) == TRUE
        assert numeral(2) == Apply("Pair", (FALSE, TRUE))

    def test_third_numeral(self):
        # numeral(3) = {0, 1, 2} encoded as a three-element display
        n2 = Apply("Pair", (FALSE, TRUE))
        expected = Apply(
            "Union",
            (Apply("Pair", (Apply("Pair", (FALSE, FALSE)), Apply("Pair", (TRUE, n2)))),),
        )
        assert numeral(3) == expected


class TestHeader:
    def test_declared_names_resolve(self):
        p = prog(
            "if E(TheUnique(Atoms), TheUnique(Atoms)) then skip endif",
            header="signature:\n  input E/2\n",
        )
        assert p.signature.input_arity("E") == 2

    def test_halt_and_output_always_present(self):
        p = prog("skip")
        assert p.signature.dynamic_info("Halt") == (0, True)
        assert p.signature.dynamic_info("Output") == (0, False)

    def test_relational_flag(self):
        p = prog("skip", header="signature:\n  dynamic m/1 relational\n")
        assert p.signature.dynamic_info("m") == (1, True)

    def test_space_line(self):
        p = prog("skip", header="space: 2 0 1\n")
        assert p.space_coeffs == (2, 0, 1)

    def test_missing_rule_section(self):
        with pytest.raises(ProgramError, match="rule"):
            parse_program("signature:\n  dynamic c/0\n")

    def test_duplicate_name(self):
        with pytest.raises(ProgramError, match="duplicate"):
            prog("skip", header="signature:\n  input E/2\n  dynamic E/1\n")

    def test_reserved_name(self):
        with pytest.raises(ProgramError, match="reserved"):
            prog("skip", header="signature:\n  dynamic Pair/2\n")

    def test_halt_redeclaration_must_match(self):
        with pytest.raises(ProgramError, match="Halt"):
            prog("skip", header="signature:\n  dynamic Halt/1\n")

    def test_input_cannot_take_relational_flag(self):
        with pytest.raises(ProgramError, match="relations already"):
            prog("skip", header="signature:\n  input E/2 relational\n")


class TestValidation:
    def test_unknown_symbol(self):
        with pytest.raises(ProgramError, match="unknown symbol 'Frob'"):
            prog("Output := Frob(1)")

    def test_arity_mismatch(self):
        with pytest.raises(ProgramError, match="expects 2 argument"):
            prog("Output := Pair(1)")

    def test_assignment_to_input_rejected(self):
        with pytest.raises(ProgramError, match="read-only"):
            prog("E := 1", header="signature:\n  input E/0\n")

    def test_assignment_to_background_rejected(self):
        with pytest.raises(ProgramError, match="background"):
            prog("Atoms := 1")

    def test_open_rule_rejected(self):
        with pytest.raises(ProgramError, match="not closed; free: v"):
            prog("Output := v")

    def test_binder_free_in_source(self):
        with pytest.raises(ProgramError, match="occurs free in its source"):
            prog("forall v in Pair(v, v) do skip enddo")

    def test_comprehension_binder_free_in_source(self):
        sig = make_signature()
        bad = Comprehension(Variable("v"), "v", Variable("v"), Apply("true"))
        diags = validate(Program(sig, Assign("Output", (), bad)))
        assert any("occurs free in its source" in d.message for d in diags)

    def test_binder_shadowing_declared_name(self):
        with pytest.raises(ProgramError, match="shadows"):
            prog("forall Atoms in Atoms do skip enddo")
        with pytest.raises(ProgramError, match="shadows"):
            prog("forall c in Atoms do skip enddo", header="signature:\n  dynamic c/0\n")

    @staticmethod
    def many_defects() -> Program:
        """A rule with one of each defect, nested, and one spanless node."""
        def var(name, line, col):
            return Variable(name, (line, col))

        def app(name, args, line, col):
            return Apply(name, tuple(args), (line, col))

        sig = make_signature(inputs=(("E", 2),), dynamics=(("c", 1, False),))
        source = app("Pair", [var("v", 3, 17), app("Frob", [], 3, 20)], 3, 12)
        compr = Comprehension(var("y", 4, 16), "y", app("Union", [var("y", 4, 30)], 4, 24),
                              app("c", [], 4, 35), (4, 15))
        body = Assign("c", (var("v", 4, 7), var("v", 4, 10)), compr, (4, 5))
        loop = Forall("v", source, body, (3, 5))
        spanless = Forall("z", Apply("Atoms"), Assign("Foo", (Variable("z"),), Variable("q")))
        other = If(app("true", [], 5, 8),
                   Assign("E", (), app("Atoms", [], 5, 20), (5, 15)),
                   If(app("not", [], 6, 6), Assign("Atoms", (), app("emptyset", [], 6, 25), (6, 16)),
                      spanless, (6, 3)),
                   (5, 5))
        return Program(sig, If(app("E", [var("w", 2, 6)], 2, 4), loop, other, (1, 1)))

    def test_validate_reports_every_defect_in_preorder(self):
        diags = validate(self.many_defects())
        assert [(d.message, d.line, d.col) for d in diags] == [
            ("'E' expects 2 argument(s), got 1", 2, 4),
            ("bound variable 'v' occurs free in its source", 3, 5),
            ("unknown symbol 'Frob'", 3, 20),
            ("'c' expects 1 argument(s), got 2", 4, 5),
            ("comprehension variable 'y' occurs free in its source", 4, 15),
            ("'c' expects 1 argument(s), got 0", 4, 35),
            ("cannot assign to input name 'E': input relations are read-only", 5, 15),
            ("'not' expects 1 argument(s), got 0", 6, 6),
            ("cannot assign to background name 'Atoms'", 6, 16),
            ("unknown symbol 'Foo'", 0, 0),
            ("program rule is not closed; free: q, w", None, None),
        ]

    def test_parse_program_raises_the_first_diagnostic(self):
        text = ("signature:\n  input E/2\n  dynamic c/1\n\nrule:\n"
                "forall v in Pair(v, Frob) do c(v, v) := 1 enddo\n")
        with pytest.raises(ProgramError) as info:
            parse_program(text)
        err = info.value
        assert (err.message, err.line, err.col) == (
            "bound variable 'v' occurs free in its source", 6, 1)

    def test_validate_collects_multiple_diagnostics(self):
        sig = make_signature()
        rule = Assign("Output", (), Apply("Pair", (Variable("x"),)))
        diags = validate(Program(sig, rule))
        assert len(diags) == 2
        assert isinstance(diags[0], Diagnostic)


class TestFreeVars:
    def test_comprehension_binds_its_variable(self):
        t = Comprehension(
            Apply("Pair", (Variable("v"), Variable("w"))),
            "v",
            Apply("Atoms"),
            Apply("in", (Variable("v"), Variable("u"))),
        )
        assert free_vars(t) == {"w", "u"}

    def test_forall_binds_its_variable(self):
        r = Forall("v", Apply("Atoms"), Assign("m", (Variable("v"), Variable("w")), TRUE))
        assert free_vars(r) == {"w"}

    def test_if_collects_all_parts(self):
        r = If(Variable("a"), Assign("Output", (), Variable("b")), Skip())
        assert free_vars(r) == {"a", "b"}


def sample_programs() -> list[Program]:
    """Every fixture, then 200 random programs of `randgen`."""
    programs = [parse_program(p.read_text(encoding="utf-8"))
                for p in sorted(FIXTURES.glob("*.machine"))]
    rng = random.Random(20261020)
    return programs + [random_triple(rng)[0] for _ in range(200)]


class TestWalk:
    def test_nodes_in_preorder_over_every_node_kind(self):
        # distinct objects, so the order is checked by identity
        atoms, source, true = Apply("Atoms"), Apply("Atoms"), Apply("true")
        head, x, y, m_arg = Variable("x"), Variable("x"), Variable("y"), Variable("y")
        guard = Apply("in", (x, y))
        compr = Comprehension(head, "x", source, guard)
        assign = Assign("m", (compr, m_arg), true)
        cond = Apply("m", (m_arg,))
        skip = Skip()
        branch = If(cond, assign, skip)
        rule = Forall("y", atoms, branch)
        expected = [rule, atoms, branch, cond, m_arg, assign, compr, head, source, guard,
                    x, y, m_arg, true, skip]
        assert [id(n) for n in nodes(rule)] == [id(n) for n in expected]
        assert [id(n) for n in nodes(compr)] == [id(n) for n in expected[6:12]]

    def test_nodes_rejects_anything_else(self):
        with pytest.raises(TypeError, match="not a term or rule"):
            next(nodes("x"))
        with pytest.raises(TypeError, match="not a term or rule"):
            list(nodes(Apply("Pair", (TRUE, 1))))

    def test_nodes_needs_no_recursion(self):
        term = TRUE
        for _ in range(3 * sys.getrecursionlimit()):
            term = Apply("Union", (term,))
        assert sum(1 for _ in nodes(term)) == 3 * sys.getrecursionlimit() + 1
        assert not term_contains_dynamic(term, make_signature())

    def test_walks_agree_with_their_recursive_readings(self):
        checked = 0
        for program in sample_programs():
            sig, rule = program.signature, program.rule
            walked = preorder(rule)
            assert [id(n) for n in nodes(rule)] == [id(n) for n in walked]
            assert rule_variable_names(rule) == variable_names(rule)
            for node in walked:
                if isinstance(node, (Variable, Apply, Comprehension)):
                    assert term_contains_dynamic(node, sig) == contains_dynamic(node, sig)
                    checked += contains_dynamic(node, sig)
        assert checked > 100

    def test_signature_arity(self):
        sig = make_signature(inputs=(("E", 2),), dynamics=(("m", 1, True),))
        assert [sig.arity(n) for n in ("Pair", "Atoms", "E", "m", "Halt", "Frob")] == [
            2, 0, 2, 1, 0, None]


SAMPLES = [
    "rule:\nskip\n",
    "rule:\nOutput := {0, 1, {1}}\n",
    "signature:\n  input E/2\n  dynamic m/1 relational\n\nrule:\n"
    "forall v in Atoms do\n  if m(v) = true then\n    skip\n"
    "  else\n    m(v) := true\n  endif\nenddo\n",
    "signature:\n  dynamic c/0\nspace: 1 1\n\nrule:\n"
    "c := {Union(v) | v in c, not(v in Atoms)}\n",
    "rule:\npar Output := 1 Halt := true endpar\n",
    "signature:\n  dynamic Output/0 relational\n\nrule:\nOutput := 1\n",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", SAMPLES)
    def test_parse_print_parse(self, text):
        first = parse_program(text)
        printed = pretty_print(first)
        second = parse_program(printed)
        assert first == second

    def test_printed_form_is_stable(self):
        p = parse_program(SAMPLES[2])
        printed = pretty_print(p)
        assert printed == pretty_print(parse_program(printed))


def closed_terms(depth: int):
    base = st.sampled_from([TRUE, FALSE, EMPTY, Apply("Atoms")])
    if depth == 0:
        return base
    sub = closed_terms(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda p: Apply("Pair", p)),
        sub.map(lambda t: Apply("Union", (t,))),
        sub.map(lambda t: Apply("TheUnique", (t,))),
        sub.map(lambda t: Apply("not", (t,))),
        st.tuples(sub, sub).map(lambda p: Apply("=", p)),
        st.tuples(sub, sub).map(lambda p: Apply("in", p)),
        st.lists(sub, min_size=0, max_size=4).map(set_display),
        st.tuples(sub, sub).map(
            lambda p: Comprehension(Variable("v"), "v", p[0], Apply("in", (Variable("v"), p[1])))
        ),
    )


class TestPrintedTermsReparse:
    @given(closed_terms(3))
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, term):
        text = "rule:\nOutput := " + term_to_text(term) + "\n"
        assert parse_program(text).rule == Assign("Output", (), term)
