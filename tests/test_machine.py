"""Evaluation and transition tests for machine states."""

import pytest

from cpspace.hf import transposition
from cpspace.machine import (
    MachineError,
    RelationalValueError,
    apply_updates,
    check_input,
    eval_term,
    initial_state,
    is_consistent,
    make_input,
    parse_input,
    permute_state,
    step,
    tables_key,
    update_set,
)
from cpspace.syntax import (
    Apply,
    Comprehension,
    Variable,
    numeral,
    parse_program,
)

TRUE = Apply("true")
FALSE = Apply("false")


def make_state(body="skip", header="", n_atoms=3, relations=None):
    program = parse_program(header + "\nrule:\n" + body + "\n")
    inp = make_input(n_atoms, relations or {})
    return program, initial_state(program, inp)


@pytest.fixture
def state():
    _, s = make_state(header="signature:\n  input E/2\n",
                      relations={"E": {(0, 0), (1, 2)}})
    return s


def ev(state, term, **binding):
    return eval_term(state, term, binding)


class TestBackgroundOperations:
    def test_constants(self, state):
        u = state.universe
        assert ev(state, TRUE) == u.one
        assert ev(state, FALSE) == u.empty
        assert ev(state, Apply("emptyset")) == u.empty
        assert ev(state, Apply("Atoms")) == u.mk_set([0, 1, 2])

    def test_boolean_connectives_on_booleans(self, state):
        u = state.universe
        for a, b, conj, disj in [
            (TRUE, TRUE, u.one, u.one),
            (TRUE, FALSE, u.empty, u.one),
            (FALSE, TRUE, u.empty, u.one),
            (FALSE, FALSE, u.empty, u.empty),
        ]:
            assert ev(state, Apply("and", (a, b))) == conj
            assert ev(state, Apply("or", (a, b))) == disj
        assert ev(state, Apply("not", (FALSE,))) == u.one
        assert ev(state, Apply("not", (TRUE,))) == u.empty

    def test_connectives_reject_non_boolean_arguments(self, state):
        # or(1, {a}) is 0: junk arguments never count as true
        u = state.universe
        junk = u.mk_set([u.atom(0)])
        x = Variable("x")
        assert ev(state, Apply("or", (TRUE, x)), x=junk) == u.empty
        assert ev(state, Apply("or", (x, TRUE)), x=junk) == u.empty
        assert ev(state, Apply("and", (TRUE, x)), x=junk) == u.empty
        assert ev(state, Apply("not", (x,)), x=junk) == u.empty

    def test_equality_and_membership(self, state):
        u = state.universe
        x, y = Variable("x"), Variable("y")
        pair = u.mk_set([u.atom(0), u.atom(1)])
        assert ev(state, Apply("=", (x, y)), x=pair, y=pair) == u.one
        assert ev(state, Apply("=", (x, y)), x=pair, y=u.atom(0)) == u.empty
        assert ev(state, Apply("in", (x, y)), x=u.atom(0), y=pair) == u.one
        assert ev(state, Apply("in", (x, y)), x=u.atom(2), y=pair) == u.empty
        # membership in an atom is always false
        assert ev(state, Apply("in", (x, y)), x=u.atom(0), y=u.atom(1)) == u.empty

    def test_pair_collapses_duplicates(self, state):
        u = state.universe
        x = Variable("x")
        assert ev(state, Apply("Pair", (x, x)), x=u.atom(1)) == u.mk_set([u.atom(1)])

    def test_union_drops_atom_members(self, state):
        # atoms contribute nothing to a union
        u = state.universe
        a0, a1 = u.atom(0), u.atom(1)
        inner = u.mk_set([a1])
        nested_empty = u.mk_set([u.empty])
        big = u.mk_set([a0, inner, nested_empty])
        x = Variable("x")
        assert ev(state, Apply("Union", (x,)), x=big) == u.mk_set([a1, u.empty])

    def test_union_of_atom_is_empty(self, state):
        u = state.universe
        x = Variable("x")
        assert ev(state, Apply("Union", (x,)), x=u.atom(2)) == u.empty

    def test_the_unique(self, state):
        u = state.universe
        x = Variable("x")
        singleton = u.mk_set([u.atom(1)])
        doubleton = u.mk_set([u.atom(0), u.atom(1)])
        assert ev(state, Apply("TheUnique", (x,)), x=singleton) == u.atom(1)
        assert ev(state, Apply("TheUnique", (x,)), x=doubleton) == u.empty
        assert ev(state, Apply("TheUnique", (x,)), x=u.empty) == u.empty
        assert ev(state, Apply("TheUnique", (x,)), x=u.atom(0)) == u.empty

    def test_input_relation_on_atoms(self, state):
        u = state.universe
        x, y = Variable("x"), Variable("y")
        e = Apply("E", (x, y))
        assert ev(state, e, x=u.atom(0), y=u.atom(0)) == u.one
        assert ev(state, e, x=u.atom(1), y=u.atom(2)) == u.one
        assert ev(state, e, x=u.atom(2), y=u.atom(1)) == u.empty

    def test_input_relation_false_off_atoms(self, state):
        u = state.universe
        x, y = Variable("x"), Variable("y")
        assert ev(state, Apply("E", (x, y)), x=u.one, y=u.atom(0)) == u.empty

    def test_undeclared_empty_relation_is_empty(self):
        _, s = make_state(header="signature:\n  input E/2\n", relations={})
        u = s.universe
        x = Variable("x")
        assert ev(s, Apply("E", (x, x)), x=u.atom(0)) == u.empty


class TestComprehension:
    def test_filter_by_guard(self, state):
        u = state.universe
        comp = Comprehension(
            Variable("v"), "v", Apply("Atoms"),
            Apply("E", (Variable("v"), Variable("v"))),
        )
        assert ev(state, comp) == u.mk_set([u.atom(0)])

    def test_head_transforms_elements(self, state):
        u = state.universe
        comp = Comprehension(
            Apply("Pair", (Variable("v"), Variable("v"))), "v", Apply("Atoms"), TRUE,
        )
        expected = u.mk_set([u.mk_set([u.atom(i)]) for i in range(3)])
        assert ev(state, comp) == expected

    def test_atom_source_yields_empty(self, state):
        u = state.universe
        comp = Comprehension(Variable("v"), "v", Variable("x"), TRUE)
        assert ev(state, comp, x=u.atom(0)) == u.empty


class TestNumeralValues:
    def test_numeral_j_has_j_elements(self, state):
        # each encoded numeral collects all smaller ones
        u = state.universe
        values = [ev(state, numeral(j)) for j in range(5)]
        for j, v in enumerate(values):
            assert len(u.elements(v)) == j
            assert u.elements(v) == tuple(sorted(values[:j], key=u.sort_key))

    def test_numerals_distinct(self, state):
        values = {ev(state, numeral(j)) for j in range(6)}
        assert len(values) == 6


class TestUpdateSets:
    def test_skip_issues_nothing(self):
        program, s = make_state("skip")
        assert update_set(s, program.rule) == frozenset()

    def test_assignment(self):
        program, s = make_state("Output := 1")
        assert update_set(s, program.rule) == {("Output", (), s.universe.one)}

    def test_if_picks_branch(self):
        program, s = make_state("if Halt then Output := 1 else Output := 0 endif")
        assert update_set(s, program.rule) == {("Output", (), s.universe.empty)}
        s2 = apply_updates(s, frozenset((("Halt", (), s.universe.one),)))
        assert update_set(s2, program.rule) == {("Output", (), s2.universe.one)}

    def test_forall_accumulates(self):
        program, s = make_state(
            "forall v in Atoms do m(v) := true enddo",
            header="signature:\n  dynamic m/1 relational\n",
        )
        u = s.universe
        expected = {("m", (u.atom(i),), u.one) for i in range(3)}
        assert update_set(s, program.rule) == expected

    def test_par_unions_branches(self):
        program, s = make_state("par Output := 1 Halt := true endpar")
        u = s.universe
        assert update_set(s, program.rule) == {
            ("Output", (), u.one),
            ("Halt", (), u.one),
        }

    def test_duplicate_updates_collapse(self):
        program, s = make_state("forall v in Atoms do Output := 1 enddo")
        assert len(update_set(s, program.rule)) == 1

    def test_consistency(self):
        assert is_consistent(frozenset((("c", (), 5), ("c", (), 5))))
        assert not is_consistent(frozenset((("c", (), 5), ("c", (), 6))))
        assert is_consistent(frozenset())


class TestApply:
    def test_clash_leaves_state_unchanged(self):
        # an inconsistent update set is a no-op step
        program, s = make_state(
            "forall v in Atoms do c := v enddo",
            header="signature:\n  dynamic c/0\n",
        )
        ups = update_set(s, program.rule)
        assert not is_consistent(ups)
        assert apply_updates(s, ups) is s

    def test_relational_enforcement(self):
        program, s = make_state(
            "m := {1}",
            header="signature:\n  dynamic m/0 relational\n",
        )
        ups = update_set(s, program.rule)
        with pytest.raises(RelationalValueError, match="relational"):
            apply_updates(s, ups)

    def test_non_relational_accepts_sets(self):
        program, s = make_state("c := {1}", header="signature:\n  dynamic c/0\n")
        s2 = apply_updates(s, update_set(s, program.rule))
        assert s2.lookup("c") == s.universe.mk_set([s.universe.one])

    def test_writing_empty_clears_the_entry(self):
        program, s = make_state("c := 1", header="signature:\n  dynamic c/0\n")
        s2 = apply_updates(s, update_set(s, program.rule))
        assert sum(len(tbl) for tbl in s2.tables.values()) == 1
        s3 = apply_updates(s2, frozenset((("c", (), s.universe.empty),)))
        assert sum(len(tbl) for tbl in s3.tables.values()) == 0
        assert s3.lookup("c") == s.universe.empty

    def test_unknown_name_rejected(self):
        _, s = make_state("skip")
        with pytest.raises(MachineError, match="unknown dynamic name"):
            apply_updates(s, frozenset((("zap", (), s.universe.one),)))


class TestStep:
    def test_mark_all(self):
        program, s = make_state(
            "par forall v in Atoms do m(v) := true enddo Halt := true endpar",
            header="signature:\n  dynamic m/1 relational\n",
        )
        s2, ups = step(s, program)
        assert len(ups) == 4
        assert s2.halted()
        u = s2.universe
        assert all(s2.lookup("m", (u.atom(i),)) == u.one for i in range(3))

    def test_canonical_key_tracks_tables(self):
        program, s = make_state("c := {1}", header="signature:\n  dynamic c/0\n")
        s2, _ = step(s, program)
        assert tables_key(s.tables) != tables_key(s2.tables)
        s3, _ = step(s2, program)
        assert tables_key(s2.tables) == tables_key(s3.tables)

    def test_step_commutes_with_atom_permutation(self):
        header = "signature:\n  input E/2\n  dynamic m/1 relational\n"
        body = "forall v in Atoms do if E(v, v) then m(v) := true endif enddo"
        program = parse_program(header + "\nrule:\n" + body + "\n")
        inp = make_input(3, {"E": {(0, 0), (1, 2)}})
        s = initial_state(program, inp)
        perm = transposition(3, 0, 2)
        permuted_start = permute_state(s, perm)
        left, _ = step(permuted_start, program)
        right = permute_state(step(s, program)[0], perm)
        assert left == right


class TestInputFiles:
    def test_parse_round_trip(self):
        text = "# a graph\natoms 4\nE 0 1\nE 1 2\nE 2 3\n"
        inp = parse_input(text)
        assert inp.n_atoms == 4
        assert inp.relation("E") == {(0, 1), (1, 2), (2, 3)}

    def test_atom_out_of_range(self):
        with pytest.raises(MachineError, match="outside"):
            parse_input("atoms 2\nE 0 5\n")

    def test_atoms_line_required_first(self):
        with pytest.raises(MachineError, match="must come first"):
            parse_input("E 0 1\natoms 2\n")

    def test_check_against_signature(self):
        program = parse_program("signature:\n  input E/2\n\nrule:\nskip\n")
        with pytest.raises(MachineError, match="not declared"):
            initial_state(program, make_input(2, {"F": {(0,)}}))
        with pytest.raises(MachineError, match="arity"):
            check_input(program.signature, make_input(2, {"E": {(0, 1, 1)}}))

    def test_nullary_input_relation(self):
        program = parse_program(
            "signature:\n  input Flag/0\n\nrule:\n"
            "if Flag() then Halt := true endif\n")
        s_on = initial_state(program, make_input(2, {"Flag": {()}}))
        s_off = initial_state(program, make_input(2, {}))
        assert step(s_on, program)[0].halted()
        assert not step(s_off, program)[0].halted()
