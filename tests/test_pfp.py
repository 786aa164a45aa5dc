"""Update-formula extraction, evaluation, and stage iteration tests."""

import contextlib
import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest

import tarski
from randgen import random_triple

from cpspace.machine import (
    MachineError,
    State,
    initial_state,
    is_consistent,
    make_input,
    parse_input,
    update_set,
)
from cpspace.monitor import RunOutcome, load_machine, machine_from_text, run
from cpspace.pfp import (
    And,
    DynEq,
    Env,
    Exists,
    FALSEF,
    FormulaError,
    FreshNames,
    Member,
    Not,
    Or,
    PFPOp,
    ResAtom,
    TRUEF,
    TermEq,
    UnsupportedRule,
    bool_formula,
    decide,
    eval_formula,
    forall_f,
    formula_sexpr,
    formula_vars,
    iterate_stages,
    mk_and,
    mk_eq,
    mk_exists,
    mk_not,
    mk_or,
    stage_bodies,
    update_formula,
    value_formula,
)
from cpspace.symmetry import build_fragment
from cpspace.syntax import Apply, Comprehension, Variable, parse_program

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

TRUE = Apply("true")
FALSE = Apply("false")


def prog(body, header=""):
    return parse_program(header + "\nrule:\n" + body + "\n")


class TestConstructors:
    def test_and_or_folding(self):
        a = TermEq(Variable("x"), TRUE)
        assert mk_and([TRUEF, a]) == a
        assert mk_and([FALSEF, a]) == FALSEF
        assert mk_and([]) == TRUEF
        assert mk_or([FALSEF, a]) == a
        assert mk_or([TRUEF, a]) == TRUEF
        assert mk_or([]) == FALSEF

    def test_nested_flattening(self):
        a = TermEq(Variable("x"), TRUE)
        b = TermEq(Variable("y"), TRUE)
        c = TermEq(Variable("z"), TRUE)
        assert mk_and([a, mk_and([b, c])]) == And((a, b, c))

    def test_not_folding(self):
        a = TermEq(Variable("x"), TRUE)
        assert mk_not(TRUEF) == FALSEF
        assert mk_not(mk_not(a)) == a

    def test_exists_folding(self):
        assert mk_exists("v", FALSEF) == FALSEF
        assert mk_exists("v", TRUEF) == TRUEF

    def test_identical_terms_fold_to_true(self):
        assert mk_eq(TRUE, TRUE) == TRUEF

    def test_formula_vars(self):
        phi = Exists("v", And((Member(Variable("v"), Variable("s")),
                               TermEq(Variable("v"), Variable("y")))))
        assert formula_vars(phi) == {"s", "y"}


class TestValueFormulas:
    def test_static_term_needs_no_flattening(self):
        p = prog("skip", header="signature:\n  dynamic c/0\n")
        sig = p.signature
        fresh = FreshNames(set())
        phi = value_formula(Apply("Pair", (TRUE, FALSE)), "w", sig, fresh)
        assert phi == TermEq(Variable("w"), Apply("Pair", (TRUE, FALSE)))

    def test_bool_formula_static(self):
        p = prog("skip", header="signature:\n  input E/2\n")
        fresh = FreshNames(set())
        cond = Apply("E", (Variable("v"), Variable("v")))
        assert bool_formula(cond, p.signature, fresh) == TermEq(cond, TRUE)

    def test_dynamic_under_comprehension_rejected(self):
        p = prog("skip", header="signature:\n  dynamic c/0\n")
        term = Comprehension(Variable("v"), "v", Apply("Atoms"),
                             Apply("in", (Variable("v"), Apply("c"))))
        fresh = FreshNames(set())
        with pytest.raises(UnsupportedRule, match="comprehension"):
            value_formula(term, "w", p.signature, fresh)
        bad = prog("d := {v | v in Atoms, v in c}",
                   header="signature:\n  dynamic c/0\n  dynamic d/0\n")
        with pytest.raises(UnsupportedRule):
            update_formula(bad, "d")


ORACLE_RULES = [
    ("signature:\n  dynamic c/0\n",
     "if c = 0 then c := 1 else c := 0 endif", ["c"]),
    ("signature:\n  dynamic m/1 relational\n",
     "forall v in Atoms do m(v) := true enddo", ["m"]),
    ("signature:\n  dynamic c/0\n",
     "forall v in Atoms do c := v enddo", ["c"]),
    ("signature:\n  dynamic c/0\n  dynamic d/0\n",
     "par c := d d := c endpar", ["c", "d"]),
    ("signature:\n  dynamic g/1\n",
     "forall v in Atoms do forall w in Atoms do g(Pair(v, w)) := v enddo enddo",
     ["g"]),
    ("signature:\n  input E/2\n  dynamic m/1 relational\n  dynamic c/0\n  dynamic d/0\n",
     "if m(TheUnique({w | w in Atoms, E(w, w)})) = 1 then c := Pair(c, d) endif",
     ["c", "m"]),
    ("signature:\n  input E/2\n  dynamic m/1 relational\n",
     "forall v in Atoms do"
     " if not({w | w in Atoms, or(E(v, w), E(w, v))} = {}) then m(v) := true endif"
     " enddo", ["m"]),
]


def random_object(u, rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([u.empty, u.one] + [u.atom(i) for i in range(u.n_atoms)])
    return u.mk_set([random_object(u, rng, depth - 1) for _ in range(rng.randint(0, 3))])


def random_state(program, n, rng):
    pairs = set()
    for _ in range(rng.randint(0, n * n)):
        pairs.add((rng.randrange(n), rng.randrange(n)))
    rels = {"E": pairs} if program.signature.is_input("E") else {}
    s = initial_state(program, make_input(n, rels))
    u = s.universe
    for name, arity, rel in program.signature.dynamics:
        for _ in range(rng.randint(0, 4)):
            args = tuple(random_object(u, rng, 1) for _ in range(arity))
            val = rng.choice([u.empty, u.one]) if rel else random_object(u, rng)
            if val != u.empty:
                s.tables[name][args] = val
    return s


class TestUpdateFormulaOracle:
    """upd(args, y) must agree with the update set of the rule itself:
    it holds exactly when the set is consistent and contains the update."""

    @pytest.mark.parametrize("header,body,fnames", ORACLE_RULES)
    def test_against_update_set(self, header, body, fnames):
        program = prog(body, header=header)
        rng = random.Random(hash(body) & 0xFFFF)
        for _ in range(12):
            n = rng.randint(1, 4)
            state = random_state(program, n, rng)
            u = state.universe
            delta = update_set(state, program.rule)
            consistent = is_consistent(delta)
            for fname in fnames:
                upd = update_formula(program, fname)
                probes = [(args, val) for (g, args, val) in delta if g == fname]
                for _ in range(8):
                    probes.append((
                        tuple(random_object(u, rng, 1) for _ in range(len(upd.arg_vars))),
                        random_object(u, rng, 1)))
                for args, val in probes:
                    binding = dict(zip(upd.arg_vars, args))
                    binding[upd.val_var] = val
                    got = eval_formula(upd.formula, Env(state, binding))
                    want = consistent and (fname, args, val) in delta
                    assert got == want, (body, fname, args, val)

    def test_clashing_rule_is_false_everywhere(self):
        program = prog("forall v in Atoms do c := v enddo",
                       header="signature:\n  dynamic c/0\n")
        state = initial_state(program, make_input(3))
        u = state.universe
        upd = update_formula(program, "c")
        for y in [u.empty, u.one, u.atom(0), u.atom(1)]:
            assert not eval_formula(upd.formula, Env(state, {upd.val_var: y}))

    def test_skip_has_no_updates(self):
        program = prog("skip", header="signature:\n  dynamic c/0\n")
        upd = update_formula(program, "c")
        assert upd.formula == FALSEF


class TestEvaluation:
    def test_unguarded_exists_without_universe_raises(self):
        program = prog("skip")
        state = initial_state(program, make_input(2))
        phi = Exists("v", Not(TermEq(Variable("v"), TRUE)))
        with pytest.raises(FormulaError, match="no guard"):
            eval_formula(phi, Env(state))

    def test_unguarded_exists_over_objects(self):
        program = prog("skip")
        state = initial_state(program, make_input(2))
        u = state.universe
        phi = Exists("v", Not(TermEq(Variable("v"), FALSE)))
        objs = [u.empty, u.one]
        assert eval_formula(phi, Env(state, {}, tables={}, objects=objs))
        assert not eval_formula(phi, Env(state, {}, tables={}, objects=[u.empty]))

    def test_member_guard_enumerates_source(self):
        program = prog("skip")
        state = initial_state(program, make_input(3))
        u = state.universe
        phi = Exists("v", And((
            Member(Variable("v"), Apply("Atoms")),
            TermEq(Variable("v"), Variable("w")),
        )))
        assert eval_formula(phi, Env(state, {"w": u.atom(1)}))
        assert not eval_formula(phi, Env(state, {"w": u.one}))

    def test_nested_value_chains_stay_guarded(self):
        # dynamics nested inside other dynamics' arguments keep their
        # defining guards even though flattening buries them under
        # several fresh quantifiers
        header = ("signature:\n  input E/2\n  dynamic c/0\n"
                  "  dynamic g/1\n  dynamic d/0 relational\n")
        program = prog(
            "if E(g(g(c)), TheUnique({v | v in Atoms, E(v, v)}))"
            " then d := true endif",
            header=header)
        upd = update_formula(program, "d")
        for pairs in [{(0, 2), (2, 2)}, {(0, 1), (2, 2)}]:
            state = initial_state(program, make_input(3, {"E": pairs}))
            u = state.universe
            state.tables["c"][()] = u.atom(0)
            state.tables["g"][(u.atom(0),)] = u.atom(1)
            state.tables["g"][(u.atom(1),)] = u.atom(0)
            delta = update_set(state, program.rule)
            for val in [u.one, u.empty]:
                got = eval_formula(upd.formula, Env(state, {upd.val_var: val}))
                assert got == (("d", (), val) in delta)

    def test_state_atom_reads_the_given_tables(self):
        # f(args) = v reads env.tables, not the state, and a missing row
        # reads as the empty set
        program = prog("skip", header="signature:\n  dynamic c/0\n")
        state = initial_state(program, make_input(2))
        u = state.universe
        state.tables["c"][()] = u.atom(0)
        dyn = DynEq("c", (), Variable("y"))
        guarded = Exists("w", And((DynEq("c", (), Variable("w")), TermEq(Variable("w"), TRUE))))
        for tables, value in (({"c": {}}, u.empty), ({"c": {(): u.one}}, u.one)):
            for y in (u.empty, u.one, u.atom(0)):
                assert eval_formula(dyn, Env(state, {"y": y}, tables=tables)) == (y == value)
            assert eval_formula(guarded, Env(state, {}, tables=tables)) == (value == u.one)
        assert eval_formula(dyn, Env(state, {"y": u.atom(0)}))


def lockstep_prefix(result, trace):
    k = min(len(result.stages), len(trace.states))
    return all(result.stages[i] == trace.states[i].tables for i in range(k)), k


class TestStageIteration:
    def test_halt_accept(self):
        machine = load_machine(FIXTURES / "halt_accept.machine")
        verdict, result, trace = decide(machine, make_input(3))
        assert verdict == "accept"
        assert result.status == "fixed"
        assert trace.outcome is RunOutcome.ACCEPT
        ok, k = lockstep_prefix(result, trace)
        assert ok and k == 2

    def test_halt_reject(self):
        machine = load_machine(FIXTURES / "halt_reject.machine")
        verdict, result, trace = decide(machine, make_input(3))
        assert verdict == "reject"
        assert trace.outcome is RunOutcome.REJECT

    def test_toggle_cycles_to_unknown(self):
        machine = load_machine(FIXTURES / "toggle.machine")
        verdict, result, trace = decide(machine, make_input(3))
        assert verdict == "unknown"
        assert result.status == "cycled"
        assert trace.outcome is RunOutcome.DIVERGED
        assert all(not tbl for tbl in result.tables.values())
        ok, _ = lockstep_prefix(result, trace)
        assert ok

    def test_clash_freezes(self):
        machine = load_machine(FIXTURES / "clash.machine")
        verdict, result, trace = decide(machine, make_input(3))
        assert verdict == "unknown"
        assert result.status == "fixed"
        assert all(not tbl for tbl in result.tables.values())

    def test_grow_truncates_to_unknown(self):
        machine = load_machine(FIXTURES / "grow.machine")
        verdict, result, trace = decide(machine, make_input(3))
        assert verdict == "unknown"
        assert trace.outcome is RunOutcome.SPACE_EXCEEDED
        ok, _ = lockstep_prefix(result, trace)
        assert ok

    def test_space_exceeded_run_is_unknown(self):
        # the stages reach Halt = Output = 1 over the truncated domain,
        # but the run was cut off, so the induction cannot decide
        machine = load_machine(FIXTURES / "pairs.machine")
        verdict, result, trace = decide(machine, make_input(2))
        assert trace.outcome is RunOutcome.SPACE_EXCEEDED
        assert result.status == "fixed"
        assert result.verdict(trace.final_state.universe) == "accept"
        assert verdict == "unknown"

    def test_step_limited_run_is_unknown(self):
        # deep never halts and stays inside its space bound: the run stops
        # at max_stages steps, and the induction over its objects cannot
        # decide
        machine = load_machine(FIXTURES / "deep.machine")
        verdict, result, trace = decide(machine, make_input(3), max_stages=4)
        assert trace.outcome is RunOutcome.STEP_LIMIT and trace.steps == 4
        assert result.status == "stage-cap" and len(result.stages) == 5
        assert verdict == "unknown"
        # the domain of the truncated run still gives its stages up to the cut
        assert lockstep_prefix(result, trace) == (True, 5)

    def test_mark_all_matches_final_state(self):
        machine = load_machine(FIXTURES / "mark_all.machine")
        inp = parse_input((FIXTURES / "edges.input").read_text(encoding="utf-8"))
        verdict, result, trace = decide(machine, inp)
        assert verdict == "accept"
        assert result.status == "fixed"
        assert result.tables == trace.final_state.tables
        ok, k = lockstep_prefix(result, trace)
        assert ok and k == len(trace.states)

    def test_iteration_is_deterministic(self):
        machine = load_machine(FIXTURES / "mark_all.machine")
        inp = parse_input((FIXTURES / "edges.input").read_text(encoding="utf-8"))
        _, r1, _ = decide(machine, inp)
        _, r2, _ = decide(machine, inp)
        assert r1.stages == r2.stages


class TestFixedPointOperator:
    def test_brace_chain(self):
        # D grows along the chain {}, {{}}, {{{}}}, ...: x is in D when x
        # is empty or x is the singleton of something already in D
        program = prog("skip")
        state = initial_state(program, make_input(2))
        u = state.universe
        one_set = u.mk_set([u.one])  # {1} = {{0}}
        objs = [u.empty, u.one, one_set, u.atom(0)]
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        body = mk_or([
            TermEq(x, Apply("emptyset")),
            mk_exists("y", mk_and([
                Member(y, x),
                ResAtom("D", (y,)),
                forall_f("z", mk_or([mk_not(Member(z, x)), TermEq(z, y)])),
            ])),
        ])
        for probe, want in [(u.empty, True), (u.one, True), (one_set, True),
                            (u.atom(0), False)]:
            phi = PFPOp("D", ("x",), body, (Variable("p"),))
            env = Env(state, {"p": probe}, tables={}, objects=objs)
            assert eval_formula(phi, env) == want

    def test_cycling_operator_yields_empty_relation(self):
        program = prog("skip")
        state = initial_state(program, make_input(2))
        u = state.universe
        body = mk_not(ResAtom("D", (Variable("x"),)))  # alternates, never fixes
        phi = PFPOp("D", ("x",), body, (Apply("emptyset"),))
        assert not eval_formula(phi, Env(state, {}, tables={}, objects=[u.empty, u.one]))


class TestGoldenExtraction:
    def golden_check(self, program, fname, path):
        upd = update_formula(program, fname)
        text = f"; upd for {fname}({', '.join(upd.arg_vars)}) := {upd.val_var}\n"
        text += formula_sexpr(upd.formula) + "\n"
        assert text == (GOLDEN / path).read_text(encoding="utf-8")

    def test_toggle_state_mode(self):
        p = parse_program((FIXTURES / "toggle.machine").read_text(encoding="utf-8"))
        self.golden_check(p, "c", "toggle_upd_state.sexpr")

    def test_diagonal_marker(self):
        p = prog("forall v in Atoms do if E(v, v) then m(v) := true endif enddo",
                 header="signature:\n  input E/2\n  dynamic m/1 relational\n")
        self.golden_check(p, "m", "mark_diag_upd_state.sexpr")


def subformulas(phi):
    """phi and every formula under it."""
    yield phi
    if isinstance(phi, (Not, Exists, PFPOp)):
        yield from subformulas(phi.body)
    elif isinstance(phi, (And, Or)):
        for part in phi.parts:
            yield from subformulas(part)


def quantifier_depth(phi) -> int:
    if isinstance(phi, Exists):
        return 1 + quantifier_depth(phi.body)
    if isinstance(phi, Not):
        return quantifier_depth(phi.body)
    if isinstance(phi, (And, Or)):
        return max(quantifier_depth(p) for p in phi.parts)
    return 0


def fragment_sentences():
    """Membership and fixed-point sentences over pure set structures."""
    x, y = Variable("x"), Variable("y")
    zero, one = Apply("emptyset"), Apply("true")
    return [
        mk_exists("x", TermEq(x, zero)),
        mk_exists("x", mk_and([Member(zero, x), mk_not(mk_exists("y", mk_and([
            Member(y, x), mk_not(TermEq(y, zero))])))])),
        mk_exists("x", mk_and([mk_not(TermEq(x, zero)), mk_not(mk_exists("y", Member(y, x)))])),
        mk_exists("x", mk_and([Member(zero, x), Member(one, x)])),
        mk_not(mk_exists("x", mk_and([Member(one, x), mk_not(Member(zero, x))]))),
        mk_exists("x", Member(x, x)),
        PFPOp("D", ("x",), mk_or([
            TermEq(x, zero),
            mk_exists("y", mk_and([Member(y, x), ResAtom("D", (y,))]))]), (zero,)),
        mk_not(PFPOp("D", ("x",), mk_not(ResAtom("D", (x,))), (zero,))),
    ]


class TestAgainstTarski:
    """The compiled, guarded evaluator against the brute-force reading in
    tests/tarski.py, where every quantifier enumerates an object list."""

    def test_update_formulas_of_random_triples(self):
        # the brute-force reading costs about |objects| ** (quantifier
        # depth) per probe, so it checks shallow formulas only, and deeper
        # ones are left to criterion 1, which checks every update formula
        # against the interpreter
        rng = random.Random(20261018)
        checked = 0
        for _ in range(400):
            program, state, binding = random_triple(rng)
            u = state.universe
            pool = list(u.atoms())[:2] + [u.empty, u.one]
            probes = []
            for name, arity, _rel in program.signature.dynamics:
                upd = update_formula(program, name)
                depth = quantifier_depth(upd.formula)
                shallow = u.size() ** depth <= 10 ** 4
                checked += shallow and depth > 0
                for args in itertools.product(pool, repeat=arity):
                    for val in pool:
                        bound = dict(binding)
                        bound.update(zip(upd.arg_vars, args))
                        bound[upd.val_var] = val
                        value = eval_formula(upd.formula, Env(state, dict(bound)))
                        if shallow:
                            probes.append((upd, bound, value))
            # every witness a guard allows is interned by now
            objects = list(range(u.size()))
            for upd, bound, value in probes:
                assert tarski.holds(upd.formula, state, bound, objects) == value, (
                    program.rule, formula_sexpr(upd.formula), bound)
        assert checked >= 100

    def test_block_variables_that_shadow_a_binding(self):
        program = prog("skip", header="signature:\n  dynamic c/0\n")
        state = initial_state(program, make_input(2))
        u = state.universe
        state.tables["c"][()] = u.atom(0)
        objects = [u.empty, u.one, u.atom(0), u.atom(1), u.mk_set([u.atom(1)])]
        x, w, q, z = (Variable(v) for v in "xwqz")
        zero, atoms = Apply("emptyset"), Apply("Atoms")
        only_x = Comprehension(z, "z", atoms, Apply("=", (z, x)))
        formulas = [
            # a guard for w must not read the outer x
            Exists("x", And((Exists("w", TermEq(w, x)), Not(TermEq(x, zero))))),
            # nor may a term that is no guard of x, here a comprehension
            Exists("x", Exists("w", And((Member(w, only_x), TermEq(w, q))))),
            Exists("x", And((Member(x, atoms), Exists("x", TermEq(x, q))))),
            Exists("x", And((Member(x, atoms), Not(Exists("x", And((
                Member(x, atoms), Not(TermEq(x, q))))))))),
            # the outer value is back once the block is done
            And((Exists("x", TermEq(x, q)), Member(x, atoms))),
            Or((Exists("x", And((Member(x, atoms), TermEq(x, zero)))), TermEq(x, q))),
            # as in a stage body: "f() = y and no update to f fires"
            And((DynEq("c", (), x), Not(Exists("x", And((TermEq(x, q), Not(TermEq(x, zero)))))))),
            Exists("x", And((DynEq("c", (), x), Not(TermEq(x, q))))),
            Exists("x", And((TermEq(x, q), PFPOp("D", ("x",), mk_or([
                TermEq(x, zero),
                mk_exists("w", mk_and([Member(w, x), ResAtom("D", (w,))]))]), (x,))))),
        ]
        for phi in formulas:
            for xv, qv in itertools.product(objects, repeat=2):
                binding = {"x": xv, "q": qv}
                env = Env(state, dict(binding), objects=objects)
                assert eval_formula(phi, env) == tarski.holds(phi, state, binding, objects), (
                    formula_sexpr(phi), binding)
                assert env.binding == binding
        # with x bound to 0, x = w = 1 witnesses the first formula
        env = Env(state, {"x": u.empty}, objects=objects)
        assert eval_formula(formulas[0], env)

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.machine")))
    def test_stage_bodies_on_the_stages_of_each_fixture(self, name):
        # each body, read against stage i, holds exactly for the rows of
        # stage i + 1.  Rows range over the run's objects, as in the
        # induction, but a witness need not be one of them (a par block's
        # index sets are not), so the brute-force quantifiers range over
        # the whole universe.  The runs stop early, as deep never halts.
        machine = load_machine(FIXTURES / f"{name}.machine")
        program = machine.program
        inputs = [make_input(2), make_input(3)]
        if program.signature.is_input("E"):
            inputs.append(parse_input((FIXTURES / "edges.input").read_text(encoding="utf-8")))
        checked = 0
        for inp in inputs:
            trace = run(machine, inp, 6)
            u = trace.final_state.universe
            objects = sorted(trace.active_union())
            result = iterate_stages(program, inp, objects, u, max_stages=6)
            term_state = State(u, inp, program.signature,
                               {n: {} for n in program.signature.dynamic_names()})
            probes = []
            for stage, after in zip(result.stages, result.stages[1:]):
                for sb in stage_bodies(program):
                    for args in itertools.product(objects, repeat=len(sb.arg_vars)):
                        for y in objects:
                            binding = dict(zip(sb.arg_vars, args))
                            binding[sb.val_var] = y
                            env = Env(term_state, dict(binding), stage, objects)
                            value = eval_formula(sb.formula, env)
                            assert (after[sb.name].get(args) == y) == value, (name, sb.name)
                            probes.append((sb.formula, binding, stage, value))
            universe = list(range(u.size()))
            for phi, binding, stage, value in probes:
                if len(universe) ** quantifier_depth(phi) <= 10 ** 4:
                    checked += 1
                    assert tarski.holds(phi, term_state, binding, universe, stage) == value, (
                        name, formula_sexpr(phi), binding)
        assert checked

    @pytest.mark.parametrize("n", [2, 3])
    def test_sentences_on_rank_one_fragments(self, n):
        frag = build_fragment(n, 1, 1)
        state = initial_state(prog("skip"), make_input(n), universe=frag.universe)
        objects = list(frag.objects)
        for phi in fragment_sentences():
            got = eval_formula(phi, Env(state, {}, tables={}, objects=objects))
            assert got == tarski.holds(phi, state, {}, objects, {}), formula_sexpr(phi)

    def test_fixed_point_operator_bodies(self):
        state = initial_state(prog("skip"), make_input(2))
        u = state.universe
        objs = [u.empty, u.one, u.mk_set([u.one]), u.atom(0), u.mk_set([u.atom(0), u.one])]
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        brace_chain = mk_or([
            TermEq(x, Apply("emptyset")),
            mk_exists("y", mk_and([
                Member(y, x),
                ResAtom("D", (y,)),
                forall_f("z", mk_or([mk_not(Member(z, x)), TermEq(z, y)])),
            ])),
        ])
        cycling = mk_not(ResAtom("D", (x,)))
        for body in (brace_chain, cycling):
            for probe in objs:
                phi = PFPOp("D", ("x",), body, (Variable("p"),))
                env = Env(state, {"p": probe}, tables={}, objects=objs)
                assert eval_formula(phi, env) == tarski.holds(
                    phi, state, {"p": probe}, objs, {})


def fused_shape_formulas():
    """(label, formula) over free p and q, each exercising a shape that
    compiles to a single closure, in the settings where it must agree
    with the generic plans."""
    p, q, x, y, z, w = (Variable(v) for v in "pqxyzw")
    zero, bad = Apply("emptyset"), Apply("nope", (q,))
    grounded = mk_or([TermEq(x, zero), mk_exists("y", mk_and([Member(y, x), ResAtom("D", (y,))]))])
    return [
        ("a membership guard over a free variable",
         mk_exists("x", mk_and([Member(x, q), mk_not(TermEq(x, zero)),
                                mk_exists("y", mk_and([Member(y, x), TermEq(y, p)]))]))),
        ("the transitive closure of membership",
         PFPOp("T", ("x", "y"), mk_or([
             Member(x, y),
             mk_exists("z", mk_and([Member(z, y), ResAtom("T", (x, z))]))]), (p, q))),
        ("a row atom with a repeated variable",
         PFPOp("S", ("x", "y"), mk_or([
             mk_and([TermEq(x, zero), TermEq(y, zero)]),
             mk_exists("w", mk_and([Member(w, y), ResAtom("S", (w, w))])),
             mk_and([Member(x, y), ResAtom("S", (y, y))])]), (p, q))),
        ("a row atom with a compound argument",
         PFPOp("D", ("x",), mk_or([
             TermEq(x, zero),
             ResAtom("D", (Apply("Union", (x,)),)),
             mk_exists("y", mk_and([Member(y, x), ResAtom("D", (Apply("Pair", (y, q)),))]))]),
             (p,))),
        ("a membership guard over a compound container",
         PFPOp("D", ("x",), mk_or([
             TermEq(x, zero),
             mk_exists("y", mk_and([Member(y, Apply("Union", (x,))), ResAtom("D", (y,))]))]),
             (p,))),
        ("a binary row atom with a compound argument",
         PFPOp("T", ("x", "y"), mk_or([
             TermEq(x, y),
             mk_exists("z", mk_and([Member(z, y), ResAtom("T", (x, Apply("Union", (z,))))]))]),
             (p, q))),
        ("a nested operator whose body reads the outer relation",
         PFPOp("D", ("x",), mk_or([
             TermEq(x, zero),
             PFPOp("E", ("y",), mk_or([
                 mk_exists("w", mk_and([Member(w, y), ResAtom("D", (w,))])),
                 mk_exists("w", mk_and([Member(w, y), ResAtom("E", (w,))]))]), (x,))]), (p,))),
        ("a block variable that shadows the operator's variable",
         PFPOp("D", ("x",), mk_or([
             TermEq(x, zero),
             mk_exists("x", mk_and([Member(x, q), ResAtom("D", (x,))]))]), (p,))),
        ("a block variable that shadows a free variable",
         mk_exists("p", mk_and([Member(p, q), mk_not(TermEq(p, zero)),
                                PFPOp("D", ("x",), grounded, (p,))]))),
        ("a failing container: the fallback guard is tried, and reaches it",
         mk_exists("x", mk_and([Member(x, bad), TermEq(x, p)]))),
        # the brute-force reading stops at the first false conjunct, so
        # these put it first: evaluated, the container would raise
        ("a failing container: the fallback guard finds a false conjunct",
         mk_exists("x", And((FALSEF, Member(x, bad), TermEq(x, p))))),
        ("a failing container: the fallback enumerates the objects",
         PFPOp("D", ("y",), mk_not(mk_exists("x", And((FALSEF, Member(x, bad))))), (p,))),
    ]


class TestFusedShapes:
    """Bound-variable rows and equations, membership-guarded blocks and
    the stage loop of a fixed-point operator each compile to one closure;
    they agree with the brute-force reading in tests/tarski.py."""

    @pytest.mark.parametrize("label,phi", fused_shape_formulas(),
                             ids=[label for label, _ in fused_shape_formulas()])
    def test_against_tarski(self, label, phi):
        state = initial_state(prog("skip"), make_input(2))
        u = state.universe
        # closed under membership, so that a membership guard offers only
        # objects the brute-force quantifiers also range over
        objects = [u.empty, u.one, u.mk_set([u.one]), u.atom(0), u.atom(1),
                   u.mk_set([u.atom(0), u.one]), u.mk_set([u.empty, u.mk_set([u.one])])]

        def outcome(evaluate):
            try:
                return evaluate()
            except MachineError:
                return MachineError

        for pv, qv in itertools.product(objects, repeat=2):
            binding = {"p": pv, "q": qv}
            env = Env(state, dict(binding), tables={}, objects=objects)
            got = outcome(lambda: eval_formula(phi, env))
            assert got == outcome(lambda: tarski.holds(phi, state, binding, objects, {})), (
                label, binding)
            assert env.binding == binding


class TestPlans:
    """A formula compiles once per shape of environment: the binding
    names and the fixed-point relations being iterated."""

    def test_binding_names_select_the_plan(self):
        state = initial_state(prog("skip"), make_input(3))
        u = state.universe
        # with w bound, the equation pins v; without it, w is unbound
        phi = Exists("v", And((Member(Variable("v"), Apply("Atoms")),
                               TermEq(Variable("v"), Variable("w")))))
        assert eval_formula(phi, Env(state, {"w": u.atom(2)}))
        with pytest.raises(MachineError, match="unbound variable 'w'"):
            eval_formula(phi, Env(state, {"q": u.atom(2)}))
        assert not eval_formula(phi, Env(state, {"w": u.one}))
        # a name that shadows an outer binding is not spliced into the block
        shadow = Exists("v", And((Member(Variable("v"), Apply("Atoms")),
                                  Exists("s", TermEq(Variable("s"), Variable("v"))))))
        assert eval_formula(shadow, Env(state, {}))
        assert eval_formula(shadow, Env(state, {"s": u.empty}))
        assert eval_formula(shadow, Env(state, {}))

    def test_one_plan_reads_the_given_or_the_state_tables(self):
        # the plan does not depend on which tables are given: dynamic atoms
        # read env.tables, or the state's tables when there are none
        program = prog("skip", header="signature:\n  dynamic c/0\n")
        state = initial_state(program, make_input(2))
        u = state.universe
        state.tables["c"][()] = u.one
        dyn = DynEq("c", (), Variable("y"))
        row = ResAtom("c", (Variable("y"),))
        for _ in range(2):
            assert eval_formula(dyn, Env(state, {"y": u.one}))
            assert not eval_formula(dyn, Env(state, {"y": u.one}, tables={"c": {}}))
            assert eval_formula(dyn, Env(state, {"y": u.one}, tables={"c": {(): u.one}}))
            assert eval_formula(row, Env(state, {"y": u.one}, pfp_rels={"c": {(u.one,)}}))
            assert not eval_formula(row, Env(state, {"y": u.one}, tables={"c": {(): u.one}},
                                             pfp_rels={"c": set()}))
        assert len(row._plans) == 1 and len(dyn._plans) == 1

    def test_errors_are_raised_only_when_reached(self):
        program = prog("skip", header="signature:\n  dynamic c/0\n")
        state = initial_state(program, make_input(2))
        u = state.universe
        unguarded = Exists("v", Not(TermEq(Variable("v"), TRUE)))
        holds = TermEq(TRUE, TRUE)
        with pytest.raises(FormulaError, match="no guard and no object universe"):
            eval_formula(Or((TermEq(TRUE, FALSE), unguarded)), Env(state))
        assert eval_formula(Or((holds, unguarded)), Env(state))
        # a dynamic atom whose name has no table, read from the state or
        # from the given tables, and a row atom outside a fixed-point
        # operator over its relation, whatever tables there are, raise only
        # when evaluated
        no_table = (Env(state), Env(state, {}, tables={"c": {}}))
        with_table = Env(state, {}, tables={"e": {(): u.one}})
        cases = ((DynEq("e", (), TRUE), "no table for relation 'e'", no_table),
                 (ResAtom("e", (TRUE,)), "row atom of 'e' outside", no_table + (with_table,)))
        for atom, message, envs in cases:
            for env in envs:
                with pytest.raises(FormulaError, match=message):
                    eval_formula(Or((TermEq(TRUE, FALSE), atom)), env)
                assert eval_formula(Or((holds, atom)), env)
                assert not eval_formula(And((Not(holds), atom)), env)
        # the dynamic atom's guard yields nothing; the row atom gives no guard
        guarded = Exists("w", And((DynEq("e", (), Variable("w")), TermEq(Variable("w"), TRUE))))
        with pytest.raises(FormulaError, match="no table for relation 'e'"):
            eval_formula(guarded, Env(state, {}, objects=[u.empty, u.one]))
        row = Exists("w", ResAtom("e", (Variable("w"),)))
        with pytest.raises(FormulaError, match="no guard and no object universe"):
            eval_formula(row, Env(state, {}, tables={"e": {(): u.one}}))
        with pytest.raises(FormulaError, match="row atom of 'e' outside"):
            eval_formula(row, Env(state, {}, tables={"e": {(): u.one}}, objects=[u.empty]))
        # a block variable that nothing guards needs the object universe,
        # also beside a membership guard and a row atom
        y = Variable("y")
        vacuous = Exists("y", Exists("z", And((Member(y, Variable("x")), ResAtom("e", (y,))))))
        with pytest.raises(FormulaError, match="no guard and no object universe"):
            eval_formula(vacuous, Env(state, {"x": u.one}, pfp_rels={"e": set()}))
        assert not eval_formula(vacuous, Env(state, {"x": u.empty}, pfp_rels={"e": set()}))

    def test_plans_live_only_as_long_as_their_formulas(self):
        # reference counting alone frees each formula with its plans: no
        # module-level table keeps them, and no cycle waits for the collector
        state = initial_state(prog("skip"), make_input(3))
        u = state.universe
        refs = []
        gc.disable()
        try:
            for i in range(1000):
                phi = mk_exists("v", mk_and([
                    Member(Variable("v"), Apply("Atoms")),
                    TermEq(Variable("v"), Variable(f"w{i}"))]))
                assert eval_formula(phi, Env(state, {f"w{i}": u.atom(i % 3)}))
                refs.append(weakref.ref(phi))
            # so do the fused shapes: membership-guarded blocks, bound-variable
            # rows and equations and the stage loop of an operator, and the
            # closures planned for every node under them
            objects = [u.empty, u.one, u.mk_set([u.one]), u.atom(0)]
            for pv, qv in itertools.product(objects, repeat=2):
                for _label, phi in fused_shape_formulas():
                    env = Env(state, {"p": pv, "q": qv}, tables={}, objects=objects)
                    with contextlib.suppress(MachineError):
                        eval_formula(phi, env)
                    refs.append(weakref.ref(phi))
                    refs.extend(weakref.ref(plan) for node in subformulas(phi)
                                for plan in getattr(node, "_plans", {}).values()
                                if plan.__closure__)
            del phi
            assert [r for r in refs if r() is not None] == []
        finally:
            gc.enable()
