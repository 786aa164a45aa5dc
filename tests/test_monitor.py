"""Run-loop tests: outcomes, the active-object measure, check ordering."""

import time
from pathlib import Path

import pytest

from cpspace.hf import Universe
from cpspace.machine import MachineError, RelationalValueError, make_input, parse_input
from cpspace.monitor import (
    EXIT_CODE,
    Polynomial,
    RunOutcome,
    active_objects,
    critical_objects,
    load_machine,
    machine_from_text,
    run,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name: str):
    return load_machine(FIXTURES / name)


class TestPolynomial:
    def test_evaluate(self):
        # 2 + 0*n + 1*n^2 at n = 3
        assert Polynomial((2, 0, 1)).evaluate(3) == 11
        assert Polynomial((5,)).evaluate(100) == 5
        assert Polynomial((0, 1)).evaluate(7) == 7

    def test_degree_cap(self):
        Polynomial(tuple([1] * 9))
        with pytest.raises(MachineError, match="degree"):
            Polynomial(tuple([1] * 10))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(MachineError, match="nonnegative"):
            Polynomial((1, -2))

    def test_str(self):
        assert str(Polynomial((2, 0, 1))) == "2 + n^2"
        assert str(Polynomial((0,))) == "0"
        assert str(Polynomial((1, 3))) == "1 + 3*n"

    def test_machine_requires_space_line(self):
        with pytest.raises(MachineError, match="space"):
            machine_from_text("rule:\nskip\n")


class TestActiveMeasure:
    def test_fresh_state_actives(self):
        # with empty tables: the atoms plus 0 and 1
        machine = fixture("halt_accept.machine")
        trace = run(machine, make_input(3))
        assert trace.active_sizes[0] == 5

    def test_stored_values_pull_in_their_closures(self):
        machine = machine_from_text(
            "signature:\n  dynamic c/0\nspace: 8 1\n\nrule:\nc := {Pair(1, 1)}\n")
        trace = run(machine, make_input(2), max_steps=1)
        state = trace.states[-1]
        u = state.universe
        one_set = u.mk_set([u.one])
        stored = u.mk_set([one_set])
        crit = critical_objects(state)
        assert crit == {0, 1, u.empty, u.one, stored}
        assert active_objects(state) == {0, 1, u.empty, u.one, one_set, stored}


class TestActiveObjectsAgainstClosures:
    """`active_objects` walks once from the critical objects; the union of
    their closures by `Universe.tc` is the definition it must agree with."""

    @staticmethod
    def union_of_closures(state):
        u = state.universe
        out = set()
        for x in critical_objects(state):
            out.update(u.tc(x))
        return out

    @pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.machine")))
    def test_every_state_of_each_fixture(self, name):
        machine = fixture(f"{name}.machine")
        inputs = [make_input(2), make_input(3)]
        if machine.program.signature.is_input("E"):
            inputs.append(parse_input((FIXTURES / "edges.input").read_text(encoding="utf-8")))
        for inp in inputs:
            trace = run(machine, inp, max_steps=100)  # deep never halts
            exceeded = trace.outcome is RunOutcome.SPACE_EXCEEDED
            witness = [trace.final_state] if exceeded else []
            for state in trace.states + witness:
                assert active_objects(state) == self.union_of_closures(state), name

    def test_every_state_of_the_deep_run(self):
        trace = run(fixture("deep.machine"), make_input(3), TestDeepRank.STEPS)
        assert len(trace.states) == TestDeepRank.STEPS + 1
        for state in trace.states:
            assert active_objects(state) == self.union_of_closures(state)


class TestOutcomes:
    def test_accept(self):
        trace = run(fixture("halt_accept.machine"), make_input(3))
        assert trace.outcome is RunOutcome.ACCEPT
        assert trace.steps == 1
        assert len(trace.states) == 2
        assert trace.final_state.halted()

    def test_reject_without_output(self):
        trace = run(fixture("halt_reject.machine"), make_input(3))
        assert trace.outcome is RunOutcome.REJECT
        assert trace.steps == 1

    def test_junk_output_rejects(self):
        machine = machine_from_text(
            "space: 3 1\n\nrule:\npar Output := {0, 1} Halt := true endpar\n")
        trace = run(machine, make_input(3))
        assert trace.outcome is RunOutcome.REJECT

    def test_diverges_on_cycle(self):
        trace = run(fixture("toggle.machine"), make_input(3))
        assert trace.outcome is RunOutcome.DIVERGED
        assert trace.steps == 2
        assert trace.final_state == trace.states[0]

    def test_clash_freezes_and_diverges(self):
        trace = run(fixture("clash.machine"), make_input(3))
        assert trace.outcome is RunOutcome.DIVERGED
        assert trace.steps == 1
        assert trace.states[0].tables == trace.states[1].tables

    def test_space_exceeded(self):
        trace = run(fixture("grow.machine"), make_input(3))
        assert trace.outcome is RunOutcome.SPACE_EXCEEDED
        assert trace.steps == 2
        assert trace.bound == 5
        assert trace.witness_active == 6
        assert len(trace.states) == 2

    def test_witness_excluded_from_active_union(self):
        trace = run(fixture("grow.machine"), make_input(3))
        assert trace.outcome is RunOutcome.SPACE_EXCEEDED
        grown = trace.final_state.lookup("c")
        assert grown not in trace.active_union()
        assert grown in active_objects(trace.final_state)

    def test_space_checked_before_halt(self):
        # halting state that also violates the bound counts as exceeded
        machine = machine_from_text(
            "space: 2 1\n\nrule:\npar Output := {0, 1} Halt := true endpar\n")
        trace = run(machine, make_input(3))
        assert trace.outcome is RunOutcome.SPACE_EXCEEDED

    def test_immediate_space_exceeded(self):
        machine = machine_from_text("space: 0\n\nrule:\nskip\n")
        trace = run(machine, make_input(2))
        assert trace.outcome is RunOutcome.SPACE_EXCEEDED
        assert trace.steps == 0
        assert trace.states == []
        assert trace.peak_active == 4

    def test_step_limit(self):
        trace = run(fixture("toggle.machine"), make_input(3), max_steps=1)
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == 1

    def test_relational_violation_aborts(self):
        machine = machine_from_text(
            "signature:\n  dynamic m/0 relational\nspace: 2 1\n\nrule:\nm := {1}\n")
        with pytest.raises(RelationalValueError):
            run(machine, make_input(2))


class TestDeepRank:
    """c := {c} to 2,000 steps, one new object per rank level.

    The stated bound is 10 s of wall time; the run takes well under a
    second when each canonical comparison costs O(1) and no traversal
    recurses once per rank level.
    """

    STEPS = 2000
    BOUND_S = 10.0

    def test_run_within_time_bound(self):
        machine = fixture("deep.machine")
        start = time.perf_counter()
        trace = run(machine, make_input(3), self.STEPS)
        elapsed = time.perf_counter() - start
        assert trace.outcome is RunOutcome.STEP_LIMIT
        assert trace.steps == self.STEPS
        assert trace.active_sizes[-1] == 3 + self.STEPS + 1  # atoms, then 0 .. c
        u = trace.final_state.universe
        assert u.rank(trace.final_state.lookup("c")) == self.STEPS
        assert elapsed < self.BOUND_S, f"{self.STEPS} steps took {elapsed:.1f} s"


class TestMarkAll:
    def test_marks_edge_endpoints(self):
        machine = fixture("mark_all.machine")
        with open(FIXTURES / "edges.input", encoding="utf-8") as fh:
            inp = parse_input(fh.read())
        trace = run(machine, inp)
        assert trace.outcome is RunOutcome.ACCEPT
        final = trace.final_state
        u = final.universe
        marked = {args[0] for args in final.tables["m"]}
        assert marked == {u.atom(0), u.atom(1), u.atom(2)}

    def test_shared_universe_can_be_supplied(self):
        machine = fixture("halt_accept.machine")
        u = Universe(3)
        trace = run(machine, make_input(3), universe=u)
        assert trace.final_state.universe is u


class TestExitCodes:
    def test_mapping(self):
        # pinned process exit codes
        assert EXIT_CODE[RunOutcome.ACCEPT] == 0
        assert EXIT_CODE[RunOutcome.REJECT] == 1
        assert EXIT_CODE[RunOutcome.SPACE_EXCEEDED] == 2
        assert EXIT_CODE[RunOutcome.DIVERGED] == 3
        assert EXIT_CODE[RunOutcome.STEP_LIMIT] == 4
