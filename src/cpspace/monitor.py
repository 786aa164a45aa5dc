"""Space-bounded runs: the active-object measure and the run loop.

A machine is a program plus a polynomial space bound p.  On an input
with n atoms, a run steps the machine while watching how much of the
set universe the state actually touches:

* critical objects: the atoms, 0 and 1, and every value or argument
  component stored in a dynamic table;
* active objects: everything hereditarily reachable from a critical
  object (the union of their transitive closures).

Each state is inspected in a fixed order: first the space bound (a
state whose active count exceeds p(n) truncates the run and is kept
only as its final state, the witness), then Halt (accept iff Output is
1), then a cycle check on exact table fingerprints (a repeated state
can never lead anywhere new, so the run diverges), and only then the
next step.
An optional step budget turns very long runs into a distinct outcome
instead of hanging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from cpspace.hf import ObjId, Universe
from cpspace.machine import (
    InputStructure,
    MachineError,
    State,
    initial_state,
    step,
    tables_key,
)
from cpspace.syntax import Program, parse_program

MAX_DEGREE = 8


@dataclass(frozen=True)
class Polynomial:
    """A bound p(n) = c0 + c1*n + ... + cd*n^d with small nonnegative coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise MachineError("a space bound needs at least one coefficient")
        if len(self.coeffs) > MAX_DEGREE + 1:
            raise MachineError(f"space bound degree is capped at {MAX_DEGREE}")
        if any(c < 0 for c in self.coeffs):
            raise MachineError("space bound coefficients must be nonnegative")

    def evaluate(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and len(self.coeffs) > 1:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*n" if c != 1 else "n")
            else:
                parts.append(f"{c}*n^{i}" if c != 1 else f"n^{i}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PSpaceMachine:
    program: Program
    space: Polynomial


def machine_from_text(text: str) -> PSpaceMachine:
    program = parse_program(text)
    if program.space_coeffs is None:
        raise MachineError("machine file has no 'space:' line")
    return PSpaceMachine(program, Polynomial(program.space_coeffs))


def load_machine(path) -> PSpaceMachine:
    with open(path, encoding="utf-8") as fh:
        return machine_from_text(fh.read())


class RunOutcome(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    SPACE_EXCEEDED = "space-exceeded"
    DIVERGED = "diverged"
    STEP_LIMIT = "step-limit"


EXIT_CODE = {
    RunOutcome.ACCEPT: 0,
    RunOutcome.REJECT: 1,
    RunOutcome.SPACE_EXCEEDED: 2,
    RunOutcome.DIVERGED: 3,
    RunOutcome.STEP_LIMIT: 4,
}


def critical_objects(state: State) -> set[ObjId]:
    u = state.universe
    out: set[ObjId] = set(range(u.n_atoms))
    out.add(u.empty)
    out.add(u.one)
    for tbl in state.tables.values():
        for args, value in tbl.items():
            out.update(args)
            out.add(value)
    return out


def active_objects(state: State) -> set[ObjId]:
    """The union of the critical objects' transitive closures, in one walk."""
    elements = state.universe.elements
    out = critical_objects(state)
    stack = list(out)
    while stack:
        for c in elements(stack.pop()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


@dataclass
class RunTrace:
    outcome: RunOutcome
    steps: int
    bound: int
    states: list[State] = field(default_factory=list)
    active_sizes: list[int] = field(default_factory=list)
    final_state: State | None = None
    witness_active: int | None = None

    @property
    def peak_active(self) -> int:
        peak = max(self.active_sizes, default=0)
        if self.witness_active is not None:
            peak = max(peak, self.witness_active)
        return peak

    def active_union(self) -> set[ObjId]:
        """Active objects over the whole run; a space witness is excluded."""
        out: set[ObjId] = set()
        for s in self.states:
            out |= active_objects(s)
        return out


def run(
    machine: PSpaceMachine,
    inp: InputStructure,
    max_steps: int | None = None,
    universe: Universe | None = None,
) -> RunTrace:
    state = initial_state(machine.program, inp, universe)
    u = state.universe
    bound = machine.space.evaluate(inp.n_atoms)
    trace = RunTrace(RunOutcome.STEP_LIMIT, 0, bound)
    seen: set = set()
    while True:
        active = len(active_objects(state))
        if active > bound:
            trace.outcome = RunOutcome.SPACE_EXCEEDED
            trace.witness_active = active
            trace.final_state = state
            return trace
        trace.states.append(state)
        trace.active_sizes.append(active)
        if state.halted():
            accepted = state.output() == u.one
            trace.outcome = RunOutcome.ACCEPT if accepted else RunOutcome.REJECT
            trace.final_state = state
            return trace
        key = tables_key(state.tables)
        if key in seen:
            trace.outcome = RunOutcome.DIVERGED
            trace.final_state = state
            return trace
        seen.add(key)
        if max_steps is not None and trace.steps >= max_steps:
            trace.outcome = RunOutcome.STEP_LIMIT
            trace.final_state = state
            return trace
        state, _ = step(state, machine.program)
        trace.steps += 1
