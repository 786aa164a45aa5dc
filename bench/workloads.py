"""The four benchmark workloads.

Each workload has three steps, and the runner times the first two:

* `setup(seed)` parses machines, generates inputs and builds fragments.
  It returns fresh objects on every call, so every universe the timed
  phase touches starts with cold caches, as it does for a user running
  the command line once.
* `run(inputs)` is the timed phase: only calls into cpspace, from the
  first call to the last verdict.
* `check(inputs, outputs)` checks every output against something
  computed apart from the code under test: the interpreter, the game
  solver, scans written here, or a stated property.  It returns
  (attempted, failures, problems).  A round attempts the same
  operations whatever the seed.  `failures` describes the operations
  that raised, and the one operation that hits the known fault named in
  `KNOWN_FAULT` on `KNOWN_FAULT_CASE`; any entry in `problems` is a
  wrong output and makes the run incorrect.

The seed draws the random triples and the `mark_all` edges of
`induction`, the sentence order of `indistinguishability` and the atom
count of `deep-rank`; `games` does the same work for every seed.
"""

from __future__ import annotations

import contextlib
import io
import random
import os
import shutil
import traceback
from pathlib import Path

import gen
from cpspace import cli
from cpspace.machine import initial_state, make_input
from cpspace.monitor import RunOutcome, machine_from_text, run
from cpspace.pebble import GameStructure, solve_game, verify_duplicator
from cpspace.pfp import (
    Env,
    Member,
    PFPOp,
    ResAtom,
    TermEq,
    decide,
    eval_formula,
    mk_and,
    mk_exists,
    mk_not,
    mk_or,
    update_formula,
)
from cpspace.symmetry import build_fragment, form_apply, form_of, parse_fragment
from cpspace.syntax import Apply, Variable, parse_program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_NAMES = ("halt_accept", "halt_reject", "toggle", "grow", "clash", "mark_all", "pairs")
WORK_DIR = HERE / "out"

# pfp.decide reports a verdict for a run the interpreter cut off at its
# space bound on pairs.machine over 2 atoms.  That one operation counts
# as failed, not as wrong, until the fault is mended; a verdict on any
# other run that neither accepts nor rejects is a wrong output.
KNOWN_FAULT = "decide reports neither accept nor reject when the run ended space-exceeded"
KNOWN_FAULT_CASE = "pairs n=2"


class _Crash:
    """The result of an operation that raised."""

    def __init__(self, label: str):
        self.text = f"{label} raised: {traceback.format_exc(limit=4)}"


def _attempt(label, call, *args):
    try:
        return call(*args)
    except Exception:  # one crashing operation must not hide the others
        return _Crash(label)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# -- induction ---------------------------------------------------------------


class Induction:
    """Update-formula probes on random triples, then stage induction in
    lockstep with the interpreter on every fixture machine."""

    TRIPLES = 150
    SIZES = (2, 3, 4, 5)

    def setup(self, seed):
        machines = {name: machine_from_text(_read(FIXTURES / f"{name}.machine"))
                    for name in FIXTURE_NAMES}
        rng = random.Random(seed)
        cases = []
        for name in FIXTURE_NAMES:
            for n in self.SIZES:
                inp = make_input(n)
                if name == "mark_all":
                    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
                    inp = make_input(n, {"E": edges})
                cases.append((f"{name} n={n}", machines[name], inp))
        return {"triples": gen.triples(seed, self.TRIPLES), "cases": cases}

    def run(self, inputs):
        answers = [_attempt(f"triple {i}", self._probe, triple)
                   for i, triple in enumerate(inputs["triples"])]
        verdicts = [_attempt(label, decide, machine, inp)
                    for label, machine, inp in inputs["cases"]]
        return answers, verdicts

    @staticmethod
    def _probe(triple):
        formulas = {}
        out = []
        for name, args, value in triple.probes:
            upd = formulas.get(name)
            if upd is None:
                upd = formulas[name] = update_formula(triple.program, name)
            bound = dict(triple.binding)
            bound.update(zip(upd.arg_vars, args))
            bound[upd.val_var] = value
            out.append(eval_formula(upd.formula, Env(triple.state, bound)))
        return out

    def check(self, inputs, outputs):
        answers, verdicts = outputs
        failures, problems = [], []
        for i, (triple, got) in enumerate(zip(inputs["triples"], answers)):
            if isinstance(got, _Crash):
                failures.append(got.text)
                continue
            want = [triple.consistent and probe in triple.delta for probe in triple.probes]
            if got != want:
                problems.append(f"triple {i}: update formulas disagree with the update set")
        for (label, _machine, inp), got in zip(inputs["cases"], verdicts):
            if isinstance(got, _Crash):
                failures.append(got.text)
                continue
            verdict, stages, trace = got
            common = min(len(stages.stages), len(trace.states))
            if any(stages.stages[i] != trace.states[i].tables for i in range(common)):
                problems.append(f"{label}: stage tables leave the interpreter's states")
            if trace.outcome in (RunOutcome.ACCEPT, RunOutcome.REJECT):
                if verdict != trace.outcome.value:
                    problems.append(f"{label}: induction says {verdict}, "
                                    f"run says {trace.outcome.value}")
            elif verdict != "unknown":
                text = f"{label}: verdict {verdict}, run {trace.outcome.value}"
                if label == KNOWN_FAULT_CASE and trace.outcome is RunOutcome.SPACE_EXCEEDED:
                    failures.append(f"{text}; {KNOWN_FAULT}")
                else:
                    problems.append(f"{text}; the induction must say unknown")
            if label.startswith("mark_all"):
                u = trace.final_state.universe
                incident = {a for edge in inp.relation("E") for a in edge}
                if trace.final_state.tables["m"] != {(u.atom(a),): u.one for a in incident}:
                    problems.append(f"{label}: marks differ from the atoms on an edge")
        return len(answers) + len(verdicts), failures, problems


# -- indistinguishability ----------------------------------------------------


def _sentences():
    """(label, sentence, scan): the scan computes the sentence's value
    from the membership edges alone, in plain Python."""
    x, y = Variable("x"), Variable("y")
    zero, one = Apply("emptyset"), Apply("true")

    def grounded(members, e):
        # D(x) <-> x = 0 or some member of x is in D
        return lambda current: {j for j, m in enumerate(members) if j == e or m & current}

    def alternating(members, e):
        # D(x) <-> not D(x)
        return lambda current: set(range(len(members))) - current

    return [
        ("an empty object exists",
         mk_exists("x", TermEq(x, zero)),
         lambda s: s.e is not None),
        ("some object holds exactly the empty set",
         mk_exists("x", mk_and([Member(zero, x), mk_not(mk_exists("y", mk_and([
             Member(y, x), mk_not(TermEq(y, zero))])))])),
         lambda s: any(m == {s.e} for m in s.members)),
        ("some nonempty object has no members",
         mk_exists("x", mk_and([mk_not(TermEq(x, zero)),
                                mk_not(mk_exists("y", Member(y, x)))])),
         lambda s: any(j != s.e and not m for j, m in enumerate(s.members))),
        ("some object holds both 0 and 1",
         mk_exists("x", mk_and([Member(zero, x), Member(one, x)])),
         lambda s: any({s.e, s.one} <= m for m in s.members)),
        ("every object holding 1 also holds 0",
         mk_not(mk_exists("x", mk_and([Member(one, x), mk_not(Member(zero, x))]))),
         lambda s: all(s.e in m for m in s.members if s.one in m)),
        ("some object is a member of itself",
         mk_exists("x", Member(x, x)),
         lambda s: any(j in m for j, m in enumerate(s.members))),
        ("the empty set reaches the grounded fixed point",
         PFPOp("D", ("x",), mk_or([
             TermEq(x, zero),
             mk_exists("y", mk_and([Member(y, x), ResAtom("D", (y,))]))]), (zero,)),
         lambda s: s.e in s.fixed_point(grounded)),
        ("the alternating operator collapses to the empty relation",
         mk_not(PFPOp("D", ("x",), mk_not(ResAtom("D", (x,))), (zero,))),
         lambda s: s.e not in s.fixed_point(alternating)),
    ]


class _Scan:
    """A fragment as plain membership lists, indexed like its objects."""

    def __init__(self, frag):
        u = frag.universe
        self.members = [set() for _ in frag.objects]
        for i, j in frag.membership_edges():
            self.members[j].add(i)
        self.e = frag.index(u.empty) if u.empty in frag else None
        self.one = frag.index(u.one) if u.one in frag else None

    def fixed_point(self, operator):
        """The partial fixed point of operator(members, e) from the empty
        relation: the fixed point if the stages reach one, else empty."""
        step = operator(self.members, self.e)
        current, seen = frozenset(), set()
        while True:
            seen.add(current)
            new = frozenset(step(current))
            if new == current:
                return current
            if new in seen:
                return frozenset()
            current = new


class Indistinguishability:
    """Membership and fixed-point sentences on two rank-2, k=1
    fragments with different atom counts."""

    ATOMS = (2, 3)

    def setup(self, seed):
        program = parse_program("rule:\nskip\n")
        sentences = _sentences()
        random.Random(seed).shuffle(sentences)
        boards = []
        for n in self.ATOMS:
            frag = build_fragment(n, 1, 2)
            state = initial_state(program, make_input(n), universe=frag.universe)
            boards.append((frag, state))
        return {"sentences": sentences, "boards": boards}

    def run(self, inputs):
        return [[_attempt(label, eval_formula, phi,
                          Env(state, {}, tables={}, objects=list(frag.objects)))
                 for label, phi, _scan in inputs["sentences"]]
                for frag, state in inputs["boards"]]

    def check(self, inputs, outputs):
        failures, problems = [], []
        scans = [_Scan(frag) for frag, _state in inputs["boards"]]
        for k, (label, _phi, scan) in enumerate(inputs["sentences"]):
            values = set()
            for (frag, _state), s, row in zip(inputs["boards"], scans, outputs):
                value = row[k]
                if isinstance(value, _Crash):
                    failures.append(value.text)
                    continue
                values.add(value)
                want = scan(s)
                if value != want:
                    problems.append(f"{label!r} on n={frag.n}: {value}, scan says {want}")
            if len(values) > 1:
                problems.append(f"{label!r} tells the fragments apart")
        attempted = len(inputs["sentences"]) * len(inputs["boards"])
        return attempted, failures, problems


# -- games -------------------------------------------------------------------


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Games:
    """The duplicator's form strategy against the strategy-free solver,
    on rank-2 boards (one exhaustive move) and rank-1 boards (full depth
    with three pebbles), then the README command-line session."""

    RANK2 = (2, 3)
    RANK1 = (3, 4)
    SESSION = (4, 5)

    def setup(self, seed):
        rank2 = [build_fragment(n, 1, 2) for n in self.RANK2]
        rank1 = [build_fragment(n, 1, 1) for n in self.RANK1]
        return {
            "rank2": [GameStructure.from_fragment(f) for f in rank2],
            "rank1": [GameStructure.from_fragment(f) for f in rank1],
            "work": WORK_DIR / f"session-{os.getpid()}",
        }

    def run(self, inputs):
        a2, b2 = inputs["rank2"]
        a1, b1 = inputs["rank1"]
        out = {
            "verify2": _attempt("rank-2 verify", verify_duplicator, a2, b2, 1, 1),
            "solve2": _attempt("rank-2 solve", solve_game, a2, b2, 1, 1),
            "verify1": _attempt("rank-1 verify", verify_duplicator, a1, b1, 3, 3),
            "solve1": _attempt("rank-1 solve", solve_game, a1, b1, 3, 3),
            "round_trip": [_attempt(f"round trip n={board.universe.n_atoms}",
                                    self._round_trip, board) for board in (a2, b2)],
        }
        work = inputs["work"]
        work.mkdir(parents=True, exist_ok=True)
        frag_a, frag_b = (str(work / f"f{n}.frag") for n in self.SESSION)
        session = [
            ["run", str(FIXTURES / "mark_all.machine"),
             "--input", str(FIXTURES / "edges.input"), "--no-meta"],
        ] + [
            ["symmetry", "fragment", "--n", str(n), "--k", "1", "--r", "1",
             "--out", path, "--no-meta"]
            for n, path in zip(self.SESSION, (frag_a, frag_b))
        ] + [
            ["pebble", "verify", "--fragA", frag_a, "--fragB", frag_b,
             "--m", "2", "--depth", "2", "--no-meta"],
        ]
        out["session"] = [_attempt(" ".join(argv[:2]), _cli, argv) for argv in session]
        return out

    @staticmethod
    def _round_trip(board):
        u, k = board.universe, board.k
        return [form_apply(u, *form_of(u, x, k)) for x in board.objects]

    def check(self, inputs, outputs):
        failures, problems = [], []
        crashed = [v for v in (outputs["verify2"], outputs["solve2"], outputs["verify1"],
                               outputs["solve1"], *outputs["round_trip"], *outputs["session"])
                   if isinstance(v, _Crash)]
        failures.extend(c.text for c in crashed)
        a2, b2 = inputs["rank2"]
        for tag, (verify, solve) in (("rank-2", ("verify2", "solve2")),
                                     ("rank-1", ("verify1", "solve1"))):
            report, solved = outputs[verify], outputs[solve]
            if isinstance(report, _Crash) or isinstance(solved, _Crash):
                continue
            if report.survived == solved.spoiler_wins:
                problems.append(f"{tag}: verifier and solver disagree")
        report = outputs["verify2"]
        if not isinstance(report, _Crash) and report.nodes != 1 * (len(a2) + len(b2)):
            problems.append(f"rank-2 single move examined {report.nodes} moves, "
                            f"not m*(|A|+|B|) = {len(a2) + len(b2)}")
        for board, images in zip((a2, b2), outputs["round_trip"]):
            if not isinstance(images, _Crash) and list(board.objects) != images:
                problems.append(f"form round trip moves an object at n={board.universe.n_atoms}")
        problems.extend(self._check_session(inputs, outputs["session"]))
        shutil.rmtree(inputs["work"], ignore_errors=True)
        attempted = 6 + len(outputs["session"])
        return attempted, failures, problems

    def _check_session(self, inputs, session):
        if any(isinstance(step, _Crash) for step in session):
            return []
        problems = []
        (code, text, _), *fragment_steps, (vcode, vtext, _) = session
        if code != 0 or not text.startswith("outcome accept steps=1"):
            problems.append("session: mark_all does not accept in one step")
        boards = []
        for n, (fcode, _text, _err) in zip(self.SESSION, fragment_steps):
            if fcode != 0:
                return problems + [f"session: fragment n={n} exited {fcode}"]
            path = inputs["work"] / f"f{n}.frag"
            exported = parse_fragment(path.read_text(encoding="utf-8"))
            reference = build_fragment(n, 1, 1)
            ru, eu = reference.universe, exported.universe
            if ([eu.format_literal(x) for x in exported.objects]
                    != [ru.format_literal(x) for x in reference.objects]):
                problems.append(f"session: exported fragment n={n} does not re-parse "
                                "to the built objects")
            boards.append(GameStructure.from_fragment(exported))
        survives = solve_game(boards[0], boards[1], 2, 2).duplicator_survives
        said = vtext.startswith("duplicator survives to depth 2")
        if (vcode == 0) != survives or said != survives:
            problems.append("session: verify verdict differs from solve_game")
        return problems


# -- deep-rank ---------------------------------------------------------------


class DeepRank:
    """`c := {c}` for a fixed number of steps under a space bound that
    never binds: one new object per rank level."""

    STEPS = 120

    def setup(self, seed):
        machine = machine_from_text(_read(HERE / "deep_rank.machine"))
        return {"machine": machine, "input": make_input(2 + seed % 3)}

    def run(self, inputs):
        return _attempt("deep-rank run", run, inputs["machine"], inputs["input"], self.STEPS)

    def check(self, inputs, trace):
        if isinstance(trace, _Crash):
            return 1, [trace.text], []
        problems = []
        n = inputs["input"].n_atoms
        if trace.outcome is not RunOutcome.STEP_LIMIT or trace.steps != self.STEPS:
            problems.append(f"run ended {trace.outcome.value} after {trace.steps} steps, "
                            f"not at the step limit {self.STEPS}")
        if len(trace.states) != self.STEPS + 1:
            problems.append(f"{len(trace.states)} states for {self.STEPS} steps")
        for i, (state, active) in enumerate(zip(trace.states, trace.active_sizes)):
            if active != n + max(2, i + 1):
                problems.append(f"step {i}: {active} active objects, not {n + max(2, i + 1)}")
                break
            # the rank of c, read off by walking down its single-element chain
            u, x, depth = state.universe, state.lookup("c"), 0
            while u.elements(x):
                (x,) = u.elements(x)
                depth += 1
            if depth != i or x != u.empty:
                problems.append(f"step {i}: c has rank {depth}")
                break
        return 1, [], problems


WORKLOADS = {
    "induction": Induction,
    "indistinguishability": Indistinguishability,
    "games": Games,
    "deep-rank": DeepRank,
}
