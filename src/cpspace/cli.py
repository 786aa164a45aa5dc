"""Command-line front end tying the pieces into reproducible experiments.

One binary, four families of subcommands:

* run                         space-monitored execution of a machine
* pfp extract|eval|lockstep   update formulas, stage induction, conformance
* symmetry support|fragment|forms|ineq
* pebble verify|solve|play    games between two exported fragments

Exit codes.  `run` reports its outcome directly: 0 accept, 1 reject,
2 space exceeded, 3 diverged, 4 step cap.  `pfp eval` mirrors that with
0 accept, 1 reject, 3 unknown; `pebble verify`/`solve` use 0 when the
duplicator survives and 1 when the spoiler wins.  Everything above 9 is
an error: 10 usage or unreadable file, 11 program or fragment parse and
validation failures (with line and column when known) and rules with no
update formula for `pfp`, 12 bad input
structures, 13 conformance alarms (a lockstep mismatch, an In/Eq table
depending on the atom count, a relational register holding a set), 14
budget exhaustion.

All enumeration orders are canonical and nothing draws randomness, so
identical inputs and flags give byte-identical output; the one
exception, a trailing elapsed-time line, is dropped by `--no-meta`.
`--json-lines` swaps the human text for one JSON record per line.
Object-count caps honor the CPS_BUDGET environment variable, but an
explicit `--budget`/`--node-budget` flag wins.

The argparse parser is the one declaration of every flag; subcommands
that share flags share the helper that declares them.  After parsing,
`_check` range-checks the namespace and each `cmd_*` function reads it
directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .machine import (
    MachineError,
    RelationalValueError,
    State,
    check_input,
    make_input,
    parse_input,
)
from .monitor import EXIT_CODE, PSpaceMachine, machine_from_text, run
from .pebble import (
    GameSession,
    GameStructure,
    NoExtension,
    PebbleError,
    solve_game,
    verify_duplicator,
)
from .pfp import FormulaError, decide, formula_sexpr, update_formula
from .symmetry import (
    BudgetExceeded,
    InputDependence,
    NotKSymmetric,
    SymmetryError,
    build_fragment,
    check_support_theorem,
    form_apply,
    form_of,
    format_config,
    format_form,
    in_eq_relations,
    parse_fragment,
)
from .syntax import ProgramError


class UsageError(Exception):
    """Bad flags or unreadable files; exits 10."""


class CliFail(Exception):
    """A command-specific failure with a fixed exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# flag, least legal value, message; checked in this order after parsing
_RANGES = (
    ("naked_set", 0, "--naked-set needs a non-negative atom count"),
    ("max_steps", 1, "--max-steps must be at least 1"),
    ("max_stages", 1, "--max-stages must be at least 1"),
    ("budget", 1, "--budget must be at least 1"),
    ("node_budget", 1, "--node-budget must be at least 1"),
    ("n", 0, "--n must be non-negative"),
    ("k", 0, "--k must be non-negative"),
    ("r", 0, "--r must be non-negative"),
    ("m", 1, "--m needs at least one pebble"),
    ("depth", 0, "--depth must be non-negative"),
)


def _check(ns: argparse.Namespace) -> None:
    """Range checks on parsed flags; a flag the subcommand lacks is absent."""
    for name, least, message in _RANGES:
        value = getattr(ns, name, None)
        if value is not None and value < least:
            raise UsageError(message)
    if hasattr(ns, "n1") and not ns.n1 < ns.n2:
        raise UsageError("--n1 must be smaller than --n2")


class Emitter:
    """Parallel text and JSON-record output; each line is one or the other."""

    def __init__(self, json_lines: bool):
        self.json_lines = json_lines

    def emit(self, text: str | None = None, **record) -> None:
        if self.json_lines:
            if record:
                print(json.dumps(record, sort_keys=True))
        elif text is not None:
            print(text)


# -- shared loading ----------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror or err}") from err


def _load_machine(path: str) -> PSpaceMachine:
    text = _read_text(path)
    try:
        return machine_from_text(text)
    except MachineError as err:
        raise CliFail(11, f"{path}: {err}") from err


def _load_input(ns: argparse.Namespace, machine: PSpaceMachine):
    if ns.naked_set is not None:
        inp = make_input(ns.naked_set)
    else:  # argparse requires one of the two
        try:
            inp = parse_input(_read_text(ns.input))
        except MachineError as err:
            raise CliFail(12, f"{ns.input}: {err}") from err
    try:
        check_input(machine.program.signature, inp)
    except MachineError as err:
        raise CliFail(12, str(err)) from err
    return inp


def _load_board(path: str) -> GameStructure:
    text = _read_text(path)
    try:
        frag = parse_fragment(text)
        return GameStructure.from_fragment(frag)
    except (SymmetryError, PebbleError) as err:
        raise CliFail(11, f"{path}: {err}") from err


def _table_rows(state: State, name: str):
    u = state.universe

    def key(item):
        return tuple(u.sort_key(x) for x in item[0])

    yield from sorted(state.tables.get(name, {}).items(), key=key)


# -- run ----------------------------------------------------------------------


def cmd_run(ns: argparse.Namespace, em: Emitter) -> int:
    machine = _load_machine(ns.machine)
    inp = _load_input(ns, machine)
    trace = run(machine, inp, ns.max_steps)
    em.emit(
        f"outcome {trace.outcome.value} steps={trace.steps} "
        f"bound={trace.bound} peak={trace.peak_active}",
        record="outcome",
        outcome=trace.outcome.value,
        steps=trace.steps,
        bound=trace.bound,
        peak=trace.peak_active,
    )
    if ns.trace != "none":
        for i, size in enumerate(trace.active_sizes):
            em.emit(f"step {i} active={size}", record="step", index=i, active=size)
            if ns.trace == "states":
                state = trace.states[i]
                u = state.universe
                for name in state.sig.dynamic_names():
                    for args, value in _table_rows(state, name):
                        shown = [u.format_literal(a) for a in args]
                        literal = u.format_literal(value)
                        em.emit(
                            f"  {name}({', '.join(shown)}) = {literal}",
                            record="table-row",
                            step=i,
                            name=name,
                            args=shown,
                            value=literal,
                        )
    return EXIT_CODE[trace.outcome]


# -- pfp ----------------------------------------------------------------------


def cmd_pfp_extract(ns: argparse.Namespace, em: Emitter) -> int:
    machine = _load_machine(ns.machine)
    program = machine.program
    sig = program.signature
    names = (ns.name,) if ns.name else sig.dynamic_names()
    for fname in names:
        if sig.dynamic_info(fname) is None:
            raise UsageError(f"{fname!r} is not a dynamic name of this machine")
    # every formula first, so a rule with none prints nothing but the error
    for upd in [update_formula(program, fname) for fname in names]:
        sexpr = formula_sexpr(upd.formula)
        em.emit(f"; upd for {upd.name}({', '.join(upd.arg_vars)}) := {upd.val_var}")
        em.emit(sexpr)
        em.emit(
            record="update-formula",
            name=upd.name,
            mode="state",
            args=list(upd.arg_vars),
            val=upd.val_var,
            sexpr=sexpr,
        )
    return 0


def cmd_pfp_eval(ns: argparse.Namespace, em: Emitter) -> int:
    machine = _load_machine(ns.machine)
    inp = _load_input(ns, machine)
    verdict, result, trace = decide(machine, inp, ns.max_stages)
    em.emit(
        f"verdict {verdict} status={result.status} stages={len(result.stages)} "
        f"run={trace.outcome.value}",
        record="verdict",
        verdict=verdict,
        status=result.status,
        stages=len(result.stages),
        run=trace.outcome.value,
    )
    return {"accept": 0, "reject": 1}.get(verdict, 3)


def cmd_pfp_lockstep(ns: argparse.Namespace, em: Emitter) -> int:
    machine = _load_machine(ns.machine)
    inp = _load_input(ns, machine)
    verdict, result, trace = decide(machine, inp, ns.max_stages)
    u = trace.final_state.universe
    common = min(len(result.stages), len(trace.states))
    for i in range(common):
        stage, state = result.stages[i], trace.states[i]
        if stage == state.tables:
            continue
        em.emit(
            f"stage {i} differs",
            record="lockstep-mismatch",
            stage=i,
        )
        for name in sorted(set(stage) | set(state.tables)):
            rows_f = stage.get(name, {})
            rows_s = state.tables.get(name, {})
            if rows_f == rows_s:
                continue
            for label, rows in (("formula", rows_f), ("interpreter", rows_s)):
                shown = ", ".join(
                    f"{name}({','.join(u.format_literal(a) for a in args)})"
                    f"={u.format_literal(val)}"
                    for args, val in sorted(rows.items())
                ) or "(empty)"
                em.emit(
                    f"  {label} {name}: {shown}",
                    record="lockstep-table",
                    stage=i,
                    side=label,
                    name=name,
                    rows=shown,
                )
        return 13
    em.emit(
        f"stages 0..{common - 1} identical",
        record="lockstep",
        stages=common,
        identical=True,
    )
    em.emit(
        f"interpreter {trace.outcome.value} after {trace.steps} steps; "
        f"induction {result.status} after {len(result.stages)} stages; "
        f"verdict {verdict}",
        record="lockstep-summary",
        outcome=trace.outcome.value,
        steps=trace.steps,
        status=result.status,
        stages=len(result.stages),
        verdict=verdict,
    )
    return 0


# -- symmetry -------------------------------------------------------------------


def cmd_symmetry_support(ns: argparse.Namespace, em: Emitter) -> int:
    machine = _load_machine(ns.machine)
    inp = _load_input(ns, machine)
    trace = run(machine, inp, ns.max_steps)
    report = check_support_theorem(trace, ns.k)
    for line in report.lines():
        em.emit(line)
    if em.json_lines:
        u = report.universe
        em.emit(
            record="support-header",
            n=report.n,
            k=report.k,
            bound=report.bound,
            active=len(report.supports),
            binomial_ok=report.binomial_ok,
            ok=report.ok,
        )
        for obj in sorted(report.supports, key=u.sort_key):
            supp = report.supports[obj]
            em.emit(
                record="support",
                object=u.format_literal(obj),
                support=None if supp is None else sorted(supp),
                size=None if supp is None else len(supp),
            )
        for obj, size in report.violations:
            em.emit(
                record="support-violation",
                object=u.format_literal(obj),
                size=size,
            )
    return 0


def cmd_symmetry_fragment(ns: argparse.Namespace, em: Emitter) -> int:
    frag = build_fragment(ns.n, ns.k, ns.r, ns.budget)
    text = frag.export_text()
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write {ns.out}: {err.strerror or err}") from err
        em.emit(
            f"fragment n={frag.n} k={frag.k} r={frag.r} objects={len(frag)} "
            f"-> {ns.out}",
            record="fragment-file",
            n=frag.n,
            k=frag.k,
            r=frag.r,
            objects=len(frag),
            path=ns.out,
        )
        return 0
    if em.json_lines:
        u = frag.universe
        em.emit(record="fragment-header", n=frag.n, k=frag.k, r=frag.r, objects=len(frag))
        for i, x in enumerate(frag.objects):
            em.emit(record="object", index=i, literal=u.format_literal(x))
        for i, j in frag.membership_edges():
            em.emit(record="edge", element=i, container=j)
    else:
        sys.stdout.write(text)
    return 0


def cmd_symmetry_forms(ns: argparse.Namespace, em: Emitter) -> int:
    frag = build_fragment(ns.n, ns.k, ns.r, ns.budget)
    u = frag.universe
    em.emit(
        f"forms n={frag.n} k={frag.k} r={frag.r} objects={len(frag)}",
        record="forms-header",
        n=frag.n,
        k=frag.k,
        r=frag.r,
        objects=len(frag),
    )
    distinct = set()
    for x in frag.objects:
        phi, sigma = form_of(u, x, ns.k)
        distinct.add(phi)
        back = form_apply(u, phi, sigma)
        if back != x:
            em.emit(
                f"round trip failed: {u.format_literal(x)} -> {u.format_literal(back)} "
                f"via {format_form(phi)}",
                record="roundtrip-failure",
                object=u.format_literal(x),
                back=u.format_literal(back),
                form=format_form(phi),
            )
            return 13
    em.emit(
        f"round trip ok, {len(distinct)} distinct forms",
        record="roundtrip",
        ok=True,
        distinct=len(distinct),
    )
    return 0


def cmd_symmetry_ineq(ns: argparse.Namespace, em: Emitter) -> int:
    try:
        tables = in_eq_relations(ns.k, ns.n1, ns.n2, ns.r, budget=ns.budget)
    except InputDependence as err:
        psi, phi, config, small, large = err.witness
        em.emit(
            f"input dependence: psi={format_form(psi)} phi={format_form(phi)} "
            f"config={format_config(config)} "
            f"n={ns.n1} gives (in,eq)={small} but n={ns.n2} gives {large}",
            record="input-dependence",
            psi=format_form(psi),
            phi=format_form(phi),
            config=format_config(config),
            small=list(small),
            large=list(large),
        )
        return 13
    cells = len(tables.in_rel)
    em.emit(
        f"ineq k={tables.k} r={ns.r} n1={tables.n1} n2={tables.n2} "
        f"forms={len(tables.forms)} configs={len(tables.configs)} cells={cells}",
        record="ineq",
        k=tables.k,
        r=ns.r,
        n1=tables.n1,
        n2=tables.n2,
        forms=len(tables.forms),
        configs=len(tables.configs),
        cells=cells,
    )
    em.emit(
        "tables identical across sizes",
        record="ineq-verdict",
        identical=True,
    )
    return 0


# -- pebble ---------------------------------------------------------------------


def cmd_pebble_verify(ns: argparse.Namespace, em: Emitter) -> int:
    a = _load_board(ns.frag_a)
    b = _load_board(ns.frag_b)
    report = verify_duplicator(a, b, ns.m, ns.depth, ns.node_budget)
    for line in report.describe(a, b):
        em.emit(line)
    if em.json_lines:
        em.emit(
            record="verify",
            survived=report.survived,
            m=report.m,
            depth=report.depth,
            nodes=report.nodes,
            counterexample=[
                {
                    "side": mv.side,
                    "pebble": mv.pebble,
                    "spoiler": (a if mv.side == "A" else b).literal(mv.spoiler),
                    "response": None
                    if mv.response is None
                    else (b if mv.side == "A" else a).literal(mv.response),
                    "note": mv.note,
                }
                for mv in report.counterexample
            ],
        )
    return 0 if report.survived else 1


def cmd_pebble_solve(ns: argparse.Namespace, em: Emitter) -> int:
    a = _load_board(ns.frag_a)
    b = _load_board(ns.frag_b)
    result = solve_game(a, b, ns.m, ns.depth, ns.node_budget)
    word = "spoiler wins" if result.spoiler_wins else "no spoiler win"
    em.emit(
        f"{word} within depth {result.depth} with {result.m} pebbles "
        f"({result.nodes} positions examined)",
        record="solve",
        spoiler_wins=result.spoiler_wins,
        m=result.m,
        depth=result.depth,
        nodes=result.nodes,
    )
    return 1 if result.spoiler_wins else 0


PLAY_HELP = "moves: A|B PEBBLE LITERAL   board   help   quit"


def cmd_pebble_play(ns: argparse.Namespace, em: Emitter) -> int:
    a = _load_board(ns.frag_a)
    b = _load_board(ns.frag_b)
    session = GameSession(a, b, ns.m)
    print(
        f"pebble game: {session.m} pebbles, "
        f"A has {len(a.objects)} objects, B has {len(b.objects)}"
    )
    print(PLAY_HELP)
    while True:
        sys.stdout.write("> ")
        sys.stdout.flush()
        raw = sys.stdin.readline()
        if not raw:
            print()
            break
        line = raw.strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        if line == "help":
            print(PLAY_HELP)
            continue
        if line == "board":
            for shown in session.board_lines():
                print(shown)
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            print("error: expected SIDE PEBBLE LITERAL (try 'help')")
            continue
        side, pebble_text, literal = parts[0].upper(), parts[1], parts[2]
        try:
            pebble = int(pebble_text)
        except ValueError:
            print("error: pebble index must be an integer")
            continue
        try:
            move = session.spoiler_move(side, pebble, literal)
        except NoExtension as err:
            print(f"duplicator has no response: {err}")
            print(f"spoiler wins after {len(session.moves) + 1} moves")
            return 1
        except PebbleError as err:
            print(f"error: {err}")
            continue
        other = b if side == "A" else a
        print(f"duplicator answers {other.literal(move.response)}")
        if move.note:
            print(f"position violates the partial isomorphism: {move.note}")
            print(f"spoiler wins after {len(session.moves)} moves")
            return 1
    print(f"session over after {len(session.moves)} moves")
    return 0


# -- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--json-lines", action="store_true",
                        help="one JSON record per line instead of text")
    common.add_argument("--no-meta", action="store_true",
                        help="drop the trailing elapsed-time line")

    parser = _Parser(prog="cpspace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("machine", help="machine file")
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--input", help="input structure file")
        grp.add_argument("--naked-set", type=int, metavar="N",
                         help="input with N atoms and no relations")

    def with_fragment(p):
        p.add_argument("--n", type=int, required=True, help="atom count")
        p.add_argument("--k", type=int, required=True, help="support bound")
        p.add_argument("--r", type=int, required=True, help="rank cutoff")
        p.add_argument("--budget", type=int, help="object-count cap")

    def with_boards(p):
        p.add_argument("--fragA", dest="frag_a", required=True,
                       help="exported fragment for side A")
        p.add_argument("--fragB", dest="frag_b", required=True,
                       help="exported fragment for side B")

    def with_game(p):
        with_boards(p)
        p.add_argument("--m", type=int, required=True, help="pebble count")
        p.add_argument("--depth", type=int, required=True, help="move budget")
        p.add_argument("--node-budget", type=int)

    p = sub.add_parser("run", parents=[common],
                       help="execute a machine under its space bound")
    with_input(p)
    p.add_argument("--max-steps", type=int, help="step budget before giving up")
    p.add_argument("--trace", choices=("none", "summary", "states"),
                   default="summary", help="how much of the run to print")
    p.set_defaults(func=cmd_run)

    pfp = sub.add_parser("pfp", help="update formulas and the stage induction")
    pfp_sub = pfp.add_subparsers(dest="subcommand", required=True)

    p = pfp_sub.add_parser("extract", parents=[common],
                           help="print the update formula system")
    p.add_argument("machine", help="machine file")
    p.add_argument("--name", help="one dynamic name (default: all)")
    p.set_defaults(func=cmd_pfp_extract)

    for name, func, text in (
        ("eval", cmd_pfp_eval, "decide acceptance by the stage induction"),
        ("lockstep", cmd_pfp_lockstep, "diff interpreter steps against induction stages"),
    ):
        p = pfp_sub.add_parser(name, parents=[common], help=text)
        with_input(p)
        p.add_argument("--max-stages", type=int, default=10_000,
                       help="stage cap of the induction, and step limit of the run before it")
        p.set_defaults(func=func)

    sym = sub.add_parser("symmetry", help="supports, fragments, forms, In/Eq tables")
    sym_sub = sym.add_subparsers(dest="subcommand", required=True)

    p = sym_sub.add_parser("support", parents=[common],
                           help="minimal supports of a run's active objects")
    with_input(p)
    p.add_argument("--k", type=int, required=True, help="claimed support bound")
    p.add_argument("--max-steps", type=int)
    p.set_defaults(func=cmd_symmetry_support)

    p = sym_sub.add_parser("fragment", parents=[common],
                           help="build and export a symmetric fragment")
    with_fragment(p)
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_symmetry_fragment)

    p = sym_sub.add_parser("forms", parents=[common],
                           help="audit the form round trip over a fragment")
    with_fragment(p)
    p.set_defaults(func=cmd_symmetry_forms)

    p = sym_sub.add_parser("ineq", parents=[common],
                           help="build In/Eq tables at two sizes and compare")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n1", type=int, required=True, help="smaller atom count")
    p.add_argument("--n2", type=int, required=True, help="larger atom count")
    p.add_argument("--r", type=int, default=1, help="form rank cutoff")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_symmetry_ineq)

    peb = sub.add_parser("pebble", help="games between two exported fragments")
    peb_sub = peb.add_subparsers(dest="subcommand", required=True)

    p = peb_sub.add_parser("verify", parents=[common],
                           help="drive the form strategy through every spoiler line")
    with_game(p)
    p.set_defaults(func=cmd_pebble_verify)

    p = peb_sub.add_parser("solve", parents=[common],
                           help="backward induction over positions")
    with_game(p)
    p.set_defaults(func=cmd_pebble_solve)

    p = peb_sub.add_parser("play", help="line-oriented interactive game")
    with_boards(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_pebble_play, json_lines=False, no_meta=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        _check(ns)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 10
    em = Emitter(ns.json_lines)
    started = time.monotonic()
    try:
        code = ns.func(ns, em)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 10
    except CliFail as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BudgetExceeded as err:
        print(f"error: budget exceeded: {err}", file=sys.stderr)
        return 14
    except RelationalValueError as err:
        print(f"error: relational register misuse: {err}", file=sys.stderr)
        return 13
    except (InputDependence, NotKSymmetric) as err:
        print(f"error: {err}", file=sys.stderr)
        return 13
    except (ProgramError, FormulaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 11
    except (MachineError, SymmetryError, PebbleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 10
    if not ns.no_meta:
        em.emit(
            f"# elapsed {time.monotonic() - started:.3f}s",
            record="meta",
            elapsed=round(time.monotonic() - started, 3),
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
