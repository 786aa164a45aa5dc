"""States, term evaluation, update sets, and the one-step transition.

A state couples a hereditarily finite universe with an input structure
(static relations over the atoms) and one sparse table per dynamic
name.  A table maps argument tuples to values; locations without an
entry hold the empty set, and writing the empty set removes the entry,
so table size tracks the information actually stored.

Evaluation is total: every partial or ill-typed operation falls back to
the empty set, which doubles as false.  The Boolean connectives return
1 only on genuinely Boolean arguments, so e.g. or(1, {a}) evaluates
to 0 rather than leaking a truthy junk value.

A step evaluates the program rule to a set of updates (name, args,
value), then applies it.  A clashing update set leaves the state
unchanged.  Assigning a non-Boolean value to a relational dynamic name
is a run-time error that aborts the whole run rather than silently
corrupting the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cpspace.hf import ObjId, Perm, Universe
from cpspace.syntax import (
    Apply,
    Assign,
    Comprehension,
    Forall,
    If,
    Program,
    Rule,
    Signature,
    Skip,
    Term,
    Variable,
)


class MachineError(Exception):
    pass


class RelationalValueError(MachineError):
    """A relational dynamic name was assigned a value other than 0 or 1."""


# -- input structures ---------------------------------------------------------


@dataclass(frozen=True)
class InputStructure:
    """Atoms 0..n-1 plus finitely many relations on atom tuples."""

    n_atoms: int
    relations: tuple[tuple[str, frozenset[tuple[int, ...]]], ...] = ()

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        for n, tuples in self.relations:
            if n == name:
                return tuples
        return frozenset()

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.relations)


def make_input(n_atoms: int, relations: dict[str, set] | None = None) -> InputStructure:
    rels = []
    for name, tuples in (relations or {}).items():
        frozen = frozenset(tuple(t) for t in tuples)
        for t in frozen:
            for a in t:
                if not 0 <= a < n_atoms:
                    raise MachineError(
                        f"relation {name!r} mentions atom {a} outside 0..{n_atoms - 1}")
        rels.append((name, frozen))
    rels.sort()
    return InputStructure(n_atoms, tuple(rels))


def parse_input(text: str) -> InputStructure:
    """Input file format: an 'atoms N' line, then one 'NAME a0 a1 ...' per tuple."""
    n_atoms = None
    relations: dict[str, set] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "atoms":
            if n_atoms is not None:
                raise MachineError(f"line {line_no}: duplicate 'atoms' line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise MachineError(f"line {line_no}: expected 'atoms N'")
            n_atoms = int(parts[1])
            continue
        if n_atoms is None:
            raise MachineError(f"line {line_no}: 'atoms N' must come first")
        name = parts[0]
        try:
            tup = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise MachineError(f"line {line_no}: atom ids must be integers")
        relations.setdefault(name, set()).add(tup)
    if n_atoms is None:
        raise MachineError("input has no 'atoms N' line")
    return make_input(n_atoms, relations)


def check_input(sig: Signature, inp: InputStructure) -> None:
    """Reject inputs whose relations do not fit the declared signature."""
    for name, tuples in inp.relations:
        arity = sig.input_arity(name)
        if arity is None:
            raise MachineError(f"input relation {name!r} is not declared in the signature")
        for t in tuples:
            if len(t) != arity:
                raise MachineError(
                    f"relation {name!r} has a tuple of length {len(t)}, declared arity {arity}")


def permute_input(inp: InputStructure, perm: Perm) -> InputStructure:
    rels = {
        name: {tuple(perm[a] for a in t) for t in tuples}
        for name, tuples in inp.relations
    }
    return make_input(inp.n_atoms, rels)


# -- states ---------------------------------------------------------------------


def tables_key(tables: dict[str, dict]):
    """Hashable exact fingerprint of a set of dynamic tables."""
    return tuple(
        (name, tuple(sorted(tbl.items())))
        for name, tbl in sorted(tables.items())
    )


@dataclass
class State:
    universe: Universe
    inp: InputStructure
    sig: Signature
    tables: dict[str, dict[tuple[ObjId, ...], ObjId]] = field(default_factory=dict)

    def lookup(self, name: str, args: tuple[ObjId, ...] = ()) -> ObjId:
        tbl = self.tables.get(name)
        if tbl is None:
            raise MachineError(f"unknown dynamic name {name!r}")
        return tbl.get(args, self.universe.empty)

    def canonical_key(self):
        """Hashable exact fingerprint of the dynamic part of the state."""
        return tables_key(self.tables)

    def table_size(self) -> int:
        return sum(len(tbl) for tbl in self.tables.values())

    def halted(self) -> bool:
        return self.lookup("Halt") == self.universe.one

    def output(self) -> ObjId:
        return self.lookup("Output")

    def __eq__(self, other):
        return (
            isinstance(other, State)
            and self.universe is other.universe
            and self.inp == other.inp
            and self.tables == other.tables
        )


def initial_state(program: Program, inp: InputStructure, universe: Universe | None = None) -> State:
    check_input(program.signature, inp)
    u = universe if universe is not None else Universe(inp.n_atoms)
    if u.n_atoms != inp.n_atoms:
        raise MachineError("universe and input disagree about the number of atoms")
    tables = {name: {} for name in program.signature.dynamic_names()}
    return State(u, inp, program.signature, tables)


def permute_state(state: State, perm: Perm) -> State:
    """The image of a state under an atom permutation, over the same universe."""
    u = state.universe
    tables = {
        name: {
            tuple(u.apply_perm(perm, a) for a in args): u.apply_perm(perm, val)
            for args, val in tbl.items()
        }
        for name, tbl in state.tables.items()
    }
    return State(u, permute_input(state.inp, perm), state.sig, tables)


# -- term evaluation -----------------------------------------------------------------


def eval_term(state: State, term: Term, binding: dict[str, ObjId] | None = None) -> ObjId:
    u = state.universe
    if binding is None:
        binding = {}
    if isinstance(term, Variable):
        try:
            return binding[term.name]
        except KeyError:
            raise MachineError(f"unbound variable {term.name!r}")
    if isinstance(term, Apply):
        name = term.name
        if name == "true":
            return u.one
        if name in ("false", "emptyset"):
            return u.empty
        if name == "Atoms":
            return u.atoms_set()
        args = [eval_term(state, a, binding) for a in term.args]
        if name == "and":
            return u.one if args[0] == u.one and args[1] == u.one else u.empty
        if name == "or":
            bools = (u.empty, u.one)
            ok = args[0] in bools and args[1] in bools
            return u.one if ok and u.one in args else u.empty
        if name == "not":
            return u.one if args[0] == u.empty else u.empty
        if name == "=":
            return u.one if args[0] == args[1] else u.empty
        if name == "in":
            return u.one if u.contains(args[1], args[0]) else u.empty
        if name == "Pair":
            return u.mk_set(args)
        if name == "Union":
            out = []
            for member in u.elements(args[0]):
                out.extend(u.elements(member))
            return u.mk_set(out)
        if name == "TheUnique":
            elems = u.elements(args[0])
            return elems[0] if len(elems) == 1 else u.empty
        if state.sig.is_input(name):
            rel = state.inp.relation(name)
            for v in args:
                if not u.is_atom(v):
                    return u.empty
            return u.one if tuple(args) in rel else u.empty  # atom handles are atom ids
        if state.sig.is_dynamic(name):
            return state.tables[name].get(tuple(args), u.empty)
        raise MachineError(f"cannot evaluate unknown name {name!r}")
    if isinstance(term, Comprehension):
        src = eval_term(state, term.source, binding)
        out = []
        inner = dict(binding)
        for e in u.elements(src):
            inner[term.var] = e
            if eval_term(state, term.guard, inner) == u.one:
                out.append(eval_term(state, term.head, inner))
        return u.mk_set(out)
    raise MachineError(f"not a term: {term!r}")


# -- update sets --------------------------------------------------------------------

Update = tuple[str, tuple[ObjId, ...], ObjId]


def update_set(state: State, rule: Rule, binding: dict[str, ObjId] | None = None) -> frozenset[Update]:
    """All updates the rule issues in this state under the given binding."""
    u = state.universe
    if binding is None:
        binding = {}
    if isinstance(rule, Skip):
        return frozenset()
    if isinstance(rule, Assign):
        args = tuple(eval_term(state, a, binding) for a in rule.args)
        value = eval_term(state, rule.value, binding)
        return frozenset(((rule.name, args, value),))
    if isinstance(rule, If):
        branch = rule.then_rule if eval_term(state, rule.cond, binding) == u.one else rule.else_rule
        return update_set(state, branch, binding)
    if isinstance(rule, Forall):
        src = eval_term(state, rule.source, binding)
        out: set[Update] = set()
        inner = dict(binding)
        for e in u.elements(src):
            inner[rule.var] = e
            out |= update_set(state, rule.body, inner)
        return frozenset(out)
    raise MachineError(f"not a rule: {rule!r}")


def is_consistent(updates: frozenset[Update]) -> bool:
    seen: dict[tuple[str, tuple[ObjId, ...]], ObjId] = {}
    for name, args, value in updates:
        prev = seen.setdefault((name, args), value)
        if prev != value:
            return False
    return True


def apply_updates(state: State, updates: frozenset[Update]) -> State:
    """The successor state; a clashing update set changes nothing."""
    if not is_consistent(updates):
        return state
    u = state.universe
    for name, args, value in updates:
        info = state.sig.dynamic_info(name)
        if info is None:
            raise MachineError(f"update to unknown dynamic name {name!r}")
        if info[1] and value not in (u.empty, u.one):
            raise RelationalValueError(
                f"{name!r} is relational but was assigned {u.format_literal(value)}")
    new_tables = dict(state.tables)
    touched: set[str] = set()
    for name, args, value in updates:
        if name not in touched:
            new_tables[name] = dict(state.tables[name])
            touched.add(name)
        if value == u.empty:
            new_tables[name].pop(args, None)
        else:
            new_tables[name][args] = value
    return State(u, state.inp, state.sig, new_tables)


def step(state: State, program: Program) -> tuple[State, frozenset[Update]]:
    updates = update_set(state, program.rule)
    return apply_updates(state, updates), updates
