"""Update formulas and partial-fixed-point evaluation of machine programs.

The run loop in `monitor` executes a rule operationally.  This module
gives the same semantics a logical form, in two layers.

Layer one extracts, for a dynamic name f of arity a, a first-order
formula over variables x1..xa, y that holds exactly when the rule
issues the update f(x1..xa) := y and the whole update set is free of
clashes.  Dynamic names inside rule terms are flattened away first:
each dynamic subterm is replaced by a fresh existentially bound
variable constrained to carry its value, so the result mentions the
current state only through "f(args) = value" atoms.  A dynamic name
under a comprehension binder cannot be flattened this way (the witness
would depend on the bound variable), and such rules are rejected.

Layer two turns the update formulas into one induction per dynamic
name: the next stage relates args to y when either an update fires or
the old entry survives untouched.  Iterating from all-empty tables and
stopping on a fixed point (a repeated non-fixed stage yields all-empty
tables, the usual convention for partial fixed points) recovers the
run of the machine table-for-table, without stepping states.

Formulas are evaluated against either a live state (update atoms read
its tables) or against stage tables.  Quantifiers prefer guards --
membership in an evaluated set, an equation pinning the variable, a
table row -- and fall back to enumerating a supplied object universe;
evaluation without guards or a universe is an error, not a silent
wrong answer.  The same evaluator handles explicit fixed-point
operators in sentences over pure set structures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from cpspace.hf import ObjId, Universe
from cpspace.machine import (
    InputStructure,
    MachineError,
    State,
    eval_term,
    make_input,
)
from cpspace.monitor import PSpaceMachine, RunOutcome, RunTrace, run
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
    free_vars,
    term_contains_dynamic,
    term_to_text,
    subst_term,
)

FALSE_TERM = Apply("false")
TRUE_TERM = Apply("true")


class FormulaError(Exception):
    pass


class UnsupportedRule(FormulaError):
    """The rule has no first-order update formula in this fragment."""


# -- formula syntax -----------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class TermEq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Member(Formula):
    elem: Term
    container: Term


@dataclass(frozen=True)
class DynEq(Formula):
    """f(args) = value read from a live state (default: the empty set)."""

    name: str
    args: tuple[Term, ...]
    value: Term


@dataclass(frozen=True)
class ResAtom(Formula):
    """Stage-table atom: the row args (last slot: value) is present."""

    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class PFPOp(Formula):
    """args belong to the partial fixed point of body over rel(vars)."""

    rel: str
    vars: tuple[str, ...]
    body: Formula
    args: tuple[Term, ...]


TRUEF = TrueF()
FALSEF = FalseF()


def formula_vars(phi: Formula) -> frozenset[str]:
    if isinstance(phi, (TrueF, FalseF)):
        return frozenset()
    if isinstance(phi, Not):
        return formula_vars(phi.body)
    if isinstance(phi, (And, Or)):
        out: frozenset[str] = frozenset()
        for p in phi.parts:
            out |= formula_vars(p)
        return out
    if isinstance(phi, Exists):
        return formula_vars(phi.body) - {phi.var}
    if isinstance(phi, TermEq):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, Member):
        return free_vars(phi.elem) | free_vars(phi.container)
    if isinstance(phi, DynEq):
        out = free_vars(phi.value)
        for a in phi.args:
            out |= free_vars(a)
        return out
    if isinstance(phi, ResAtom):
        out = frozenset()
        for a in phi.args:
            out |= free_vars(a)
        return out
    if isinstance(phi, PFPOp):
        out = formula_vars(phi.body) - set(phi.vars)
        for a in phi.args:
            out |= free_vars(a)
        return out
    raise TypeError(f"not a formula: {phi!r}")


# -- smart constructors --------------------------------------------------------


def mk_not(phi: Formula) -> Formula:
    if isinstance(phi, TrueF):
        return FALSEF
    if isinstance(phi, FalseF):
        return TRUEF
    if isinstance(phi, Not):
        return phi.body
    return Not(phi)


def mk_and(parts) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, FalseF):
            return FALSEF
        if isinstance(p, TrueF):
            continue
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUEF
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def mk_or(parts) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, TrueF):
            return TRUEF
        if isinstance(p, FalseF):
            continue
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSEF
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def mk_exists(var: str, body: Formula) -> Formula:
    # the object universe is never empty (it always has 0 and 1), so a
    # vacuous quantifier can be dropped
    if isinstance(body, (TrueF, FalseF)):
        return body
    return Exists(var, body)


def mk_eq(left: Term, right: Term) -> Formula:
    if left == right:
        return TRUEF
    return TermEq(left, right)


def forall_f(var: str, body: Formula) -> Formula:
    return mk_not(mk_exists(var, mk_not(body)))


class FreshNames:
    """Generates variable names avoiding everything already in use."""

    def __init__(self, used):
        self.used = set(used)
        self.counters: dict[str, int] = {}

    def make(self, prefix: str) -> str:
        k = self.counters.get(prefix, 0)
        while f"{prefix}{k}" in self.used:
            k += 1
        self.counters[prefix] = k + 1
        name = f"{prefix}{k}"
        self.used.add(name)
        return name


def rule_variable_names(rule: Rule) -> set[str]:
    out: set[str] = set()

    def walk_term(t: Term):
        if isinstance(t, Variable):
            out.add(t.name)
        elif isinstance(t, Apply):
            for a in t.args:
                walk_term(a)
        elif isinstance(t, Comprehension):
            out.add(t.var)
            walk_term(t.head)
            walk_term(t.source)
            walk_term(t.guard)

    def walk(r: Rule):
        if isinstance(r, Skip):
            return
        if isinstance(r, Assign):
            for a in r.args:
                walk_term(a)
            walk_term(r.value)
            return
        if isinstance(r, If):
            walk_term(r.cond)
            walk(r.then_rule)
            walk(r.else_rule)
            return
        if isinstance(r, Forall):
            out.add(r.var)
            walk_term(r.source)
            walk(r.body)
            return
        raise TypeError(f"not a rule: {r!r}")

    walk(rule)
    return out


# -- flattening dynamic subterms --------------------------------------------------


def dyn_atom(name: str, args: tuple[Term, ...], value: Term, mode: str, fresh: FreshNames) -> Formula:
    """The atom "name(args) = value", in the requested reading."""
    if mode == "state":
        return DynEq(name, args, value)
    # stage tables store no empty-set values, so "= 0" means "no row"
    w = fresh.make("_tnf")
    present = ResAtom(name, args + (value,))
    absent = mk_and([
        mk_eq(value, FALSE_TERM),
        mk_not(mk_exists(w, ResAtom(name, args + (Variable(w),)))),
    ])
    if value == FALSE_TERM:
        return mk_not(mk_exists(w, ResAtom(name, args + (Variable(w),))))
    return mk_or([present, absent])


def value_formula(term: Term, var: str, sig: Signature, mode: str, fresh: FreshNames) -> Formula:
    """A formula stating that `term` evaluates to the value of `var`."""
    if not term_contains_dynamic(term, sig):
        return TermEq(Variable(var), term)
    if isinstance(term, Comprehension):
        raise UnsupportedRule(
            "a dynamic name under a comprehension binder has no first-order value formula")
    if not isinstance(term, Apply):
        raise FormulaError(f"unexpected term {term!r}")
    wrapped: list[tuple[str, Formula]] = []
    new_args: list[Term] = []
    for a in term.args:
        if term_contains_dynamic(a, sig):
            wa = fresh.make("_tnf")
            wrapped.append((wa, value_formula(a, wa, sig, mode, fresh)))
            new_args.append(Variable(wa))
        else:
            new_args.append(a)
    if sig.is_dynamic(term.name):
        out = dyn_atom(term.name, tuple(new_args), Variable(var), mode, fresh)
    else:
        out = TermEq(Variable(var), Apply(term.name, tuple(new_args)))
    for wa, sub in reversed(wrapped):
        out = mk_exists(wa, mk_and([sub, out]))
    return out


def bool_formula(term: Term, sig: Signature, mode: str, fresh: FreshNames) -> Formula:
    """A formula stating that `term` evaluates to 1."""
    if not term_contains_dynamic(term, sig):
        return TermEq(term, TRUE_TERM)
    w = fresh.make("_tnf")
    return mk_exists(w, mk_and([
        value_formula(term, w, sig, mode, fresh),
        TermEq(Variable(w), TRUE_TERM),
    ]))


def eq_formula(left: Term, right: Term, sig: Signature, mode: str, fresh: FreshNames) -> Formula:
    """val(left) = val(right), flattening either side if it is dynamic."""
    if not term_contains_dynamic(left, sig) and not term_contains_dynamic(right, sig):
        return mk_eq(left, right)
    w = fresh.make("_tnf")
    return mk_exists(w, mk_and([
        value_formula(left, w, sig, mode, fresh),
        value_formula(right, w, sig, mode, fresh),
    ]))


# -- update formulas -----------------------------------------------------------------


def _upd_member(
    rule: Rule,
    fname: str,
    arg_vars: tuple[str, ...],
    val_var: str,
    sig: Signature,
    mode: str,
    fresh: FreshNames,
) -> Formula:
    """The update f(arg_vars) := val_var is issued by the rule."""
    if isinstance(rule, Skip):
        return FALSEF
    if isinstance(rule, Assign):
        if rule.name != fname:
            return FALSEF
        parts = []
        for xv, t in zip(arg_vars, rule.args):
            if term_contains_dynamic(t, sig):
                parts.append(value_formula(t, xv, sig, mode, fresh))
            else:
                parts.append(TermEq(Variable(xv), t))
        t0 = rule.value
        if term_contains_dynamic(t0, sig):
            parts.append(value_formula(t0, val_var, sig, mode, fresh))
        else:
            parts.append(TermEq(Variable(val_var), t0))
        return mk_and(parts)
    if isinstance(rule, If):
        cond = bool_formula(rule.cond, sig, mode, fresh)
        then_f = _upd_member(rule.then_rule, fname, arg_vars, val_var, sig, mode, fresh)
        else_f = _upd_member(rule.else_rule, fname, arg_vars, val_var, sig, mode, fresh)
        return mk_or([mk_and([cond, then_f]), mk_and([mk_not(cond), else_f])])
    if isinstance(rule, Forall):
        body = _upd_member(rule.body, fname, arg_vars, val_var, sig, mode, fresh)
        if not term_contains_dynamic(rule.source, sig):
            return mk_exists(rule.var, mk_and([
                Member(Variable(rule.var), rule.source), body]))
        w = fresh.make("_tnf")
        inner = mk_exists(rule.var, mk_and([Member(Variable(rule.var), Variable(w)), body]))
        return mk_exists(w, mk_and([
            value_formula(rule.source, w, sig, mode, fresh), inner]))
    raise TypeError(f"not a rule: {rule!r}")


_PathEntry = tuple  # ('bind', var, source) | ('cond', term, positive)


def _collect_assignments(rule: Rule, path: tuple, out: list):
    if isinstance(rule, Skip):
        return
    if isinstance(rule, Assign):
        out.append((path, rule))
        return
    if isinstance(rule, If):
        _collect_assignments(rule.then_rule, path + (("cond", rule.cond, True),), out)
        _collect_assignments(rule.else_rule, path + (("cond", rule.cond, False),), out)
        return
    if isinstance(rule, Forall):
        _collect_assignments(rule.body, path + (("bind", rule.var, rule.source),), out)
        return
    raise TypeError(f"not a rule: {rule!r}")


def _rename_occurrence(path: tuple, assign: Assign, fresh: FreshNames):
    """Fresh copies of an occurrence's binders, guards, args, and value."""
    mapping: dict[str, Term] = {}
    binders: list[tuple[str, Term]] = []
    conds: list[tuple[Term, bool]] = []
    for entry in path:
        if entry[0] == "bind":
            _, var, source = entry
            renamed_source = subst_term(source, mapping)
            w = fresh.make("_c")
            mapping = dict(mapping)
            mapping[var] = Variable(w)
            binders.append((w, renamed_source))
        else:
            _, cond, positive = entry
            conds.append((subst_term(cond, mapping), positive))
    args = tuple(subst_term(a, mapping) for a in assign.args)
    value = subst_term(assign.value, mapping)
    return binders, conds, args, value


def consistency_formula(rule: Rule, sig: Signature, mode: str, fresh: FreshNames) -> Formula:
    """No two assignment occurrences can hit one location with two values."""
    occurrences: list = []
    _collect_assignments(rule, (), occurrences)
    clauses: list[Formula] = []
    for i, (path1, a1) in enumerate(occurrences):
        for j in range(i, len(occurrences)):
            path2, a2 = occurrences[j]
            if a1.name != a2.name:
                continue
            if i == j and not any(e[0] == "bind" for e in path1):
                continue  # a binder-free occurrence cannot clash with itself
            b1, c1, args1, val1 = _rename_occurrence(path1, a1, fresh)
            b2, c2, args2, val2 = _rename_occurrence(path2, a2, fresh)
            parts: list[Formula] = []
            for cond, positive in c1 + c2:
                b = bool_formula(cond, sig, mode, fresh)
                parts.append(b if positive else mk_not(b))
            for s, t in zip(args1, args2):
                parts.append(eq_formula(s, t, sig, mode, fresh))
            parts.append(mk_not(eq_formula(val1, val2, sig, mode, fresh)))
            matrix = mk_and(parts)
            for w, src in reversed(b1 + b2):
                matrix = mk_exists(w, mk_and([Member(Variable(w), src), matrix]))
            clauses.append(mk_not(matrix))
    return mk_and(clauses)


@dataclass(frozen=True)
class UpdateFormula:
    name: str
    arg_vars: tuple[str, ...]
    val_var: str
    formula: Formula


def update_formula(
    program: Program,
    fname: str,
    mode: str = "state",
    arg_vars: tuple[str, ...] | None = None,
    val_var: str | None = None,
) -> UpdateFormula:
    """upd(args, val): the rule issues this update and nothing clashes."""
    sig = program.signature
    info = sig.dynamic_info(fname)
    if info is None:
        raise FormulaError(f"{fname!r} is not a dynamic name")
    arity = info[0]
    fresh = FreshNames(rule_variable_names(program.rule))
    if arg_vars is None:
        arg_vars = tuple(fresh.make("_x") for _ in range(arity))
    else:
        fresh.used.update(arg_vars)
    if val_var is None:
        val_var = fresh.make("_y")
    else:
        fresh.used.add(val_var)
    mem = _upd_member(program.rule, fname, arg_vars, val_var, sig, mode, fresh)
    con = consistency_formula(program.rule, sig, mode, fresh)
    return UpdateFormula(fname, arg_vars, val_var, mk_and([mem, con]))


# -- evaluation ------------------------------------------------------------------------


@dataclass
class Env:
    """Evaluation context: terms always read `term_state`; update atoms
    read the live state in state mode and `tables` in table mode."""

    term_state: State
    binding: dict[str, ObjId] = field(default_factory=dict)
    tables: dict[str, dict] | None = None
    objects: list[ObjId] | None = None
    pfp_rels: dict[str, set] | None = None

    @property
    def table_mode(self) -> bool:
        return self.tables is not None

    def term(self, t: Term) -> ObjId:
        return eval_term(self.term_state, t, self.binding)


def eval_formula(phi: Formula, env: Env) -> bool:
    u = env.term_state.universe
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Not):
        return not eval_formula(phi.body, env)
    if isinstance(phi, And):
        return all(eval_formula(p, env) for p in phi.parts)
    if isinstance(phi, Or):
        return any(eval_formula(p, env) for p in phi.parts)
    if isinstance(phi, TermEq):
        return env.term(phi.left) == env.term(phi.right)
    if isinstance(phi, Member):
        return u.contains(env.term(phi.container), env.term(phi.elem))
    if isinstance(phi, DynEq):
        if env.table_mode:
            raise FormulaError("state atom evaluated against stage tables")
        args = tuple(env.term(a) for a in phi.args)
        return env.term_state.lookup(phi.name, args) == env.term(phi.value)
    if isinstance(phi, ResAtom):
        row = tuple(env.term(a) for a in phi.args)
        if env.pfp_rels is not None and phi.name in env.pfp_rels:
            return row in env.pfp_rels[phi.name]
        if env.tables is None:
            raise FormulaError(f"no table for relation {phi.name!r}")
        tbl = env.tables.get(phi.name)
        if tbl is None:
            raise FormulaError(f"no table for relation {phi.name!r}")
        return tbl.get(row[:-1]) == row[-1]
    if isinstance(phi, Exists):
        return _eval_exists(phi.var, phi.body, env)
    if isinstance(phi, PFPOp):
        return _eval_pfp_op(phi, env)
    raise TypeError(f"not a formula: {phi!r}")


def _try_term(env: Env, t: Term):
    try:
        return env.term(t)
    except MachineError:
        return None


def _guard_candidates(var: str, conjuncts: tuple[Formula, ...], env: Env):
    """Values the guard conjunct allows for var, or None if unguarded."""
    v = Variable(var)
    u = env.term_state.universe
    for c in conjuncts:
        if isinstance(c, Member) and c.elem == v and var not in free_vars(c.container):
            src = _try_term(env, c.container)
            if src is not None:
                return list(u.elements(src))
        if isinstance(c, TermEq):
            for a, b in ((c.left, c.right), (c.right, c.left)):
                if a == v and var not in free_vars(b):
                    val = _try_term(env, b)
                    if val is not None:
                        return [val]
        if isinstance(c, DynEq) and not env.table_mode:
            if c.value == v and all(var not in free_vars(a) for a in c.args):
                args = tuple(_try_term(env, a) for a in c.args)
                if all(a is not None for a in args):
                    return [env.term_state.lookup(c.name, args)]
        if isinstance(c, ResAtom):
            positions = [i for i, a in enumerate(c.args) if a == v]
            rest_ok = all(
                var not in free_vars(a) for i, a in enumerate(c.args) if i not in positions)
            if len(positions) == 1 and rest_ok:
                rows = _res_rows(c.name, env)
                if rows is None:
                    continue
                fixed = {}
                usable = True
                for i, a in enumerate(c.args):
                    if i in positions:
                        continue
                    val = _try_term(env, a)
                    if val is None:
                        usable = False
                        break
                    fixed[i] = val
                if not usable:
                    continue
                out = []
                for row in rows:
                    if all(row[i] == val for i, val in fixed.items()):
                        out.append(row[positions[0]])
                return out
    return None


def _res_rows(name: str, env: Env):
    if env.pfp_rels is not None and name in env.pfp_rels:
        return list(env.pfp_rels[name])
    if env.tables is not None and name in env.tables:
        return [args + (val,) for args, val in env.tables[name].items()]
    return None


def _eval_exists(var: str, body: Formula, env: Env) -> bool:
    conjuncts = list(body.parts) if isinstance(body, And) else [body]
    queue = [var]
    # Splice nested existential conjuncts into a single quantifier block:
    # exists x (exists w B /\ R) == exists x exists w (B /\ R) whenever w
    # is fresh for R.  Extraction variables are globally fresh, so this
    # surfaces guards buried by nested value flattening.  Skip names that
    # shadow an outer binding; those stay nested and evaluate recursively.
    i = 0
    while i < len(conjuncts):
        c = conjuncts[i]
        if (isinstance(c, Exists) and c.var not in queue
                and c.var not in env.binding
                and not any(c.var in formula_vars(p)
                            for j, p in enumerate(conjuncts) if j != i)):
            queue.append(c.var)
            inner = c.body.parts if isinstance(c.body, And) else (c.body,)
            conjuncts[i:i + 1] = list(inner)
            continue
        i += 1
    return _eval_block(queue, conjuncts, env)


def _eval_block(queue: list[str], conjuncts: list[Formula], env: Env) -> bool:
    if not queue:
        return eval_formula(mk_and(conjuncts), env)
    # bind whichever block variable has an evaluable guard; guards that
    # mention still-unbound block variables are retried once those bind
    parts = tuple(conjuncts)
    for v in queue:
        candidates = _guard_candidates(v, parts, env)
        if candidates is None:
            continue
        rest = [w for w in queue if w != v]
        saved = env.binding.get(v, _MISSING)
        try:
            for cand in candidates:
                env.binding[v] = cand
                if _eval_block(rest, conjuncts, env):
                    return True
            return False
        finally:
            _restore(env.binding, v, saved)
    # no guard anywhere: push the block through a disjunctive conjunct
    for idx, c in enumerate(conjuncts):
        if isinstance(c, Or) and any(v in formula_vars(c) for v in queue):
            rest = conjuncts[:idx] + conjuncts[idx + 1:]
            return any(
                _eval_block(queue, rest + [branch], env)
                for branch in c.parts
            )
    if env.objects is None:
        raise FormulaError(
            f"existential over {queue[0]!r} has no guard and no object universe")
    v = queue[0]
    saved = env.binding.get(v, _MISSING)
    try:
        for cand in env.objects:
            env.binding[v] = cand
            if _eval_block(queue[1:], conjuncts, env):
                return True
        return False
    finally:
        _restore(env.binding, v, saved)


_MISSING = object()


def _restore(binding: dict, var: str, saved):
    if saved is _MISSING:
        binding.pop(var, None)
    else:
        binding[var] = saved


def _eval_pfp_op(phi: PFPOp, env: Env) -> bool:
    if env.objects is None:
        raise FormulaError("a fixed-point operator needs an object universe")
    k = len(phi.vars)
    rels = dict(env.pfp_rels or {})
    current: frozenset = frozenset()
    seen = {current: 0}
    trail = [current]
    final = None
    while True:
        rels[phi.rel] = current
        new = set()
        sub = Env(env.term_state, dict(env.binding), env.tables, env.objects, rels)
        for tup in itertools.product(env.objects, repeat=k):
            for name, val in zip(phi.vars, tup):
                sub.binding[name] = val
            if eval_formula(phi.body, sub):
                new.add(tup)
        new = frozenset(new)
        if new == current:
            final = new
            break
        if new in seen:
            final = frozenset()  # no fixed point: the empty relation
            break
        seen[new] = len(trail)
        trail.append(new)
        current = new
    args = tuple(env.term(a) for a in phi.args)
    return args in final


# -- stage iteration ---------------------------------------------------------------------


@dataclass(frozen=True)
class StageBody:
    name: str
    arg_vars: tuple[str, ...]
    val_var: str
    formula: Formula


def stage_bodies(program: Program) -> list[StageBody]:
    """One induction body per dynamic name, over stage tables."""
    out = []
    for fname, arity, _rel in program.signature.dynamics:
        upd = update_formula(program, fname, mode="table")
        xs, y = upd.arg_vars, upd.val_var
        fresh = FreshNames(rule_variable_names(program.rule) | set(xs) | {y})
        z = fresh.make("_z")
        upd_z = update_formula(program, fname, mode="table", arg_vars=xs, val_var=z)
        row = tuple(Variable(x) for x in xs) + (Variable(y),)
        keep = mk_and([
            ResAtom(fname, row),
            mk_not(mk_exists(z, mk_and([
                mk_not(TermEq(Variable(z), Variable(y))),
                upd_z.formula,
            ]))),
        ])
        body = mk_and([
            mk_not(TermEq(Variable(y), FALSE_TERM)),
            mk_or([upd.formula, keep]),
        ])
        out.append(StageBody(fname, xs, y, body))
    return out


@dataclass
class StageResult:
    status: str  # 'fixed' | 'cycled' | 'stage-cap'
    stages: list[dict[str, dict]]
    tables: dict[str, dict]

    def verdict(self, u: Universe) -> str:
        halt = self.tables.get("Halt", {}).get(())
        if self.status != "fixed" or halt != u.one:
            return "unknown"
        out = self.tables.get("Output", {}).get(())
        return "accept" if out == u.one else "reject"


def _tables_key(tables: dict[str, dict]):
    return tuple(
        (name, tuple(sorted(tbl.items()))) for name, tbl in sorted(tables.items())
    )


def iterate_stages(
    program: Program,
    inp: InputStructure,
    objects,
    universe: Universe,
    max_stages: int = 10_000,
) -> StageResult:
    """Run the induction from all-empty tables over the given objects."""
    sig = program.signature
    bodies = stage_bodies(program)
    term_state = State(universe, inp, sig, {n: {} for n in sig.dynamic_names()})
    objects = sorted(objects)
    tables: dict[str, dict] = {n: {} for n in sig.dynamic_names()}
    stages = [tables]
    seen = {_tables_key(tables): 0}
    while len(stages) <= max_stages:
        new: dict[str, dict] = {}
        for sb in bodies:
            arity = len(sb.arg_vars)
            tbl: dict = {}
            env = Env(term_state, {}, tables, list(objects))
            for args in itertools.product(objects, repeat=arity):
                for name, val in zip(sb.arg_vars, args):
                    env.binding[name] = val
                for y in objects:
                    env.binding[sb.val_var] = y
                    if eval_formula(sb.formula, env):
                        if args in tbl:
                            raise FormulaError(
                                f"stage body for {sb.name!r} related one location to two values")
                        tbl[args] = y
            new[sb.name] = tbl
        stages.append(new)
        if new == tables:
            return StageResult("fixed", stages, new)
        key = _tables_key(new)
        if key in seen:
            empty = {n: {} for n in sig.dynamic_names()}
            return StageResult("cycled", stages, empty)
        seen[key] = len(stages) - 1
        tables = new
    return StageResult("stage-cap", stages, {n: {} for n in sig.dynamic_names()})


def decide(
    machine: PSpaceMachine,
    inp: InputStructure,
    max_stages: int = 10_000,
) -> tuple[str, StageResult, RunTrace]:
    """Space-bounded run, then the induction over its active objects.

    A run cut off at its space bound leaves the induction a truncated
    domain, so its verdict is unknown whatever the stages reach.
    """
    trace = run(machine, inp)
    universe = trace.final_state.universe
    objects = sorted(trace.active_union())
    result = iterate_stages(machine.program, inp, objects, universe, max_stages)
    if trace.outcome is RunOutcome.SPACE_EXCEEDED:
        return "unknown", result, trace
    return result.verdict(universe), result, trace


# -- printing --------------------------------------------------------------------------


def term_sexpr(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Apply):
        if not t.args:
            return t.name
        return "(" + " ".join([t.name] + [term_sexpr(a) for a in t.args]) + ")"
    if isinstance(t, Comprehension):
        return (
            f"(comp {t.var} {term_sexpr(t.head)} {term_sexpr(t.source)} "
            f"{term_sexpr(t.guard)})"
        )
    raise TypeError(f"not a term: {t!r}")


def formula_sexpr(phi: Formula) -> str:
    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, Not):
        return f"(not {formula_sexpr(phi.body)})"
    if isinstance(phi, And):
        return "(and " + " ".join(formula_sexpr(p) for p in phi.parts) + ")"
    if isinstance(phi, Or):
        return "(or " + " ".join(formula_sexpr(p) for p in phi.parts) + ")"
    if isinstance(phi, Exists):
        return f"(exists {phi.var} {formula_sexpr(phi.body)})"
    if isinstance(phi, TermEq):
        return f"(= {term_sexpr(phi.left)} {term_sexpr(phi.right)})"
    if isinstance(phi, Member):
        return f"(in {term_sexpr(phi.elem)} {term_sexpr(phi.container)})"
    if isinstance(phi, DynEq):
        args = " ".join(term_sexpr(a) for a in phi.args)
        inner = f"{phi.name} ({args})" if phi.args else f"{phi.name} ()"
        return f"(dyn {inner} {term_sexpr(phi.value)})"
    if isinstance(phi, ResAtom):
        return "(row " + " ".join([phi.name] + [term_sexpr(a) for a in phi.args]) + ")"
    if isinstance(phi, PFPOp):
        vars_ = " ".join(phi.vars)
        args = " ".join(term_sexpr(a) for a in phi.args)
        return f"(pfp {phi.rel} ({vars_}) {formula_sexpr(phi.body)} ({args}))"
    raise TypeError(f"not a formula: {phi!r}")
