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
its tables) or against stage tables.  A formula is compiled into nested
closures once for each shape of environment it meets (the names bound,
state or table mode, the relations with rows), and its guard plan is
fixed then: quantifiers prefer guards -- membership in an evaluated set,
an equation pinning the variable, a table row -- and fall back to
enumerating a supplied object universe; evaluation without guards or a
universe is an error when reached, not a silent wrong answer.  The same
evaluator handles explicit fixed-point operators in sentences over pure
set structures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from cpspace.hf import ObjId, Universe
from cpspace.machine import (
    InputStructure,
    MachineError,
    State,
    eval_term,
    make_input,
    tables_key,
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


def eval_formula(phi: Formula, env: Env) -> bool:
    """Whether phi holds in env, by phi's plan for the shape of env."""
    shape = _Shape(frozenset(env.binding),
                   None if env.tables is None else frozenset(env.tables),
                   frozenset(env.pfp_rels or ()))
    run = _Run(env.term_state, env.binding, env.tables, env.objects, env.pfp_rels)
    return _plan(phi, shape)(run)


# A formula compiles, once per shape of environment, into a plan: a
# closure `plan(run) -> bool`.  The shape fixes every choice the order of
# evaluation makes apart from values; the plan reads values from `run`.


class _Shape(NamedTuple):
    bound: frozenset          # names in the binding
    tables: frozenset | None  # stage-table names; None in state mode
    rels: frozenset           # fixed-point relations being iterated

    def bind(self, var: str) -> _Shape:
        return self._replace(bound=self.bound | {var})


class _Run:
    __slots__ = ("binding", "state", "empty", "one", "contains", "elements",
                 "objects", "tables", "rels")

    def __init__(self, state, binding, tables, objects, rels):
        u = state.universe
        self.binding, self.state, self.objects = binding, state, objects
        self.empty, self.one = u.empty, u.one
        self.contains, self.elements = u.contains, u.elements
        self.tables, self.rels = tables, rels


def _plan(phi: Formula, shape: _Shape):
    """phi's plan for this shape, kept on the formula node itself so that
    it lives exactly as long as the formula."""
    try:
        plans = phi._plans
    except AttributeError:
        plans = {}
        object.__setattr__(phi, "_plans", plans)
    plan = plans.get(shape)
    if plan is None:
        plan = plans[shape] = _compile(phi, shape)
    return plan


class _Deferred:
    """build(*args), compiled when first run, so that only the parts
    evaluation reaches are compiled.  Keeps no reference to its callers."""

    __slots__ = ("args", "plan")

    def __init__(self, *args):
        self.args, self.plan = args, None

    def get(self):
        if self.plan is None:
            build, *args = self.args
            self.plan, self.args = build(*args), None
        return self.plan


def _false(run):
    return False


_one, _empty = attrgetter("one"), attrgetter("empty")


def _fail(message: str, terms=None):
    """A plan that evaluates terms, then raises: errors stay lazy."""
    def plan(run):
        if terms is not None:
            terms(run)
        raise FormulaError(message)
    return plan


def _term(t: Term, bound: frozenset):
    """Bound variables and true/false/emptyset are read directly; every
    other term goes through `eval_term`."""
    if isinstance(t, Variable) and t.name in bound:
        name = t.name
        return lambda run: run.binding[name]
    if isinstance(t, Apply) and t.name == "true":
        return _one
    if isinstance(t, Apply) and t.name in ("false", "emptyset"):
        return _empty
    return lambda run: eval_term(run.state, t, run.binding)


def _terms(terms: tuple[Term, ...], bound: frozenset):
    """The tuple of the terms' values."""
    plans = [_term(t, bound) for t in terms]
    if len(plans) == 1:
        (only,) = plans
        return lambda run: (only(run),)
    return lambda run: tuple([t(run) for t in plans])


def _compile(phi: Formula, shape: _Shape):
    bound = shape.bound
    if isinstance(phi, TrueF):
        return lambda run: True
    if isinstance(phi, FalseF):
        return _false
    if isinstance(phi, Not):
        body = _plan(phi.body, shape)
        return lambda run: not body(run)
    if isinstance(phi, And):
        return _all(phi.parts, shape)
    if isinstance(phi, Or):
        return _any([_Deferred(_plan, p, shape) for p in phi.parts])
    if isinstance(phi, TermEq):
        left, right = _term(phi.left, bound), _term(phi.right, bound)
        return lambda run: left(run) == right(run)
    if isinstance(phi, Member):
        elem, container = _term(phi.elem, bound), _term(phi.container, bound)
        return lambda run: run.contains(container(run), elem(run))
    if isinstance(phi, DynEq):
        if shape.tables is not None:
            return _fail("state atom evaluated against stage tables")
        name, value, args = phi.name, _term(phi.value, bound), _terms(phi.args, bound)
        return lambda run: run.state.lookup(name, args(run)) == value(run)
    if isinstance(phi, ResAtom):
        name, args = phi.name, _terms(phi.args, bound)
        if name in shape.rels:
            return lambda run: args(run) in run.rels[name]
        if shape.tables is None or name not in shape.tables:
            return _fail(f"no table for relation {name!r}", args)

        def row(run):
            vals = args(run)
            return run.tables[name].get(vals[:-1]) == vals[-1]
        return row
    if isinstance(phi, Exists):
        return _exists(phi.var, phi.body, shape)
    if isinstance(phi, PFPOp):
        return _pfp_op(phi, shape)
    raise TypeError(f"not a formula: {phi!r}")


def _all(parts: tuple[Formula, ...], shape: _Shape):
    if len(parts) == 1:
        return _plan(parts[0], shape)
    plans = [_Deferred(_plan, p, shape) for p in parts]

    def conj(run):
        for p in plans:
            if not (p.plan or p.get())(run):
                return False
        return True
    return conj


def _any(plans: list[_Deferred]):
    def disj(run):
        for p in plans:
            if (p.plan or p.get())(run):
                return True
        return False
    return disj


def _exists(var: str, body: Formula, shape: _Shape):
    conjuncts = list(body.parts) if isinstance(body, And) else [body]
    fvs = [formula_vars(c) for c in conjuncts]
    queue = [var]
    # Splice nested existential conjuncts into a single quantifier block:
    # exists x (exists w B /\ R) == exists x exists w (B /\ R) whenever w
    # is fresh for R.  Extraction variables are globally fresh, so this
    # surfaces guards buried by nested value flattening.  Skip names that
    # shadow an outer binding; those stay nested and get blocks of their own.
    i = 0
    while i < len(conjuncts):
        c = conjuncts[i]
        if (isinstance(c, Exists) and c.var not in queue
                and c.var not in shape.bound
                and not any(c.var in fv for j, fv in enumerate(fvs) if j != i)):
            queue.append(c.var)
            inner = c.body.parts if isinstance(c.body, And) else (c.body,)
            conjuncts[i:i + 1] = inner
            fvs[i:i + 1] = [formula_vars(p) for p in inner]
            continue
        i += 1
    return _block(tuple(queue), tuple(conjuncts), shape)


def _block(queue: tuple[str, ...], conjuncts: tuple[Formula, ...], shape: _Shape, skip=0):
    """Plan of "exists queue: and(conjuncts)".

    Bind whichever block variable has an evaluable guard, trying the
    variables in queue order and each variable's guards in conjunct
    order, past the first `skip`; a guard that mentions still-unbound
    block variables is tried again once those bind.  The guards after
    the first whose variables are all bound are compiled only if it fails
    to evaluate.  Failing every guard, push the block through a
    disjunctive conjunct, and failing that, enumerate the object universe
    for the first variable.
    """
    if not queue:
        # a false conjunct leaves the others unevaluated, as mk_and folds it
        if any(isinstance(c, FalseF) for c in conjuncts):
            return _false
        return _all(conjuncts, shape)
    guards = ((v, *g) for v in queue for g in _guards(v, conjuncts, shape))
    attempts = []
    for v, guard, certain, idx in itertools.islice(guards, skip, None):
        rest = tuple(w for w in queue if w != v)
        inner, c = conjuncts, conjuncts[idx]
        if certain and not isinstance(c, ResAtom) and formula_vars(c).isdisjoint(rest):
            # every candidate makes the guard's own conjunct true, and no
            # later binding changes it: it need not be tested again
            inner = conjuncts[:idx] + conjuncts[idx + 1:]
        attempts.append((v, guard, _Deferred(_block, rest, inner, shape.bind(v))))
        if certain:
            fallback = _Deferred(_block, queue, conjuncts, shape, skip + len(attempts))
            break
    else:
        if not attempts:
            return _unguarded(queue, conjuncts, shape)
        fallback = _Deferred(_unguarded, queue, conjuncts, shape)

    def block(run):
        for v, guard, sub in attempts:
            candidates = guard(run)
            if candidates is not None:
                return _any_binding(run, v, candidates, sub.plan or sub.get())
        return (fallback.plan or fallback.get())(run)
    return block


def _unguarded(queue, conjuncts, shape):
    for idx, c in enumerate(conjuncts):
        if isinstance(c, Or) and not formula_vars(c).isdisjoint(queue):
            rest = conjuncts[:idx] + conjuncts[idx + 1:]
            return _any([_Deferred(_block, queue, rest + (b,), shape) for b in c.parts])
    v = queue[0]
    sub = _Deferred(_block, queue[1:], conjuncts, shape.bind(v))
    message = f"existential over {v!r} has no guard and no object universe"

    def enumerate_objects(run):
        if run.objects is None:
            raise FormulaError(message)
        return _any_binding(run, v, run.objects, sub.plan or sub.get())
    return enumerate_objects


_MISSING = object()


def _any_binding(run, var: str, candidates, plan) -> bool:
    """Whether plan holds with var bound to some candidate, in order."""
    binding = run.binding
    saved = binding.get(var, _MISSING)
    try:
        for cand in candidates:
            binding[var] = cand
            if plan(run):
                return True
        return False
    finally:
        if saved is _MISSING:
            binding.pop(var, None)
        else:
            binding[var] = saved


def _must_fail(t: Term, bound: frozenset) -> bool:
    """`eval_term` on t certainly raises for an unbound variable."""
    if isinstance(t, Variable):
        return t.name not in bound
    if isinstance(t, Apply):
        return (t.name not in ("true", "false", "emptyset", "Atoms")
                and any(_must_fail(a, bound) for a in t.args))
    if isinstance(t, Comprehension):
        return _must_fail(t.source, bound)
    return False


def _guards(var: str, conjuncts: tuple[Formula, ...], shape: _Shape):
    """(guard, certain, conjunct index) for var, in the order a block tries
    them.  A guard returns the values its conjunct allows for var, or None
    when one of its terms fails to evaluate.  It is certain when its terms
    have all their variables bound; one whose terms must fail is left out."""
    v, bound = Variable(var), shape.bound
    for idx, c in enumerate(conjuncts):
        forms = []
        if isinstance(c, Member) and c.elem == v:
            forms = [((c.container,), _elements)]
        elif isinstance(c, TermEq):
            forms = [((b,), _single) for a, b in ((c.left, c.right), (c.right, c.left))
                     if a == v]
        elif isinstance(c, DynEq) and shape.tables is None and c.value == v:
            forms = [(c.args, partial(_lookup, c.name))]
        elif isinstance(c, ResAtom) and c.args.count(v) == 1:
            in_rels = c.name in shape.rels
            if in_rels or (shape.tables is not None and c.name in shape.tables):
                fixed = [i for i, a in enumerate(c.args) if a != v]
                forms = [(tuple(c.args[i] for i in fixed),
                          partial(_rows, c.name, in_rels, c.args.index(v), fixed))]
        for terms, values in forms:
            fvs = [free_vars(t) for t in terms]
            if any(var in fv for fv in fvs) or any(
                    _must_fail(t, bound) for t, fv in zip(terms, fvs) if not fv <= bound):
                continue
            yield (_guard([_term(t, bound) for t in terms], values),
                   all(fv <= bound for fv in fvs), idx)


def _guard(terms, values):
    def guard(run):
        try:
            vals = [t(run) for t in terms]
        except MachineError:
            return None
        return values(run, *vals)
    return guard


def _elements(run, src):
    return run.elements(src)


def _single(run, val):
    return (val,)


def _lookup(name, run, *args):
    return (run.state.lookup(name, args),)


def _rows(name, in_rels, pos, fixed, run, *vals):
    if in_rels:
        rows = run.rels[name]
    else:
        rows = [args + (val,) for args, val in run.tables[name].items()]
    return [row[pos] for row in rows if all(row[i] == x for i, x in zip(fixed, vals))]


def _pfp_op(phi: PFPOp, shape: _Shape):
    rel, names = phi.rel, phi.vars
    body = _plan(phi.body, _Shape(shape.bound | set(names), shape.tables, shape.rels | {rel}))
    args = _terms(phi.args, shape.bound)

    def pfp(run):
        if run.objects is None:
            raise FormulaError("a fixed-point operator needs an object universe")
        rels = dict(run.rels or {})
        sub = _Run(run.state, dict(run.binding), run.tables, run.objects, rels)
        current: frozenset = frozenset()
        seen = {current}
        while True:
            rels[rel] = current
            new = set()
            for tup in itertools.product(run.objects, repeat=len(names)):
                sub.binding.update(zip(names, tup))
                if body(sub):
                    new.add(tup)
            new = frozenset(new)
            if new == current:
                break
            if new in seen:
                new = frozenset()  # no fixed point: the empty relation
                break
            seen.add(new)
            current = new
        return args(run) in new
    return pfp


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


def iterate_stages(
    program: Program,
    inp: InputStructure,
    objects,
    universe: Universe,
    max_stages: int = 10_000,
) -> StageResult:
    """Run the induction from all-empty tables over the given objects."""
    sig = program.signature
    term_state = State(universe, inp, sig, {n: {} for n in sig.dynamic_names()})
    objects = sorted(objects)
    tables: dict[str, dict] = {n: {} for n in sig.dynamic_names()}
    names = frozenset(tables)
    bodies = [(sb, _plan(sb.formula, _Shape(frozenset(sb.arg_vars + (sb.val_var,)),
                                             names, frozenset())))
              for sb in stage_bodies(program)]
    stages = [tables]
    seen = {tables_key(tables): 0}
    while len(stages) <= max_stages:
        new: dict[str, dict] = {}
        for sb, plan in bodies:
            tbl: dict = {}
            run = _Run(term_state, {}, tables, objects, None)
            binding = run.binding
            for args in itertools.product(objects, repeat=len(sb.arg_vars)):
                binding.update(zip(sb.arg_vars, args))
                for y in objects:
                    binding[sb.val_var] = y
                    if plan(run):
                        if args in tbl:
                            raise FormulaError(
                                f"stage body for {sb.name!r} related one location to two values")
                        tbl[args] = y
            new[sb.name] = tbl
        stages.append(new)
        if new == tables:
            return StageResult("fixed", stages, new)
        key = tables_key(new)
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
