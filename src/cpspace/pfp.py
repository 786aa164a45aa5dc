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
the old entry survives untouched.  Iterating from all-empty tables
recovers the run of the machine table-for-table, without stepping
states.  `iterate_stages` and the fixed-point operator `PFPOp` share
one stage loop, which ends "fixed" on a stage equal to the one before
it, "cycled" on a stage that repeats an earlier one, and "stage-cap"
after a cap on the number of stages (the operator sets none).  Only a
fixed point gives its last stage; a cycle or the cap gives all-empty
tables, the usual convention for partial fixed points.

Dynamic atoms ("f(args) = value") read one table mapping: a live
state's tables, or stage tables of the same shape, so one update formula
per name serves both.  Row atoms read only the relation that an
enclosing fixed-point operator is iterating.  A formula is compiled into
nested closures once for each shape of environment it meets (the names
bound, the fixed-point relations being iterated), and its guard plan is
fixed then: quantifiers prefer guards -- membership in an evaluated set,
an equation pinning the variable, a table entry, a row of an iterated
relation -- and fall back to enumerating a supplied object universe;
evaluation without guards or a universe, of a dynamic atom whose name
has no table, or of a row atom outside its operator, is an error when
reached, not a silent wrong answer.  The same evaluator handles explicit
fixed-point operators in sentences over pure set structures.

The innermost shapes compile to a single closure each, so that a stage
of a fixed-point operator costs at most one closure call per row probe:
- a row atom over bound variables, and an equation between a bound
  variable and true, false or emptyset, read the binding directly;
- a block whose first guard is a certain membership guard "v in t"
  evaluates t and binds v to each element directly; when t is a bound
  variable and the rest of the block is the row atom R(v), it probes R
  with each element and binds nothing;
- each stage of the one stage loop, which a fixed-point operator shares
  with `iterate_stages`, binds the last variable once per object.
Guard order, the lazy compilation of only the parts evaluation reaches,
and errors raised only when reached are as for the generic closures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import NamedTuple

from cpspace.hf import ObjId, Universe
from cpspace.machine import (
    InputStructure,
    MachineError,
    State,
    eval_term,
    tables_key,
)
from cpspace.monitor import PSpaceMachine, RunOutcome, RunTrace, run
from cpspace.syntax import (
    FALSE_TERM,
    TRUE_TERM,
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
    nodes,
    subst_term,
    term_contains_dynamic,
)


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
    """f(args) = value, read from a table (default: the empty set)."""

    name: str
    args: tuple[Term, ...]
    value: Term


@dataclass(frozen=True)
class ResAtom(Formula):
    """Row atom: args is a row of rel, the relation that an enclosing
    `PFPOp` over rel is iterating."""

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
    """Every variable name in the rule, bound or free."""
    return {
        node.name if isinstance(node, Variable) else node.var
        for node in nodes(rule)
        if isinstance(node, (Variable, Comprehension, Forall))
    }


# -- flattening dynamic subterms --------------------------------------------------


def value_formula(term: Term, var: str, sig: Signature, fresh: FreshNames) -> Formula:
    """A formula stating that `term` evaluates to the value of `var`."""
    if not term_contains_dynamic(term, sig):
        return TermEq(Variable(var), term)
    return _dynamic_value(term, var, sig, fresh)


def _dynamic_value(term: Term, var: str, sig: Signature, fresh: FreshNames) -> Formula:
    """`value_formula` of a term known to contain a dynamic name: each
    argument is tested once, and a dynamic one flattened without testing
    it again."""
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
            wrapped.append((wa, _dynamic_value(a, wa, sig, fresh)))
            new_args.append(Variable(wa))
        else:
            new_args.append(a)
    if sig.is_dynamic(term.name):
        out = DynEq(term.name, tuple(new_args), Variable(var))
    else:
        out = TermEq(Variable(var), Apply(term.name, tuple(new_args)))
    for wa, sub in reversed(wrapped):
        out = mk_exists(wa, mk_and([sub, out]))
    return out


def bool_formula(term: Term, sig: Signature, fresh: FreshNames) -> Formula:
    """A formula stating that `term` evaluates to 1."""
    if not term_contains_dynamic(term, sig):
        return TermEq(term, TRUE_TERM)
    w = fresh.make("_tnf")
    return mk_exists(w, mk_and([
        _dynamic_value(term, w, sig, fresh),
        TermEq(Variable(w), TRUE_TERM),
    ]))


def eq_formula(left: Term, right: Term, sig: Signature, fresh: FreshNames) -> Formula:
    """val(left) = val(right), flattening either side if it is dynamic."""
    dynamic = [term_contains_dynamic(t, sig) for t in (left, right)]
    if not any(dynamic):
        return mk_eq(left, right)
    w = fresh.make("_tnf")
    return mk_exists(w, mk_and([
        _dynamic_value(t, w, sig, fresh) if dyn else TermEq(Variable(w), t)
        for t, dyn in zip((left, right), dynamic)
    ]))


# -- update formulas -----------------------------------------------------------------


def _upd_member(
    rule: Rule,
    fname: str,
    arg_vars: tuple[str, ...],
    val_var: str,
    sig: Signature,
    fresh: FreshNames,
) -> Formula:
    """The update f(arg_vars) := val_var is issued by the rule."""
    if isinstance(rule, Skip):
        return FALSEF
    if isinstance(rule, Assign):
        if rule.name != fname:
            return FALSEF
        parts = [value_formula(t, xv, sig, fresh) for xv, t in zip(arg_vars, rule.args)]
        parts.append(value_formula(rule.value, val_var, sig, fresh))
        return mk_and(parts)
    if isinstance(rule, If):
        cond = bool_formula(rule.cond, sig, fresh)
        then_f = _upd_member(rule.then_rule, fname, arg_vars, val_var, sig, fresh)
        else_f = _upd_member(rule.else_rule, fname, arg_vars, val_var, sig, fresh)
        return mk_or([mk_and([cond, then_f]), mk_and([mk_not(cond), else_f])])
    if isinstance(rule, Forall):
        body = _upd_member(rule.body, fname, arg_vars, val_var, sig, fresh)
        if not term_contains_dynamic(rule.source, sig):
            return mk_exists(rule.var, mk_and([
                Member(Variable(rule.var), rule.source), body]))
        w = fresh.make("_tnf")
        inner = mk_exists(rule.var, mk_and([Member(Variable(rule.var), Variable(w)), body]))
        return mk_exists(w, mk_and([
            _dynamic_value(rule.source, w, sig, fresh), inner]))
    raise TypeError(f"not a rule: {rule!r}")


def _collect_assignments(rule: Rule, path: tuple, out: list):
    """Append (path, assignment) for each assignment under the rule.  A
    path lists the binders and guards above the assignment, outermost
    first, each ('bind', var, source) or ('cond', term, positive)."""
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


def consistency_formula(rule: Rule, sig: Signature, fresh: FreshNames) -> Formula:
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
                b = bool_formula(cond, sig, fresh)
                parts.append(b if positive else mk_not(b))
            for s, t in zip(args1, args2):
                parts.append(eq_formula(s, t, sig, fresh))
            parts.append(mk_not(eq_formula(val1, val2, sig, fresh)))
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


def update_formula(program: Program, fname: str) -> UpdateFormula:
    """upd(args, val): the rule issues this update and nothing clashes."""
    sig = program.signature
    info = sig.dynamic_info(fname)
    if info is None:
        raise FormulaError(f"{fname!r} is not a dynamic name")
    fresh = FreshNames(rule_variable_names(program.rule))
    arg_vars = tuple(fresh.make("_x") for _ in range(info[0]))
    val_var = fresh.make("_y")
    mem = _upd_member(program.rule, fname, arg_vars, val_var, sig, fresh)
    con = consistency_formula(program.rule, sig, fresh)
    return UpdateFormula(fname, arg_vars, val_var, mk_and([mem, con]))


# -- evaluation ------------------------------------------------------------------------


class Env:
    """Evaluation context, and the record a plan reads: terms read
    `term_state` under `binding`; dynamic atoms (`DynEq`) read `tables`,
    the tables of `term_state` when None is passed; row atoms (`ResAtom`)
    read `pfp_rels`; unguarded quantifiers and fixed-point operators range
    over `objects`; and `empty`, `one`, `contains` and `elements` are the
    universe's, kept here so that a plan reads them in one step."""

    __slots__ = ("term_state", "binding", "tables", "objects", "pfp_rels",
                 "empty", "one", "contains", "elements")

    def __init__(self, term_state: State, binding: dict[str, ObjId] | None = None,
                 tables: dict[str, dict] | None = None, objects: list[ObjId] | None = None,
                 pfp_rels: dict[str, set] | None = None):
        u = term_state.universe
        self.term_state, self.objects, self.pfp_rels = term_state, objects, pfp_rels
        self.binding = {} if binding is None else binding
        self.tables = term_state.tables if tables is None else tables
        self.empty, self.one, self.contains, self.elements = u.empty, u.one, u.contains, u.elements


def eval_formula(phi: Formula, env: Env) -> bool:
    """Whether phi holds in env, by phi's plan for the shape of env."""
    return _plan(phi, _Shape(frozenset(env.binding), frozenset(env.pfp_rels or ())))(env)


# A formula compiles, once per shape of environment, into a plan: a
# closure `plan(env) -> bool`.  The shape fixes every choice the order of
# evaluation makes apart from values; the plan reads values from `env`.


class _Shape(NamedTuple):
    bound: frozenset  # names in the binding
    rels: frozenset   # fixed-point relations being iterated

    def bind(self, var: str) -> _Shape:
        return self._replace(bound=self.bound | {var})


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


def _false(env):
    return False


def _table(env, name: str) -> dict:
    tbl = env.tables.get(name)
    if tbl is None:
        raise FormulaError(f"no table for relation {name!r}")
    return tbl


# the constants a plan reads from its `Env`, not through `eval_term`
_CONSTANTS = {"true": "one", "false": "empty", "emptyset": "empty"}


def _constant(t: Term):
    """The `Env` attribute holding t's value, if t is a constant."""
    return _CONSTANTS.get(t.name) if isinstance(t, Apply) else None


def _bound_names(terms: tuple[Term, ...], bound: frozenset):
    """The terms' names if every one is a bound variable, else None."""
    if all(isinstance(t, Variable) and t.name in bound for t in terms):
        return tuple(t.name for t in terms)
    return None


def _term(t: Term, bound: frozenset):
    """Bound variables and true/false/emptyset are read directly; every
    other term goes through `eval_term`."""
    if _bound_names((t,), bound):
        name = t.name
        return lambda env: env.binding[name]
    if attr := _constant(t):
        return attrgetter(attr)
    return lambda env: eval_term(env.term_state, t, env.binding)


def _terms(terms: tuple[Term, ...], bound: frozenset):
    """The tuple of the terms' values; bound variables are read from the
    binding in one step."""
    names = _bound_names(terms, bound)
    if names and len(names) == 1:
        (name,) = names
        return lambda env: (env.binding[name],)
    if names:
        get = itemgetter(*names)
        return lambda env: get(env.binding)
    plans = [_term(t, bound) for t in terms]
    return lambda env: tuple([t(env) for t in plans])


def _compile(phi: Formula, shape: _Shape):
    bound = shape.bound
    if isinstance(phi, TrueF):
        return lambda env: True
    if isinstance(phi, FalseF):
        return _false
    if isinstance(phi, Not):
        body = _plan(phi.body, shape)
        return lambda env: not body(env)
    if isinstance(phi, And):
        return _all(phi.parts, shape)
    if isinstance(phi, Or):
        return _any([_Deferred(_plan, p, shape) for p in phi.parts])
    if isinstance(phi, TermEq):
        for var, other in ((phi.left, phi.right), (phi.right, phi.left)):
            if _bound_names((var,), bound) and (attr := _constant(other)):
                name, const = var.name, attrgetter(attr)
                return lambda env: env.binding[name] == const(env)
        left, right = _term(phi.left, bound), _term(phi.right, bound)
        return lambda env: left(env) == right(env)
    if isinstance(phi, Member):
        elem, container = _term(phi.elem, bound), _term(phi.container, bound)
        return lambda env: env.contains(container(env), elem(env))
    if isinstance(phi, DynEq):
        name, value, args = phi.name, _term(phi.value, bound), _terms(phi.args, bound)
        return lambda env: _table(env, name).get(args(env), env.empty) == value(env)
    if isinstance(phi, ResAtom):
        name, names = phi.name, _bound_names(phi.args, bound)
        if name not in shape.rels:
            def outside(env):
                raise FormulaError(f"row atom of {name!r} outside a fixed-point operator over it")
            return outside
        if names and len(names) == 1:
            (x,) = names
            return lambda env: (env.binding[x],) in env.pfp_rels[name]
        if names:
            get = itemgetter(*names)
            return lambda env: get(env.binding) in env.pfp_rels[name]
        args = _terms(phi.args, bound)
        return lambda env: args(env) in env.pfp_rels[name]
    if isinstance(phi, Exists):
        return _exists(phi.var, phi.body, shape)
    if isinstance(phi, PFPOp):
        return _pfp_op(phi, shape)
    raise TypeError(f"not a formula: {phi!r}")


def _all(parts: tuple[Formula, ...], shape: _Shape):
    if len(parts) == 1:
        return _plan(parts[0], shape)
    plans = [_Deferred(_plan, p, shape) for p in parts]

    def conj(env):
        for p in plans:
            if not (p.plan or p.get())(env):
                return False
        return True
    return conj


def _any(plans: list[_Deferred]):
    def disj(env):
        for p in plans:
            if (p.plan or p.get())(env):
                return True
        return False
    return disj


def _conjuncts(phi: Formula) -> tuple[Formula, ...]:
    return phi.parts if isinstance(phi, And) else (phi,)


def _exists(var: str, body: Formula, shape: _Shape):
    if var in shape.bound:
        # var shadows an outer binding: plan the block with var unbound, and
        # hide the outer value while it runs, so no guard or term reads it
        plan = _exists(var, body, shape._replace(bound=shape.bound - {var}))

        def shadowed(env):
            outer = env.binding.pop(var)
            try:
                return plan(env)
            finally:
                env.binding[var] = outer
        return shadowed
    conjuncts = list(_conjuncts(body))
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
            inner = _conjuncts(c.body)
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
        if certain and not isinstance(c, ResAtom):
            # every candidate makes the guard's own conjunct true, and it
            # mentions no later block variable, as no block variable is in
            # shape.bound: it need not be tested again
            inner = conjuncts[:idx] + conjuncts[idx + 1:]
        sub = _Deferred(_block, rest, inner, shape.bind(v))
        attempts.append((v, guard, sub))
        if certain:
            fallback = _Deferred(_block, queue, conjuncts, shape, skip + len(attempts))
            if len(attempts) == 1 and isinstance(c, Member):
                return (_row_probe(v, c.container, rest, inner, shape)
                        or _member_block(v, _term(c.container, shape.bound), sub, fallback))
            break
    else:
        if not attempts:
            return _unguarded(queue, conjuncts, shape)
        fallback = _Deferred(_unguarded, queue, conjuncts, shape)

    def block(env):
        for v, guard, sub in attempts:
            candidates = guard(env)
            if candidates is not None:
                return _any_binding(env, v, candidates, sub.plan or sub.get())
        return (fallback.plan or fallback.get())(env)
    return block


def _row_probe(var: str, container: Term, rest, inner, shape: _Shape):
    """The plan of "exists var (var in x and R(var))", for a bound x and
    an iterated R: whether some element of x is a row of R, binding
    nothing.  None for any other block."""
    if rest or len(inner) != 1 or not _bound_names((container,), shape.bound):
        return None
    (row,) = inner
    if not (isinstance(row, ResAtom) and row.args == (Variable(var),) and row.name in shape.rels):
        return None
    source, name = container.name, row.name

    def row_probe(env):
        rel = env.pfp_rels[name]
        for cand in env.elements(env.binding[source]):
            if (cand,) in rel:
                return True
        return False
    return row_probe


def _member_block(var: str, container, sub: _Deferred, fallback: _Deferred):
    """The block plan when its first attempt is the certain guard "var in
    container": var ranges over the container's elements, bound by
    `_any_binding`, and a container that fails to evaluate passes the
    block to the fallback, as a guard yielding None does."""
    def member_block(env):
        try:
            src = container(env)
        except MachineError:
            return (fallback.plan or fallback.get())(env)
        return _any_binding(env, var, env.elements(src), sub.plan or sub.get())
    return member_block


def _unguarded(queue, conjuncts, shape):
    for idx, c in enumerate(conjuncts):
        if isinstance(c, Or) and not formula_vars(c).isdisjoint(queue):
            # an And branch's parts join the conjuncts, so that they can guard
            rest = conjuncts[:idx] + conjuncts[idx + 1:]
            return _any([_Deferred(_block, queue, rest + _conjuncts(b), shape) for b in c.parts])
    v = queue[0]
    sub = _Deferred(_block, queue[1:], conjuncts, shape.bind(v))
    message = f"existential over {v!r} has no guard and no object universe"

    def enumerate_objects(env):
        if env.objects is None:
            raise FormulaError(message)
        return _any_binding(env, v, env.objects, sub.plan or sub.get())
    return enumerate_objects


_MISSING = object()


def _any_binding(env, var: str, candidates, plan) -> bool:
    """Whether plan holds with var bound to some candidate, in order."""
    binding = env.binding
    saved = binding.get(var, _MISSING)
    try:
        for cand in candidates:
            binding[var] = cand
            if plan(env):
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
    when one of its terms fails to evaluate or its atom's name has no
    table.  It is certain when its terms have all their variables bound;
    one whose terms must fail is left out."""
    v, bound = Variable(var), shape.bound
    for idx, c in enumerate(conjuncts):
        forms = []
        if isinstance(c, Member) and c.elem == v:
            forms = [((c.container,), _elements)]
        elif isinstance(c, TermEq):
            forms = [((b,), _single) for a, b in ((c.left, c.right), (c.right, c.left))
                     if a == v]
        elif isinstance(c, DynEq) and c.value == v:
            forms = [(c.args, partial(_lookup, c.name))]
        elif isinstance(c, ResAtom) and c.name in shape.rels and c.args.count(v) == 1:
            fixed = [i for i, a in enumerate(c.args) if a != v]
            forms = [(tuple(c.args[i] for i in fixed),
                      partial(_rows, c.name, c.args.index(v), fixed))]
        for terms, values in forms:
            fvs = [free_vars(t) for t in terms]
            if any(var in fv for fv in fvs) or any(
                    _must_fail(t, bound) for t, fv in zip(terms, fvs) if not fv <= bound):
                continue
            yield (_guard([_term(t, bound) for t in terms], values),
                   all(fv <= bound for fv in fvs), idx)


def _guard(terms, values):
    def guard(env):
        try:
            vals = [t(env) for t in terms]
        except MachineError:
            return None
        return values(env, *vals)
    return guard


def _elements(env, src):
    return env.elements(src)


def _single(env, val):
    return (val,)


def _lookup(name, env, *args):
    tbl = env.tables.get(name)
    return None if tbl is None else (tbl.get(args, env.empty),)


def _rows(name, pos, fixed, env, *vals):
    return [row[pos] for row in env.pfp_rels[name] if all(row[i] == x for i, x in zip(fixed, vals))]


def _stages(first, advance, key, cap=None):
    """(status, stages): first and the stages `advance` makes from it, up
    to a stage equal to the one before it ("fixed"), one whose key an
    earlier stage has ("cycled"), or cap stages after the first
    ("stage-cap").  The cap is tested before each advance, so a repeat
    at the cap still reports as the repeat."""
    stages, seen = [first], {key(first)}
    while cap is None or len(stages) <= cap:
        stages.append(advance(stages[-1]))
        if stages[-1] == stages[-2]:
            return "fixed", stages
        if (k := key(stages[-1])) in seen:
            return "cycled", stages
        seen.add(k)
    return "stage-cap", stages


def _pfp_op(phi: PFPOp, shape: _Shape):
    rel, names = phi.rel, phi.vars
    body = _plan(phi.body, _Shape(shape.bound | set(names), shape.rels | {rel}))
    args = _terms(phi.args, shape.bound)

    def pfp(env):
        if env.objects is None:
            raise FormulaError("a fixed-point operator needs an object universe")
        rels = dict(env.pfp_rels or {})
        sub = Env(env.term_state, dict(env.binding), env.tables, env.objects, rels)

        def advance(current):
            rels[rel] = current
            return frozenset(_satisfying(body, sub, names))
        status, stages = _stages(frozenset(), advance, frozenset)
        # with no fixed point, the operator denotes the empty relation
        return args(env) in stages[-1] and status == "fixed"
    return pfp


def _satisfying(plan, env: Env, names: tuple[str, ...]):
    """Each tuple over env.objects, in product order, for which plan holds
    with names bound to it in env.binding.  All names but the last are
    bound once per prefix, and the last once per object."""
    if not names:
        if plan(env):
            yield ()
        return
    binding, objects = env.binding, env.objects
    *outer, last = names
    for head in itertools.product(objects, repeat=len(outer)):
        binding.update(zip(outer, head))
        for obj in objects:
            binding[last] = obj
            if plan(env):
                yield (*head, obj)


# -- stage iteration ---------------------------------------------------------------------


def stage_bodies(program: Program) -> list[UpdateFormula]:
    """One induction body per dynamic name, from its update formula.

    The next stage relates xs to y != 0 when upd(xs, y) holds, or when
    f(xs) = y already and no update to f(xs) fires.  The body reads its
    dynamic atoms from the tables it is evaluated against, so in the
    induction it reads the previous stage.
    """
    out = []
    for fname, _arity, _rel in program.signature.dynamics:
        upd = update_formula(program, fname)
        xs, y = upd.arg_vars, upd.val_var
        # the old entry survives when no update to xs fires: where upd(xs, y)
        # fails, "upd(xs, z) for some z != y" is just "upd(xs, z) for some z"
        keep = mk_and([
            DynEq(fname, tuple(Variable(x) for x in xs), Variable(y)),
            mk_not(mk_exists(y, upd.formula)),
        ])
        body = mk_and([
            mk_not(TermEq(Variable(y), FALSE_TERM)),
            mk_or([upd.formula, keep]),
        ])
        out.append(UpdateFormula(fname, xs, y, body))
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
    bodies = [(sb, _plan(sb.formula, _Shape(frozenset(sb.arg_vars + (sb.val_var,)), frozenset())))
              for sb in stage_bodies(program)]

    def advance(tables):
        new: dict[str, dict] = {}
        for sb, plan in bodies:
            tbl: dict = {}
            env = Env(term_state, {}, tables, objects)
            for row in _satisfying(plan, env, sb.arg_vars + (sb.val_var,)):
                args, y = row[:-1], row[-1]
                if args in tbl:
                    raise FormulaError(
                        f"stage body for {sb.name!r} related one location to two values")
                tbl[args] = y
            new[sb.name] = tbl
        return new
    status, stages = _stages({n: {} for n in sig.dynamic_names()}, advance, tables_key, max_stages)
    tables = stages[-1] if status == "fixed" else {n: {} for n in sig.dynamic_names()}
    return StageResult(status, stages, tables)


def decide(
    machine: PSpaceMachine,
    inp: InputStructure,
    max_stages: int = 10_000,
) -> tuple[str, StageResult, RunTrace]:
    """A run of at most max_stages steps, then the induction over its
    active objects.

    A run cut off at its space bound or at the step limit leaves the
    induction a truncated domain, so its verdict is unknown whatever the
    stages reach.
    """
    trace = run(machine, inp, max_stages)
    universe = trace.final_state.universe
    objects = sorted(trace.active_union())
    result = iterate_stages(machine.program, inp, objects, universe, max_stages)
    if trace.outcome in (RunOutcome.SPACE_EXCEEDED, RunOutcome.STEP_LIMIT):
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
