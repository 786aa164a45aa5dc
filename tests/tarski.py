"""A brute-force Tarskian reading of pfp formulas, for differential tests.

Every quantifier and every stage of a fixed-point operator ranges over an
explicit object list: nothing is guarded, spliced or compiled.  Terms are
read with `machine.eval_term`; dynamic atoms read one table mapping, the
given tables or else the state's own; row atoms read only the relations
being iterated; and a fixed-point operator whose stages never repeat a
fixed point denotes the empty relation.  It is slow by design: it is the
definition `pfp.eval_formula` must agree with.
"""

import itertools

from cpspace.machine import eval_term
from cpspace.pfp import (
    And,
    DynEq,
    Exists,
    FalseF,
    Member,
    Not,
    Or,
    PFPOp,
    ResAtom,
    TermEq,
    TrueF,
)


def holds(phi, state, binding, objects, tables=None, rels=None) -> bool:
    """Whether phi holds under binding, every quantifier over objects."""
    u = state.universe
    tables = state.tables if tables is None else tables

    def val(t, b):
        return eval_term(state, t, b)

    def ev(phi, b, rels):
        if isinstance(phi, TrueF):
            return True
        if isinstance(phi, FalseF):
            return False
        if isinstance(phi, Not):
            return not ev(phi.body, b, rels)
        if isinstance(phi, And):
            return all(ev(p, b, rels) for p in phi.parts)
        if isinstance(phi, Or):
            return any(ev(p, b, rels) for p in phi.parts)
        if isinstance(phi, TermEq):
            return val(phi.left, b) == val(phi.right, b)
        if isinstance(phi, Member):
            return u.contains(val(phi.container, b), val(phi.elem, b))
        if isinstance(phi, DynEq):
            args = tuple(val(a, b) for a in phi.args)
            return tables[phi.name].get(args, u.empty) == val(phi.value, b)
        if isinstance(phi, ResAtom):
            return tuple(val(a, b) for a in phi.args) in rels[phi.name]
        if isinstance(phi, Exists):
            return any(ev(phi.body, {**b, phi.var: o}, rels) for o in objects)
        if isinstance(phi, PFPOp):
            current, seen = frozenset(), set()
            while True:
                seen.add(current)
                stage = {**rels, phi.rel: current}
                new = frozenset(
                    tup for tup in itertools.product(objects, repeat=len(phi.vars))
                    if ev(phi.body, {**b, **dict(zip(phi.vars, tup))}, stage))
                if new == current:
                    break
                if new in seen:
                    new = frozenset()
                    break
                current = new
            return tuple(val(a, b) for a in phi.args) in new
        raise TypeError(f"not a formula: {phi!r}")

    return ev(phi, dict(binding), dict(rels or {}))
