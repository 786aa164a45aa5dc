"""Seeded (rule, state, binding) triples for the induction workload.

Rules come from a small weighted grammar over one fixed signature: a
binary input relation E, two nullary registers c and d, a relational
unary register m and a plain unary register g.  Every rule may mention
the free variables p and q, which the binding supplies.  No dynamic
name occurs below a comprehension, the one restriction that
update-formula extraction imposes.  States live over one to four atoms
and hold objects of depth at most two, so each triple is cheap on its
own and a round holds a few hundred of them.

The triples come from a fixed corpus and the seed renames their atoms,
so a seed fixes the triples and every seed gives a round of the same
cost; `triples` says why.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from cpspace.machine import initial_state, is_consistent, make_input, update_set
from cpspace.syntax import (
    Apply,
    Assign,
    Comprehension,
    Forall,
    If,
    Program,
    Skip,
    Variable,
    numeral,
    parse_program,
    set_display,
)

SIGNATURE_TEXT = """\
signature:
  input E/2
  dynamic c/0
  dynamic d/0
  dynamic m/1 relational
  dynamic g/1

rule:
skip
"""

CORPUS_SEED = 20240129
FREE_VARS = ("p", "q")
BINDERS = ("u", "v", "w", "z")
CONSTANTS = ("true", "false", "emptyset", "Atoms")
OPERATIONS = {"E": 2, "Pair": 2, "Union": 1, "TheUnique": 1, "not": 1,
              "and": 2, "or": 2, "=": 2, "in": 2}


@dataclass
class Triple:
    """One probe set: the rule's update formulas are evaluated at every
    (name, args, value) in `probes`; `delta` and `consistent` are the
    interpreter's answer, computed when the triple is generated."""

    program: Program
    state: object
    binding: dict
    probes: list
    delta: frozenset
    consistent: bool


def _term(rng, scope, depth, dynamic):
    kinds = ["constant", "constant"]
    if scope:
        kinds += ["variable"] * 3
    if dynamic:
        kinds.append("register")
    if depth > 0:
        kinds += ["operation"] * 3 + ["display"]
        if dynamic:
            kinds.append("lookup")
        if depth > 1:
            kinds.append("comprehension")
    kind = rng.choice(kinds)
    if kind == "constant":
        return Apply(rng.choice(CONSTANTS))
    if kind == "variable":
        return Variable(rng.choice(scope))
    if kind == "register":
        return Apply(rng.choice(("c", "d")))
    if kind == "lookup":
        return Apply(rng.choice(("m", "g")), (_term(rng, scope, depth - 1, dynamic),))
    if kind == "display":
        return set_display([_term(rng, scope, depth - 1, dynamic)
                            for _ in range(rng.randint(0, 3))])
    if kind == "comprehension":
        var = next(b for b in BINDERS if b not in scope)
        inner = scope + (var,)
        return Comprehension(
            _term(rng, inner, depth - 1, False), var,
            _term(rng, scope, depth - 1, False),
            _term(rng, inner, depth - 1, False))
    name = rng.choice(sorted(OPERATIONS))
    return Apply(name, tuple(_term(rng, scope, depth - 1, dynamic)
                             for _ in range(OPERATIONS[name])))


def _assign(rng, sig, scope):
    name, arity, _rel = rng.choice(sig.dynamics)
    return Assign(name, tuple(_term(rng, scope, 1, True) for _ in range(arity)),
                  _term(rng, scope, 2, True))


def _par(branches, var):
    """A parallel block as the parser desugars it: a forall over the
    index numerals whose body dispatches on the index."""
    body = Skip()
    for j in range(len(branches), 0, -1):
        body = If(Apply("=", (Variable(var), numeral(j))), branches[j - 1], body)
    return Forall(var, set_display([numeral(j) for j in range(1, len(branches) + 1)]), body)


def _rule(rng, sig, scope, depth):
    if depth == 0:
        return _assign(rng, sig, scope) if rng.random() < 0.9 else Skip()
    kind = rng.choice(("assign", "assign", "assign", "if", "forall", "par", "skip"))
    if kind == "skip":
        return Skip()
    if kind == "assign":
        return _assign(rng, sig, scope)
    if kind == "if":
        other = _rule(rng, sig, scope, depth - 1) if rng.random() < 0.5 else Skip()
        return If(_term(rng, scope, 2, True), _rule(rng, sig, scope, depth - 1), other)
    var = next(b for b in BINDERS if b not in scope)
    if kind == "par":
        return _par([_rule(rng, sig, scope, depth - 1)
                     for _ in range(rng.randint(2, 3))], var)
    source = Apply("Atoms") if rng.random() < 0.7 else _term(rng, scope, 1, True)
    return Forall(var, source, _rule(rng, sig, scope + (var,), depth - 1))


def _object(u, rng, depth, atoms):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice((u.empty, u.one) + atoms)
    return u.mk_set([_object(u, rng, depth - 1, atoms) for _ in range(rng.randint(0, 3))])


def triples(seed: int, count: int) -> list[Triple]:
    """The first `count` triples of the fixed corpus, each with its atoms
    renamed by a permutation drawn from `seed`, its probes and the
    interpreter's update set.

    The cost of a random triple is heavy-tailed: the slowest 1% of rules
    take 60% of the time, and a rule's cost also swings with its data.
    Drawing rules or data from the seed would make a round's work depend
    on the seed more than on the program.  Renaming atoms changes every
    object and answer while the semantics, and so the work, commute with
    it."""
    corpus = random.Random(CORPUS_SEED)
    rename = random.Random(seed)
    sig = parse_program(SIGNATURE_TEXT).signature
    out = []
    for _ in range(count):
        program = Program(sig, _rule(corpus, sig, FREE_VARS, 3))
        n = corpus.randint(1, 4)
        perm = rename.sample(range(n), n)
        atoms = tuple(perm)  # atom i of the corpus triple is atom perm[i] here
        edges = {(perm[corpus.randrange(n)], perm[corpus.randrange(n)])
                 for _ in range(corpus.randint(0, n * n))}
        state = initial_state(program, make_input(n, {"E": edges}))
        u = state.universe
        for name, arity, rel in sig.dynamics:
            for _ in range(corpus.randint(0, 4)):
                args = tuple(_object(u, corpus, 1, atoms) for _ in range(arity))
                value = corpus.choice((u.empty, u.one)) if rel else _object(u, corpus, 2, atoms)
                if value != u.empty:
                    state.tables[name][args] = value
        binding = {v: _object(u, corpus, 2, atoms) for v in FREE_VARS}
        delta = update_set(state, program.rule, dict(binding))
        pool = atoms[:2] + (u.empty, u.one)
        probes = sorted(set(delta))
        for name, arity, _rel in sig.dynamics:
            probes.extend((name, args, value)
                          for args in itertools.product(pool, repeat=arity)
                          for value in pool)
        out.append(Triple(program, state, binding, probes, delta, is_consistent(delta)))
    return out
