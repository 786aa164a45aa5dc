"""Recursive readings of the syntax-tree walks, for differential tests.

Each function spells out its recursion per node kind, with no shared
walker: it is the definition `syntax.nodes` and the helpers built on it
must agree with.
"""

from cpspace.syntax import Apply, Assign, Comprehension, Forall, If, Skip, Variable


def preorder(node) -> list:
    """Every term and rule under node, node first, children in field order."""
    out = [node]
    if isinstance(node, Apply):
        for a in node.args:
            out += preorder(a)
    elif isinstance(node, Comprehension):
        out += preorder(node.head) + preorder(node.source) + preorder(node.guard)
    elif isinstance(node, Assign):
        for a in node.args:
            out += preorder(a)
        out += preorder(node.value)
    elif isinstance(node, If):
        out += preorder(node.cond) + preorder(node.then_rule) + preorder(node.else_rule)
    elif isinstance(node, Forall):
        out += preorder(node.source) + preorder(node.body)
    elif not isinstance(node, (Variable, Skip)):
        raise TypeError(f"not a term or rule: {node!r}")
    return out


def contains_dynamic(term, sig) -> bool:
    """Whether a dynamic name is applied anywhere in the term."""
    if isinstance(term, Variable):
        return False
    if isinstance(term, Apply):
        return sig.is_dynamic(term.name) or any(contains_dynamic(a, sig) for a in term.args)
    if isinstance(term, Comprehension):
        return (contains_dynamic(term.head, sig) or contains_dynamic(term.source, sig)
                or contains_dynamic(term.guard, sig))
    raise TypeError(f"not a term: {term!r}")


def variable_names(node) -> set[str]:
    """Every variable of the term or rule, and every name a binder binds."""
    if isinstance(node, Variable):
        return {node.name}
    if isinstance(node, Apply):
        return set().union(*map(variable_names, node.args))
    if isinstance(node, Comprehension):
        return ({node.var} | variable_names(node.head) | variable_names(node.source)
                | variable_names(node.guard))
    if isinstance(node, Skip):
        return set()
    if isinstance(node, Assign):
        return set().union(variable_names(node.value), *map(variable_names, node.args))
    if isinstance(node, If):
        return (variable_names(node.cond) | variable_names(node.then_rule)
                | variable_names(node.else_rule))
    if isinstance(node, Forall):
        return {node.var} | variable_names(node.source) | variable_names(node.body)
    raise TypeError(f"not a term or rule: {node!r}")
