"""Forms by their definitions, for differential tests.

An atom decomposes as a leaf at its own position in the molecule of its
own support.  A set decomposes over its molecule, its first support
(`_first_support`) in atom order padded with the smallest atoms outside
it, as the node of its members' pairs: each member's form with the
configuration of the member's molecule against the set's.  A form
applied at a molecule sigma is, for a leaf, the atom of sigma at its
position, and for a node the set of each child applied at every
molecule tau with conf((tau, sigma)) equal to the pair's configuration.

`form_of` and `form_apply` spell that out one object at a time: no
memo, no rows, each set built element by element with `conf` and
`mk_node` or `Universe.mk_set`.  They are the definitions
`symmetry.form_of` and `symmetry.form_apply` must agree with.  Both
recurse once per rank level, so they suit the shallow objects of the
differential tests.
"""

import itertools

from cpspace.symmetry import (
    Leaf,
    NotKSymmetric,
    _first_support,
    conf,
    mk_node,
    padded_molecule,
)


def form_of(u, x, k):
    """(form, molecule) of x, with no memo."""
    if u.is_atom(x):
        if k < 1:
            raise NotKSymmetric(x, k)
        a = u.atom_index(x)
        sigma = padded_molecule(u, (a,), k)
        return Leaf(sigma.index(a)), sigma
    support = _first_support(u, x, min(k, u.n_atoms))
    if support is None:
        raise NotKSymmetric(x, k)
    sigma = padded_molecule(u, support, k)
    pairs = []
    for e in u.elements(x):
        phi, tau = form_of(u, e, k)
        pairs.append((phi, conf((tau, sigma))))
    return mk_node(pairs), sigma


def form_apply(u, phi, sigma):
    """The object phi denotes at the molecule sigma, with no memo."""
    if isinstance(phi, Leaf):
        return u.atom(sigma[phi.pos])
    elems = []
    for child, config in phi.pairs:
        for tau in itertools.permutations(range(u.n_atoms), len(sigma)):
            if conf((tau, sigma)) is config:
                elems.append(form_apply(u, child, tau))
    return u.mk_set(elems)
