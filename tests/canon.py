"""The canonical object order by its definition, for differential tests.

Atoms come first, by index; sets follow, compared lexicographically by
their sorted child sequences, a prefix first.  The nested tuples built
here spell that out: (0, i) for atom i and (1, sorted child keys) for a
set.  Comparing two of them costs time in the rank of the objects,
which is what `Universe.sort_key` avoids; it is the definition the
order labels must agree with.
"""


def reference_keys(u) -> list:
    """The nested-tuple key of every object interned in u, by handle.

    Children are interned before their parents, so one pass in handle
    order sees every child's key before the set that holds it.  The
    child keys are sorted here, not taken in the universe's own order.
    """
    keys: list = []
    for x in range(u.size()):
        if u.is_atom(x):
            keys.append((0, u.atom_index(x)))
        else:
            keys.append((1, tuple(sorted(keys[c] for c in u.elements(x)))))
    return keys


def assert_canonical(u) -> None:
    """Every child sequence and the order of all objects match the keys."""
    keys = reference_keys(u)
    for x in range(u.size()):
        kids = list(u.elements(x))
        assert kids == sorted(kids, key=keys.__getitem__), x
    handles = list(range(u.size()))
    assert sorted(handles, key=u.sort_key) == sorted(handles, key=keys.__getitem__)
