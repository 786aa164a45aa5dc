"""The package's form_of and form_apply against their definitions.

`tests/forms.py` decomposes and applies forms one object at a time,
with no memo and no rows.  The package keeps both, per universe, so
each board is checked in four states of those tables: a cold universe,
the universe `build_fragment` made, a universe whose rows another
board's forms filled first, and the universe `parse_fragment` reads
back from `export_text`.
"""

import itertools
import random

import pytest

import forms
from cpspace.hf import Universe
from cpspace.symmetry import (
    SymmetryError,
    build_fragment,
    conf,
    form_apply,
    form_of,
    make_config,
    parse_fragment,
)

# every cell with n <= 4, k <= 2 and r <= 2 of at most a few thousand
# objects, and (3, 1, 2), its 48,131 objects sampled.  (4, 1, 2) has
# 64,004 objects; (3, 2, 2) and (4, 2, 2) exceed the default budget.
CELLS = [
    (n, k, r)
    for n, k, r in itertools.product(range(5), range(3), range(3))
    if (n, k, r) not in {(4, 1, 2), (3, 2, 2), (4, 2, 2)}
]
SAMPLED = {(3, 1, 2)}
SAMPLE = 120


def outcome(call, *args):
    """The value of call(*args), or the error it raises, to compare."""
    try:
        return call(*args)
    except SymmetryError as err:
        return (type(err).__name__, str(err))


def board(n, k, r):
    frag = build_fragment(n, k, r)
    objects = list(frag.objects)
    if (n, k, r) in SAMPLED:
        objects = random.Random(n * 100 + k * 10 + r).sample(objects, SAMPLE)
    return frag, objects


def check(u, objects, k):
    """form_of of each object, then form_apply of its form at its own
    molecule and at every other k-molecule, against the definitions.
    The package goes over all objects first, so its tables fill in its
    own order."""
    got = [outcome(form_of, u, x, k) for x in objects]
    for x, decomposed in zip(objects, got):
        assert decomposed == outcome(forms.form_of, u, x, k), u.format_literal(x)
    molecules = list(itertools.permutations(range(u.n_atoms), k))
    for x, decomposed in zip(objects, got):
        if isinstance(decomposed[0], str):
            continue
        phi, sigma = decomposed
        assert form_apply(u, phi, sigma) == x
        for tau in molecules:
            assert form_apply(u, phi, tau) == forms.form_apply(u, phi, tau)


def copy_objects(u, frag, objects):
    return [u.parse_literal(frag.universe.format_literal(x)) for x in objects]


@pytest.mark.parametrize("n,k,r", CELLS)
def test_cold_universe(n, k, r):
    # a fresh universe with no support records and no memos; parents
    # first, so the package decomposes members on its own stack
    frag, objects = board(n, k, r)
    u = Universe(n)
    check(u, copy_objects(u, frag, objects)[::-1], k)


@pytest.mark.parametrize("n,k,r", CELLS)
def test_after_build_fragment(n, k, r):
    frag, objects = board(n, k, r)
    check(frag.universe, objects, k)


@pytest.mark.parametrize("n,k,r", [c for c in CELLS if c[0] >= 1])
def test_rows_filled_by_the_other_board(n, k, r):
    # the board over one atom fewer decomposes its objects, and its forms
    # are applied here first, at its own molecules, which are molecules
    # of this universe too
    other, other_objects = board(n - 1, k, r)
    frag, objects = board(n, k, r)
    for x in other_objects:
        decomposed = outcome(form_of, other.universe, x, k)
        if not isinstance(decomposed[0], str):
            form_apply(frag.universe, *decomposed)
    check(frag.universe, objects, k)


@pytest.mark.parametrize("n,k,r", CELLS)
def test_parsed_fragment(n, k, r):
    frag, objects = board(n, k, r)
    parsed = parse_fragment(frag.export_text())
    u = parsed.universe
    check(u, copy_objects(u, frag, objects), k)


def test_make_config_and_conf_give_one_object():
    crossed = conf(((0, 1), (2, 0)))
    assert make_config(2, 2, [[(1, 1), (0, 0)], [(0, 1)], [(1, 0)]]) is crossed
