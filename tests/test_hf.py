"""Universe interning, rank, transitive closure, permutation action."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpspace.hf import (
    HFError,
    Universe,
    all_perms,
    compose,
    identity_perm,
    invert,
    transposition,
)


def build_random_object(u, rng, depth):
    """A random object of rank <= depth, mixing atoms and small sets."""
    if depth == 0 or (u.n_atoms and rng.random() < 0.3):
        if u.n_atoms and rng.random() < 0.6:
            return u.atom(rng.randrange(u.n_atoms))
        return u.empty
    k = rng.randrange(0, 4)
    return u.mk_set(build_random_object(u, rng, depth - 1) for _ in range(k))


def naive_frozen(u, x):
    """Reference representation: nested frozensets, no interning."""
    if u.is_atom(x):
        return ("atom", u.atom_index(x))
    return frozenset(naive_frozen(u, c) for c in u.elements(x))


class TestInterning:
    def test_empty_and_one_are_pinned(self):
        u = Universe(2)
        assert u.mk_set(()) == u.empty
        assert u.mk_set([u.empty]) == u.one
        assert u.format_literal(u.empty) == "0"
        assert u.format_literal(u.one) == "1"

    def test_duplicates_collapse(self):
        u = Universe(2)
        assert u.mk_set([u.empty, u.empty]) == u.one
        a = u.atom(0)
        assert u.mk_set([a, a, u.empty]) == u.mk_set([u.empty, a])

    def test_handle_equality_matches_structural_equality(self):
        # interning soundness against the naive nested-frozenset oracle
        u = Universe(5)
        rng = random.Random(20240817)
        objs = [build_random_object(u, rng, 3) for _ in range(400)]
        for x in objs:
            for y in objs:
                assert (x == y) == (naive_frozen(u, x) == naive_frozen(u, y))

    def test_atom_handles_are_indices(self):
        u = Universe(4)
        for i in range(4):
            assert u.atom(i) == i
            assert u.atom_index(i) == i

    def test_canonical_child_order(self):
        u = Universe(3)
        s = u.mk_set([u.one, u.atom(2), u.empty, u.atom(0)])
        assert [u.format_literal(c) for c in u.elements(s)] == ["a0", "a2", "0", "1"]

    def test_atoms_set_is_interned_once_on_first_use(self):
        u = Universe(3)
        size = u.size()  # nothing is interned ahead of use, so handles keep their order
        real, calls = u.mk_set, []
        u.mk_set = lambda elems: calls.append(elems) or real(elems)
        x = u.atoms_set()
        assert u.atoms_set() == x
        assert len(calls) == 1 and u.size() == size + 1
        assert x == real(u.atoms())
        assert [u.format_literal(c) for c in u.elements(x)] == ["a0", "a1", "a2"]

    def test_foreign_atom_rejected(self):
        u = Universe(2)
        with pytest.raises(HFError):
            u.atom(2)


class TestRank:
    def test_base_cases(self):
        u = Universe(2)
        assert u.rank(u.empty) == 0
        assert u.rank(u.atom(0)) == 0

    def test_nested(self):
        u = Universe(2)
        assert u.rank(u.one) == 1
        assert u.rank(u.mk_set([u.one])) == 2
        assert u.rank(u.mk_set([u.atom(0), u.one])) == 2

    def test_rank_is_smallest_ordinal_above_elements(self):
        u = Universe(4)
        rng = random.Random(7)
        for _ in range(200):
            x = build_random_object(u, rng, 3)
            if u.is_set(x) and u.elements(x):
                assert u.rank(x) == 1 + max(u.rank(c) for c in u.elements(x))


class TestTransitiveClosure:
    def test_includes_self(self):
        u = Universe(2)
        assert u.tc(u.atom(0)) == (u.atom(0),)
        assert u.tc(u.empty) == (u.empty,)

    def test_hand_example(self):
        u = Universe(3)
        x = u.mk_set([u.atom(0), u.mk_set([u.atom(1)])])
        got = {u.format_literal(t) for t in u.tc(x)}
        assert got == {"a0", "a1", "{a1}", "{a0, {a1}}"}

    def test_transitivity(self):
        u = Universe(4)
        rng = random.Random(99)
        for _ in range(100):
            x = build_random_object(u, rng, 3)
            closure = set(u.tc(x))
            for y in closure:
                for c in u.elements(y):
                    assert c in closure


class TestPermutations:
    def test_atom_relabelling_extends_structurally(self):
        u = Universe(3)
        x = u.mk_set([u.atom(0), u.mk_set([u.atom(0), u.atom(2)])])
        y = u.apply_perm(transposition(3, 0, 1), x)
        assert u.format_literal(y) == "{a1, {a1, a2}}"

    def test_identity_and_inverse(self):
        u = Universe(4)
        rng = random.Random(3)
        perms = list(all_perms(4))
        for _ in range(50):
            x = build_random_object(u, rng, 3)
            assert u.apply_perm(identity_perm(4), x) == x
            p = perms[rng.randrange(len(perms))]
            assert u.apply_perm(invert(p), u.apply_perm(p, x)) == x

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_composition(self, data):
        u = Universe(4)
        perms = list(all_perms(4))
        p = data.draw(st.sampled_from(perms))
        q = data.draw(st.sampled_from(perms))
        rng = random.Random(data.draw(st.integers(0, 2**20)))
        x = build_random_object(u, rng, 2)
        assert u.apply_perm(compose(p, q), x) == u.apply_perm(p, u.apply_perm(q, x))

    def test_preserves_rank_and_tc_size(self):
        u = Universe(4)
        rng = random.Random(11)
        for p in all_perms(4):
            for _ in range(5):
                x = build_random_object(u, rng, 3)
                y = u.apply_perm(p, x)
                assert u.rank(x) == u.rank(y)
                assert len(u.tc(x)) == len(u.tc(y))


class TestLiterals:
    def test_round_trip(self):
        u = Universe(4)
        rng = random.Random(5)
        for _ in range(200):
            x = build_random_object(u, rng, 3)
            assert u.parse_literal(u.format_literal(x)) == x

    def test_sugar(self):
        u = Universe(1)
        assert u.parse_literal("0") == u.empty
        assert u.parse_literal("1") == u.one
        assert u.parse_literal("{}") == u.empty
        assert u.parse_literal("{{}}") == u.one
        assert u.parse_literal(" { a0 , 0 } ") == u.mk_set([u.atom(0), u.empty])

    def test_bad_literals(self):
        u = Universe(1)
        for text in ["", "a", "{a0", "a0}", "{a0,,a0}", "2", "a7", "{a0} x"]:
            with pytest.raises(HFError):
                u.parse_literal(text)
