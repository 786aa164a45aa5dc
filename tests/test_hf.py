"""Universe interning, rank, transitive closure, permutation action."""

import functools
import itertools
import random

import pytest
from canon import assert_canonical, reference_keys
from hypothesis import given, settings
from hypothesis import strategies as st
from relabel import relabel

from cpspace.hf import (
    HFError,
    Universe,
    all_perms,
    compose,
    invert,
    transposition,
    transpositions,
)
from cpspace.symmetry import build_fragment, bulk_images, is_support

# Deeper than the default recursion limit of 1000.
DEEP = 1500


def build_random_object(u, rng, depth):
    """A random object of rank <= depth, mixing atoms and small sets."""
    if depth == 0 or (u.n_atoms and rng.random() < 0.3):
        if u.n_atoms and rng.random() < 0.6:
            return u.atom(rng.randrange(u.n_atoms))
        return u.empty
    k = rng.randrange(0, 4)
    return u.mk_set(build_random_object(u, rng, depth - 1) for _ in range(k))


def chain(u, x, depth):
    """x wrapped in `depth` pairs of braces, with every level on the way."""
    levels = [x]
    for _ in range(depth):
        levels.append(u.mk_set([levels[-1]]))
    return levels


def count_calls(monkeypatch, u, name):
    """Record each call of u's method `name`, which still runs."""
    calls = []
    real = getattr(u, name)
    monkeypatch.setattr(u, name, lambda *args: calls.append(args) or real(*args))
    return calls


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
            if not u.is_atom(x) and u.elements(x):
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
            assert u.apply_perm(tuple(range(4)), x) == x
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

    def test_wrong_length_rejected(self):
        u = Universe(3)
        with pytest.raises(HFError):
            u.apply_perm((1, 0), u.atom(0))

    def test_non_permutation_rejected(self):
        # a repeated image would relabel two atoms as one
        u = Universe(3)
        x = u.mk_set([u.atom(0), u.atom(1)])
        for p in [(0, 0, 1), (1, 1, 1), (0, 1, 3), (0, 1, -1)]:
            with pytest.raises(HFError):
                u.apply_perm(p, x)
            with pytest.raises(HFError):
                transpositions(p)

    @pytest.mark.parametrize("n", range(7))
    def test_transpositions_compose_to_the_permutation(self, n):
        assert transpositions(tuple(range(n))) == []
        for p in all_perms(n):
            factors = transpositions(p)
            assert len(factors) <= max(n - 1, 0)
            assert all(0 <= a < b < n for a, b in factors)
            ts = [transposition(n, a, b) for a, b in factors]
            assert functools.reduce(compose, ts, tuple(range(n))) == p

    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_relabel(self, n):
        # random objects of rank <= 3 under every permutation, against the
        # definition in tests/relabel.py
        u = Universe(n)
        rng = random.Random(n)
        objs = [build_random_object(u, rng, 3) for _ in range(30)]
        for p in all_perms(n):
            want = relabel(u, p, objs)
            assert {x: u.apply_perm(p, x) for x in objs} == want, p
            assert bulk_images(u, p, objs) == want, p

    def test_swap_maps_stay_bounded_and_iterative(self):
        # every permutation of 6 atoms leaves at most one map per pair of
        # atoms, each with at most one entry per object
        u = Universe(6)
        rng = random.Random(6)
        x = u.mk_set(build_random_object(u, rng, 3) for _ in range(8))
        for p in all_perms(6):
            u.apply_perm(p, x)
        maps = [m for key, m in u.caches.items() if key[0] == "swap"]
        assert 0 < len(maps) <= 15
        assert max(map(len, maps)) <= u.size()
        # a chain deeper than the recursion limit
        top = chain(u, u.atom(0), DEEP)[-1]
        assert u.apply_perm((1, 0, 2, 3, 4, 5), top) == chain(u, u.atom(1), DEEP)[-1]
        assert is_support(u, (0,), top)
        assert not is_support(u, (1,), top)


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


class TestDeepObjects:
    """A chain of DEEP levels on a cold Universe(3): nothing is known
    about the chain before the call, so each call walks every level."""

    def test_rank(self):
        u = Universe(3)
        assert u.rank(chain(u, u.atom(0), DEEP)[-1]) == DEEP

    def test_tc(self):
        u = Universe(3)
        levels = chain(u, u.atom(0), DEEP)
        assert u.tc(levels[-1]) == tuple(levels)

    def test_apply_perm(self):
        u = Universe(3)
        top = chain(u, u.atom(0), DEEP)[-1]
        image = u.apply_perm(transposition(3, 0, 1), top)
        assert image == chain(u, u.atom(1), DEEP)[-1]

    def test_format_literal(self):
        u = Universe(3)
        top = chain(u, u.atom(0), DEEP)[-1]
        assert u.format_literal(top) == "{" * DEEP + "a0" + "}" * DEEP

    def test_parse_literal(self):
        u = Universe(3)
        x = u.parse_literal("{" * DEEP + "0" + "}" * DEEP)
        assert u.rank(x) == DEEP
        assert x == chain(u, u.empty, DEEP)[-1]

    def test_sort(self):
        u = Universe(3)
        levels = chain(u, u.empty, DEEP)
        assert sorted(reversed(levels), key=u.sort_key) == levels


class TestCanonicalOrder:
    """Order labels against the nested-tuple definition in tests/canon.py."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings(self, seed):
        # interning one set or a burst of them, sorting samples and taking
        # closures, in random order; sets nest freshly interned ones
        rng = random.Random(seed)
        u = Universe(rng.randrange(4))
        pool = list(u.atoms()) + [u.empty, u.one]
        for _ in range(300):
            roll = rng.random()
            if roll < 0.7:
                for _ in range(rng.choice((1, 1, 1, 5, 40))):
                    size = min(len(pool), rng.randrange(4))
                    pool.append(u.mk_set(rng.sample(pool, size)))
            elif roll < 0.85:
                sample = rng.sample(pool, min(len(pool), 12))
                keys = reference_keys(u)
                assert sorted(sample, key=u.sort_key) == sorted(sample, key=keys.__getitem__)
            else:
                closure = u.tc(rng.choice(pool))
                keys = reference_keys(u)
                assert list(closure) == sorted(closure, key=keys.__getitem__)
        assert_canonical(u)

    def test_batch_settle(self, monkeypatch):
        # many new sets of labelled children are sorted and merged at once
        u = Universe(3)
        base = [u.mk_set(s) for size in range(4) for s in itertools.combinations(u.atoms(), size)]
        u.sort_key(u.empty)
        relabels = count_calls(monkeypatch, u, "_relabel")
        for a, b in itertools.combinations(base, 2):
            u.mk_set([a, b, u.one])
        u.sort_key(u.empty)
        assert len(relabels) == 1
        assert_canonical(u)

    def test_single_inserts(self, monkeypatch):
        # a few new sets among many labelled ones each take a free label
        u = Universe(3)
        base = [u.mk_set(s) for size in range(4) for s in itertools.combinations(u.atoms(), size)]
        wide = [u.mk_set([a, b]) for a, b in itertools.combinations(base, 2)]
        u.sort_key(u.empty)
        relabels = count_calls(monkeypatch, u, "_relabel")
        rng = random.Random(3)
        for _ in range(5):
            x = u.mk_set(rng.sample(wide, 3))
            u.sort_key(x)
        assert not relabels
        assert_canonical(u)

    def test_running_out_of_gap_relabels(self, monkeypatch):
        # {a0, c} grows with c along the chain 0, {0}, {{0}}, ...; interning
        # those sets from the top of the chain down places each one just
        # below the last, halving the free gap every time
        u = Universe(1)
        levels = chain(u, u.empty, 40)
        u.sort_key(u.empty)
        relabels = count_calls(monkeypatch, u, "_relabel")
        for c in reversed(levels):
            u.sort_key(u.mk_set([u.atom(0), c]))
        assert relabels
        assert_canonical(u)

    def test_sort_starting_on_labelled_objects(self):
        # the first keys are read off labelled objects; the pending ones
        # behind them relabel every set, so all keys must be read after that
        u = Universe(3)
        base = [u.mk_set(s) for size in range(4) for s in itertools.combinations(u.atoms(), size)]
        u.sort_key(u.empty)
        fresh = [u.mk_set([a, b]) for a in u.atoms() for b in base]  # {a, b} sits among base
        objs = base + fresh
        keys = reference_keys(u)
        assert sorted(objs, key=u.sort_key) == sorted(objs, key=keys.__getitem__)

    @pytest.mark.parametrize("n,k,r", [(2, 1, 2), (3, 1, 1), (4, 1, 1)])
    def test_fragment_object_order(self, n, k, r):
        frag = build_fragment(n, k, r)
        u = frag.universe
        keys = reference_keys(u)
        assert list(frag.objects) == sorted(frag.objects, key=keys.__getitem__)
        for x in frag.objects:
            assert list(u.tc(x)) == sorted(u.tc(x), key=keys.__getitem__)
        assert_canonical(u)
