"""Support, configuration, form, and fragment tests."""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpspace.hf import Universe, all_perms
from cpspace.machine import make_input
from cpspace.monitor import load_machine, run
from cpspace.symmetry import (
    _CONFIGS,
    _NODES,
    _first_support,
    BudgetExceeded,
    Config,
    EMPTY_FORM,
    InputDependence,
    Leaf,
    Node,
    NoSmallSupport,
    NotEnoughAtoms,
    NotKSymmetric,
    SymmetryError,
    all_configs2,
    all_forms,
    build_fragment,
    bulk_images,
    check_support_theorem,
    conf,
    form_apply,
    form_key,
    form_of,
    form_rank,
    format_config,
    format_form,
    in_eq_relations,
    is_support,
    make_config,
    min_support,
    mk_node,
    molecules_by_config,
    padded_molecule,
    parse_form,
    parse_fragment,
    realize_config,
    resolve_budget,
    smallest_n_binomial,
    support_within,
)
from relabel import relabel
from test_hf import build_random_object

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def is_support_full_stabilizer(u, support, obj):
    """Oracle: quantify over every permutation fixing the set pointwise,
    each applied by its definition."""
    inside = set(support)
    for p in all_perms(u.n_atoms):
        if all(p[a] == a for a in inside) and relabel(u, p, [obj])[obj] != obj:
            return False
    return True


class TestSupports:
    def test_atoms_and_constants(self):
        # an atom is pinned by itself, pure sets by nothing
        u = Universe(5)
        assert min_support(u, u.atom(2)) == {2}
        assert min_support(u, u.empty) == frozenset()
        assert min_support(u, u.one) == frozenset()
        assert min_support(u, u.atoms_set()) == frozenset()

    def test_sets_of_atoms(self):
        # a subset of atoms is pinned by the smaller side of
        # its partition: permutations fixing it must preserve the split
        u = Universe(5)
        pair = u.mk_set([u.atom(0), u.atom(3)])
        assert min_support(u, pair) == {0, 3}
        coatom = u.mk_set([u.atom(a) for a in (1, 2, 3, 4)])
        assert min_support(u, coatom) == {0}
        with_empty = u.mk_set([u.atom(1), u.empty])
        assert min_support(u, with_empty) == {1}

    def test_no_small_support_at_two_atoms(self):
        # sizes below n/2 = 1 means only the empty candidate is eligible
        u = Universe(2)
        with pytest.raises(NoSmallSupport):
            min_support(u, u.atom(0))
        with pytest.raises(NoSmallSupport):
            min_support(u, u.mk_set([u.atom(1)]))

    def test_transpositions_match_full_stabilizer(self):
        # the two generators tests agree on every subset, n <= 4
        for n in (2, 3, 4):
            u = Universe(n)
            rng = random.Random(7 * n)
            objs = [build_random_object(u, rng, 3) for _ in range(25)]
            subsets = [
                s
                for size in range(n + 1)
                for s in itertools.combinations(range(n), size)
            ]
            for x in objs:
                for s in subsets:
                    assert is_support(u, s, x) == is_support_full_stabilizer(u, s, x)

    def test_intersection_of_small_supports(self):
        # two supports covering less than all atoms intersect
        # to a support, so the minimal one sits inside every small one
        u = Universe(6)
        rng = random.Random(41)
        for _ in range(40):
            x = build_random_object(u, rng, 3)
            small = [
                frozenset(s)
                for size in range(3)  # sizes < 6/2
                for s in itertools.combinations(range(6), size)
                if is_support(u, s, x)
            ]
            if not small:
                continue
            meet = frozenset.intersection(*small)
            assert is_support(u, meet, x)
            assert min_support(u, x) == meet

    def test_support_within_matches_minimum(self):
        u = Universe(5)
        rng = random.Random(13)
        for _ in range(40):
            x = build_random_object(u, rng, 2)
            try:
                smallest = min_support(u, x)
            except NoSmallSupport:
                continue
            got = support_within(u, x, 2)
            if len(smallest) <= 2:
                assert got == smallest
        pair = u.mk_set([u.atom(0), u.atom(1)])
        assert support_within(u, pair, 1) is None

    def test_supports_are_superset_closed(self):
        u = Universe(4)
        rng = random.Random(3)
        for _ in range(30):
            x = build_random_object(u, rng, 3)
            for size in range(5):
                for s in itertools.combinations(range(4), size):
                    if is_support(u, s, x):
                        assert is_support(u, set(s) | {(s[0] + 1) % 4 if s else 0}, x)


class TestSupportTheorem:
    def test_per_atom_tables_stay_narrow(self):
        # mark_all touches atoms and the two constants only
        machine = fixture_machine("mark_all.machine")
        trace = run(machine, make_input(5))
        report = check_support_theorem(trace, 1)
        assert report.ok
        assert report.binomial_ok  # C(5,2) = 10 > 5
        assert all(s is not None and len(s) <= 1 for s in report.supports.values())

    def test_binomial_hypothesis_flag(self):
        machine = fixture_machine("mark_all.machine")
        trace = run(machine, make_input(3))
        report = check_support_theorem(trace, 1)
        assert not report.binomial_ok  # C(3,2) = 3 is not > 3
        assert "hypothesis not met" in report.lines()[1]

    def test_wide_values_are_reported_not_raised(self):
        # the stored value pulls every atom pair into the
        # active set, and a pair needs both of its atoms
        machine = fixture_machine("pairs.machine")
        trace = run(machine, make_input(5))
        report = check_support_theorem(trace, 1)
        assert not report.ok
        assert any(size == 2 for _, size in report.violations)
        wide = check_support_theorem(trace, 2)
        assert wide.ok

    def test_report_lines_are_deterministic(self):
        machine = fixture_machine("mark_all.machine")
        trace = run(machine, make_input(4))
        a = check_support_theorem(trace, 1).lines()
        b = check_support_theorem(trace, 1).lines()
        assert a == b
        assert a[0].startswith("support-theorem n=4 k=1")
        assert a[-1] == "violations: none"

    def test_smallest_n_scan(self):
        # C(4,2) = 6 > 4; C(9,3) = 84 > 81; C(30,4) = 27405 > 27000
        assert smallest_n_binomial(1) == 4
        assert smallest_n_binomial(2) == 9
        assert smallest_n_binomial(3) == 30
        with pytest.raises(SymmetryError):
            smallest_n_binomial(3, limit=10)


def fixture_machine(name):
    return load_machine(FIXTURES / name)


class TestConfigurations:
    def test_conf_of_molecule_pairs(self):
        # equal molecules give the diagonal, disjoint ones split
        diag = conf(((0, 1), (0, 1)))
        assert diag.blocks == (((0, 0), (1, 0)), ((0, 1), (1, 1)))
        split = conf(((0,), (1,)))
        assert split.blocks == (((0, 0),), ((1, 0),))
        crossed = conf(((0, 1), (1, 0)))
        assert crossed.blocks == (((0, 0), (1, 1)), ((0, 1), (1, 0)))

    def test_conf_is_relabelling_invariant(self):
        assert conf(((3, 0), (0, 3))) == conf(((0, 1), (1, 0)))
        assert conf(((2,), (4,))) != conf(((2,), (2,)))

    def test_molecules_must_be_injective(self):
        with pytest.raises(SymmetryError, match="distinct"):
            conf(((0, 0), (1, 2)))

    def test_molecules_must_share_one_length(self):
        with pytest.raises(SymmetryError, match="one length"):
            conf(((0, 1), (2,)))
        with pytest.raises(SymmetryError, match="at least one"):
            conf(())

    @staticmethod
    def partition_by_atom(mols):
        """Reference: group the grid cells by the atom they name."""
        groups = {}
        for i, m in enumerate(mols):
            for p, atom in enumerate(m):
                groups.setdefault(atom, []).append((i, p))
        return make_config(len(mols), len(mols[0]), groups.values())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_interned_conf_matches_partition_by_atom(self, k):
        mols = list(itertools.permutations(range(5), k))
        first_by_blocks = {}
        triples = list(itertools.product(mols, repeat=3))
        cases = list(itertools.product(mols, repeat=2))
        cases += random.Random(k).sample(triples, min(500, len(triples)))
        for case in cases:
            got = conf(case)
            assert got == self.partition_by_atom(case), case
            assert first_by_blocks.setdefault(got.blocks, got) is got, case

    def test_interned_table_stays_bounded(self):
        for case in itertools.product(itertools.permutations(range(8), 2), repeat=2):
            conf(case)
        pairs_of_2 = [key for key in _CONFIGS if len(key) == 2 and len(key[0]) == 2]
        assert len(pairs_of_2) <= len(all_configs2(2))

    def test_blocks_cannot_merge_one_row(self):
        with pytest.raises(SymmetryError, match="repeats a row"):
            make_config(1, 2, [[(0, 0), (0, 1)]])

    def test_blocks_must_tile_the_grid(self):
        with pytest.raises(SymmetryError, match="cover"):
            make_config(2, 1, [[(0, 0)]])
        with pytest.raises(SymmetryError, match="two blocks"):
            Config(2, 1, (((0, 0), (1, 0)), ((1, 0),)))

    def test_realize_round_trip(self):
        u = Universe(6)
        for k in (1, 2):
            for config in all_configs2(k):
                mols = realize_config(config, u)
                assert conf(mols) == config

    def test_realize_is_canonical(self):
        # block order follows smallest cells, atoms follow blocks
        u = Universe(4)
        diag = conf(((0, 1), (0, 1)))
        assert realize_config(diag, u) == ((0, 1), (0, 1))
        split = conf(((2,), (3,)))
        assert realize_config(split, u) == ((0,), (1,))

    def test_realize_needs_enough_atoms(self):
        four_classes = conf(((0, 1), (2, 3)))
        with pytest.raises(NotEnoughAtoms):
            realize_config(four_classes, Universe(3))

    def test_pair_configuration_counts(self):
        # partial injective matchings between two k-rows:
        # sum over s of C(k,s)^2 * s!
        assert len(all_configs2(0)) == 1
        assert len(all_configs2(1)) == 2
        assert len(all_configs2(2)) == 7
        assert len(all_configs2(3)) == 34

    @staticmethod
    def partial_matchings(k):
        """Reference: every partial injective matching between the two
        rows, a block per matched pair and singletons elsewhere."""
        out = set()
        for s in range(k + 1):
            for picked in itertools.combinations(range(k), s):
                for images in itertools.permutations(range(k), s):
                    blocks = [((0, p), (1, q)) for p, q in zip(picked, images)]
                    blocks += [((0, p),) for p in range(k) if p not in picked]
                    blocks += [((1, q),) for q in range(k) if q not in images]
                    out.add(make_config(2, k, blocks))
        return tuple(sorted(out, key=lambda c: c.blocks))

    @pytest.mark.parametrize("k", range(4))
    def test_pair_configurations_are_the_partial_matchings(self, k):
        assert all_configs2(k) == self.partial_matchings(k)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("ell", range(3))
    def test_molecules_by_config_matches_a_conf_scan(self, n, k, ell):
        # against a scan in permutation order, for every tuple of ell rows;
        # rows may name atoms beyond n, and k > n leaves no molecule at all
        u = Universe(n)
        mols = list(itertools.permutations(range(n), k))
        for rows in itertools.product(itertools.permutations(range(max(n, k)), k), repeat=ell):
            want = {}
            for tau in mols:
                want.setdefault(conf((tau, *rows)), []).append(tau)
            table = molecules_by_config(u, k, rows)
            assert table == {c: tuple(taus) for c, taus in want.items()}, rows
            assert molecules_by_config(u, k, rows) is table
            if k > n:
                assert table == {}

    def test_related_queries(self):
        # cells are related when one block holds both
        crossed = conf(((0, 1), (1, 0)))
        block = next(b for b in crossed.blocks if (0, 0) in b)
        assert (1, 1) in block and (1, 0) not in block


class TestForms:
    def test_mk_node_dedups_and_orders(self):
        diag = conf(((0,), (0,)))
        split = conf(((0,), (1,)))
        a = mk_node([(Leaf(0), split), (Leaf(0), diag), (Leaf(0), split)])
        b = mk_node([(Leaf(0), diag), (Leaf(0), split)])
        assert a == b
        assert len(a.pairs) == 2

    def test_rank_mirrors_objects(self):
        diag = conf(((0,), (0,)))
        assert form_rank(Leaf(0)) == 0
        assert form_rank(EMPTY_FORM) == 0
        one = mk_node([(EMPTY_FORM, diag)])
        assert form_rank(one) == 1
        assert form_rank(mk_node([(one, diag)])) == 2

    def test_format_and_parse(self):
        diag = conf(((0,), (0,)))
        split = conf(((0,), (1,)))
        for phi in (
            Leaf(0),
            Leaf(3),
            EMPTY_FORM,
            mk_node([(Leaf(0), diag)]),
            mk_node([(Leaf(0), split), (EMPTY_FORM, diag)]),
            mk_node([(mk_node([(Leaf(0), split)]), diag)]),
        ):
            assert parse_form(format_form(phi)) == phi

    def test_format_examples(self):
        # pinned surface syntax
        assert format_form(Leaf(0)) == "c0"
        assert format_form(EMPTY_FORM) == "{}"
        diag = conf(((0,), (0,)))
        assert format_config(diag) == "[[(0,0),(1,0)]]"
        assert format_form(mk_node([(Leaf(0), diag)])) == "{(c0, [[(0,0),(1,0)]])}"

    def test_parse_rejects_junk(self):
        with pytest.raises(SymmetryError):
            parse_form("c")
        with pytest.raises(SymmetryError):
            parse_form("{(c0)}")
        with pytest.raises(SymmetryError):
            parse_form("c0 trailing")

    def test_parsed_configs_are_validated(self):
        with pytest.raises(SymmetryError):
            parse_form("{(c0, [[(0,0),(0,1)]])}")

    def test_deep_form_text_needs_no_recursion(self):
        u = Universe(3)
        c = u.empty
        for _ in range(1500):
            c = u.mk_set([c])
        phi, _ = form_of(u, c, 1)
        text = format_form(phi)
        assert text == "{(" * 1500 + "{}" + ", [[(0,0),(1,0)]])}" * 1500
        assert parse_form(text) is phi

    def test_form_key_orders_like_the_nested_key(self):
        # form_key flattens each node's (child key, blocks) pairs; the
        # order must be that of the nested definition
        def nested(phi):
            if isinstance(phi, Leaf):
                return (0, phi.pos)
            return (1, tuple((nested(f), c.blocks) for f, c in phi.pairs))

        forms = list(all_forms(1, 1))
        for n, k, r in [(3, 1, 2), (3, 2, 1)]:
            frag = build_fragment(n, k, r)
            forms += [form_of(frag.universe, x, k)[0] for x in frag.objects[::7]]
        forms = list({id(f): f for f in forms}.values())
        random.Random(5).shuffle(forms)
        assert sorted(forms, key=form_key) == sorted(forms, key=nested)
        for phi in forms:
            if isinstance(phi, Node):
                assert list(phi.pairs) == sorted(
                    phi.pairs, key=lambda fc: (nested(fc[0]), fc[1].blocks))


class TestInterning:
    def test_leaves_and_the_empty_form(self):
        assert Leaf(0) is Leaf(0)
        assert Leaf(2) is not Leaf(0)
        assert mk_node([]) is EMPTY_FORM
        assert parse_form("{}") is EMPTY_FORM

    def test_equal_pair_sets_give_one_object(self):
        diag = conf(((0,), (0,)))
        split = conf(((0,), (1,)))
        a = mk_node([(Leaf(0), split), (Leaf(0), diag), (Leaf(0), split)])
        b = mk_node([(Leaf(0), diag), (Leaf(0), split)])
        assert a is b
        # a configuration built apart from conf is the interned one
        again = make_config(2, 1, [[(1, 0)], [(0, 0)]])
        assert again is split
        assert mk_node([(Leaf(0), again), (Leaf(0), diag)]) is a
        assert hash(again) == hash(split)

    def test_one_form_across_universes_and_text(self):
        # rank-1 fragments over 3 and 4 atoms have the same 11 forms
        seen = {}
        found = []
        for n in (3, 4):
            frag = build_fragment(n, 1, 1)
            forms = {}
            for x in frag.objects:
                phi, _ = form_of(frag.universe, x, 1)
                text = format_form(phi)
                assert seen.setdefault(text, phi) is phi
                assert parse_form(text) is phi
                forms[id(phi)] = phi
            found.append(forms)
        assert found[0].keys() == found[1].keys()
        assert len(seen) == 11

    def test_the_table_forgets_unused_forms(self):
        gc.collect()
        before = len(_NODES)

        def build():
            # a chain on a leaf position no other form uses, so each of
            # its nodes is new, and the forms of a whole fragment
            diag = conf(((0,), (0,)))
            phi = Leaf(97)
            for _ in range(200):
                phi = mk_node([(phi, diag)])
            assert parse_form(format_form(phi)) is phi
            frag = build_fragment(2, 1, 2)
            forms = [form_of(frag.universe, x, 1)[0] for x in frag.objects]
            assert len(forms) == 1026
            return len(_NODES)

        assert build() >= before + 200
        gc.collect()
        assert len(_NODES) == before


class TestFormApply:
    def test_leaf_and_empty(self):
        u = Universe(4)
        assert form_apply(u, Leaf(0), (2,)) == u.atom(2)
        assert form_apply(u, Leaf(1), (2, 0)) == u.atom(0)
        assert form_apply(u, EMPTY_FORM, (1,)) == u.empty

    def test_singleton_and_complement(self):
        # the diagonal pairing picks the molecule itself, the
        # split pairing unions over every other atom
        u = Universe(4)
        diag = conf(((0,), (0,)))
        split = conf(((0,), (1,)))
        singleton = mk_node([(Leaf(0), diag)])
        assert form_apply(u, singleton, (2,)) == u.mk_set([u.atom(2)])
        others = mk_node([(Leaf(0), split)])
        assert form_apply(u, others, (2,)) == u.mk_set(
            [u.atom(0), u.atom(1), u.atom(3)]
        )
        both = mk_node([(Leaf(0), diag), (Leaf(0), split)])
        assert form_apply(u, both, (2,)) == u.atoms_set()

    def test_one_constant(self):
        u = Universe(3)
        diag = conf(((0,), (0,)))
        one_form = mk_node([(EMPTY_FORM, diag)])
        assert form_apply(u, one_form, (1,)) == u.one

    def test_molecule_validation(self):
        u = Universe(3)
        with pytest.raises(SymmetryError, match="distinct"):
            form_apply(u, Leaf(0), (1, 1))
        with pytest.raises(SymmetryError, match="out of range"):
            form_apply(u, Leaf(0), (7,))
        with pytest.raises(SymmetryError, match="position"):
            form_apply(u, Leaf(2), (0, 1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equivariance(self, data):
        # relabelling atoms commutes with evaluation
        n = data.draw(st.integers(3, 5))
        u = Universe(n)
        phi = data.draw(st.sampled_from(all_forms(1, 1)))
        sigma = (data.draw(st.integers(0, n - 1)),)
        p = data.draw(st.sampled_from(list(all_perms(n))))
        left = u.apply_perm(p, form_apply(u, phi, sigma))
        right = form_apply(u, phi, tuple(p[a] for a in sigma))
        assert left == right

    def test_equivariance_two_positions(self):
        u = Universe(4)
        frag = build_fragment(4, 2, 1, universe=u)
        cases = [form_of(u, x, 2) for x in frag.objects]
        for p in all_perms(4):
            for phi, sigma in cases:
                left = u.apply_perm(p, form_apply(u, phi, sigma))
                right = form_apply(u, phi, tuple(p[a] for a in sigma))
                assert left == right


class TestFormOf:
    def test_round_trip_small_fragments(self):
        for n, k, r in [(2, 1, 1), (3, 1, 1), (4, 1, 1), (4, 2, 1), (3, 1, 2)]:
            frag = build_fragment(n, k, r)
            u = frag.universe
            sample = frag.objects
            if len(sample) > 2000:
                rng = random.Random(17)
                sample = rng.sample(list(sample), 500)
            for x in sample:
                phi, sigma = form_of(u, x, k)
                assert form_apply(u, phi, sigma) == x

    def test_molecule_lists_support_in_atom_order(self):
        u = Universe(5)
        coatom = u.mk_set([u.atom(a) for a in (0, 1, 3, 4)])
        phi, sigma = form_of(u, coatom, 1)
        assert sigma == (2,)
        pair = u.mk_set([u.atom(3), u.atom(1)])
        _, sigma = form_of(u, pair, 2)
        assert sigma == (1, 3)

    def test_padding_uses_smallest_outside_atoms(self):
        u = Universe(5)
        phi, sigma = form_of(u, u.mk_set([u.atom(2)]), 2)
        assert sigma == (2, 0)
        assert padded_molecule(u, frozenset(), 3) == (0, 1, 2)

    def test_atom_anchors_its_own_molecule(self):
        # even where a foreign single atom vacuously fixes everything
        u = Universe(2)
        phi, sigma = form_of(u, u.atom(1), 1)
        assert phi == Leaf(0)
        assert sigma == (1,)

    def test_not_k_symmetric_reports_witness(self):
        u = Universe(5)
        pair = u.mk_set([u.atom(0), u.atom(1)])
        with pytest.raises(NotKSymmetric) as info:
            form_of(u, pair, 1)
        assert info.value.witness == pair
        # wrapping does not help: fixing {pair} forces fixing pair
        nested = u.mk_set([pair])
        with pytest.raises(NotKSymmetric) as info:
            form_of(u, nested, 1)
        assert info.value.witness == nested
        # a parent with a small support still trips over a wide member
        all_pairs = u.mk_set(
            u.mk_set([u.atom(a), u.atom(b)])
            for a, b in itertools.combinations(range(5), 2)
        )
        with pytest.raises(NotKSymmetric) as info:
            form_of(u, all_pairs, 1)
        wit = info.value.witness
        assert not u.is_atom(wit) and len(u.elements(wit)) == 2

    def test_deep_chain_needs_no_recursion(self):
        u = Universe(3)
        c = u.empty
        for _ in range(1500):
            c = u.mk_set([c])
        phi, sigma = form_of(u, c, 1)
        assert form_apply(u, phi, sigma) == c
        assert form_rank(phi) == 1500

    def test_zero_positions_reject_atoms(self):
        u = Universe(3)
        with pytest.raises(NotKSymmetric):
            form_of(u, u.atom(0), 0)


class TestFragments:
    def test_pinned_sizes(self):
        # counted via stabilizer orbits; see the level argument
        # in build_fragment's docstring
        sizes = {
            (2, 1, 1): 10,
            (3, 1, 1): 19,
            (4, 1, 1): 24,
            (5, 1, 1): 29,
            (6, 1, 1): 34,
            (4, 2, 1): 36,
            (5, 2, 1): 69,
            (6, 2, 1): 94,
            (2, 1, 2): 1026,
        }
        for (n, k, r), want in sizes.items():
            assert len(build_fragment(n, k, r)) == want

    def test_rank_two_count_over_three_atoms(self):
        # 3 * 2^14 - 2 * 2^9 subsets plus the three atoms
        assert len(build_fragment(3, 1, 2)) == 48131

    def test_matches_brute_force_filter(self):
        # oracle: take all subsets of the previous level directly and
        # keep those with a small enough support
        for n, k in [(2, 1), (3, 1), (3, 2)]:
            u = Universe(n)
            frag = build_fragment(n, k, 1, universe=u)
            level0 = list(u.atoms()) + [u.empty]
            want = set(level0)
            for size in range(len(level0) + 1):
                for combo in itertools.combinations(level0, size):
                    s = u.mk_set(combo)
                    # the scan itself: support_within would read the
                    # supports this build recorded
                    if _first_support(u, s, k) is not None:
                        want.add(s)
            assert set(frag.objects) == want

    @pytest.mark.parametrize("n,k,r", [
        (2, 1, 1), (3, 1, 1), (4, 1, 1), (5, 1, 1), (2, 1, 2), (3, 1, 2),
        (3, 2, 1), (4, 2, 1), (5, 2, 1), (6, 2, 1),
    ])
    def test_build_records_the_first_supports(self, n, k, r):
        frag = build_fragment(n, k, r)
        u = frag.universe
        recorded = u.caches["first_support"]
        sets = [x for x in frag.objects if not u.is_atom(x)]
        assert set(recorded) == set(sets)
        for x in sets:
            assert recorded[x] == _first_support(u, x, min(k, n)), x

    def test_supports_recorded_before_the_budget_stops_the_build(self):
        # the level the budget stops records nothing; earlier ones stay
        u = Universe(3)
        with pytest.raises(BudgetExceeded):
            build_fragment(3, 1, 2, budget=20_000, universe=u)
        recorded = u.caches["first_support"]
        level1 = build_fragment(3, 1, 1)
        assert sorted(map(u.format_literal, recorded)) == sorted(
            level1.universe.format_literal(x) for x in level1.objects
            if not level1.universe.is_atom(x)
        )
        for x, supp in recorded.items():
            assert supp == _first_support(u, x, 1), x

    def test_one_support_record_serves_every_width(self):
        # builds at two widths, forms and the support theorem share one
        # record of first supports, each checked against the scan
        u = Universe(4)
        frag = build_fragment(4, 1, 1, universe=u)
        build_fragment(4, 2, 1, universe=u)
        for x in frag.objects:
            form_of(u, x, 1)
        trace = run(fixture_machine("pairs.machine"), make_input(4), universe=u)
        report = check_support_theorem(trace, 1)
        support_keys = [key for key in u.caches
                        if "support" in (key if isinstance(key, str) else key[0])]
        assert support_keys == ["first_support"]
        recorded = u.caches["first_support"]
        assert all(recorded[x] == supp for x, supp in report.supports.items() if supp)
        for x, supp in recorded.items():
            assert supp == _first_support(u, x, 4), x
        pair = u.mk_set([u.atom(0), u.atom(1)])
        assert recorded[pair] == {0, 1}
        assert support_within(u, pair, 1) is None
        assert support_within(u, pair, 2) == {0, 1}

    def test_universe_must_have_n_atoms(self):
        # both directions fail before any work, naming both atom counts
        for n, atoms in [(2, 3), (3, 2)]:
            u = Universe(atoms)
            with pytest.raises(SymmetryError, match=f"{atoms} atoms.*n={n}"):
                build_fragment(n, 1, 1, universe=u)
            assert not u.caches

    def test_objects_are_transitive_and_orbit_closed(self):
        for n, k, r in [(3, 1, 1), (4, 2, 1), (2, 1, 2)]:
            frag = build_fragment(n, k, r)
            assert frag.is_transitive()
            assert frag.is_orbit_closed()

    def test_membership_edges_match_universe(self):
        frag = build_fragment(3, 1, 1)
        u = frag.universe
        edges = set(frag.membership_edges())
        for i, x in enumerate(frag.objects):
            for j, y in enumerate(frag.objects):
                assert ((i, j) in edges) == u.contains(y, x)

    def test_level_zero(self):
        frag = build_fragment(3, 1, 0)
        u = frag.universe
        assert set(frag.objects) == set(u.atoms()) | {u.empty}

    def test_budget_stops_the_build(self):
        with pytest.raises(BudgetExceeded):
            build_fragment(3, 2, 2, budget=1000)
        with pytest.raises(BudgetExceeded):
            build_fragment(5, 2, 2, budget=200_000)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("CPS_BUDGET", "12")
        assert resolve_budget(None) == 12
        with pytest.raises(BudgetExceeded):
            build_fragment(3, 1, 1)
        monkeypatch.delenv("CPS_BUDGET")
        assert resolve_budget(None) > 12

    def test_budget_resolver_takes_the_callers_default(self, monkeypatch):
        monkeypatch.delenv("CPS_BUDGET", raising=False)
        assert resolve_budget(None, 7) == 7
        assert resolve_budget(5, 7) == 5
        monkeypatch.setenv("CPS_BUDGET", "12")
        assert resolve_budget(None, 7) == 12
        assert resolve_budget(5, 7) == 5

    def test_export_and_parse(self):
        frag = build_fragment(3, 1, 1)
        text = frag.export_text()
        again = parse_fragment(text)
        assert again.n == 3 and again.k == 1 and again.r == 1
        lits = [frag.universe.format_literal(x) for x in frag.objects]
        assert [again.universe.format_literal(x) for x in again.objects] == lits
        assert set(again.membership_edges()) == set(frag.membership_edges())

    def test_parse_rejects_corrupt_edges(self):
        frag = build_fragment(2, 1, 1)
        text = frag.export_text()
        lines = [l for l in text.splitlines() if not l.startswith("edge 0 ")]
        with pytest.raises(SymmetryError, match="edge"):
            parse_fragment("\n".join(lines))

    def test_images_agree_with_relabel(self):
        # every permutation of n <= 5 atoms on the fragments (n,1,2) and
        # (n,2,1), against the definition in tests/relabel.py; families
        # above 1,000 objects are sampled evenly (criterion 5 maps the
        # whole of each against form_apply)
        for n, (k, r) in itertools.product(range(1, 6), ((1, 2), (2, 1))):
            if n < k:
                continue
            frag = build_fragment(n, k, r)
            u = frag.universe
            objs = frag.objects[:: 1 + len(frag) // 1000]
            for p in all_perms(n):
                want = relabel(u, p, objs)
                assert bulk_images(u, p, objs) == want, (n, k, r, p)
                assert {x: u.apply_perm(p, x) for x in objs} == want, (n, k, r, p)


class TestInEqTables:
    def test_leaf_equality_follows_the_configuration(self):
        # two leaves name the same atom exactly when the
        # configuration relates their cells
        tables = in_eq_relations(1, 4, 5)
        diag = conf(((0,), (0,)))
        split = conf(((0,), (1,)))
        assert tables.eq_rel[(Leaf(0), Leaf(0), diag)]
        assert not tables.eq_rel[(Leaf(0), Leaf(0), split)]

    def test_membership_samples(self):
        tables = in_eq_relations(1, 4, 5)
        diag = conf(((0,), (0,)))
        split = conf(((0,), (1,)))
        singleton = mk_node([(Leaf(0), diag)])
        one_form = mk_node([(EMPTY_FORM, diag)])
        assert not tables.in_rel[(Leaf(0), EMPTY_FORM, diag)]
        assert tables.in_rel[(Leaf(0), singleton, diag)]
        assert not tables.in_rel[(Leaf(0), singleton, split)]
        assert tables.in_rel[(EMPTY_FORM, one_form, diag)]

    def test_tables_do_not_depend_on_sample_sizes(self):
        forms = all_forms(1, 1)
        a = in_eq_relations(1, 3, 4, forms=forms)
        b = in_eq_relations(1, 5, 6, forms=forms)
        assert a.in_rel == b.in_rel
        assert a.eq_rel == b.eq_rel

    def test_small_universes_are_detected(self):
        # at two atoms a singleton coincides with a complement, so the
        # checker must flag the pair rather than tabulate it
        with pytest.raises(InputDependence):
            in_eq_relations(1, 2, 5)

    def test_two_position_forms_need_room(self):
        frag = build_fragment(4, 2, 1)
        u = frag.universe
        forms = []
        for x in frag.objects:
            phi, _ = form_of(u, x, 2)
            if phi not in forms:
                forms.append(phi)
        with pytest.raises(InputDependence):
            in_eq_relations(2, 4, 5, forms=tuple(forms))
        tables = in_eq_relations(2, 6, 7, forms=tuple(forms))
        again = in_eq_relations(2, 6, 8, forms=tuple(forms))
        assert tables.in_rel == again.in_rel and tables.eq_rel == again.eq_rel

    def test_parameter_validation(self):
        with pytest.raises(SymmetryError):
            in_eq_relations(1, 5, 5)
        with pytest.raises(SymmetryError):
            in_eq_relations(2, 3, 5)

    def test_form_enumeration_counts(self):
        # two rank-0 forms and one node per nonempty subset of
        # (rank-0 form, pair configuration) combinations
        assert len(all_forms(1, 0)) == 2
        assert len(all_forms(1, 1)) == 17
        with pytest.raises(BudgetExceeded):
            all_forms(2, 1, budget=1000)
