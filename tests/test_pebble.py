"""Pebble-game tests: structures, the form strategy, verifier, solver."""

import gc
import itertools
import random

import pytest

import games

from cpspace import pebble
from cpspace.hf import Universe
from cpspace.pebble import (
    DuplicatorState,
    GameSession,
    GameStructure,
    NoExtension,
    PebbleError,
    _Board,
    duplicator_respond,
    partial_iso,
    pin_pairs,
    solve_game,
    verify_duplicator,
)
from cpspace.symmetry import BudgetExceeded, build_fragment, form_apply, form_of


def struct(n, k, r):
    return GameStructure.from_fragment(build_fragment(n, k, r))


def cut(spec, *literals):
    # a fragment board without the given objects, built unchecked
    frag = build_fragment(*spec)
    u = frag.universe
    gone = {u.parse_literal(text) for text in literals}
    kept = tuple(x for x in frag.objects if x not in gone)
    return GameStructure(u, kept, frag.k, frag.r, strict=False)


def cut_cases():
    # unchecked boards: an atom missing, so sets lose an element on the
    # board; boards whose first violation under the form strategy is a
    # membership, met by a spoiler on A and on B
    return [
        (cut((3, 2, 1), "a0"), struct(2, 2, 1), 2, 2),
        (cut((3, 2, 1), "{a0, a1}", "{a0, a1, 0}"), struct(2, 2, 1), 2, 3),
        (struct(2, 2, 1), cut((4, 2, 1), "{a0, a1, a2}", "{a0, a1, a2, 0}",
                              "{a0, a1, a3}", "{a0, a1, a3, 0}"), 2, 3),
    ]


class TestGameStructure:
    def test_from_fragment(self):
        s = struct(3, 1, 1)
        assert len(s) == 19
        assert s.k == 1 and s.r == 1
        assert s.universe.empty in s and s.universe.one in s

    def test_strict_requires_constants(self):
        u = Universe(2)
        objs = tuple(u.atoms()) + (u.empty,)  # no {0}
        with pytest.raises(PebbleError, match="0 and 1"):
            GameStructure(u, objs, 1)
        GameStructure(u, objs, 1, strict=False)

    def test_strict_requires_element_closure(self):
        u = Universe(2)
        deep = u.mk_set([u.mk_set([u.one])])  # {{1}} without {1}
        objs = (u.empty, u.one, deep) + tuple(u.atoms())
        with pytest.raises(PebbleError, match="element-closed"):
            GameStructure(u, objs, 1)

    def test_rejects_duplicates_and_zero_width(self):
        u = Universe(2)
        objs = (u.empty, u.one, u.empty) + tuple(u.atoms())
        with pytest.raises(PebbleError, match="duplicate"):
            GameStructure(u, objs, 1)
        with pytest.raises(PebbleError, match="width"):
            GameStructure(u, (u.empty, u.one) + tuple(u.atoms()), 0)


class TestPartialIso:
    def test_empty_position(self):
        a = struct(3, 1, 1)
        assert partial_iso(a, a, ()) is None

    def test_matching_constants(self):
        # (0, 1) against (0, 1)
        a = struct(3, 1, 1)
        u = a.universe
        pairs = ((u.empty, u.empty), (u.one, u.one))
        assert partial_iso(a, a, pairs) is None

    def test_membership_violation(self):
        # a in {a} on the left, b not in {c} on the right
        a = struct(3, 1, 1)
        u = a.universe
        left = (u.atom(0), u.mk_set([u.atom(0)]))
        right = (u.atom(1), u.mk_set([u.atom(2)]))
        reason = partial_iso(a, a, tuple(zip(left, right)))
        assert reason is not None and "membership" in reason

    def test_equality_violation(self):
        a = struct(3, 1, 1)
        u = a.universe
        pairs = ((u.atom(0), u.atom(1)), (u.atom(0), u.atom(2)))
        reason = partial_iso(a, a, pairs)
        assert reason is not None and "equality" in reason

    def test_pins_catch_constant_swaps(self):
        a = struct(3, 1, 1)
        u = a.universe
        pairs = pin_pairs(a, a) + ((u.empty, u.one),)
        assert partial_iso(a, a, pairs) is not None


class TestDuplicatorRespond:
    def test_first_move_empty_set(self):
        # the empty set's form ignores its molecule
        a, b = struct(4, 1, 1), struct(5, 1, 1)
        state = DuplicatorState.fresh(3)
        _, y = duplicator_respond(a, b, state, 0, 0, a.universe.empty)
        assert y == b.universe.empty

    def test_atom_answers_atom(self):
        # unfolding the strategy at width 1
        a, b = struct(4, 1, 1), struct(5, 1, 1)
        state = DuplicatorState.fresh(3)
        _, y = duplicator_respond(a, b, state, 0, 0, a.universe.atom(2))
        assert b.universe.is_atom(y)

    def test_deterministic(self):
        a, b = struct(4, 1, 1), struct(5, 1, 1)
        x = a.universe.mk_set([u_atom := a.universe.atom(1), a.universe.empty])
        first = duplicator_respond(a, b, DuplicatorState.fresh(2), 0, 0, x)
        second = duplicator_respond(a, b, DuplicatorState.fresh(2), 0, 0, x)
        assert first == second

    def test_copying_a_pebble_copies_the_answer(self):
        a, b = struct(4, 1, 1), struct(5, 1, 1)
        x = a.universe.mk_set([a.universe.atom(3)])
        state, y1 = duplicator_respond(a, b, DuplicatorState.fresh(2), 0, 0, x)
        state, y2 = duplicator_respond(a, b, state, 0, 1, x)
        assert y1 == y2

    def test_other_side_and_overwrite(self):
        a, b = struct(4, 1, 1), struct(5, 1, 1)
        state = DuplicatorState.fresh(2)
        state, y = duplicator_respond(a, b, state, 1, 0, b.universe.atom(4))
        assert y in a
        state, y2 = duplicator_respond(a, b, state, 1, 0, b.universe.one)
        assert y2 == a.universe.one
        assert state.entries[1] is None

    def test_no_extension_when_atoms_run_out(self):
        # three distinct atoms on the 3-atom side overwhelm 2 atoms
        a, b = struct(2, 1, 1), struct(3, 1, 1)
        state = DuplicatorState.fresh(3)
        state, _ = duplicator_respond(a, b, state, 1, 0, b.universe.atom(0))
        state, _ = duplicator_respond(a, b, state, 1, 1, b.universe.atom(1))
        with pytest.raises(NoExtension):
            duplicator_respond(a, b, state, 1, 2, b.universe.atom(2))

    def test_rejects_foreign_objects_and_bad_pebbles(self):
        a, b = struct(3, 1, 1), struct(3, 1, 1)
        deep = a.universe.mk_set([a.universe.mk_set([a.universe.atom(0)])])
        with pytest.raises(PebbleError, match="not on the board"):
            duplicator_respond(a, b, DuplicatorState.fresh(2), 0, 0, deep)
        with pytest.raises(PebbleError, match="pebble"):
            duplicator_respond(a, b, DuplicatorState.fresh(2), 0, 5, a.universe.empty)
        # both wrong: the object is reported first
        with pytest.raises(PebbleError, match="not on the board"):
            duplicator_respond(a, b, DuplicatorState.fresh(2), 0, 5, deep)

    @pytest.mark.parametrize("boards", [
        ((2, 1, 1), (3, 1, 1)), ((4, 1, 1), (3, 1, 1)), ((4, 2, 1), (5, 2, 1)),
        ((2, 1, 2), (3, 1, 2)),
    ])
    def test_answers_equal_a_fresh_scan(self, boards):
        # the cached molecule and the answer read from the form_apply memo,
        # against the rule itself: scan the molecules, apply the form
        a, b = (struct(*spec) for spec in boards)
        k = a.k

        def scanned(state, side, pebble, x0):
            home, other = (a, b) if side == 0 else (b, a)
            phi, sigma = form_of(home.universe, x0, k)
            rows = [
                (e.sigma_a, e.sigma_b) if side == 0 else (e.sigma_b, e.sigma_a)
                for j, e in enumerate(state.entries)
                if e is not None and j != pebble
            ]
            for tau in itertools.permutations(range(other.universe.n_atoms), k):
                if all((sigma[p] == home_row[q]) == (tau[p] == other_row[q])
                       for home_row, other_row in rows
                       for p in range(k) for q in range(k)):
                    return form_apply(other.universe, phi, tau)
            return None

        rng = random.Random(len(a) + len(b))
        answered = 0
        for _ in range(30):
            state = DuplicatorState.fresh(3)
            for _ in range(6):
                side, pebble = rng.randrange(2), rng.randrange(3)
                x0 = rng.choice((a, b)[side].objects)
                want = scanned(state, side, pebble, x0)
                if want is None:
                    with pytest.raises(NoExtension):
                        duplicator_respond(a, b, state, side, pebble, x0)
                    break
                state, got = duplicator_respond(a, b, state, side, pebble, x0)
                assert got == want
                answered += 1
        assert answered > 100

    def test_width_mismatch_detected(self):
        with pytest.raises(PebbleError, match="width"):
            verify_duplicator(struct(4, 1, 1), struct(4, 2, 1), 2, 1)

    def test_rank_mismatch_detected(self):
        with pytest.raises(PebbleError, match="rank"):
            verify_duplicator(struct(3, 1, 1), struct(3, 1, 2), 2, 1)


class TestVerifyDuplicator:
    def test_identity_game_survives(self):
        # the strategy subsumes the identity map
        s = struct(3, 1, 1)
        report = verify_duplicator(s, s, 2, 2)
        assert report.survived
        assert report.counterexample == []
        assert report.nodes > 0

    def test_small_board_loses(self):
        # two atoms cannot track three pairwise distinct ones
        a, b = struct(2, 1, 1), struct(3, 1, 1)
        report = verify_duplicator(a, b, 3, 3)
        assert not report.survived
        assert 1 <= len(report.counterexample) <= 3
        lines = report.describe(a, b)
        assert "does not survive" in lines[0]

    def test_reports_equal_those_of_the_full_check(self, monkeypatch):
        # the verifier's compiled check tests only the combinations with
        # the new pair; checking the whole position with the definition
        # must give the same move counts and traces
        cases = [
            (struct(2, 1, 1), struct(3, 1, 1), 3, 3),
            (struct(3, 1, 1), struct(2, 1, 1), 3, 3),
            (struct(3, 1, 1), struct(4, 1, 1), 2, 2),
            (struct(4, 2, 1), struct(5, 2, 1), 2, 2),
        ]
        fast = [verify_duplicator(*case) for case in cases]

        def full_check(a_, b_, side, pairs):
            def holds(x0, y0):
                pair = (x0, y0) if side == 0 else (y0, x0)
                return partial_iso(a_, b_, pairs + (pair,)) is None

            return holds

        monkeypatch.setattr(pebble, "_compiled_check", full_check)
        assert [verify_duplicator(*case) for case in cases] == fast
        assert [report.survived for report in fast] == [False, False, True, False]

    @pytest.mark.parametrize("case", [
        ((2, 1, 1), (3, 1, 1), 3, 3, False, 321),
        ((3, 1, 1), (4, 1, 1), 2, 2, True, 3010),
        ((4, 2, 1), (5, 2, 1), 2, 2, False, 1417),
    ])
    def test_pinned_move_counts(self, case):
        # (3,1,1) against (4,1,1) is the count that moves if equal forms
        # are ever distinct objects, since positions are keyed by form
        spec_a, spec_b, m, depth, survived, nodes = case
        report = verify_duplicator(struct(*spec_a), struct(*spec_b), m, depth)
        assert (report.survived, report.nodes) == (survived, nodes)

    def test_each_check_is_of_the_pair_just_placed(self, monkeypatch):
        # the verifier compiles one check per (position, side, pebble); at
        # every move its verdict must equal the definition's on the pins
        # and all placed pairs, with the placed pairs rebuilt from the
        # state's forms and molecules (and equal to the objects the state
        # records), and a rejected move must report the definition's text
        cases = [
            # the counterexamples of the pinned counts, both orders
            (struct(2, 1, 1), struct(3, 1, 1), 3, 3),
            (struct(3, 1, 1), struct(2, 1, 1), 3, 3),
            (struct(4, 2, 1), struct(5, 2, 1), 2, 2),
            # a survivor: every move is checked and accepted
            (struct(3, 1, 1), struct(4, 1, 1), 2, 2),
            # the answer breaks a pin: 0 against {a0, a1}
            (struct(2, 2, 1), struct(3, 2, 1), 2, 2),
        ] + cut_cases() + [
            # the answer to 1 is off the board: the last move is unchecked
            (struct(2, 1, 1), cut((2, 1, 1), "1"), 3, 2),
        ]
        responder, compiled = pebble._responder, pebble._compiled_check
        last = []
        checks = 0
        rejected = []

        def spy_responder(a_, b_, state, side, i):
            respond = responder(a_, b_, state, side, i)

            def spied(x0):
                got = respond(x0)
                last[:] = [state, side, i, x0, got[0]]
                return got

            return spied

        def spy_compiled(a_, b_, side, pairs):
            holds = compiled(a_, b_, side, pairs)

            def spied(x0, y0):
                nonlocal checks
                verdict = holds(x0, y0)
                state, side_, i, x, y = last
                assert (side_, x, y) == (side, x0, y0)
                placed = [
                    None if e is None else (
                        form_apply(a_.universe, e.phi, e.sigma_a),
                        form_apply(b_.universe, e.phi, e.sigma_b),
                    )
                    for e in state.entries
                ]
                assert state.pairs() == tuple(p for p in placed if p is not None)
                placed[i] = (x0, y0) if side == 0 else (y0, x0)
                full = pin_pairs(a_, b_) + tuple(p for p in placed if p is not None)
                want = partial_iso(a_, b_, full)
                assert verdict == (want is None), (full, want)
                if want is not None:
                    rejected.append(want)
                checks += 1
                return verdict

            return spied

        monkeypatch.setattr(pebble, "_responder", spy_responder)
        monkeypatch.setattr(pebble, "_compiled_check", spy_compiled)
        notes = []
        for a, b, m, depth in cases:
            checks = 0
            rejected.clear()
            report = verify_duplicator(a, b, m, depth)
            moves = report.counterexample
            unchecked = bool(moves) and moves[-1].response is None
            assert checks == report.nodes - unchecked
            if report.survived or unchecked:
                assert rejected == []
            else:
                assert rejected == [moves[-1].note]
            notes.append(moves[-1].side + " " + moves[-1].note.split(":")[0] if moves else "")
        assert notes == [
            "B equality broken", "A equality broken", "B equality broken", "",
            "B equality broken", "A equality broken", "A membership broken",
            "B membership broken", "A transported object 1 is not on the board",
        ]

    def test_missing_constant_caught_at_depth_one(self):
        # spoiler pebbles 1 and the answer is off the board
        frag = build_fragment(2, 1, 1)
        u = frag.universe
        a = GameStructure.from_fragment(frag)
        b = GameStructure(
            u, tuple(x for x in frag.objects if x != u.one), 1, 1, strict=False
        )
        report = verify_duplicator(a, b, 3, 1)
        assert not report.survived
        move = report.counterexample[0]
        assert move.spoiler == u.one and move.response is None

    def test_swap_symmetry(self):
        # verdicts do not depend on which structure is called A
        for a, b, m, d in [
            (struct(2, 1, 1), struct(3, 1, 1), 3, 3),
            (struct(4, 1, 1), struct(5, 1, 1), 2, 2),
            (struct(4, 2, 1), struct(5, 2, 1), 2, 2),
        ]:
            assert (
                verify_duplicator(a, b, m, d).survived
                == verify_duplicator(b, a, m, d).survived
            )

    def test_budget(self):
        s = struct(3, 1, 1)
        with pytest.raises(BudgetExceeded):
            verify_duplicator(s, s, 2, 2, node_budget=10)

    def test_budget_env_override(self, monkeypatch):
        # CPS_BUDGET replaces the node default; an explicit budget still wins
        s = struct(3, 1, 1)
        monkeypatch.setenv("CPS_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            verify_duplicator(s, s, 2, 2)
        with pytest.raises(BudgetExceeded):
            solve_game(s, s, 2, 3)
        assert verify_duplicator(s, s, 2, 2, node_budget=10**6).survived

    def test_parameter_validation(self):
        s = struct(3, 1, 1)
        with pytest.raises(PebbleError):
            verify_duplicator(s, s, 0, 1)
        with pytest.raises(PebbleError):
            verify_duplicator(s, s, 1, -1)


class TestSolveGame:
    def test_identity_game(self):
        s = struct(3, 1, 1)
        result = solve_game(s, s, 2, 3)
        assert result.duplicator_survives

    def test_spoiler_wins_on_small_board(self):
        # the solver finds the three-distinct-atoms attack
        result = solve_game(struct(2, 1, 1), struct(3, 1, 1), 3, 3)
        assert result.spoiler_wins

    def test_agreement_with_verifier(self):
        # a verified strategy implies no forced spoiler win;
        # where the strategy fails the solver may still find survival
        cases = [
            (struct(3, 1, 1), struct(3, 1, 1), 2, 2),
            (struct(2, 1, 1), struct(3, 1, 1), 3, 3),
            (struct(4, 1, 1), struct(5, 1, 1), 2, 2),
            (struct(4, 2, 1), struct(5, 2, 1), 2, 2),
        ]
        for a, b, m, d in cases:
            report = verify_duplicator(a, b, m, d)
            result = solve_game(a, b, m, d)
            if report.survived:
                assert result.duplicator_survives
        # the first three are exact matches either way
        for a, b, m, d in cases[:3]:
            assert (
                verify_duplicator(a, b, m, d).survived
                == solve_game(a, b, m, d).duplicator_survives
            )

    def test_strategy_can_lose_where_perfect_play_survives(self):
        # below k*m atoms the transported complement-of-a-pair
        # collides with a listed pair, so the concrete strategy trips
        # over equality while unconstrained play has room to dodge
        a, b = struct(4, 2, 1), struct(5, 2, 1)
        report = verify_duplicator(a, b, 2, 2)
        result = solve_game(a, b, 2, 2)
        assert not report.survived
        assert result.duplicator_survives
        assert "equality" in report.counterexample[-1].note

    def test_swap_symmetry(self):
        a, b = struct(2, 1, 1), struct(3, 1, 1)
        assert solve_game(a, b, 3, 3).spoiler_wins == solve_game(b, a, 3, 3).spoiler_wins

    def test_budget(self):
        s = struct(3, 1, 1)
        with pytest.raises(BudgetExceeded):
            solve_game(s, s, 2, 3, node_budget=10)

    @pytest.mark.parametrize("n,r", [(3, 1), (2, 2)])
    def test_lazy_masks_equal_eager_masks(self, n, r):
        s = struct(n, 1, r)
        u = s.universe
        elem, cont = [0] * len(s), [0] * len(s)
        for i, x in enumerate(s.objects):
            for e in u.elements(x):
                j = s.index(e)
                elem[i] |= 1 << j
                cont[j] |= 1 << i
        board = _Board(s)
        for i in range(len(s)):
            assert board.elem(i) == elem[i]
            assert board.cont(i) == cont[i]
            assert board.elem(i) is board.elem(i)  # built once, then kept

    def test_depth_zero(self):
        s = struct(3, 1, 1)
        assert solve_game(s, s, 2, 0).duplicator_survives
        assert verify_duplicator(s, s, 2, 0).survived

    @pytest.mark.parametrize("play", [solve_game, verify_duplicator])
    def test_calls_leave_nothing_for_the_collector(self, play):
        # reference counting alone frees a call's tables and positions,
        # whether it returns or stops at its budget
        a, b = struct(3, 1, 1), struct(4, 1, 1)
        gc.collect()
        gc.disable()
        try:
            play(a, b, 2, 2)
            assert gc.collect() == 0
            try:
                play(a, b, 2, 2, node_budget=5)
            except BudgetExceeded:
                pass
            else:
                raise AssertionError("the budget did not stop the call")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSolveAgainstDefinition:
    """`solve_game` against `tests/games.py`, the game solved one spoiler
    object at a time: the same verdict and the same node count."""

    # (k, atoms of A, atoms of B, m, depth) where the definition takes
    # more than about a second: 420k to 5.8M nodes, where the cases run
    # count at most 361k
    SLOW = {
        (2, 2, 5, 2, 3), (2, 3, 5, 2, 3), (2, 3, 5, 3, 3), (2, 4, 4, 2, 3),
        (2, 4, 4, 3, 3), (2, 4, 5, 2, 3), (2, 4, 5, 3, 3), (2, 5, 2, 2, 3),
        (2, 5, 3, 2, 3), (2, 5, 3, 3, 3), (2, 5, 4, 2, 3), (2, 5, 4, 3, 3),
        (2, 5, 5, 2, 3), (2, 5, 5, 3, 3),
    }

    @pytest.fixture(scope="class")
    def rank2(self):
        return struct(2, 1, 2), struct(3, 1, 2)

    @staticmethod
    def solved(a, b, m, depth, **budget):
        result = solve_game(a, b, m, depth, **budget)
        return result.spoiler_wins, result.nodes

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("na,nb", list(itertools.product(range(2, 6), repeat=2)))
    def test_rank_one_fragments(self, k, na, nb):
        a, b = struct(na, k, 1), struct(nb, k, 1)
        for m, depth in itertools.product(range(1, 4), range(4)):
            if (k, na, nb, m, depth) not in self.SLOW:
                assert self.solved(a, b, m, depth) == games.solve(a, b, m, depth), (m, depth)

    def test_rank_two_fragments(self, rank2):
        small, large = rank2
        for a, b in ((small, small), (small, large)):
            assert self.solved(a, b, 1, 1) == games.solve(a, b, 1, 1)

    def test_boards_that_are_not_element_closed(self):
        # membership is that of the board's own objects: {{1}} without
        # {1} has no members on the board, and neither have the sets
        # that lost a0
        u = Universe(2)
        deep = u.mk_set([u.mk_set([u.one])])
        lone = GameStructure(u, (u.empty, u.one, deep) + tuple(u.atoms()), 1, strict=False)
        for a, b, m, depth in [(lone, lone, 1, 1), (lone, struct(2, 1, 1), 2, 2)] + cut_cases():
            assert self.solved(a, b, m, depth) == games.solve(a, b, m, depth)
        assert verify_duplicator(lone, lone, 1, 1).survived
        assert solve_game(lone, lone, 1, 1).duplicator_survives
        with pytest.raises(PebbleError, match="0 and 1"):
            solve_game(struct(2, 1, 1), cut((2, 1, 1), "1"), 3, 2)

    def test_only_the_last_object_wins(self):
        # {a0, 0} has no answer on B, and it is the last object of A
        u = Universe(2)
        a0, a1 = u.atoms()
        base = (a0, a1, u.empty, u.one)
        a = GameStructure(u, base + (u.mk_set([a0, u.empty]),), 1)
        b = GameStructure(u, base, 1)
        assert self.solved(a, b, 1, 1) == games.solve(a, b, 1, 1) == (True, 5)

    def test_budget_stops_at_the_definitions_count(self, rank2):
        # a budget of exactly the nodes counted suffices, one fewer does
        # not: on a last move decided by classes, and on deeper walks
        small, large = rank2
        for a, b, m, depth in [
            (small, large, 1, 1),
            (struct(2, 1, 1), struct(3, 1, 1), 3, 3),
            (struct(3, 1, 1), struct(4, 1, 1), 2, 3),
            cut_cases()[1],
        ]:
            wins, nodes = games.solve(a, b, m, depth)
            assert self.solved(a, b, m, depth, node_budget=nodes) == (wins, nodes)
            with pytest.raises(BudgetExceeded):
                solve_game(a, b, m, depth, node_budget=nodes - 1)

    def test_one_response_mask_per_class(self, rank2, monkeypatch):
        # the objects of a class share their answers; one object at a
        # time, this game takes 49,157 masks
        calls = 0
        mask = pebble._response_mask

        def counted(*args):
            nonlocal calls
            calls += 1
            return mask(*args)

        monkeypatch.setattr(pebble, "_response_mask", counted)
        assert solve_game(*rank2, 1, 1).nodes == sum(map(len, rank2))
        assert 0 < calls < 100


class TestGameSession:
    def test_scripted_game(self):
        session = GameSession(struct(4, 1, 1), struct(5, 1, 1), 3)
        move = session.spoiler_move("A", 0, "{a1, a2, a3}")
        assert move.response is not None and move.note == ""
        move = session.spoiler_move("B", 1, "a4")
        assert move.note == ""
        lines = session.board_lines()
        assert lines[0].startswith("pebble 0: A {a1, a2, a3}")
        assert lines[2] == "pebble 2: -"

    def test_bad_input_raises_for_reprompt(self):
        session = GameSession(struct(3, 1, 1), struct(3, 1, 1), 2)
        with pytest.raises(PebbleError, match="side"):
            session.spoiler_move("C", 0, "a0")
        with pytest.raises(PebbleError, match="literal"):
            session.spoiler_move("A", 0, "{a0")
        with pytest.raises(PebbleError, match="not on the board"):
            session.spoiler_move("A", 0, "{{a0}}")

    def test_session_tracks_position(self):
        session = GameSession(struct(3, 1, 1), struct(3, 1, 1), 2)
        session.spoiler_move("A", 0, "a1")
        session.spoiler_move("A", 0, "a2")  # overwrite
        # a fresh molecule transports to the lex-smallest pattern match,
        # so even on identical boards the answer to a2 is a0
        assert session.state.pairs() == (
            (session.a.universe.atom(2), session.b.universe.atom(0)),
        )

    def test_overwrite_from_side_b(self):
        # a pebble placed on A and overwritten from B keeps its slot, and
        # the board shows each pair in A, B order
        session = GameSession(struct(4, 1, 1), struct(5, 1, 1), 2)
        ua, ub = session.a.universe, session.b.universe
        session.spoiler_move("A", 0, "{a1, a2, a3}")
        session.spoiler_move("B", 0, "a4")
        move = session.spoiler_move("B", 1, "{a4}")
        assert move.note == ""
        assert session.state.pairs() == (
            (ua.atom(0), ub.atom(4)),
            (ua.mk_set([ua.atom(0)]), ub.mk_set([ub.atom(4)])),
        )
        assert session.board_lines() == [
            "pebble 0: A a0  |  B a4",
            "pebble 1: A {a0}  |  B {a4}",
        ]
