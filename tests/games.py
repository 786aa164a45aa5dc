"""Pebble games by their definition, for differential tests.

`solve` is backward induction one spoiler object at a time: at each
position, for each side, each pebble the spoiler may lift and each
object x0 of the home board in index order, it counts a node, builds
the mask of the other board's objects that keep the equality and both
membership biconditionals with every constraint pair, and recurses on
each answer in index order.  Membership is that between the board's own
objects (the induced structure), found by scanning the board.  Nothing
is grouped or decided wholesale: it is the definition
`pebble.solve_game` must agree with, in verdict and in node count.
"""

import functools

from cpspace.pebble import PebbleError


def board(s):
    """(size, elem, cont): the bits of object i's on-board members and
    containers, each scanned when first asked for."""
    u, objs = s.universe, s.objects

    @functools.cache
    def elem(i):
        return sum(1 << j for j, y in enumerate(objs) if u.contains(objs[i], y))

    @functools.cache
    def cont(i):
        return sum(1 << j for j, y in enumerate(objs) if u.contains(y, objs[i]))

    return len(objs), elem, cont


def members(mask):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def solve(a, b, m, depth):
    """(spoiler_wins, nodes) of the game of m pebbles to the given depth."""
    for s in (a, b):
        if s.universe.empty not in s or s.universe.one not in s:
            raise PebbleError("game structures must contain 0 and 1")
    pins = [(s.index(s.universe.empty), s.index(s.universe.one)) for s in (a, b)]
    boards = [board(a), board(b)]
    memo = {}
    nodes = 0

    def wins(pairs, depth_left):
        nonlocal nodes
        if depth_left == 0:
            return False
        key = (pairs, depth_left)
        if key in memo:
            return memo[key]
        # the spoiler lifts a pebble only when all m are placed
        victims = range(len(pairs)) if len(pairs) == m else (None,)
        result = False
        for side in (0, 1):
            (hsize, helem, hcont), (osize, oelem, ocont) = boards[side], boards[1 - side]
            for victim in victims:
                kept = pairs if victim is None else pairs[:victim] + pairs[victim + 1:]
                constraints = tuple(zip(pins[side], pins[1 - side])) + tuple(
                    p[::-1] if side else p for p in kept)
                # each pair (h, o) with the bits of h's members and
                # containers and of o's
                bound = [(h, o, helem(h), hcont(h), oelem(o), ocont(o))
                         for h, o in constraints]
                for x0 in range(hsize):
                    nodes += 1
                    # the answers y0 with x0 = h iff y0 = o, x0 in h iff
                    # y0 in o, and h in x0 iff o in y0, for every pair
                    mask = (1 << osize) - 1
                    for h, o, he, hc, oe, oc in bound:
                        mask &= 1 << o if x0 == h else ~(1 << o)
                        mask &= oe if he >> x0 & 1 else ~oe
                        mask &= oc if hc >> x0 & 1 else ~oc
                    if all(wins(tuple(sorted(kept + (((y0, x0) if side else (x0, y0)),))),
                                depth_left - 1)
                           for y0 in members(mask)):
                        result = True
                        break
                if result:
                    break
            if result:
                break
        memo[key] = result
        return result

    return wins((), depth), nodes
