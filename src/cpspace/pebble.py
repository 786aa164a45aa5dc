"""Back-and-forth pebble games between two membership structures.

Two finite universes of hereditarily finite objects face each other.
The spoiler places one of m pebbles on an object of either structure;
the duplicator answers with an object of the other structure, trying to
keep the placed pairs a partial isomorphism for equality and membership
(the constants, empty set and one, count as permanently pebbled).  The
duplicator here is not a search: it carries a concrete strategy that
decomposes the spoiler's object into a form and a molecule, transports
the molecule to the other side so the atom pattern against the other
placed molecules matches, and answers with the form applied there.
Forms are interned (see `symmetry`), so the work per move is a few
dict probes: the spoiler object's (form, molecule) from the `form_of`
memo, the answer molecule from a per-universe cache for the rows of the
other placed molecules on both sides, keyed by the spoiler's molecule,
and the answer object from the `form_apply` memo, keyed by molecule
and then by form.  A miss of the answer cache reads the molecule from
`symmetry.molecules_by_config`, which groups molecules by `conf`, so
that one function decides whether two atom patterns are the same.

`DuplicatorState` is the one record of a placement: per pebble, the
form with the molecule and the object on each side.

`verify_duplicator` drives that strategy through every spoiler sequence
up to a depth and checks the partial-isomorphism condition after each
answer; `solve_game` ignores forms entirely and decides by backward
induction whether the spoiler can force a violation.  The two must
agree on whether the duplicator survives to the given depth (surviving
a bounded game is weaker than winning, so that is the word used).

The verifier tries every object for one side and pebble at a position,
so it sets that (position, side, pebble) up once: one responder
(`_responder`, which `duplicator_respond` also answers through) holds
the rows and the memos, and one check (`_compiled_check`) holds the
pins and the other placed pairs with their element tuples.  A move then
costs the responder's probes and three comparisons per placed pair.
`partial_iso` is the definition, with one path: the verifier calls it
to word a violation the compiled check found, and `GameSession` checks
every position with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .hf import ObjId, Universe
from .symmetry import (
    BudgetExceeded,
    Form,
    Molecule,
    SymmetricFragment,
    conf,
    form_apply,
    form_apply_memo,
    form_of,
    form_of_memo,
    molecules_by_config,
    resolve_budget,
)

DEFAULT_NODE_BUDGET = 50_000_000


class PebbleError(Exception):
    """Ill-formed structures, positions, or game parameters."""


class NoExtension(PebbleError):
    """The duplicator found no molecule with the required atom pattern,
    or the transported object is missing; the structure is too small."""


# -- structures ----------------------------------------------------------------

@dataclass
class GameStructure:
    """A finite family of objects closed under elements, with constants.

    `k` is the molecule width used by the duplicator's form strategy;
    `r` records the rank cutoff when the board came from a fragment.
    Strict construction checks transitivity and both constants; pass
    strict=False only to build deliberately broken boards for tests.
    """

    universe: Universe
    objects: tuple[ObjId, ...]
    k: int
    r: int | None = None
    strict: bool = True

    def __post_init__(self):
        self.objects = tuple(self.objects)
        self._index = {x: i for i, x in enumerate(self.objects)}
        if len(self._index) != len(self.objects):
            raise PebbleError("duplicate objects in a game structure")
        if self.k < 1:
            raise PebbleError("molecule width k must be at least 1")
        if self.strict:
            u = self.universe
            if u.empty not in self._index or u.one not in self._index:
                raise PebbleError("game structures must contain 0 and 1")
            for x in self.objects:
                for e in u.elements(x):
                    if e not in self._index:
                        raise PebbleError(
                            f"not element-closed: {u.format_literal(e)} missing"
                        )

    @classmethod
    def from_fragment(cls, frag: SymmetricFragment) -> "GameStructure":
        return cls(frag.universe, frag.objects, frag.k, frag.r)

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, x: ObjId) -> bool:
        return x in self._index

    def index(self, x: ObjId) -> int:
        return self._index[x]

    def literal(self, x: ObjId) -> str:
        return self.universe.format_literal(x)


def pin_pairs(a: GameStructure, b: GameStructure) -> tuple[tuple[ObjId, ObjId], ...]:
    """The permanently pebbled constant pairs (0, 0) and (1, 1)."""
    return (
        (a.universe.empty, b.universe.empty),
        (a.universe.one, b.universe.one),
    )


def partial_iso(a: GameStructure, b: GameStructure, pairs) -> str | None:
    """None when the (A, B) pairs respect equality and membership both
    ways, otherwise a description of the first violated biconditional.

    Every combination of two pairs, a pair with itself included, is
    checked in list order.
    """
    ps = tuple(pairs)
    combos = ((p, q) for i, p in enumerate(ps) for q in ps[i:])
    ua, ub = a.universe, b.universe
    for (x1, y1), (x2, y2) in combos:
        if (x1 == x2) != (y1 == y2):
            return (
                f"equality broken: {ua.format_literal(x1)} vs {ua.format_literal(x2)} "
                f"against {ub.format_literal(y1)} vs {ub.format_literal(y2)}"
            )
        if x1 == x2:
            continue  # no set contains itself, on either side
        if ua.contains(x2, x1) != ub.contains(y2, y1):
            return (
                f"membership broken: {ua.format_literal(x1)} in {ua.format_literal(x2)} "
                f"against {ub.format_literal(y1)} in {ub.format_literal(y2)}"
            )
        if ua.contains(x1, x2) != ub.contains(y1, y2):
            return (
                f"membership broken: {ua.format_literal(x2)} in {ua.format_literal(x1)} "
                f"against {ub.format_literal(y2)} in {ub.format_literal(y1)}"
            )
    return None


# -- the duplicator's strategy ---------------------------------------------------

class PebblePair(NamedTuple):
    """One placed pebble: a shared form with a molecule on each side, and
    the object on each side (the form applied to that side's molecule)."""

    phi: Form
    sigma_a: Molecule
    sigma_b: Molecule
    x_a: ObjId
    x_b: ObjId


def _entry_order(e: PebblePair):
    return (id(e.phi), e.sigma_a, e.sigma_b)


class DuplicatorState(NamedTuple):
    """The one record of the placed pebbles: a `PebblePair` per pebble,
    None for an unplaced one.

    Both records are named tuples: the verifier makes one of each per
    spoiler move it plays on from (not for a move at the last depth).
    """

    entries: tuple[PebblePair | None, ...]

    @classmethod
    def fresh(cls, m: int) -> "DuplicatorState":
        return cls((None,) * m)

    def key(self):
        """The placed entries as a multiset: pebble identity is irrelevant
        to the strategy.  Forms are interned, so each stands for itself;
        the order by form identity only makes the key canonical within a
        process, and the key holds its forms, so no identity is reused."""
        return tuple(sorted((e for e in self.entries if e is not None), key=_entry_order))

    def pairs(self) -> tuple[tuple[ObjId, ObjId], ...]:
        """The placed (A, B) object pairs, in pebble order."""
        return tuple((e.x_a, e.x_b) for e in self.entries if e is not None)


_UNSEEN = object()


def _responder(
    a: GameStructure,
    b: GameStructure,
    state: DuplicatorState,
    side: int,
    pebble: int,
):
    """The strategy's answers at one position, for pebble `pebble` placed
    on side A (0) or B (1): a function respond(x0) -> (y0, phi0, sigma0,
    answer), where x0 decomposes as (phi0, sigma0) and y0 is phi0 applied
    to the answer molecule on the other side.

    The answer molecule is the lex smallest tau over the other side's
    atoms with conf((tau, *rows other)) equal to conf((sigma0, *rows
    home)): the first of its group in `molecules_by_config`.  That is
    the same as asking tau to copy sigma0's pattern against each row,
    because the rows on the two sides already agree: each placement
    was matched against every other placed molecule, and a partition
    of the cells is fixed by its pairwise row patterns.

    What depends only on the position is read here, once: the rows of
    the other placed molecules on both sides, the home universe's
    `form_of` memo, the other universe's `form_apply` memo, and its cache
    of answer molecules for these rows, keyed by sigma0, which a miss
    fills from the table.  A warm move is then a few dict probes.
    """
    home, other = (a, b) if side == 0 else (b, a)
    hu, ou, k = home.universe, other.universe, home.k
    on_home, on_other = home._index, other._index
    pebble_ok = 0 <= pebble < len(state.entries)
    placed = [e for j, e in enumerate(state.entries) if e is not None and j != pebble]
    rows_a = tuple(e.sigma_a for e in placed)
    rows_b = tuple(e.sigma_b for e in placed)
    rows_home, rows_other = (rows_a, rows_b) if side == 0 else (rows_b, rows_a)
    forms = form_of_memo(hu, k)
    applied = form_apply_memo(ou)
    answers = ou.caches.setdefault("duplicator_answer", {}).setdefault(
        (rows_home, rows_other), {}
    )

    def respond(x0: ObjId):
        if x0 not in on_home:
            raise PebbleError(f"object not on the board: {home.literal(x0)}")
        if not pebble_ok:
            raise PebbleError(f"no pebble {pebble}")
        got = forms.get(x0)
        phi0, sigma0 = form_of(hu, x0, k) if got is None else got
        answer = answers.get(sigma0, _UNSEEN)
        if answer is _UNSEEN:
            taus = molecules_by_config(ou, k, rows_other).get(conf((sigma0, *rows_home)))
            answer = answers[sigma0] = None if taus is None else taus[0]
        if answer is None:
            raise NoExtension(
                f"no {home.k}-molecule over {ou.n_atoms} atoms matches "
                f"the pattern of {home.literal(x0)}"
            )
        at = applied.get(answer)
        y0 = None if at is None else at.get(phi0)
        if y0 is None:
            y0 = form_apply(ou, phi0, answer)
        if y0 not in on_other:
            raise NoExtension(
                f"transported object {other.literal(y0)} is not on the board"
            )
        return y0, phi0, sigma0, answer

    return respond


def _placed(
    state: DuplicatorState,
    side: int,
    pebble: int,
    x0: ObjId,
    y0: ObjId,
    phi0: Form,
    sigma0: Molecule,
    answer: Molecule,
) -> DuplicatorState:
    """The state after the spoiler's x0 = (phi0, sigma0) on `side` was
    answered by y0 = (phi0, answer) on the other side."""
    entries = list(state.entries)
    entries[pebble] = (
        PebblePair(phi0, sigma0, answer, x0, y0)
        if side == 0
        else PebblePair(phi0, answer, sigma0, y0, x0)
    )
    return DuplicatorState(tuple(entries))


def duplicator_respond(
    a: GameStructure,
    b: GameStructure,
    state: DuplicatorState,
    side: int,
    pebble: int,
    x0: ObjId,
) -> tuple[DuplicatorState, ObjId]:
    """Answer a spoiler move: pebble `pebble` placed on x0 in A (side 0)
    or B (side 1).  Returns the updated state and the answer object.

    The spoiler's object is decomposed into form and molecule; the lex
    smallest molecule on the other side whose pattern against the other
    placed molecules matches is used to transport the form across (see
    `_responder`, which the verifier calls once per position).
    """
    y0, phi0, sigma0, answer = _responder(a, b, state, side, pebble)(x0)
    return _placed(state, side, pebble, x0, y0, phi0, sigma0, answer), y0


def _compiled_check(a: GameStructure, b: GameStructure, side: int, pairs):
    """`partial_iso` for one more pair, compiled against the others.

    `pairs` are placed (A, B) pairs, pins included, that already form a
    partial isomorphism.  Returns holds(x0, y0): whether they stay one
    once x0 on `side` is paired with y0 on the other side.  Each pair
    (h, o) is bound, in home/other order, with its element tuples, so a
    move costs two `elements` reads and three comparisons per pair: the
    equality and both membership biconditionals of `partial_iso`.
    (When x0 == h and y0 == o, both memberships read false on both
    sides, since no set contains itself.)
    """
    home, other = (a, b) if side == 0 else (b, a)
    he, oe = home.universe.elements, other.universe.elements
    bound = tuple(
        (h, o, he(h), oe(o))
        for h, o in (pairs if side == 0 else ((y, x) for x, y in pairs))
    )

    def holds(x0: ObjId, y0: ObjId) -> bool:
        ex, ey = he(x0), oe(y0)
        for h, o, eh, eo in bound:
            if (
                (x0 == h) != (y0 == o)
                or (h in ex) != (o in ey)
                or (x0 in eh) != (y0 in eo)
            ):
                return False
        return True

    return holds


# -- exhaustive strategy verification ---------------------------------------------

@dataclass
class Move:
    side: str  # "A" or "B"
    pebble: int
    spoiler: ObjId
    response: ObjId | None
    note: str = ""


@dataclass
class GameReport:
    survived: bool
    m: int
    depth: int
    nodes: int
    counterexample: list[Move] = field(default_factory=list)

    def describe(self, a: GameStructure, b: GameStructure) -> list[str]:
        word = "survives" if self.survived else "does not survive"
        out = [
            f"duplicator {word} to depth {self.depth} with {self.m} pebbles "
            f"({self.nodes} spoiler moves examined)"
        ]
        for mv in self.counterexample:
            home, other = (a, b) if mv.side == "A" else (b, a)
            reply = "-" if mv.response is None else other.literal(mv.response)
            out.append(
                f"spoiler {mv.side} pebble {mv.pebble} {home.literal(mv.spoiler)}"
                f" -> {reply}" + (f"  [{mv.note}]" if mv.note else "")
            )
        return out


def _same_shape(a: GameStructure, b: GameStructure):
    if a.k != b.k:
        raise PebbleError(f"molecule widths differ: {a.k} vs {b.k}")
    if a.r is not None and b.r is not None and a.r != b.r:
        raise PebbleError(f"rank cutoffs differ: {a.r} vs {b.r}")


def _compatible(
    a: GameStructure, b: GameStructure, m: int, depth: int, node_budget: int | None
) -> int:
    """Check a game's boards and parameters; return its node cap."""
    _same_shape(a, b)
    if m < 1 or depth < 0:
        raise PebbleError("need at least one pebble and a non-negative depth")
    return resolve_budget(node_budget, DEFAULT_NODE_BUDGET)


def verify_duplicator(
    a: GameStructure,
    b: GameStructure,
    m: int,
    depth: int,
    node_budget: int | None = None,
) -> GameReport:
    """Drive the form strategy through every spoiler sequence of length
    <= depth (both sides, every object, every pebble), checking the
    partial-isomorphism condition after each answer.  Returns success or
    the first counterexample trace found.

    Work that depends only on the position is done once per (position,
    side, pebble), before the loop over the spoiler's objects: the
    responder reads the rows and the memos, and the check is compiled
    against the pins and the other placed pairs.  Each move then answers
    through the responder and runs the compiled check; `partial_iso`
    writes the text of a rejected move, and the state after a move is
    built only when the walk goes deeper."""
    cap = _compatible(a, b, m, depth, node_budget)
    pins = pin_pairs(a, b)
    nodes = 0
    seen: set = set()

    def walk(state: DuplicatorState, depth_left: int):
        nonlocal nodes
        if depth_left == 0:
            return None
        key = (state.key(), depth_left)
        if key in seen:
            return None
        seen.add(key)
        for side, home in ((0, a), (1, b)):
            for i in range(m):
                # the placed pairs around pebble i, in pebble order; they
                # form a partial isomorphism (the pins alone hold in any
                # two universes), so only combinations with the new pair
                # are checked
                head = pins + DuplicatorState(state.entries[:i]).pairs()
                tail = DuplicatorState(state.entries[i + 1:]).pairs()
                respond = _responder(a, b, state, side, i)
                holds = _compiled_check(a, b, side, head + tail)
                for x0 in home.objects:
                    nodes += 1
                    if nodes > cap:
                        raise BudgetExceeded(
                            f"verification exceeded {cap} spoiler moves"
                        )
                    try:
                        y0, phi0, sigma0, answer = respond(x0)
                    except NoExtension as err:
                        return [Move("AB"[side], i, x0, None, str(err))]
                    if not holds(x0, y0):
                        # the text is partial_iso's, the definition
                        pair = (x0, y0) if side == 0 else (y0, x0)
                        reason = partial_iso(a, b, head + (pair,) + tail)
                        return [Move("AB"[side], i, x0, y0, reason)]
                    if depth_left == 1:
                        continue
                    new_state = _placed(state, side, i, x0, y0, phi0, sigma0, answer)
                    rest = walk(new_state, depth_left - 1)
                    if rest is not None:
                        return [Move("AB"[side], i, x0, y0)] + rest
        return None

    try:
        trace = walk(DuplicatorState.fresh(m), depth)
    finally:
        del walk  # it refers to itself through its cell, a cycle holding `seen`
    if trace is None:
        return GameReport(True, m, depth, nodes)
    return GameReport(False, m, depth, nodes, trace)


# -- form-free game solving --------------------------------------------------------

@dataclass
class SolveResult:
    spoiler_wins: bool
    m: int
    depth: int
    nodes: int

    @property
    def duplicator_survives(self) -> bool:
        return not self.spoiler_wins


class _Board:
    """Membership tables for one structure: sparse member and container
    index lists, and bitmasks over board indices for the objects that
    appear in a constraint, built when first asked for and kept."""

    def __init__(self, s: GameStructure):
        self.size = len(s.objects)
        self.full = (1 << self.size) - 1
        u = s.universe
        index = s.index
        self.members = [tuple(map(index, u.elements(x))) for x in s.objects]
        containers: list[list[int]] = [[] for _ in s.objects]
        for i, kids in enumerate(self.members):
            for j in kids:
                containers[j].append(i)
        self.containers = containers
        self._elem: dict[int, int] = {}
        self._cont: dict[int, int] = {}
        self.empty = s.index(u.empty)
        self.one = s.index(u.one) if u.one in s else None

    def elem(self, i: int) -> int:
        """Bits of the members of object i."""
        mask = self._elem.get(i)
        if mask is None:
            mask = self._elem[i] = _bits(self.members[i])
        return mask

    def cont(self, i: int) -> int:
        """Bits of the objects containing object i."""
        mask = self._cont.get(i)
        if mask is None:
            mask = self._cont[i] = _bits(self.containers[i])
        return mask


def _bits(indices) -> int:
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def _response_mask(home: _Board, other: _Board, x0: int, pairs) -> int:
    """Bits of the other side's objects compatible with all constraints.

    Each constraint pair (h, o) demands the three biconditionals of the
    partial-isomorphism condition between (x0, h) and (answer, o).
    """
    mask = other.full
    for h, o in pairs:
        bit = 1 << o
        if x0 == h:
            mask &= bit
        else:
            mask &= ~bit
        mask &= other.elem(o) if home.elem(h) >> x0 & 1 else ~other.elem(o)
        mask &= other.cont(o) if home.cont(h) >> x0 & 1 else ~other.cont(o)
        if not mask:
            return 0
    return mask


def solve_game(
    a: GameStructure,
    b: GameStructure,
    m: int,
    depth: int,
    node_budget: int | None = None,
) -> SolveResult:
    """Backward induction on positions (the placed pairs, pebble order
    forgotten): can the spoiler force a violated biconditional within
    the given number of moves?  Ignores the form strategy entirely.

    Dropping a placed pair only widens the duplicator's options, so the
    spoiler overwrites a pebble only when all m are placed.
    """
    cap = _compatible(a, b, m, depth, node_budget)
    board_a, board_b = _Board(a), _Board(b)
    if board_a.one is None or board_b.one is None:
        raise PebbleError("game structures must contain 0 and 1")
    pins_ab = ((board_a.empty, board_b.empty), (board_a.one, board_b.one))
    pins_ba = tuple((y, x) for x, y in pins_ab)
    sides = (
        (board_a, board_b, pins_ab, False),
        (board_b, board_a, pins_ba, True),
    )
    memo: dict = {}
    nodes = 0

    def wins(pairs: tuple, depth_left: int) -> bool:
        nonlocal nodes
        if depth_left == 0:
            return False
        key = (pairs, depth_left)
        got = memo.get(key)
        if got is not None:
            return got
        victims = range(len(pairs)) if len(pairs) == m else (None,)
        result = False
        for home, other, pins, flipped in sides:
            if result:
                break
            for victim in victims:
                if result:
                    break
                kept = (
                    pairs
                    if victim is None
                    else pairs[:victim] + pairs[victim + 1:]
                )
                constraints = pins + tuple(
                    ((y, x) if flipped else (x, y)) for x, y in kept
                )
                for x0 in range(home.size):
                    nodes += 1
                    if nodes > cap:
                        raise BudgetExceeded(
                            f"game solving exceeded {cap} nodes"
                        )
                    mask = _response_mask(home, other, x0, constraints)
                    if mask == 0:
                        result = True
                        break
                    if depth_left == 1:
                        continue
                    survived = False
                    rest = mask
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        y0 = low.bit_length() - 1
                        pair = (y0, x0) if flipped else (x0, y0)
                        nxt = tuple(sorted(kept + (pair,)))
                        if not wins(nxt, depth_left - 1):
                            survived = True
                            break
                    if not survived:
                        result = True
                        break
        memo[key] = result
        return result

    try:
        spoiler = wins((), depth)
    finally:
        del wins  # it refers to itself through its cell, a cycle holding the boards
    return SolveResult(spoiler, m, depth, nodes)


# -- interactive sessions -----------------------------------------------------------

class GameSession:
    """Holds one game in progress for the line-oriented player."""

    def __init__(self, a: GameStructure, b: GameStructure, m: int):
        _same_shape(a, b)
        if m < 1:
            raise PebbleError("need at least one pebble")
        self.a = a
        self.b = b
        self.m = m
        self.state = DuplicatorState.fresh(m)
        self.moves: list[Move] = []

    def spoiler_move(self, side: str, pebble: int, literal: str) -> Move:
        """Apply one spoiler move given as a side letter, pebble index,
        and object literal; answers with the strategy's response."""
        if side not in ("A", "B"):
            raise PebbleError("side must be A or B")
        idx = 0 if side == "A" else 1
        home = self.a if idx == 0 else self.b
        try:
            x0 = home.universe.parse_literal(literal)
        except Exception as err:
            raise PebbleError(f"bad object literal: {err}") from err
        if x0 not in home:
            raise PebbleError(f"object not on the board: {literal}")
        self.state, y0 = duplicator_respond(self.a, self.b, self.state, idx, pebble, x0)
        reason = partial_iso(self.a, self.b, pin_pairs(self.a, self.b) + self.state.pairs())
        move = Move(side, pebble, x0, y0, reason or "")
        self.moves.append(move)
        return move

    def board_lines(self) -> list[str]:
        return [
            f"pebble {i}: -" if e is None
            else f"pebble {i}: A {self.a.literal(e.x_a)}  |  B {self.b.literal(e.x_b)}"
            for i, e in enumerate(self.state.entries)
        ]
