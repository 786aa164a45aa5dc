"""Interned hereditarily finite sets over a fixed finite atom pool.

Every value the rest of the package manipulates is either one of the n
atoms of the current input or a finite set built from atoms and sets.
A Universe owns the intern table: each distinct object gets exactly one
integer handle, so structural equality is handle equality and a set can
be stored as a sorted tuple of child handles.

Conventions baked in here and relied on everywhere else:

* atoms are interned first and atom i has handle i, so a handle is an
  atom exactly when it is below the atom count; an atom has no children;
* the empty set has the distinguished handle ``Universe.empty`` and
  encodes both logical false and the default value of every unset
  machine location; ``{empty}`` has handle ``Universe.one`` and encodes
  true;
* the canonical order on handles puts atoms first (by index), then sets
  ordered lexicographically by their sorted child sequences, a prefix
  first -- valid because children are always interned before their
  parents;
* the canonical order is kept as a set of integer order labels, one per
  object, that compare as their objects do, so a comparison costs O(1)
  whatever the ranks.  A new set is pending, without a label, until an
  order is first asked for; then every pending set is labelled, which
  may renumber the labels of all sets.  ``sort_key(x)`` returns x's
  label, so its values can be compared only until the next object is
  interned: compute and compare them within one ``sorted`` call;
* ``rank`` is 0 for atoms and the empty set, else 1 + the maximal rank
  of an element;
* ``tc(x)`` is the least transitive set containing x (so it includes x
  itself);
* permutations act on atoms by relabelling and extend to sets
  element-wise.  The action is stored per transposition: ``swap`` keeps
  one image map per pair of atoms a < b in ``caches``, at most one entry
  per object, which ``swap_map`` hands out for direct reads, and
  ``apply_perm`` swaps once per factor of a permutation.

A Universe is not thread-safe; use one per thread of work.  Different
atom counts require different universes, and handles are only
meaningful within the universe that produced them.
"""

from __future__ import annotations

import bisect
import itertools

# Handles into a Universe's intern table, and atom indices.  Atom i has
# handle i, so AtomId values are valid ObjIds.
ObjId = int
AtomId = int

# A permutation of n atoms as an image tuple: p[i] is the image of atom i.
Perm = tuple[int, ...]

# Atoms are labelled 1..n; sets get labels above n, spread _GAP apart
# whenever they are relabelled, so that sets placed one by one can take
# midpoints between neighbours for a while before the next relabel.
_GAP = 1 << 32


class HFError(Exception):
    """Raised for malformed literals or foreign handles."""


class Universe:
    """Intern table for hereditarily finite objects over n atoms."""

    def __init__(self, n_atoms: int):
        if n_atoms < 0:
            raise HFError("atom count must be non-negative")
        self.n_atoms = n_atoms
        self._payload: list[tuple[ObjId, ...]] = []  # sorted children; () for atoms
        self._label: list[int | None] = []  # order label; None while pending
        self._order: list[ObjId] = []   # labelled sets, in canonical order
        self._pending: list[ObjId] = []  # unlabelled sets, in creation order
        self._rank: list[int | None] = []
        self._set_table: dict[tuple[ObjId, ...], ObjId] = {}
        # per-universe memo tables: the swap maps, and other modules' tables
        self.caches: dict[str, dict] = {}
        for i in range(n_atoms):
            self._add((), i + 1)
        self.empty: ObjId = self._intern_set(())
        self.one: ObjId = self._intern_set((self.empty,))
        self._order, self._pending = [self.empty, self.one], []  # {} < {{}}
        self._relabel()
        self._atoms_tuple = tuple(range(n_atoms))
        self._atoms_set: ObjId | None = None  # interned on first use

    def _add(self, children: tuple[ObjId, ...], label: int | None) -> ObjId:
        self._payload.append(children)
        self._label.append(label)
        self._rank.append(None if children else 0)
        return len(self._payload) - 1

    def _intern_set(self, children: tuple[ObjId, ...]) -> ObjId:
        got = self._set_table.get(children)
        if got is not None:
            return got
        x = self._add(children, None)
        self._set_table[children] = x
        self._pending.append(x)
        return x

    # -- canonical order -------------------------------------------------

    def _canonical(self, objs) -> tuple[ObjId, ...]:
        """The given handles in canonical order, labelling pending sets first
        if one is among them (comparing its None label raises TypeError)."""
        try:
            return tuple(sorted(objs, key=self._label.__getitem__))
        except TypeError:
            self._settle()
            return tuple(sorted(objs, key=self._label.__getitem__))

    def _settle(self) -> None:
        """Label every pending set.

        A labelled set sorts by its children's labels.  A batch whose
        children all carry labels is sorted once and merged in when that
        takes fewer sort keys than placing each set by bisection; any
        other batch is placed set by set, in creation order, so that
        children are labelled before their parents.
        """
        pending, self._pending = self._pending, []
        label, payload, order = self._label, self._payload, self._order
        get = label.__getitem__

        def key(y: ObjId) -> tuple[int, ...]:
            return tuple(map(get, payload[y]))

        if len(pending) * len(order).bit_length() >= len(order) and all(
            label[c] is not None for x in pending for c in payload[x]
        ):
            order.extend(pending)
            order.sort(key=key)
            self._relabel()
            return
        for x in pending:
            i = bisect.bisect_left(order, key(x), key=key)
            lo = label[order[i - 1]] if i else self.n_atoms
            hi = label[order[i]] if i < len(order) else lo + 2 * _GAP
            order.insert(i, x)
            if hi - lo < 2:
                self._relabel()
            else:
                label[x] = (lo + hi) // 2

    def _relabel(self) -> None:
        """Spread the set labels _GAP apart again, keeping their order."""
        label = self._label
        base = self.n_atoms
        for i, x in enumerate(self._order, 1):
            label[x] = base + i * _GAP

    # -- basic accessors -------------------------------------------------

    def size(self) -> int:
        """Number of objects interned so far (used for budget checks)."""
        return len(self._payload)

    def is_atom(self, x: ObjId) -> bool:
        return x < self.n_atoms

    def atom(self, i: AtomId) -> ObjId:
        if not 0 <= i < self.n_atoms:
            raise HFError(f"no atom a{i} in a universe of {self.n_atoms} atoms")
        return i

    def atoms(self) -> tuple[ObjId, ...]:
        return self._atoms_tuple

    def atom_index(self, x: ObjId) -> AtomId:
        if not 0 <= x < self.n_atoms:
            raise HFError("not an atom")
        return x

    def elements(self, x: ObjId) -> tuple[ObjId, ...]:
        """Children of a set in canonical order; atoms have no elements."""
        return self._payload[x]

    def contains(self, x: ObjId, e: ObjId) -> bool:
        """Membership e in x; false whenever x is an atom."""
        return e in self._payload[x]

    def sort_key(self, x: ObjId) -> int:
        """x's order label; valid only until the next object is interned."""
        if self._pending:
            self._settle()
        return self._label[x]

    # -- constructors ----------------------------------------------------

    def mk_set(self, elems) -> ObjId:
        """Intern the set of the given handles (duplicates collapse)."""
        return self._intern_set(self._canonical(set(elems)))

    def atoms_set(self) -> ObjId:
        """The set of all atoms."""
        if self._atoms_set is None:
            self._atoms_set = self.mk_set(self._atoms_tuple)
        return self._atoms_set

    # -- structure -------------------------------------------------------

    def rank(self, x: ObjId) -> int:
        """0 for atoms and the empty set, else 1 + max rank of elements."""
        ranks = self._rank
        if ranks[x] is None:
            payload = self._payload
            stack = [x]
            while stack:
                y = stack[-1]
                todo = [c for c in payload[y] if ranks[c] is None]
                if todo:
                    stack.extend(todo)
                else:
                    ranks[y] = 1 + max(map(ranks.__getitem__, payload[y])) if payload[y] else 0
                    stack.pop()
        return ranks[x]

    def tc(self, x: ObjId) -> tuple[ObjId, ...]:
        """Transitive closure of x, including x itself, in canonical order."""
        payload = self._payload
        acc = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for c in payload[y]:
                if c not in acc:
                    acc.add(c)
                    stack.append(c)
        return self._canonical(acc)

    # -- permutation action ----------------------------------------------

    def swap_map(self, a: AtomId, b: AtomId) -> dict[ObjId, ObjId]:
        """The image map of the transposition of atoms a < b, made on first
        use: object -> image, for the objects `swap` has mapped so far.
        Callers may read it; a miss goes through `swap`."""
        memo = self.caches.get(("swap", a, b))
        if memo is None:
            if not 0 <= a < b < self.n_atoms:
                raise HFError(f"no transposition of atoms {a}, {b} over {self.n_atoms} atoms")
            memo = self.caches["swap", a, b] = {}
        return memo

    def swap(self, a: AtomId, b: AtomId, x: ObjId) -> ObjId:
        """The image of x under the transposition of atoms a < b."""
        # one probe on the hot path; swap_map only on the map's first use
        memo = self.caches.get(("swap", a, b))
        if memo is None:
            memo = self.swap_map(a, b)
        got = memo.get(x)
        if got is not None:
            return got
        n, payload = self.n_atoms, self._payload
        stack = [x]
        while stack:
            y = stack[-1]
            if y in memo:
                stack.pop()
            elif y < n:
                memo[y] = b if y == a else a if y == b else y  # atom i has handle i
                stack.pop()
            else:
                todo = [c for c in payload[y] if c not in memo]
                if todo:
                    stack.extend(todo)
                else:
                    memo[y] = self.mk_set(map(memo.__getitem__, payload[y]))
                    stack.pop()
        return memo[x]

    def apply_perm(self, p: Perm, x: ObjId) -> ObjId:
        """Relabel atoms of x by p, extended structurally to sets."""
        if len(p) != self.n_atoms:
            raise HFError("permutation length does not match atom count")
        for a, b in reversed(transpositions(p)):
            x = self.swap(a, b, x)
        return x

    # -- literals ----------------------------------------------------------

    def format_literal(self, x: ObjId) -> str:
        """Textual form: atoms a0, a1, ...; 0 for {}; 1 for {{}}; braces else."""
        n, payload = self.n_atoms, self._payload
        out: list[str] = []
        stack: list[ObjId | str] = [x]  # objects still to write, and text between them
        while stack:
            y = stack.pop()
            if isinstance(y, str):
                out.append(y)
            elif y < n:
                out.append(f"a{y}")
            elif y == self.empty:
                out.append("0")
            elif y == self.one:
                out.append("1")
            else:
                kids = payload[y]
                out.append("{")
                stack.append("}")
                for c in kids[:0:-1]:
                    stack.append(c)
                    stack.append(", ")
                stack.append(kids[0])
        return "".join(out)

    def parse_literal(self, text: str) -> ObjId:
        x, pos = self._parse_lit(text, 0)
        pos = _skip_ws(text, pos)
        if pos != len(text):
            raise HFError(f"trailing junk in object literal at offset {pos}: {text!r}")
        return x

    def _parse_lit(self, s: str, pos: int) -> tuple[ObjId, int]:
        open_sets: list[list[ObjId]] = []  # members read so far of each unclosed set
        while True:
            pos = _skip_ws(s, pos)
            if pos >= len(s):
                raise HFError("unexpected end of object literal")
            c = s[pos]
            if c == "0":
                x, pos = self.empty, pos + 1
            elif c == "1":
                x, pos = self.one, pos + 1
            elif c == "a":
                j = pos + 1
                while j < len(s) and s[j].isdigit():
                    j += 1
                if j == pos + 1:
                    raise HFError(f"bad atom literal at offset {pos}: {s!r}")
                x, pos = self.atom(int(s[pos + 1:j])), j
            elif c == "{":
                pos = _skip_ws(s, pos + 1)
                if pos < len(s) and s[pos] == "}":
                    x, pos = self.empty, pos + 1
                else:
                    open_sets.append([])
                    continue
            else:
                raise HFError(f"bad object literal at offset {pos}: {s!r}")
            # x is complete: add it to the innermost open set, closing sets
            # for as long as a '}' follows
            while open_sets:
                open_sets[-1].append(x)
                pos = _skip_ws(s, pos)
                if pos >= len(s):
                    raise HFError("unterminated set literal")
                if s[pos] == ",":
                    pos += 1
                    break
                if s[pos] != "}":
                    raise HFError(f"expected ',' or '}}' at offset {pos} in {s!r}")
                x, pos = self.mk_set(open_sets.pop()), pos + 1
            if not open_sets:
                return x, pos


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


# -- permutations as image tuples -----------------------------------------

def transposition(n: int, i: int, j: int) -> Perm:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)

def transpositions(p: Perm) -> list[tuple[AtomId, AtomId]]:
    """Pairs (a, b), a < b, whose transpositions compose to p in list order.

    The product t1 . t2 . ... . tk is p, so p acts as the last factor
    first.  There are at most len(p) - 1 factors, none for the identity.
    """
    n = len(p)
    if sorted(p) != list(range(n)):
        raise HFError(f"not a permutation of {n} atoms: {p!r}")
    q, where, out = list(p), list(invert(p)), []
    for i, v in enumerate(q):
        if v != i:  # then v > i: the values below i sit at their own positions
            q[where[i]], where[v] = v, where[i]  # exchange the values i and v
            out.append((i, v))
    return out

def compose(p: Perm, q: Perm) -> Perm:
    """compose(p, q) acts as p after q: (p . q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(q)))

def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)

def all_perms(n: int):
    """All n! permutations in lexicographic order of image tuples."""
    return itertools.permutations(range(n))
