"""Interned hereditarily finite sets over a fixed finite atom pool.

Every value the rest of the package manipulates is either one of the n
atoms of the current input or a finite set built from atoms and sets.
A Universe owns the intern table: each distinct object gets exactly one
integer handle, so structural equality is handle equality and a set can
be stored as a sorted tuple of child handles.

Conventions baked in here and relied on everywhere else:

* atoms are interned first and atom i has handle i;
* the empty set has the distinguished handle ``Universe.empty`` and
  encodes both logical false and the default value of every unset
  machine location; ``{empty}`` has handle ``Universe.one`` and encodes
  true;
* the canonical order on handles puts atoms first (by index), then sets
  ordered lexicographically by their sorted child sequences -- valid
  because children are always interned before their parents;
* ``rank`` is 0 for atoms and the empty set, else 1 + the maximal rank
  of an element;
* ``tc(x)`` is the least transitive set containing x (so it includes x
  itself);
* permutations act on atoms by relabelling and extend to sets
  element-wise.

A Universe is not thread-safe; use one per thread of work.  Different
atom counts require different universes, and handles are only
meaningful within the universe that produced them.
"""

from __future__ import annotations

import itertools

# Handles into a Universe's intern table, and atom indices.  Atom i has
# handle i, so AtomId values are valid ObjIds.
ObjId = int
AtomId = int

# A permutation of n atoms as an image tuple: p[i] is the image of atom i.
Perm = tuple[int, ...]

_ATOM = 0
_SET = 1


class HFError(Exception):
    """Raised for malformed literals or foreign handles."""


class Universe:
    """Intern table for hereditarily finite objects over n atoms."""

    def __init__(self, n_atoms: int):
        if n_atoms < 0:
            raise HFError("atom count must be non-negative")
        self.n_atoms = n_atoms
        self._kind: list[int] = []
        self._payload: list = []        # atom index, or sorted child tuple
        self._key: list = []            # canonical sort key, built bottom-up
        self._rank: list[int | None] = []
        self._tc: list[tuple[ObjId, ...] | None] = []
        self._set_table: dict[tuple[ObjId, ...], ObjId] = {}
        self._perm_memo: dict[tuple[Perm, ObjId], ObjId] = {}
        # scratch space for other modules' per-universe memo tables
        self.caches: dict[str, dict] = {}
        for i in range(n_atoms):
            self._add(_ATOM, i, (0, i))
        self.empty: ObjId = self._intern_set(())
        self.one: ObjId = self._intern_set((self.empty,))
        self._atoms_tuple = tuple(range(n_atoms))
        self._atoms_set: ObjId | None = None  # interned on first use

    def _add(self, kind: int, payload, key) -> ObjId:
        self._kind.append(kind)
        self._payload.append(payload)
        self._key.append(key)
        self._rank.append(None)
        self._tc.append(None)
        return len(self._kind) - 1

    def _intern_set(self, children: tuple[ObjId, ...]) -> ObjId:
        got = self._set_table.get(children)
        if got is not None:
            return got
        key = (1, tuple(self._key[c] for c in children))
        x = self._add(_SET, children, key)
        self._set_table[children] = x
        return x

    # -- basic accessors -------------------------------------------------

    def size(self) -> int:
        """Number of objects interned so far (used for budget checks)."""
        return len(self._kind)

    def is_atom(self, x: ObjId) -> bool:
        return self._kind[x] == _ATOM

    def is_set(self, x: ObjId) -> bool:
        return self._kind[x] == _SET

    def atom(self, i: AtomId) -> ObjId:
        if not 0 <= i < self.n_atoms:
            raise HFError(f"no atom a{i} in a universe of {self.n_atoms} atoms")
        return i

    def atoms(self) -> tuple[ObjId, ...]:
        return self._atoms_tuple

    def atom_index(self, x: ObjId) -> AtomId:
        if self._kind[x] != _ATOM:
            raise HFError("not an atom")
        return self._payload[x]

    def elements(self, x: ObjId) -> tuple[ObjId, ...]:
        """Children of a set in canonical order; atoms have no elements."""
        if self._kind[x] == _ATOM:
            return ()
        return self._payload[x]

    def contains(self, x: ObjId, e: ObjId) -> bool:
        """Membership e in x; false whenever x is an atom."""
        return self._kind[x] == _SET and e in self._payload[x]

    def sort_key(self, x: ObjId):
        return self._key[x]

    # -- constructors ----------------------------------------------------

    def mk_set(self, elems) -> ObjId:
        """Intern the set of the given handles (duplicates collapse)."""
        children = tuple(sorted(set(elems), key=self._key.__getitem__))
        return self._intern_set(children)

    def atoms_set(self) -> ObjId:
        """The set of all atoms."""
        if self._atoms_set is None:
            self._atoms_set = self.mk_set(self._atoms_tuple)
        return self._atoms_set

    # -- structure -------------------------------------------------------

    def rank(self, x: ObjId) -> int:
        """0 for atoms and the empty set, else 1 + max rank of elements."""
        r = self._rank[x]
        if r is not None:
            return r
        if self._kind[x] == _ATOM or not self._payload[x]:
            r = 0
        else:
            r = 1 + max(self.rank(c) for c in self._payload[x])
        self._rank[x] = r
        return r

    def tc(self, x: ObjId) -> tuple[ObjId, ...]:
        """Transitive closure of x, including x itself, in canonical order."""
        t = self._tc[x]
        if t is not None:
            return t
        acc = {x}
        if self._kind[x] == _SET:
            for c in self._payload[x]:
                acc.update(self.tc(c))
        t = tuple(sorted(acc, key=self._key.__getitem__))
        self._tc[x] = t
        return t

    # -- permutation action ----------------------------------------------

    def apply_perm(self, p: Perm, x: ObjId) -> ObjId:
        """Relabel atoms of x by p, extended structurally to sets."""
        if len(p) != self.n_atoms:
            raise HFError("permutation length does not match atom count")
        memo = self._perm_memo
        got = memo.get((p, x))
        if got is not None:
            return got
        if self._kind[x] == _ATOM:
            y = p[self._payload[x]]
        else:
            y = self.mk_set(self.apply_perm(p, c) for c in self._payload[x])
        memo[(p, x)] = y
        return y

    # -- literals ----------------------------------------------------------

    def format_literal(self, x: ObjId) -> str:
        """Textual form: atoms a0, a1, ...; 0 for {}; 1 for {{}}; braces else."""
        if self._kind[x] == _ATOM:
            return f"a{self._payload[x]}"
        if x == self.empty:
            return "0"
        if x == self.one:
            return "1"
        return "{" + ", ".join(self.format_literal(c) for c in self._payload[x]) + "}"

    def parse_literal(self, text: str) -> ObjId:
        x, pos = self._parse_lit(text, 0)
        pos = _skip_ws(text, pos)
        if pos != len(text):
            raise HFError(f"trailing junk in object literal at offset {pos}: {text!r}")
        return x

    def _parse_lit(self, s: str, pos: int) -> tuple[ObjId, int]:
        pos = _skip_ws(s, pos)
        if pos >= len(s):
            raise HFError("unexpected end of object literal")
        c = s[pos]
        if c == "0":
            return self.empty, pos + 1
        if c == "1":
            return self.one, pos + 1
        if c == "a":
            j = pos + 1
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == pos + 1:
                raise HFError(f"bad atom literal at offset {pos}: {s!r}")
            return self.atom(int(s[pos + 1:j])), j
        if c == "{":
            pos = _skip_ws(s, pos + 1)
            elems = []
            if pos < len(s) and s[pos] == "}":
                return self.mk_set(()), pos + 1
            while True:
                e, pos = self._parse_lit(s, pos)
                elems.append(e)
                pos = _skip_ws(s, pos)
                if pos >= len(s):
                    raise HFError("unterminated set literal")
                if s[pos] == ",":
                    pos += 1
                    continue
                if s[pos] == "}":
                    return self.mk_set(elems), pos + 1
                raise HFError(f"expected ',' or '}}' at offset {pos} in {s!r}")
        raise HFError(f"bad object literal at offset {pos}: {s!r}")


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


# -- permutations as image tuples -----------------------------------------

def identity_perm(n: int) -> Perm:
    return tuple(range(n))

def transposition(n: int, i: int, j: int) -> Perm:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)

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
