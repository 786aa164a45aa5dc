"""Support sets, k-forms, and rank-bounded symmetric fragments.

The execution modules treat hereditarily finite objects as opaque
values; this module studies how the symmetric group on the atoms acts
on them.  A set X of atoms supports an object y when every permutation
fixing X pointwise fixes y.  An object is k-symmetric when every member
of its transitive closure (itself included) has a support of at most k
atoms.  Such objects decompose as ``form_apply(phi, sigma)`` for a
k-form ``phi`` and a k-molecule ``sigma`` (an injective atom tuple);
the collection of all k-symmetric objects up to a rank cutoff is a
finite membership structure consumed by the pebble-game and logic
layers.

Everything is deterministic: atom subsets are scanned smallest-first
and lexicographically within a size, orbit enumeration follows the
canonical object order, and the builders enforce an object-count budget
(the CPS_BUDGET environment variable overrides the default) because
fragment sizes grow doubly exponentially in the rank cutoff.

Forms are interned: `mk_node` keeps one live object per set of
(child, configuration) pairs, and `Leaf(p)` one per position, so equal
forms are the same object and compare and hash by identity.  The
intern table holds its nodes weakly, keyed by each node's own canonical
pair tuple: a form lives as long as something uses it (a memo of a
universe, a caller) and no longer.  Configurations are interned too:
`make_config` returns the one Config of each (ell, k, blocks), and
`conf` goes through it, so a Config also compares by identity.  `conf`
is the one test of whether molecules share an equality pattern:
`molecules_by_config` groups molecules by it, for `form_apply` and for
the duplicator's answers in `pebble`.

Decomposing and applying forms reads per-molecule rows, kept in the
universe's caches, instead of re-deriving per element what depends only
on a child and a molecule.  Each first support has one padded molecule.
`form_of` keeps, per molecule sigma, a row from child object to its
pair (child form, configuration against sigma), so a set costs one
probe per member; `form_apply` keeps, per molecule, a row from pair to
the child's values at every molecule that induces the pair's
configuration against it, so a node costs one probe per pair and one
`mk_set`.  Neither fills the other's memo.

A fragment build records the first support of every set it generates
in the one record `support_within` keeps, so only objects from
elsewhere are scanned.  The build tries candidate fixed sets in the
scan's own order, by size and then lexicographically, and a union of
stabilizer orbits comes up exactly at the fixed sets that support it:
the first one it comes up at is the one the scan would return.
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
from dataclasses import dataclass

from .hf import AtomId, HFError, ObjId, Perm, Universe, transpositions

DEFAULT_BUDGET = 200_000

# k-molecule: k pairwise distinct atom indices.
Molecule = tuple[AtomId, ...]


class SymmetryError(Exception):
    """Malformed molecules, configurations, forms, or fragment data."""


class NoSmallSupport(SymmetryError):
    """No support of size < n/2 exists, so the minimal one is undefined."""

    def __init__(self, obj: ObjId, n: int):
        super().__init__(f"object {obj} has no support smaller than {n}/2 atoms")
        self.obj = obj


class NotKSymmetric(SymmetryError):
    """A transitive member of the object has no support of size <= k."""

    def __init__(self, witness: ObjId, k: int):
        super().__init__(f"transitive member {witness} has no support of size <= {k}")
        self.witness = witness


class NotEnoughAtoms(SymmetryError):
    """The universe has fewer atoms than the construction needs."""


class BudgetExceeded(SymmetryError):
    """An enumeration would overrun the configured object-count budget."""


class InputDependence(SymmetryError):
    """In/Eq tables differed between two atom counts; carries the witness."""

    def __init__(self, witness):
        super().__init__(f"In/Eq tables differ between sample sizes at {witness}")
        self.witness = witness


def resolve_budget(budget: int | None, default: int = DEFAULT_BUDGET) -> int:
    """An explicit budget wins, then CPS_BUDGET, then the caller's default."""
    if budget is not None:
        return budget
    return int(os.environ.get("CPS_BUDGET", default))


# -- supports ---------------------------------------------------------------

def is_support(u: Universe, support, obj: ObjId) -> bool:
    """True iff every permutation fixing `support` pointwise fixes obj.

    Transpositions of two atoms outside the support set generate the
    whole pointwise stabilizer, so checking them is exact.
    """
    inside = set(support)
    outside = [a for a in range(u.n_atoms) if a not in inside]
    return all(u.swap(a, b, obj) == obj for a, b in itertools.combinations(outside, 2))


def _first_support(u: Universe, obj: ObjId, max_size: int) -> frozenset[AtomId] | None:
    """Smallest, then lexicographically first, support of size <= max_size."""
    for size in range(max_size + 1):
        for cand in itertools.combinations(range(u.n_atoms), size):
            if is_support(u, cand, obj):
                return frozenset(cand)
    return None


def min_support(u: Universe, obj: ObjId) -> frozenset[AtomId]:
    """The unique minimal support, defined when a support of size < n/2 exists.

    Scans subsets by increasing size, lexicographically within a size.
    The first support found is already the intersection of all supports
    of size < n/2: any two such supports leave an atom outside their
    union, so their intersection is again a support, which forces every
    small support to contain the smallest one.
    """
    found = support_within(u, obj, (u.n_atoms - 1) // 2)  # sizes < n/2
    if found is None:
        raise NoSmallSupport(obj, u.n_atoms)
    return found


def support_within(u: Universe, obj: ObjId, k: int) -> frozenset[AtomId] | None:
    """Smallest (then lexicographically first) support of size <= k, or None.

    Unlike min_support this stays defined when k >= n/2; the result is
    then a deterministic choice among possibly incomparable supports.
    The scan order does not depend on k, so a scan capped at k returns
    the first support overall when it has at most k atoms.  u keeps one
    record of the first supports found, which `build_fragment` also
    fills, so objects of a built fragment skip the scan at every k.
    """
    memo = u.caches.setdefault("first_support", {})
    found = memo.get(obj)
    if found is not None:
        return found if len(found) <= k else None
    found = _first_support(u, obj, min(k, u.n_atoms))
    if found is not None:
        memo[obj] = found
    return found


@dataclass
class SupportReport:
    """Per-object minimal supports of a run's active objects."""

    universe: Universe
    n: int
    k: int
    bound: int
    binomial_ok: bool  # C(n, k+1) > n^k at this n
    supports: dict[ObjId, frozenset[AtomId] | None]
    violations: list[tuple[ObjId, int | None]]
    undetermined: list[ObjId]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        u = self.universe
        cmp = ">" if self.binomial_ok else "<="
        out = [
            f"support-theorem n={self.n} k={self.k} bound={self.bound} "
            f"active={len(self.supports)}",
            f"binomial C({self.n},{self.k + 1}) {cmp} {self.n}^{self.k}: "
            f"{math.comb(self.n, self.k + 1)} vs {self.n ** self.k}"
            f" ({'hypothesis met' if self.binomial_ok else 'hypothesis not met'})",
        ]
        for obj in sorted(self.supports, key=u.sort_key):
            supp = self.supports[obj]
            shown = (
                "undefined" if supp is None
                else "{" + ",".join(f"a{i}" for i in sorted(supp)) + "}"
            )
            size = "-" if supp is None else str(len(supp))
            out.append(f"object {u.format_literal(obj)} supp={shown} size={size}")
        if self.violations:
            for obj, size in self.violations:
                shown = "undefined" if size is None else str(size)
                out.append(
                    f"violation {u.format_literal(obj)} support size {shown} > {self.k}"
                )
        else:
            out.append("violations: none")
        return out


def check_support_theorem(trace, k: int) -> SupportReport:
    """Minimal supports of every active object of a monitored run.

    Report-only: objects with supports larger than k (or with no small
    support at all, which for k < n/2 is also a violation) are listed,
    along with whether C(n, k+1) > n^k holds at this atom count.
    """
    state = trace.final_state
    u = state.universe
    n = u.n_atoms
    supports: dict[ObjId, frozenset[AtomId] | None] = {}
    violations: list[tuple[ObjId, int | None]] = []
    undetermined: list[ObjId] = []
    for obj in sorted(trace.active_union(), key=u.sort_key):
        try:
            supp = min_support(u, obj)
        except NoSmallSupport:
            supports[obj] = None
            if 2 * k < n:
                violations.append((obj, None))  # no support of size <= k either
            else:
                undetermined.append(obj)
            continue
        supports[obj] = supp
        if len(supp) > k:
            violations.append((obj, len(supp)))
    return SupportReport(
        universe=u,
        n=n,
        k=k,
        bound=trace.bound,
        binomial_ok=math.comb(n, k + 1) > n ** k,
        supports=supports,
        violations=violations,
        undetermined=undetermined,
    )


def smallest_n_binomial(k: int, limit: int = 1_000_000) -> int:
    """Smallest n with C(n, k+1) > n^k, by upward scan."""
    for n in range(1, limit):
        if math.comb(n, k + 1) > n ** k:
            return n
    raise SymmetryError(f"no n below {limit} satisfies C(n,{k + 1}) > n^{k}")


# -- molecules and configurations -------------------------------------------

def check_molecule(u: Universe, mol) -> Molecule:
    mol = tuple(mol)
    if len(set(mol)) != len(mol):
        raise SymmetryError(f"molecule atoms must be distinct: {mol}")
    for a in mol:
        if not 0 <= a < u.n_atoms:
            raise SymmetryError(f"atom index {a} out of range for n={u.n_atoms}")
    return mol


def padded_molecule(u: Universe, support, k: int) -> Molecule:
    """The support in atom order, padded with the smallest outside atoms."""
    supp = sorted(support)
    if len(supp) > k:
        raise SymmetryError(f"support {supp} larger than k={k}")
    inside = set(supp)
    pad = [a for a in range(u.n_atoms) if a not in inside]
    need = k - len(supp)
    if need > len(pad):
        raise NotEnoughAtoms(f"cannot pad a molecule to length {k} over {u.n_atoms} atoms")
    return tuple(supp + pad[:need])


@dataclass(frozen=True, eq=False)
class Config:
    """Equality pattern of ell k-molecules: a partition of the ell x k grid.

    Cells (i, p) and (j, q) share a block iff molecule i at position p
    names the same atom as molecule j at position q.  Within one
    molecule the atoms are distinct, so a block never holds two cells
    of the same row.  Blocks are canonical: sorted internally and by
    their smallest cell.

    Interned: `make_config` returns the one Config for each (ell, k,
    blocks), built and validated on the first request, and `conf` goes
    through it.  So equal configurations are one object, and a Config,
    like a form, compares and hashes by identity.
    """

    ell: int
    k: int
    blocks: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        grid = {(i, p) for i in range(self.ell) for p in range(self.k)}
        seen: set[tuple[int, int]] = set()
        for block in self.blocks:
            if not block:
                raise SymmetryError("empty block in configuration")
            rows = [i for i, _ in block]
            if len(set(rows)) != len(rows):
                raise SymmetryError("block repeats a row; molecules are injective")
            for cell in block:
                if cell in seen:
                    raise SymmetryError(f"cell {cell} in two blocks")
                seen.add(cell)
        if seen != grid:
            raise SymmetryError("blocks do not cover the grid exactly")
        canon = tuple(tuple(sorted(b)) for b in self.blocks)
        if tuple(sorted(canon, key=lambda b: b[0])) != self.blocks:
            raise SymmetryError("blocks not in canonical order; use make_config")

    @property
    def classes(self) -> int:
        return len(self.blocks)


# The one Config of each (ell, k, canonical blocks).  Shared by the whole
# process: an entry is immutable and depends on its key alone.
_MADE: dict[tuple, Config] = {}


def make_config(ell: int, k: int, blocks) -> Config:
    """The interned configuration with these blocks, in any order."""
    canon = tuple(sorted((tuple(sorted(tuple(c) for c in b)) for b in blocks),
                         key=lambda b: b[0]))
    got = _MADE.get((ell, k, canon))
    if got is None:
        got = _MADE[ell, k, canon] = Config(ell, k, canon)
    return got


# Configurations by pattern: the molecules with their atoms renamed by
# first occurrence.  Holds one entry per configuration of ell k-molecules
# asked for so far, whatever the atom count.
_CONFIGS: dict[tuple[Molecule, ...], Config] = {}


def conf(molecules) -> Config:
    """The configuration induced by atom equality across the molecules.

    Interned: molecules with the same equality pattern get the same
    Config object, the one `make_config` returns for its blocks.
    """
    mols = [tuple(m) for m in molecules]
    if not mols:
        raise SymmetryError("conf needs at least one molecule")
    k = len(mols[0])
    names: dict[AtomId, int] = {}
    key = []
    for m in mols:
        if len(m) != k:
            raise SymmetryError("molecules must share one length")
        if len(set(m)) != k:
            raise SymmetryError(f"molecule atoms must be distinct: {m}")
        key.append(tuple([names.setdefault(atom, len(names)) for atom in m]))
    key = tuple(key)
    got = _CONFIGS.get(key)
    if got is None:
        groups: list[list[tuple[int, int]]] = [[] for _ in names]
        for i, m in enumerate(key):
            for p, name in enumerate(m):
                groups[name].append((i, p))
        got = _CONFIGS[key] = make_config(len(key), k, groups)
    return got


def realize_config(config: Config, u: Universe) -> tuple[Molecule, ...]:
    """Molecules over the smallest atoms inducing exactly this configuration."""
    if config.classes > u.n_atoms:
        raise NotEnoughAtoms(
            f"{config.classes} classes need {config.classes} atoms, have {u.n_atoms}"
        )
    atom_of_cell: dict[tuple[int, int], int] = {}
    for idx, block in enumerate(config.blocks):
        for cell in block:
            atom_of_cell[cell] = idx
    return tuple(
        tuple(atom_of_cell[(i, p)] for p in range(config.k))
        for i in range(config.ell)
    )


def all_configs2(k: int) -> tuple[Config, ...]:
    """All configurations of two k-molecules, in block order: those of
    (0, ..., k-1) against every k-molecule over 2k atoms, which is room
    for every pattern."""
    lead = tuple(range(k))
    return tuple(sorted(
        {conf((lead, sigma)) for sigma in itertools.permutations(range(2 * k), k)},
        key=lambda c: c.blocks,
    ))


def molecules_by_config(
    u: Universe, k: int, rows: tuple[Molecule, ...]
) -> dict[Config, tuple[Molecule, ...]]:
    """Every k-molecule tau over u's atoms, grouped by conf((tau, *rows)),
    each group in `itertools.permutations` order.  Made once per (k, rows)
    and kept in u's caches; a configuration no molecule induces has no
    entry, and k > n gives an empty table."""
    tables = u.caches.setdefault("molecules_by_config", {})
    got = tables.get((k, rows))
    if got is None:
        groups: dict[Config, list[Molecule]] = {}
        for tau in itertools.permutations(range(u.n_atoms), k):
            groups.setdefault(conf((tau, *rows)), []).append(tau)
        got = tables[k, rows] = {c: tuple(taus) for c, taus in groups.items()}
    return got


# -- forms -------------------------------------------------------------------

# The one Leaf of each position.  Positions are small: at most k per form.
_LEAVES: dict[int, "Leaf"] = {}


class Leaf:
    """Form denoting sigma(pos) for the molecule it is applied to.

    One object per position: ``Leaf(p)`` always returns the same leaf,
    so leaves, like nodes, compare and hash by identity.
    """

    __slots__ = ("pos", "_key")

    def __new__(cls, pos: int) -> "Leaf":
        leaf = _LEAVES.get(pos)
        if leaf is None:
            leaf = _LEAVES[pos] = super().__new__(cls)
            leaf.pos = pos
            leaf._key = (0, pos)
        return leaf

    def __repr__(self) -> str:
        return f"Leaf(pos={self.pos})"


class Node:
    """Form denoting a set: one (child form, two-row configuration) pair
    per class of members, canonically ordered and duplicate-free.

    Built only through `mk_node`, which interns nodes: equal nodes are
    one object, so a node compares and hashes by identity.  `_key`
    serves only `form_key`'s canonical order and is built on first use.
    """

    __slots__ = ("pairs", "_key", "__weakref__")

    def __init__(self, pairs: tuple[tuple["Form", Config], ...]):
        self.pairs = pairs
        self._key = None

    def __repr__(self) -> str:
        return f"Node(pairs={self.pairs!r})"


Form = Leaf | Node


def form_key(phi: Form):
    """The structural key of a form, which orders forms canonically:
    (0, pos) for a leaf, and for a node 1 followed by the child key and
    configuration blocks of each pair, in pair order.

    Built on first use, children first, over an explicit stack so that
    deep forms need no recursion; each node keeps its key."""
    if phi._key is None:
        stack = [phi]
        while stack:
            f = stack[-1]
            todo = [c for c, _ in f.pairs if c._key is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if f._key is None:
                f._key = (1, *itertools.chain.from_iterable(map(_pair_order, f.pairs)))
    return phi._key


def _pair_order(pair: tuple[Form, Config]):
    child = pair[0]
    return (child._key or form_key(child), pair[1].blocks)


class _NodeRef(weakref.ref):
    """A weak reference to an interned node, which knows its table key."""

    __slots__ = ("key",)


# Interned nodes: the one live Node for each set of (child form,
# configuration) pairs, keyed by the node's own canonical `pairs` tuple.
# Children and configurations are interned first, so a key hashes and
# compares by their identities.  Values are weak references: an entry
# goes when its node is no longer used.
_NODES: dict[tuple, _NodeRef] = {}


def _forget(ref: _NodeRef, nodes=_NODES) -> None:
    """Drop a dead node's entry, unless a new node took the key.  The
    table is bound here, as module globals may be gone at exit."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def mk_node(pairs) -> Node:
    """The one live node whose pairs are this set, made on first request.

    The pairs are put in canonical order, by (child key, configuration
    blocks), and that tuple is looked up in the intern table.  The table
    holds nodes weakly, so a form lives exactly as long as something
    else (a universe's memo, a caller) holds it.
    """
    pairs = set(pairs)
    key = tuple(sorted(pairs, key=_pair_order)) if len(pairs) > 1 else tuple(pairs)
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = Node(key)
        ref = _NODES[key] = _NodeRef(node, _forget)
        ref.key = key
    return node


EMPTY_FORM = mk_node(())


def form_rank(phi: Form) -> int:
    """Mirrors object rank: leaves and the empty node are rank 0."""
    ranks: dict[Form, int] = {}
    stack = [phi]
    while stack:
        f = stack[-1]
        if f in ranks:
            stack.pop()
        elif isinstance(f, Leaf) or not f.pairs:
            ranks[f] = 0
            stack.pop()
        else:
            todo = [c for c, _ in f.pairs if c not in ranks]
            if todo:
                stack.extend(todo)
            else:
                ranks[f] = 1 + max(ranks[c] for c, _ in f.pairs)
                stack.pop()
    return ranks[phi]


def format_config(config: Config) -> str:
    blocks = ",".join(
        "[" + ",".join(f"({i},{p})" for i, p in block) + "]"
        for block in config.blocks
    )
    return f"[{blocks}]"


def format_form(phi: Form) -> str:
    """The text of a form, written over an explicit stack so that deep
    forms need no recursion."""
    out: list[str] = []
    stack: list = [phi]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(f"c{item.pos}")
        elif not item.pairs:
            out.append("{}")
        else:
            parts: list = ["{"]
            for i, (f, c) in enumerate(item.pairs):
                parts += [", (" if i else "(", f, f", {format_config(c)})"]
            parts.append("}")
            stack.extend(reversed(parts))
    return "".join(out)


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise SymmetryError(f"expected {ch!r} at offset {self.pos}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SymmetryError(f"expected a number at offset {start}")
        return int(self.text[start:self.pos])


def _parse_cell(cur: _Cursor) -> tuple[int, int]:
    cur.expect("(")
    i = cur.number()
    cur.expect(",")
    p = cur.number()
    cur.expect(")")
    return (i, p)


def _parse_config(cur: _Cursor) -> Config:
    cur.expect("[")
    blocks = []
    while True:
        cur.expect("[")
        cells = [_parse_cell(cur)]
        while cur.peek() == ",":
            cur.expect(",")
            cells.append(_parse_cell(cur))
        cur.expect("]")
        blocks.append(cells)
        if cur.peek() == ",":
            cur.expect(",")
            continue
        break
    cur.expect("]")
    return make_config(
        max(i for b in blocks for i, _ in b) + 1,
        max(p for b in blocks for _, p in b) + 1,
        blocks,
    )


def parse_form(text: str) -> Form:
    """Read a form from its text, over an explicit stack of open nodes
    (each with the pairs read so far), so deep forms need no recursion."""
    cur = _Cursor(text)
    open_nodes: list[list[tuple[Form, Config]]] = []
    while True:
        if cur.peek() == "c":
            cur.expect("c")
            phi = Leaf(cur.number())
        else:
            cur.expect("{")
            if cur.peek() != "}":
                cur.expect("(")
                open_nodes.append([])
                continue
            cur.expect("}")
            phi = EMPTY_FORM
        # phi is complete: it ends a pair of the innermost open node,
        # which either reads its next child or closes in turn
        while open_nodes:
            cur.expect(",")
            open_nodes[-1].append((phi, _parse_config(cur)))
            cur.expect(")")
            if cur.peek() == ",":
                cur.expect(",")
                cur.expect("(")
                break
            cur.expect("}")
            phi = mk_node(open_nodes.pop())
        else:
            break
    cur.skip_ws()
    if cur.pos != len(text):
        raise SymmetryError(f"trailing junk in form literal at offset {cur.pos}")
    return phi


# -- applying and extracting forms -------------------------------------------

def form_apply_memo(u: Universe) -> dict[Molecule, dict[Form, ObjId]]:
    """u's memo of `form_apply`: checked molecule -> form -> object.
    Callers may read it; a miss goes through `form_apply`."""
    return u.caches.setdefault("form_apply", {})


def form_apply(u: Universe, phi: Form, sigma) -> ObjId:
    """Evaluate the form at a molecule: a leaf picks an atom of sigma, a
    node unions each child over every molecule inducing its configuration.
    Memoised per universe by molecule, then form; forms are interned, so
    a probe hashes the form by identity."""
    memo = form_apply_memo(u)
    # only checked molecules reach the memo, so they need no check again
    at = memo.get(sigma) if isinstance(sigma, tuple) else None
    if at is None:
        sigma = check_molecule(u, sigma)
        at = memo[sigma] = {}
    got = at.get(phi)
    if got is not None:
        return got
    if isinstance(phi, Leaf):
        if not 0 <= phi.pos < len(sigma):
            raise SymmetryError(f"leaf position {phi.pos} outside molecule {sigma}")
        got = at[phi] = u.atom(sigma[phi.pos])
        return got
    # the common case, every pair's values known, needs no stack
    rows = u.caches.setdefault("pair_values", {})
    row = rows.get(sigma)
    if row is not None:
        parts = list(map(row.get, phi.pairs))
        if None not in parts:
            got = at[phi] = u.mk_set(itertools.chain.from_iterable(parts))
            return got
    return _apply(u, phi, sigma, memo, rows)


def _apply(u: Universe, phi: Node, sigma: Molecule, memo, rows) -> ObjId:
    """form_apply of a node over an explicit stack of (node, molecule),
    children first.

    A node's value at sig is the set of its pairs' values there.  The
    values of a pair (child, config) at sig, the child's value at every
    molecule that induces config against sig, are kept in the row
    rows[sig] = u.caches["pair_values"][sig], so a node costs one probe
    per pair.  The molecules that induce a configuration against sig
    are its group in `molecules_by_config(u, k, (sig,))`.  A row entry
    is made once the child's values are all known; children still
    missing go on the stack in pair order, then molecule order.
    """
    k = len(sigma)
    stack = [(phi, sigma)]
    while stack:
        node, sig = stack[-1]
        at = memo.get(sig)
        if at is None:
            at = memo[sig] = {}
        elif node in at:
            stack.pop()
            continue
        row = rows.get(sig)
        if row is None:
            row = rows[sig] = {}
        parts = list(map(row.get, node.pairs))
        if None in parts:
            by_config = molecules_by_config(u, k, (sig,))
            missing: list = []
            for i, pair in enumerate(node.pairs):
                if parts[i] is not None:
                    continue
                child, config = pair
                if config.ell != 2 or config.k != k:
                    raise SymmetryError("node configuration is not over two k-molecules")
                taus = by_config.get(config, ())
                if isinstance(child, Leaf):
                    if not 0 <= child.pos < k:
                        raise SymmetryError(f"leaf position {child.pos} outside molecule {sig}")
                    values = tuple([tau[child.pos] for tau in taus])
                else:
                    values = tuple([memo.get(tau, {}).get(child) for tau in taus])
                    if None in values:
                        missing += [(child, tau) for tau, y in zip(taus, values) if y is None]
                        continue
                row[pair] = parts[i] = values
            if missing:
                stack += reversed(missing)
                continue
        at[node] = u.mk_set(itertools.chain.from_iterable(parts))
        stack.pop()
    return memo[sigma][phi]


def form_of_memo(u: Universe, k: int) -> dict[ObjId, tuple[Form, Molecule]]:
    """u's memo of `form_of` at width k: object -> (form, molecule).
    Callers may read it; a miss goes through `form_of`."""
    return u.caches.setdefault(("form_of", k), {})


def form_of(u: Universe, x: ObjId, k: int) -> tuple[Form, Molecule]:
    """Decompose a k-symmetric object as (form, molecule).

    The molecule lists a smallest support in atom order, padded to
    length k with the smallest atoms outside it; children are decomposed
    the same way, first, and record their configuration against the
    parent.  Walks an explicit stack, so deep objects need no recursion.

    Each first support has one molecule, and each molecule sigma one
    row u.caches[("form_pairs", k)][sigma]: child object -> the pair
    (child form, configuration against sigma), made once.  A set whose
    members all have pairs in its row costs one probe per member, and
    the nodes on one molecule share its pair tuples.
    """
    memo = form_of_memo(u, k)
    got = memo.get(x)
    if got is not None:
        return got
    supports = u.caches.setdefault("first_support", {})
    # first support -> (its molecule, the molecule's row)
    sites = u.caches.setdefault(("form_sites", k), {})
    rows = u.caches.setdefault(("form_pairs", k), {})
    stack: list = []

    def site(supp):
        got = sites.get(supp)
        if got is None:
            sigma = padded_molecule(u, supp, k)
            row = rows.get(sigma)
            if row is None:
                row = rows[sigma] = {}
            got = sites[supp] = (sigma, row)
        return got

    def add_pair(row, sigma, e: ObjId) -> tuple[Form, Config]:
        phi, child_sigma = memo[e]
        pair = row[e] = (phi, conf((child_sigma, sigma)))
        return pair

    def enter(y: ObjId) -> bool:
        """Decompose y at once if it is an atom or all its members have
        pairs in its row; else push its frame.  True if pushed."""
        if u.is_atom(y):
            # An atom anchors its own molecule; a vacuous support (every
            # transposition avoiding it is trivial at tiny n) would not
            # contain the atom and leaves no position to point at.
            if k < 1:
                raise NotKSymmetric(y, k)
            a = u.atom_index(y)
            sigma = site(frozenset((a,)))[0]
            memo[y] = (Leaf(sigma.index(a)), sigma)
            return False
        supp = supports.get(y)
        if supp is None or len(supp) > k:
            supp = support_within(u, y, k)
            if supp is None:
                raise NotKSymmetric(y, k)
        sigma, row = sites.get(supp) or site(supp)
        elems = u.elements(y)
        pairs = list(map(row.get, elems))
        if None in pairs:
            stack.append((y, sigma, row, iter(elems), []))
            return True
        memo[y] = (mk_node(pairs), sigma)
        return False

    if not enter(x):
        return memo[x]
    while True:
        y, sigma, row, todo, pairs = stack[-1]
        for e in todo:
            pair = row.get(e)
            if pair is None:
                if e not in memo and enter(e):
                    break
                pair = add_pair(row, sigma, e)
            pairs.append(pair)
        else:
            got = memo[y] = (mk_node(pairs), sigma)
            stack.pop()
            if not stack:
                return got
            # y is the member its parent's loop stopped at
            _, parent_sigma, parent_row, _, parent_pairs = stack[-1]
            parent_pairs.append(add_pair(parent_row, parent_sigma, y))


# -- fragments ----------------------------------------------------------------

def bulk_images(u: Universe, perm: Perm, objects) -> dict[ObjId, ObjId]:
    """Permutation images for a whole object family, mapped through one
    factor of `transpositions(perm)` at a time, the last first."""
    family = tuple(objects)
    images, swap = family, u.swap
    for a, b in reversed(transpositions(perm)):
        # read the transposition's map; only objects not yet in it go
        # through swap, which fills it
        got = list(map(u.swap_map(a, b).get, images))
        if None in got:
            got = [swap(a, b, y) if g is None else g for g, y in zip(got, images)]
        images = got
    return dict(zip(family, images))


def _stabilizer_orbits(u: Universe, fixed, objects) -> list[list[ObjId]]:
    """Orbits of the given objects under permutations fixing `fixed` pointwise.

    The family must be closed under those permutations.  Transpositions
    of two atoms outside the fixed set generate the stabilizer, so the
    orbits are the connected components of the graph joining each object
    to its `Universe.swap` images under them.
    """
    outside = [a for a in range(u.n_atoms) if a not in set(fixed)]
    gens = list(itertools.combinations(outside, 2))
    seen: set[ObjId] = set()
    orbits: list[list[ObjId]] = []
    for start in objects:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for a, b in gens:
                y = u.swap(a, b, x)
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
                    queue.append(y)
        orbits.append(sorted(orbit, key=u.sort_key))
    return orbits


@dataclass
class SymmetricFragment:
    """All k-symmetric objects of rank <= r over n atoms, with membership."""

    universe: Universe
    n: int
    k: int
    r: int
    objects: tuple[ObjId, ...]

    def __post_init__(self):
        self._index = {x: i for i, x in enumerate(self.objects)}

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, x: ObjId) -> bool:
        return x in self._index

    def index(self, x: ObjId) -> int:
        return self._index[x]

    def membership_edges(self):
        """(i, j) pairs with objects[i] an element of objects[j]."""
        for j, x in enumerate(self.objects):
            for e in self.universe.elements(x):
                yield self._index[e], j

    def is_transitive(self) -> bool:
        return all(
            e in self._index
            for x in self.objects
            for e in self.universe.elements(x)
        )

    def is_orbit_closed(self) -> bool:
        """Closure under the transposition generators implies the full group."""
        u = self.universe
        return all(
            u.swap(a, b, x) in self._index
            for a, b in itertools.combinations(range(self.n), 2)
            for x in self.objects
        )

    def export_text(self) -> str:
        u = self.universe
        out = [f"fragment n={self.n} k={self.k} r={self.r}"]
        out.append(f"constant empty {self._index[u.empty]}")
        if u.one in self._index:  # rank-0 fragments stop below {0}
            out.append(f"constant one {self._index[u.one]}")
        for i, x in enumerate(self.objects):
            out.append(f"object {i} {u.format_literal(x)}")
        for i, j in self.membership_edges():
            out.append(f"edge {i} {j}")
        return "\n".join(out) + "\n"


def parse_fragment(text: str) -> SymmetricFragment:
    """Read back `export_text`'s format.  Every fault in the text raises
    SymmetryError, naming the line where there is one."""
    header = None
    consts: dict[str, tuple[int, str]] = {}
    literals: list[tuple[int, str, str]] = []
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *rest = line.split()
        try:
            if kind == "fragment":
                fields = dict(p.split("=", 1) for p in rest)
                header = (int(fields["n"]), int(fields["k"]), int(fields["r"]))
                if min(header) < 0:
                    raise SymmetryError(f"fragment parameters must be non-negative: {line}")
            elif kind == "constant":
                name, idx = rest
                if name not in ("empty", "one"):
                    raise SymmetryError(f"unknown constant: {line}")
                consts[name] = (int(idx), line)
            elif kind == "object":
                idx, *lit = rest
                literals.append((int(idx), " ".join(lit), line))
            elif kind == "edge":
                i, j = rest
                edges.append((int(i), int(j)))
            else:
                raise SymmetryError(f"unrecognized fragment line: {line}")
        except (ValueError, KeyError) as err:
            raise SymmetryError(f"malformed fragment line: {line}") from err
    if header is None:
        raise SymmetryError("missing fragment header line")
    n, k, r = header
    if sorted(i for i, _, _ in literals) != list(range(len(literals))):
        raise SymmetryError("object indices must cover 0..count-1 exactly")
    u = Universe(n)
    objects = [u.empty] * len(literals)
    for i, lit, line in literals:
        try:
            objects[i] = u.parse_literal(lit)
        except HFError as err:
            raise SymmetryError(f"bad object literal ({err}): {line}") from err
    frag = SymmetricFragment(u, n, k, r, tuple(objects))
    for name, (idx, line) in consts.items():
        if not 0 <= idx < len(objects):
            raise SymmetryError(f"constant points at no object: {line}")
        expect = u.empty if name == "empty" else u.one
        if objects[idx] != expect:
            raise SymmetryError(f"constant {name} points at the wrong object")
    if not frag.is_transitive():
        raise SymmetryError("objects are not closed under elements")
    declared = set(edges)
    actual = set(frag.membership_edges())
    if declared != actual:
        raise SymmetryError("edge list disagrees with the object literals")
    return frag


def build_fragment(
    n: int,
    k: int,
    r: int,
    budget: int | None = None,
    universe: Universe | None = None,
) -> SymmetricFragment:
    """All k-symmetric objects of rank <= r over n atoms.

    Level 0 is atoms plus the empty set; each later level adds every
    subset of the accumulated objects that has a support of at most k
    atoms (members are k-symmetric by induction).  A subset supported
    by X is exactly a union of orbits of the pointwise stabilizer of X,
    so the level enumerates orbit unions per candidate X instead of the
    full powerset; the object-count budget caps the enumeration.

    Candidates X come by size, then lexicographically, as in the
    support scan, and a union is generated at exactly the X that support
    it; so the X a set is first generated at is its first support.  The
    build records it in `support_within`'s record at the end of each
    level, and frozenset() for the empty set.  A given universe must
    have exactly n atoms.
    """
    if n < 0 or k < 0 or r < 0:
        raise SymmetryError("fragment parameters must be non-negative")
    if universe is not None and universe.n_atoms != n:
        raise SymmetryError(
            f"universe has {universe.n_atoms} atoms, fragment needs n={n}"
        )
    cap = resolve_budget(budget)
    u = universe if universe is not None else Universe(n)
    acc: set[ObjId] = set(u.atoms())
    acc.add(u.empty)
    ordered = sorted(acc, key=u.sort_key)
    supports = u.caches.setdefault("first_support", {})
    supports.setdefault(u.empty, frozenset())
    for _level in range(r):
        new: dict[ObjId, frozenset[AtomId]] = {}  # each set's first support
        for size in range(min(k, n) + 1):
            for fixed in itertools.combinations(range(n), size):
                support = frozenset(fixed)
                orbits = _stabilizer_orbits(u, fixed, ordered)
                if len(orbits) >= 60 or (1 << len(orbits)) > 4 * cap:
                    raise BudgetExceeded(
                        f"2^{len(orbits)} candidate unions for stabilizer of "
                        f"{fixed} exceed the budget of {cap} objects"
                    )
                for mask in range(1, 1 << len(orbits)):
                    elems: list[ObjId] = []
                    m = mask
                    idx = 0
                    while m:
                        if m & 1:
                            elems.extend(orbits[idx])
                        m >>= 1
                        idx += 1
                    new.setdefault(u.mk_set(elems), support)
                    if len(acc) + len(new) > cap:
                        raise BudgetExceeded(
                            f"fragment ({n},{k},{r}) exceeds the budget of {cap} objects"
                        )
        acc.update(new)
        supports.update(new)  # a set made again at a later level has the same support
        ordered = sorted(acc, key=u.sort_key)
    return SymmetricFragment(u, n, k, r, tuple(ordered))


# -- In/Eq tables --------------------------------------------------------------

def all_forms(k: int, r: int, budget: int | None = None) -> tuple[Form, ...]:
    """Every k-form of rank <= r, budget-capped (counts explode with r)."""
    cap = resolve_budget(budget)
    forms: list[Form] = [Leaf(p) for p in range(k)]
    forms.append(EMPTY_FORM)
    lower = list(forms)
    configs = all_configs2(k)
    for _level in range(r):
        pairs = [(f, c) for f in lower for c in configs]
        if len(pairs) >= 60 or (1 << len(pairs)) > 4 * cap:
            raise BudgetExceeded(
                f"2^{len(pairs)} candidate nodes exceed the budget of {cap} forms"
            )
        fresh: set[Form] = set()
        for m in range(1, 1 << len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if m >> i & 1]
            node = mk_node(chosen)
            if node not in lower:
                fresh.add(node)
            if len(lower) + len(fresh) > cap:
                raise BudgetExceeded(
                    f"forms of rank <= {r} exceed the budget of {cap}"
                )
        lower.extend(sorted(fresh, key=form_key))
    return tuple(sorted(set(lower), key=form_key))


@dataclass
class InEqTables:
    """Membership and equality between applied forms, abstracted over atoms.

    in_rel[(psi, phi, E)] says whether psi * tau lands in phi * sigma
    whenever (tau, sigma) induce E; eq_rel likewise for equality.  Built
    at the smaller sample size and verified identical at the larger one.
    """

    k: int
    n1: int
    n2: int
    forms: tuple[Form, ...]
    configs: tuple[Config, ...]
    in_rel: dict[tuple[Form, Form, Config], bool]
    eq_rel: dict[tuple[Form, Form, Config], bool]


def in_eq_relations(
    k: int,
    n1: int,
    n2: int,
    r: int = 1,
    forms: tuple[Form, ...] | None = None,
    budget: int | None = None,
) -> InEqTables:
    """Build In/Eq over forms of rank <= r at two atom counts and compare.

    Each configuration is realized concretely over the smaller universe
    and again over the larger; any disagreement raises InputDependence,
    since the tables are supposed to be independent of the atom count.
    """
    if not 0 < n1 < n2:
        raise SymmetryError("need sample sizes 0 < n1 < n2")
    if n1 < 2 * k:
        raise SymmetryError(f"two k-molecules need n1 >= {2 * k}")
    if forms is None:
        forms = all_forms(k, r, budget)
    configs = all_configs2(k)
    u1, u2 = Universe(n1), Universe(n2)
    in_rel: dict[tuple[Form, Form, Config], bool] = {}
    eq_rel: dict[tuple[Form, Form, Config], bool] = {}
    for config in configs:
        tau1, sigma1 = realize_config(config, u1)
        tau2, sigma2 = realize_config(config, u2)
        for psi in forms:
            y1 = form_apply(u1, psi, tau1)
            y2 = form_apply(u2, psi, tau2)
            for phi in forms:
                x1 = form_apply(u1, phi, sigma1)
                x2 = form_apply(u2, phi, sigma2)
                got = (u1.contains(x1, y1), y1 == x1)
                again = (u2.contains(x2, y2), y2 == x2)
                if got != again:
                    raise InputDependence((psi, phi, config, got, again))
                in_rel[(psi, phi, config)] = got[0]
                eq_rel[(psi, phi, config)] = got[1]
    return InEqTables(k, n1, n2, tuple(forms), configs, in_rel, eq_rel)
