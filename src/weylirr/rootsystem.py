"""Finite irreducible root systems in Bourbaki numbering.

Provides Cartan data and symmetrizers, the positive-root closure, the
highest short root, the single affine dot-reflection used by the
classifier, Weyl dimensions, minuscule nodes, and the decomposition of
induced subdiagrams into relabeled irreducible pieces.

_diagram is the one statement of the Bourbaki numbering: the edges and
symmetrizers of each type; only RootSystem.__init__ reads it.  A system
keeps its diagram as neighbour lists.  Every reader of the Cartan matrix
needs only its diagonal, which is 2, and its entries on the edges, so those
are kept in a bond mapping with one entry per edge direction, read through
cartan(i, j); a rank-n system holds O(n) data, never an n x n matrix.

A connected piece of a subdiagram is relabeled by matching it against
build(kind, m) for each type of its rank, so the piece's nodes come out in
that type's Bourbaki order with no shape rule of their own.  walk is the
one breadth-first walk of the diagram: the split into pieces, the
relabeling and the short-root determinant all read it, and tree_path reads
the one walk from node 1 that each system keeps.

Construction computes only what the classifier reads: the diagram, the
bonds, the symmetrizers, the highest short root alpha0 with its weight
and its coroot, and the minuscule nodes.  alpha0 is found by a walk to
dominance, not by enumerating roots.  Its coroot is the highest coroot, so
w_i is minuscule exactly when <w_i, alpha0^vee> = c_i d_i is 1; every
alpha0 height reads the stored coroot.  The positive-root closure is
computed on first use, by Weyl dimensions, and cached on the instance;
each root carries its simple-coroot pairings, updated incrementally.

levi_subsystem is a pure function of the system and a node set, so each
instance keeps its answers in a memo keyed by the sorted node set; the
search, the verdict's replay and the JSON replay of one descent then share
one decomposition, as do later requests on the same built system.

systems(max_rank) is the one list of systems up to a rank that the CLI
table and the acceptance checks sweep.  build and systems refuse a rank
that is not an int, as parse_type does.  parse_type, the reader of
command-line types, refuses ranks above MAX_RANK; it and parse_weight
refuse a number of more than _MAX_DIGITS digits before converting it, and
parse_type refuses an int rank that str() cannot print.

Weights are plain integer tuples in the fundamental-weight basis.
RootSystem.check_dominant is the one statement of the weight rule: it
refuses a coordinate that is not an int (through int_weight) and a weight
that is not dominant.  is_minuscule, the Weyl dimension, the alcove test,
the witness search and the trace replay call it.  The search calls it
once, on the weight it is given, and tests that weight and every
restricted one its descents reach with the unchecked _is_minuscule.
dot_reflect_alpha0 takes any int weight, so it calls int_weight alone.
Roots carry their simple-root coordinates.  Short roots are normalized
to squared length 2, so in simply-laced systems every root counts as
short.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from operator import mul
from types import MappingProxyType

from ._record import Frozen, Record, _setattr
from .qarith import InternalCheckError

Weight = tuple

# parse_type refuses larger ranks: construction is linear in the rank, but
# a classify or witness run on a rank-n system grows faster than that
MAX_RANK = 3000

_ADMISSIBLE = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

def _diagram(kind: str, rank: int):
    """Edge list (1-based node pairs) and per-node symmetrizers."""
    chain = [(i, i + 1) for i in range(1, rank)]
    if kind == "A":
        return chain, (1,) * rank
    if kind == "B":
        return chain, (2,) * (rank - 1) + (1,)
    if kind == "C":
        return chain, (1,) * (rank - 1) + (2,)
    if kind == "D":
        return chain[:-1] + [(rank - 2, rank)], (1,) * rank
    if kind == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        edges += [(i, i + 1) for i in range(6, rank)]
        return edges, (1,) * rank
    if kind == "F":
        return chain, (2, 2, 1, 1)
    if kind == "G":
        return chain, (1, 3)
    raise AssertionError(kind)


class Root(Record):
    """A positive root in simple-root coordinates.

    d is half the squared length: 1 for short roots, 2 or 3 for long ones.
    """

    __slots__ = _fields = ("coords", "d")

    @property
    def is_short(self) -> bool:
        return self.d == 1


class LeviComponent(Record):
    """One irreducible piece of an induced subdiagram.

    nodes lists the ambient node indices in the component's own Bourbaki
    order, so nodes[k] plays the role of node k+1 of `system`.  twist is the
    ratio of ambient to component symmetrizers; it exceeds 1 only for
    simply-laced components sitting inside a multiply-laced diagram.
    """

    __slots__ = _fields = ("nodes", "system", "twist")

    def restrict(self, lam: Weight) -> Weight:
        return tuple([lam[i - 1] for i in self.nodes])


class RootSystem(Frozen):
    """Root-system data built by :func:`build`.

    Only the constructor sets the slots, so the instances build shares
    are safe to read anywhere.  `_neighbors[i]` is the sorted tuple of the
    diagram neighbours of node i, and `_bond[i, j]` holds the Cartan entry
    a_ij = <alpha_j, alpha_i^vee> for both directions of each edge; both
    are read-only mappings, and :meth:`cartan` reads any entry from them.
    `_alpha0_coroot[i - 1]` is <w_i, alpha0^vee>, O(rank) ints.

    Each per-instance cache is filled on first use, in the instance
    `__dict__`:

    - `positive_roots`: every positive root, O(rank^2) roots of rank
      coordinates each;
    - `_rooted`: the parent and the depth of each node of the diagram
      walked out from node 1, O(rank), read by every tree_path;
    - `_levi_memo`: the levi_subsystem answers, one per node set asked
      for, O(rank^2) sets from the classifier (below).

    The memo's key is the sorted tuple of distinct nodes, taken after the
    nodes are validated, and only successful answers are stored.  It is
    unbounded, like `build`: it holds one entry per node set ever asked
    for.  The classifier asks only for fundamental-weight routes (at most n
    sets of a rank-n system) and for diagram paths between two nodes (at
    most n^2), and the replays ask for the same sets again; hand-built
    traces can add other sets.
    """

    __slots__ = (
        "kind", "rank", "symm", "_bond",
        "alpha0", "alpha0_weight", "_alpha0_coroot", "minuscule_nodes",
        "_neighbors", "__dict__",
    )

    def __init__(self, kind: str, rank: int):
        if kind not in _ADMISSIBLE or not _ADMISSIBLE[kind](rank):
            raise ValueError(f"type: no root system {kind}{rank}")
        edges, symm = _diagram(kind, rank)
        # the neighbour lists, and the Cartan entries on both directions of
        # each edge: a_ij = -(max(d_i, d_j) // d_i)
        nbrs = {i: [] for i in range(1, rank + 1)}
        bond = {}
        for a, b in edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
            top = max(symm[a - 1], symm[b - 1])
            bond[a, b] = -(top // symm[a - 1])
            bond[b, a] = -(top // symm[b - 1])
        _setattr(self, "kind", kind)
        _setattr(self, "rank", rank)
        _setattr(self, "symm", symm)
        _setattr(self, "_neighbors", MappingProxyType(
            {i: tuple(sorted(v)) for i, v in nbrs.items()}))
        _setattr(self, "_bond", MappingProxyType(bond))
        alpha0 = self._find_alpha0()
        _setattr(self, "alpha0", alpha0)
        _setattr(self, "alpha0_weight", self.omega_coords(alpha0))
        # alpha0 is short, of squared length 2, so its coroot alpha0^vee,
        # the highest coroot, has coefficient <w_i, alpha0^vee> = c_i d_i
        coroot = tuple(map(mul, alpha0.coords, symm))
        _setattr(self, "_alpha0_coroot", coroot)
        _setattr(self, "minuscule_nodes", frozenset(
            i for i, c in enumerate(coroot, 1) if c == 1))

    # -- construction -------------------------------------------------

    def cartan(self, i: int, j: int) -> int:
        """Cartan entry a_ij = <alpha_j, alpha_i^vee>, nodes 1-based."""
        if i == j:
            return 2
        return self._bond.get((i, j), 0)

    def root_pairing(self, coords, i: int) -> int:
        """<beta, alpha_i^vee> for beta given in simple-root coordinates."""
        bond = self._bond
        return 2 * coords[i - 1] + sum(
            bond[i, j] * coords[j - 1] for j in self._neighbors[i])

    def _root_norm(self, coords) -> int:
        """Squared length of a root, with short roots at 2."""
        return sum(c * d * self.root_pairing(coords, j + 1)
                   for j, (c, d) in enumerate(zip(coords, self.symm)) if c)

    @cached_property
    def positive_roots(self):
        """Every positive root, sorted by height, simple roots first."""
        # reflection closure: each positive root above height 1 pairs to
        # some k > 0 with a simple alpha_i, and s_i of it is a lower
        # positive root b with <b, alpha_i^vee> = -k; so adding
        # b - <b, alpha_i^vee> alpha_i wherever the pairing is negative,
        # from the simple roots up, reaches every positive root.  Each root
        # waiting in todo carries its pairings with alpha_1^vee, ...,
        # alpha_n^vee (column i of the Cartan matrix for alpha_i); adding
        # k alpha_i adds k a_ji to entry j, so only i and its neighbours
        # change.  found keeps each root's squared length, read from them
        bond, nbrs, symm = self._bond, self._neighbors, self.symm
        nodes = range(1, self.rank + 1)
        todo = [(tuple(int(j == i) for j in nodes),
                 [self.cartan(j, i) for j in nodes]) for i in nodes]
        found = {b: sum(map(prod, zip(b, symm, pairs))) for b, pairs in todo}
        while todo:
            b, pairs = todo.pop()
            for i, k in enumerate(pairs, 1):
                if k < 0:
                    up = b[:i - 1] + (b[i - 1] - k,) + b[i:]
                    if up not in found:
                        new = pairs.copy()
                        new[i - 1] = -k
                        for j in nbrs[i]:
                            new[j - 1] -= k * bond[j, i]
                        found[up] = sum(map(prod, zip(up, symm, new)))
                        todo.append((up, new))
        roots = []
        for coords in sorted(found, key=lambda c: (sum(c), c)):
            norm = found[coords]
            if norm % 2 or norm // 2 not in (1, 2, 3):
                raise InternalCheckError(
                    f"{self.name}: root norm {norm} out of range")
            roots.append(Root(coords, norm // 2))
        return tuple(roots)

    def _find_alpha0(self) -> Root:
        # the highest short root is the one dominant root in the W-orbit of
        # a short simple root; reflecting by any s_i with a negative pairing
        # raises the height, and only the pairings at i and its neighbours
        # change, so only those go back on the worklist
        start = self.short_simple_nodes[0]
        coords = [0] * self.rank
        coords[start - 1] = 1
        todo = list(self._neighbors[start])
        while todo:
            i = todo.pop()
            p = self.root_pairing(coords, i)
            if p < 0:
                coords[i - 1] -= p
                todo.extend(self._neighbors[i])
        if self._root_norm(coords) != 2:
            raise InternalCheckError(
                f"{self.name}: dominant root {coords} is not short")
        return Root(tuple(coords), 1)

    # -- basic data ----------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    def neighbors(self, i: int):
        self._check_node(i)
        return self._neighbors[i]

    def zero_weight(self) -> Weight:
        return (0,) * self.rank

    def _is_node(self, i) -> bool:
        """Whether i is an int in 1..rank, a bool or a float refused: the
        one statement of the node range, which every node check reads."""
        return type(i) is int and 1 <= i <= self.rank

    def _check_node(self, i) -> None:
        """Refuse i unless it is a node (_is_node)."""
        if not self._is_node(i):
            raise ValueError(
                f"node: index {i!r} out of range for {self.name}")

    def fundamental(self, i: int) -> Weight:
        self._check_node(i)
        return (0,) * (i - 1) + (1,) + (0,) * (self.rank - i)

    def is_dominant(self, lam: Weight) -> bool:
        return len(lam) == self.rank and min(lam) >= 0

    def check_dominant(self, lam) -> Weight:
        """lam as an int tuple, refused unless it is dominant for self."""
        lam = int_weight(lam)
        if not self.is_dominant(lam):
            raise ValueError("weight: must be dominant")
        return lam

    def omega_coords(self, root: Root) -> Weight:
        return tuple(self.root_pairing(root.coords, i)
                     for i in range(1, self.rank + 1))

    @property
    def short_simple_nodes(self):
        return tuple(i for i in range(1, self.rank + 1)
                     if self.symm[i - 1] == 1)

    # -- pairings and alcoves ------------------------------------------

    def pairing(self, lam: Weight, root: Root) -> int:
        """<lam, root^vee>, always an integer."""
        t = sum(b * d * c for b, d, c in zip(root.coords, self.symm, lam))
        if t % root.d:
            raise InternalCheckError(
                f"{self.name}: non-integral coroot pairing")
        return t // root.d

    def _alpha0_height(self, level: int, lam: Weight) -> int:
        """<lam+rho, alpha0^vee>, once level and lam's coordinates are
        checked.

        level is a wall level, not the order of zeta: at order ell the
        first wall is at the vanishing modulus s, not at ell.
        """
        if type(level) is not int or level < 1:
            raise ValueError("level: must be a positive integer")
        co = self._alpha0_coroot
        return sum(map(mul, int_weight(lam), co)) + sum(co)

    def dot_reflect_alpha0(self, level: int, lam: Weight) -> Weight:
        """Affine dot-reflection of lam in the wall <x+rho, alpha0^vee> =
        level."""
        t = self._alpha0_height(level, lam) - level
        return tuple([c - t * a for c, a in zip(lam, self.alpha0_weight)])

    def in_bottom_alcove_closure(self, level: int, lam: Weight) -> bool:
        """Whether dominant lam lies on the near side of the wall
        <x+rho, alpha0^vee> = level, i.e. <lam+rho, alpha0^vee> <= level."""
        return self._alpha0_height(level, self.check_dominant(lam)) <= level

    def weyl_dimension(self, lam: Weight) -> int:
        """prod <lam+rho, a^vee> / prod <rho, a^vee> over positive a."""
        shifted = tuple(c + 1 for c in self.check_dominant(lam))
        rho = (1,) * self.rank
        roots = self.positive_roots
        dim, rem = divmod(prod(self.pairing(shifted, a) for a in roots),
                          prod(self.pairing(rho, a) for a in roots))
        if rem:
            raise InternalCheckError(f"{self.name}: non-integral dimension")
        return dim

    # -- minuscule weights ----------------------------------------------

    def is_minuscule(self, lam: Weight) -> bool:
        return self._is_minuscule(self.check_dominant(lam))

    def _is_minuscule(self, lam: Weight) -> bool:
        """is_minuscule for a weight check_dominant has passed."""
        if not any(lam):
            return True
        if sum(lam) == 1:
            return (lam.index(1) + 1) in self.minuscule_nodes
        return False

    # -- subdiagrams -----------------------------------------------------

    def walk(self, root: int, inside=None):
        """(order, parent): the nodes reachable from root through the node
        set inside (default: every node) in breadth-first order, and each
        one's parent on the way out from root, None for root itself.
        Neighbours are visited in increasing order.  A root that is not a
        node raises the `node:` ValueError of fundamental."""
        self._check_node(root)
        order, parent = [root], {root: None}
        for v in order:
            for nb in self._neighbors[v]:
                if nb not in parent and (inside is None or nb in inside):
                    parent[nb] = v
                    order.append(nb)
        return order, parent

    @cached_property
    def _rooted(self):
        # (parent, depth) of each node in the diagram walked out from node 1
        order, parent = self.walk(1)
        depth = {1: 0}
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        return parent, depth

    def tree_path(self, i: int, j: int):
        """Nodes on the unique diagram path from i to j, inclusive; i and j
        are checked as walk checks its root.  Both ends climb the rooted
        diagram (_rooted), the deeper one first, until they meet."""
        self._check_node(i)
        self._check_node(j)
        parent, depth = self._rooted
        up, down = [i], [j]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        return tuple(up + down[-2::-1])

    def levi_subsystem(self, J):
        """Split the subdiagram on J into relabeled irreducible components.

        The nodes are checked first, each by _is_node, then the answer is
        looked up by the sorted node set, so an order or a repeat in J does
        not matter and each set is split (and each piece retyped) once per
        instance.
        """
        J = list(J)
        if not J:
            raise ValueError("nodes: empty")
        for i in J:
            if not self._is_node(i):
                raise ValueError(
                    f"nodes: {i!r} is not a node of {self.name}")
        key = tuple(sorted(set(J)))
        comps = self._levi_memo.get(key)
        if comps is None:
            comps = self._levi_memo[key] = self._split(key)
        return comps

    @cached_property
    def _levi_memo(self):
        # node set -> levi_subsystem result; grows by one entry per set
        return {}

    def _split(self, nodes):
        """Connected pieces of the sorted node tuple, each retyped."""
        inside, seen, comps = set(nodes), set(), []
        for start in nodes:
            if start not in seen:
                comp = self.walk(start, inside)[0]
                seen.update(comp)
                comps.append(self._retype(sorted(comp)))
        return tuple(comps)

    def _retype(self, comp) -> LeviComponent:
        inside = set(comp)
        degree = {a: len(inside.intersection(self._neighbors[a]))
                  for a in comp}
        m = len(comp)
        for kind, admits in _ADMISSIBLE.items():
            if admits(m):
                model = build(kind, m)
                found = self._relabel(degree, model)
                if found:
                    return LeviComponent(found[0], model, found[1])
        raise InternalCheckError(
            f"{self.name}: subdiagram {tuple(comp)} matches no finite type")

    def _relabel(self, degree, model):
        """(nodes, twist) with nodes[k-1] playing node k of model, or None
        when the connected piece is not model's type.  degree maps each
        node of the piece, in increasing order, to its degree inside it.

        model's diagram is walked out from node 1, each node after its
        parent.  Node 1 goes to each node of the piece in increasing order,
        and every later node to the smallest unused neighbour of its
        parent's image with the same degree inside the piece, the same
        Cartan entries both ways, and model's symmetrizer times twist,
        which node 1 fixes.  What freedom is left is a diagram symmetry, so
        taking the smallest node each time lists the smaller ambient node
        first.
        """
        nbrs, bond, symm = model._neighbors, model._bond, model.symm
        walk, parent = model.walk(1)

        def fits(a, k):
            return (degree[a] == len(nbrs[k])
                    and self.symm[a - 1] == symm[k - 1] * twist)

        for start in degree:
            twist = self.symm[start - 1] // symm[0]
            if not fits(start, 1):
                continue
            image, used = {1: start}, {start}
            for k in walk[1:]:
                p = parent[k]
                q = image[p]
                near = [a for a in self._neighbors[q]
                        if a in degree and a not in used and fits(a, k)
                        and (self._bond[a, q], self._bond[q, a])
                        == (bond[k, p], bond[p, k])]
                if not near:
                    break
                image[k] = near[0]
                used.add(near[0])
            else:
                return tuple(image[k] for k in range(1, model.rank + 1)), twist
        return None


def int_weight(lam) -> Weight:
    """lam as a tuple; a coordinate that is not an int is refused."""
    lam = tuple(lam)
    for c in lam:
        if type(c) is not int:
            raise ValueError("weight: coordinates must be integers")
    return lam


def _check_rank(rank) -> int:
    """rank, refused unless of type int: a bool, a float or a str is not."""
    if type(rank) is not int:
        raise ValueError(f"rank: {rank!r} is not an integer")
    return rank


# typed, so True and 1.0 are keys of their own and reach the check; an
# untyped cache would hand them A1, or file a system of rank True under 1
@lru_cache(maxsize=None, typed=True)
def build(kind: str, rank: int) -> RootSystem:
    """The root system of the given Cartan type, cached per (kind, rank)."""
    return RootSystem(kind, _check_rank(rank))


def systems(max_rank: int):
    """Every system of rank <= max_rank, in table order: A, B, C and D by
    rank, then F4, G2, E6, E7 and E8."""
    _check_rank(max_rank)
    return [build(kind, n) for kind in "ABCDFGE"
            for n in range(1, max_rank + 1) if _ADMISSIBLE[kind](n)]


def _is_int_text(text: str, signed: bool = False) -> bool:
    """text matches [0-9]+, or -?[0-9]+ when signed: int() alone would
    also take '_' separators, a '+' sign and non-ASCII digits."""
    if signed and text[:1] == "-":
        text = text[1:]
    return text.isascii() and text.isdigit()


# the most digits a number in input text may have.  int() and str() take
# at most 4,300 digits, and what accepted text yields must still print: a
# witness order is at most 6c for a coordinate c summed from a few terms,
# and qbinom's degree m(n - m) has about twice the digits of n and m
_MAX_DIGITS = 2000


def _check_digits(text: str, field: str) -> None:
    """Refuse text holding a run of more than _MAX_DIGITS ASCII digits,
    in a message that starts with field, before any of it reaches int()."""
    if len(text) > _MAX_DIGITS:
        run = 0
        for ch in text:
            run = run + 1 if "0" <= ch <= "9" else 0
            if run > _MAX_DIGITS:
                raise ValueError(
                    f"{field}: more than {_MAX_DIGITS} digits in a number")


def parse_type(text: str, rank=None) -> RootSystem:
    """Accepts 'E8' or a bare letter combined with an explicit rank,
    which is None or of type int (a bool, a float or a str is refused)."""
    if rank is not None:
        _check_rank(rank)
        # the checks below print the rank, and str() refuses an int past
        # its digit limit (4,300 by default) with a ValueError of its own
        try:
            str(rank)
        except ValueError:
            raise ValueError("rank: too many digits to print") from None
    _check_digits(text, "type")
    t = text.strip().upper()
    if not t or t[0] not in _ADMISSIBLE:
        raise ValueError(f"type: unknown root-system type {text!r}")
    if len(t) > 1:
        if rank is not None and str(rank) != t[1:]:
            raise ValueError(f"type: rank given twice ({text!r} and {rank})")
        if not _is_int_text(t[1:]):
            raise ValueError(f"type: unknown root-system type {text!r}")
        rank = int(t[1:])
    if rank is None:
        raise ValueError(f"type: rank required with bare letter {text!r}")
    if rank > MAX_RANK:
        raise ValueError(
            f"rank: {t[0]}{rank} is above the rank limit {MAX_RANK}")
    try:
        return build(t[0], rank)
    except ValueError:
        raise ValueError(f"rank: no root system {t[0]}{rank}") from None


def parse_weight(text: str, rank: int) -> Weight:
    """Weight text: comma vector '0,0,1', symbolic 'w1+2w3', or '0'."""
    t = text.strip().replace(" ", "")
    _check_digits(t, "weight")  # after the spaces go: "9 9" reads as 99
    if not t:
        raise ValueError("weight: empty")
    if "w" not in t and "W" not in t:
        if t == "0":
            return (0,) * rank
        parts = t.split(",")
        if len(parts) != rank:
            raise ValueError(
                f"weight: expected {rank} coordinates, got {len(parts)}")
        if not all(_is_int_text(p, signed=True) for p in parts):
            raise ValueError(f"weight: bad coordinate in {text!r}")
        return tuple(map(int, parts))
    coords = [0] * rank
    body = t.lower().replace("-", "+-")
    if t.startswith("-"):  # the one empty term that is not refused
        body = body[1:]
    for term in body.split("+"):
        head, sep, tail = term.partition("w")
        if not sep or not _is_int_text(tail):
            raise ValueError(f"weight: bad term {term!r} in {text!r}")
        if head in ("", "-"):
            coeff = -1 if head == "-" else 1
        elif _is_int_text(head, signed=True):
            coeff = int(head)
        else:
            raise ValueError(f"weight: bad coefficient {head!r} in {text!r}")
        node = int(tail)
        if not 1 <= node <= rank:
            raise ValueError(
                f"weight: node w{node} out of range 1..{rank}")
        coords[node - 1] += coeff
    return tuple(coords)


def format_weight(lam: Weight) -> str:
    terms = []
    for i, c in enumerate(lam, 1):
        if c == 0:
            continue
        if c == 1:
            terms.append(f"w{i}")
        elif c == -1:
            terms.append(f"-w{i}")
        else:
            terms.append(f"{c}w{i}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out

