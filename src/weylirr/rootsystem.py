"""Finite irreducible root systems in Bourbaki numbering.

Provides Cartan data and symmetrizers, the positive-root closure, the
highest short root, dominance order, the single affine dot-reflection used
by the classifier, Weyl dimensions, minuscule weights, and the
decomposition of induced subdiagrams into relabeled irreducible pieces.

Construction computes only what the classifier reads: the diagram, the
Cartan matrix, the symmetrizers, the minuscule nodes, and the highest short
root with its weight and the Coxeter number.  The highest short root is
found by a walk to dominance, not by enumerating roots.  The positive-root
closure and the inverse Cartan matrix are computed on first use, by Weyl
dimensions and dominance tests, and cached on the instance.

Weights are plain integer tuples in the fundamental-weight basis.  Roots
carry their simple-root coordinates.  Short roots are normalized to squared
length 2, so in simply-laced systems every root counts as short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .qarith import InternalCheckError

Weight = tuple

_ADMISSIBLE = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# fundamental weights that are dominance-minimal, per kind
_MINUSCULE_NODES = {
    "A": lambda n: range(1, n + 1),
    "B": lambda n: (n,),
    "C": lambda n: (1,),
    "D": lambda n: (1, n - 1, n),
    "E": lambda n: {6: (1, 6), 7: (7,), 8: ()}[n],
    "F": lambda n: (),
    "G": lambda n: (),
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
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
        return edges, (1,) * rank
    if kind == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        edges += [(i, i + 1) for i in range(6, rank)]
        return edges, (1,) * rank
    if kind == "F":
        return chain, (2, 2, 1, 1)
    if kind == "G":
        return chain, (1, 3)
    raise AssertionError(kind)


@dataclass(frozen=True)
class Root:
    """A positive root in simple-root coordinates.

    d is half the squared length: 1 for short roots, 2 or 3 for long ones.
    """

    coords: tuple
    d: int

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_short(self) -> bool:
        return self.d == 1

    @property
    def length_class(self) -> str:
        return "short" if self.d == 1 else "long"


@dataclass(frozen=True)
class LeviComponent:
    """One irreducible piece of an induced subdiagram.

    nodes lists the ambient node indices in the component's own Bourbaki
    order, so nodes[k] plays the role of node k+1 of `system`.  twist is the
    ratio of ambient to component symmetrizers; it exceeds 1 only for
    simply-laced components sitting inside a multiply-laced diagram.
    """

    nodes: tuple
    system: "RootSystem"
    twist: int

    def restrict(self, lam: Weight) -> Weight:
        return tuple(lam[i - 1] for i in self.nodes)


class RootSystem:
    """Immutable root-system data built by :func:`build`.

    The slots are set by the constructor.  `positive_roots` and the inverse
    Cartan matrix are cached on first use, in the instance `__dict__`.
    """

    __slots__ = (
        "kind", "rank", "cartan", "symm", "edges",
        "alpha0", "alpha0_weight", "coxeter", "minuscule_nodes",
        "_neighbors", "__dict__",
    )

    def __init__(self, kind: str, rank: int):
        if kind not in _ADMISSIBLE or not _ADMISSIBLE[kind](rank):
            raise ValueError(f"type: no root system {kind}{rank}")
        edges, symm = _diagram(kind, rank)
        self.kind = kind
        self.rank = rank
        self.symm = symm
        self.edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        nbrs = {i: [] for i in range(1, rank + 1)}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self._neighbors = {i: tuple(sorted(v)) for i, v in nbrs.items()}
        self.cartan = self._build_cartan()
        self.alpha0 = self._find_alpha0()
        self.alpha0_weight = self.omega_coords(self.alpha0)
        self.coxeter = 1 + sum(
            b * d for b, d in zip(self.alpha0.coords, self.symm))
        self.minuscule_nodes = frozenset(_MINUSCULE_NODES[kind](rank))

    # -- construction -------------------------------------------------

    def _build_cartan(self):
        n, d = self.rank, self.symm
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(2)
                elif (j + 1) in self._neighbors[i + 1]:
                    row.append(-(max(d[i], d[j]) // d[i]))
                else:
                    row.append(0)
            rows.append(tuple(row))
        return tuple(rows)

    def root_pairing(self, coords, i: int) -> int:
        """<beta, alpha_i^vee> for beta given in simple-root coordinates."""
        row = self.cartan[i - 1]
        return 2 * coords[i - 1] + sum(
            row[j - 1] * coords[j - 1] for j in self._neighbors[i])

    def _root_norm(self, coords) -> int:
        """Squared length of a root, with short roots at 2."""
        return sum(c * d * self.root_pairing(coords, j + 1)
                   for j, (c, d) in enumerate(zip(coords, self.symm)) if c)

    @cached_property
    def positive_roots(self):
        """Every positive root, sorted by height, simple roots first."""
        n = self.rank
        simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        found = set(simple)
        layer = simple
        while layer:
            nxt = []
            for b in layer:
                for i in range(n):
                    up = b[:i] + (b[i] + 1,) + b[i + 1:]
                    if up in found:
                        continue
                    # alpha_i-string through b: extends up by p - <b, a_i^v>
                    p = 0
                    down = list(b)
                    while True:
                        down[i] -= 1
                        if tuple(down) not in found:
                            break
                        p += 1
                    if p - self.root_pairing(b, i + 1) >= 1:
                        found.add(up)
                        nxt.append(up)
            layer = nxt
        roots = []
        for coords in sorted(found, key=lambda c: (sum(c), c)):
            norm = self._root_norm(coords)
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

    @cached_property
    def _inv_cartan(self):
        n = self.rank
        aug = [[Fraction(self.cartan[i][j]) for j in range(n)]
               + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return tuple(tuple(row[n:]) for row in aug)

    def _dominant_weights_below(self, mu: Weight):
        """Dominant nu with nu <= mu, by box enumeration of mu - nu."""
        alpha_coords = [sum(self._inv_cartan[j][k] * mu[k]
                            for k in range(self.rank))
                        for j in range(self.rank)]
        bounds = [int(u) for u in alpha_coords]
        if any(u < 0 for u in alpha_coords):
            return
        for c in itertools.product(*(range(b + 1) for b in bounds)):
            nu = tuple(
                mu[i] - sum(self.cartan[i][j] * c[j] for j in range(self.rank))
                for i in range(self.rank))
            if all(x >= 0 for x in nu):
                yield nu

    # -- basic data ----------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    def neighbors(self, i: int):
        return self._neighbors[i]

    def zero_weight(self) -> Weight:
        return (0,) * self.rank

    def fundamental(self, i: int) -> Weight:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node: index {i} out of range for {self.name}")
        return tuple(int(j == i - 1) for j in range(self.rank))

    def rho(self) -> Weight:
        return (1,) * self.rank

    def is_dominant(self, lam: Weight) -> bool:
        return len(lam) == self.rank and all(c >= 0 for c in lam)

    def omega_coords(self, root: Root) -> Weight:
        return tuple(self.root_pairing(root.coords, i)
                     for i in range(1, self.rank + 1))

    @property
    def short_simple_nodes(self):
        return tuple(i for i in range(1, self.rank + 1)
                     if self.symm[i - 1] == 1)

    # -- pairings and order ---------------------------------------------

    def pairing(self, lam: Weight, root: Root) -> int:
        """<lam, root^vee>, always an integer."""
        t = sum(b * d * c for b, d, c in zip(root.coords, self.symm, lam))
        if t % root.d:
            raise InternalCheckError(
                f"{self.name}: non-integral coroot pairing")
        return t // root.d

    def dominance_leq(self, mu: Weight, lam: Weight) -> bool:
        """True iff lam - mu is a nonnegative integer sum of simple roots."""
        diff = [l - m for l, m in zip(lam, mu)]
        for j in range(self.rank):
            c = sum(self._inv_cartan[j][k] * diff[k] for k in range(self.rank))
            if c < 0 or c.denominator != 1:
                return False
        return True

    def dot_reflect_alpha0(self, ell: int, lam: Weight) -> Weight:
        """Affine dot-reflection of lam in the wall <x+rho, alpha0^vee> = ell."""
        if ell < 1:
            raise ValueError("ell: must be a positive integer")
        shifted = tuple(c + 1 for c in lam)
        t = self.pairing(shifted, self.alpha0) - ell
        return tuple(c - t * a for c, a in zip(lam, self.alpha0_weight))

    def in_bottom_alcove_closure(self, ell: int, lam: Weight) -> bool:
        if ell < 1:
            raise ValueError("ell: must be a positive integer")
        if not self.is_dominant(lam):
            raise ValueError("weight: must be dominant")
        shifted = tuple(c + 1 for c in lam)
        return self.pairing(shifted, self.alpha0) <= ell

    def weyl_dimension(self, lam: Weight) -> int:
        if not self.is_dominant(lam):
            raise ValueError("weight: must be dominant")
        dim = Fraction(1)
        for root in self.positive_roots:
            num = sum(b * d * (c + 1)
                      for b, d, c in zip(root.coords, self.symm, lam))
            den = sum(b * d for b, d in zip(root.coords, self.symm))
            dim *= Fraction(num, den)
        if dim.denominator != 1:
            raise InternalCheckError(f"{self.name}: non-integral dimension")
        return int(dim)

    # -- minuscule weights ----------------------------------------------

    def is_minuscule(self, lam: Weight) -> bool:
        if all(c == 0 for c in lam):
            return True
        if sum(lam) == 1:
            return (lam.index(1) + 1) in self.minuscule_nodes
        return False

    def minuscule_weights(self):
        out = [self.zero_weight()]
        out += [self.fundamental(i) for i in sorted(self.minuscule_nodes)]
        return tuple(out)

    # -- subdiagrams -----------------------------------------------------

    def tree_path(self, i: int, j: int):
        """Nodes on the unique diagram path from i to j, inclusive."""
        prev = {i: None}
        queue = [i]
        while queue:
            cur = queue.pop(0)
            if cur == j:
                break
            for nb in self._neighbors[cur]:
                if nb not in prev:
                    prev[nb] = cur
                    queue.append(nb)
        path = []
        cur = j
        while cur is not None:
            path.append(cur)
            cur = prev[cur]
        return tuple(reversed(path))

    def levi_subsystem(self, J):
        """Split the subdiagram on J into relabeled irreducible components."""
        J = list(J)
        if not J:
            raise ValueError("nodes: empty")
        for i in J:
            if not isinstance(i, int) or not 1 <= i <= self.rank:
                raise ValueError(
                    f"nodes: {i!r} is not a node of {self.name}")
        nodes = sorted(set(J))
        seen = set()
        comps = []
        for start in nodes:
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                cur = stack.pop()
                comp.append(cur)
                for nb in self._neighbors[cur]:
                    if nb in nodes and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            comps.append(sorted(comp))
        return tuple(self._retype(comp) for comp in comps)

    def _retype(self, comp) -> LeviComponent:
        kind, ordered = self._identify(comp)
        child = build(kind, len(comp))
        for a in range(len(comp)):
            for b in range(len(comp)):
                if (self.cartan[ordered[a] - 1][ordered[b] - 1]
                        != child.cartan[a][b]):
                    raise InternalCheckError(
                        f"{self.name}: relabeled subdiagram {ordered} does "
                        f"not match {child.name}")
        symms = [self.symm[a - 1] for a in ordered]
        if kind in ("A", "D", "E"):
            if len(set(symms)) != 1:
                raise InternalCheckError(
                    f"{self.name}: mixed symmetrizers on {child.name} piece")
            twist = symms[0]
        else:
            if tuple(symms) != child.symm:
                raise InternalCheckError(
                    f"{self.name}: symmetrizers of {ordered} do not match "
                    f"{child.name}")
            twist = 1
        return LeviComponent(tuple(ordered), child, twist)

    def _identify(self, comp):
        """Type letter and Bourbaki-ordered node list for a connected piece."""
        m = len(comp)
        if m == 1:
            return "A", tuple(comp)
        in_comp = set(comp)
        adj = {a: [b for b in self._neighbors[a] if b in in_comp]
               for a in comp}
        mult = {}
        for a in comp:
            for b in adj[a]:
                if a < b:
                    mult[(a, b)] = (self.cartan[a - 1][b - 1]
                                    * self.cartan[b - 1][a - 1])
        top = max(mult.values())
        if top == 3:
            if m != 2:
                raise InternalCheckError("triple edge in a piece of rank > 2")
            a, b = comp
            # node 1 of G2 is the short root
            return "G", (a, b) if self.symm[a - 1] < self.symm[b - 1] else (b, a)
        if top == 2:
            return self._identify_doubly_laced(comp, adj, mult)
        return self._identify_simply_laced(comp, adj)

    def _chain_order(self, comp, adj):
        ends = [a for a in comp if len(adj[a]) == 1]
        if len(ends) != 2 or any(len(adj[a]) > 2 for a in comp):
            raise InternalCheckError("subdiagram piece is not a chain")
        path = [min(ends)]
        while len(path) < len(comp):
            nxt = [b for b in adj[path[-1]] if b not in path]
            path.append(nxt[0])
        return path

    def _identify_doubly_laced(self, comp, adj, mult):
        m = len(comp)
        path = self._chain_order(comp, adj)
        pos = next(k for k in range(m - 1)
                   if mult[tuple(sorted((path[k], path[k + 1])))] == 2)
        if 0 < pos < m - 2:
            if m != 4 or pos != 1:
                raise InternalCheckError("double edge misplaced in a chain")
            # F4 lists its long roots first
            if self.symm[path[0] - 1] < self.symm[path[3] - 1]:
                path.reverse()
            return "F", tuple(path)
        if pos == 0:
            path.reverse()
        last, before = path[-1], path[-2]
        if m == 2:
            # rank-2 case is called B2, written long root first
            if self.symm[last - 1] > self.symm[before - 1]:
                path.reverse()
            return "B", tuple(path)
        kind = "B" if self.symm[last - 1] < self.symm[before - 1] else "C"
        return kind, tuple(path)

    def _identify_simply_laced(self, comp, adj):
        m = len(comp)
        branch_nodes = [a for a in comp if len(adj[a]) >= 3]
        if not branch_nodes:
            return "A", tuple(self._chain_order(comp, adj))
        if len(branch_nodes) > 1 or len(adj[branch_nodes[0]]) > 3:
            raise InternalCheckError("impossible branching in a subdiagram")
        t = branch_nodes[0]
        branches = []
        for nb in adj[t]:
            walk = [nb]
            prev = t
            while True:
                ahead = [b for b in adj[walk[-1]] if b != prev]
                if not ahead:
                    break
                prev = walk[-1]
                walk.append(ahead[0])
            branches.append(walk)
        branches.sort(key=len)
        lens = [len(b) for b in branches]
        if lens[0] == 1 and lens[1] == 1:
            # type D: two pendants off the branch node
            if lens[2] == 1:
                p1, p2, p3 = sorted(b[0] for b in branches)
                return "D", (p1, t, p2, p3)
            arm = branches[2]
            p1, p2 = sorted((branches[0][0], branches[1][0]))
            return "D", tuple(reversed(arm)) + (t, p1, p2)
        if lens[0] == 1 and lens[1] == 2 and m in (6, 7, 8):
            short_arm, long_arm = branches[1], branches[2]
            if len(long_arm) == 2 and long_arm[-1] < short_arm[-1]:
                short_arm, long_arm = long_arm, short_arm
            ordered = (short_arm[1], branches[0][0], short_arm[0], t)
            return "E", ordered + tuple(long_arm)
        raise InternalCheckError(
            f"{self.name}: branches {lens} match no finite type")


@lru_cache(maxsize=None)
def build(kind: str, rank: int) -> RootSystem:
    """The root system of the given Cartan type, cached per (kind, rank)."""
    return RootSystem(kind, rank)


def parse_type(text: str, rank=None) -> RootSystem:
    """Accepts 'E8' or a bare letter combined with an explicit rank."""
    t = text.strip().upper()
    if not t or t[0] not in _ADMISSIBLE:
        raise ValueError(f"type: unknown root-system type {text!r}")
    if len(t) > 1:
        if rank is not None and str(rank) != t[1:]:
            raise ValueError(f"type: rank given twice ({text!r} and {rank})")
        try:
            rank = int(t[1:])
        except ValueError:
            raise ValueError(f"type: unknown root-system type {text!r}") from None
    if rank is None:
        raise ValueError(f"type: rank required with bare letter {text!r}")
    try:
        return build(t[0], int(rank))
    except ValueError:
        raise ValueError(f"rank: no root system {t[0]}{rank}") from None


def parse_weight(text: str, rank: int) -> Weight:
    """Weight text: comma vector '0,0,1', symbolic 'w1+2w3', or '0'."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("weight: empty")
    if "w" not in t and "W" not in t:
        if t == "0":
            return (0,) * rank
        parts = t.split(",")
        if len(parts) != rank:
            raise ValueError(
                f"weight: expected {rank} coordinates, got {len(parts)}")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"weight: bad coordinate in {text!r}") from None
    coords = [0] * rank
    body = t.lower().replace("-", "+-")
    for term in body.split("+"):
        if not term:
            continue
        head, sep, tail = term.partition("w")
        if not sep or not tail.isdigit():
            raise ValueError(f"weight: bad term {term!r} in {text!r}")
        if head in ("", "-"):
            coeff = -1 if head == "-" else 1
        else:
            try:
                coeff = int(head)
            except ValueError:
                raise ValueError(
                    f"weight: bad coefficient {head!r} in {text!r}") from None
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


# Functional forms matching the operation names used elsewhere.

def highest_short_root(rs: RootSystem) -> Weight:
    return rs.alpha0_weight


def coxeter_number(rs: RootSystem) -> int:
    return rs.coxeter


def minuscule_weights(rs: RootSystem):
    return rs.minuscule_weights()


def pairing(lam: Weight, beta: Root, rs: RootSystem) -> int:
    return rs.pairing(lam, beta)


def dominance_leq(mu: Weight, lam: Weight, rs: RootSystem) -> bool:
    return rs.dominance_leq(mu, lam)


def dot_reflect_alpha0(rs: RootSystem, ell: int, lam: Weight) -> Weight:
    return rs.dot_reflect_alpha0(ell, lam)


def in_bottom_alcove_closure(rs: RootSystem, ell: int, lam: Weight) -> bool:
    return rs.in_bottom_alcove_closure(ell, lam)


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    return rs.weyl_dimension(lam)


def levi_subsystem(rs: RootSystem, J):
    return rs.levi_subsystem(J)
