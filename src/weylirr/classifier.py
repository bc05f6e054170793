"""Global irreducibility classifier with machine-checkable witness traces.

classify_global decides whether the Weyl module of a dominant weight stays
irreducible at every root of unity.  The negative answers come with a trace:
a flat tuple of reduction steps, outermost first, zero or more descents to
a subdiagram and then one leaf (rank-one restriction, end-node
wall-crossing fact, or fundamental-weight fact) at a concrete order.
verify_witness replays a trace from scratch, recomputing every restriction
and every leaf condition.  A descent's replay reads the subdiagram
decomposition that RootSystem.levi_subsystem keeps per node set (the one
the search used, since the decomposition is deterministic) and still
checks every recorded field against it: nodes, component, twist and
restricted weight.

Each step class carries its own description: its JSON `name`, its
`citation` text, its JSON `params` and its `replay`.  _chain alone checks
a trace's shape, step classes, citations and leaf order, all before any
replay.  _replay is the one walk: it checks the weight, then threads
(system, weight, twist) through the steps up to the first that fails,
and verify_witness and trace_json read the steps it walked.  So a new
replay rule lives in one class body.

_replay keeps its last walk.  verify_witness never reads it: every
verdict is replayed from scratch.  trace_json reuses it when called with
the same system, trace and weight objects, as the CLI and the benchmark
do right after classify_global, so such a request walks its trace once.
A descent whose nodes or restricted weight is a list fails replay, so a
kept walk never rests on a field that can change after it.

Facts fixed per system are computed once and kept: the rooted diagram
that tree_path climbs, the alpha0 coroot, and the alpha0 order, which
_alpha0_order searches once per system.  What a leaf checks is recomputed
on every replay: the rank-one criterion, the determinant's vanishing at
the leaf's own order, and the end-node reflection and alcove arithmetic.

The `twist` parameter threading through this module is the ratio between
ambient and local symmetrizers: a subdiagram whose nodes are long roots of
the ambient system sees the quantum parameter raised to that power.
"""

from __future__ import annotations

from functools import lru_cache, reduce

# the leaf tests: an end-node leaf and a descent read none of them, so,
# under the package's lazy-import rule, weylmods is compiled and run when
# a rank-one or fundamental-weight leaf is first searched or replayed
from . import weylmods
from ._record import InternalCheckError, Record
from .rootsystem import RootSystem, Weight, format_weight


class TraceError(ValueError):
    """A witness trace is structurally malformed (not merely unsound)."""


# Every step's replay(rs, lam, twist) returns (holds, sub), where sub is
# (system, weight, twist) for a descent step that holds, else None; the
# next step of the flat trace replays against sub.

def _check_node(rs: RootSystem, node) -> None:
    """Refuse a leaf's node that is not a node of rs."""
    if not rs._is_node(node):
        raise TraceError(f"node {node!r} out of range for {rs.name}")


class Sl2Node(Record):
    """Leaf: the coordinate at `node` fails the rank-one criterion at ell."""

    __slots__ = _fields = ("node", "ell")

    name = "sl2_node"
    citation = "rank-one divided-power criterion at a single node"

    def params(self, rs: RootSystem, lam: Weight, twist: int):
        return {"node": self.node,
                "coordinate": lam[self.node - 1],
                "symmetrizer": rs.symm[self.node - 1] * twist,
                "ell": self.ell}

    def replay(self, rs: RootSystem, lam: Weight, twist: int):
        _check_node(rs, self.node)
        c = lam[self.node - 1]
        d = rs.symm[self.node - 1] * twist
        return not weylmods.sl2_irreducible(c, self.ell, d), None


class LeviDescent(Record):
    """Restrict to the subdiagram `nodes`; the next step replays there.

    nodes are ambient indices in the component's own Bourbaki order;
    component names the relabeled type; twist is the component's
    symmetrizer ratio relative to the system the step lives in.
    """

    __slots__ = _fields = ("nodes", "component", "twist", "restricted")

    name = "levi_descent"
    citation = ("reducibility lifts through subdiagram restriction at a "
                "fixed order")

    def params(self, rs: RootSystem, lam: Weight, twist: int):
        return {"nodes": list(self.nodes),
                "component": self.component,
                "twist": self.twist,
                "restricted_weight": format_weight(self.restricted)}

    def replay(self, rs: RootSystem, lam: Weight, twist: int):
        if not self.nodes or len(set(self.nodes)) != len(self.nodes):
            raise TraceError("descent nodes must be distinct and nonempty")
        if not all(map(rs._is_node, self.nodes)):
            raise TraceError(f"descent nodes invalid for {rs.name}")
        comps = rs.levi_subsystem(self.nodes)
        if len(comps) != 1:
            return False, None
        comp = comps[0]
        restricted = comp.restrict(lam)
        ok = (comp.nodes == self.nodes
              and comp.system.name == self.component
              and comp.twist == self.twist
              and restricted == self.restricted)
        if not ok:
            return False, None
        return True, (comp.system, restricted, twist * comp.twist)


_ENDNODE_CASE = {"A": "a", "B": "b", "C": "c", "F": "d", "G": "e"}


def _endnode_order(rs: RootSystem, twist: int):
    """The order of rs's end-node case at twist, or None where the case
    cannot occur: only the chain case a survives a twist."""
    case = _ENDNODE_CASE[rs.kind]
    if case == "a":
        return (rs.rank + 1) * twist
    if twist != 1:
        return None
    return 2 * rs.rank + 1 if case == "b" else 4


def _two_ends(rs: RootSystem) -> Weight:
    """The weight with coordinate 1 at both ends of a chain diagram."""
    if rs.rank == 1:
        return (1,)
    return (1,) + (0,) * (rs.rank - 2) + (1,)


class EndNode(Record):
    """Leaf: two end-of-diagram coordinates, settled by wall-crossing.

    Cases: a = chain type A, b = odd orthogonal, c = symplectic,
    d = the rank-4 doubly-laced system, e = the rank-2 triply-laced one.
    The reflection arithmetic is replayed for a and b; c, d, e record the
    known reducibility fact and are checked structurally.
    """

    __slots__ = _fields = ("case", "ell")

    name = "end_node"

    @property
    def citation(self) -> str:
        if self.case not in _ENDNODE_CASE.values():
            raise TraceError(f"unknown end-node case {self.case!r}")
        if self.case in ("a", "b"):
            return ("end-node wall-crossing; reflection identity and "
                    "alcove membership replayed")
        return ("end-node wall-crossing; recorded fact, structural "
                "parameters checked")

    def params(self, rs: RootSystem, lam: Weight, twist: int):
        return {"case": self.case, "ell": self.ell,
                "arithmetic_replayed": self.case in ("a", "b")}

    def replay(self, rs: RootSystem, lam: Weight, twist: int):
        if (_ENDNODE_CASE.get(rs.kind) != self.case or rs.rank < 2
                or lam != _two_ends(rs)
                or self.ell != _endnode_order(rs, twist)):
            return False, None
        if self.case == "a":
            level, source = rs.rank + 1, rs.zero_weight()
        elif self.case == "b":
            level, source = self.ell, rs.fundamental(rs.rank)
        else:
            return True, None
        ok = (rs.dot_reflect_alpha0(level, source) == lam
              and rs.in_bottom_alcove_closure(level, source))
        return ok, None


_LEAF_TAGS = {
    "adjoint_short_root": "zero-weight invariant detected by the "
                          "short-root matrix determinant",
    "g2_omega2": "relation determinant of the 14-dimensional module",
}


class FundWeight(Record):
    """Leaf for a fundamental weight, settled by the named scalar test.

    The tag is a key of _LEAF_TAGS.  "adjoint_short_root": the weight is
    alpha0 and the short-root determinant vanishes; "g2_omega2": the
    14-dimensional module's scalar vanishes.
    """

    __slots__ = _fields = ("node", "ell", "tag")

    name = "fundamental_weight"

    @property
    def citation(self) -> str:
        # a str first: an unhashable tag cannot be looked up in the dict
        if not isinstance(self.tag, str) or self.tag not in _LEAF_TAGS:
            raise TraceError(f"unknown leaf tag {self.tag!r}")
        return _LEAF_TAGS[self.tag]

    def params(self, rs: RootSystem, lam: Weight, twist: int):
        return {"node": self.node, "ell": self.ell, "test": self.tag}

    def replay(self, rs: RootSystem, lam: Weight, twist: int):
        _check_node(rs, self.node)
        if lam != rs.fundamental(self.node):
            return False, None
        if self.tag == "adjoint_short_root":
            ok = (lam == rs.alpha0_weight
                  and weylmods.adjoint_short_reducible_at(rs, self.ell,
                                                          twist))
            return ok, None
        ok = (rs.kind == "G" and self.node == 2
              and weylmods.g2_omega2_reducible_at(self.ell, twist))
        return ok, None


class Decision(Record):
    # verdict: "globally_irreducible" | "reducible"
    # reason: "minuscule" | "E8_adjoint" | None
    __slots__ = _fields = ("verdict", "reason", "trace", "witness_ell")


_STEPS = (Sl2Node, LeviDescent, EndNode, FundWeight)


def _chain(trace, empty: bool = False) -> tuple:
    """The trace, checked before any step replays to be descents and then
    one leaf at a positive integer order; with empty=True, () passes too."""
    if empty and trace == ():
        return trace
    if not isinstance(trace, tuple) or not trace:
        raise TraceError("trace must be descents and then one leaf")
    last = len(trace) - 1
    for k, step in enumerate(trace):
        if not isinstance(step, _STEPS):
            raise TraceError(f"unknown trace step {type(step).__name__}")
        if isinstance(step, LeviDescent) != (k < last):
            raise TraceError("trace must be descents and then one leaf")
        step.citation  # refuses an unknown end-node case or leaf tag
    ell = trace[last].ell
    if type(ell) is not int or ell < 1:
        raise TraceError("leaf ell must be a positive integer")
    return trace


def _is_e8_adjoint(rs: RootSystem, lam: Weight) -> bool:
    return rs.kind == "E" and rs.rank == 8 and lam == rs.fundamental(8)


# one search per system: the order is a fact of rs alone, and the leaf it
# goes into still replays the determinant at its own order
@lru_cache(maxsize=None)
def _alpha0_order(rs: RootSystem) -> int:
    """Smallest order >= 3 at which the short-root determinant vanishes."""
    for ell in range(3, 2 * rs.rank + 6):
        if weylmods.adjoint_short_reducible_at(rs, ell):
            return ell
    raise InternalCheckError(f"{rs.name}: no small vanishing order found")


def _fundamental_route(rs: RootSystem, i: int):
    """Subdiagram used to reduce a non-minimal fundamental weight."""
    kind, n = rs.kind, rs.rank
    if kind == "B":
        return tuple(range(i, n + 1))
    if kind in ("C", "D"):
        return tuple(range(i - 1, n + 1))
    if kind in ("E", "F"):
        return tuple(range(2, n + 1) if i == n - 1 else range(1, n))
    raise InternalCheckError(f"{rs.name}: no route for w{i}")


def _descend(rs: RootSystem, lam: Weight, J, twist: int):
    comps = rs.levi_subsystem(J)
    if len(comps) != 1:
        raise InternalCheckError(
            f"{rs.name}: route {J} is not connected")
    comp = comps[0]
    restricted = comp.restrict(lam)
    tail = _search(comp.system, restricted, twist * comp.twist)
    if tail is None:
        raise InternalCheckError(
            f"{rs.name}: descent to {comp.system.name} lost the witness "
            f"for {format_weight(lam)}")
    return (LeviDescent(comp.nodes, comp.system.name, comp.twist,
                        restricted),) + tail


def find_witness(rs: RootSystem, lam: Weight):
    """A reduction trace certifying reducibility at some order, or None.

    None is returned exactly for the globally irreducible weights: the
    minuscule ones, and the highest root in rank 8 type E.  The weight is
    checked once, by RootSystem.check_dominant before the search, so a
    weight it refuses raises its ValueError here; a descent restricts a
    checked weight and searches the slice at its twist unchecked.
    """
    return _search(rs, rs.check_dominant(lam), 1)


def _search(rs: RootSystem, lam: Weight, twist: int):
    """find_witness for a weight check_dominant has passed."""
    # a coordinate >= 2 is neither minuscule nor the E8 highest root
    for i, c in enumerate(lam, 1):
        if c >= 2:
            return (Sl2Node(i, 2 * c * rs.symm[i - 1] * twist),)
    if rs._is_minuscule(lam) or _is_e8_adjoint(rs, lam):
        return None
    support = [i for i, c in enumerate(lam, 1) if c == 1]
    if len(support) == 1:
        i = support[0]
        if lam == rs.alpha0_weight:
            return (FundWeight(i, _alpha0_order(rs) * twist,
                               "adjoint_short_root"),)
        if rs.kind == "G" and i == 2:
            return (FundWeight(2, 3 * twist, "g2_omega2"),)
        return _descend(rs, lam, _fundamental_route(rs, i), twist)
    path = rs.tree_path(support[0], support[1])
    if len(path) < rs.rank:
        return _descend(rs, lam, path, twist)
    # the two lowest supports span the whole diagram: must be a chain
    # with exactly the two ends marked, one of the five end-node shapes
    if support != [1, rs.rank] or rs.kind not in _ENDNODE_CASE:
        raise InternalCheckError(
            f"{rs.name}: unexpected two-node configuration "
            f"{format_weight(lam)}")
    case = _ENDNODE_CASE[rs.kind]
    ell = _endnode_order(rs, twist)
    if ell is None:
        raise InternalCheckError(
            f"{rs.name}: twisted end-node case {case} cannot occur")
    return (EndNode(case, ell),)


def endnode_witness(rs: RootSystem):
    """(weight, ell, case) settled by wall-crossing for the chain types."""
    if rs.kind not in _ENDNODE_CASE:
        raise ValueError(f"type: {rs.name} has no end-node case")
    if rs.kind == "A" and rs.rank < 2:
        raise ValueError("type: the chain case needs rank >= 2")
    lam = _two_ends(rs)
    step, = find_witness(rs, lam)
    return lam, step.ell, step.case


# The last complete walk kept by _replay, as (system, trace, checked
# weight, walked steps), or None; trace_json alone reads it.  One list
# cell, so the module's bindings never change.
_kept = [None]


def _replay(rs: RootSystem, lam: Weight, trace, empty: bool = False):
    """(step, rs, lam, twist, holds) for each step replayed, up to and
    including the first that fails.  Bad input raises as in verify_witness;
    with empty=True the trace () passes and walks as ().  Every complete
    walk is kept in _kept.
    """
    steps = _chain(trace, empty)
    lam = rs.check_dominant(lam)
    key = rs, steps, lam
    walked = []
    twist = 1
    for step in steps:
        holds, sub = step.replay(rs, lam, twist)
        walked.append((step, rs, lam, twist, holds))
        if sub is None:
            break
        rs, lam, twist = sub
    walked = tuple(walked)
    _kept[0] = (*key, walked)
    return walked


def verify_witness(rs: RootSystem, lam: Weight, trace) -> bool:
    """Replay a trace from scratch; True iff every step holds.  A malformed
    trace raises TraceError; after that, a weight with a coordinate that is
    not an int, or one not dominant for rs, raises ValueError."""
    return _replay(rs, lam, trace)[-1][-1]


def classify_global(rs: RootSystem, lam: Weight) -> Decision:
    """The top-level decision: irreducible at every order, or a witness.

    Raises ValueError("weight: ...") for a weight that is not dominant or
    has a coordinate that is not an int; find_witness checks it first,
    and verify_witness checks it again in the replay.
    """
    lam = tuple(lam)  # so that _is_e8_adjoint matches a list too
    trace = find_witness(rs, lam)
    if trace is None:
        reason = "E8_adjoint" if _is_e8_adjoint(rs, lam) else "minuscule"
        return Decision("globally_irreducible", reason, (), None)
    if not verify_witness(rs, lam, trace):
        raise InternalCheckError(
            f"{rs.name}: generated witness for {format_weight(lam)} "
            f"failed replay")
    # verify_witness has checked the trace: its last step is the leaf
    return Decision("reducible", None, trace, trace[-1].ell)


def _nest(inner: list, walked_step) -> list:
    """The JSON node of one walked step, holding `inner` if nonempty."""
    step, rs, lam, twist, holds = walked_step
    node = {"step": step.name, "params": step.params(rs, lam, twist),
            "citation": step.citation, "verified": bool(holds)}
    if inner:
        node["inner"] = inner
    return [node]


def trace_json(rs: RootSystem, lam: Weight, trace):
    """JSON-shaped tree for a trace, with per-step replay flags: each step
    after a descent sits under that descent's "inner" key, and a descent
    that fails replay is the last node and has no "inner".  Bad input
    raises as in verify_witness.

    The kept walk is reused when rs, trace and lam are the very objects it
    was made from, as when classify_global has just verified this trace;
    any other call walks the trace itself.  The weight is matched by
    identity, not equality: (True, 0) and (1.0, 0) equal (1, 0), but a
    fresh walk refuses them.
    """
    kept = _kept[0]
    if (kept is not None and kept[0] is rs and kept[1] is trace
            and kept[2] is lam):
        walked = kept[3]
    else:
        walked = _replay(rs, lam, trace, empty=True)
    return reduce(_nest, reversed(walked), [])


def trace_citations(trace):
    """Citation strings in outer-to-inner order, deduplicated."""
    out = []
    for step in _chain(trace, empty=True):
        text = step.citation
        if text not in out:
            out.append(text)
    return out
