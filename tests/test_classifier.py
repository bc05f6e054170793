"""Witness search, trace replay, and the global decision path."""

from collections import Counter
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylirr import classifier, cli, rootsystem, weylmods
from weylirr.classifier import (
    EndNode,
    FundWeight,
    LeviDescent,
    Sl2Node,
    TraceError,
    classify_global,
    endnode_witness,
    find_witness,
    trace_citations,
    trace_json,
    verify_witness,
)
from weylirr.rootsystem import RootSystem, build, parse_type, parse_weight
from weylirr.weylmods import sl2_maximal_vector_oracle

SMALL = rootsystem.systems(8)


@st.composite
def weights(draw, top):
    """A system of rank <= 8 and a dominant weight with coordinates <= top."""
    rs = draw(st.sampled_from(SMALL))
    lam = draw(st.lists(st.integers(0, top), min_size=rs.rank,
                        max_size=rs.rank))
    return rs, tuple(lam)


def _levels(rs, lam, trace):
    """(system, weight, twist, step) for each step of a trace."""
    out = []
    twist = 1
    for step in trace:
        out.append((rs, lam, twist, step))
        holds, sub = step.replay(rs, lam, twist)
        assert holds
        if sub is not None:
            rs, lam, twist = sub
    return out


def _replace(step, **changes):
    """A new step of the same class: step's fields, with changes applied."""
    values = {name: getattr(step, name) for name in step._fields}
    values.update(changes)
    return type(step)(**values)


def _with_step(trace, depth, new):
    """trace with the step at the given depth replaced by new."""
    return trace[:depth] + (new,) + trace[depth + 1:]


def _fresh_json(rs, lam, trace):
    """trace_json from a walk of its own: the kept walk is dropped first."""
    classifier._kept[0] = None
    return trace_json(rs, lam, trace)


def _flags(nodes):
    """The "verified" flags of a trace_json tree, outermost first."""
    flags = []
    while nodes:
        node, = nodes
        flags.append(node["verified"])
        nodes = node.get("inner")
    return flags


def _count_replays(monkeypatch):
    """A Counter of replay calls per step, filled from now on."""
    counts = Counter()
    for cls in classifier._STEPS:
        def counting(self, rs, lam, twist, replay=cls.replay):
            counts[self] += 1
            return replay(self, rs, lam, twist)

        monkeypatch.setattr(cls, "replay", counting)
    return counts


def _outcome(rs, lam, trace):
    try:
        return verify_witness(rs, lam, trace)
    except TraceError as exc:
        return f"TraceError: {exc}"


def _fresh_outcome(rs, lam, trace):
    """_outcome on a new instance whose Levi children are new as well, so
    every decomposition memo starts empty."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootsystem, "build", lru_cache(maxsize=None)(RootSystem))
        return _outcome(RootSystem(rs.kind, rs.rank), lam, trace)


class TestFindWitness:
    def test_minuscule_weights_have_no_witness(self):
        assert find_witness(build("A", 4), (0, 1, 0, 0)) is None
        assert find_witness(build("B", 3), (0, 0, 1)) is None
        assert find_witness(build("E", 7), (0,) * 6 + (1,)) is None
        for rs in (build("C", 3), build("G", 2)):
            assert find_witness(rs, rs.zero_weight()) is None

    def test_e8_adjoint_is_left_alone(self):
        # recorded decision for the rank-8 adjoint node; the short-root
        # determinant does vanish at order 60, see the acceptance suite
        rs = build("E", 8)
        assert find_witness(rs, rs.fundamental(8)) is None

    def test_large_coordinate_gives_a_rank_one_witness(self):
        assert find_witness(build("A", 1), (2,)) == (Sl2Node(1, 4),)
        assert find_witness(build("A", 3), (0, 3, 0)) == (Sl2Node(2, 6),)
        # long node: the symmetrizer doubles the order
        assert find_witness(build("C", 3), (0, 0, 2)) == (Sl2Node(3, 8),)
        assert find_witness(build("G", 2), (2, 1)) == (Sl2Node(1, 4),)
        assert find_witness(build("G", 2), (0, 2)) == (Sl2Node(2, 12),)

    def test_highest_short_root_weight(self):
        assert find_witness(build("B", 5), (1, 0, 0, 0, 0)) \
            == (FundWeight(1, 4, "adjoint_short_root"),)
        assert find_witness(build("C", 3), (0, 1, 0)) \
            == (FundWeight(2, 3, "adjoint_short_root"),)
        assert find_witness(build("G", 2), (1, 0)) \
            == (FundWeight(1, 4, "adjoint_short_root"),)

    def test_g2_second_node(self):
        assert find_witness(build("G", 2), (0, 1)) \
            == (FundWeight(2, 3, "g2_omega2"),)

    def test_fundamental_descent_e6(self):
        trace = find_witness(build("E", 6), (0, 0, 1, 0, 0, 0))
        step, leaf = trace
        assert isinstance(step, LeviDescent)
        assert step.nodes == (1, 3, 4, 2, 5)
        assert step.component == "D5"
        assert step.twist == 1
        assert step.restricted == (0, 1, 0, 0, 0)
        assert leaf == FundWeight(2, 4, "adjoint_short_root")

    def test_fundamental_descent_nests(self):
        trace = find_witness(build("E", 7), (0, 0, 0, 0, 1, 0, 0))
        assert trace[-1].ell == 4
        step, inner = trace[:2]
        assert step.component == "E6"
        assert inner.component == "D5"

    def test_end_node_cases(self):
        assert find_witness(build("A", 5), (1, 0, 0, 0, 1)) \
            == (EndNode("a", 6),)
        assert find_witness(build("B", 2), (1, 1)) == (EndNode("b", 5),)
        assert find_witness(build("C", 3), (1, 0, 1)) == (EndNode("c", 4),)
        assert find_witness(build("F", 4), (1, 0, 0, 1)) \
            == (EndNode("d", 4),)
        assert find_witness(build("G", 2), (1, 1)) == (EndNode("e", 4),)

    def test_two_supports_descend_through_the_path(self):
        trace = find_witness(build("C", 5), (1, 0, 1, 0, 0))
        step, leaf = trace
        assert isinstance(step, LeviDescent)
        assert step.nodes == (1, 2, 3)
        assert step.component == "A3"
        assert leaf == EndNode("a", 4)

    def test_twisted_end_node(self):
        trace = find_witness(build("B", 5), (0, 1, 0, 1, 0))
        step, leaf = trace
        assert step.component == "A3"
        assert step.twist == 2
        assert leaf == EndNode("a", 8)
        assert trace[-1].ell == 8
        assert verify_witness(build("B", 5), (0, 1, 0, 1, 0), trace)

    def test_list_input_is_normalized(self):
        rs = build("A", 3)
        assert find_witness(rs, [0, 1, 0]) is None
        assert find_witness(rs, [1, 0, 1]) == (EndNode("a", 4),)


FUNDAMENTAL_TABLE = {
    ("A", 6): {i: None for i in range(1, 7)},
    ("B", 5): {1: 4, 2: 4, 3: 4, 4: 4, 5: None},
    ("C", 5): {1: None, 2: 5, 3: 4, 4: 3, 5: 4},
    ("C", 8): {1: None, 2: 4, 3: 7, 4: 3, 5: 5, 6: 4, 7: 3, 8: 4},
    ("D", 6): {1: None, 2: 4, 3: 4, 4: 4, 5: None, 6: None},
    ("E", 6): {1: None, 2: 3, 3: 4, 4: 4, 5: 4, 6: None},
    ("E", 7): {1: 4, 2: 3, 3: 4, 4: 4, 5: 4, 6: 4, 7: None},
    ("E", 8): {1: 4, 2: 3, 3: 4, 4: 4, 5: 4, 6: 4, 7: 4, 8: None},
    ("F", 4): {1: 4, 2: 4, 3: 3, 4: 3},
    ("G", 2): {1: 4, 2: 3},
}


class TestFundamentalWeights:
    @pytest.mark.parametrize("kind,rank", sorted(FUNDAMENTAL_TABLE))
    def test_witness_orders(self, kind, rank):
        rs = build(kind, rank)
        for i, expected in FUNDAMENTAL_TABLE[(kind, rank)].items():
            trace = find_witness(rs, rs.fundamental(i))
            if expected is None:
                assert trace is None, (rs.name, i)
            else:
                assert trace[-1].ell == expected, (rs.name, i, trace)

    def test_e_and_f_routes_match_the_rank_table(self):
        # the route of each E and F node, listed per rank
        table = {
            ("E", 6): lambda i: (2, 3, 4, 5, 6) if i == 5
            else (1, 2, 3, 4, 5),
            ("E", 7): lambda i: (2, 3, 4, 5, 6, 7) if i == 6
            else (1, 2, 3, 4, 5, 6),
            ("E", 8): lambda i: (2, 3, 4, 5, 6, 7, 8) if i == 7
            else (1, 2, 3, 4, 5, 6, 7),
            ("F", 4): lambda i: (2, 3, 4) if i == 3 else (1, 2, 3),
        }
        for (kind, rank), route in table.items():
            rs = build(kind, rank)
            for i in range(1, rank + 1):
                assert classifier._fundamental_route(rs, i) == route(i), \
                    (rs.name, i)

    def test_tags(self):
        assert find_witness(build("G", 2), (0, 1))[-1].tag == "g2_omega2"
        assert find_witness(build("B", 4), (0, 1, 0, 0))[-1].tag \
            == "adjoint_short_root"

    def test_every_nontrivial_witness_replays(self):
        for (kind, rank) in FUNDAMENTAL_TABLE:
            rs = build(kind, rank)
            for i in range(1, rank + 1):
                lam = rs.fundamental(i)
                trace = find_witness(rs, lam)
                if trace is not None:
                    assert verify_witness(rs, lam, trace), (rs.name, i)

    def test_alpha0_order_is_searched_once_and_replayed_every_time(
            self, monkeypatch):
        # C22 w5 descends to C19 w2 = alpha0: finding its order 19 takes
        # the tests at 3..19, and replaying the leaf takes one more, on
        # every call
        orders = []
        vanishes = weylmods.vanishes_at

        def counting(p, spec):
            orders.append(spec.ell)
            return vanishes(p, spec)

        monkeypatch.setattr(weylmods, "vanishes_at", counting)
        classifier._alpha0_order.cache_clear()
        rs = RootSystem("C", 22)
        lam = rs.fundamental(5)
        for expected in ([*range(3, 20), 19], [19], [19]):
            orders.clear()
            assert classify_global(rs, lam).witness_ell == 19
            assert orders == expected


class TestEndNodes:
    def test_table(self):
        assert endnode_witness(build("A", 2)) == ((1, 1), 3, "a")
        assert endnode_witness(build("A", 5)) == ((1, 0, 0, 0, 1), 6, "a")
        assert endnode_witness(build("B", 4)) == ((1, 0, 0, 1), 9, "b")
        assert endnode_witness(build("C", 5)) == ((1, 0, 0, 0, 1), 4, "c")
        assert endnode_witness(build("F", 4)) == ((1, 0, 0, 1), 4, "d")
        assert endnode_witness(build("G", 2)) == ((1, 1), 4, "e")

    @pytest.mark.parametrize("twist", [1, 2, 3])
    def test_order_matches_the_case_table(self, twist):
        # the order of each case stated on its own; only the chain case
        # a takes a twist, and the twisted cases b to e cannot occur
        table = {"b": lambda n: 2 * n + 1, "c": lambda n: 4,
                 "d": lambda n: 4, "e": lambda n: 4}
        systems = ([build("A", n) for n in range(2, 13)]
                   + [build("B", n) for n in range(2, 13)]
                   + [build("C", n) for n in range(3, 13)]
                   + [build("F", 4), build("G", 2)])
        for rs in systems:
            case = classifier._ENDNODE_CASE[rs.kind]
            if case == "a":
                want = (rs.rank + 1) * twist
            elif twist != 1:
                want = None
            else:
                want = table[case](rs.rank)
            assert classifier._endnode_order(rs, twist) == want, rs.name

    def test_inadmissible_types(self):
        with pytest.raises(ValueError):
            endnode_witness(build("D", 5))
        with pytest.raises(ValueError):
            endnode_witness(build("E", 6))
        with pytest.raises(ValueError):
            endnode_witness(build("A", 1))

    def test_witnesses_replay(self):
        for rs in (build("A", 4), build("B", 3), build("C", 4),
                   build("F", 4), build("G", 2)):
            lam, ell, case = endnode_witness(rs)
            assert verify_witness(rs, lam, (EndNode(case, ell),)), rs.name


class TestVerifyWitness:
    def test_replays_generated_traces(self):
        cases = [("A", 1, (2,)), ("B", 5, (1, 0, 0, 0, 1)),
                 ("C", 3, (0, 1, 0)), ("E", 6, (0, 0, 1, 0, 0, 0)),
                 ("F", 4, (1, 1, 0, 0)), ("G", 2, (1, 1))]
        for kind, rank, lam in cases:
            rs = build(kind, rank)
            trace = find_witness(rs, lam)
            assert trace is not None
            assert verify_witness(rs, lam, trace), (kind, rank, lam)

    def test_rejects_wrong_orders(self):
        b5 = build("B", 5)
        assert not verify_witness(b5, (1, 0, 0, 0, 1), (EndNode("b", 7),))
        a1 = build("A", 1)
        assert not verify_witness(a1, (2,), (Sl2Node(1, 3),))
        assert not verify_witness(a1, (2,), (Sl2Node(1, 1),))

    def test_rejects_structural_mismatches(self):
        b5 = build("B", 5)
        # wrong case letter for the type is a mismatch, not a trace error
        assert not verify_witness(b5, (1, 0, 0, 0, 1), (EndNode("a", 6),))
        e6 = build("E", 6)
        lam = (0, 0, 1, 0, 0, 0)
        step, leaf = find_witness(e6, lam)
        bad = _replace(step, restricted=(1, 0, 0, 0, 0))
        assert not verify_witness(e6, lam, (bad, leaf))

    @pytest.mark.parametrize("lam,trace", [
        ((0, 0, 2, 5), (Sl2Node(3, 4),)),
        ((2, -1, 0), (Sl2Node(1, 4),)),
        ((2,), (Sl2Node(3, 4),)),
    ], ids=["too-long", "negative", "too-short"])
    def test_weight_must_be_dominant_for_the_system(self, lam, trace):
        a3 = build("A", 3)
        for read in (verify_witness, trace_json):
            with pytest.raises(ValueError) as info:
                read(a3, lam, trace)
            assert type(info.value) is ValueError
            assert str(info.value) == "weight: must be dominant"
            # a malformed trace is refused first
            with pytest.raises(TraceError):
                read(a3, lam, trace + trace)

    @pytest.mark.parametrize("lam", [(1.5, 2), (1.5, 0), ("1", 0),
                                     (1, 0.0), (True, 0)])
    def test_replay_refuses_coordinates_that_are_not_ints(self, lam):
        # (1.5, 2) once replayed Sl2Node(2, 4) as verified: the leaf read
        # only the coordinate 2
        a2 = build("A", 2)
        trace = (Sl2Node(2, 4),)
        for read in (verify_witness, trace_json):
            with pytest.raises(ValueError,
                               match="^weight: coordinates must be integers$"):
                read(a2, lam, trace)
            # a malformed trace is refused first
            with pytest.raises(TraceError):
                read(a2, lam, trace + trace)

    def test_alternative_hand_built_trace(self):
        # the same weight can carry distinct valid witnesses
        a5 = build("A", 5)
        alpha0 = (1, 0, 0, 0, 1)
        assert verify_witness(a5, alpha0, (EndNode("a", 6),))
        c3 = build("C", 3)
        w2 = c3.fundamental(2)
        assert w2 == c3.alpha0_weight
        assert find_witness(c3, w2) \
            == (FundWeight(2, 3, "adjoint_short_root"),)
        for ell, holds in ((3, True), (6, True), (5, False)):
            trace = (FundWeight(2, ell, "adjoint_short_root"),)
            assert verify_witness(c3, w2, trace) is holds, ell

    def test_malformed_traces_raise(self):
        a2 = build("A", 2)
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), ())
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), (EndNode("a", 3), EndNode("a", 3)))
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), ("junk",))
        with pytest.raises(TraceError):
            trace_json(a2, (1, 1), ("junk",))
        with pytest.raises(TraceError):
            trace_citations(("junk",))
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), (EndNode("z", 3),))
        with pytest.raises(TraceError):
            trace_citations((EndNode("z", 4),))
        with pytest.raises(TraceError):
            trace_json(a2, (0, 1), (EndNode("z", 4),))
        with pytest.raises(TraceError):
            verify_witness(a2, (2, 0), (Sl2Node(5, 4),))
        with pytest.raises(TraceError):
            verify_witness(a2, (2, 0), (Sl2Node(1, 0),))
        # an unknown leaf tag is malformed whatever the weight: (0, 1) is
        # not w1, yet the tag is checked first
        bogus = (FundWeight(1, 3, "bogus"),)
        with pytest.raises(TraceError):
            trace_citations(bogus)
        with pytest.raises(TraceError):
            trace_json(a2, (0, 1), bogus)
        with pytest.raises(TraceError):
            verify_witness(a2, (0, 1), bogus)


def _e6_w3_descent(tail=None, **changes):
    """(E6, w3, the descent-then-leaf trace of w3 with changes to the
    descent, and tail in place of the leaf when it is given)."""
    rs = build("E", 6)
    lam = rs.fundamental(3)
    step, leaf = find_witness(rs, lam)
    return rs, lam, (_replace(step, **changes),) + (
        (leaf,) if tail is None else tail)


_SHAPE_ERROR = "trace must be descents and then one leaf"

# (system, weight, trace, message): each trace function refuses each entry
# with this TraceError message, whether or not the outer steps replay
MALFORMED = [
    (build("A", 2), (1, 1), (EndNode("a", 3), EndNode("a", 3)),
     _SHAPE_ERROR),
    (build("A", 2), (1, 1), [EndNode("a", 3)], _SHAPE_ERROR),
    (*_e6_w3_descent(tail=(FundWeight(2, 4, "adjoint_short_root"),) * 2),
     _SHAPE_ERROR),
    (*_e6_w3_descent(component="A5", tail=()), _SHAPE_ERROR),
    (*_e6_w3_descent(component="A5", tail=("junk",)),
     "unknown trace step str"),
    (*_e6_w3_descent(component="A5", tail=(FundWeight(1, 3, "bogus"),)),
     "unknown leaf tag 'bogus'"),
    (*_e6_w3_descent(component="A5", tail=(EndNode("z", 4),)),
     "unknown end-node case 'z'"),
    (build("A", 2), (1, 1),
     (EndNode("a", 3), LeviDescent((1, 2), "A2", 1, (1, 1))), _SHAPE_ERROR),
]


class TestMalformedTraces:
    @pytest.mark.parametrize("rs,lam,trace,message", MALFORMED, ids=[
        "two-steps", "list", "two-step-inner", "string-inner",
        "string-step-inner", "bad-tag-inner", "bad-case-inner",
        "leaf-before-descent"])
    def test_every_reader_refuses_alike(self, rs, lam, trace, message):
        readers = (lambda: verify_witness(rs, lam, trace),
                   lambda: trace_json(rs, lam, trace),
                   lambda: trace_citations(trace))
        for read in readers:
            with pytest.raises(TraceError) as info:
                read()
            assert str(info.value) == message

    # (system, weight, leaf for an order): the right order replays there
    LEAVES = [
        (build("A", 1), (2,), lambda ell: Sl2Node(1, ell)),
        (build("A", 2), (1, 1), lambda ell: EndNode("a", ell)),
        (build("B", 2), (1, 0),
         lambda ell: FundWeight(1, ell, "adjoint_short_root")),
    ]

    @pytest.mark.parametrize("rs,lam,leaf", LEAVES,
                             ids=["sl2-node", "end-node", "fund-weight"])
    @pytest.mark.parametrize("ell", [0, -1, True, 2.0, 3.0, "3", None])
    def test_leaf_order_must_be_a_positive_integer(self, rs, lam, leaf, ell):
        descent = _e6_w3_descent()[2][0]
        for trace in ((leaf(ell),), (descent, leaf(ell))):
            readers = (lambda: verify_witness(rs, lam, trace),
                       lambda: trace_json(rs, lam, trace),
                       lambda: trace_citations(trace))
            for read in readers:
                with pytest.raises(TraceError) as info:
                    read()
                assert str(info.value) == "leaf ell must be a positive integer"

    def test_levi_descent_has_no_inner_field(self):
        assert LeviDescent._fields == ("nodes", "component", "twist",
                                       "restricted")
        with pytest.raises(TypeError):
            LeviDescent((1, 2), "A2", 1, (1, 1), (EndNode("a", 3),))

    def test_empty_trace(self):
        a2 = build("A", 2)
        assert trace_json(a2, (1, 0), ()) == []
        assert trace_citations(()) == []
        with pytest.raises(TraceError, match=_SHAPE_ERROR):
            verify_witness(a2, (1, 0), ())

    def test_verify_witness_returns_a_bool(self):
        rs, lam, good = _e6_w3_descent()
        assert verify_witness(rs, lam, good) is True
        _, _, bad = _e6_w3_descent(component="A5")
        assert verify_witness(rs, lam, bad) is False
        assert verify_witness(build("A", 1), (2,), (Sl2Node(1, 3),)) is False

    # (system, weight, depth, changes): the generated witness with the
    # step at that depth given a bool node, which reads as node 1
    BOOL_NODES = [
        (build("A", 3), (2, 0, 0), 0, {"node": True}),
        (build("B", 3), (0, 1, 0), 1, {"node": True}),
        (build("A", 3), (1, 1, 0), 0, {"nodes": (True, 2)}),
    ]

    @pytest.mark.parametrize("rs,lam,depth,changes", BOOL_NODES,
                             ids=["sl2-node", "fund-weight", "levi-descent"])
    def test_bool_nodes_are_refused(self, rs, lam, depth, changes):
        trace = find_witness(rs, lam)
        assert verify_witness(rs, lam, trace) is True
        step = _levels(rs, lam, trace)[depth][3]
        bad = _with_step(trace, depth, _replace(step, **changes))
        assert bad == trace  # True == 1: only the type tells them apart
        for read in (verify_witness, trace_json):
            with pytest.raises(TraceError, match="invalid|out of range"):
                read(rs, lam, bad)

    def test_failed_descent_is_the_last_json_node(self):
        rs, lam, trace = _e6_w3_descent(component="A5")
        node, = trace_json(rs, lam, trace)
        assert node["verified"] is False
        assert "inner" not in node
        assert trace_citations(trace) == [
            LeviDescent.citation,
            "zero-weight invariant detected by the short-root matrix "
            "determinant"]


class TestReplayMutations:
    @settings(max_examples=150, deadline=None)
    @given(weights(top=1), st.data())
    def test_descent_mutations(self, case, data):
        rs, lam = case
        trace = find_witness(rs, lam)
        assume(trace is not None)
        levels = _levels(rs, lam, trace)
        depths = [k for k, level in enumerate(levels)
                  if isinstance(level[3], LeviDescent)]
        assume(depths)
        depth = data.draw(st.sampled_from(depths))
        sub_rs, _, _, step = levels[depth]
        other = data.draw(st.sampled_from(
            [s.name for s in SMALL if s.name != step.component]))
        restricted = list(step.restricted)
        restricted[data.draw(st.integers(0, len(restricted) - 1))] += 1
        for bad in (_replace(step, component=other),
                    _replace(step, twist=step.twist + 1),
                    _replace(step, restricted=tuple(restricted))):
            assert not verify_witness(rs, lam, _with_step(trace, depth, bad))
        nodes = step.nodes
        k = data.draw(st.integers(0, len(nodes) - 1))
        extra = data.draw(st.integers(0, sub_rs.rank + 1))
        for changed in (nodes[:k] + nodes[k + 1:],
                        nodes[:k] + (extra,) + nodes[k:]):
            bad = _with_step(trace, depth,
                             _replace(step, nodes=changed))
            assert _outcome(rs, lam, bad) == _fresh_outcome(rs, lam, bad)

    @settings(max_examples=150, deadline=None)
    @given(weights(top=4), st.sampled_from([-1, 1]))
    def test_sl2_order_shift_matches_the_oracle(self, case, shift):
        rs, lam = case
        trace = find_witness(rs, lam)
        assume(trace is not None)
        levels = _levels(rs, lam, trace)
        sub_rs, sub_lam, twist, leaf = levels[-1]
        assume(isinstance(leaf, Sl2Node))
        ell = leaf.ell + shift
        c = sub_lam[leaf.node - 1]
        d = sub_rs.symm[leaf.node - 1] * twist
        bad = _with_step(trace, len(levels) - 1, Sl2Node(leaf.node, ell))
        assert verify_witness(rs, lam, bad) is (
            not sl2_maximal_vector_oracle(c, ell, d))


class TestTraceShape:
    @settings(max_examples=150, deadline=None)
    @given(weights(top=2))
    def test_descents_then_one_leaf(self, case):
        rs, lam = case
        trace = find_witness(rs, lam)
        assume(trace is not None)
        assert isinstance(trace, tuple) and trace
        assert all(isinstance(step, LeviDescent) for step in trace[:-1])
        assert isinstance(trace[-1], (Sl2Node, EndNode, FundWeight))
        level, depth = trace_json(rs, lam, trace), 0
        while "inner" in level[0]:
            level, depth = level[0]["inner"], depth + 1
        assert len(level) == 1
        assert depth == len(trace) - 1

    def test_the_two_replay_readers_agree(self):
        # every weight in {0,1,2}^n of rank <= 5: its generated trace, the
        # leaf at ell + 1, and the first descent with a wrong twist
        for rs in rootsystem.systems(5):
            for lam in product(range(3), repeat=rs.rank):
                trace = find_witness(rs, lam)
                if trace is None:
                    continue
                leaf = trace[-1]
                cases = [(trace, len(trace)),
                         (_with_step(trace, len(trace) - 1,
                                     _replace(leaf, ell=leaf.ell + 1)),
                          len(trace))]
                if len(trace) > 1:
                    bad = _replace(trace[0], twist=trace[0].twist + 1)
                    cases.append((_with_step(trace, 0, bad), 1))
                    listed = _replace(trace[0], nodes=list(trace[0].nodes))
                    cases.append((_with_step(trace, 0, listed), len(trace)))
                for case, walked in cases:
                    # trace_json reuses the walk of _replay, or of
                    # verify_witness, and agrees with a walk of its own
                    assert len(classifier._replay(rs, lam, case)) == walked
                    nodes = trace_json(rs, lam, case)
                    assert nodes == _fresh_json(rs, lam, case)
                    flags = _flags(nodes)
                    assert len(flags) == walked
                    assert verify_witness(rs, lam, case) is all(flags)
                    assert trace_json(rs, lam, case) == nodes
                    assert trace_json(rs, lam, tuple(list(case))) == nodes


class TestClassifyGlobal:
    def test_globally_irreducible_decisions(self):
        rs = build("E", 8)
        decision = classify_global(rs, rs.fundamental(8))
        assert decision.verdict == "globally_irreducible"
        assert decision.reason == "E8_adjoint"
        assert decision.trace == ()
        assert decision.witness_ell is None
        decision = classify_global(build("A", 4), (0, 1, 0, 0))
        assert decision.reason == "minuscule"

    def test_reducible_decisions(self):
        decision = classify_global(build("B", 5), (1, 0, 0, 0, 1))
        assert decision.verdict == "reducible"
        assert decision.reason is None
        assert decision.witness_ell == 11
        assert decision.trace == (EndNode("b", 11),)

    def test_witness_order_matches_the_leaf(self):
        for kind, rank, lam in [("E", 7, (0, 0, 0, 1, 0, 0, 0)),
                                ("C", 8, (0, 0, 0, 1, 0, 0, 0, 0)),
                                ("F", 4, (1, 1, 0, 0))]:
            decision = classify_global(build(kind, rank), lam)
            assert decision.witness_ell == decision.trace[-1].ell

    def test_e8_adjoint_conflict_is_recorded(self):
        # This records a known contradiction between two parts of the
        # system; it does not endorse either side.  The verdict for E8 w8
        # is globally irreducible by a hard-coded exception, yet the
        # short-root determinant leaf at order 60 replays as a valid
        # reducibility witness (q^8 det(D_E8) is the 60th cyclotomic
        # polynomial).  If either fact changes, this test should be
        # revisited together with the pinned-red acceptance checks.
        e8 = build("E", 8)
        w8 = e8.fundamental(8)
        assert verify_witness(e8, w8,
                              (FundWeight(8, 60, "adjoint_short_root"),))
        assert classify_global(e8, w8).verdict == "globally_irreducible"

    def test_rejects_non_dominant_weights(self):
        with pytest.raises(ValueError):
            classify_global(build("A", 2), (-1, 0))

    # (1.5, 2) once gave a replayed Sl2Node witness, (1.5, 0) an
    # IndexError from find_witness and ('1', 0) a TypeError
    @pytest.mark.parametrize("lam", [(1.5, 2), (1.5, 0), ("1", 0),
                                     (1, 0.0), (True, 0)])
    def test_rejects_coordinates_that_are_not_ints(self, lam):
        with pytest.raises(ValueError,
                           match="^weight: coordinates must be integers$"):
            classify_global(build("A", 2), lam)

    def test_search_refuses_a_weight_with_no_coordinate_one(self):
        # (1, 0.5) once ended in InternalCheckError: no route for w1
        for lam in ((1.5, 0), (1, 0.5), (0.5, 0.5)):
            with pytest.raises(ValueError,
                               match="^weight: coordinates must be integers$"):
                find_witness(build("A", 2), lam)


class TestTraceJson:
    def test_node_shape(self):
        rs = build("E", 6)
        lam = (0, 0, 1, 0, 0, 0)
        nodes = trace_json(rs, lam, find_witness(rs, lam))
        node, = nodes
        assert set(node) == {"step", "params", "citation", "verified",
                             "inner"}
        assert node["step"] == "levi_descent"
        assert node["verified"] is True
        assert node["params"]["component"] == "D5"
        assert node["params"]["restricted_weight"] == "w2"
        inner, = node["inner"]
        assert inner["step"] == "fundamental_weight"
        assert inner["params"]["ell"] == 4
        assert "inner" not in inner

    def test_leaf_node_shape(self):
        rs = build("A", 1)
        nodes = trace_json(rs, (2,), (Sl2Node(1, 4),))
        node, = nodes
        assert node["params"] == {"node": 1, "coordinate": 2,
                                  "symmetrizer": 1, "ell": 4}
        assert node["verified"] is True

    @pytest.mark.parametrize("kind,rank,lam", [
        ("A", 2, (1, 1)), ("B", 3, (0, 1, 0))])
    def test_list_weight_gives_the_tuple_json(self, kind, rank, lam):
        rs = build(kind, rank)
        trace = find_witness(rs, lam)
        nodes = trace_json(rs, lam, trace)
        assert trace_json(rs, list(lam), trace) == nodes
        assert nodes[0]["verified"] is True
        assert verify_witness(rs, list(lam), trace) is True

    def test_citations_deduplicate(self):
        rs = build("E", 7)
        lam = (0, 0, 0, 0, 1, 0, 0)
        trace = find_witness(rs, lam)
        cites = trace_citations(trace)
        assert len(cites) == len(set(cites)) == 2


class TestOneWalkPerRequest:
    # C22 w5 and B5 w2 descend once to an alpha0 leaf; A3 2w1 is one leaf
    REQUESTS = [("C22", "w5"), ("B5", "w2"), ("A3", "2w1")]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("command", ["classify", "witness"])
    @pytest.mark.parametrize("type_text,weight", REQUESTS)
    def test_cli_request(self, monkeypatch, capsys, type_text, weight,
                         command, json_flag):
        rs = parse_type(type_text)
        expected = Counter(find_witness(rs, parse_weight(weight, rs.rank)))
        counts = _count_replays(monkeypatch)
        for _ in range(2):
            counts.clear()
            assert cli.main([command, "--type", type_text, "--weight",
                             weight, *json_flag]) == 0
            assert counts == expected
        capsys.readouterr()

    @pytest.mark.parametrize("type_text,weight", REQUESTS)
    def test_benchmark_document(self, monkeypatch, type_text, weight):
        # bench/worker.py's sweep request, imported read-only
        bench = Path(__file__).resolve().parent.parent / "bench"
        monkeypatch.syspath_prepend(str(bench))
        from worker import document_maker

        classify_document = document_maker()
        rs = parse_type(type_text)
        lam = parse_weight(weight, rs.rank)
        expected = Counter(find_witness(rs, lam))
        counts = _count_replays(monkeypatch)
        for _ in range(2):
            counts.clear()
            doc, _ = classify_document(rs.kind, rs.rank, lam)
            assert counts == expected
            assert _flags(doc["trace"]) == [True] * len(expected)


class TestKeptWalk:
    # each trace_json below must give what a walk of its own gives
    A3 = build("A", 3)
    LEAF = (Sl2Node(1, 4),)

    def test_another_weight_is_walked(self):
        expected = _fresh_json(self.A3, (3, 0, 0), self.LEAF)
        assert _flags(expected) == [False]
        assert verify_witness(self.A3, (2, 0, 0), self.LEAF)
        assert trace_json(self.A3, (3, 0, 0), self.LEAF) == expected

    def test_another_system_is_walked(self):
        b3, lam = build("B", 3), (2, 0, 0)
        expected = _fresh_json(b3, lam, self.LEAF)
        assert expected != _fresh_json(self.A3, lam, self.LEAF)
        assert verify_witness(self.A3, lam, self.LEAF)
        assert trace_json(b3, lam, self.LEAF) == expected

    def test_a_list_weight_mutated_after_the_walk_is_walked(self):
        expected = _fresh_json(self.A3, (3, 0, 0), self.LEAF)
        lam = [2, 0, 0]
        assert verify_witness(self.A3, lam, self.LEAF)
        lam[0] = 3
        assert trace_json(self.A3, lam, self.LEAF) == expected

    def test_an_equal_trace_or_weight_is_walked(self, monkeypatch):
        rs = build("C", 22)
        lam = rs.fundamental(5)
        decision = classify_global(rs, lam)
        expected = _fresh_json(rs, lam, decision.trace)
        classify_global(rs, lam)
        counts = _count_replays(monkeypatch)
        copy = tuple(list(decision.trace))
        assert copy is not decision.trace
        assert trace_json(rs, lam, copy) == expected
        assert counts == Counter(copy)
        counts.clear()
        assert trace_json(rs, tuple(list(lam)), copy) == expected
        assert counts == Counter(copy)

    @pytest.mark.parametrize("coord", [float, bool])
    def test_an_equal_weight_a_walk_refuses_is_refused(self, coord):
        # (1.0, 0) == (True, 0) == (1, 0): a match by value would skip
        # the weight check that a walk of its own makes
        rs = build("A", 2)
        lam = (1, 1)
        decision = classify_global(rs, lam)
        with pytest.raises(ValueError, match="^weight: coordinates"):
            trace_json(rs, tuple(map(coord, lam)), decision.trace)

    @pytest.mark.parametrize("field", ["nodes", "restricted"])
    def test_a_list_field_mutated_after_the_walk(self, field):
        rs = build("C", 22)
        lam = rs.fundamental(5)
        descent, leaf = find_witness(rs, lam)
        value = list(getattr(descent, field))
        trace = (_replace(descent, **{field: value}), leaf)
        assert verify_witness(rs, lam, trace)
        value.reverse()
        nodes = trace_json(rs, lam, trace)
        assert nodes == _fresh_json(rs, lam, trace)
        assert _flags(nodes) == [False]

    @pytest.mark.parametrize("change,flags", [
        (lambda d, leaf: (d, _replace(leaf, ell=20)), [True, False]),
        (lambda d, leaf: (_replace(d, twist=2), leaf), [False])])
    def test_a_failing_trace(self, change, flags):
        rs = build("C", 22)
        lam = rs.fundamental(5)
        trace = change(*find_witness(rs, lam))
        assert verify_witness(rs, lam, trace) is False
        nodes = trace_json(rs, lam, trace)
        assert _flags(nodes) == flags
        assert nodes == _fresh_json(rs, lam, trace)

    def test_verify_witness_after_trace_json_replays_every_step(
            self, monkeypatch):
        rs = build("C", 22)
        lam = rs.fundamental(5)
        trace = classify_global(rs, lam).trace
        trace_json(rs, lam, trace)
        counts = _count_replays(monkeypatch)
        assert verify_witness(rs, lam, trace)
        assert counts == Counter(trace)


class TestLaziness:
    @pytest.mark.parametrize("type_text,weight", [
        ("D40", "w20"), ("B100", "w50"), ("A150", "w1+w75")])
    def test_classify_leaves_the_closure_unbuilt(self, monkeypatch,
                                                 type_text, weight):
        # a private build cache, so systems earlier tests touched are not
        # seen; every Levi child is built through it as well
        built = []

        def fresh(kind, rank):
            built.append(RootSystem(kind, rank))
            return built[-1]

        monkeypatch.setattr(rootsystem, "build", lru_cache(maxsize=None)(fresh))
        rs = parse_type(type_text)
        lam = parse_weight(weight, rs.rank)
        decision = classify_global(rs, lam)
        trace_json(rs, lam, decision.trace)
        trace_citations(decision.trace)
        assert decision.verdict == "reducible"
        assert len(built) > 1
        for system in built:
            assert "positive_roots" not in vars(system), system.name


class TestDecompositionMemo:
    def test_one_split_per_descent(self, monkeypatch):
        # new instances throughout, as in TestLaziness; search, verdict
        # replay and JSON replay of E7 w4 share three decompositions
        monkeypatch.setattr(rootsystem, "build",
                            lru_cache(maxsize=None)(RootSystem))
        calls = []
        split = RootSystem._split

        def counting(self, nodes):
            calls.append((self.name, nodes))
            return split(self, nodes)

        monkeypatch.setattr(RootSystem, "_split", counting)
        e7 = RootSystem("E", 7)
        lam = e7.fundamental(4)
        for expected in ([("E7", (1, 2, 3, 4, 5, 6)),
                          ("E6", (1, 2, 3, 4, 5)),
                          ("D5", (2, 3, 4, 5))], []):
            calls.clear()
            decision = classify_global(e7, lam)
            trace_json(e7, lam, decision.trace)
            assert calls == expected
