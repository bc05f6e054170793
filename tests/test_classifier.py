"""Witness search, trace replay, and the global decision path."""

import dataclasses
from functools import lru_cache

import pytest

from weylirr import rootsystem
from weylirr.classifier import (
    AdjointShortRoot,
    EndNode,
    FundWeight,
    LeviDescent,
    Sl2Node,
    TraceError,
    classify_global,
    endnode_witness,
    find_witness,
    fundamental_weight_witness,
    leaf_step,
    trace_citations,
    trace_json,
    verify_witness,
    witness_ell,
)
from weylirr.rootsystem import RootSystem, build, parse_type, parse_weight


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
        step, = trace
        assert isinstance(step, LeviDescent)
        assert step.nodes == (1, 3, 4, 2, 5)
        assert step.component == "D5"
        assert step.twist == 1
        assert step.restricted == (0, 1, 0, 0, 0)
        assert step.inner == (FundWeight(2, 4, "adjoint_short_root"),)
        assert witness_ell(trace) == 4

    def test_fundamental_descent_nests(self):
        trace = find_witness(build("E", 7), (0, 0, 0, 0, 1, 0, 0))
        assert witness_ell(trace) == 4
        step, = trace
        assert step.component == "E6"
        inner, = step.inner
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
        step, = trace
        assert isinstance(step, LeviDescent)
        assert step.nodes == (1, 2, 3)
        assert step.component == "A3"
        assert step.inner == (EndNode("a", 4),)

    def test_twisted_end_node(self):
        trace = find_witness(build("B", 5), (0, 1, 0, 1, 0))
        step, = trace
        assert step.component == "A3"
        assert step.twist == 2
        assert step.inner == (EndNode("a", 8),)
        assert witness_ell(trace) == 8
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
            got = fundamental_weight_witness(rs, i)
            if expected is None:
                assert got is None, (rs.name, i)
            else:
                ell, tag = got
                assert ell == expected, (rs.name, i, got)

    def test_tags(self):
        assert fundamental_weight_witness(build("G", 2), 2)[1] == "g2_omega2"
        assert fundamental_weight_witness(build("B", 4), 2)[1] \
            == "adjoint_short_root"

    def test_every_nontrivial_witness_replays(self):
        for (kind, rank) in FUNDAMENTAL_TABLE:
            rs = build(kind, rank)
            for i in range(1, rank + 1):
                lam = rs.fundamental(i)
                trace = find_witness(rs, lam)
                if trace is not None:
                    assert verify_witness(rs, lam, trace), (rs.name, i)


class TestEndNodes:
    def test_table(self):
        assert endnode_witness(build("A", 2)) == ((1, 1), 3, "a")
        assert endnode_witness(build("A", 5)) == ((1, 0, 0, 0, 1), 6, "a")
        assert endnode_witness(build("B", 4)) == ((1, 0, 0, 1), 9, "b")
        assert endnode_witness(build("C", 5)) == ((1, 0, 0, 0, 1), 4, "c")
        assert endnode_witness(build("F", 4)) == ((1, 0, 0, 1), 4, "d")
        assert endnode_witness(build("G", 2)) == ((1, 1), 4, "e")

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
        step, = find_witness(e6, lam)
        bad = dataclasses.replace(step, restricted=(1, 0, 0, 0, 0))
        assert not verify_witness(e6, lam, (bad,))

    def test_alternative_hand_built_trace(self):
        # the same weight can carry distinct valid witnesses
        a5 = build("A", 5)
        alpha0 = (1, 0, 0, 0, 1)
        assert verify_witness(a5, alpha0, (EndNode("a", 6),))
        assert verify_witness(a5, alpha0, (AdjointShortRoot(3),))
        assert verify_witness(a5, alpha0, (AdjointShortRoot(6),))
        assert not verify_witness(a5, alpha0, (AdjointShortRoot(5),))

    def test_malformed_traces_raise(self):
        a2 = build("A", 2)
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), ())
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), (EndNode("a", 3), EndNode("a", 3)))
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), ("junk",))
        with pytest.raises(TraceError):
            verify_witness(a2, (1, 1), (EndNode("z", 3),))
        with pytest.raises(TraceError):
            verify_witness(a2, (2, 0), (Sl2Node(5, 4),))
        with pytest.raises(TraceError):
            verify_witness(a2, (2, 0), (Sl2Node(1, 0),))


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
            assert decision.witness_ell \
                == leaf_step(decision.trace).ell

    def test_rejects_non_dominant_weights(self):
        with pytest.raises(ValueError):
            classify_global(build("A", 2), (-1, 0))


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

    def test_citations_deduplicate(self):
        rs = build("E", 7)
        lam = (0, 0, 0, 0, 1, 0, 0)
        trace = find_witness(rs, lam)
        cites = trace_citations(trace)
        assert len(cites) == len(set(cites)) == 2


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
            assert "_inv_cartan" not in vars(system), system.name
