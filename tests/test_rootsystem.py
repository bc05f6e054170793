"""Root systems: construction, pairings, alcove arithmetic, Levi retyping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylirr.rootsystem import (
    build,
    format_weight,
    parse_type,
    parse_weight,
)

def systems(max_rank=12):
    lowest = {"A": 1, "B": 2, "C": 3, "D": 4}
    out = [build(kind, n) for kind, lo in lowest.items()
           for n in range(lo, max_rank + 1)]
    out += [build(kind, n) for kind, n in (("E", 6), ("E", 7), ("E", 8),
                                           ("F", 4), ("G", 2))
            if n <= max_rank]
    return out


class TestConstruction:
    def test_positive_root_counts(self):
        expected = {"A": lambda n: n * (n + 1) // 2,
                    "B": lambda n: n * n,
                    "C": lambda n: n * n,
                    "D": lambda n: n * (n - 1),
                    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
                    "F": lambda n: 24,
                    "G": lambda n: 6}
        for rs in systems():
            assert len(rs.positive_roots) == expected[rs.kind](rs.rank), rs.name

    def test_coxeter_numbers(self):
        expected = {"A": lambda n: n + 1,
                    "B": lambda n: 2 * n,
                    "C": lambda n: 2 * n,
                    "D": lambda n: 2 * n - 2,
                    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
                    "F": lambda n: 12,
                    "G": lambda n: 6}
        for rs in systems():
            assert rs.coxeter == expected[rs.kind](rs.rank), rs.name

    def test_alpha0_weights(self):
        assert build("A", 1).alpha0_weight == (2,)
        assert build("A", 5).alpha0_weight == (1, 0, 0, 0, 1)
        assert build("B", 5).alpha0_weight == (1, 0, 0, 0, 0)
        assert build("C", 5).alpha0_weight == (0, 1, 0, 0, 0)
        assert build("D", 6).alpha0_weight == (0, 1, 0, 0, 0, 0)
        assert build("E", 6).alpha0_weight == (0, 1, 0, 0, 0, 0)
        assert build("E", 7).alpha0_weight == (1, 0, 0, 0, 0, 0, 0)
        assert build("E", 8).alpha0_weight == (0, 0, 0, 0, 0, 0, 0, 1)
        assert build("F", 4).alpha0_weight == (0, 0, 0, 1)
        assert build("G", 2).alpha0_weight == (1, 0)

    def test_alpha0_root_coordinates(self):
        assert build("B", 4).alpha0.coords == (1, 1, 1, 1)
        assert build("C", 4).alpha0.coords == (1, 2, 2, 1)
        assert build("F", 4).alpha0.coords == (1, 2, 3, 2)
        assert build("G", 2).alpha0.coords == (2, 1)
        assert build("E", 8).alpha0.coords == (2, 3, 4, 6, 5, 4, 3, 2)
        for rs in systems():
            assert rs.alpha0.d == 1

    def test_simple_roots_come_first(self):
        for rs in systems():
            for root in rs.positive_roots[:rs.rank]:
                assert root.height == 1

    def test_neighbors(self):
        d4 = build("D", 4)
        assert sorted(d4.neighbors(2)) == [1, 3, 4]
        e8 = build("E", 8)
        assert sorted(e8.neighbors(4)) == [2, 3, 5]

    def test_rank_bounds(self):
        for kind, rank in [("A", 0), ("B", 1), ("C", 2), ("D", 3),
                           ("E", 5), ("E", 9), ("F", 3), ("G", 1)]:
            with pytest.raises(ValueError):
                build(kind, rank)

    def test_fundamental_bounds(self):
        rs = build("A", 3)
        assert rs.fundamental(2) == (0, 1, 0)
        with pytest.raises(ValueError):
            rs.fundamental(0)
        with pytest.raises(ValueError):
            rs.fundamental(4)

    def test_rho_pairs_to_one_on_simples(self):
        for rs in systems():
            rho = rs.rho()
            for i in range(rs.rank):
                assert rs.pairing(rho, rs.positive_roots[i]) == 1

    def test_alpha0_matches_the_root_closure(self):
        # the walk to dominance against the highest short root of the
        # full closure, which must be unique and dominant
        for rs in systems(24):
            shorts = [r for r in rs.positive_roots if r.is_short]
            top = max(r.height for r in shorts)
            peak, = [r for r in shorts if r.height == top]
            assert rs.alpha0 == peak, rs.name
            assert all(rs.root_pairing(peak.coords, i) >= 0
                       for i in range(1, rs.rank + 1)), rs.name
            assert rs.alpha0_weight == rs.omega_coords(peak), rs.name
            assert rs.coxeter == 1 + sum(
                b * d for b, d in zip(peak.coords, rs.symm)), rs.name

    def test_pairing_with_alpha0(self):
        for rs in systems():
            assert rs.pairing(rs.alpha0_weight, rs.alpha0) == 2
            assert rs.pairing(rs.rho(), rs.alpha0) == rs.coxeter - 1


class TestWeights:
    def test_dominance(self):
        a2 = build("A", 2)
        assert a2.dominance_leq((0, 0), a2.alpha0_weight)
        assert not a2.dominance_leq((1, 0), (0, 1))
        a4 = build("A", 4)
        assert a4.dominance_leq((0, 0, 0, 0), (1, 0, 0, 1))
        assert not a4.dominance_leq((1, 0, 0, 1), (0, 0, 0, 0))
        assert a4.dominance_leq((1, 0, 0, 1), (1, 0, 0, 1))

    def test_dot_reflection_examples(self):
        for n in range(2, 7):
            rs = build("A", n)
            assert rs.dot_reflect_alpha0(n + 1, rs.zero_weight()) \
                == rs.alpha0_weight
        b5 = build("B", 5)
        assert b5.dot_reflect_alpha0(11, b5.fundamental(5)) == (1, 0, 0, 0, 1)

    @given(st.integers(1, 40),
           st.tuples(*[st.integers(0, 4)] * 4))
    def test_dot_reflection_is_an_involution(self, ell, lam):
        rs = build("D", 4)
        assert rs.dot_reflect_alpha0(ell, rs.dot_reflect_alpha0(ell, lam)) \
            == lam

    def test_alcove_closure(self):
        a2 = build("A", 2)
        # the zero weight sits on the wall exactly at ell = h - 1
        assert a2.in_bottom_alcove_closure(2, (0, 0))
        assert a2.in_bottom_alcove_closure(3, (0, 0))
        assert not a2.in_bottom_alcove_closure(3, (1, 1))
        assert a2.in_bottom_alcove_closure(4, (1, 1))
        with pytest.raises(ValueError):
            a2.in_bottom_alcove_closure(3, (-1, 0))
        with pytest.raises(ValueError):
            a2.in_bottom_alcove_closure(0, (0, 0))

    def test_weyl_dimensions(self):
        cases = [
            (("A", 2), (1, 0), 3),
            (("A", 2), (1, 1), 8),
            (("B", 2), (1, 0), 5),
            (("B", 2), (0, 1), 4),
            (("C", 3), (0, 1, 0), 14),
            (("G", 2), (1, 0), 7),
            (("G", 2), (0, 1), 14),
            (("F", 4), (0, 0, 0, 1), 26),
            (("E", 8), (0, 0, 0, 0, 0, 0, 0, 1), 248),
        ]
        for (kind, rank), lam, dim in cases:
            assert build(kind, rank).weyl_dimension(lam) == dim
        for rs in systems():
            assert rs.weyl_dimension(rs.zero_weight()) == 1
        with pytest.raises(ValueError):
            build("A", 2).weyl_dimension((-1, 0))

    def test_minuscule_tables(self):
        expected = {("A", 3): {1, 2, 3}, ("B", 3): {3}, ("C", 3): {1},
                    ("D", 5): {1, 4, 5}, ("E", 6): {1, 6}, ("E", 7): {7},
                    ("E", 8): set(), ("F", 4): set(), ("G", 2): set()}
        for (kind, rank), nodes in expected.items():
            rs = build(kind, rank)
            assert rs.minuscule_nodes == frozenset(nodes)
            assert rs.is_minuscule(rs.zero_weight())
            for i in range(1, rank + 1):
                assert rs.is_minuscule(rs.fundamental(i)) == (i in nodes)
            assert not rs.is_minuscule(rs.alpha0_weight) or kind == "X"

    def test_minuscule_nodes_are_dominance_minimal(self):
        # no dominant weight may sit strictly below a claimed-minuscule one
        for rs in systems(8):
            for i in rs.minuscule_nodes:
                mu = rs.fundamental(i)
                for nu in rs._dominant_weights_below(mu):
                    assert nu == mu or not rs.dominance_leq(nu, mu), \
                        f"{rs.name}: w{i} is not dominance-minimal"

    def test_minuscule_weights_listing(self):
        a3 = build("A", 3)
        weights = a3.minuscule_weights()
        assert set(weights) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


class TestLevi:
    def test_identity_levi_keeps_the_type(self):
        for rs in systems():
            comps = rs.levi_subsystem(range(1, rs.rank + 1))
            assert len(comps) == 1
            comp = comps[0]
            assert comp.system.name == rs.name
            assert comp.twist == 1
            assert sorted(comp.nodes) == list(range(1, rs.rank + 1))

    def test_components_split_and_sort(self):
        d4 = build("D", 4)
        comps = d4.levi_subsystem([1, 3, 4])
        assert [c.nodes for c in comps] == [(1,), (3,), (4,)]
        assert all(c.system.name == "A1" for c in comps)

    def test_chain_retypes(self):
        e6 = build("E", 6)
        comp, = e6.levi_subsystem([1, 3, 4, 5, 6])
        assert comp.system.name == "A5"
        assert comp.nodes == (1, 3, 4, 5, 6)
        comp, = e6.levi_subsystem([2, 3, 4, 5])
        assert comp.system.name == "D4"

    def test_e7_retypes(self):
        e7 = build("E", 7)
        comp, = e7.levi_subsystem([2, 3, 4, 5, 6, 7])
        assert comp.system.name == "D6"
        assert comp.nodes == (7, 6, 5, 4, 2, 3)
        comp, = e7.levi_subsystem([1, 2, 3, 4, 5, 6])
        assert comp.system.name == "E6"
        assert comp.nodes == (1, 2, 3, 4, 5, 6)

    def test_doubly_laced_retypes(self):
        c3 = build("C", 3)
        comp, = c3.levi_subsystem([2, 3])
        assert (comp.system.name, comp.nodes, comp.twist) == ("B2", (3, 2), 1)
        comp, = c3.levi_subsystem([1, 2])
        assert (comp.system.name, comp.twist) == ("A2", 1)
        b3 = build("B", 3)
        comp, = b3.levi_subsystem([1, 2])
        assert (comp.system.name, comp.twist) == ("A2", 2)
        f4 = build("F", 4)
        comp, = f4.levi_subsystem([2, 3])
        assert (comp.system.name, comp.nodes, comp.twist) == ("B2", (2, 3), 1)
        comp, = f4.levi_subsystem([1, 2, 3])
        assert (comp.system.name, comp.nodes) == ("B3", (1, 2, 3))
        comp, = f4.levi_subsystem([2, 3, 4])
        assert (comp.system.name, comp.nodes) == ("C3", (4, 3, 2))

    def test_twists(self):
        g2 = build("G", 2)
        assert g2.levi_subsystem([1])[0].twist == 1
        assert g2.levi_subsystem([2])[0].twist == 3
        b4 = build("B", 4)
        assert b4.levi_subsystem([4])[0].twist == 1
        assert b4.levi_subsystem([1])[0].twist == 2
        f4 = build("F", 4)
        assert f4.levi_subsystem([1, 2])[0].twist == 2
        assert f4.levi_subsystem([3, 4])[0].twist == 1

    def test_restrict(self):
        e6 = build("E", 6)
        comp, = e6.levi_subsystem([1, 3, 4, 2, 5])
        assert comp.system.name == "D5"
        assert comp.nodes == (1, 3, 4, 2, 5)
        assert comp.restrict((0, 0, 1, 0, 0, 0)) == (0, 1, 0, 0, 0)

    def test_bad_nodes(self):
        a3 = build("A", 3)
        with pytest.raises(ValueError):
            a3.levi_subsystem([0])
        with pytest.raises(ValueError):
            a3.levi_subsystem([1, "x"])
        with pytest.raises(ValueError):
            a3.levi_subsystem([])

    def test_tree_path(self):
        e8 = build("E", 8)
        assert e8.tree_path(1, 8) == (1, 3, 4, 5, 6, 7, 8)
        assert e8.tree_path(2, 6) == (2, 4, 5, 6)
        assert e8.tree_path(3, 3) == (3,)


class TestParsing:
    def test_parse_type(self):
        assert parse_type("E8").name == "E8"
        assert parse_type("d", 5).name == "D5"
        assert parse_type("B2").rank == 2
        with pytest.raises(ValueError):
            parse_type("H3")
        with pytest.raises(ValueError):
            parse_type("A")
        with pytest.raises(ValueError):
            parse_type("A2", 3)
        with pytest.raises(ValueError):
            parse_type("C", 2)

    def test_parse_weight(self):
        assert parse_weight("0,0,1", 3) == (0, 0, 1)
        assert parse_weight("0", 5) == (0, 0, 0, 0, 0)
        assert parse_weight("w1+2w3", 3) == (1, 0, 2)
        assert parse_weight("2w1-w2", 2) == (2, -1)
        assert parse_weight("w2", 4) == (0, 1, 0, 0)
        for bad in ["", "1,2", "w5", "wx", "q1+w2"]:
            with pytest.raises(ValueError):
                parse_weight(bad, 4)

    def test_format_weight(self):
        assert format_weight((0, 0, 0)) == "0"
        assert format_weight((1, 0, 2)) == "w1+2w3"
        assert format_weight((2, -1)) == "2w1-w2"

    @given(st.lists(st.integers(-5, 9), min_size=1, max_size=8))
    def test_round_trip(self, coords):
        lam = tuple(coords)
        assert parse_weight(format_weight(lam), len(lam)) == lam
