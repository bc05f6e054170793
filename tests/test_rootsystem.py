"""Root systems: construction, pairings, alcove arithmetic, Levi retyping."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylirr import rootsystem
from weylirr.qarith import InternalCheckError
from weylirr.rootsystem import (
    MAX_RANK,
    RootSystem,
    build,
    format_weight,
    parse_type,
    parse_weight,
    systems,
)

from package_ast import literal_scopes, package_sources


# The dominance order, as a reference the tests check the minuscule tables
# against: a Fraction Gauss-Jordan inverse of the Cartan matrix, and a box
# enumeration of the dominant weights below a weight.
@lru_cache(maxsize=None)
def inv_cartan(rs):
    n = rs.rank
    aug = [[Fraction(rs.cartan(i + 1, j + 1)) for j in range(n)]
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


def dominance_leq(rs, mu, lam):
    """True iff lam - mu is a nonnegative integer sum of simple roots."""
    inv = inv_cartan(rs)
    diff = [l - m for l, m in zip(lam, mu)]
    for j in range(rs.rank):
        c = sum(inv[j][k] * diff[k] for k in range(rs.rank))
        if c < 0 or c.denominator != 1:
            return False
    return True


def dominant_weights_below(rs, mu):
    """Dominant nu with nu <= mu, by box enumeration of mu - nu."""
    inv = inv_cartan(rs)
    alpha_coords = [sum(inv[j][k] * mu[k] for k in range(rs.rank))
                    for j in range(rs.rank)]
    bounds = [int(u) for u in alpha_coords]
    if any(u < 0 for u in alpha_coords):
        return
    for c in itertools.product(*(range(b + 1) for b in bounds)):
        nu = tuple(mu[i] - sum(rs.cartan(i + 1, j + 1) * c[j]
                               for j in range(rs.rank))
                   for i in range(rs.rank))
        if all(x >= 0 for x in nu):
            yield nu


def coxeter(rs):
    """1 + the height of alpha0 in the coroot basis."""
    return 1 + sum(b * d for b, d in zip(rs.alpha0.coords, rs.symm))


# the number of positive roots of each type, in closed form
_ROOT_COUNTS = {"A": lambda n: n * (n + 1) // 2,
                "B": lambda n: n * n,
                "C": lambda n: n * n,
                "D": lambda n: n * (n - 1),
                "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
                "F": lambda n: 24,
                "G": lambda n: 6}


class TestConstruction:
    def test_positive_root_counts(self):
        for rs in systems(12):
            assert len(rs.positive_roots) == _ROOT_COUNTS[rs.kind](rs.rank), \
                rs.name

    def test_positive_roots_match_the_pairing_closure(self):
        # positive_roots carries each root's coroot pairings along; the
        # reference recomputes every pairing with root_pairing and every
        # squared length from the pairings, on fresh instances
        def reference(rs):
            n = rs.rank
            simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            found, todo = set(simple), list(simple)
            while todo:
                b = todo.pop()
                for i in range(1, n + 1):
                    k = rs.root_pairing(b, i)
                    if k < 0:
                        up = b[:i - 1] + (b[i - 1] - k,) + b[i:]
                        if up not in found:
                            found.add(up)
                            todo.append(up)
            roots = []
            for b in sorted(found, key=lambda c: (sum(c), c)):
                norm = sum(c * d * rs.root_pairing(b, j)
                           for j, (c, d) in enumerate(zip(b, rs.symm), 1))
                roots.append(rootsystem.Root(b, norm // 2))
            return tuple(roots)

        cases = [(rs.kind, rs.rank) for rs in systems(12)]
        cases += [("A", 20), ("B", 16), ("C", 16), ("D", 20)]
        for kind, rank in cases:
            rs = RootSystem(kind, rank)
            roots = rs.positive_roots
            assert roots == reference(rs), rs.name
            assert len(roots) == _ROOT_COUNTS[kind](rank), rs.name
            assert {r.d for r in roots} <= {1, 2, 3}

    def test_systems_match_the_per_type_construction(self):
        # the table order stated per type, not read from _ADMISSIBLE
        def reference(max_rank):
            out = []
            for kind, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
                out += [build(kind, n) for n in range(low, max_rank + 1)]
            for kind, n in (("F", 4), ("G", 2), ("E", 6), ("E", 7),
                            ("E", 8)):
                if n <= max_rank:
                    out.append(build(kind, n))
            return out

        for k in range(31):
            assert systems(k) == reference(k), k

    def test_coxeter_numbers(self):
        expected = {"A": lambda n: n + 1,
                    "B": lambda n: 2 * n,
                    "C": lambda n: 2 * n,
                    "D": lambda n: 2 * n - 2,
                    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
                    "F": lambda n: 12,
                    "G": lambda n: 6}
        for rs in systems(12):
            assert coxeter(rs) == expected[rs.kind](rs.rank), rs.name

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
        for rs in systems(12):
            assert rs.alpha0.d == 1

    def test_simple_roots_come_first(self):
        for rs in systems(12):
            for root in rs.positive_roots[:rs.rank]:
                assert sum(root.coords) == 1

    def test_neighbors(self):
        d4 = build("D", 4)
        assert sorted(d4.neighbors(2)) == [1, 3, 4]
        e8 = build("E", 8)
        assert sorted(e8.neighbors(4)) == [2, 3, 5]

    def test_cartan_matches_the_dense_definition(self):
        for rs in systems(24):
            n, d = rs.rank, rs.symm
            expected = tuple(
                tuple(2 if i == j
                      else -(max(d[i], d[j]) // d[i])
                      if j + 1 in rs.neighbors(i + 1) else 0
                      for j in range(n))
                for i in range(n))
            dense = tuple(tuple(rs.cartan(i, j) for j in range(1, n + 1))
                          for i in range(1, n + 1))
            assert dense == expected, rs.name

    def test_storage_is_linear_in_the_rank(self):
        # a dense n x n matrix of D3000 alone takes over 100 MB
        tracemalloc.start()
        try:
            RootSystem("D", 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

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
        # True and 1.0 pass the range test, but only an int names a node
        for node in (1.5, "1", True, 1.0):
            message = f"node: index {node!r} out of range for A3"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                rs.fundamental(node)

    @pytest.mark.parametrize("kind, rank", [
        ("A", 1), ("A", 2), ("B", 2), ("G", 2),
        ("A", 24), ("B", 24), ("C", 24), ("D", 24)])
    def test_fundamental_matches_the_indicator_form(self, kind, rank):
        rs = build(kind, rank)
        for i in range(1, rank + 1):
            assert rs.fundamental(i) == tuple(
                int(j == i - 1) for j in range(rank)), (rs.name, i)
        for node in (0, rank + 1, -1, True, 1.0):
            message = f"node: index {node!r} out of range for {rs.name}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                rs.fundamental(node)

    def test_rho_pairs_to_one_on_simples(self):
        for rs in systems(12):
            rho = (1,) * rs.rank
            for i in range(rs.rank):
                assert rs.pairing(rho, rs.positive_roots[i]) == 1

    def test_alpha0_matches_the_root_closure(self):
        # the walk to dominance against the highest short root of the
        # full closure, which must be unique and dominant
        for rs in systems(24):
            shorts = [r for r in rs.positive_roots if r.is_short]
            top = max(sum(r.coords) for r in shorts)
            peak, = [r for r in shorts if sum(r.coords) == top]
            assert rs.alpha0 == peak, rs.name
            assert all(rs.root_pairing(peak.coords, i) >= 0
                       for i in range(1, rs.rank + 1)), rs.name
            assert rs.alpha0_weight == rs.omega_coords(peak), rs.name

    def test_pairing_with_alpha0(self):
        for rs in systems(12):
            assert rs.pairing(rs.alpha0_weight, rs.alpha0) == 2
            assert rs.pairing((1,) * rs.rank, rs.alpha0) == coxeter(rs) - 1

    def test_slots_can_be_neither_assigned_nor_deleted(self):
        slots = [s for s in RootSystem.__slots__ if s != "__dict__"]
        for kind, n in (("A", 2), ("B", 3), ("C", 4), ("D", 5), ("E", 6),
                        ("F", 4), ("G", 2)):
            rs = build(kind, n)
            before = {s: getattr(rs, s) for s in slots}
            for s in slots:
                with pytest.raises(AttributeError):
                    setattr(rs, s, before[s])
                with pytest.raises(AttributeError):
                    delattr(rs, s)
            with pytest.raises(AttributeError):
                rs.extra = 1
            with pytest.raises(TypeError):
                rs._bond[1, 2] = 0
            with pytest.raises(TypeError):
                rs._neighbors[1] = ()
            assert {s: getattr(rs, s) for s in slots} == before
            # the cached values are still written, to the instance __dict__
            assert rs.positive_roots and rs.levi_subsystem([1])
            assert {"positive_roots", "_levi_memo"} <= set(vars(rs))


class TestWeights:
    def test_dominance(self):
        a2 = build("A", 2)
        assert dominance_leq(a2, (0, 0), a2.alpha0_weight)
        assert not dominance_leq(a2, (1, 0), (0, 1))
        a4 = build("A", 4)
        assert dominance_leq(a4, (0, 0, 0, 0), (1, 0, 0, 1))
        assert not dominance_leq(a4, (1, 0, 0, 1), (0, 0, 0, 0))
        assert dominance_leq(a4, (1, 0, 0, 1), (1, 0, 0, 1))

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

    def test_alpha0_arithmetic_matches_the_pairing(self):
        # the stored coroot against <lam+rho, alpha0^vee> read by pairing
        rng = random.Random(36)
        for rs in systems(12):
            h = coxeter(rs)
            levels = sorted({1, 2, 5, h - 1, h, h + 1, 2 * h + 1, 31})
            for _ in range(20):
                lam = tuple(rng.choice((0, 0, 1, 2, 7))
                            for _ in range(rs.rank))
                height = rs.pairing(tuple(c + 1 for c in lam), rs.alpha0)
                for level in levels:
                    t = height - level
                    assert rs.dot_reflect_alpha0(level, lam) == tuple(
                        c - t * a for c, a in zip(lam, rs.alpha0_weight)), (
                        rs.name, lam, level)
                    assert rs.in_bottom_alcove_closure(level, lam) \
                        == (height <= level), (rs.name, lam, level)

    def test_alcove_closure(self):
        a2 = build("A", 2)
        # the zero weight sits on the wall exactly at level h - 1
        assert a2.in_bottom_alcove_closure(2, (0, 0))
        assert a2.in_bottom_alcove_closure(3, (0, 0))
        assert not a2.in_bottom_alcove_closure(3, (1, 1))
        assert a2.in_bottom_alcove_closure(4, (1, 1))
        with pytest.raises(ValueError):
            a2.in_bottom_alcove_closure(3, (-1, 0))
        with pytest.raises(ValueError, match="^level: "):
            a2.in_bottom_alcove_closure(0, (0, 0))
        with pytest.raises(ValueError, match="^level: "):
            a2.dot_reflect_alpha0(0, (0, 0))

    @pytest.mark.parametrize("level", [2.5, True, 3.0])
    def test_level_must_be_an_int(self, level):
        a2 = build("A", 2)
        with pytest.raises(ValueError, match="^level: "):
            a2.dot_reflect_alpha0(level, (0, 0))
        with pytest.raises(ValueError, match="^level: "):
            a2.in_bottom_alcove_closure(level, (0, 0))

    @pytest.mark.parametrize("lam", [(1.5, 0), (1, 0.0), ("1", 0),
                                     (1, 0.5), (0.5, 0.5)])
    def test_weight_coordinates_must_be_ints(self, lam):
        # weyl_dimension((1, 0.0)) once returned 3.0, the alcove test on
        # (1.5, 0) raised InternalCheckError for this bad input, and
        # is_minuscule((0.5, 0.5)) leaked tuple.index's ValueError
        a2 = build("A", 2)
        message = "^weight: coordinates must be integers$"
        with pytest.raises(ValueError, match=message):
            a2.is_minuscule(lam)
        with pytest.raises(ValueError, match=message):
            a2.weyl_dimension(lam)
        with pytest.raises(ValueError, match=message):
            a2.in_bottom_alcove_closure(3, lam)
        with pytest.raises(ValueError, match=message):
            a2.dot_reflect_alpha0(3, lam)

    def test_check_dominant_returns_the_int_tuple(self):
        a2 = build("A", 2)
        assert a2.check_dominant([1, 0]) == (1, 0)
        for lam in ((-1, 0), (0, 0, 1), ()):
            with pytest.raises(ValueError, match="^weight: must be dominant$"):
                a2.check_dominant(lam)
        # the coordinates are checked before dominance, and any iterable
        # of ints is read
        for lam in ((-1, 0.5), (True, 0), (0, 1.0)):
            with pytest.raises(ValueError,
                               match="^weight: coordinates must be integers$"):
                a2.check_dominant(lam)
        assert a2.check_dominant(c for c in (2, 3)) == (2, 3)
        # the alcove test checks the weight before the level
        with pytest.raises(ValueError, match="^weight: must be dominant$"):
            a2.in_bottom_alcove_closure(0, (-1, 0))

    def test_alcove_closure_takes_a_level_not_an_order(self):
        # <theta+rho, theta^vee> = h + 1 = 31 for E8: theta is outside the
        # closed bottom alcove at level 30 (s at order 60), inside at 31
        e8 = build("E", 8)
        theta = e8.alpha0_weight
        assert theta == e8.fundamental(8)
        assert not e8.in_bottom_alcove_closure(30, theta)
        assert e8.in_bottom_alcove_closure(31, theta)

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
        for rs in systems(12):
            assert rs.weyl_dimension(rs.zero_weight()) == 1
        with pytest.raises(ValueError):
            build("A", 2).weyl_dimension((-1, 0))

    def test_weyl_dimension_matches_the_rational_product(self):
        # the product of the rational factors <lam+rho, a^vee> /
        # <rho, a^vee>, each summed here from the root's coordinates
        def reference(rs, lam):
            dim = Fraction(1)
            for root in rs.positive_roots:
                num = sum(b * d * (c + 1)
                          for b, d, c in zip(root.coords, rs.symm, lam))
                den = sum(b * d for b, d in zip(root.coords, rs.symm))
                dim *= Fraction(num, den)
            assert dim.denominator == 1
            return int(dim)

        for rs in systems(6):
            for lam in itertools.product((0, 1, 2), repeat=rs.rank):
                assert rs.weyl_dimension(lam) == reference(rs, lam), \
                    (rs.name, lam)

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
        # an independent reference: w_i is minuscule when <w_i, beta^vee>
        # is at most 1 on the whole positive-root closure
        for rs in systems(12):
            top = {i: max(rs.pairing(rs.fundamental(i), beta)
                          for beta in rs.positive_roots)
                   for i in range(1, rs.rank + 1)}
            assert rs.minuscule_nodes == {i for i, t in top.items()
                                          if t == 1}, rs.name
        n = 3000
        for kind, nodes in (("A", range(1, n + 1)), ("B", {n}), ("C", {1}),
                            ("D", {1, n - 1, n})):
            assert build(kind, n).minuscule_nodes == frozenset(nodes)

    def test_minuscule_nodes_are_dominance_minimal(self):
        # no dominant weight may sit strictly below a claimed-minuscule one
        for rs in systems(8):
            for i in rs.minuscule_nodes:
                mu = rs.fundamental(i)
                for nu in dominant_weights_below(rs, mu):
                    assert nu == mu or not dominance_leq(rs, nu, mu), \
                        f"{rs.name}: w{i} is not dominance-minimal"

    def test_minuscule_weights_listing(self):
        a3 = build("A", 3)
        weights = [a3.zero_weight()]
        weights += [a3.fundamental(i) for i in sorted(a3.minuscule_nodes)]
        assert set(weights) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_predicates_match_the_generator_forms(self):
        # the element-by-element definitions the builtins replaced; the
        # lengths rank - 1 and rank + 1 reach the length test
        def dominant(rs, lam):
            return len(lam) == rs.rank and all(c >= 0 for c in lam)

        def minuscule(rs, lam):
            if not dominant(rs, lam):
                raise ValueError("weight: must be dominant")
            if all(c == 0 for c in lam):
                return True
            if sum(lam) == 1:
                return (lam.index(1) + 1) in rs.minuscule_nodes
            return False

        def outcome(predicate, *args):
            # both forms of is_minuscule refuse every non-dominant weight
            try:
                return predicate(*args)
            except ValueError as exc:
                return str(exc)

        for rs in systems(4):
            for n in (rs.rank - 1, rs.rank, rs.rank + 1):
                for lam in itertools.product((-1, 0, 1, 2), repeat=n):
                    assert rs.is_dominant(lam) is dominant(rs, lam), lam
                    if n == rs.rank:
                        assert (outcome(rs.is_minuscule, lam)
                                == outcome(minuscule, rs, lam)), lam

    def test_is_minuscule_refuses_non_dominant_weights(self):
        # (2, -1) and (-1, 2) sum to 1 but have no coordinate 1, and
        # (0, 0, 1) has the wrong length
        a2 = build("A", 2)
        for lam in ((2, -1), (-1, 2), (-1, 0), (0, 0, 1)):
            with pytest.raises(ValueError, match="^weight: must be dominant$"):
                a2.is_minuscule(lam)


class TestLevi:
    def test_identity_levi_keeps_the_type(self):
        for rs in systems(12):
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

    def test_memo_matches_a_fresh_instance_on_every_subset(self):
        for rs in rootsystem.systems(6):
            fresh = RootSystem(rs.kind, rs.rank)
            nodes = range(1, rs.rank + 1)
            for size in range(1, rs.rank + 1):
                for J in itertools.combinations(nodes, size):
                    warm = rs.levi_subsystem(J)
                    assert warm == fresh.levi_subsystem(J), (rs.name, J)
                    assert rs.levi_subsystem(J) is warm

    def test_memo_ignores_order_and_repeats(self):
        rng = random.Random(20160)
        for rs in rootsystem.systems(24):
            fresh = RootSystem(rs.kind, rs.rank)
            for _ in range(12):
                J = rng.sample(range(1, rs.rank + 1),
                               rng.randint(1, rs.rank))
                shuffled = rng.sample(J, len(J)) + rng.choices(J, k=2)
                warm = rs.levi_subsystem(shuffled)
                assert warm == fresh.levi_subsystem(sorted(J)), (rs.name, J)
                assert rs.levi_subsystem(J) is warm
                assert rs.levi_subsystem(reversed(J)) is warm

    def test_memo_keeps_the_input_checks(self):
        bad = ([0], [1, "x"], [], (1.0, 2), [5])

        def messages(rs):
            out = []
            for J in bad:
                with pytest.raises(ValueError) as info:
                    rs.levi_subsystem(J)
                out.append(str(info.value))
            return out

        cold = messages(RootSystem("A", 4))
        a4 = RootSystem("A", 4)
        for size in range(1, 5):
            for J in itertools.combinations(range(1, 5), size):
                a4.levi_subsystem(J)
        assert messages(a4) == cold
        assert cold[3] == "nodes: 1.0 is not a node of A4"
        assert cold[4] == "nodes: 5 is not a node of A4"
        # True == 1 hashes like 1, so it is refused as a node before it
        # can reach the memo; the (1, 2) entry holds plain ints
        b4 = RootSystem("B", 4)
        with pytest.raises(ValueError,
                           match="^nodes: True is not a node of B4$"):
            b4.levi_subsystem((True, 2))
        comp, = b4.levi_subsystem((1, 2))
        assert [type(i) for i in comp.nodes] == [int, int]

    def test_a_wrong_bond_fails_the_retype_check(self):
        # B3 with its double bond turned round: the symmetrizers still read
        # as B3, but no type of rank 3 has those Cartan entries
        b3 = RootSystem("B", 3)
        bond = dict(b3._bond)
        bond[2, 3], bond[3, 2] = bond[3, 2], bond[2, 3]
        object.__setattr__(b3, "_bond", bond)
        with pytest.raises(InternalCheckError,
                           match=r"^B3: subdiagram \(1, 2, 3\) matches no "
                                 r"finite type$"):
            b3.levi_subsystem([1, 2, 3])
        # the corrupted copy is its own; the shared B3 is untouched
        assert build("B", 3)._bond[3, 2] == -2
        assert build("B", 3).symm == (2, 2, 1)

    @pytest.mark.parametrize("nodes", [[1, 2, 3], [1, 2]])
    def test_a_wrong_symmetrizer_fails_the_retype_check(self, nodes):
        # B3's bonds with node 1 made short: the bonds are right, but no
        # type times one twist has these symmetrizers
        b3 = RootSystem("B", 3)
        object.__setattr__(b3, "symm", (1, 2, 1))
        with pytest.raises(InternalCheckError, match=r"^B3: "):
            b3.levi_subsystem(nodes)
        assert build("B", 3).symm == (2, 2, 1)

    def test_every_piece_is_a_bourbaki_relabeling(self):
        # nodes[k-1] plays node k of the piece's system: every Cartan entry
        # and every symmetrizer (times the twist) carries over, and of the
        # relabelings a diagram symmetry allows, nodes is the smallest
        def symmetries(kind, m):
            ident = tuple(range(1, m + 1))
            if kind == "A":
                return [ident[::-1]]
            if kind == "D" and m == 4:
                return [(a, 2, b, c)
                        for a, b, c in itertools.permutations((1, 3, 4))]
            if kind == "D":
                return [ident[:-2] + (m, m - 1)]
            if kind == "E" and m == 6:
                return [(6, 2, 5, 4, 3, 1)]
            return []

        for rs in systems(9):
            for size in range(1, rs.rank + 1):
                for J in itertools.combinations(range(1, rs.rank + 1), size):
                    comps = rs.levi_subsystem(J)
                    assert sorted(a for c in comps for a in c.nodes) \
                        == list(J)
                    for c, other in itertools.permutations(comps, 2):
                        assert not any(rs.cartan(a, b) for a in c.nodes
                                       for b in other.nodes), (rs.name, J)
                    for c in comps:
                        child, nodes, m = c.system, c.nodes, len(c.nodes)
                        for i, j in itertools.product(range(1, m + 1),
                                                      repeat=2):
                            assert rs.cartan(nodes[i - 1], nodes[j - 1]) \
                                == child.cartan(i, j), (rs.name, J, i, j)
                        assert [rs.symm[a - 1] for a in nodes] \
                            == [c.twist * d for d in child.symm], (rs.name, J)
                        for sigma in symmetries(child.kind, m):
                            assert nodes <= tuple(nodes[k - 1] for k in sigma)

    def test_tree_path(self):
        e8 = build("E", 8)
        assert e8.tree_path(1, 8) == (1, 3, 4, 5, 6, 7, 8)
        assert e8.tree_path(2, 6) == (2, 4, 5, 6)
        assert e8.tree_path(3, 3) == (3,)

    def test_walk_pins(self):
        order, parent = build("E", 8).walk(1)
        assert order == [1, 3, 4, 2, 5, 6, 7, 8]
        assert parent == {1: None, 3: 1, 4: 3, 2: 4, 5: 4, 6: 5, 7: 6, 8: 7}
        assert build("D", 4).walk(1, {1, 2, 3}) == (
            [1, 2, 3], {1: None, 2: 1, 3: 2})

    @pytest.mark.parametrize("call, node", [
        (lambda rs: rs.tree_path(5, 1), 5),
        (lambda rs: rs.tree_path(0, 1), 0),
        (lambda rs: rs.walk(9), 9),
        (lambda rs: rs.tree_path(True, 3), True),
        (lambda rs: rs.tree_path(1, 4), 4),
        (lambda rs: rs.tree_path(1, 0), 0),
        (lambda rs: rs.tree_path(1, True), True),
        (lambda rs: rs.tree_path(1, 1.0), 1.0),
    ], ids=["path-from-5", "path-from-0", "walk-from-9", "path-from-True",
            "path-to-4", "path-to-0", "path-to-True", "path-to-float"])
    def test_walk_and_tree_path_refuse_a_bad_node(self, call, node):
        # these once raised a bare KeyError, or took True for node 1
        message = f"node: index {node!r} out of range for A3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(build("A", 3))

    def test_tree_path_is_read_from_the_walk_to_its_end(self):
        for rs in systems(12) + [build("D", 40), build("B", 40),
                                 build("E", 8)]:
            for j in range(1, rs.rank + 1):
                parent = rs.walk(j)[1]
                for i in range(1, rs.rank + 1):
                    path = [i]
                    while path[-1] != j:
                        path.append(parent[path[-1]])
                    assert rs.tree_path(i, j) == tuple(path), (rs.name, i, j)

    def test_tree_path_walks_a_system_once(self, monkeypatch):
        walks = []
        walk = RootSystem.walk

        def counting(self, root, inside=None):
            walks.append(root)
            return walk(self, root, inside)

        monkeypatch.setattr(RootSystem, "walk", counting)
        rs = RootSystem("D", 12)
        assert rs.tree_path(10, 11) == (10, 11)
        assert walks == [1]
        for i, j in itertools.product(range(1, 13), repeat=2):
            rs.tree_path(i, j)
        assert walks == [1]

    def test_tree_path_is_the_unique_path(self):
        for rs in systems(9):
            for i, j in itertools.product(range(1, rs.rank + 1), repeat=2):
                path = rs.tree_path(i, j)
                assert (path[0], path[-1]) == (i, j), (rs.name, i, j)
                assert all(b in rs.neighbors(a)
                           for a, b in zip(path, path[1:])), (rs.name, i, j)
                assert len(set(path)) == len(path), (rs.name, i, j)
                assert path == rs.tree_path(j, i)[::-1], (rs.name, i, j)


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
        assert parse_type("A", MAX_RANK).rank == MAX_RANK
        for text, rank in [(f"D{MAX_RANK + 1}", None), ("A", 10**9)]:
            with pytest.raises(ValueError, match="^rank: "):
                parse_type(text, rank)

    @pytest.mark.parametrize("text", ["A", "A3"])
    @pytest.mark.parametrize("rank", [10**5000, -10**5000],
                             ids=["5001-digits", "minus-5001-digits"])
    def test_parse_type_refuses_a_rank_too_long_to_print(self, text, rank):
        # str(rank) once ran first and leaked int's 4,300-digit limit error
        message = "rank: too many digits to print"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_type(text, rank)

    def test_parse_type_keeps_its_messages_below_the_digit_limit(self):
        for text, rank, message in [
                ("A", 3001, "rank: A3001 is above the rank limit 3000"),
                ("A", 10**4000,
                 f"rank: A{10**4000} is above the rank limit 3000"),
                ("A3", 4, "type: rank given twice ('A3' and 4)"),
                ("A3", 10**4000,
                 f"type: rank given twice ('A3' and {10**4000})"),
                ("B03", 4, "type: rank given twice ('B03' and 4)"),
                ("C", 2, "rank: no root system C2")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse_type(text, rank)
        # the two spellings of a rank are compared as numbers, not as text
        assert parse_type("B03", 3) is parse_type("B3") is build("B", 3)

    @pytest.mark.parametrize("text", ["A", "A3"])
    @pytest.mark.parametrize("rank", [2.7, True, "3", 3.0])
    def test_parse_type_refuses_a_rank_that_is_not_an_int(self, text, rank):
        # 2.7 once gave A2, True A1 and "3" A3
        message = f"rank: {rank!r} is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_type(text, rank)

    # lru_cache keys True and 1.0 alike with 1, so build("A", True) once
    # built a system named ATrue and served it to every later build("A", 1);
    # a fresh process for each order, since this one has built A1 and B2
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_build_and_systems_refuse_a_rank_that_is_not_an_int(
            self, bad_first):
        code = textwrap.dedent("""
            import json, sys
            from weylirr.rootsystem import build, systems

            def call(name, args):
                try:
                    out = {"build": build, "systems": systems}[name](*args)
                except ValueError as exc:
                    return str(exc)
                if name == "systems":
                    return [rs.name for rs in out]
                return [out.name, type(out.rank).__name__]

            print(json.dumps([call(*c) for c in json.loads(sys.argv[1])]))
        """)
        cases = [
            ("build", ["A", True], ["A", 1], ["A1", "int"]),
            ("build", ["B", 2.0], ["B", 2], ["B2", "int"]),
            ("systems", [True], [1], ["A1"]),
            ("systems", [2.5], [2], ["A1", "A2", "B2", "G2"]),
        ]
        calls = []
        for name, bad, good, _ in cases:
            calls += [(name, bad), (name, good)][::1 if bad_first else -1]
        src = Path(rootsystem.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(calls)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        answers = json.loads(proc.stdout)
        for k, (_, bad, _, built) in enumerate(cases):
            pair = answers[2 * k:2 * k + 2][::1 if bad_first else -1]
            assert pair == [f"rank: {bad[-1]!r} is not an integer", built]

    @pytest.mark.parametrize("rank", [10**5000, -10**5000, MAX_RANK + 1,
                                      -MAX_RANK - 1],
                             ids=["5001-digits", "minus-5001-digits",
                                  "one-above", "one-below"])
    def test_build_and_systems_refuse_a_rank_beyond_the_limit(
            self, monkeypatch, rank):
        # build once printed a 5001-digit rank into its type: message and
        # leaked int's digit-limit error, and took 10**5000 as admissible
        # and began a diagram of that many nodes; now it builds nothing
        def construct(kind, n):
            raise AssertionError(f"built {kind} of a refused rank")

        monkeypatch.setattr(rootsystem, "RootSystem", construct)
        message = f"rank: more than {MAX_RANK} in absolute value"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build("A", rank)
        if rank > 0:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                systems(rank)

    def test_build_keeps_its_messages_within_the_limit(self):
        assert build("A", MAX_RANK).rank == MAX_RANK
        for rank in (0, -MAX_RANK):
            message = f"type: no root system A{rank}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build("A", rank)
        assert systems(-MAX_RANK) == []

    def test_parse_weight(self):
        assert parse_weight("0,0,1", 3) == (0, 0, 1)
        assert parse_weight("0", 5) == (0, 0, 0, 0, 0)
        assert parse_weight("w1+2w3", 3) == (1, 0, 2)
        assert parse_weight("2w1-w2", 2) == (2, -1)
        assert parse_weight("w2", 4) == (0, 1, 0, 0)
        # int() alone would also take '_', a '+' sign and non-ASCII digits
        assert parse_weight("-w1", 2) == (-1, 0)
        assert parse_weight("-W1-w2", 2) == (-1, -1)
        for bad in ["", "1,2", "w5", "wx", "q1+w2", "1_0,0,0,0", "+1,0,0,0",
                    "1_0w1", "w\u0663", "w\u00b2", "w1+", "+w1", "w1++w2",
                    "w1+-w2", "w1-", "--w1", "-"]:
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


def test_the_dominant_weight_rule_is_written_once():
    # every reader of a weight calls RootSystem.check_dominant; the
    # classifier names neither the message nor int_weight
    sources = package_sources()
    assert sum(text.count("weight: must be dominant")
               for text in sources.values()) == 1
    assert literal_scopes(sources, "weight: must be dominant") == [
        "rootsystem.RootSystem.check_dominant"]
    assert "int_weight" not in sources["classifier"]
