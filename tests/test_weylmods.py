"""Determinants, the rank-8 certificate, and rank-one criteria."""

import sys
from types import SimpleNamespace

import pytest

from weylirr import acceptance, qarith, weylmods
from weylirr.qarith import (
    LaurentPoly,
    ONE,
    SpecOrder,
    qbinom,
    qbinom_vanishes_fast,
    qint,
    vanishes_at,
)
from weylirr.rootsystem import RootSystem, build, systems
from weylirr.weylmods import (
    adjoint_short_reducible_at,
    closed_form_detD,
    det_short_matrix,
    e8_certificate,
    g2_omega2_reducible_at,
    sl2_irreducible,
    sl2_maximal_vector_oracle,
)


def short_root_matrix(rs):
    """Reference short-root matrix, with its nodes, entries and size.

    Indexed by the short simple roots in Bourbaki order: diagonal entries
    are [2], off-diagonal entries are 1 exactly for adjacent short pairs.
    """
    nodes = rs.short_simple_nodes
    two = qint(2)
    rows = []
    for i in nodes:
        row = []
        for j in nodes:
            if i == j:
                row.append(two)
            elif rs.cartan(j, i) == -1:
                row.append(ONE)
            else:
                row.append(LaurentPoly())
        rows.append(tuple(row))
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            assert rows[a][b] == rows[b][a], "short-root matrix not symmetric"
    return SimpleNamespace(nodes=nodes, entries=tuple(rows), size=len(nodes))


class TestShortRootMatrix:
    def test_nodes_are_the_short_simples(self):
        assert short_root_matrix(build("A", 2)).nodes == (1, 2)
        assert short_root_matrix(build("B", 5)).nodes == (5,)
        assert short_root_matrix(build("C", 5)).nodes == (1, 2, 3, 4)
        assert short_root_matrix(build("F", 4)).nodes == (3, 4)
        assert short_root_matrix(build("G", 2)).nodes == (1,)
        assert short_root_matrix(build("E", 8)).size == 8

    def test_entries(self):
        m = short_root_matrix(build("A", 2))
        assert m.entries[0][0] == qint(2)
        assert m.entries[0][1] == ONE
        m = short_root_matrix(build("C", 4))
        assert m.entries[0][2] == LaurentPoly({})
        assert m.entries[1][2] == ONE


class TestDeterminants:
    def test_chain_types(self):
        for n in range(1, 9):
            assert det_short_matrix(build("A", n)) == qint(n + 1)
        for n in range(3, 9):
            assert det_short_matrix(build("C", n)) == qint(n)
        for n in range(2, 9):
            assert det_short_matrix(build("B", n)) == qint(2)
        assert det_short_matrix(build("G", 2)) == qint(2)
        assert det_short_matrix(build("F", 4)) == qint(3)

    def test_exceptional_forms(self):
        two, three = qint(2), qint(3)
        assert det_short_matrix(build("E", 6)) == two * qint(6) - three ** 2
        assert det_short_matrix(build("E", 7)) \
            == two * qint(7) - three * qint(4)
        assert det_short_matrix(build("E", 8)) \
            == two * qint(8) - three * qint(5)

    def test_e8_frozen_terms(self):
        det = det_short_matrix(build("E", 8))
        assert det == LaurentPoly(
            {8: 1, 6: 1, 2: -1, 0: -1, -2: -1, -6: 1, -8: 1})

    def test_matches_closed_form_everywhere(self):
        for kind, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
            for n in range(lo, 11):
                rs = build(kind, n)
                assert det_short_matrix(rs) == closed_form_detD(rs), rs.name

    def test_matches_the_laplace_reference(self):
        for rs in systems(12):
            assert (det_short_matrix(rs)
                    == _laplace_det(short_root_matrix(rs).entries)), rs.name

    def test_rank_1500_without_deep_recursion(self):
        # a recursion as deep as the rank would overflow the default limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            det = det_short_matrix(RootSystem("A", 1500))
        finally:
            sys.setrecursionlimit(limit)
        assert det == qint(1501)

    def test_vanishing_orders(self):
        a4 = build("A", 4)
        assert adjoint_short_reducible_at(a4, 5)
        assert adjoint_short_reducible_at(a4, 10)
        assert not adjoint_short_reducible_at(a4, 3)
        b5 = build("B", 5)
        assert adjoint_short_reducible_at(b5, 4)
        assert not adjoint_short_reducible_at(b5, 3)
        c6 = build("C", 6)
        assert adjoint_short_reducible_at(c6, 3)
        assert adjoint_short_reducible_at(c6, 4)
        assert adjoint_short_reducible_at(c6, 6)
        assert not adjoint_short_reducible_at(c6, 5)
        assert adjoint_short_reducible_at(build("E", 6), 3)
        assert adjoint_short_reducible_at(build("E", 7), 4)
        assert adjoint_short_reducible_at(build("F", 4), 3)
        assert adjoint_short_reducible_at(build("G", 2), 4)


def _laplace_det(entries):
    """Reference determinant: first-row expansion, memoized on the set of
    columns left; the recursion is as deep as the matrix size."""
    n = len(entries)
    memo = {}

    def expand(row, cols):
        if row == n:
            return ONE
        if cols not in memo:
            total = LaurentPoly()
            for k, col in enumerate(cols):
                entry = entries[row][col]
                if entry:
                    term = entry * expand(row + 1, cols[:k] + cols[k + 1:])
                    total = total + term if k % 2 == 0 else total - term
            memo[cols] = total
        return memo[cols]

    return expand(0, tuple(range(n)))


class TestE8Certificate:
    def test_frozen_polynomials(self):
        cert = e8_certificate()
        assert cert.f == LaurentPoly(
            {20: 1, 18: -1, 16: -1, 12: 1, 8: 1, 4: -1, 2: -1, 0: 1})
        assert cert.detD.shift(8) == LaurentPoly(
            {16: 1, 14: 1, 10: -1, 8: -1, 6: -1, 2: 1, 0: 1})
        assert cert.factors[0] * cert.factors[1] * cert.factors[2] == cert.f
        assert cert.value_at_one == 1
        assert cert.value_at_minus_one == 1

    def test_the_never_vanishing_claim_fails_at_sixty(self):
        # q^8 det(D) is exactly the 60th cyclotomic polynomial (totient 16),
        # so the determinant vanishes at a primitive 60th root of unity
        cert = e8_certificate()
        assert cert.failing_orders == (60,)
        assert not cert.certified
        from weylirr.qarith import cyclotomic
        assert cert.detD.shift(8) == cyclotomic(60)
        assert adjoint_short_reducible_at(build("E", 8), 60)

    def test_sixty_is_the_only_low_order(self):
        rs = build("E", 8)
        hits = [l for l in range(1, 121) if adjoint_short_reducible_at(rs, l)]
        assert hits == [60]


class TestSl2:
    def test_examples(self):
        assert not sl2_irreducible(2, 4)
        assert sl2_irreducible(1, 4)
        assert sl2_irreducible(5, 3)
        assert not sl2_irreducible(3, 3)
        assert sl2_irreducible(0, 7)
        assert sl2_irreducible(123, 1)
        assert sl2_irreducible(123, 2)

    def test_twisted_orders(self):
        # effective order of zeta^d drives the vanishing modulus
        assert sl2_irreducible(2, 6, d=2)
        assert not sl2_irreducible(3, 6, d=2)
        assert sl2_irreducible(9, 6, d=3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sl2_irreducible(-1, 3)
        with pytest.raises(ValueError):
            sl2_irreducible(2, 0)
        with pytest.raises(ValueError):
            sl2_maximal_vector_oracle(-2, 3)
        # a bool is not a weight: True once passed as lambda = 1
        message = "^lambda: must be a nonnegative integer$"
        for check in (sl2_irreducible, sl2_maximal_vector_oracle):
            for lam in (True, False):
                with pytest.raises(ValueError, match=message):
                    check(lam, 3)

    @pytest.mark.parametrize("ell,d,field", [
        (True, 1, "ell"), (3, 1.0, "d"), (3, True, "d"), (6, 2.0, "d"),
        ([1], 1, "ell"), (4, {1: 2}, "d")])
    def test_order_readers_refuse_bools_and_floats(self, ell, d, field):
        # each reads its order through SpecOrder or the same checks
        a4 = build("A", 4)
        for check in (sl2_irreducible, sl2_maximal_vector_oracle,
                      lambda _, e, t: adjoint_short_reducible_at(a4, e, t),
                      lambda _, e, t: g2_omega2_reducible_at(e, t)):
            with pytest.raises(ValueError, match=f"^{field}: "):
                check(3, ell, d)

    def test_oracle_agrees_on_a_block(self):
        for ell in range(1, 13):
            for lam in range(0, 40):
                assert (sl2_irreducible(lam, ell)
                        == sl2_maximal_vector_oracle(lam, ell)), (lam, ell)

    def test_oracle_agrees_under_twist(self):
        for d in (2, 3):
            for ell in range(1, 13):
                for lam in range(0, 25):
                    assert (sl2_irreducible(lam, ell, d)
                            == sl2_maximal_vector_oracle(lam, ell, d))

    @pytest.mark.parametrize("args,kwargs", [
        ((3, 1.0), {}), ((3, 0), {}), ((3, 5), {"d": 4}), ((-1, 3), {}),
        ((3, 5), {"d": 1.0}), ((3, True), {}), ((3, 1), {"d": True}),
        ((3, 5), {"d": True}), ((1, [1]), {}), ((1, 4), {"d": {1: 2}}),
    ])
    def test_s_cache_keeps_the_input_checks(self, args, kwargs):
        # (1.0, 1) == (True, 1) == (1, 1), so a lookup before the checks
        # would let a float or bool through once the integer key is warm;
        # no such lookup is left, and every reader of the order rule gives
        # the criterion's message
        with pytest.raises(ValueError) as cold:
            sl2_irreducible(*args, **kwargs)
        assert sl2_irreducible(3, 1) and sl2_irreducible(3, 5, 1)
        with pytest.raises(ValueError) as warm:
            sl2_irreducible(*args, **kwargs)
        assert str(warm.value) == str(cold.value)
        with pytest.raises(ValueError) as oracle:
            sl2_maximal_vector_oracle(*args, **kwargs)
        assert str(oracle.value) == str(cold.value)
        if str(cold.value).startswith("lambda: "):
            SpecOrder(*args[1:], **kwargs)  # the order itself is good
            return
        with pytest.raises(ValueError) as spec:
            SpecOrder(*args[1:], **kwargs)
        assert str(spec.value) == str(cold.value)

    def test_oracle_matches_the_per_binomial_reference(self):
        # the reference reads only spec.s, so it runs once per (lam, s)
        expected = {}
        for d in (1, 2, 3):
            for ell in range(1, 61):
                spec = SpecOrder(ell, d)
                for lam in range(301):
                    key = lam, spec.s
                    if key not in expected:
                        expected[key] = _oracle_reference(lam, spec)
                    assert (sl2_maximal_vector_oracle(lam, ell, d)
                            == expected[key]), (lam, ell, d)

    def test_oracle_matches_the_symbolic_binomials(self):
        # each [j+m, m] expanded and tested exactly, so the inline carry
        # count is judged against polynomials, not against the formula it
        # copies; vanishes_at reads only the effective order
        binom, vanish = {}, {}

        def vanishes(n, m, spec):
            key = n, m, spec.effective_order
            if key not in vanish:
                if (n, m) not in binom:
                    binom[n, m] = qbinom(n, m)
                vanish[key] = vanishes_at(binom[n, m], spec)
            return vanish[key]

        for d in (1, 2, 3):
            for ell in range(1, 25):
                spec = SpecOrder(ell, d)
                for lam in range(41):
                    expected = not any(
                        all(vanishes(j + m, m, spec)
                            for m in range(1, lam - j + 1))
                        for j in range(lam))
                    assert (sl2_maximal_vector_oracle(lam, ell, d)
                            == expected), (lam, ell, d)

    def test_unbounded_order_instance(self):
        # s-values 1,1,3,2 for orders 1..4; their product minus one is 5
        for ell in (1, 2, 3, 4):
            assert sl2_irreducible(5, ell)
        assert not sl2_irreducible(5, 5)

    def test_oracle_reads_none_of_the_criterion(self, monkeypatch):
        # the oracle is the criterion's independent check: it must answer
        # with the closed form and the binomial carry test unavailable; it
        # shares only qarith's order rule, which every SpecOrder reads
        expected = {(lam, ell, d): _oracle_reference(lam, SpecOrder(ell, d))
                    for d in (1, 2, 3) for ell in range(1, 25)
                    for lam in range(61)}

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle read the criterion")

        monkeypatch.setattr(weylmods, "sl2_irreducible", refuse)
        monkeypatch.setattr(qarith, "qbinom_vanishes_fast", refuse)
        for (lam, ell, d), want in expected.items():
            assert sl2_maximal_vector_oracle(lam, ell, d) == want, \
                (lam, ell, d)

    def test_oracle_pins(self):
        # at s = 5 only v_4, the top v_j below v_5, is annihilated: [5] = 0,
        # while E^(1) moves v_0..v_3
        spec = SpecOrder(5)
        assert not sl2_maximal_vector_oracle(5, 5)
        assert qbinom_vanishes_fast(5, 1, spec)
        assert not any(qbinom_vanishes_fast(j + 1, 1, spec) for j in range(4))
        for ell in range(1, 13):
            for d in (1, 2, 3):
                assert sl2_maximal_vector_oracle(0, ell, d)

    def test_only_the_top_s_minus_one_vectors_can_be_annihilated(self):
        # the oracle's window: for j <= lam - s, E^(s) moves v_j because
        # [j+s, s] is nonzero, checked here on the expanded binomials
        binom = {}
        seen = set()
        for d in (1, 2, 3):
            for ell in range(1, 73):
                spec = SpecOrder(ell, d)
                key = spec.s, spec.effective_order
                if not 2 <= spec.s <= 12 or key in seen:
                    continue
                seen.add(key)
                for j in range(41):
                    if (j, spec.s) not in binom:
                        binom[j, spec.s] = qbinom(j + spec.s, spec.s)
                    assert not vanishes_at(binom[j, spec.s], spec), \
                        (j, ell, d)
        assert {s for s, _ in seen} == set(range(2, 13))

    def test_oracle_matches_the_full_scan(self):
        # the windowed scan against the scan over every v_j below the top;
        # both read only s, so one order per value of s
        orders = {}
        for d in (1, 2, 3):
            for ell in range(1, 121):
                orders.setdefault(SpecOrder(ell, d).s, (ell, d))
        for s, (ell, d) in orders.items():
            for lam in range(400):
                assert (sl2_maximal_vector_oracle(lam, ell, d)
                        == _full_scan_oracle(lam, s)), (lam, ell, d)

    @pytest.mark.parametrize("lam", [10**4 - 1, 10**4, 10**6 + 3])
    def test_oracle_agrees_at_large_weights(self, lam):
        # the scan touches at most s - 1 vectors, so lam = 10^6 is as
        # cheap as lam = 10
        for d in (1, 2, 3):
            for ell in range(1, 61):
                assert (sl2_maximal_vector_oracle(lam, ell, d)
                        == sl2_irreducible(lam, ell, d)), (lam, ell, d)

    def test_equivalence_check_calls_both_sides_on_every_pair(
            self, monkeypatch):
        calls = {"sl2_irreducible": 0, "sl2_maximal_vector_oracle": 0}

        def counted(name):
            inner = getattr(acceptance, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(acceptance, name, counted(name))
        assert (acceptance._check_sl2_equivalence()
                == "criterion and oracle agree on all 18060 pairs")
        assert calls == {"sl2_irreducible": 18060,
                         "sl2_maximal_vector_oracle": 18060}


def _oracle_reference(lam, spec):
    """Reference divided-power oracle: one qbinom_vanishes_fast call
    per binomial [j+m, m]."""
    for j in range(lam):
        alive = False
        for m in range(1, lam - j + 1):
            if not qbinom_vanishes_fast(j + m, m, spec):
                alive = True
                break
        if not alive:
            return False
    return True


def _full_scan_oracle(lam, s):
    """The by-power scan started from every v_j below the top, with s
    read from the order: the oracle before its window."""
    if s == 1:
        return True
    pending = list(range(lam))
    m = 0
    while pending:
        m += 1
        if pending[-1] + m > lam:
            return False
        carries = m // s
        pending = [j for j in pending if (j + m) // s - j // s != carries]
    return True


class TestG2Scalar:
    def test_reducibility_orders(self):
        assert g2_omega2_reducible_at(3)
        assert g2_omega2_reducible_at(6)
        for ell in (1, 2, 4, 5, 7, 12):
            assert not g2_omega2_reducible_at(ell), ell

    def test_matches_the_symbolic_scalar(self):
        scalar = qint(6) ** 2 - qint(3)
        for ell in range(1, 30):
            assert (g2_omega2_reducible_at(ell)
                    == vanishes_at(scalar, SpecOrder(ell)))
