"""Exact-arithmetic layer: frozen values, ring laws, vanishing rules."""

import ast
import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylirr import acceptance, qarith
from weylirr.qarith import (
    ExactDivisionError,
    LaurentPoly,
    MAX_SPAN,
    ONE,
    SpecOrder,
    ZERO,
    _cyclo_coeffs,
    _cyclo_value,
    _dense_exact_div,
    _fold,
    cyclotomic,
    euler_phi,
    qbinom,
    qbinom_vanishes_fast,
    qfactorial,
    qint,
    qint_vanishes_fast,
    s_value,
    vanishes_at,
)
from weylirr.rootsystem import systems
from weylirr.weylmods import det_short_matrix

from package_ast import literal_scopes, package_sources, scoped_nodes

Q = LaurentPoly({1: 1})

polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9),
                        max_size=6).map(LaurentPoly)
# nonzero rational evaluation points, small enough to stay exact and fast
points = st.builds(Fraction,
                   st.integers(-7, 7).filter(lambda n: n != 0),
                   st.integers(1, 7))


class TestLaurentPoly:
    def test_constructor_drops_zero_coefficients(self):
        assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
        assert LaurentPoly({}) == ZERO
        assert not ZERO
        assert ONE

    def test_equality_with_integers(self):
        assert LaurentPoly({0: 5}) == 5
        assert ZERO == 0
        assert LaurentPoly({1: 1}) != 1

    def test_hash_agrees_with_equality_with_integers(self):
        # a constant hashes as the int it equals, so a set or a dict key
        # does not hold a polynomial and its equal int apart
        assert len({qint(1), 1}) == 1
        assert hash(LaurentPoly({0: -3})) == hash(-3)
        assert hash(ZERO) == hash(0) == 0
        for c in (1, -1, 2, -2, 10 ** 30, -(2 ** 61)):
            assert LaurentPoly({0: c}) == c
            assert hash(LaurentPoly({0: c})) == hash(c)
        assert {qint(2) - qint(2): "zero"}[0] == "zero"

    def test_degree_and_valuation(self):
        p = LaurentPoly({3: 1, -2: 4})
        assert p.degree == 3
        assert p.valuation == -2
        with pytest.raises(ValueError):
            _ = ZERO.degree
        with pytest.raises(ValueError):
            _ = ZERO.valuation

    def test_immutable(self):
        p = qint(2)
        with pytest.raises(AttributeError):
            p._terms = {}

    def test_slots_cannot_be_deleted(self):
        # a deleted slot of the shared ONE would break every later product
        before = qfactorial(3)
        p = qint(2)
        with pytest.raises(AttributeError):
            del ONE._low
        with pytest.raises(AttributeError):
            del p._coeffs
        assert qfactorial(3) == before
        assert repr(p) == "q + q^-1"

    def test_repr_is_canonical(self):
        assert repr(qint(3)) == "q^2 + 1 + q^-2"
        assert repr(LaurentPoly({1: -2, 0: 1})) == "-2q + 1"
        assert repr(ZERO) == "0"
        assert repr(LaurentPoly({-3: 1})) == "q^-3"

    def test_pow(self):
        assert (Q + 1) ** 0 == ONE
        assert (Q + 1) ** 2 == LaurentPoly({2: 1, 1: 2, 0: 1})
        with pytest.raises(ValueError):
            (Q + 1) ** -1
        # True once squared nothing and returned the base
        for n in (True, False, 2.0):
            with pytest.raises(
                    ValueError,
                    match="^exponent must be a nonnegative integer$"):
                qint(3) ** n

    def test_shift(self):
        assert ONE.shift(3) == LaurentPoly({3: 1})
        assert qint(2).shift(-1) == LaurentPoly({0: 1, -2: 1})
        # 0.5 once gave float exponents, and True shifted by 1
        for k in (0.5, True, 1.0, "1"):
            with pytest.raises(
                    ValueError,
                    match="^exponents and coefficients must be ints$"):
                qint(2).shift(k)

    def test_a_bool_is_not_an_int_operand(self):
        # qint(3) + True once gave q^2 + 2 + q^-2, and qint(1) == True held
        p = qint(3)
        for op in (lambda: p + True, lambda: True + p, lambda: p - True,
                   lambda: True - p, lambda: p * True, lambda: True * p):
            with pytest.raises(TypeError):
                op()
        assert (qint(1) == True) is False  # noqa: E712
        assert (qint(1) != True) is True  # noqa: E712
        assert qint(1) == 1 and p + 1 == 1 + p
        with pytest.raises(TypeError,
                           match="^divisor must be a LaurentPoly or int$"):
            p.exact_div(True)

    def test_evaluate(self):
        assert qint(3).evaluate(2) == Fraction(21, 4)
        assert qint(3).evaluate(1) == 3
        assert isinstance(qint(3).evaluate(1), int)
        with pytest.raises(ZeroDivisionError):
            LaurentPoly({-1: 1}).evaluate(0)

    def test_exact_div(self):
        assert (qint(6) * qint(2)).exact_div(qint(2)) == qint(6)
        assert ZERO.exact_div(qint(2)) == ZERO
        with pytest.raises(ExactDivisionError):
            qint(3).exact_div(qint(2))

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == ZERO

    @given(polys, polys)
    def test_bar_is_a_ring_map(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert a.bar().bar() == a

    @given(polys, polys, points)
    def test_evaluation_is_a_ring_map(self, a, b, x):
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)

    @given(polys, polys.filter(lambda p: not p.is_zero))
    def test_exact_div_inverts_multiplication(self, a, b):
        # divisor lead coefficient must be a unit for exact division
        lead = b.terms()[b.degree]
        if lead not in (1, -1):
            b = b + LaurentPoly({b.degree + 1: 1})
        assert (a * b).exact_div(b) == a

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30)
           .filter(lambda q: q[-1]),
           st.lists(st.integers(-5, 5), max_size=12))
    @example([1], [])
    @example([4, -2], [])
    @example([3, 0, -2], [0, 0, 0])
    def test_dense_exact_div_inverts_multiplication(self, quot, den):
        # den is monic: its drawn coefficients and a lead 1
        den = tuple(den) + (1,)
        num = [0] * (len(quot) + len(den) - 1)
        for i, a in enumerate(quot):
            for j, b in enumerate(den):
                num[i + j] += a * b
        before = list(num)
        assert _dense_exact_div(num, den) == quot
        assert num == before

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30)
           .filter(lambda q: q[-1]),
           st.lists(st.integers(-5, 5), min_size=1, max_size=12),
           st.data())
    @example([1], [-1], None)
    @example([1, 1], [0, 0, 0], None)
    def test_dense_exact_div_refuses_a_remainder_in_the_low_slots(
            self, quot, den, data):
        # a nonzero remainder below the divisor's degree, added to q d,
        # leaves every slot the quotient is read from as it was; without
        # data, the remainder is 1 (so x^4 + x^3 + 1 over x^3 in one case)
        den = tuple(den) + (1,)
        dn = len(den) - 1
        if data is None:
            rest = [1] + [0] * (dn - 1)
        else:
            rest = data.draw(st.lists(st.integers(-9, 9), min_size=dn,
                                      max_size=dn).filter(any))
        num = [0] * (len(quot) + dn)
        for i, a in enumerate(quot):
            for j, b in enumerate(den):
                num[i + j] += a * b
        num[:dn] = map(add, num[:dn], rest)
        with pytest.raises(ExactDivisionError, match="left a remainder"):
            _dense_exact_div(num, den)


class TestRepresentation:
    """The dense form: one canonical (valuation, coefficients) pair."""

    @given(polys)
    def test_terms_round_trip(self, a):
        assert LaurentPoly(a.terms()) == a
        assert LaurentPoly(list(a.terms().items())) == a

    @given(polys, polys)
    def test_canonical_after_arithmetic(self, a, b):
        for p in (a + b, a - b, a * b, -a, a.bar(), a.shift(-5), a ** 2):
            assert 0 not in p.terms().values()
            if p:
                assert p._coeffs[0] and p._coeffs[-1]
                assert p._low == p.valuation
                assert len(p._coeffs) == p.degree - p.valuation + 1
            assert hash(p) == hash(LaurentPoly(p.terms()))

    @given(polys)
    def test_zero_is_canonical(self, a):
        z = a - a
        assert (z._low, z._coeffs) == (ZERO._low, ZERO._coeffs) == (0, ())
        assert z == ZERO and hash(z) == hash(ZERO) and repr(z) == "0"
        assert z.terms() == {} and (a * z) == ZERO
        assert ZERO.shift(7) == ZERO and (a + z) == a

    def test_one_value_by_every_constructor(self):
        # q^2 + 1 + q^-2 built seven ways
        forms = [
            LaurentPoly({2: 1, 0: 1, -2: 1}),
            LaurentPoly([(-2, 1), (2, 1), (0, 2), (0, -1), (5, 0)]),
            qint(2) * qint(2) - 1,
            qint(3),
            qbinom(3, 1),
            LaurentPoly({0: 1, -2: 1, -4: 1}).shift(2),
            qint(3).bar(),
        ]
        for p in forms:
            assert p == forms[0] and hash(p) == hash(forms[0])
            assert (p._low, p._coeffs) == (-2, (1, 0, 1, 0, 1))
        assert len(set(forms)) == 1

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match="must be ints"):
            LaurentPoly({1.0: 1})
        with pytest.raises(ValueError, match="must be ints"):
            LaurentPoly([(1, "2")])
        # {True: 1} and {1: True} once both built q
        for terms in ({True: 1}, {1: True}, {0: False}, [(False, 2)]):
            with pytest.raises(
                    ValueError,
                    match="^exponents and coefficients must be ints$"):
                LaurentPoly(terms)
        assert LaurentPoly([(3, 2), (3, -2)]) == ZERO

    def test_span_is_bounded_before_allocation(self):
        for terms in ({0: 1, 10**18 + 3: -1}, {0: 1, 10**20: -1},
                      {-MAX_SPAN: 1, 1: 1}):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="^span: "):
                LaurentPoly(terms)
            assert time.perf_counter() - start < 1.0
        # the bound applies to the span left after cancellation
        assert LaurentPoly([(0, 1), (10**18, 1), (10**18, -1)]) == ONE
        widest = LaurentPoly({-MAX_SPAN: 1, 0: -1})
        assert (widest.valuation, widest.degree) == (-MAX_SPAN, 0)


class TestQuantumIntegers:
    def test_frozen_values(self):
        assert qint(0) == ZERO
        assert qint(1) == ONE
        assert qint(2) == LaurentPoly({1: 1, -1: 1})
        assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
        assert qint(-3) == -qint(3)

    def test_specialization_at_one(self):
        for i in range(-10, 11):
            assert qint(i).evaluate(1) == i

    def test_qfactorial(self):
        assert qfactorial(0) == ONE
        assert qfactorial(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
        assert qfactorial(5) == math.prod([qint(i) for i in range(1, 6)],
                                          start=ONE)

    def test_qbinom_frozen_values(self):
        assert qbinom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
        assert qbinom(7, 0) == ONE
        assert qbinom(3, 5) == ZERO
        assert qbinom(5, 1) == qint(5)
        assert qbinom(-2, 2) == qbinom(3, 2)
        assert qbinom(-1, 3) == -ONE

    def test_qbinom_specializes_to_binomials(self):
        for n in range(0, 11):
            for m in range(0, n + 1):
                assert qbinom(n, m).evaluate(1) == math.comb(n, m)

    def test_qbinom_bad_lower_index(self):
        # True once passed as m = 1
        for m in (-1, True, 1.0):
            with pytest.raises(ValueError,
                               match="^m: must be a nonnegative integer$"):
                qbinom(4, m)

    # 2.5 and "5" once raised TypeError from inside the product, and True
    # passed as n = 1
    @pytest.mark.parametrize("n", [2.5, "5", True])
    def test_qbinom_bad_upper_index(self, n):
        with pytest.raises(ValueError, match="^n: must be an integer$"):
            qbinom(n, 1)

    # each of these once took True as 1, and all but cyclotomic took False
    # as 0
    @pytest.mark.parametrize("read, message", [
        (qint, "quantum integer index must be an int"),
        (qfactorial, "quantum factorial needs a nonnegative int"),
        (cyclotomic, "cyclotomic index must be a positive int"),
        (lambda i: qint_vanishes_fast(i, SpecOrder(3)),
         "index must be an int"),
    ], ids=["qint", "qfactorial", "cyclotomic", "qint_vanishes_fast"])
    @pytest.mark.parametrize("i", [True, False])
    def test_integer_arguments_refuse_bools(self, read, message, i):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read(i)

    def test_qbinom_matches_the_pascal_recursion(self):
        # the recursion [n, m] = [n-1, m-1][n] / [m], tabulated row by row
        table = {(0, 0): ONE}
        for n in range(1, 41):
            table[n, 0] = ONE
            for m in range(1, n + 1):
                table[n, m] = (table.get((n - 1, m - 1), ZERO)
                               * qint(n)).exact_div(qint(m))
        for (n, m), value in table.items():
            assert qbinom(n, m) == value
            assert qbinom(-n + m - 1, m) == (-value if m % 2 else value)

    def test_qbinom_deep_lower_index(self):
        value = qbinom(600, 500)
        assert value.degree == 50000 and value.valuation == -50000
        assert value.bar() == value
        assert value.evaluate(1) == math.comb(600, 500)
        # the top coefficients count partitions of 0, 1, 2, 3, 4
        terms = value.terms()
        assert [terms.get(50000 - j) for j in range(9)] == [
            1, None, 1, None, 2, None, 3, None, 5]

    @given(st.integers(-25, 25), st.integers(0, 6), points)
    def test_qbinom_against_product_formula(self, n, m, x):
        # [n choose m] * [m]! == [n][n-1]...[n-m+1], checked at a generic
        # point; q = +-1 needs limits, so those points are excluded
        assume(x * x != 1)

        def qi(i):
            return (x ** i - x ** -i) / (x - x ** -1)

        lhs = qbinom(n, m).evaluate(x)
        for k in range(1, m + 1):
            lhs *= qi(k)
        rhs = Fraction(1)
        for k in range(0, m):
            rhs *= qi(n - k)
        assert lhs == rhs


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == LaurentPoly({1: 1, 0: -1})
        assert cyclotomic(2) == LaurentPoly({1: 1, 0: 1})
        assert cyclotomic(6) == LaurentPoly({2: 1, 1: -1, 0: 1})
        assert cyclotomic(12) == LaurentPoly({4: 1, 2: -1, 0: 1})

    def test_degree_is_totient(self):
        for n in (1, 2, 7, 12, 36, 105):
            assert cyclotomic(n).degree == euler_phi(n)

    def test_coefficient_two_at_105(self):
        assert min(cyclotomic(105).terms().values()) == -2

    def test_prime_factor_build_matches_the_divisor_quotients(self):
        # the reference divides q^n - 1 by Phi_d for every proper divisor d
        @lru_cache(maxsize=None)
        def reference(n):
            num = [-1] + [0] * (n - 1) + [1]
            for d in range(1, n):
                if n % d == 0:
                    num = _dense_exact_div(num, reference(d))
            return tuple(num)

        for n in range(1, 1001):
            assert _cyclo_coeffs(n) == reference(n), n

    def test_euler_phi(self):
        assert [euler_phi(n) for n in (1, 2, 12, 17, 60)] == [1, 1, 4, 16, 16]
        # euler_phi(True) once returned the bool True
        for n in (0, True):
            with pytest.raises(ValueError,
                               match="^totient needs a positive int$"):
                euler_phi(n)


# coefficients on both sides of the one-, two- and three-byte bounds
_BOUNDARIES = [127, -127, 128, -128, 32767, -32767, 32768, -32768]


class TestVanishing:
    def test_s_value(self):
        assert [s_value(l) for l in range(1, 9)] == [1, 1, 3, 2, 5, 3, 7, 4]

    @pytest.mark.parametrize("j", [0, True, 2.0, [1]])
    def test_s_value_refuses_what_spec_order_refuses(self, j):
        # s_value reads the order rule SpecOrder reads, message and all
        for read in (s_value, SpecOrder):
            with pytest.raises(ValueError,
                               match="^ell: must be a positive integer$"):
                read(j)

    def test_spec_order(self):
        assert SpecOrder(6).s == 3
        assert SpecOrder(6, 2).effective_order == 3
        assert SpecOrder(6, 3).s == 1
        assert SpecOrder(4, 2).s == 1
        with pytest.raises(ValueError):
            SpecOrder(0)
        with pytest.raises(ValueError):
            SpecOrder(3, 4)

    @pytest.mark.parametrize("args, field", [
        ((3, 1.0), "d"), ((3, 2.0), "d"), ((3, True), "d"), ((3, False), "d"),
        ((True,), "ell"), ((True, 1), "ell"), ((3.0,), "ell"),
    ])
    def test_spec_order_refuses_bools_and_floats(self, args, field):
        # 1.0 in (1, 2, 3) and True == 1, so a value test alone lets them in
        with pytest.raises(ValueError, match=f"^{field}: "):
            SpecOrder(*args)

    def test_vanishes_at_examples(self):
        assert vanishes_at(qint(3), SpecOrder(3))
        assert vanishes_at(qint(3), SpecOrder(6))
        assert vanishes_at(qint(2), SpecOrder(4))
        assert not vanishes_at(qint(2), SpecOrder(2))
        assert vanishes_at(ZERO, SpecOrder(7))
        assert not vanishes_at(LaurentPoly({0: 5}), SpecOrder(7))

    # 3 once raised AttributeError from the int, and ZERO returned True
    # before the spec was looked at
    @pytest.mark.parametrize("spec", [3, None, (3, 1)])
    @pytest.mark.parametrize("p", [ZERO, qint(3)])
    def test_vanishes_at_refuses_a_spec_that_is_not_a_spec_order(self, p,
                                                                 spec):
        with pytest.raises(TypeError,
                           match="^vanishes_at expects a SpecOrder$"):
            vanishes_at(p, spec)

    def test_spec_order_is_a_frozen_value(self):
        spec = SpecOrder(6, 2)
        assert repr(spec) == "SpecOrder(ell=6, d=2)"
        assert spec == SpecOrder(6, 2) and spec != SpecOrder(6, 1)
        assert hash(spec) == hash(SpecOrder(6, 2))
        assert SpecOrder(5) == SpecOrder(5, 1)
        assert len({SpecOrder(6, 2), SpecOrder(6, 2), SpecOrder(6)}) == 2
        assert SpecOrder._fields == ("ell", "d")
        for name, value in (("ell", 7), ("d", 1), ("s", 2),
                            ("effective_order", 2)):
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
            with pytest.raises(AttributeError):
                delattr(spec, name)
        assert (spec.ell, spec.d, spec.effective_order, spec.s) == (6, 2, 3, 3)

    def test_spec_order_derived_values(self):
        for ell in range(1, 301):
            for d in (1, 2, 3):
                spec = SpecOrder(ell, d)
                assert spec.effective_order == ell // math.gcd(ell, d)
                assert spec.s == s_value(spec.effective_order)

    @settings(max_examples=300)
    @given(st.dictionaries(st.integers(0, 30), st.integers(-4, 4),
                           max_size=8),
           st.integers(1, 40), st.sampled_from([1, 2, 3]),
           st.integers(0, 2), st.integers(-70, 10))
    def test_vanishes_at_matches_unshifted_fold(self, base, ell, d, power,
                                                shift):
        # power > 0 plants a zero; the shift reaches negative valuations
        # and spans on both sides of the effective order
        spec = SpecOrder(ell, d)
        e = spec.effective_order
        p = (LaurentPoly(base) * cyclotomic(e) ** power).shift(shift)
        assert vanishes_at(p, spec) == _vanishes_reference(p, e)

    # _fold is one strided sum per residue class for every length n; the
    # draws cover n <= e, where a class may be empty, e < n < 6e and
    # 6e <= n, with examples at n = e, 6e - 1 and 6e
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.sampled_from(["pad", "strided", "slices"]),
           st.integers(0, 10**6), st.integers(0, 2**32))
    @example(7, "pad", 7, 0)
    @example(200, "slices", 998, 2)
    @example(54, "strided", 0, 1)
    def test_fold_matches_residue_sums(self, e, branch, pick, seed):
        if branch == "pad":
            n = pick % (e + 1)
        elif branch == "strided":
            n = 6 * e + pick % (3001 - 6 * e)
        else:
            n = e + 1 + pick % (5 * e - 1)
        assert {"pad": n <= e, "strided": 6 * e <= n,
                "slices": e < n < 6 * e}[branch]
        rnd = random.Random(seed)
        c = tuple(rnd.randint(-10**12, 10**12) for _ in range(n))
        want = [sum(c[j] for j in range(i, n, e)) for i in range(e)]
        assert _fold(c, e) == want

    def test_vanishes_at_both_sides_of_the_order(self):
        phi12 = cyclotomic(12)  # span 4
        for shift in (-9, -4, 0, 5):
            for spec, want in ((SpecOrder(12), True), (SpecOrder(24, 2), True),
                               (SpecOrder(5), False), (SpecOrder(3), False)):
                p = phi12.shift(shift)
                assert vanishes_at(p, spec) is want
                assert _vanishes_reference(p, spec.effective_order) is want
        # spans of at least e fold: q^-7(q^13 + q - 1) folds to 2q - 1
        assert not vanishes_at(LaurentPoly({6: 1, -6: 1, -7: -1}),
                               SpecOrder(12))
        # q^-6(q^12 - 1) and q^-18(q^13 - 1) fold to zero
        assert vanishes_at(LaurentPoly({6: 1, -6: -1}), SpecOrder(12))
        assert vanishes_at(LaurentPoly({-5: 1, -18: -1}), SpecOrder(13))

    def test_e8_determinant_vanishes_only_at_sixty(self):
        # det(D_E8) = [2][8] - [3][5] runs from q^-8 to q^8
        det = qint(2) * qint(8) - qint(3) * qint(5)
        assert (det.valuation, det.degree) == (-8, 8)
        assert [ell for ell in range(1, 1001)
                if vanishes_at(det, SpecOrder(ell))] == [60]
        assert _vanishes_reference(det, 60)
        assert not _vanishes_reference(det, 30)

    @settings(max_examples=400, deadline=None)
    @given(st.dictionaries(st.integers(0, 40),
                           st.integers(-3, 3) | st.sampled_from(_BOUNDARIES),
                           max_size=8),
           st.sampled_from([64, 81, 125, 30, 60, 210, 420, 2310])
           | st.integers(1, 130),
           st.sampled_from([1, 2, 3]), st.integers(0, 2),
           st.integers(-300, 40), st.booleans(), st.sampled_from([1, 4]))
    @example({0: 127, 3: -128}, 5, 1, 0, 0, False, 1)
    @example({0: -32768, 2: 32767, 5: 1}, 12, 1, 0, -3, False, 1)
    @example({0: 128, 1: -127, 4: 32768}, 7, 2, 1, 0, False, 4)
    @example({1: -32767, 2: 1}, 20, 3, 2, -9, True, 4)
    def test_vanishes_at_matches_the_division_reference(
            self, base, e, d, power, shift, periodic, spread):
        # prime powers, orders with two to four primes, orders far above
        # the span, negative valuations, planted cyclotomic factors and
        # coefficients on both sides of the one-, two- and three-byte
        # bounds of the value exit; spread 4 writes p as g(q^4), which
        # halves twice.  ell = e * d has effective order e for every d
        p = LaurentPoly(base)
        if periodic:
            # p (1 + q^e + q^2e) has the zeros of 3p at order e, with a
            # span past e, so the fold has something to add up
            p = sum((p.shift(k * e) for k in range(3)), ZERO)
        # g(q^4) vanishes at order e where g vanishes at e / gcd(e, 4)
        root = cyclotomic(e // math.gcd(e, spread))
        p = p * root ** (power if e < 500 else min(power, 1))
        p = LaurentPoly({spread * x: c for x, c in p.terms().items()})
        p = p.shift(shift)
        spec = SpecOrder(e * d, d)
        assert spec.effective_order == e
        assert vanishes_at(p, spec) == _vanishes_reference(p, e)

    # narrow digits: |c| <= 1 packs at w = 2 and |c| <= 7 at w = 4; at
    # span <= 40 every order e <= 300 is reached, by the degree exits, the
    # value exit (e <= 256, its bound read at w = 8) or the fold, and a
    # planted cyclotomic(k) gives zeros that only the fold confirms
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 7]), st.booleans(), st.integers(1, 40),
           st.integers(0, 2**32))
    @example(1, True, 36, 0)
    @example(7, True, 30, 1)
    @example(1, False, 1, 2)
    @example(7, False, 1, 3)
    def test_narrow_digits_match_the_division_reference(self, top, planted,
                                                        k, seed):
        rnd = random.Random(seed)
        if planted and euler_phi(k) < 40:
            # one to four terms +-q^j times cyclotomic(k): its coefficients
            # are 0 or +-1 for k < 105, so each one is at most 4
            room = 40 - euler_phi(k)
            base = LaurentPoly([(rnd.randint(0, room), rnd.choice((1, -1)))
                                for _ in range(1 if top == 1 else 4)])
            p = base * cyclotomic(k)
            assume(p and max(map(abs, p.terms().values())) <= top)
        else:
            n = rnd.randint(1, 41)
            p = LaurentPoly([(j, rnd.randint(-top, top)) for j in range(n)])
            assume(p)
        p = p.shift(rnd.randint(-5, 5))
        assert p.degree - p.valuation <= 40
        for e in range(1, 301):
            spec = SpecOrder(e)
            assert vanishes_at(p, spec) == _vanishes_reference(p, e), (p, e)
            assert vanishes_at(LaurentPoly(p.terms()), spec) \
                == vanishes_at(p, spec)
        width = p._reduced[2][0]
        assert width == (2 if max(map(abs, p._coeffs)) <= 1 else 4)

    def test_vanishes_at_each_order_of_a_cyclotomic_product(self):
        # cyclotomic(a) * cyclotomic(b) vanishes at orders a and b only
        for a, b in ((64, 81), (30, 125), (60, 210), (4, 420), (2310, 1)):
            p = (cyclotomic(a) * cyclotomic(b)).shift(-a)
            for e in (1, 2, 4, 30, 60, 64, 81, 125, 210, 420, 2310):
                assert vanishes_at(p, SpecOrder(e)) is (e in (a, b)), (a, b, e)

    def test_degree_bound_exit_keeps_every_zero(self):
        # span phi(e) meets the bound phi(e) >= sqrt(e/2) (equality at 2)
        for e in range(1, 400):
            phi = cyclotomic(e)
            for spec in (SpecOrder(e), SpecOrder(2 * e, 2), SpecOrder(3 * e, 3)):
                assert vanishes_at(phi.shift(-e), spec)
            assert not vanishes_at(phi, SpecOrder(e + 1))

    def test_huge_orders_return_at_once(self):
        # factoring 10**18 + 3 by trial division would take minutes
        big = 10 ** 18 + 3
        assert not vanishes_at(qint(3), SpecOrder(big))
        assert not vanishes_at(qbinom(30, 3), SpecOrder(big, 2))
        assert not vanishes_at(LaurentPoly({0: 1, 10 ** 6: -1}),
                               SpecOrder(big))

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(0, 12), st.integers(-3, 3),
                           max_size=6),
           st.sampled_from([2, 4]), st.integers(-9, 9), st.integers(1, 40),
           st.integers(0, 2), st.booleans(), st.sampled_from([1, 2, 3]))
    def test_vanishes_at_on_polynomials_in_q_squared(
            self, base, k, a, e, power, odd_factor, d):
        # p = q^a g(q^k) with cyclotomic(e)(q^k) planted, so every odd slot
        # is zero; a factor cyclotomic(e)(q) brings odd slots back.  The
        # orders around e reach both parities of each order and of e / 2
        g = LaurentPoly(base) * cyclotomic(e) ** power
        p = LaurentPoly({k * x: c for x, c in g.terms().items()})
        if odd_factor:
            p = p * cyclotomic(e)
        p = p.shift(a)
        for order in {e // 4, e // 2, e, 2 * e, 4 * e, 8 * e} - {0}:
            spec = SpecOrder(order * d, d)
            assert vanishes_at(p, spec) == _vanishes_reference(p, order), order

    def test_vanishes_at_q_squared_edge_cases(self):
        # q^2 - 1 at q = -1: the order-2 test becomes x - 1 at x = 1
        assert vanishes_at(LaurentPoly({2: 1, 0: -1}), SpecOrder(2))
        assert not vanishes_at(LaurentPoly({2: 1, 0: 1}), SpecOrder(2))
        assert vanishes_at(LaurentPoly({-3: 1, 1: -1}), SpecOrder(4, 2))
        # 1 + q^3 has coeffs[1] == 0 but an odd term: zeros at 2 and 6 only
        p = LaurentPoly({0: 1, 3: 1})
        assert [e for e in range(1, 25) if vanishes_at(p, SpecOrder(e))] \
            == [2, 6]
        # [3] + q^5 is a polynomial in q^2 plus one odd term
        p = qint(3) + LaurentPoly({5: 1})
        for e in range(1, 41):
            assert vanishes_at(p, SpecOrder(e)) == _vanishes_reference(p, e)
        # one term: nothing to halve, and no root of unity is a zero
        for e in range(1, 41):
            assert not vanishes_at(LaurentPoly({7: -2}), SpecOrder(e))
            assert not vanishes_at(ONE, SpecOrder(e))

    def test_qint_vanishes_at_twice_and_once_its_modulus(self):
        # [i] = q^(1-i)(1 + x + ... + x^(i-1)) with x = q^2
        # at order 2s it vanishes iff s | i; at order s the modulus is
        # s_value(s), which is s or s / 2
        for s in range(2, 25):
            for i in range(1, 3 * s + 2):
                assert vanishes_at(qint(i), SpecOrder(2 * s)) is (i % s == 0)
                for e in (2 * s, s):
                    want = _vanishes_reference(qint(i), e)
                    assert vanishes_at(qint(i), SpecOrder(e)) is want
                    assert qint_vanishes_fast(i, SpecOrder(e)) is want

    def test_qint_zero_vanishes_everywhere(self):
        for ell in (1, 2, 3, 10):
            assert qint_vanishes_fast(0, SpecOrder(ell))

    @given(st.integers(-80, 80), st.integers(1, 40), st.sampled_from([1, 2, 3]))
    def test_qint_fast_matches_symbolic(self, i, ell, d):
        spec = SpecOrder(ell, d)
        assert qint_vanishes_fast(i, spec) == vanishes_at(qint(i), spec)

    @settings(max_examples=60)
    @given(st.integers(-20, 30), st.integers(0, 8), st.integers(1, 30),
           st.sampled_from([1, 2, 3]))
    def test_qbinom_fast_matches_symbolic(self, n, m, ell, d):
        spec = SpecOrder(ell, d)
        assert (qbinom_vanishes_fast(n, m, spec)
                == vanishes_at(qbinom(n, m), spec))

    def test_qbinom_fast_bad_lower_index(self):
        # True once passed as m = 1
        for m in (-2, True):
            with pytest.raises(ValueError,
                               match="^m: must be a nonnegative integer$"):
                qbinom_vanishes_fast(4, m, SpecOrder(3))

    def test_qbinom_fast_bad_upper_index(self):
        # 2.5 once counted a multiple of s = 2 in (1.5, 2.5] and gave True,
        # and True passed as n = 1
        for n in (2.5, True):
            with pytest.raises(ValueError, match="^n: must be an integer$"):
                qbinom_vanishes_fast(n, 1, SpecOrder(4))

    # these once raised AttributeError from the int, or returned before the
    # spec was looked at
    @pytest.mark.parametrize("spec", [3, None, (3, 1)])
    @pytest.mark.parametrize("name, args", [
        ("qint_vanishes_fast", (5,)), ("qint_vanishes_fast", (0,)),
        ("qbinom_vanishes_fast", (5, 2)), ("qbinom_vanishes_fast", (1, 2)),
        ("qbinom_vanishes_fast", (5, 0)),
    ])
    def test_fast_rules_refuse_a_spec_that_is_not_a_spec_order(self, name,
                                                               args, spec):
        with pytest.raises(TypeError, match=f"^{name} expects a SpecOrder$"):
            getattr(qarith, name)(*args, spec)

    def test_only_the_zeros_of_a_quantum_integer_fold(self, monkeypatch):
        # the value exit settles every order at which [i] does not vanish,
        # so the identity suite's asks fold only where the answer is True
        folds = []
        fold = qarith._fold

        def counting(coeffs, e):
            folds.append(e)
            return fold(coeffs, e)

        monkeypatch.setattr(qarith, "_fold", counting)
        for i in range(2, 61):
            p = qint(i)
            for ell in range(1, 121):
                folds.clear()
                spec = SpecOrder(ell)
                answer = vanishes_at(p, spec)
                assert answer is qint_vanishes_fast(i, spec), (i, ell)
                assert answer or not folds, (i, ell)

    def test_the_value_exit_stops_where_it_costs_more_than_the_fold(
            self, monkeypatch):
        # one-byte coefficients, w = 8: w (w e) = 2^14 at e = 256, so the
        # exit settles order 256 and order 258 folds; neither is a zero
        folds = []
        fold = qarith._fold

        def counting(coeffs, e):
            folds.append(e)
            return fold(coeffs, e)

        monkeypatch.setattr(qarith, "_fold", counting)
        p = LaurentPoly({j: 1 for j in range(300)})
        assert qarith._VALUE_EXIT_COST == 8 * 8 * 256
        for e, folded in ((256, False), (258, True)):
            folds.clear()
            assert vanishes_at(p, SpecOrder(e)) is False
            assert _vanishes_reference(p, e) is False
            assert bool(folds) is folded, e

    def test_cyclo_value_is_the_cyclotomic_polynomial_at_two_to_the_w(self):
        # every key the value exit can ask for: e >= 2, w = 2, 4 or a
        # multiple of 8 that _packed gives a value at, and v (v e) <=
        # _VALUE_EXIT_COST with v = max(w, 8)
        cost = qarith._VALUE_EXIT_COST
        widths = [2, 4] + list(range(8, 128, 8))
        assert [qarith._packed((1 << w - 2,))[0] for w in widths] == widths
        reachable = {(e, w) for w in widths
                     if qarith._packed((1 << w - 2,))[1] is not None
                     for e in range(2, cost // max(w, 8) ** 2 + 1)}
        assert len(reachable) == 386 + 2 * 255 == 896
        assert max(w for _, w in reachable) == 88
        # and beyond them, e in 1..300 at w in {8, 16, 24}
        wide = {(e, w) for e in range(1, 301) for w in (8, 16, 24)}
        for e, w in sorted(reachable | wide):
            value = cyclotomic(e).evaluate(2 ** w)
            assert _cyclo_value(e, w) == value, (e, w)

    def test_cyclo_values_are_built_once_inside_the_exit_bound(
            self, monkeypatch):
        # the cache holds only what the value exit asks for, so its size
        # is bounded by w (w e) <= _VALUE_EXIT_COST; the identity suite
        # asks for each (e, w) many times and builds it once
        asked = []

        def recording(e, w):
            asked.append((e, w))
            return _cyclo_value(e, w)

        _cyclo_value.cache_clear()
        monkeypatch.setattr(qarith, "_cyclo_value", recording)
        acceptance._check_qarith_identities()
        keys = set(asked)
        assert keys and len(asked) > 10 * len(keys)
        assert all(w * w * e <= qarith._VALUE_EXIT_COST for e, w in keys)
        assert _cyclo_value.cache_info().misses == len(keys)

    @pytest.mark.parametrize("coeffs, w", [
        ((1,), 2), ((-1, 0, 1), 2), ((127, -127), 8), ((-128, 5), 16),
        ((128, 0, -127), 16), ((32767, -32767), 16), ((-32768,), 24),
        ((1, 32768, -1), 24), ((2 ** 40, -3), 48),
        ((0, 1, -1, 1), 2), ((2,), 4), ((-2, 1, 0, 1), 4), ((7,), 4),
        ((-7, 0, 7, -1), 4), ((8,), 8), ((-8, 7, -1), 8), ((5,) * 300, 4),
        ((1, -1) * 150, 2),
    ])
    def test_packed_value_at_the_byte_boundaries(self, coeffs, w):
        # |c| < 2^(w-1) for every c, with w = 2, w = 4 or the fewest
        # whole bytes
        assert qarith._packed(coeffs) == (
            w, sum(c << w * j for j, c in enumerate(coeffs)))

    def test_no_value_is_packed_where_the_exit_never_runs(self):
        # w = 104 puts w (w e) past _VALUE_EXIT_COST at every e >= 2
        assert qarith._packed((2 ** 100, 1)) == (104, None)
        p = LaurentPoly({0: 2 ** 100, 1: 1})
        assert not vanishes_at(p, SpecOrder(5))
        assert p._reduced[2] == (104, None)


def _reduction_cases():
    """Polynomials in q^2, q^4 and q, one with an odd term, and constants."""
    return ([qint(i) for i in (-6, 1, 2, 5, 17)]
            + [qbinom(n, m) for n, m in ((6, 3), (9, 4), (-5, 3), (12, 1))]
            + [det_short_matrix(rs) for rs in systems(8)]
            + [LaurentPoly({8: 1, 0: -1}), cyclotomic(15).shift(-3),
               qint(3) + LaurentPoly({5: 1}), LaurentPoly({7: -2}), ONE,
               ZERO])


class TestStoredReduction:
    # vanishes_at keeps the q^2 reduction of p in p itself; the stored
    # value must answer as a fresh copy does and stay out of sight

    SPECS = [SpecOrder(ell, d) for d in (1, 2, 3) for ell in range(1, 61)]

    def test_one_polynomial_answers_as_fresh_copies(self):
        for p in _reduction_cases():
            for spec in self.SPECS:
                fresh = LaurentPoly(p.terms())
                assert vanishes_at(p, spec) == vanishes_at(fresh, spec), \
                    (p, spec)

    def test_arithmetic_leaves_the_slot_unset(self):
        a, b = qint(4), qbinom(7, 2)
        results = [a, b, a + b, a - b, a * b, -a, a ** 2, a.bar(),
                   a.shift(3), (a * b).exact_div(b), LaurentPoly({2: 1}),
                   cyclotomic(12)]
        for p in results:
            assert getattr(p, "_reduced", None) is None, p
        vanishes_at(a, SpecOrder(8))
        assert getattr(a + b, "_reduced", None) is None

    def test_equality_hash_repr_and_terms_ignore_the_slot(self):
        for p in _reduction_cases():
            fresh = LaurentPoly(p.terms())
            before = hash(p), repr(p), p.terms()
            for spec in self.SPECS[:12]:
                vanishes_at(p, spec)
            assert (hash(p), repr(p), p.terms()) == before
            assert p == fresh and hash(p) == hash(fresh)
            assert repr(p) == repr(fresh) and p.terms() == fresh.terms()

    def test_one_fold_per_reduced_order(self, monkeypatch):
        # [7] = q^-6 g(q^2): orders 6 and 3 reduce to order 3 of q^2, and
        # 7 and 14 to order 7, so four asks test twice; the value exit
        # settles order 3, and only order 7, where [7] vanishes, folds
        tests, folds = [], []
        test, fold = qarith._vanishes_reduced, qarith._fold

        def counting_test(coeffs, packed, e):
            tests.append(e)
            return test(coeffs, packed, e)

        def counting_fold(coeffs, e):
            folds.append(e)
            return fold(coeffs, e)

        monkeypatch.setattr(qarith, "_vanishes_reduced", counting_test)
        monkeypatch.setattr(qarith, "_fold", counting_fold)
        p = qint(7)
        assert [vanishes_at(p, SpecOrder(ell)) for ell in (6, 3, 7, 14)] \
            == [False, False, True, True]
        assert (tests, folds) == ([3, 7], [7])
        # an odd term leaves nothing to halve, so 3 and 6 stay distinct
        # orders and each one is tested, by the value exit alone since
        # neither is a zero; asking again tests nothing
        p = qint(7) * LaurentPoly({0: 1, 1: 1})
        for ell, tested in ((3, True), (6, True), (3, False), (6, False)):
            tests.clear()
            folds.clear()
            assert vanishes_at(p, SpecOrder(ell)) is False
            assert _vanishes_reference(p, ell) is False
            assert (tests, folds) == ([ell] if tested else [], []), ell

    def test_the_order_of_the_asks_changes_no_answer(self):
        # each polynomial answers every spec as a fresh copy does, asked
        # from the lowest order up and from the highest down
        specs = sorted(self.SPECS, key=lambda spec: (spec.ell, spec.d))
        for case in _reduction_cases():
            for order in (specs, specs[::-1]):
                p = LaurentPoly(case.terms())
                for spec in order:
                    fresh = LaurentPoly(p.terms())
                    assert vanishes_at(p, spec) == vanishes_at(fresh, spec), \
                        (p, spec)

    @pytest.mark.parametrize("tested", [False, True])
    def test_still_immutable(self, tested):
        p = qint(6)
        if tested:
            vanishes_at(p, SpecOrder(12))
        for name in ("_low", "_coeffs", "_reduced", "_terms"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        assert p == qint(6)


def _vanishes_reference(p, e):
    """p vanishes at a primitive e-th root of unity: every exponent folded
    modulo e with no shift, then divided by cyclotomic(e)."""
    folded = LaurentPoly([(exp % e, c) for exp, c in p.terms().items()])
    if folded.is_zero:
        return True
    try:
        folded.exact_div(cyclotomic(e))
    except ExactDivisionError:
        return False
    return True


# every cache in the package; a new one is named here, with the traffic
# that pays for it.  The walk sees decorators only, so one store is named
# here instead: vanishes_at keeps each polynomial's answers by reduced
# order in its _reduced slot, which pays since verify-paper's identity
# suite asks every [i] at orders e and 2e, and these reduce to one order
_CACHES = {
    "rootsystem.build",  # each reader asks for its systems by (kind, rank)
    "rootsystem.RootSystem.positive_roots",  # weyl_dimension reads them all
    "rootsystem.RootSystem._levi_memo",  # a descent's replay asks again
    "rootsystem.RootSystem._rooted",  # every tree_path climbs one rooting
    "classifier._alpha0_order",  # every alpha0 leaf of a system, one order
    "weylmods.det_short_matrix",  # alpha0 search and adjoint leaf replays
    "qarith._prime_factors",  # verify-paper factors the same few orders
    # the value exit asks verify-paper's 75 pairs (e, w) about 35,000
    # times; its bound v (v e) <= 2^14 with v = max(w, 8) and e >= 2 keeps
    # the table to 896 values, each read from _cyclo_coeffs by Horner
    "qarith._cyclo_value",
}


def test_the_gaussian_index_rule_is_written_once():
    sources = package_sources()
    helper = "qarith._gauss_indices"
    for message in ("n: must be an integer",
                    "m: must be a nonnegative integer"):
        assert sum(text.count(message) for text in sources.values()) == 1
        assert literal_scopes(sources, message) == [helper]

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    nodes = scoped_nodes(sources)
    # the reflection m - n - 1, in any spelling: an outermost arithmetic
    # expression that reads both indices and the constant 1
    inner = {id(child) for _, node in nodes if isinstance(node, ast.BinOp)
             for child in ast.iter_child_nodes(node)}
    reflections = [scope for scope, node in nodes
                   if isinstance(node, ast.BinOp) and id(node) not in inner
                   and {"n", "m"} <= names(node)
                   and any(isinstance(c, ast.Constant) and c.value == 1
                           for c in ast.walk(node))]
    assert reflections == [helper]
    for name in ("qbinom", "qbinom_vanishes_fast"):
        scope = f"qarith.{name}"
        calls = [node.func.id for where, node in nodes
                 if where == scope and isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)]
        assert "_gauss_indices" in calls and name not in calls
    # the CLI's top comes from the helper and from nothing else
    tops = [node for scope, node in nodes if scope.startswith("cli.")
            and isinstance(node, ast.Assign)
            and any("top" in names(target) for target in node.targets)]
    assert len(tops) == 1
    assert ast.unparse(tops[0].value) == "_gauss_indices(args.n, args.m)"
    # _fold is its docstring and one return, with no branch in it
    fold, = [node for scope, node in nodes if scope == "qarith._fold"
             and isinstance(node, ast.FunctionDef)]
    assert [type(stmt) for stmt in fold.body] == [ast.Expr, ast.Return]
    assert not any(isinstance(node, (ast.If, ast.IfExp))
                   or isinstance(node, ast.comprehension) and node.ifs
                   for node in ast.walk(fold))


def test_the_cyclotomic_polynomial_is_built_one_way():
    # _cyclo_coeffs builds Phi_e; cyclotomic and the value exit read it
    nodes = scoped_nodes(package_sources())
    calls = {}
    for scope, node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            calls.setdefault(scope, set()).add(node.func.id)
    assert sorted(scope for scope, names in calls.items()
                  if "_cyclo_coeffs" in names) == [
        "qarith._cyclo_value", "qarith.cyclotomic"]
    # and nothing else: no product over the divisors of rad(e)
    assert calls["qarith._cyclo_value"] == {
        "lru_cache", "reversed", "_cyclo_coeffs"}


def test_the_order_rule_is_written_once_and_every_cache_is_named():
    sources = package_sources()
    for message in ("ell: must be a positive integer",
                    "d: must be 1, 2 or 3"):
        assert sum(text.count(message) for text in sources.values()) == 1
        assert literal_scopes(sources, message) == ["qarith._order"]
    caches = {scope for scope, node in scoped_nodes(sources)
              if isinstance(node, ast.Name)
              and node.id in ("lru_cache", "cached_property")
              or isinstance(node, ast.Attribute)
              and node.attr in ("lru_cache", "cached_property")}
    assert caches == _CACHES
