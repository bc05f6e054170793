"""Concrete reducibility tests for specific Weyl modules.

Covers the weight-zero invariant analysis of the module with highest
weight alpha0 (a symmetric matrix over Laurent polynomials indexed by the
short simple roots), its determinant in closed form, the rank-8 certificate
showing that determinant never vanishes at any root of unity, the rank-one
irreducibility criterion with its divided-power oracle, and the scalar test
for the 14-dimensional module of the rank-2 triple-laced system.

Both rank-one readers take s from qarith._order, the one statement of the
order rule that SpecOrder also reads, and keep no cache of it.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .qarith import (
    ExactDivisionError,
    InternalCheckError,
    LaurentPoly,
    ONE,
    SpecOrder,
    ZERO,
    _order,
    cyclotomic,
    euler_phi,
    qint,
    vanishes_at,
)
from .rootsystem import RootSystem, build


@lru_cache(maxsize=None)
def det_short_matrix(rs: RootSystem) -> LaurentPoly:
    """Determinant of the short-root matrix, by pendant-node expansion.

    The short simple nodes span a forest inside the Dynkin diagram: a
    chain for B, C, F and G, the whole diagram for A, D and E.  The matrix
    is [2] on the diagonal and 1 on each short-short edge.  For a node v
    let D(v) be the determinant on the subtree under v and D'(v) the
    product of D(c) over its children c, the same subtree without v.
    Expanding along the row and column of v gives

        D(v) = [2] P - S,  D'(v) = P,

    with P the product of D(c) over the children and S the sum over them
    of D'(c) prod_{c' != c} D(c').  Each tree is walked breadth first from
    its first node and folded in reverse order, so every child is done
    before its parent and nothing recurses as deep as the rank.  A finished
    child c updates its parent's pair (P, S) to (P D(c), S D(c) + P D'(c));
    the first child sets it to (D(c), D'(c)), and a leaf reads (1, 0).  The
    determinant is the product of D over the roots: O(rank) polynomial
    operations and no division.
    """
    short = set(rs.short_simple_nodes)
    two = qint(2)
    det = ONE
    seen = set()
    for root in rs.short_simple_nodes:
        if root in seen:
            continue
        order, parent = rs.walk(root, short)
        seen.update(order)
        pairs = {}  # (P, S) over the finished children of each node
        for v in reversed(order):
            prod, total = pairs.pop(v, (ONE, ZERO))
            full = two * prod - total
            up = parent[v]
            if up is None:
                det = det * full
            elif up in pairs:
                p, t = pairs[up]
                pairs[up] = p * full, t * full + p * prod
            else:
                pairs[up] = full, prod
    return det


def closed_form_detD(rs: RootSystem) -> LaurentPoly:
    """Tabulated determinant: a cross-check against the symbolic expansion."""
    n = rs.rank
    if rs.kind == "A":
        return qint(n + 1)
    if rs.kind in ("B", "G"):
        return qint(2)
    if rs.kind == "C":
        return qint(n)
    if rs.kind == "F":
        return qint(3)
    if rs.kind == "D":
        # recursion by pendant-node expansion; the rank-3 value is the
        # chain value [4], the rank-4 base comes from the 4-node star
        two = qint(2)
        prev2, prev1 = qint(4), two ** 2 * (two ** 2 - 3)
        for _ in range(5, n + 1):
            prev2, prev1 = prev1, two * prev1 - prev2
        return prev1
    if rs.kind == "E":
        if n == 6:
            return qint(2) * qint(6) - qint(3) ** 2
        if n == 7:
            return qint(2) * qint(7) - qint(3) * qint(4)
        return qint(2) * qint(8) - qint(3) * qint(5)
    raise AssertionError(rs.kind)


def adjoint_short_reducible_at(rs: RootSystem, ell: int, d: int = 1) -> bool:
    """True iff the module with highest weight alpha0 gains a trivial
    submodule at this order: the short-root determinant vanishes there."""
    return vanishes_at(det_short_matrix(rs), SpecOrder(ell, d))


class E8Certificate(Record):
    """Outcome of the rank-8 never-vanishing claim, checked exactly.

    f is the polynomial q^8 (q^2-1)^2 det(D), cleared of negative exponents;
    f16 is f with the order-1 and order-2 factors divided out.  Every ell
    whose cyclotomic polynomial could divide f16 by degree count is listed
    in checked_orders; the ones that actually divide it land in
    failing_orders.  The claim is certified only when that tuple is empty.
    It is not: q^8 det(D) equals the 60th cyclotomic polynomial, so the
    determinant vanishes at order 60 and failing_orders == (60,).
    """

    __slots__ = _fields = ("detD", "f", "factors", "checked_orders",
                           "failing_orders", "value_at_one",
                           "value_at_minus_one")

    @property
    def certified(self) -> bool:
        return (not self.failing_orders and self.value_at_one != 0
                and self.value_at_minus_one != 0)


_E8_F = LaurentPoly({20: 1, 18: -1, 16: -1, 12: 1, 8: 1, 4: -1, 2: -1, 0: 1})
_E8_F16 = LaurentPoly({16: 1, 14: 1, 10: -1, 8: -1, 6: -1, 2: 1, 0: 1})


def e8_certificate() -> E8Certificate:
    rs = build("E", 8)
    detD = det_short_matrix(rs)
    q2m1 = LaurentPoly({2: 1, 0: -1})
    f = detD.shift(8) * q2m1 ** 2
    if f != _E8_F:
        raise InternalCheckError("E8 certificate: f(q) mismatch")
    qm1 = LaurentPoly({1: 1, 0: -1})
    qp1 = LaurentPoly({1: 1, 0: 1})
    factors = (qm1 ** 2, qp1 ** 2, f.exact_div(qm1 ** 2 * qp1 ** 2))
    if factors[2] != _E8_F16 or factors[2] != detD.shift(8):
        raise InternalCheckError("E8 certificate: f16 mismatch")
    if factors[0] * factors[1] * factors[2] != f:
        raise InternalCheckError("E8 certificate: factorization mismatch")
    checked = []
    failing = []
    for ell in range(3, 1001):
        if euler_phi(ell) > 20:
            continue
        checked.append(ell)
        try:
            factors[2].exact_div(cyclotomic(ell))
            failing.append(ell)
        except ExactDivisionError:
            pass
    at_one = detD.evaluate(1)
    at_minus_one = detD.evaluate(-1)
    return E8Certificate(detD, f, factors, tuple(checked), tuple(failing),
                         at_one, at_minus_one)


def sl2_irreducible(lam: int, ell: int, d: int = 1) -> bool:
    """Rank-one criterion: irreducible iff lam < s or lam = -1 mod s,
    where s is the vanishing modulus of the effective order of zeta^d,
    read from qarith._order."""
    if type(lam) is not int or lam < 0:
        raise ValueError("lambda: must be a nonnegative integer")
    s = _order(ell, d)[1]
    return lam < s or lam % s == s - 1


def sl2_maximal_vector_oracle(lam: int, ell: int, d: int = 1) -> bool:
    """Divided-power oracle from the explicit basis action.

    The dual module has basis v_0..v_lam with E^(m) v_j carrying the
    Gaussian binomial [j+m, m].  Irreducible iff no v_j below the top is
    annihilated by every divided power, i.e. iff for each j < lam some
    1 <= m <= lam-j has a nonvanishing coefficient.

    s is read once per call.  At s = 1 (q = +-1) no quantum integer
    vanishes.  For s > 1 each [k] vanishes at zeta^d exactly when s
    divides k, with a simple root, so [j+m, m] vanishes iff (j, j+m]
    holds more multiples of s than [1, m] does.  It never holds fewer, as
    floor((j+m)/s) >= floor(j/s) + floor(m/s); so the binomial is nonzero
    iff (j+m)//s - j//s == m//s.

    Only the top s - 1 vectors below v_lam can be annihilated.  For
    j <= lam - s the power E^(s) exists on v_j, and (j+s)//s - j//s == 1
    == s//s, so [j+s, s] != 0 and E^(s) moves v_j.  The scan therefore
    visits only the v_j with lam - s < j < lam, at most s - 1 of them:
    the others would be moved by m = s at the latest, so no answer
    changes, and the cost of a call does not grow with lam.

    The scan runs by vector.  For each v_j in that window it tries
    m = 1, 2, ... <= lam - j and stops at the first m whose [j+m, m] is
    nonzero; a v_j that runs out of divided powers first is annihilated
    by all of them, and the module is reducible.  A call makes at most
    (s - 1) + s carry tests: m = 1 already moves each v_j of the window
    with s not dividing j + 1, fewer than s consecutive j hold at most
    one j with s | j + 1, and that v_j has lam - j < s powers to try.
    """
    if type(lam) is not int or lam < 0:
        raise ValueError("lambda: must be a nonnegative integer")
    s = _order(ell, d)[1]
    if s == 1:
        return True
    for j in range(max(0, lam - s + 1), lam):
        m = 1
        while (j + m) // s - j // s != m // s:
            m += 1
            if j + m > lam:
                return False
    return True


_G2_SCALAR = qint(6) ** 2 - qint(3)


def g2_omega2_reducible_at(ell: int, d: int = 1) -> bool:
    """Scalar test for the 14-dimensional module of the rank-2
    triple-laced system: its zero-weight invariant appears when
    [6]^2 - [3] vanishes.  A sufficient test, not a criterion: for
    ell <= 60 the scalar vanishes only at ell = 3 and 6, and the module is
    also reducible at ell = 24, where the scalar does not vanish (ROADMAP
    item 7)."""
    return vanishes_at(_G2_SCALAR, SpecOrder(ell, d))
