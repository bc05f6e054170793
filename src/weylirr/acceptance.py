"""The acceptance suite: nine exact checks runnable from tests or the CLI.

Each check either returns a human-readable detail string or raises
CheckFailed.  Wall-clock budgets are reported alongside results but only
correctness is enforced; all comparisons are exact.
"""

from __future__ import annotations

import itertools
import math
import time

from ._record import Record
from .qarith import (
    LaurentPoly,
    SpecOrder,
    cyclotomic,
    euler_phi,
    qbinom,
    qint,
    qint_vanishes_fast,
    s_value,
    vanishes_at,
)
from .rootsystem import build, systems
from .weylmods import (
    adjoint_short_reducible_at,
    closed_form_detD,
    det_short_matrix,
    e8_certificate,
    sl2_irreducible,
    sl2_maximal_vector_oracle,
)
from .classifier import classify_global


class CheckFailed(AssertionError):
    pass


class CheckResult(Record):
    __slots__ = _fields = ("id", "passed", "seconds", "detail")


def stated_reducibility_orders(rs):
    """Orders up to 60 at which the short-root determinant is asserted to
    vanish."""
    if rs.kind == "A":
        return [l for l in range(3, 61) if (rs.rank + 1) % l == 0]
    if rs.kind == "C":
        return [l for l in range(3, 61) if rs.rank % l == 0]
    if rs.kind in ("B", "D", "G") or (rs.kind, rs.rank) == ("E", 7):
        return [4]
    if rs.kind == "F" or (rs.kind, rs.rank) == ("E", 6):
        return [3]
    return []  # rank-8 type E: none


def _check_thm_5_1_table() -> str:
    verified = 0
    for rs in systems(12):
        if rs.kind == "E" and rs.rank == 8:
            continue
        for ell in stated_reducibility_orders(rs):
            if not adjoint_short_reducible_at(rs, ell):
                raise CheckFailed(
                    f"{rs.name}: determinant does not vanish at order {ell}")
            verified += 1
    e8 = build("E", 8)
    bad = [ell for ell in range(1, 1001)
           if adjoint_short_reducible_at(e8, ell)]
    if bad:
        raise CheckFailed(
            f"E8: determinant vanishes at orders {bad}; q^8 det(D) equals "
            f"the 60th cyclotomic polynomial, so the never-vanishing claim "
            f"is false at order 60")
    big = [l for l in range(3, 1001) if euler_phi(l) <= 20]
    return (f"{verified} stated vanishing orders hold; E8 determinant "
            f"nonzero at orders 1..1000 (covers all {len(big)} orders with "
            f"totient <= 20)")


def _check_det_equality() -> str:
    names = []
    for rs in systems(12):
        if det_short_matrix(rs) != closed_form_detD(rs):
            raise CheckFailed(f"{rs.name}: determinant closed form differs")
        names.append(rs.name)
    return f"symbolic determinant equals closed form for {len(names)} systems"


def _check_e8_certificate() -> str:
    # raises InternalCheckError if f or its factorization drifts from the
    # frozen printed forms
    cert = e8_certificate()
    if cert.value_at_minus_one != 1:
        raise CheckFailed(f"det(D)(-1) = {cert.value_at_minus_one}, not 1")
    if cert.failing_orders:
        raise CheckFailed(
            f"cyclotomic polynomials at orders {list(cert.failing_orders)} "
            f"divide f16 (f16 is itself the 60th cyclotomic polynomial, "
            f"totient 16): the no-divisor claim is false")
    return (f"f has degree {cert.f.degree}; {len(cert.checked_orders)} "
            f"candidate orders checked, none divides f16; det(D)(1) = "
            f"{cert.value_at_one}, det(D)(-1) = {cert.value_at_minus_one}")


def _check_sl2_equivalence() -> str:
    pairs = 0
    for ell in range(1, 61):
        for lam in range(0, 301):
            a = sl2_irreducible(lam, ell)
            b = sl2_maximal_vector_oracle(lam, ell)
            if a != b:
                raise CheckFailed(
                    f"criterion and oracle disagree at lambda={lam}, "
                    f"ell={ell}: {a} vs {b}")
            pairs += 1
    return f"criterion and oracle agree on all {pairs} pairs"


def _check_sl2_unbounded_instance() -> str:
    svals = [s_value(l) for l in range(1, 5)]
    if svals != [1, 1, 3, 2]:
        raise CheckFailed(f"s-values for orders 1..4 are {svals}")
    lam = math.prod(svals) - 1
    if lam != 5:
        raise CheckFailed(f"product instance gives lambda={lam}, not 5")
    for ell in range(1, 6):
        want = ell != 5
        got_c = sl2_irreducible(lam, ell)
        got_o = sl2_maximal_vector_oracle(lam, ell)
        if got_c != want or got_o != want:
            raise CheckFailed(
                f"lambda=5 at ell={ell}: criterion={got_c}, oracle={got_o}, "
                f"expected irreducible={want}")
    return "lambda=5 irreducible at orders 1..4 and reducible at 5, per both"


# the minuscule nodes stated per type, as the reference for the sweep:
# RootSystem derives its own from alpha0, so the two are independent
_SWEEP_MINUSCULE = {
    "A": lambda n: set(range(1, n + 1)),
    "B": lambda n: {n},
    "C": lambda n: {1},
    "D": lambda n: {1, n - 1, n},
    "E": lambda n: {6: {1, 6}, 7: {7}, 8: set()}[n],
    "F": lambda n: set(),
    "G": lambda n: set(),
}


def _check_global_sweep() -> str:
    total = irreducible = 0
    for rs in systems(8):
        expect_gi = {rs.zero_weight()}
        expect_gi.update(rs.fundamental(i)
                         for i in _SWEEP_MINUSCULE[rs.kind](rs.rank))
        if rs.kind == "E" and rs.rank == 8:
            expect_gi.add(rs.fundamental(8))
        for lam in itertools.product((0, 1, 2), repeat=rs.rank):
            decision = classify_global(rs, lam)
            is_gi = decision.verdict == "globally_irreducible"
            if is_gi != (lam in expect_gi):
                raise CheckFailed(
                    f"{rs.name} {lam}: verdict {decision.verdict} "
                    f"contradicts the minuscule table")
            if is_gi:
                irreducible += 1
            total += 1
    return (f"{total} dominant weights classified; {irreducible} globally "
            f"irreducible, every witness trace replayed")


def _check_end_node_arithmetic() -> str:
    for n in range(2, 13):
        rs = build("A", n)
        zero = rs.zero_weight()
        if rs.dot_reflect_alpha0(n + 1, zero) != rs.alpha0_weight:
            raise CheckFailed(f"A{n}: reflection of 0 at order {n + 1}")
        if not rs.in_bottom_alcove_closure(n + 1, zero):
            raise CheckFailed(f"A{n}: 0 outside the bottom alcove closure")
        rs = build("B", n)
        source = rs.fundamental(n)
        target = tuple(int(i in (0, n - 1)) for i in range(n))
        if rs.dot_reflect_alpha0(2 * n + 1, source) != target:
            raise CheckFailed(f"B{n}: reflection of w{n} at order {2 * n + 1}")
        if not rs.in_bottom_alcove_closure(2 * n + 1, source):
            raise CheckFailed(f"B{n}: w{n} outside the closure")
    return "reflection identities and alcove membership hold for ranks 2..12"


def _check_dimensions() -> str:
    g2 = build("G", 2)
    dim = g2.weyl_dimension(g2.fundamental(2))
    if dim != 14:
        raise CheckFailed(f"G2 w2 dimension {dim} != 14")
    for rs in systems(12):
        short_pos = sum(1 for r in rs.positive_roots if r.is_short)
        expected = 2 * short_pos + len(rs.short_simple_nodes)
        got = rs.weyl_dimension(rs.alpha0_weight)
        if got != expected:
            raise CheckFailed(
                f"{rs.name}: dim of the alpha0 module is {got}, "
                f"expected {expected}")
    return "G2 w2 gives 14; alpha0 dimension identity holds through rank 12"


def _check_qarith_identities() -> str:
    for i in range(1, 61):
        if qint(i).bar() != qint(i):
            raise CheckFailed(f"[{i}] not bar-invariant")
    for n in range(0, 31):
        for m in range(0, n + 1):
            b = qbinom(n, m)
            if b.bar() != b:
                raise CheckFailed(f"[{n} choose {m}] not bar-invariant")
    two = qint(2)
    for n in range(1, 51):
        if two * qint(n) - qint(n - 1) != qint(n + 1):
            raise CheckFailed(f"three-term identity fails at {n}")
    for n in range(1, 201):
        prod = LaurentPoly({0: 1})
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        if prod != LaurentPoly({n: 1, 0: -1}):
            raise CheckFailed(f"cyclotomic product fails at {n}")
    specs = [SpecOrder(ell, d) for d in (1, 2, 3) for ell in range(1, 101)]
    agree = 0
    for i in range(1, 501):
        p = qint(i)
        slow = {}  # effective order -> vanishes_at(p, spec), for this i
        for spec in specs:
            e = spec.effective_order
            if e not in slow:
                slow[e] = vanishes_at(p, spec)
            if slow[e] != qint_vanishes_fast(i, spec):
                raise CheckFailed(f"fast vanishing disagrees at i={i}, "
                                  f"ell={spec.ell}, d={spec.d}")
            agree += 1
    return (f"bar-invariance, three-term and cyclotomic identities hold; "
            f"fast vanishing agrees on {agree} inputs")


# check id -> (budget in seconds, check), in the order the suite runs
CHECKS = {
    "thm-5-1-vanishing-table": (10.0, _check_thm_5_1_table),
    "det-closed-form-equality": (5.0, _check_det_equality),
    "e8-certificate": (1.0, _check_e8_certificate),
    "sl2-criterion-oracle-equivalence": (60.0, _check_sl2_equivalence),
    "sl2-unbounded-order-instance": (5.0, _check_sl2_unbounded_instance),
    "global-classification-sweep": (120.0, _check_global_sweep),
    "end-node-reflection-arithmetic": (5.0, _check_end_node_arithmetic),
    "dimension-cross-checks": (5.0, _check_dimensions),
    "qarith-identity-suite": (60.0, _check_qarith_identities),
}

CHECK_IDS = tuple(CHECKS)


def _entry(check_id: str):
    if check_id not in CHECKS:
        raise ValueError(f"check: unknown id {check_id!r}")
    return CHECKS[check_id]


def run_check(check_id: str) -> CheckResult:
    _, fn = _entry(check_id)
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except Exception as exc:  # report, never crash the suite
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CheckResult(check_id, passed, time.perf_counter() - start, detail)


def run_all(only=None):
    wanted = set(only) if only else CHECKS.keys()
    unknown = sorted(wanted - CHECKS.keys())
    if unknown:
        raise ValueError(f"check: unknown id {unknown[0]!r}")
    # bench/tracer.py times a check by rebinding the global run_check
    return [run_check(cid) for cid in CHECKS if cid in wanted]


def budget_for(check_id: str) -> float:
    return _entry(check_id)[0]
