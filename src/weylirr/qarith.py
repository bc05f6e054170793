"""Exact arithmetic for integer Laurent polynomials in one variable q.

Quantum integers, factorials and binomial coefficients live here, together
with cyclotomic polynomials and exact vanishing tests at roots of unity.
Everything runs on arbitrary-precision integers; there is no floating point
and no numerical tolerance anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class ExactDivisionError(ArithmeticError):
    """A polynomial division that had to be exact left a remainder."""


class InternalCheckError(RuntimeError):
    """An internal consistency check failed: a bug, never bad user input."""


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    Terms are stored sparsely as exponent -> nonzero coefficient.  Two
    polynomials compare equal exactly when their term maps are equal, so
    every constructor path normalizes by dropping zero coefficients.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        data: dict[int, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, coeff in items:
                if not isinstance(exp, int) or not isinstance(coeff, int):
                    raise ValueError("exponents and coefficients must be ints")
                c = data.get(exp, 0) + coeff
                if c:
                    data[exp] = c
                elif exp in data:
                    del data[exp]
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    def terms(self) -> dict[int, int]:
        """Copy of the exponent -> coefficient map."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    @property
    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self._terms)

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly({0: other})
        if isinstance(other, LaurentPoly):
            return other
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def bar(self) -> "LaurentPoly":
        """Image under the involution q -> q^-1."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly({e + k: c for e, c in self._terms.items()})

    def evaluate(self, x):
        """Exact value at a nonzero rational point."""
        x = Fraction(x)
        if x == 0 and self._terms and min(self._terms) < 0:
            raise ZeroDivisionError("negative exponents at x = 0")
        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * x ** e
        return int(total) if total.denominator == 1 else total

    def exact_div(self, den) -> "LaurentPoly":
        """Exact quotient self / den.

        den must have leading coefficient +-1 once written as an ordinary
        polynomial; raises ExactDivisionError when the division is inexact.
        """
        den = self._coerce(den)
        if den is None:
            raise TypeError("divisor must be a LaurentPoly or int")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        sv, dv = self.valuation, den.valuation
        sn = self.degree - sv
        dn = den.degree - dv
        if sn < dn:
            raise ExactDivisionError("numerator degree too small")
        num = [0] * (sn + 1)
        for e, c in self._terms.items():
            num[e - sv] = c
        dcf = [0] * (dn + 1)
        for e, c in den._terms.items():
            dcf[e - dv] = c
        lead = dcf[dn]
        if lead not in (1, -1):
            raise ExactDivisionError("divisor leading coefficient must be +-1")
        # dividing by the monic lead * den gives lead * quotient
        quot = _dense_exact_div(num, [c * lead for c in dcf])
        offset = sv - dv
        return LaurentPoly({k + offset: qc * lead
                            for k, qc in enumerate(quot) if qc})

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __str__ = __repr__


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


@lru_cache(maxsize=None)
def qint(i: int) -> LaurentPoly:
    """Quantum integer [i] = (q^i - q^-i)/(q - q^-1)."""
    if not isinstance(i, int):
        raise ValueError("quantum integer index must be an int")
    if i == 0:
        return ZERO
    if i < 0:
        return -qint(-i)
    return LaurentPoly({e: 1 for e in range(i - 1, -i, -2)})


_QFACT: list[LaurentPoly] = [ONE]


def qfactorial(i: int) -> LaurentPoly:
    """Quantum factorial [i]! = [1][2]...[i], with [0]! = 1."""
    if not isinstance(i, int) or i < 0:
        raise ValueError("quantum factorial needs a nonnegative int")
    while len(_QFACT) <= i:
        _QFACT.append(_QFACT[-1] * qint(len(_QFACT)))
    return _QFACT[i]


@lru_cache(maxsize=None)
def qbinom(n: int, m: int) -> LaurentPoly:
    """Gaussian binomial [n choose m] = [n][n-1]...[n-m+1] / [m]!.

    n may be any integer; m must be nonnegative.  The quotient is always
    exact; an inexact division here is an internal bug.

    With k = min(m, n-m) and x = q^2, the value is q^(-k(n-k)) times the
    product over j = 1..k of (x^(n-k+j) - 1) / (x^j - 1), built one factor
    at a time: each step is one multiplication by a binomial and one exact
    division, so the work is a loop, not a recursion m frames deep.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("lower index of qbinom must be a nonnegative int")
    if m == 0:
        return ONE
    if n < 0:
        # [n][n-1]...[n-m+1] = (-1)^m [-n][-n+1]...[-n+m-1]
        flipped = qbinom(-n + m - 1, m)
        return -flipped if m % 2 else flipped
    if n < m:
        return ZERO  # numerator contains [0]
    k = min(m, n - m)
    rest = n - k
    coeffs = [1]  # ascending in x; the partial product for j - 1
    for j in range(1, k + 1):
        up = rest + j
        # multiply by x^up - 1
        prod = [-c for c in coeffs] + [0] * up
        prod[up:] = [a + c for a, c in zip(prod[up:], coeffs)]
        try:
            coeffs = _dense_exact_div(prod, (-1,) + (0,) * (j - 1) + (1,))
        except ExactDivisionError as exc:
            raise InternalCheckError(
                f"qbinom({n}, {m}) division inexact") from exc
    low = -k * rest
    return LaurentPoly({low + 2 * i: c for i, c in enumerate(coeffs) if c})


def _divisors(n: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient by trial division."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("totient needs a positive int")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _dense_exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Ascending coefficient lists; den is monic.
    dn = len(den) - 1
    sn = len(num) - 1
    while sn >= 0 and num[sn] == 0:
        sn -= 1
    if sn < 0:
        return [0]
    if sn < dn:
        raise ExactDivisionError("numerator degree too small")
    terms = [(idx, dc) for idx, dc in enumerate(den) if dc]
    rem = num[: sn + 1]
    quot = [0] * (sn - dn + 1)
    for k in range(sn - dn, -1, -1):
        c = rem[k + dn]
        if c:
            quot[k] = c
            for idx, dc in terms:
                rem[k + idx] -= c * dc
    if any(rem):
        raise ExactDivisionError("division left a remainder")
    return quot


@lru_cache(maxsize=None)
def _cyclo_coeffs(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in _divisors(n)[:-1]:
        num = _dense_exact_div(num, _cyclo_coeffs(d))
    return tuple(num)


def cyclotomic(ell: int) -> LaurentPoly:
    """The ell-th cyclotomic polynomial; cyclotomic(1) = q - 1."""
    if not isinstance(ell, int) or ell < 1:
        raise ValueError("cyclotomic index must be a positive int")
    return LaurentPoly({e: c for e, c in enumerate(_cyclo_coeffs(ell)) if c})


def s_value(j: int) -> int:
    """j for odd j, j/2 for even j (the vanishing modulus of order j)."""
    if not isinstance(j, int) or j < 1:
        raise ValueError("s_value needs a positive int")
    return j if j % 2 else j // 2


@dataclass(frozen=True)
class SpecOrder:
    """Evaluation point q = zeta^d with zeta a primitive ell-th root of unity.

    d covers the squared-length twists of simple roots, so it stays in
    {1, 2, 3}.

    effective_order (the multiplicative order of zeta^d) and s (its
    s_value) are computed once here, as plain attributes outside the
    dataclass fields, so equality, hashing and repr see only ell and d.
    """

    ell: int
    d: int = 1

    def __post_init__(self):
        if not isinstance(self.ell, int) or self.ell < 1:
            raise ValueError("ell: must be a positive integer")
        if self.d not in (1, 2, 3):
            raise ValueError("d: must be 1, 2 or 3")
        e = self.ell // math.gcd(self.ell, self.d)
        object.__setattr__(self, "effective_order", e)
        object.__setattr__(self, "s", s_value(e))


def vanishes_at(p: LaurentPoly, spec: SpecOrder) -> bool:
    """Exact test of p(zeta^d) = 0.

    First p is multiplied by q^(-valuation), which does not move its zeros
    at roots of unity, so its exponents run from 0 to the span.  Then the
    exponents are folded modulo the effective order e (reduction modulo
    q^e - 1, which does not move roots of unity of order e) into
    min(span + 1, e) slots; a span below e leaves nothing to fold, and the
    degree scan stops at once on the nonzero top coefficient.  A remainder
    of degree below phi(e) = deg cyclotomic(e) cannot vanish, so that case
    returns False without building cyclotomic(e); otherwise the remainder
    is tested for exact divisibility by cyclotomic(e).  At e = 1, 2 this
    amounts to evaluation at +-1.
    """
    if not isinstance(p, LaurentPoly):
        raise TypeError("vanishes_at expects a LaurentPoly")
    if p.is_zero:
        return True
    e = spec.effective_order
    terms = p._terms
    low = min(terms)
    folded = [0] * min(max(terms) - low + 1, e)
    for exp, c in terms.items():
        folded[(exp - low) % e] += c
    deg = -1
    for idx in range(len(folded) - 1, -1, -1):
        if folded[idx]:
            deg = idx
            break
    if deg < 0:
        return True
    if euler_phi(e) > deg:
        return False
    try:
        _dense_exact_div(folded[: deg + 1], _cyclo_coeffs(e))
        return True
    except ExactDivisionError:
        return False


def qint_vanishes_fast(i: int, spec: SpecOrder) -> bool:
    """[i](zeta^d) = 0 without constructing the polynomial.

    With e the effective order and s = s_value(e): vanishes iff s > 1 and
    s | i.  The i = 0 case is split out since [0] is the zero polynomial and
    vanishes at every order.
    """
    if not isinstance(i, int):
        raise ValueError("index must be an int")
    if i == 0:
        return True
    s = spec.s
    return s > 1 and i % s == 0


def qbinom_vanishes_fast(n: int, m: int, spec: SpecOrder) -> bool:
    """[n choose m](zeta^d) = 0 without symbolic expansion.

    Counts vanishing quantum-integer factors in numerator and denominator;
    each contributes a simple root, so the binomial vanishes exactly when the
    numerator has strictly more multiples of s in (n-m, n] than the
    denominator has in [1, m].
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("lower index must be a nonnegative int")
    if m == 0:
        return False
    if n < 0:
        # unit factor (-1)^m cannot affect vanishing
        return qbinom_vanishes_fast(-n + m - 1, m, spec)
    if n < m:
        return True  # the zero polynomial
    s = spec.s
    if s == 1:
        return False
    excess = (n // s - (n - m) // s) - m // s
    return excess > 0
