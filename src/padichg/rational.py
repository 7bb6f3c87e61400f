"""Exact rational floor/fractional-part toolkit and integer floor identities.

Rationals are stdlib ``fractions.Fraction`` values, which are always held in
canonical reduced form (positive denominator, gcd 1), so equality and floor
are bit-exact.  Nothing in this module touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


def frac(x) -> Fraction:
    """Fractional part ``<x> = x - floor(x)``, always in [0, 1)."""
    x = Fraction(x)
    return x - math.floor(x)


def floor_int(x) -> int:
    """Largest integer <= x (exact, correct for negative rationals)."""
    return math.floor(Fraction(x))


def g_exponent(a_k, b_k, a: int, i: int, p: int, q: int) -> int:
    """Exponent of (-p) attached to one (k, i) factor of the nGn summand.

    Returns ``-floor(<a_k p^i> - a p^i/(q-1)) - floor(<-b_k p^i> + a p^i/(q-1))``.
    The parameters a_k, b_k must be p-adic integers, i.e. have denominators
    coprime to p.
    """
    if not isinstance(a_k, Fraction):
        a_k = Fraction(a_k)
    if not isinstance(b_k, Fraction):
        b_k = Fraction(b_k)
    da, db = a_k.denominator, b_k.denominator
    if da % p == 0 or db % p == 0:
        raise ValueError(f"parameter denominator divisible by p={p}")
    # all over d: <a_k p^i> = alpha/d, <-b_k p^i> = beta/d, a p^i/(q-1) = u/d
    d = math.lcm(da, db, q - 1)
    pi = p**i
    alpha = a_k.numerator * (d // da) * pi % d
    beta = -b_k.numerator * (d // db) * pi % d
    u = a * pi * (d // (q - 1))
    return -((alpha - u) // d) - ((beta + u) // d)


def check_floor_identity_A(p: int, q: int, a: int, i: int) -> bool:
    """Eight-floor identity linking the 2a/6a multiples to the 1/6, 5/6, 1/2 shifts.

    Defined for 0 <= a <= q-2 with a != (q-1)/2.  Both sides are evaluated
    independently by exact rational arithmetic and compared.
    """
    if 2 * a == q - 1:
        raise ValueError("a = (q-1)/2 is excluded by the identity's hypothesis")
    u = Fraction(a * p**i, q - 1)
    lhs = (
        -2 * math.floor(2 * u)
        - math.floor(-6 * u)
        + math.floor(u)
        + math.floor(-3 * u)
    )
    rhs = (
        -math.floor(frac(Fraction(p**i, 6)) - u)
        - math.floor(frac(Fraction(5 * p**i, 6)) - u)
        - math.floor(frac(Fraction(p**i, 2)) + u)
        - math.floor(u)
    )
    return lhs == rhs


def check_floor_identity_B(p: int, q: int, a: int, i: int) -> bool:
    """Five-floor identity linking the 2a/3a multiples to the 1/3, 2/3, 1/2 shifts.

    Defined for 0 < a <= q-2 (a = (q-1)/2 is allowed here).
    """
    if a == 0:
        raise ValueError("a = 0 is excluded by the identity's hypothesis")
    u = Fraction(a * p**i, q - 1)
    lhs = -math.floor(2 * u) - math.floor(-3 * u)
    rhs = (
        1
        - math.floor(frac(Fraction(p**i, 3)) - u)
        - math.floor(frac(Fraction(2 * p**i, 3)) - u)
        - math.floor(frac(Fraction(p**i, 2)) + u)
    )
    return lhs == rhs
