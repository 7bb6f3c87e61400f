"""Exact rational floor/fractional-part toolkit and integer floor identities.

frac takes stdlib ``fractions.Fraction`` values, which are always held in
canonical reduced form (positive denominator, gcd 1), so equality and floor
are bit-exact.  g_exponent and the floor identities hold every rational they
meet as n/d over one common denominator d, so <n/d> is (n mod d)/d and each
floor is the integer floor division n // d; the floor identities construct no
Fraction.  fractions (and the decimal module it loads) is imported by the
functions that build a Fraction, so the integer suites never load it.
Nothing in this module touches floating point.
"""

import math


def frac(x):
    """Fractional part ``<x> = x - floor(x)`` as a Fraction, always in [0, 1)."""
    from fractions import Fraction

    x = Fraction(x)
    return x - math.floor(x)


def g_exponent(a_k, b_k, a: int, i: int, p: int, q: int) -> int:
    """Exponent of (-p) attached to one (k, i) factor of the nGn summand.

    Returns ``-floor(<a_k p^i> - a p^i/(q-1)) - floor(<-b_k p^i> + a p^i/(q-1))``.
    The parameters a_k, b_k must be p-adic integers, i.e. have denominators
    coprime to p.
    """
    from fractions import Fraction

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


def _sixths(p: int, q: int, a: int, i: int):
    """(d, u, s) with d = lcm(q-1, 6), u/d = a p^i/(q-1) and s(k)/d = <k p^i/6>."""
    d = math.lcm(q - 1, 6)
    pi = p**i
    return d, a * pi * (d // (q - 1)), lambda k: k * pi * (d // 6) % d


def check_floor_identity_A(p: int, q: int, a: int, i: int) -> bool:
    """Eight-floor identity linking the 2a/6a multiples to the 1/6, 5/6, 1/2 shifts.

    Defined for 0 <= a <= q-2 with a != (q-1)/2.  With u = a p^i/(q-1) and
    every term over d = lcm(q-1, 6), both sides are independent sums of
    integer floor divisions, compared exactly.
    """
    if 2 * a == q - 1:
        raise ValueError("a = (q-1)/2 is excluded by the identity's hypothesis")
    d, u, s = _sixths(p, q, a, i)
    lhs = -2 * (2 * u // d) - (-6 * u // d) + u // d + (-3 * u // d)
    rhs = -((s(1) - u) // d) - ((s(5) - u) // d) - ((s(3) + u) // d) - u // d
    return lhs == rhs


def check_floor_identity_B(p: int, q: int, a: int, i: int) -> bool:
    """Five-floor identity linking the 2a/3a multiples to the 1/3, 2/3, 1/2 shifts.

    Defined for 0 < a <= q-2 (a = (q-1)/2 is allowed here); integer floor
    divisions over d = lcm(q-1, 6), as for family A.
    """
    if a == 0:
        raise ValueError("a = 0 is excluded by the identity's hypothesis")
    d, u, s = _sixths(p, q, a, i)
    lhs = -(2 * u // d) - (-3 * u // d)
    rhs = 1 - ((s(2) - u) // d) - ((s(4) - u) // d) - ((s(3) + u) // d)
    return lhs == rhs
