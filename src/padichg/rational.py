"""Exact rational floor/fractional-part toolkit and integer floor identities.

frac and g_exponent read each rational argument through zmod.ratio: a
(num, den) pair of ints, an int, a Fraction, or a str or a Decimal.  A
float is refused with TypeError, and g_exponent also refuses a parameter
that is no p-adic integer.  g_exponent and the floor identities hold every
rational they meet as n/d over one common denominator d, so <n/d> is
(n mod d)/d and each floor is the integer floor division n // d; the floor
identities construct no Fraction.  fractions (and the decimal module it
loads) is imported by frac, which returns a Fraction, and by ratio for a
str or a Decimal, so the integer suites never load it.  Nothing in this
module touches floating point.
"""

import math

from .zmod import ratio


def frac(x):
    """Fractional part ``<x> = x - floor(x)`` as a Fraction, always in [0, 1);
    x is read by zmod.ratio."""
    from fractions import Fraction

    num, den = ratio(x, "argument")
    return Fraction(num % den, den)


def g_exponent(a_k, b_k, a: int, i: int, p: int, q: int) -> int:
    """Exponent of (-p) attached to one (k, i) factor of the nGn summand.

    Returns ``-floor(<a_k p^i> - a p^i/(q-1)) - floor(<-b_k p^i> + a p^i/(q-1))``.
    The parameters a_k, b_k are read by zmod.ratio and must be p-adic
    integers, i.e. have denominators coprime to p.
    """
    na, da = ratio(a_k, "a_k", p)
    nb, db = ratio(b_k, "b_k", p)
    # all over d: <a_k p^i> = alpha/d, <-b_k p^i> = beta/d, a p^i/(q-1) = u/d
    d = math.lcm(da, db, q - 1)
    pi = p**i
    alpha = na * (d // da) * pi % d
    beta = -nb * (d // db) * pi % d
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
