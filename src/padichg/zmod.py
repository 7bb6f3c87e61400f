"""The integer layer under every field: primality, the field bound, the
reader of exact rationals, the balanced lift, the table memo, and Z/p^N.

ratio is the one reader of a rational input: every parameter of an nGn
table or a GParams, every Gamma_p argument and every argument of the floor
toolkit enters through it as a reduced (num, den) pair of ints.  It takes a
(num, den) pair, an int or a Fraction, and a str or a Decimal through
Fraction; it refuses a float, which is no exact rational, and, given p, a
denominator divisible by p, which is no p-adic integer.

PadicContext is the ring Z/p^N standing in for Z_p at precision N.  It
needs no F_q context, so the Gamma_p cache and the integer suites (gamma,
floors) run on this module alone; padic re-exports it.  Its element facade,
ZpElement, lives in padichg.elements and is built on demand.  memo holds the
tables of a field context or a Gamma_p cache.
"""

from math import gcd, isqrt

MAX_Q = 1 << 16

# Bound on precision * p.bit_length(), which caps the bits of p^N.  Every
# context the CLI admits (p*N^2 <= pgamma.MAX_TABLE_WORK) needs under 1,700
# bits; the largest a test builds, 3^5000, is 10,000 by this measure.
MAX_MODULUS_BITS = 1 << 16


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def check_field(p: int, r: int) -> None:
    """Refuse (ValueError) all but an odd prime p and r >= 1 with p^r <= MAX_Q;
    p and r are bounded before the primality scan and the power."""
    if p > MAX_Q:
        raise ValueError(f"p = {p} exceeds the supported bound {MAX_Q}")
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r >= MAX_Q.bit_length() or p**r > MAX_Q:
        raise ValueError(f"q = {p}^{r} exceeds the supported bound {MAX_Q}")


def ratio(c, role: str, p: int | None = None) -> tuple[int, int]:
    """c as a reduced (num, den), den > 0: a (num, den) pair of ints, an int
    or a Fraction through its numerator and denominator, and anything else
    that Fraction takes (a str, a Decimal) through Fraction.  A float is
    refused with TypeError, and with p given, a den divisible by p with
    ValueError; each refusal starts with role."""
    if isinstance(c, tuple) and len(c) == 2:
        num, den = c
    elif isinstance(c, float):
        raise TypeError(f"{role} {c!r} is a float; pass an int or a Fraction")
    elif isinstance(getattr(c, "denominator", None), int):
        num, den = c.numerator, c.denominator
    else:
        from fractions import Fraction  # a str or a Decimal; the suites pass pairs

        num, den = Fraction(c).as_integer_ratio()
    if not (isinstance(num, int) and isinstance(den, int)):
        raise TypeError(f"{role} {c!r} is not a pair of integers")
    if den == 0:
        raise ZeroDivisionError(f"{role} {c!r} has denominator 0")
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    if p is not None and den % p == 0:
        raise ValueError(f"{role} {num}/{den} is not a p-adic integer for p={p}")
    return num, den


def memo(owner, build, *key):
    """build(owner, *key), built on the first call and held in owner.tables
    under (build, *key); a value once set never changes, so callers share it."""
    slot = (build, *key)
    table = owner.tables.get(slot)
    if table is None:
        table = owner.tables[slot] = build(owner, *key)
    return table


def balanced_residue(v: int, m: int) -> int:
    """The representative in (-m/2, m/2] of a residue 0 <= v < m."""
    return v - m if v > m // 2 else v


def recover_residue(v: int, m: int, bound: int) -> int:
    """balanced_residue(v, m), certified by |value| <= bound; the caller makes m > 2 bound."""
    v = balanced_residue(v, m)
    if abs(v) > bound:
        raise ArithmeticError(f"lifted value {v} violates the stated bound {bound}")
    return v


class PadicContext:
    """The ring Z/p^N standing in for Z_p at precision N."""

    _neg_poly = (0,)  # Z/p^N = Z[x] / (x, p^N), the r = 1 ring of the element base

    def __init__(self, p: int, precision: int):
        check_field(p, 1)  # p is bounded before the primality scan
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if precision * p.bit_length() > MAX_MODULUS_BITS:  # bounded before the power
            raise ValueError(
                f"p^N = {p}^{precision} exceeds the supported bound of {MAX_MODULUS_BITS} bits"
            )
        self.p = p
        self.precision = precision
        self.modulus = p**precision

    def element(self, value: int) -> "ZpElement":
        from .elements import ZpElement

        return ZpElement(self, value)

    def __repr__(self):
        return f"PadicContext(p={self.p}, N={self.precision})"
