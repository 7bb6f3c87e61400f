"""The integer layer under every field: primality, the field bound, the
balanced lift, the table memo, and Z/p^N.

PadicContext and ZpElement are the ring Z/p^N standing in for Z_p at
precision N.  They need no F_q context, so the Gamma_p cache and the
integer suites (gamma, floors) run on this module alone; padic
re-exports them.  memo holds the tables of a field context or a Gamma_p cache.
"""

from __future__ import annotations

from math import isqrt

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
        return ZpElement(self, value % self.modulus)

    def __repr__(self):
        return f"PadicContext(p={self.p}, N={self.precision})"


class ZpElement:
    """Residue in Z/p^N."""

    __slots__ = ("context", "residue")

    def __init__(self, context: PadicContext, residue: int):
        self.context = context
        self.residue = residue % context.modulus

    def is_unit(self) -> bool:
        return self.residue % self.context.p != 0

    def inverse(self) -> "ZpElement":
        if not self.is_unit():
            raise ZeroDivisionError("non-unit in Z_p (residue divisible by p)")
        return ZpElement(self.context, pow(self.residue, -1, self.context.modulus))

    def _coerce(self, other) -> int:
        if isinstance(other, ZpElement):
            if other.context is not self.context:
                raise ValueError("mixed Z_p contexts")
            return other.residue
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return v if v is NotImplemented else ZpElement(self.context, self.residue + v)

    __radd__ = __add__

    def __neg__(self):
        return ZpElement(self.context, -self.residue)

    def __sub__(self, other):
        v = self._coerce(other)
        return v if v is NotImplemented else ZpElement(self.context, self.residue - v)

    def __mul__(self, other):
        v = self._coerce(other)
        return v if v is NotImplemented else ZpElement(self.context, self.residue * v)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.residue == other % self.context.modulus
        return (
            isinstance(other, ZpElement)
            and self.context is other.context
            and self.residue == other.residue
        )

    def __hash__(self):
        return hash((self.context.p, self.context.precision, self.residue))

    def __int__(self):
        return self.residue

    def __repr__(self):
        return f"Zp({self.residue} mod {self.context.p}^{self.context.precision})"
