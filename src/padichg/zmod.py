"""The integer layer under every field: primality, the field-size bound, and Z/p^N.

PadicContext and ZpElement are the ring Z/p^N standing in for Z_p at
precision N.  They need no F_q context, so the Gamma_p cache and the
integer suites (gamma, floors) run on this module alone; padic and
finitefield re-export its names.
"""

from __future__ import annotations

MAX_Q = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PadicContext:
    """The ring Z/p^N standing in for Z_p at precision N."""

    def __init__(self, p: int, precision: int):
        if not is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if precision < 1:
            raise ValueError("precision must be >= 1")
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
        if v is NotImplemented:
            return NotImplemented
        return ZpElement(self.context, self.residue + v)

    __radd__ = __add__

    def __neg__(self):
        return ZpElement(self.context, -self.residue)

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ZpElement(self.context, self.residue - v)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ZpElement(self.context, self.residue * v)

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
