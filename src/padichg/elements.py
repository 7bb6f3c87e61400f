"""The element API: ring elements and the nGn facade over the integer tables.

FqElement (F_q), ZqElement (Z_q / p^N) and ZpElement (Z/p^N) are immutable
elements of the contexts of finitefield, padic and zmod.  One ring base,
_PolyResidue, holds the rules of all three: an element is a vector of int
coefficients reduced mod its context's modulus (ZpElement's has one), a
non-int coefficient is a TypeError, an element equals an int or an element
of the same ring compared mod the modulus and nothing else (never an
error), and x ** e is a square-and-multiply power, through inverse() for
e < 0.  Each type keeps its own coercions, inverse and repr.
GParams, GValue and evaluate_g read the nGn value tables of gfunction at one
point, and sum a family without the Frobenius certificate point by point.

No table layer imports this module when it loads, and no suite builds an
element: the suites read integer tables indexed by discrete log, so a field
run never loads it.  The contexts build elements through it on demand
(FqContext.scalar, coerce, elements, zero, one and generator;
UnramifiedContext.element, scalar, teichmuller and reduce_mod_p;
PadicContext.element; GammaCache.gamma), importing it at their first call.
"""

from collections import namedtuple
from fractions import Fraction

from .finitefield import memo, poly_mulmod, poly_powmod
from .gfunction import _checked, _Uncertified, _values
from .padic import UnramifiedContext
from .zmod import PadicContext, balanced_residue, recover_residue


class _PolyResidue:
    """An immutable coefficient vector of (Z/m)[x] / (f), m = context.modulus.

    The one rule set of FqElement (m = p), ZqElement (m = p^N) and ZpElement
    (f = x, m = p^N): construction, equality, hash, power and the ring
    operations.  Each type reads the other operand through its own _coerce,
    which returns a residue of the same ring or NotImplemented, and raises
    TypeError or ValueError for an operand of another ring, context or p^N.
    A scalar (every coefficient after the first zero) hashes as its residue,
    so equal Z_p and Z_q scalars and the int in [0, m) they equal hash alike.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context, coeffs):
        coeffs = tuple(coeffs)
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError(f"coefficients must be ints, not {coeffs!r}")
        self.context = context
        self.coeffs = tuple(c % context.modulus for c in coeffs)

    def _with(self, coeffs: tuple[int, ...]):
        """An element of this type and context; coeffs are already reduced."""
        new = object.__new__(type(self))
        new.context, new.coeffs = self.context, coeffs
        return new

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        """Equal to an int or an element of the same ring, mod the modulus;
        unequal to an element of another ring, context or p^N."""
        if not isinstance(other, (int, _PolyResidue)):
            return NotImplemented
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return False
        return NotImplemented if o is NotImplemented else self.coeffs == o.coeffs

    def __hash__(self):
        c = self.coeffs
        return hash(c if any(c[1:]) else c[0])

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** -e
        ctx = self.context
        return self._with(poly_powmod(self.coeffs, e, ctx._neg_poly, ctx.modulus))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.context.modulus
        return self._with(tuple((a + b) % m for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        m = self.context.modulus
        return self._with(tuple((-a) % m for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ctx = self.context
        return self._with(poly_mulmod(self.coeffs, o.coeffs, ctx._neg_poly, ctx.modulus))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()


class FqElement(_PolyResidue):
    """Element of F_q as an immutable coefficient vector."""

    __slots__ = ()

    def _coerce(self, other):
        return self.context.coerce(other)  # TypeError for what F_q cannot take

    def inverse(self) -> "FqElement":
        ctx = self.context
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in F_q")
        return self._with(ctx.powers[-ctx.dlog[self.coeffs] % (ctx.q - 1)])

    def dlog(self) -> int:
        """Discrete log base the context generator; undefined at zero."""
        if self.is_zero():
            raise ZeroDivisionError("dlog of zero")
        return self.context.dlog[self.coeffs]

    def __repr__(self):
        if self.context.r == 1:
            return f"Fq({self.coeffs[0]} mod {self.context.p})"
        return f"Fq{self.coeffs} over F_{self.context.p}^{self.context.r}"


class ZqElement(_PolyResidue):
    """Residue in Z_q / p^N Z_q as a coefficient vector in the power basis."""

    __slots__ = ()

    def is_unit(self) -> bool:
        return not self.context.reduce_mod_p(self).is_zero()

    def _coerce(self, other):
        ctx = self.context
        if isinstance(other, ZqElement):
            if other.context is not ctx:
                raise ValueError("mixed Z_q contexts")
            return other
        if isinstance(other, (int, ZpElement)):
            return ctx.scalar(other)
        return NotImplemented

    def inverse(self) -> "ZqElement":
        """Unit inverse via Hensel lifting from the residue-field inverse."""
        ctx = self.context
        red = ctx.reduce_mod_p(self)
        if red.is_zero():
            raise ZeroDivisionError("non-unit in Z_q (reduction mod p is zero)")
        y = ZqElement(ctx, red.inverse().coeffs)
        # y -> y(2 - xy) doubles the precision each round
        k = 1
        while k < ctx.precision:
            y = y * (ctx.scalar(2) - self * y)
            k *= 2
        if not (self * y == ctx.one):
            raise ArithmeticError("Hensel inversion failed")  # defensive
        return y

    def __repr__(self):
        ctx = self.context
        if ctx.r == 1:
            return f"Zq({self.coeffs[0]} mod {ctx.base.p}^{ctx.precision})"
        return f"Zq{self.coeffs} mod {ctx.base.p}^{ctx.precision}"


class ZpElement(_PolyResidue):
    """Residue in Z/p^N: the r = 1 ring Z[x] / (x, p^N), one coefficient."""

    __slots__ = ()

    def __init__(self, context: PadicContext, residue: int):
        super().__init__(context, (residue,))

    @property
    def residue(self) -> int:
        return self.coeffs[0]

    def is_unit(self) -> bool:
        return self.residue % self.context.p != 0

    def inverse(self) -> "ZpElement":
        if not self.is_unit():
            raise ZeroDivisionError("non-unit in Z_p (residue divisible by p)")
        return self._with((pow(self.residue, -1, self.context.modulus),))

    def _coerce(self, other):
        if isinstance(other, ZpElement):
            # contexts are equal by p^N, which fixes (p, N)
            if other.context.modulus != self.context.modulus:
                raise ValueError("mixed Z_p contexts")
            return other
        if isinstance(other, int):
            return ZpElement(self.context, other)
        return NotImplemented  # a ZqElement takes a Z_p scalar itself

    def __int__(self):
        return self.residue

    def __repr__(self):
        return f"Zp({self.residue} mod {self.context.p}^{self.context.precision})"


def balanced_lift(x) -> int:
    """Symmetric representative of a scalar residue in (-m/2, m/2].

    Accepts a ZpElement or a scalar ZqElement (all higher coefficients zero);
    a non-scalar argument is an integrity failure.
    """
    return balanced_residue(*_scalar_residue(x))


def recover_bounded_integer(x, bound: int) -> int:
    """Balanced lift certified by |value| <= bound, requiring modulus > 2*bound."""
    m = x.context.modulus
    if m <= 2 * bound:
        raise ValueError(f"modulus {m} too small to certify |v| <= {bound}")
    return recover_residue(*_scalar_residue(x), bound)


def _scalar_residue(x) -> tuple[int, int]:
    """(residue, modulus) of the scalar x that balanced_lift takes."""
    if not isinstance(x, (ZpElement, ZqElement)):
        raise TypeError("balanced_lift expects a ZpElement or ZqElement")
    if any(x.coeffs[1:]):
        raise ArithmeticError(f"value is not a Z_p scalar: {x!r}")
    return x.coeffs[0], x.context.modulus


def _fractions(pairs: tuple) -> tuple[Fraction, ...]:
    return tuple(Fraction(num, den) for num, den in pairs)


class GParams(namedtuple("GParams", "upper lower t context")):
    """Parameter record (a_1..a_n; b_1..b_n; t; q) for one evaluation; the
    parameters are held as Fractions."""

    __slots__ = ()

    def __new__(cls, upper, lower, t: FqElement, context: UnramifiedContext):
        upper, lower = _checked(upper, lower, context.base.p)
        if t.context is not context.fq:
            raise ValueError("t lives in a different field than the Z_q context")
        return super().__new__(cls, _fractions(upper), _fractions(lower), t, context)

    @classmethod
    def _make(cls, iterable):
        # route _replace through __new__, so a replaced field is checked too
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.upper)


class GValue(namedtuple("GValue", "value precision")):
    """A full nGn sum reduced mod p^N."""

    __slots__ = ()


def evaluate_g(params: GParams) -> GValue:
    """The nGn sum at params.t, exactly mod p^N.

    At t = 0 every summand carries chi(0) = 0, so the value is 0.  The
    values come from the table that gfunction.value_table reads, under the
    same (num, den) key; a parameter set without the certificate builds its
    table once per Z_q context, and each call sums it at params.t.
    """
    zq = params.context
    if params.t.is_zero():
        return GValue(zq.zero, zq.precision)
    k = params.t.dlog()
    upper = tuple(c.as_integer_ratio() for c in params.upper)
    lower = tuple(c.as_integer_ratio() for c in params.lower)
    values = memo(zq, _values, upper, lower)
    if isinstance(values, _Uncertified):
        return GValue(_pointwise(values.table, zq, k), zq.precision)
    return GValue(zq.scalar(values[k]), zq.precision)


def _pointwise(table: list[int], zq: UnramifiedContext, k: int) -> ZqElement:
    """nGn at t = g^k in Z_q, sum_a c_a omega(g)^(-a k) over the scaled
    table of a parameter set without the certificate."""
    n, pows = zq.q - 1, zq.omega_generator_powers()
    acc = [0] * zq.r
    for a, c in enumerate(table):
        for i, w in enumerate(pows[-a * k % n]):
            acc[i] += c * w
    return zq.element(acc)


def evaluate_g_inverted(params: GParams) -> GValue:
    """The companion sum with upper and lower parameter roles swapped.

    Substituting a -> -a in the defining sum shows this equals evaluate_g of
    the original parameters at the inverted argument 1/t, which is what the
    inversion suite checks; t = 0 has no inverse and is rejected.
    """
    if params.t.is_zero():
        raise ValueError("inverted evaluation requires t != 0")
    swapped = GParams(params.lower, params.upper, params.t, params.context)
    return evaluate_g(swapped)
