"""F_{p^r} with a full discrete-log table, the quadratic character, and root counting.

Contexts are deterministic: the defining polynomial is the lexicographically
smallest monic irreducible of degree r over F_p (coefficients ordered
c_0, c_1, ..., c_{r-1}), and the generator is the smallest element in
coefficient-lexicographic order of multiplicative order q - 1.  Elements are
coefficient vectors in the power basis of that polynomial; tables hold bare
tuples (powers[k] = g^k), and FqElement is the API facade, made on demand.
F_q = Z[x]/(f, p) and Z_q/p^N = Z[x]/(f, p^N) share poly_mulmod,
poly_powmod and poly_powers, and their facades FqElement and
padic.ZqElement share one ring base, _PolyResidue, which reduces mod its
context's modulus; each facade keeps its own coercions, inverse and power.

Fields are kept small on purpose (q <= 2^16): the dlog table makes every
character evaluation O(1) inside the O(q) verification sweeps.  All else
derived from a field is built on first use by memo and held in the context's
tables: the Zech-log table dlog(1 + g^d), from which the character-sum
oracles of every lambda come at once, the dlog-keyed root tables, and the
tables of the layers above.  correlate computes every whole-field
correlation, over F_q and Z_q, as one exact packed product.
"""

from __future__ import annotations

import decimal
import itertools
import sys
from decimal import Decimal
from operator import mul

from .zmod import check_field, memo

# zech_table entry at d = (q-1)/2, where 1 + g^d = 0 has no dlog
ZECH_UNDEFINED = -1


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for neg_tail in itertools.product(range(p), repeat=d):  # -tail runs over F_p^d too
            if not any(poly_reduce(list(poly), neg_tail, p)):
                return False
    return True


def smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Low-order coefficients (c_0 .. c_{r-1}) of the chosen monic polynomial."""
    for tail in itertools.product(range(p), repeat=r):
        low = list(tail)  # lex order on (c_0, ..., c_{r-1})
        if _is_irreducible(low + [1], p):
            return tuple(low)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def poly_mulmod(a: tuple, b: tuple, neg_poly: tuple, m: int) -> tuple[int, ...]:
    """a * b in (Z/m)[x] / (f) for the monic f of degree r = len(a).

    neg_poly holds -c_j mod m for f = x^r + c_{r-1} x^{r-1} + ... + c_0;
    F_q (m = p) and Z_q (m = p^N) share this product.
    """
    r = len(a)
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return poly_reduce(prod, neg_poly, m)


def poly_powmod(a: tuple, e: int, neg_poly: tuple, m: int) -> tuple[int, ...]:
    """a^e in (Z/m)[x] / (f) for e >= 0, by square-and-multiply; a^0 = 1."""
    out = (1,) + (0,) * (len(a) - 1)
    for bit in bin(e)[2:]:  # most significant first
        out = poly_mulmod(out, out, neg_poly, m)
        if bit == "1":
            out = poly_mulmod(out, a, neg_poly, m)
    return out


def poly_powers(a: tuple, count: int, neg_poly: tuple, m: int) -> list[tuple[int, ...]]:
    """[a^k in (Z/m)[x] / (f) for k in 0..count-1], for a reduced mod m.

    Multiplication by a is the fixed r x r matrix whose column j is
    a x^j mod f, so each power costs r^2 products and no reduction.
    """
    r = len(a)
    rows = list(zip(*(poly_reduce([0] * j + list(a), neg_poly, m) for j in range(r))))
    x, out = (1,) + (0,) * (r - 1), []
    for _ in range(count):
        out.append(x)
        x = tuple(sum(map(mul, row, x)) % m for row in rows)
    return out


def poly_reduce(prod: list, neg_poly: tuple, m: int) -> tuple[int, ...]:
    """prod (at least r coefficients, ascending, modified in place) mod (f, m).

    neg_poly is as in poly_mulmod; the result has r = len(neg_poly) entries.
    """
    r = len(neg_poly)
    for d in range(len(prod) - 1, r - 1, -1):
        c = prod[d] % m
        if c:
            for j, nc in enumerate(neg_poly):
                prod[d - r + j] += c * nc
    return tuple(c % m for c in prod[:r])


# integers only, so Emin never binds; Inexact and Rounded raise
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
)


def pack(blocks: list, bound: int) -> tuple[Decimal, int, int]:
    """(value, slot width, len(blocks)): blocks of r integers packed as v of correlate.

    bound is at least every |slot| of u and v and every sum of |u_i v_j| that
    a slot of the correlation receives; a slot holds w digits, 10^w > 2 bound.
    """
    width = len(str(Decimal(2 * bound)))
    return _to_decimal(blocks, width), width, len(blocks)


def correlate(u: list, v: tuple[Decimal, int, int], rows=None) -> list[list[int]]:
    """[sum_a u[a] * v[a+k] for k in rows], v packed by pack; rows defaults
    to every k in 0..len(v) - len(u), and a caller that needs only some
    blocks reads only those.

    Entries are blocks of r integer slots multiplied as polynomials, so
    out[k][s] = sum_a sum_(t+w=s) u[a][t] v[a+k][w].  Each operand is one big
    integer with 2r-1 slots per block (Kronecker substitution), signed slots
    in balanced digits (Harvey, JSC 2009), and the correlation is one exact
    decimal.Decimal product: libmpdec multiplies by number-theoretic
    transform, faster than the Karatsuba product of int.  A slot is read by
    int, or through Decimal when it is too wide for int <-> str
    (sys.get_int_max_str_digits(), 4300 digits by default from Python 3.10.7).
    """
    packed, width, count = v
    n, block = len(u), 2 * len(u[0]) - 1
    # u[a] sits in block n-1-a and v[j] in block j, so out[k] is block n-1+k
    prod = str(_EXACT.multiply(_to_decimal(u[::-1], width), packed))
    size = width * block * (n + count - 1)
    digits, sign = prod.lstrip("-").rjust(size, "0"), -1 if prod[0] == "-" else 1
    base, out = 10**width, []
    read = int if _int_str_fits(width) else (lambda s: int(Decimal(s)))
    for k in range(count - n + 1) if rows is None else rows:
        low = size - width * block * (n - 1 + k)  # the lowest slot of out[k] ends here
        slots = []
        for end in range(low, low - width * block, -width):
            # a slot read at half its base or more is negative; the one above reads 1 short
            d = read(digits[end - width : end]) + (digits[end : end + 1] >= "5")
            slots.append(sign * (d - base if digits[end - width] >= "5" else d))
        out.append(slots)
    return out


def _int_str_fits(width: int) -> bool:
    """Whether int <-> str converts numbers of width digits: the limit is
    sys.get_int_max_str_digits(), 4300 by default from Python 3.10.7; earlier
    interpreters lack the getter and have no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or width < limit


def _to_decimal(blocks: list, width: int) -> Decimal:
    """sum_j sum_t blocks[j][t] 10^(width ((2r-1) j + t)), exactly."""
    base, pad = 10**width, width * (len(blocks[0]) - 1)
    write = str if _int_str_fits(width) else (lambda x: str(Decimal(x)))
    digits, borrow = [], 0  # least significant slot first; a negative slot borrows one
    for b in blocks:
        for x in b:
            x -= borrow
            borrow = x < 0
            digits.append(write(x + base if borrow else x).zfill(width))
        digits.append(("9" if borrow else "0") * pad)
    text = "".join(reversed(digits))
    if len(text) != (width + 2 * pad) * len(blocks):
        raise ValueError("a slot exceeds the packing bound")
    value = Decimal(text)
    return _EXACT.subtract(value, Decimal("1" + "0" * len(text))) if borrow else value


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class _PolyResidue:
    """An immutable coefficient vector of (Z/m)[x] / (f), m = context.modulus.

    The ring operations shared by FqElement (m = p) and ZqElement (m = p^N);
    each reads the other operand through its own _coerce, which returns a
    residue of the same context or NotImplemented.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context, coeffs: tuple[int, ...]):
        self.context = context
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.context is other.context
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.context.modulus
        return type(self)(self.context, tuple((a + b) % m for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        m = self.context.modulus
        return type(self)(self.context, tuple((-a) % m for a in self.coeffs))

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
        return type(self)(ctx, poly_mulmod(self.coeffs, o.coeffs, ctx._neg_poly, ctx.modulus))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()


class FqElement(_PolyResidue):
    """Element of F_q as an immutable coefficient vector."""

    __slots__ = ()

    def _coerce(self, other):
        return self.context.coerce(other)  # TypeError for what F_q cannot take

    def inverse(self) -> "FqElement":
        ctx = self.context
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in F_q")
        return FqElement(ctx, ctx.powers[-ctx.dlog[self.coeffs] % (ctx.q - 1)])

    def __pow__(self, e: int) -> "FqElement":
        ctx = self.context
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("negative power of zero in F_q")
            return ctx.one if e == 0 else ctx.zero
        return FqElement(ctx, ctx.powers[ctx.dlog[self.coeffs] * e % (ctx.q - 1)])

    def dlog(self) -> int:
        """Discrete log base the context generator; undefined at zero."""
        if self.is_zero():
            raise ZeroDivisionError("dlog of zero")
        return self.context.dlog[self.coeffs]

    def __repr__(self):
        if self.context.r == 1:
            return f"Fq({self.coeffs[0]} mod {self.context.p})"
        return f"Fq{self.coeffs} over F_{self.context.p}^{self.context.r}"


class FqContext:
    """The field F_q, q = p^r, with generator and complete dlog table."""

    def __init__(self, p: int, r: int):
        check_field(p, r)
        self.p = self.modulus = p
        self.r = r
        self.q = q = p**r
        self.poly = smallest_irreducible(p, r)
        # x^r = -(c_0 + c_1 x + ... + c_{r-1} x^{r-1})
        self._neg_poly = tuple((-c) % p for c in self.poly)
        self.zero = FqElement(self, (0,) * r)
        self.one = FqElement(self, (1,) + (0,) * (r - 1))
        self.generator = self._find_generator()
        # powers[k] = g^k as a coefficient tuple, and dlog its inverse
        self.powers = poly_powers(self.generator.coeffs, q - 1, self._neg_poly, p)
        self.dlog = {c: k for k, c in enumerate(self.powers)}
        self.tables: dict[tuple, object] = {}  # filled by memo

    def _order(self, x: FqElement) -> bool:
        """True iff x has multiplicative order exactly q - 1 (no dlog table needed)."""
        n, one = self.q - 1, self.one.coeffs
        return not x.is_zero() and all(
            poly_powmod(x.coeffs, n // ell, self._neg_poly, self.p) != one
            for ell in _prime_factors(n)
        )

    def _find_generator(self) -> FqElement:
        for t in itertools.product(range(self.p), repeat=self.r):
            cand = FqElement(self, t)
            if self._order(cand):
                return cand
        raise AssertionError("no generator found")  # unreachable

    def scalar(self, n: int) -> FqElement:
        """Embed the rational integer n into the prime subfield."""
        return FqElement(self, (n % self.p,) + (0,) * (self.r - 1))

    def coerce(self, value) -> FqElement:
        if isinstance(value, FqElement):
            if value.context is not self:
                raise ValueError("element from a different field context")
            return value
        if isinstance(value, int):
            return self.scalar(value)
        if isinstance(value, tuple):
            if len(value) != self.r:
                raise ValueError(f"expected {self.r} coefficients")
            return FqElement(self, tuple(c % self.p for c in value))
        raise TypeError(f"cannot coerce {type(value).__name__} into F_q")

    def elements(self) -> list[FqElement]:
        """All q elements in coefficient-lexicographic order, built per call."""
        return [FqElement(self, t) for t in itertools.product(range(self.p), repeat=self.r)]

    def nonzero_elements(self) -> list[FqElement]:
        return self.elements()[1:]  # zero comes first

    def zech_table(self) -> list[int]:
        """zech[d] = dlog(1 + g^d) for d in 0..q-2; ZECH_UNDEFINED at d = (q-1)/2,
        where 1 + g^d = 0."""
        return memo(self, _one_plus_logs)

    def jacobi_dlog_pairs(self) -> list[tuple[int, int]]:
        """(dlog x, dlog(1-x)) for every x outside {0, 1}, built per call.

        1 - g^i = 1 + g^(i + (q-1)/2), so dlog(1 - g^i) is a Zech-table entry.
        """
        n, zech = self.q - 1, self.zech_table()
        return [(i, zech[(i + n // 2) % n]) for i in range(1, n)]

    def __repr__(self):
        return f"FqContext(p={self.p}, r={self.r})"


def _one_plus_logs(ctx: FqContext) -> list[int]:
    p, dlog = ctx.p, ctx.dlog
    return [dlog.get(((c[0] + 1) % p,) + c[1:], ZECH_UNDEFINED) for c in ctx.powers]


def quadratic_char(x: FqElement) -> int:
    """phi(x): 0 at zero, +1 on even dlog, -1 on odd dlog."""
    if x.is_zero():
        return 0
    return 1 if x.context.dlog[x.coeffs] % 2 == 0 else -1


def count_roots(coeffs) -> int:
    """Distinct roots in F_q of sum coeffs[i] * y^i; degree <= 3.

    A root is a y with P1(y) = -c_0, where P1 is the non-constant part, so the
    count is root_table(ctx, P1) at dlog(-c_0).  Coefficients are FqElements or
    ints, and the first FqElement names the field; with none, TypeError.  The
    degree cap is a documented bound, not intrinsic to the definition.  The
    zero polynomial is rejected.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("zero polynomial has no well-defined root count")
    ctx = next((c.context for c in coeffs if isinstance(c, FqElement)), None)
    if ctx is None:
        raise TypeError("count_roots needs an F_q element among the coefficients")
    coeffs = [ctx.coerce(c) for c in coeffs]
    nonzero = [i for i, c in enumerate(coeffs) if not c.is_zero()]
    if not nonzero:
        raise ValueError("zero polynomial has no well-defined root count")
    deg = nonzero[-1]
    if deg > 3:
        raise ValueError(f"degree {deg} exceeds the supported bound 3")
    value = -coeffs[0]
    return root_table(ctx, coeffs[1 : deg + 1])[-1 if value.is_zero() else value.dlog()]


def root_table(ctx: FqContext, upper) -> list[int]:
    """[#{y : P1(y) = g^d} for d in 0..q-2] + [#{y : P1(y) = 0}] for
    P1(y) = sum_{i>=1} upper[i-1] y^i (entries as ctx.coerce takes)."""
    return memo(ctx, _preimage_histogram, tuple(ctx.coerce(c).coeffs for c in upper))


def _preimage_histogram(ctx: FqContext, upper: tuple) -> list[int]:
    """root_table by Zech logs: at y = g^j, P1(y) sums the g^(dlog c_i + i j),
    and g^a + g^b = g^(a + zech[b-a])."""
    n, zech = ctx.q - 1, ctx.zech_table()
    terms = [(i, ctx.dlog[c]) for i, c in enumerate(upper, 1) if any(c)]
    hist = [0] * n + [1]  # y = 0
    for j in range(n):
        acc = -1  # dlog of the partial sum; -1, the zero slot, while it is 0
        for i, d in terms:
            e = (d + i * j) % n
            if acc < 0:
                acc = e
            else:
                z = zech[(e - acc) % n]
                acc = -1 if z == ZECH_UNDEFINED else (acc + z) % n
        hist[acc] += 1
    return hist


def discriminant_sign_check(x: FqElement) -> int:
    """phi(3x(1-x)), the quadratic class of the relevant cubic discriminant."""
    ctx = x.context
    return quadratic_char(ctx.scalar(3) * x * (ctx.one - x))
