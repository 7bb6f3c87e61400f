"""Fixed-precision arithmetic in Z_p and its unramified degree-r extension Z_q.

Z_p at precision N is zmod.PadicContext, re-exported here.  Z_q is
represented as Z[x] / (f(x), p^N) in the power basis of the same defining
polynomial as the paired F_q context, lifted verbatim; reduction mod p
therefore intertwines the two rings coefficient-wise.  Every
Teichmuller and character value is read from one table per context, the
powers of omega(g) for the F_q generator g, indexed by discrete log.

A character sum over a whole field, sum_a c_a omega(g)^(-a k) for every k
at once, is the context's character transform: a binomial-chirp correlation
computed by finitefield.correlate, O(q r^2) small-integer work plus one exact
product of two big integers.  The nGn values and the Jacobi-sum
families are built this way, so a point of a field is a lookup.  The
derived tables of a context are each filled once and never mutated.
"""

from __future__ import annotations

from .finitefield import FqContext, FqElement, correlate, pack, poly_mulmod, poly_reduce
from .zmod import PadicContext, ZpElement


class UnramifiedContext:
    """Z_q / p^N Z_q built on top of a matching F_q context."""

    def __init__(self, fq: FqContext, precision: int):
        self.fq = fq
        self.base = PadicContext(fq.p, precision)
        self.r = fq.r
        self.q = fq.q
        self.precision = precision
        self.modulus = self.base.modulus
        # defining polynomial lifted verbatim; x^r = -(c_0 + ... + c_{r-1} x^{r-1})
        self.poly = tuple(int(c) for c in fq.poly)
        self._neg_poly = tuple((-c) % self.modulus for c in self.poly)
        self.zero = ZqElement(self, (0,) * self.r)
        self.one = ZqElement(self, (1,) + (0,) * (self.r - 1))
        self._omega_pows: list[ZqElement] | None = None
        self._chirp: tuple | None = None  # the packed chirp of character_transform
        # filled on first use, indexed by dlog: nGn values by gfunction, keyed
        # by (upper, lower); h and B values by charsums, keyed by name
        self.g_values: dict[tuple, list[ZqElement]] = {}
        self.charsum_tables: dict[str, list[ZqElement]] = {}

    def element(self, coeffs) -> "ZqElement":
        coeffs = tuple(int(c) % self.modulus for c in coeffs)
        if len(coeffs) != self.r:
            raise ValueError(f"expected {self.r} coefficients")
        return ZqElement(self, coeffs)

    def scalar(self, value) -> "ZqElement":
        """Embed an integer or ZpElement as a constant vector."""
        if isinstance(value, ZpElement):
            if value.context.p != self.base.p or value.context.precision != self.precision:
                raise ValueError("Z_p scalar from a mismatched context")
            value = value.residue
        return ZqElement(self, (value % self.modulus,) + (0,) * (self.r - 1))

    def _mul(self, a: "ZqElement", b: "ZqElement") -> "ZqElement":
        return ZqElement(self, poly_mulmod(a.coeffs, b.coeffs, self._neg_poly, self.modulus))

    def dlog(self, t: FqElement) -> int:
        """dlog of a nonzero t of this context's field, the index into the power table."""
        if t.context is not self.fq:
            raise ValueError("element from a different field context")
        return t.dlog()

    def teichmuller(self, t: FqElement) -> "ZqElement":
        """The (q-1)-th root of unity congruent to t mod p: omega(g)^(dlog t)."""
        if t.is_zero():
            raise ValueError("Teichmuller lift of 0 is undefined; use char_value")
        return self.omega_generator_powers()[self.dlog(t)]

    def char_value(self, j: int, t: FqElement) -> "ZqElement":
        """omega-bar^j(t) with the chi(0) = 0 convention (0 for t = 0, all j)."""
        if t.is_zero():
            return self.zero
        return self.omega_generator_powers()[-j * self.dlog(t) % (self.q - 1)]

    def omega_generator_powers(self) -> list["ZqElement"]:
        """[omega(g)^m for m in 0..q-2]; omega(g^k) = omega(g)^k exactly.

        omega(g) is the limit of x -> x^q from the verbatim lift of g: each
        step gains r digits, so N + 2 steps are a safe cap.
        """
        if self._omega_pows is None:
            w = ZqElement(self, self.fq.generator.coeffs)
            for _ in range(self.precision + 2):
                y = w**self.q
                if y == w:
                    break
                w = y
            else:
                raise ArithmeticError("Teichmuller iteration failed to stabilize")
            pows = [self.one]
            for _ in range(self.q - 2):
                pows.append(pows[-1] * w)
            self._omega_pows = pows
        return self._omega_pows

    def character_transform(self, coeffs) -> list["ZqElement"]:
        """[sum_a coeffs[a] * omega(g)^(-a k) for k in 0..q-2], every k at once.

        coeffs holds q-1 integers or elements of this context.  With
        a k = C(a+k, 2) - C(a, 2) - C(k, 2) and W = omega(g),

            T[k] = W^C(k,2) * sum_a (c_a W^C(a,2)) W^-C(a+k,2),

        one correlation of length q-1; the binomial chirp needs no square
        root of W.  finitefield.correlate computes it on power-basis vectors;
        each output block is then reduced mod (f, p^N) and multiplied by W^C(k,2).
        """
        n, m, neg = self.q - 1, self.modulus, self._neg_poly
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients")
        pows = self.omega_generator_powers()
        if self._chirp is None:  # W^-C(j,2) for j in 0..2q-4, packed once per context
            chirp = [pows[-(j * (j - 1) // 2) % n].coeffs for j in range(2 * n - 1)]
            # a slot sums at most n * r products of residues below m
            self._chirp = pack(chirp, n * self.r * (m - 1) ** 2)
        u = []
        for a, c in enumerate(coeffs):
            w = pows[a * (a - 1) // 2 % n].coeffs
            if isinstance(c, ZqElement):
                if c.context is not self:
                    raise ValueError("mixed Z_q contexts")
                u.append(poly_mulmod(c.coeffs, w, neg, m))
            else:
                u.append([c * v % m for v in w])
        out = []
        for k, slots in enumerate(correlate(u, self._chirp)):
            x = poly_reduce(slots, neg, m)
            post = pows[k * (k - 1) // 2 % n].coeffs
            out.append(ZqElement(self, poly_mulmod(x, post, neg, m)))
        return out

    def reduce_mod_p(self, x: "ZqElement") -> FqElement:
        return FqElement(self.fq, tuple(c % self.base.p for c in x.coeffs))

    def __repr__(self):
        return f"UnramifiedContext(p={self.base.p}, r={self.r}, N={self.precision})"


class ZqElement:
    """Residue in Z_q / p^N Z_q as a coefficient vector in the power basis."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context: UnramifiedContext, coeffs: tuple[int, ...]):
        self.context = context
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        m = self.context.modulus
        return ZqElement(
            self.context, tuple((a + b) % m for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        m = self.context.modulus
        return ZqElement(self.context, tuple((-a) % m for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.context._mul(self, o)

    __rmul__ = __mul__

    def scale(self, n: int) -> "ZqElement":
        """Fast scalar multiple (used by the hot evaluation loops)."""
        m = self.context.modulus
        return ZqElement(self.context, tuple(a * n % m for a in self.coeffs))

    def __pow__(self, e: int) -> "ZqElement":
        if e < 0:
            return self.inverse() ** (-e)
        base = self
        out = self.context.one
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "ZqElement":
        """Unit inverse via Hensel lifting from the residue-field inverse."""
        ctx = self.context
        red = ctx.reduce_mod_p(self)
        if red.is_zero():
            raise ZeroDivisionError("non-unit in Z_q (reduction mod p is zero)")
        seed = red.inverse()
        y = ZqElement(ctx, tuple(int(c) for c in seed.coeffs))
        # y -> y(2 - xy) doubles the precision each round
        k = 1
        while k < ctx.precision:
            y = y * (ctx.scalar(2) - self * y)
            k *= 2
        if not (self * y == ctx.one):
            raise ArithmeticError("Hensel inversion failed")  # defensive
        return y

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, ZpElement)):
            other = self.context.scalar(other)
        return (
            isinstance(other, ZqElement)
            and self.context is other.context
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        ctx = self.context
        if ctx.r == 1:
            return f"Zq({self.coeffs[0]} mod {ctx.base.p}^{ctx.precision})"
        return f"Zq{self.coeffs} mod {ctx.base.p}^{ctx.precision}"


def balanced_lift(x) -> int:
    """Symmetric representative of a scalar residue in (-m/2, m/2].

    Accepts a ZpElement or a scalar ZqElement (all higher coefficients zero);
    a non-scalar argument is an integrity failure.
    """
    if isinstance(x, ZpElement):
        v, m = x.residue, x.context.modulus
    elif isinstance(x, ZqElement):
        if any(c != 0 for c in x.coeffs[1:]):
            raise ArithmeticError(f"value is not a Z_p scalar: {x!r}")
        v, m = x.coeffs[0], x.context.modulus
    else:
        raise TypeError("balanced_lift expects a ZpElement or ZqElement")
    return v - m if v > m // 2 else v


def recover_bounded_integer(x, bound: int) -> int:
    """Balanced lift certified by |value| <= bound, requiring modulus > 2*bound."""
    m = x.context.modulus
    if m <= 2 * bound:
        raise ValueError(f"modulus {m} too small to certify |v| <= {bound}")
    v = balanced_lift(x)
    if abs(v) > bound:
        raise ArithmeticError(f"lifted value {v} violates the stated bound {bound}")
    return v
