"""F_{p^r} with a full discrete-log table, the quadratic character, and root counting.

Contexts are deterministic: the defining polynomial is the lexicographically
smallest monic irreducible of degree r over F_p (coefficients ordered
c_0, c_1, ..., c_{r-1}), and the generator is the smallest element in
coefficient-lexicographic order of multiplicative order q - 1.  Elements are
coefficient vectors in the power basis of that polynomial.

Fields are kept small on purpose (q <= 2^16): the dlog table makes every
character evaluation O(1) inside the O(q^2) verification loops.  Each context
also owns the integer Zech-log table dlog(1 + g^d), from which the
character-sum oracles of every lambda are built at once, and the preimage
histograms that answer root counts by lookup; both are built lazily, once
per context.
"""

from __future__ import annotations

import itertools

MAX_Q = 1 << 16
# zech_table entry at d = (q-1)/2, where 1 + g^d = 0 has no dlog
ZECH_UNDEFINED = -1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den over F_p (den's leading coeff must be 1)."""
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) - 1 >= d:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - d
            for j, c in enumerate(den):
                num[shift + j] = (num[shift + j] - lead * c) % p
        num.pop()
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if all(c == 0 for c in _poly_mod(poly, divisor, p)):
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


def poly_reduce(prod: list, neg_poly: tuple, m: int) -> tuple[int, ...]:
    """prod (2r-1 coefficients, ascending, modified in place) mod (f, m).

    neg_poly is as in poly_mulmod; the result has r = len(neg_poly) entries.
    """
    r = len(neg_poly)
    for d in range(len(prod) - 1, r - 1, -1):
        c = prod[d] % m
        if c:
            for j, nc in enumerate(neg_poly):
                prod[d - r + j] += c * nc
    return tuple(c % m for c in prod[:r])


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


class FqElement:
    """Element of F_q as an immutable coefficient vector."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context: "FqContext", coeffs: tuple[int, ...]):
        self.context = context
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqElement)
            and self.context is other.context
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self.context.coerce(other)
        p = self.context.p
        return FqElement(
            self.context,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.context.p
        return FqElement(self.context, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self.context.coerce(other))

    def __rsub__(self, other):
        return self.context.coerce(other) - self

    def __mul__(self, other):
        other = self.context.coerce(other)
        return self.context._mul(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "FqElement":
        ctx = self.context
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in F_q")
        k = ctx.dlog[self.coeffs]
        return ctx.exp_table[(ctx.q - 1 - k) % (ctx.q - 1)]

    def __truediv__(self, other):
        return self * self.context.coerce(other).inverse()

    def __pow__(self, e: int) -> "FqElement":
        ctx = self.context
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("negative power of zero in F_q")
            return ctx.one if e == 0 else ctx.zero
        k = ctx.dlog[self.coeffs]
        return ctx.exp_table[(k * e) % (ctx.q - 1)]

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
        if not is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if r < 1:
            raise ValueError("r must be >= 1")
        q = p**r
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds the supported bound {MAX_Q}")
        self.p = p
        self.r = r
        self.q = q
        self.poly = smallest_irreducible(p, r)
        # x^r = -(c_0 + c_1 x + ... + c_{r-1} x^{r-1})
        self._neg_poly = tuple((-c) % p for c in self.poly)
        self.zero = FqElement(self, (0,) * r)
        self.one = FqElement(self, (1,) + (0,) * (r - 1))
        self.generator = self._find_generator()
        self.exp_table: list[FqElement] = []
        self.dlog: dict[tuple[int, ...], int] = {}
        g = self.one
        for k in range(q - 1):
            self.exp_table.append(g)
            self.dlog[g.coeffs] = k
            g = self._mul(g, self.generator)
        self._elements = [
            FqElement(self, t) for t in itertools.product(range(p), repeat=r)
        ]
        self._zech: list[int] | None = None
        self._jacobi_pairs: list[tuple[int, int]] | None = None
        # whole-field oracle tables, filled by charsums (A, a) and count_roots
        self.charsum_tables: dict[str, list[int]] = {}
        self.root_histograms: dict[tuple, dict[tuple[int, ...], int]] = {}

    def _mul(self, a: FqElement, b: FqElement) -> FqElement:
        return FqElement(self, poly_mulmod(a.coeffs, b.coeffs, self._neg_poly, self.p))

    def _order(self, x: FqElement) -> bool:
        """True iff x has multiplicative order exactly q - 1."""
        n = self.q - 1
        if x.is_zero():
            return False
        for ell in _prime_factors(n):
            y = self.one
            e = n // ell
            base = x
            while e:  # square-and-multiply without the dlog table
                if e & 1:
                    y = self._mul(y, base)
                base = self._mul(base, base)
                e >>= 1
            if y == self.one:
                return False
        return True

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
        """All q elements in coefficient-lexicographic order."""
        return self._elements

    def nonzero_elements(self) -> list[FqElement]:
        return [x for x in self._elements if not x.is_zero()]

    def zech_table(self) -> list[int]:
        """zech[d] = dlog(1 + g^d) for d in 0..q-2; ZECH_UNDEFINED at d = (q-1)/2,
        where 1 + g^d = 0.  Cached."""
        if self._zech is None:
            p, dlog = self.p, self.dlog
            zech = []
            for x in self.exp_table:
                c = x.coeffs
                shifted = ((c[0] + 1) % p,) + c[1:]
                zech.append(dlog.get(shifted, ZECH_UNDEFINED))
            self._zech = zech
        return self._zech

    def jacobi_dlog_pairs(self) -> list[tuple[int, int]]:
        """(dlog x, dlog(1-x)) for every x outside {0, 1}; cached.

        1 - g^i = 1 + g^(i + (q-1)/2), so dlog(1 - g^i) is a Zech-table entry.
        """
        if self._jacobi_pairs is None:
            n = self.q - 1
            zech = self.zech_table()
            self._jacobi_pairs = [(i, zech[(i + n // 2) % n]) for i in range(1, n)]
        return self._jacobi_pairs

    def __repr__(self):
        return f"FqContext(p={self.p}, r={self.r})"


def make_fq(p: int, r: int) -> FqContext:
    """Deterministic F_{p^r} context (see module docstring for the choices)."""
    return FqContext(p, r)


def quadratic_char(x: FqElement) -> int:
    """phi(x): 0 at zero, +1 on even dlog, -1 on odd dlog."""
    if x.is_zero():
        return 0
    return 1 if x.context.dlog[x.coeffs] % 2 == 0 else -1


def delta(j: int) -> int:
    """1 on the trivial character index, 0 otherwise (0 <= j <= q-2)."""
    return 1 if j == 0 else 0


def count_roots(coeffs) -> int:
    """Distinct roots in F_q of sum coeffs[i] * y^i; degree <= 3.

    A root is a y with P1(y) = -c_0, where P1 is the non-constant part, so
    the count is read from the preimage histogram of P1 over F_q.  That
    histogram is built once per context and P1 (O(q) field operations), then
    every constant term is a lookup.  The degree cap is a documented bound,
    not intrinsic to the definition.  The zero polynomial is rejected.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("zero polynomial has no well-defined root count")
    ctx = coeffs[0].context
    coeffs = [ctx.coerce(c) for c in coeffs]
    nonzero = [i for i, c in enumerate(coeffs) if not c.is_zero()]
    if not nonzero:
        raise ValueError("zero polynomial has no well-defined root count")
    deg = nonzero[-1]
    if deg > 3:
        raise ValueError(f"degree {deg} exceeds the supported bound 3")
    key = tuple(c.coeffs for c in coeffs[1 : deg + 1])
    hist = ctx.root_histograms.get(key)
    if hist is None:
        hist = _preimage_histogram(ctx, coeffs[1 : deg + 1])
        ctx.root_histograms[key] = hist
    return hist.get((-coeffs[0]).coeffs, 0)


def _preimage_histogram(ctx: FqContext, upper: list[FqElement]) -> dict[tuple[int, ...], int]:
    """value -> #{y : sum_{i>=1} upper[i-1] y^i = value}, over all y in F_q."""
    hist: dict[tuple[int, ...], int] = {}
    for y in ctx.elements():
        acc = ctx.zero
        for c in reversed(upper):
            acc = (acc + c) * y
        hist[acc.coeffs] = hist.get(acc.coeffs, 0) + 1
    return hist


def discriminant_sign_check(x: FqElement) -> int:
    """phi(3x(1-x)), the quadratic class of the relevant cubic discriminant."""
    ctx = x.context
    return quadratic_char(ctx.scalar(3) * x * (ctx.one - x))
