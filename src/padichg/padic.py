"""Fixed-precision arithmetic in Z_p and its unramified degree-r extension Z_q.

Z_p at precision N is zmod.PadicContext, re-exported here.  Z_q is
represented as Z[x] / (f(x), p^N) in the power basis of the same defining
polynomial as the paired F_q context, lifted verbatim; reduction mod p
therefore intertwines the two rings coefficient-wise.  Every
Teichmuller and character value is read from one table per context, the
powers of omega(g) for the F_q generator g, indexed by discrete log, held as
coefficient tuples (finitefield.poly_powers); ZqElement is the API facade,
on the ring base it shares with FqElement (finitefield._PolyResidue).

A character sum over a whole field, sum_a c_a omega(g)^(-a k) for every k
at once and integer c_a, is a binomial-chirp correlation computed by
finitefield.correlate, O(q r^2) small-integer work plus one exact product of
two big integers.  When c[p a] = c[a] for every a, Frobenius fixes every
sum, so each lies in Z_p and the sums at k and p k agree: scalar_transform
checks this certificate, returns the sums as integers mod p^N, reads one
correlation block per Frobenius orbit of k, and takes each value as a dot
product of the unreduced block with per-context weights.  Every production
whole-field table (the nGn values, the Jacobi families, h and B) is built
this way, so a point of a field is an integer lookup.  The full Z_q
character_transform serves only evaluate_g's parameter families that fail
the certificate.  A Z_q context is a table of its F_q context, keyed by
precision, and holds its own tables (the Teichmuller powers, the packed
chirp, the weights, the nGn, h and B values) through zmod.memo.
"""

from __future__ import annotations

from operator import mul

from .finitefield import FqContext, FqElement, _PolyResidue, correlate, memo, pack
from .finitefield import poly_mulmod, poly_powers, poly_powmod, poly_reduce
from .zmod import PadicContext, ZpElement, balanced_residue, recover_residue


class EvaluationIntegrityError(ArithmeticError):
    """An internal consistency guarantee of the evaluation was violated."""


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
        self.tables: dict[tuple, object] = {}  # filled by zmod.memo

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

    def dlog(self, t: FqElement) -> int:
        """dlog of a nonzero t of this context's field, the index into the power table."""
        if t.context is not self.fq:
            raise ValueError("element from a different field context")
        return t.dlog()

    def teichmuller(self, t: FqElement) -> "ZqElement":
        """The (q-1)-th root of unity congruent to t mod p: omega(g)^(dlog t)."""
        if t.is_zero():
            raise ValueError("Teichmuller lift of 0 is undefined; use char_value")
        return ZqElement(self, self.omega_generator_powers()[self.dlog(t)])

    def char_value(self, j: int, t: FqElement) -> "ZqElement":
        """omega-bar^j(t) with the chi(0) = 0 convention (0 for t = 0, all j)."""
        if t.is_zero():
            return self.zero
        return ZqElement(self, self.omega_generator_powers()[-j * self.dlog(t) % (self.q - 1)])

    def omega_generator_powers(self) -> list[tuple[int, ...]]:
        """[omega(g)^m for m in 0..q-2] as coefficient tuples; omega(g^k) =
        omega(g)^k exactly.

        omega(g) is the limit of x -> x^q from the verbatim lift of g: each
        step gains r digits, so N + 2 steps are a safe cap.
        """
        return memo(self, _teichmuller_powers)

    def character_transform(self, coeffs) -> list["ZqElement"]:
        """[sum_a coeffs[a] * omega(g)^(-a k) for k in 0..q-2], every k at once.

        coeffs holds q-1 integers.  With a k = C(a+k, 2) - C(a, 2) - C(k, 2)
        and W = omega(g),

            T[k] = W^C(k,2) * sum_a (c_a W^C(a,2)) W^-C(a+k,2),

        one correlation of length q-1; the binomial chirp needs no square
        root of W.  finitefield.correlate computes it on power-basis vectors;
        each output block is then reduced mod (f, p^N) and multiplied by W^C(k,2).
        """
        n, m, neg = self.q - 1, self.modulus, self._neg_poly
        pows = self.omega_generator_powers()
        out = []
        for k, slots in enumerate(self._chirp_correlation(coeffs)):
            x = poly_reduce(slots, neg, m)
            post = pows[k * (k - 1) // 2 % n]
            out.append(ZqElement(self, poly_mulmod(x, post, neg, m)))
        return out

    def scalar_transform(self, coeffs) -> list[int]:
        """character_transform of a Frobenius-invariant integer table, as residues mod p^N.

        coeffs holds q-1 integers with coeffs[p a mod (q-1)] = coeffs[a] for
        every a; a table without this certificate raises
        EvaluationIntegrityError before any correlation.  Frobenius sends W^j
        to W^(p j), so it fixes every T[k], and T[p k] = T[k]: each T[k] is a Z_p
        scalar, equal to its constant coefficient, and one k per orbit of
        k -> p k mod (q-1) is read from the correlation.  The post-twiddle
        is then a dot product of the 2r-1 unreduced slots of block k with
        mu_k[s], the constant coefficient of x^s W^C(k,2) mod f; no
        polynomial is reduced per k.
        """
        m, b, n, p = self.modulus, 2 * self.r - 1, self.q - 1, self.base.p
        # a table of the wrong length is refused by _chirp_correlation
        if len(coeffs) == n and any(coeffs[p * a % n] != c for a, c in enumerate(coeffs)):
            raise EvaluationIntegrityError(
                "coefficient table fails the Frobenius certificate c[p a] = c[a]"
            )
        reps, orbit, mu = self._scalar_weights()
        blocks = self._chirp_correlation(coeffs, reps)
        values = [sum(map(mul, x, mu[i * b : i * b + b])) % m for i, x in enumerate(blocks)]
        return [values[i] for i in orbit]

    def _chirp_correlation(self, coeffs, rows=None) -> list[list[int]]:
        """The unreduced blocks sum_a (c_a W^C(a,2)) W^-C(a+k,2) of both
        transforms, for k in rows (every k by default)."""
        n, m = self.q - 1, self.modulus
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients")
        # the chirp is packed before u exists, so their peaks do not add up
        pows, chirp = self.omega_generator_powers(), memo(self, _packed_chirp)
        u = [[c * w % m for w in pows[a * (a - 1) // 2 % n]] for a, c in enumerate(coeffs)]
        return correlate(u, chirp, rows)

    def _scalar_weights(self) -> tuple:
        """(reps, orbit, mu) of scalar_transform: the least k of each Frobenius
        orbit (every k at r = 1, where each orbit is one k); the index in reps
        of the orbit of every k; and mu_k[s] for each k in reps, s in 0..2r-2,
        as one flat list."""
        return memo(self, _frobenius_weights)

    def reduce_mod_p(self, x: "ZqElement") -> FqElement:
        return FqElement(self.fq, tuple(c % self.base.p for c in x.coeffs))

    def __repr__(self):
        return f"UnramifiedContext(p={self.base.p}, r={self.r}, N={self.precision})"


def _teichmuller_powers(zq: UnramifiedContext) -> list[tuple[int, ...]]:
    m, neg, w = zq.modulus, zq._neg_poly, zq.fq.generator.coeffs
    for _ in range(zq.precision + 2):
        y = poly_powmod(w, zq.q, neg, m)
        if y == w:
            break
        w = y
    else:
        raise ArithmeticError("Teichmuller iteration failed to stabilize")
    return poly_powers(w, zq.q - 1, neg, m)


def _packed_chirp(zq: UnramifiedContext) -> tuple:
    """W^-C(j,2) for j in 0..2q-4, packed as the v of finitefield.correlate."""
    n, m = zq.q - 1, zq.modulus
    pows = zq.omega_generator_powers()
    chirp = [pows[-(j * (j - 1) // 2) % n] for j in range(2 * n - 1)]
    # a slot sums at most n * r products of residues below m
    return pack(chirp, n * zq.r * (m - 1) ** 2)


def _frobenius_weights(zq: UnramifiedContext) -> tuple:
    n, p, r, m = zq.q - 1, zq.base.p, zq.r, zq.modulus
    reps, orbit = [], [-1] * n
    for k in range(n):
        if orbit[k] < 0:
            j = k
            while orbit[j] < 0:  # p is a unit mod q-1, so the walk returns to k
                orbit[j] = len(reps)
                j = j * p % n
            reps.append(k)
    # e[t]: the constant coefficient of x^t mod f, for t in 0..3r-3
    x = poly_reduce([0, 1] + [0] * (r - 1), zq._neg_poly, m)
    e = [c[0] for c in poly_powers(x, 3 * r - 2, zq._neg_poly, m)]
    pows = zq.omega_generator_powers()
    mu = []
    for k in reps:
        post = pows[k * (k - 1) // 2 % n]
        mu += [sum(map(mul, post, e[s : s + r])) % m for s in range(2 * r - 1)]
    return reps, orbit, mu


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

    def __pow__(self, e: int) -> "ZqElement":
        if e < 0:
            return self.inverse() ** (-e)
        ctx = self.context
        return ZqElement(ctx, poly_powmod(self.coeffs, e, ctx._neg_poly, ctx.modulus))

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

    def __eq__(self, other):
        if isinstance(other, (int, ZpElement)):
            other = self.context.scalar(other)
        return super().__eq__(other)

    __hash__ = _PolyResidue.__hash__  # a class defining __eq__ must restate it

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
    return balanced_residue(*_scalar_residue(x))


def recover_bounded_integer(x, bound: int) -> int:
    """Balanced lift certified by |value| <= bound, requiring modulus > 2*bound."""
    m = x.context.modulus
    if m <= 2 * bound:
        raise ValueError(f"modulus {m} too small to certify |v| <= {bound}")
    return recover_residue(*_scalar_residue(x), bound)


def _scalar_residue(x) -> tuple[int, int]:
    """(residue, modulus) of the scalar x that balanced_lift takes."""
    if isinstance(x, ZpElement):
        return x.residue, x.context.modulus
    if not isinstance(x, ZqElement):
        raise TypeError("balanced_lift expects a ZpElement or ZqElement")
    if any(x.coeffs[1:]):
        raise ArithmeticError(f"value is not a Z_p scalar: {x!r}")
    return x.coeffs[0], x.context.modulus
