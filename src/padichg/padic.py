"""Fixed-precision arithmetic in Z_p and its unramified degree-r extension Z_q.

Z_p at precision N is zmod.PadicContext, re-exported here.  Z_q is
represented as Z[x] / (f(x), p^N) in the power basis of the same defining
polynomial as the paired F_q context, lifted verbatim; reduction mod p
therefore intertwines the two rings coefficient-wise.  Every
Teichmuller and character value is read from one table per context, the
powers of omega(g) for the F_q generator g, indexed by discrete log, held as
coefficient tuples (finitefield.poly_powers).  The element facade
ZqElement lives in padichg.elements; the context builds one on demand.

The character transform of an integer table c_a, a in 0..q-2, is

    T[k] = sum_a c_a omega(g)^(-a k)    for every k in 0..q-2 at once,

a binomial-chirp correlation computed by finitefield.correlate, O(q r^2)
small-integer work plus one exact product of two big integers of q-1 blocks
each: W^(-C(j,2)) changes sign when j moves by q-1, so the chirp is packed
for j < q-1 and the correlation is negacyclic.  When
c[p a] = c[a] for every a, Frobenius fixes every T[k], so each lies in Z_p
and T[k] = T[p k]: scalar_transform checks this certificate, returns the
sums as integers mod p^N, reads one correlation block per Frobenius orbit of
k, and takes each value as a dot product of the unreduced block with
per-context weights.  It is the one whole-field transform: every production
table (the nGn values, the Jacobi families, h and B) has the certificate, so
a point of a field is an integer lookup.  A Z_q context is a table of its
F_q context, keyed by precision, and holds its own tables (the Teichmuller
powers, the packed chirp, the weights, the nGn, h and B values) through
zmod.memo.
"""

from operator import mul

from .finitefield import FqContext, correlate, memo, pack, poly_powers, poly_powmod, poly_reduce
from .zmod import PadicContext


class EvaluationIntegrityError(ArithmeticError):
    """An internal consistency guarantee of the evaluation was violated."""


class UnramifiedContext:
    """Z_q / p^N Z_q built on top of a matching F_q context.

    The tables hold integers and coefficient tuples; zero, one, element,
    scalar, teichmuller and reduce_mod_p build the facades of
    padichg.elements on demand.
    """

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
        self.tables: dict[tuple, object] = {}  # filled by zmod.memo

    @property
    def zero(self) -> "ZqElement":
        return self.scalar(0)

    @property
    def one(self) -> "ZqElement":
        return self.scalar(1)

    def element(self, coeffs) -> "ZqElement":
        from .elements import ZqElement

        x = ZqElement(self, coeffs)
        if len(x.coeffs) != self.r:
            raise ValueError(f"expected {self.r} coefficients")
        return x

    def scalar(self, value) -> "ZqElement":
        """Embed an integer or ZpElement as a constant vector."""
        from .elements import ZpElement, ZqElement

        if isinstance(value, ZpElement):
            if value.context.p != self.base.p or value.context.precision != self.precision:
                raise ValueError("Z_p scalar from a mismatched context")
            value = value.residue
        return ZqElement(self, (value,) + (0,) * (self.r - 1))

    def dlog(self, t: "FqElement") -> int:
        """dlog of a nonzero t of this context's field, the index into the power table."""
        if t.context is not self.fq:
            raise ValueError("element from a different field context")
        return t.dlog()

    def teichmuller(self, t: "FqElement") -> "ZqElement":
        """The (q-1)-th root of unity congruent to t mod p: omega(g)^(dlog t)."""
        from .elements import ZqElement

        if t.is_zero():
            raise ValueError("Teichmuller lift of 0 is undefined")
        return ZqElement(self, self.omega_generator_powers()[self.dlog(t)])

    def omega_generator_powers(self) -> list[tuple[int, ...]]:
        """[omega(g)^m for m in 0..q-2] as coefficient tuples; omega(g^k) =
        omega(g)^k exactly.

        omega(g) is the limit of x -> x^q from the verbatim lift of g: each
        step gains r digits, so N + 2 steps are a safe cap.
        """
        return memo(self, _teichmuller_powers)

    def scalar_transform(self, coeffs) -> list[int]:
        """[sum_a coeffs[a] * omega(g)^(-a k) mod p^N for k in 0..q-2], the
        character transform of a Frobenius-invariant integer table.

        coeffs holds q-1 integers with coeffs[p a mod (q-1)] = coeffs[a] for
        every a; a table without this certificate raises
        EvaluationIntegrityError before any correlation.  With
        a k = C(a+k, 2) - C(a, 2) - C(k, 2) and W = omega(g),

            T[k] = W^C(k,2) * sum_a (c_a W^C(a,2)) W^-C(a+k,2),

        one negacyclic correlation of length q-1; the binomial chirp needs no
        square root of W.  Frobenius sends W^j to W^(p j), so it fixes every T[k],
        and T[p k] = T[k]: each T[k] is a Z_p scalar, equal to its constant
        coefficient, and one k per orbit of k -> p k mod (q-1) is read from
        the correlation.  The post-twiddle W^C(k,2) is then a dot product of
        the 2r-1 unreduced slots of block k with mu_k[s], the constant
        coefficient of x^s W^C(k,2) mod f; no polynomial is reduced per k.
        """
        m, b, n, p = self.modulus, 2 * self.r - 1, self.q - 1, self.base.p
        # a table of the wrong length is refused by _chirp_correlation
        if len(coeffs) == n and any(coeffs[p * a % n] != c for a, c in enumerate(coeffs)):
            raise EvaluationIntegrityError(
                "coefficient table fails the Frobenius certificate c[p a] = c[a]"
            )
        reps, orbit, mu = memo(self, _frobenius_weights)
        blocks = self._chirp_correlation(coeffs, reps)
        values = [sum(map(mul, x, mu[i * b : i * b + b])) % m for i, x in enumerate(blocks)]
        return [values[i] for i in orbit]

    def _chirp_correlation(self, coeffs, rows=None) -> list[list[int]]:
        """The unreduced blocks sum_a (c_a W^C(a,2)) W^-C(a+k,2) of
        scalar_transform, for k in rows (every k by default)."""
        n, m = self.q - 1, self.modulus
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients")
        # the chirp is packed before u exists, so their peaks do not add up
        pows, chirp = self.omega_generator_powers(), memo(self, _packed_chirp)
        u = [[c * w % m for w in pows[a * (a - 1) // 2 % n]] for a, c in enumerate(coeffs)]
        return correlate(u, chirp, -1, rows)

    def reduce_mod_p(self, x: "ZqElement") -> "FqElement":
        from .elements import FqElement

        return FqElement(self.fq, tuple(c % self.base.p for c in x.coeffs))

    def __repr__(self):
        return f"UnramifiedContext(p={self.base.p}, r={self.r}, N={self.precision})"


def _teichmuller_powers(zq: UnramifiedContext) -> list[tuple[int, ...]]:
    m, neg, w = zq.modulus, zq._neg_poly, zq.fq._generator
    for _ in range(zq.precision + 2):
        y = poly_powmod(w, zq.q, neg, m)
        if y == w:
            break
        w = y
    else:
        raise ArithmeticError("Teichmuller iteration failed to stabilize")
    return poly_powers(w, zq.q - 1, neg, m)


def _packed_chirp(zq: UnramifiedContext) -> tuple:
    """W^-C(j,2) for j in 0..q-2, packed as the v of finitefield.correlate
    with wrap = -1: n = q-1 is even, so C(j+n,2) = C(j,2) + j n + C(n,2) with
    C(n,2) = n/2 mod n, and W^(n/2) = -1 gives W^-C(j+n,2) = -W^-C(j,2)."""
    n, m = zq.q - 1, zq.modulus
    pows = zq.omega_generator_powers()
    chirp = [pows[-(j * (j - 1) // 2) % n] for j in range(n)]
    # a slot sums at most n * r products of residues below m
    return pack(chirp, n * zq.r * (m - 1) ** 2)


def _frobenius_weights(zq: UnramifiedContext) -> tuple:
    """(reps, orbit, mu) of scalar_transform: the least k of each Frobenius
    orbit (every k at r = 1, where each orbit is one k); the index in reps of
    the orbit of every k; and mu_k[s] for each k in reps, s in 0..2r-2, as
    one flat list."""
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
