"""Morita's p-adic gamma function on Z_p ∩ Q at fixed precision.

For a positive integer n, Gamma_p(n) = (-1)^n * prod_{0<j<n, p∤j} j, with
Gamma_p(0) = 1, extended to Z_p by continuity.  Two exact facts reduce every
evaluation to a unit product over [0, t) with 0 <= t < p^N:

* the product of the units in any block [k*p^N, (k+1)*p^N) is ≡ -1 mod p^N
  (generalized Wilson theorem, odd p), and the parity bookkeeping cancels,
  so Gamma_p(n) mod p^N depends only on n mod p^N;
* a rational x with denominator coprime to p has a canonical residue
  mod p^N, so Gamma_p(x) mod p^N is Gamma_p of that residue.

Digit table.  Write t = sum_k d_k p^k in base p and B_k = sum_{i>k} d_i p^i.
The units in [B_k, B_k + d_k p^k) are Q_{k,d_k}(B_k), where

    Q_{0,d}(X) = prod_{0<c<d} (X + c)              mod X^N,
    Q_{k,d}(X) = prod_{c<d} Q_{k-1,p}(X + c p^k)   mod X^ceil(N/(k+1)),

so the unit product below t is prod_k Q_{k,d_k}(B_k) mod p^N.  The
truncations are exact because p^(k+1) divides B_k, and each Q_{k-1,p} is
met only at arguments divisible by p^k.  The shifts are integer Taylor
shifts, so nothing is divided and one method serves every (p, N).  The table
of all Q_{k,d} with d < p is built once per cache, in about p*N^2 ring
products; a fresh argument then costs sum_k ceil(N/(k+1)) Horner steps.

A cache holds its tables through zmod.memo: the digit table and, per
denominator d, residues(d) = {num: Gamma_p(num/d) mod p^N}, filled as read,
so it costs what its readers read, not d.  These residue tables are the only
store of Gamma_p values; gamma(x) evaluates one rational point unstored,
as a ZpElement of padichg.elements.  gamma_cache shares one cache per (p, N).

check_feasible refuses, before any context is built, a (p, N) whose table
would take more than MAX_TABLE_WORK ring products.  The tables are
write-once per key and safe for concurrent readers.
"""

from math import comb

from .zmod import PadicContext, memo, ratio

# Bound on p*N^2, the ring products of one digit table.  Near the bound a
# build took 1.3-3.1 s and 5-60 MB on one core (from (3, 816) to (65521, 5);
# Python 3.11, shared 2-vCPU machine).  Every default precision at q <= 2^16 lies
# below it; the largest, clausen at p = 65521 with N = 5, is 1.6e6.
MAX_TABLE_WORK = 2 * 10**6

_caches: dict[tuple[int, int], "GammaCache"] = {}


class InfeasibleError(ValueError):
    """Gamma_p mod p^N at this (p, N) would need a digit table of more than
    MAX_TABLE_WORK ring products."""


def check_feasible(p: int, precision: int) -> None:
    """Raise InfeasibleError if the Gamma_p table mod p^precision is too costly."""
    if p * precision * precision > MAX_TABLE_WORK:
        raise InfeasibleError(
            f"Gamma_p mod {p}^{precision} needs a digit table of about {p}*{precision}^2"
            f" ring products (more than {MAX_TABLE_WORK})"
        )


def _digit_table(cache: "GammaCache") -> list[list[tuple[int, ...]]]:
    """table[k][d]: coefficients of Q_{k,d}(X) mod (X^ceil(n/(k+1)), m), ascending, d < p."""
    p, n, m = cache.p, cache.context.precision, cache.modulus
    poly = [1] + [0] * (n - 1)
    row = [tuple(poly)]
    for c in range(1, p):
        row.append(tuple(poly))
        for i in range(n - 1, 0, -1):
            poly[i] = (poly[i] * c + poly[i - 1]) % m
        poly[0] = poly[0] * c % m
    table = [row]
    for k in range(1, n):
        size = -(-n // (k + 1))
        # poly is Q_{k-1,p}; coefficient j of Q_{k-1,p}(X + a) is sum_e weights[j][e] a^e
        weights = [[poly[i] * comb(i, j) % m for i in range(j, len(poly))] for j in range(size)]
        step = p**k
        poly = [1] + [0] * (size - 1)
        row = []
        for c in range(p):
            row.append(tuple(poly))
            a = c * step
            shifted = []
            for w in weights:
                v = 0
                for coeff in reversed(w):
                    v = (v * a + coeff) % m
                shifted.append(v)
            poly = [sum(poly[j] * shifted[i - j] for j in range(i + 1)) % m for i in range(size)]
        table.append(row)
    return table


class _ResidueTable(dict):
    """num -> Gamma_p(num/d) mod p^N, each value computed on its first read."""

    def __init__(self, cache: "GammaCache", d: int):
        ratio((1, d), "Gamma_p denominator", cache.p)
        self.cache, self.inverse = cache, pow(d, -1, cache.modulus)

    def __missing__(self, num: int) -> int:
        return self.setdefault(num, self.cache._nat_mod(num * self.inverse))


class GammaCache:
    """Gamma_p evaluator bound to one PadicContext."""

    # read only by bench/tracing.py, which names its spans by (p, N, guard);
    # ROADMAP item 5 removes it with that tracer
    guard = 1

    def __init__(self, context: PadicContext):
        check_feasible(context.p, context.precision)
        self.context = context
        self.p = context.p
        self.modulus = context.modulus
        self.tables: dict[tuple, object] = {}  # filled by memo

    def _nat_mod(self, n: int) -> int:
        """Gamma_p(n) mod p^N via the period fold t = n mod p^N: (-1)^t times the
        unit product prod_{0<j<t, p∤j} j, taken as prod_k Q_{k,d_k}(B_k).

        The fold also yields the t = 0 convention value 1 and Gamma_p(1) = -1
        with no special-casing: the unit product is empty for t <= 1.
        """
        p, m = self.p, self.modulus
        t = n % m
        acc, scale, high = 1, 1, t
        for row in memo(self, _digit_table):
            if not high:
                break
            high, d = divmod(high, p)
            scale *= p
            if d:
                x = high * scale  # B_k < p^N
                v = 0
                for c in reversed(row[d]):
                    v = (v * x + c) % m
                acc = acc * v % m
        return -acc % m if t % 2 else acc

    def residues(self, d: int) -> _ResidueTable:
        """num -> Gamma_p(num/d) mod p^N for 0 <= num < d, d > 0 with p ∤ d; one per d."""
        return memo(self, _ResidueTable, d)

    def gamma(self, x) -> "ZpElement":
        """Gamma_p at a rational p-adic integer x: a (num, den) pair of ints,
        an int, a Fraction, or a str or Decimal, read by zmod.ratio, which
        refuses a float with TypeError and a den divisible by p with
        ValueError."""
        from .elements import ZpElement

        num, den = ratio(x, "Gamma_p argument", self.p)
        n = num * pow(den, -1, self.modulus)
        return ZpElement(self.context, self._nat_mod(n))


def gamma_cache(context: PadicContext) -> GammaCache:
    """Shared per-(p, N) cache; evaluations are pure, so sharing is safe."""
    key = (context.p, context.precision)
    cache = _caches.get(key)
    if cache is None:
        cache = GammaCache(context)
        _caches[key] = cache
    return cache
