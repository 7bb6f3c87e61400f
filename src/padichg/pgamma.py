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

GammaCache.residue(num, den) is the integer point entry, Gamma_p(num/den)
mod p^N from num * den^-1 mod p^N; gamma(x) is a facade over it.  A cache
holds its tables through zmod.memo: the digit table and, per denominator d,
residues(d) = {num: Gamma_p(num/d) mod p^N}, filled as read, so it costs
what its readers read, not d.  gamma_cache shares one cache per (p, N).

check_feasible refuses, before any context is built, a (p, N) whose table
would take more than MAX_TABLE_WORK ring products.  Every value is memoized
per residue t; the memo and the tables are write-once per key and safe for
concurrent readers.
"""

from __future__ import annotations

from math import comb

from .zmod import PadicContext, ZpElement, memo

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
        if d % cache.p == 0:
            raise ValueError(f"1/{d} is not a p-adic integer for p={cache.p}")
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
        self._memo: dict[int, int] = {}

    def _unit_product(self, t: int) -> int:
        """prod_{0<j<t, p∤j} j mod p^N as prod_k Q_{k,d_k}(B_k), for 0 <= t < p^N."""
        p, m = self.p, self.modulus
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
        return acc

    def _nat_mod(self, n: int) -> int:
        """Gamma_p(n) mod p^N via the period fold t = n mod p^N.

        The fold also yields the t = 0 convention value 1 and Gamma_p(1) = -1
        with no special-casing: the unit product is empty for t <= 1.
        """
        t = n % self.modulus
        v = self._memo.get(t)
        if v is None:
            acc = self._unit_product(t)
            v = -acc % self.modulus if t % 2 else acc
            self._memo[t] = v
        return v

    def residue(self, num: int, den: int) -> int:
        """Gamma_p(num/den) mod p^N for integers num and den > 0 with p ∤ den."""
        if den % self.p == 0:
            raise ValueError(f"argument {num}/{den} is not a p-adic integer for p={self.p}")
        return self._nat_mod(num * pow(den, -1, self.modulus))

    def residues(self, d: int) -> _ResidueTable:
        """num -> Gamma_p(num/d) mod p^N for 0 <= num < d, d > 0 with p ∤ d; one per d."""
        return memo(self, _ResidueTable, d)

    def gamma(self, x) -> ZpElement:
        """Gamma_p at a rational p-adic integer (denominator coprime to p)."""
        from fractions import Fraction  # the integer suites never build one

        x = Fraction(x)
        return ZpElement(self.context, self.residue(x.numerator, x.denominator))


def gamma_cache(context: PadicContext) -> GammaCache:
    """Shared per-(p, N) cache; evaluations are pure, so sharing is safe."""
    key = (context.p, context.precision)
    cache = _caches.get(key)
    if cache is None:
        cache = GammaCache(context)
        _caches[key] = cache
    return cache
