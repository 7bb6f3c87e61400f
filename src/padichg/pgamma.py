"""Morita's p-adic gamma function on Z_p ∩ Q at fixed precision.

For a positive integer n, Gamma_p(n) = (-1)^n * prod_{0<j<n, p∤j} j, with
Gamma_p(0) = 1, extended to Z_p by continuity.  Two exact facts reduce every
evaluation to a unit product over [0, t) with 0 <= t < p^N:

* the product of the units in any block [k*p^N, (k+1)*p^N) is ≡ -1 mod p^N
  (generalized Wilson theorem, odd p), and the parity bookkeeping cancels,
  so Gamma_p(n) mod p^N depends only on n mod p^N;
* a rational x with denominator coprime to p has a canonical residue
  mod p^{N+guard}, and folding that residue mod p^N is therefore exact.

Block-log method (N <= p-2).  Write t = K*p + s with 0 <= s < p and let
F(X) = prod_{j=1}^{p-1} (X + j) mod X^N.  The units below K*p are
prod_{k<K} F(kp), and

    prod_{k<K} F(kp) = F(0)^K * exp(sum_{e=1}^{N-1} L_e p^e S_e(K))  mod p^N,

where L_e are the coefficients of log(F(X)/F(0)) and S_e(K) = sum_{k<K} k^e
is Faulhaber's polynomial (exact Bernoulli numbers).  For N <= p-2 every
divisor met on the way (e, e+1, j!, the Bernoulli denominators) is below p,
so all of it reduces exactly to Z/p^N, and the exponential series stops at
j = N-1.  The sum collapses to one polynomial E(K) of degree N, built once
per cache in O(pN + N^2); a fresh argument then costs O(N) for E(K) and its
exponential plus O(s) for the partial block prod_{j=1}^{s-1} (Kp + j).

Prefix fallback (N > p-2, so p <= N+1 and p^N is small).  One O(p^N) pass
stores a checkpoint every _BLOCK integers; a fresh argument costs O(_BLOCK).
The pass is refused up front (InfeasibleError, from check_feasible) when
p^N exceeds MAX_PREFIX_MODULUS, so such a job fails fast instead of hanging.

Every value is memoized per residue t; the memo is write-once per key and
safe for concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .padic import PadicContext, ZpElement

_BLOCK = 128

# Largest p^N the prefix fallback may scan: about 1.3 s at ~8M steps/s and
# p^N / _BLOCK ≈ 80k checkpoints.
MAX_PREFIX_MODULUS = 10**7

_caches: dict[tuple[int, int, int], "GammaCache"] = {}


class InfeasibleError(ValueError):
    """Gamma_p mod p^N at this (p, N) would need a prefix pass over more than
    MAX_PREFIX_MODULUS integers."""


def uses_prefix(p: int, precision: int) -> bool:
    """True where the block-log method does not apply (N > p-2)."""
    return precision > p - 2


def check_feasible(p: int, precision: int) -> None:
    """Raise InfeasibleError if Gamma_p mod p^precision needs too long a prefix pass.

    Never computes a large power: p^N >= 2^N exceeds the bound as soon as N
    reaches its bit length.
    """
    if uses_prefix(p, precision) and (
        precision >= MAX_PREFIX_MODULUS.bit_length() or p**precision > MAX_PREFIX_MODULUS
    ):
        raise InfeasibleError(
            f"Gamma_p mod {p}^{precision} needs a prefix pass over {p}^{precision} integers"
            f" (more than {MAX_PREFIX_MODULUS}); the block-log method needs N <= p-2"
        )


def _bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def _block_log_table(p: int, n: int, m: int) -> tuple[int, list[int], list[int]]:
    """(F(0), coefficients of E(K) in ascending degree, 1/j! for j < n), all mod m = p^n."""
    f = [1] + [0] * (n - 1)
    for j in range(1, p):
        for i in range(n - 1, 0, -1):
            f[i] = (f[i] * j + f[i - 1]) % m
        f[0] = f[0] * j % m
    # h = F'/F as a power series; L_e = h_{e-1} / e
    inv_f0 = pow(f[0], -1, m)
    h: list[int] = []
    for i in range(n - 1):
        acc = (i + 1) * f[i + 1] - sum(f[k] * h[i - k] for k in range(1, i + 1))
        h.append(acc * inv_f0 % m)
    bern = _bernoulli(n)
    poly = [0] * (n + 1)
    for e in range(1, n):
        weight = h[e - 1] * pow(e, -1, m) * p**e % m
        # S_e(K) = 1/(e+1) sum_{j<=e} C(e+1, j) B_j K^{e+1-j}
        for j in range(e + 1):
            c = comb(e + 1, j) * bern[j] / (e + 1)
            poly[e + 1 - j] += weight * c.numerator * pow(c.denominator, -1, m)
    inv_fact = [1]
    for j in range(1, n):
        inv_fact.append(inv_fact[-1] * pow(j, -1, m) % m)
    return f[0], [c % m for c in poly], inv_fact


class GammaCache:
    """Gamma_p evaluator bound to one PadicContext."""

    def __init__(self, context: PadicContext, guard: int = 1):
        if guard < 1:
            raise ValueError("guard must be >= 1")
        check_feasible(context.p, context.precision)
        self.context = context
        self.guard = guard
        self.p = context.p
        self.modulus = context.modulus
        self._prefix: list[int] | None = None
        self._block: tuple[int, list[int], list[int]] | None = None
        self._memo: dict[int, int] = {}

    def _checkpoints(self) -> list[int]:
        if self._prefix is None:
            p, m = self.p, self.modulus
            prefix = [1]
            acc = 1
            for j in range(1, m):
                if j % p:
                    acc = acc * j % m
                if j % _BLOCK == _BLOCK - 1:
                    prefix.append(acc)
            self._prefix = prefix
        return self._prefix

    def _prefix_product(self, t: int) -> int:
        """prod_{0<j<t, p∤j} j mod p^N from the nearest checkpoint."""
        k = t // _BLOCK
        acc = self._checkpoints()[k]
        for j in range(k * _BLOCK, t):
            if j % self.p:
                acc = acc * j % self.modulus
        return acc

    def _block_product(self, t: int) -> int:
        """prod_{0<j<t, p∤j} j mod p^N as F(0)^K * exp(E(K)) * prod_{0<j<s} (Kp + j)."""
        p, m = self.p, self.modulus
        if self._block is None:
            self._block = _block_log_table(p, self.context.precision, m)
        f0, poly, inv_fact = self._block
        big_k, s = divmod(t, p)
        e = 0
        for c in reversed(poly):
            e = (e * big_k + c) % m
        acc = 0
        for c in reversed(inv_fact):
            acc = (acc * e + c) % m
        acc = acc * pow(f0, big_k, m) % m
        base = big_k * p
        for j in range(1, s):
            acc = acc * (base + j) % m
        return acc

    def _nat_mod(self, n: int) -> int:
        """Gamma_p(n) mod p^N via the period fold t = n mod p^N.

        The fold also yields the t = 0 convention value 1 and Gamma_p(1) = -1
        with no special-casing: the unit product is empty for t <= 1.
        """
        t = n % self.modulus
        v = self._memo.get(t)
        if v is None:
            if uses_prefix(self.p, self.context.precision):
                acc = self._prefix_product(t)
            else:
                acc = self._block_product(t)
            v = -acc % self.modulus if t % 2 else acc
            self._memo[t] = v
        return v

    def gamma_nat(self, n: int) -> ZpElement:
        """Gamma_p at a non-negative integer, by the defining product."""
        if n < 0:
            raise ValueError("gamma_nat requires n >= 0")
        return ZpElement(self.context, self._nat_mod(n))

    def gamma(self, x) -> ZpElement:
        """Gamma_p at a rational p-adic integer (denominator coprime to p)."""
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise ValueError(f"argument {x} is not a p-adic integer for p={self.p}")
        big = self.p ** (self.context.precision + self.guard)
        rep = x.numerator * pow(x.denominator, -1, big) % big
        return ZpElement(self.context, self._nat_mod(rep))


def gamma_cache(context: PadicContext, guard: int = 1) -> GammaCache:
    """Shared per-(p, N, guard) cache; evaluations are pure, so sharing is safe."""
    key = (context.p, context.precision, guard)
    cache = _caches.get(key)
    if cache is None:
        cache = GammaCache(context, guard)
        _caches[key] = cache
    return cache


def gamma_p_nat(n: int, context: PadicContext) -> ZpElement:
    return gamma_cache(context).gamma_nat(n)


def gamma_p(x, context: PadicContext) -> ZpElement:
    return gamma_cache(context).gamma(x)
