"""Evaluator for McCarthy's p-adic hypergeometric function nGn[...]_q.

For parameters a_1..a_n, b_1..b_n in Q ∩ Z_p and t in F_q,

    nGn[a; b | t]_q = -1/(q-1) * sum_{a=0}^{q-2} (-1)^{a n} omega-bar^a(t)
        * prod_{k<=n} prod_{i<r} (-p)^{e(a_k,b_k,a,i)}
          * Gamma_p(<(a_k - a/(q-1)) p^i>) / Gamma_p(<a_k p^i>)
          * Gamma_p(<(-b_k + a/(q-1)) p^i>) / Gamma_p(<-b_k p^i>)

with e the floor exponent from rational.g_exponent.  Everything except
omega-bar^a(t) is a Z_p scalar independent of t, so the a-indexed coefficient
table is computed once per (upper, lower, q, N) and reused across the whole
sweep over t; the (-1)^{a n} sign is applied as a literal integer sign.  With
k = dlog t, omega-bar^a(t) is entry -a k mod (q-1) of the context's omega(g)
power table, so one point costs q-1 integer multiply-adds per coordinate.

Individual (k, i) factors can carry a negative floor exponent (the b_k = 1/2
families do at a = (q-1)/2), but the exponents summed over one term always
cancel to a non-negative total for the families in scope; a negative total
would demand a power of 1/p that does not exist in the quotient ring, so it
aborts the evaluation as an integrity failure rather than silently wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .finitefield import FqElement
from .padic import UnramifiedContext, ZqElement
from .pgamma import gamma_cache
from .rational import frac, g_exponent


class EvaluationIntegrityError(ArithmeticError):
    """An internal consistency guarantee of the evaluation was violated."""


@dataclass(frozen=True)
class GParams:
    """Parameter record (a_1..a_n; b_1..b_n; t; q) for one evaluation."""

    upper: tuple
    lower: tuple
    t: FqElement
    context: UnramifiedContext

    def __post_init__(self):
        upper = tuple(Fraction(a) for a in self.upper)
        lower = tuple(Fraction(b) for b in self.lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        if len(upper) != len(lower) or not upper:
            raise ValueError("upper and lower parameter lists must have equal length >= 1")
        p = self.context.base.p
        for c in upper + lower:
            if c.denominator % p == 0:
                raise ValueError(f"parameter {c} is not in Z_p for p={p}")
        if self.t.context is not self.context.fq:
            raise ValueError("t lives in a different field than the Z_q context")

    @property
    def n(self) -> int:
        return len(self.upper)


@dataclass(frozen=True)
class GValue:
    """A full nGn sum reduced mod p^N."""

    value: ZqElement
    precision: int


def _coefficient_table(upper, lower, zq: UnramifiedContext) -> list[int]:
    """Z_p coefficients of omega-bar^a(t), indexed by a; memoized per context."""
    key = (upper, lower)
    table = zq.g_tables.get(key)
    if table is not None:
        return table

    fq = zq.fq
    p, r, q, m = fq.p, fq.r, fq.q, zq.modulus
    n = len(upper)
    cache = gamma_cache(zq.base)

    # a-independent denominators Gamma(<a_k p^i>), Gamma(<-b_k p^i>): units
    den_inv = {}
    for k in range(n):
        for i in range(r):
            d = (
                cache.gamma(frac(upper[k] * p**i)).residue
                * cache.gamma(frac(-lower[k] * p**i)).residue
                % m
            )
            den_inv[k, i] = pow(d, -1, m)

    table = []
    for a in range(q - 1):
        u = Fraction(a, q - 1)
        acc = 1 if (a * n) % 2 == 0 else m - 1
        exponent = 0
        for k in range(n):
            for i in range(r):
                exponent += g_exponent(upper[k], lower[k], a, i, p, q)
                num = (
                    cache.gamma(frac((upper[k] - u) * p**i)).residue
                    * cache.gamma(frac((-lower[k] + u) * p**i)).residue
                    % m
                )
                acc = acc * num % m * den_inv[k, i] % m
        if exponent < 0:
            raise EvaluationIntegrityError(
                f"negative total (-p) exponent {exponent} at a={a} for "
                f"parameters {upper}; {lower}"
            )
        table.append(acc * pow(-p, exponent, m) % m)
    zq.g_tables[key] = table
    return table


def evaluate_g(params: GParams) -> GValue:
    """The nGn sum at params.t, exactly mod p^N.

    At t = 0 every summand carries chi(0) = 0, so the value is 0.
    """
    zq = params.context
    q, m = zq.q, zq.modulus
    if params.t.is_zero():
        return GValue(zq.zero, zq.precision)
    table = _coefficient_table(params.upper, params.lower, zq)
    pows = zq.omega_generator_powers()
    step = -params.t.dlog() % (q - 1)  # omega-bar^a(t) = pows[a * step]
    acc = [0] * zq.r
    for a, c in enumerate(table):
        for i, w in enumerate(pows[a * step % (q - 1)].coeffs):
            acc[i] += c * w
    lead = -pow(q - 1, -1, m) % m
    return GValue(zq.element(acc).scale(lead), zq.precision)


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
