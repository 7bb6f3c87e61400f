"""Evaluator for McCarthy's p-adic hypergeometric function nGn[...]_q.

For parameters a_1..a_n, b_1..b_n in Q ∩ Z_p and t in F_q,

    nGn[a; b | t]_q = -1/(q-1) * sum_{a=0}^{q-2} (-1)^{a n} omega-bar^a(t)
        * prod_{k<=n} prod_{i<r} (-p)^{e(a_k,b_k,a,i)}
          * Gamma_p(<(a_k - a/(q-1)) p^i>) / Gamma_p(<a_k p^i>)
          * Gamma_p(<(-b_k + a/(q-1)) p^i>) / Gamma_p(<-b_k p^i>)

with e the floor exponent from rational.g_exponent.  Everything except
omega-bar^a(t) is a Z_p scalar c_a independent of t.  The table of the c_a
is built in integer arithmetic: with D = lcm(q-1, parameter denominators),
every Gamma_p argument above is a residue num/D, read from the shared
GammaCache once per distinct num.  With k = dlog t, omega-bar^a(t) =
omega(g)^(-a k), so the values at every t of the field are one character
transform of the table (UnramifiedContext.character_transform).  A field
therefore costs an O(q) integer table plus one Kronecker product per
parameter set: value_table builds it on first use and caches it on the Z_q
context.  The suites index it by dlog t; evaluate_g is the GParams facade.

Individual (k, i) factors can carry a negative floor exponent (the b_k = 1/2
families do at a = (q-1)/2), but the exponents summed over one term always
cancel to a non-negative total for the families in scope; a negative total
would demand a power of 1/p that does not exist in the quotient ring, so it
aborts the evaluation as an integrity failure rather than silently wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .finitefield import FqElement
from .padic import UnramifiedContext, ZqElement
from .pgamma import gamma_cache
from .rational import frac, g_exponent  # noqa: F401  (bench/tracing.py wraps frac here)


class EvaluationIntegrityError(ArithmeticError):
    """An internal consistency guarantee of the evaluation was violated."""


def _checked(upper, lower, p: int) -> tuple[tuple, tuple]:
    """Parameter tuples as Fractions, of equal length >= 1, each in Z_p, or ValueError."""
    upper = tuple(Fraction(a) for a in upper)
    lower = tuple(Fraction(b) for b in lower)
    if len(upper) != len(lower) or not upper:
        raise ValueError("upper and lower parameter lists must have equal length >= 1")
    for c in upper + lower:
        if c.denominator % p == 0:
            raise ValueError(f"parameter {c} is not in Z_p for p={p}")
    return upper, lower


@dataclass(frozen=True)
class GParams:
    """Parameter record (a_1..a_n; b_1..b_n; t; q) for one evaluation."""

    upper: tuple
    lower: tuple
    t: FqElement
    context: UnramifiedContext

    def __post_init__(self):
        upper, lower = _checked(self.upper, self.lower, self.context.base.p)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
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
    """Z_p coefficients c_a of omega-bar^a(t), indexed by a, in integer arithmetic."""
    fq = zq.fq
    p, r, q, m = fq.p, fq.r, fq.q, zq.modulus
    n = len(upper)
    d = lcm(q - 1, *(c.denominator for c in upper + lower))
    cache = gamma_cache(zq.base)
    gammas: dict[int, int] = {}  # num -> Gamma_p(num / d)

    def gamma(num: int) -> int:
        v = gammas.get(num)
        if v is None:
            v = gammas[num] = cache.residue(num, d)
        return v

    # per (k, i): d * <a_k p^i>, d * <-b_k p^i>, d * p^i/(q-1) and the
    # a-independent unit 1 / (Gamma(<a_k p^i>) Gamma(<-b_k p^i>))
    rows = []
    for k in range(n):
        for i in range(r):
            pi = p**i
            alpha = upper[k].numerator * (d // upper[k].denominator) * pi % d
            beta = -lower[k].numerator * (d // lower[k].denominator) * pi % d
            inv = pow(gamma(alpha) * gamma(beta), -1, m)
            rows.append((k, i, alpha, beta, pi * (d // (q - 1)), inv))
    powers = [pow(-p, e, m) for e in range(n * r + 1)]

    table = []
    for a in range(q - 1):
        acc = 1 if (a * n) % 2 == 0 else m - 1
        exponent = 0
        for k, i, alpha, beta, step, inv in rows:
            u = a * step
            exponent += g_exponent(upper[k], lower[k], a, i, p, q)
            acc = acc * gamma((alpha - u) % d) % m * gamma((beta + u) % d) % m * inv % m
        if exponent < 0:
            raise EvaluationIntegrityError(
                f"negative total (-p) exponent {exponent} at a={a} for "
                f"parameters {upper}; {lower}"
            )
        table.append(acc * powers[exponent] % m)
    return table


def value_table(upper: tuple, lower: tuple, zq: UnramifiedContext) -> list[ZqElement]:
    """[nGn[upper; lower | g^k] for k in 0..q-2], built and parameter-checked on
    first use per (upper, lower) and context, then cached on the context."""
    key = (upper, lower)
    values = zq.g_values.get(key)
    if values is None:
        upper, lower = _checked(upper, lower, zq.base.p)
        m = zq.modulus
        lead = -pow(zq.q - 1, -1, m) % m
        table = _coefficient_table(upper, lower, zq)
        values = zq.character_transform([c * lead % m for c in table])
        zq.g_values[key] = values
    return values


def evaluate_g(params: GParams) -> GValue:
    """The nGn sum at params.t, exactly mod p^N.

    At t = 0 every summand carries chi(0) = 0, so the value is 0.
    """
    zq = params.context
    if params.t.is_zero():
        return GValue(zq.zero, zq.precision)
    values = value_table(params.upper, params.lower, zq)
    return GValue(values[params.t.dlog()], zq.precision)


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
