"""Point-wise reference forms of the character values, kept as test oracles.

The production code reads every Teichmuller and character value from the
dlog-indexed table `UnramifiedContext.omega_generator_powers()`, coefficient
tuples built by `finitefield.poly_powers` as is the F_q table `powers`, and
builds the nGn, h and B values of a whole field as one character transform
each.  These references compute the same values the slow, obvious way, one
point at a time: both power tables by a running product of element objects,
the Teichmuller lift by iterating x -> x^q (square-and-multiply on objects)
from the verbatim lift of t, omega-bar(t) as its Hensel inverse, and each sum
over characters by a running power product.  The nGn coefficients come from
the rational-arithmetic table below (Fractions, rational.frac and rational
floors for every Gamma_p argument and exponent), and the Jacobi sums from the
point-wise `jacobi_sum`.  Production builds the integer table from one row
set per Frobenius rotation of the parameters; `coefficient_table_by_rows`
builds it one (k, i) row at a time, each row at the unreduced a p^i.  The
one whole-field transform in production,
`UnramifiedContext.scalar_transform`, takes only Frobenius-invariant tables;
its reference here, `character_transform`, takes any integer table and sums
over a for each k in Z_q.  `char_value` reads one character value
omega-bar^j(t) from the power table, for the sums over x.

The integer oracles A(lam), a(lam) and the cubic root counts are read in
production from whole-field tables built on the Zech-log table; their
references here are the per-lambda double sum over F_q objects and the
Horner scan over every y.

Every whole-field correlation is one exact packed product in production
(finitefield.correlate), cyclic or negacyclic of length q-1; its references
here are the direct sums, cyclic over integers and wrapped over blocks of
polynomial slots.

Gamma_p(n) mod p^N is read in production from a base-p digit table of
truncated polynomials; its reference here is the checkpointed prefix product
over every integer below p^N.

The gamma suite and the floor identities run in production as integer index
arithmetic over one common denominator; their references here are the
Fraction forms, every argument and floor built by rational.frac and
math.floor.

The nGn suites (euler, zeros, clausen, oracles, inversion and the nGn half of
charsums) read each value table in production by discrete-log index: 1/x,
1 - x, x + 1 and (x-1)/x become index arithmetic and Zech-table lookups, and
phi is index parity.  Their references here are the object sweeps, one
GParams and evaluate_g call per point, with every argument built by F_q
element arithmetic.

The defining polynomial of F_q is, in production, the first candidate of
one search whose root x passes the order test by prime cofactors of q - 1,
which makes it primitive and so irreducible.  Its references here are trial
division by every monic polynomial of degree <= r/2 and the order of x found
by stepping x^k -> x^(k+1) until it returns to 1.

A suite's default precision and the charsums admission bound are closed
forms in production, read from jobs.SUITE_POLICY; their references here are
the search for the least N >= floor with p^N > 2*bound and the comparison
p^N > 2q^2 itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import floor, lcm
from operator import mul

from padichg.charsums import sum_A, sum_a, sum_B, sum_h, verify_aop_identity
from padichg.finitefield import count_roots, discriminant_sign_check, poly_reduce, quadratic_char
from padichg.elements import GParams, evaluate_g, evaluate_g_inverted, recover_bounded_integer
from padichg.gfunction import EvaluationIntegrityError
from padichg.pgamma import gamma_cache
from padichg.rational import frac
from padichg.suites import (
    _CLAUSEN_CUBE,
    _CLAUSEN_SQUARE,
    _EULER_LEFT,
    _EULER_RIGHT,
    Report,
    _digits,
    _fmt_scalar,
    _label,
    _recovery_bound,
    contexts,
)


def _fmt(value) -> str:
    """A Z_q value as its base-p digit strings (least significant first), one
    per coordinate; a scalar as jobs._fmt_scalar prints it."""
    ctx = value.context
    p, n, coeffs = ctx.base.p, ctx.precision, value.coeffs
    if not any(coeffs[1:]):
        return _fmt_scalar(coeffs[0], p, ctx.r, n)
    return "|".join(_digits(c, p, n) for c in coeffs)


def floor_int(x) -> int:
    """Largest integer <= x (exact, correct for negative rationals)."""
    return floor(Fraction(x))


_PREFIX_BLOCK = 128


@lru_cache(maxsize=8)
def _prefix_checkpoints(p, modulus):
    """prod_{0<j<k*_PREFIX_BLOCK, p∤j} j mod modulus for every k, in one pass."""
    prefix = [1]
    acc = 1
    for j in range(1, modulus):
        if j % p:
            acc = acc * j % modulus
        if j % _PREFIX_BLOCK == _PREFIX_BLOCK - 1:
            prefix.append(acc)
    return prefix


def prefix_gamma_nat(p, modulus, n):
    """Gamma_p(n) mod modulus = p^N from the nearest checkpoint of the prefix pass."""
    t = n % modulus
    k = t // _PREFIX_BLOCK
    acc = _prefix_checkpoints(p, modulus)[k]
    for j in range(k * _PREFIX_BLOCK, t):
        if j % p:
            acc = acc * j % modulus
    return -acc % modulus if t % 2 else acc


def teichmuller_by_iteration(zq, t):
    """The fixed point of x -> x^q starting from the verbatim lift of t != 0."""
    x = zq.element(t.coeffs)
    for _ in range(zq.precision + 2):
        y = power_by_objects(x, zq.q)
        if y == x:
            return x
        x = y
    raise AssertionError("Teichmuller iteration failed to stabilize")


def power_by_objects(x, e):
    """x^e for e >= 0 by square-and-multiply on element objects, one product
    at a time."""
    out = x.context.one
    while e:
        if e & 1:
            out = out * x
        x = x * x
        e >>= 1
    return out


def is_irreducible(poly, p):
    """Trial division of the monic poly (coefficients ascending) by every
    monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for neg_tail in itertools.product(range(p), repeat=d):  # -tail runs over F_p^d too
            if not any(poly_reduce(list(poly), neg_tail, p)):
                return False
    return True


def x_order(neg_poly, p):
    """The multiplicative order of x mod f = x^r - sum_j neg_poly[j] x^j,
    stepping x^k -> x^(k+1); 0 when x is no unit, that is neg_poly[0] = 0."""
    if not neg_poly[0]:
        return 0
    one = (1,) + (0,) * (len(neg_poly) - 1)
    power, k = one, 0
    while True:
        top = power[-1]  # the x^r term of x * x^k, folded by x^r = sum_j neg_poly[j] x^j
        power = tuple((low + top * n) % p for low, n in zip((0,) + power[:-1], neg_poly))
        k += 1
        if power == one:
            return k


def primitive_polynomials(p, r):
    """Every neg_poly of degree r with x of order p^r - 1, in the order
    FqContext searches them: (neg_poly[r-1], ..., neg_poly[0]) ascending."""
    out = []
    for high_first in itertools.product(range(p), repeat=r):
        neg_poly = high_first[::-1]
        monic = [(-c) % p for c in neg_poly] + [1]
        if is_irreducible(monic, p) and x_order(neg_poly, p) == p**r - 1:
            out.append(neg_poly)
    return out


def field_powers_by_objects(fq):
    """[g^k for k in 0..q-2] as FqElements, by a running product."""
    pows = [fq.one]
    for _ in range(fq.q - 2):
        pows.append(pows[-1] * fq.generator)
    return pows


def teichmuller_powers_by_objects(zq):
    """[omega(g)^k for k in 0..q-2] as ZqElements, by a running product."""
    w = teichmuller_by_iteration(zq, zq.fq.generator)
    pows = [zq.one]
    for _ in range(zq.q - 2):
        pows.append(pows[-1] * w)
    return pows


def _power_sum(zq, base, weights):
    """sum_k base^k * weights[k] by a running product."""
    acc, pw = zq.zero, zq.one
    for w in weights:
        acc = acc + pw * w
        pw = pw * base
    return acc


def g_exponent_fraction(a_k, b_k, a, i, p, q):
    """-floor(<a_k p^i> - a p^i/(q-1)) - floor(<-b_k p^i> + a p^i/(q-1)) over Q."""
    u = Fraction(a * p**i, q - 1)
    return -floor(frac(a_k * p**i) - u) - floor(frac(-b_k * p**i) + u)


@lru_cache(maxsize=16)
def coefficient_table_fraction(upper, lower, zq):
    """Z_p coefficients of omega-bar^a(t), indexed by a, in Fraction arithmetic."""
    fq = zq.fq
    p, r, q, m = fq.p, fq.r, fq.q, zq.modulus
    n = len(upper)
    cache = gamma_cache(zq.base)
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
                exponent += g_exponent_fraction(upper[k], lower[k], a, i, p, q)
                num = (
                    cache.gamma(frac((upper[k] - u) * p**i)).residue
                    * cache.gamma(frac((-lower[k] + u) * p**i)).residue
                    % m
                )
                acc = acc * num % m * den_inv[k, i] % m
        if exponent < 0:
            raise EvaluationIntegrityError(f"negative total (-p) exponent at a={a}")
        table.append(acc * pow(-p, exponent, m) % m)
    return table


def coefficient_table_by_rows(upper, lower, zq):
    """The integer coefficient table of gfunction._coefficient_table, one
    (k, i) row at a time, for parameters as reduced (num, den) pairs: each
    row divides a p^i d/(q-1) by d unreduced, so it takes its own two floors
    and two Gamma_p arguments at every a, and no row is shared between i."""
    fq = zq.fq
    p, r, q, m = fq.p, fq.r, fq.q, zq.modulus
    n = len(upper)
    d = lcm(q - 1, *(den for _, den in upper + lower))
    gamma = gamma_cache(zq.base).residues(d)
    rows = []
    for (a_num, a_den), (b_num, b_den) in zip(upper, lower):
        for i in range(r):
            pi = p**i
            alpha = a_num * (d // a_den) * pi % d
            beta = -b_num * (d // b_den) * pi % d
            inv = pow(gamma[alpha] * gamma[beta], -1, m)
            rows.append((alpha, beta, pi * (d // (q - 1)), inv))
    table = []
    for a in range(q - 1):
        acc = 1 if (a * n) % 2 == 0 else m - 1
        exponent = 0
        for alpha, beta, step, inv in rows:
            low, lo_num = divmod(alpha - a * step, d)
            high, hi_num = divmod(beta + a * step, d)
            exponent -= low + high
            acc = acc * gamma[lo_num] % m * gamma[hi_num] % m * inv % m
        if exponent < 0:
            raise EvaluationIntegrityError(f"negative total (-p) exponent at a={a}")
        table.append(acc * pow(-p, exponent, m) % m)
    return table


def evaluate_g_pointwise(params):
    """nGn at params.t as -1/(q-1) * sum_a c_a omega-bar(t)^a."""
    zq = params.context
    q, m = zq.q, zq.modulus
    if params.t.is_zero():
        return zq.zero
    table = coefficient_table_fraction(params.upper, params.lower, zq)
    u = teichmuller_by_iteration(zq, params.t).inverse()
    return _power_sum(zq, u, [zq.scalar(c) for c in table]) * (-pow(q - 1, -1, m) % m)


def char_value(zq, j, t):
    """omega-bar^j(t) with the chi(0) = 0 convention (0 for t = 0, all j)."""
    if t.is_zero():
        return zq.zero
    return zq.element(zq.omega_generator_powers()[-j * zq.dlog(t) % (zq.q - 1)])


def character_transform(zq, coeffs):
    """[sum_a coeffs[a] omega(g)^(-a k) for k in 0..q-2] in Z_q, any integer
    table, each k by the direct sum over a, one coordinate at a time."""
    n = zq.q - 1
    if len(coeffs) != n:
        raise ValueError(f"expected {n} coefficients")
    columns = list(zip(*zq.omega_generator_powers()))  # columns[i][e]: coordinate i of W^e
    out = []
    for k in range(n):
        terms = [-a * k % n for a in range(n)]
        out.append(zq.element([sum(c * col[e] for c, e in zip(coeffs, terms)) for col in columns]))
    return out


def jacobi_sum(i, j, zq):
    """J(omega-bar^i, omega-bar^j) = sum_x omega-bar^i(x) omega-bar^j(1-x) in Z_q,
    one count per power of omega(g) over the pairs (dlog x, dlog(1-x)).

    The chi(0) = 0 convention drops x in {0, 1}, so J(eps, eps) = q - 2.
    """
    n = zq.q - 1
    counts = [0] * n  # counts[e] = #{x : omega-bar^i(x) omega-bar^j(1-x) = W^e}
    for d1, d2 in zq.fq.jacobi_dlog_pairs():
        counts[(-i * d1 - j * d2) % n] += 1
    acc = [0] * zq.r
    for c, w in zip(counts, zq.omega_generator_powers()):
        for t, x in enumerate(w):
            acc[t] += c * x
    return zq.element(acc)


def jacobi_sum_elementwise(i, j, zq):
    """J(omega-bar^i, omega-bar^j) as a Z_q sum of character products over x."""
    fq = zq.fq
    acc = zq.zero
    for x in fq.elements():
        acc = acc + char_value(zq, i, x) * char_value(zq, j, fq.one - x)
    return acc


def sum_h_pointwise(lam, zq):
    """h(lam) = 1/(q-1) * sum_k omega(lam)^k J(omega-bar^(half-k), omega-bar^k)^3."""
    n = zq.q - 1
    half = n // 2
    cubes = [jacobi_sum((half - k) % n, k, zq) ** 3 for k in range(n)]
    w = teichmuller_by_iteration(zq, lam)
    return _power_sum(zq, w, cubes) * pow(n, -1, zq.modulus)


def sum_B_pointwise(lam, zq):
    """B(lam) = phi(-2)/(q-1) * sum_k omega-bar^k(arg) J(.,.) J(.,.), arg = lam/(4(lam+1))."""
    fq = lam.context
    n = zq.q - 1
    half = n // 2
    pairs = [
        jacobi_sum((half + 2 * k) % n, (n - k) % n, zq)
        * jacobi_sum((half + k) % n, (n - k) % n, zq)
        for k in range(n)
    ]
    arg = lam / (fq.scalar(4) * (lam + fq.one))
    u = teichmuller_by_iteration(zq, arg).inverse()
    lead = quadratic_char(fq.scalar(-2)) * pow(n, -1, zq.modulus) % zq.modulus
    return _power_sum(zq, u, pairs) * lead


def sum_A_bruteforce(lam):
    """A(lam, q) as the double sum over (x, y), split into x-only and y-only factors."""
    fq = lam.context
    one = fq.one
    phi = {x.coeffs: quadratic_char(x) for x in fq.elements()}
    pair = [(x, phi[x.coeffs] * phi[(x + one).coeffs]) for x in fq.elements()]
    pair = [(x, s) for x, s in pair if s]
    total = 0
    for y, sy in pair:
        ly = lam * y
        acc = 0
        for x, sx in pair:
            acc += sx * phi[(x + ly).coeffs]
        total += sy * acc
    return total


def sum_a_bruteforce(lam):
    """a(lam, q) = sum over x of phi((x-1)(x^2 - 1/(lam+1))), element by element."""
    fq = lam.context
    c = (lam + fq.one).inverse()
    one = fq.one
    return sum(quadratic_char((x - one) * (x * x - c)) for x in fq.elements())


def count_roots_scan(coeffs):
    """Distinct roots of sum coeffs[i] y^i by a Horner evaluation at every y."""
    ctx = coeffs[0].context
    count = 0
    for y in ctx.elements():
        acc = ctx.zero
        for c in reversed(coeffs):
            acc = acc * y + c
        if acc.is_zero():
            count += 1
    return count


def cyclic_correlation(u, v):
    """c[m] = sum_i u[i] v[(i + m) mod n] for m in 0..n-1, n = len(u)."""
    n = len(u)
    vv = v + v
    return [sum(map(mul, u, vv[m : m + n])) for m in range(n)]


def wrapped_block_correlation(u, v, wrap):
    """out[k][s] = sum_a sum_(t+w=s) u[a][t] v[a+k][w] for k in 0..n-1, for
    u and v of n blocks and v[j+n] = wrap * v[j], one block at a time."""
    n, r = len(u), len(u[0])
    out = []
    for k in range(n):
        acc = [0] * (2 * r - 1)
        for a, x in enumerate(u):
            j = a + k
            sign = 1 if j < n else wrap
            for t, ut in enumerate(x):
                for w, vw in enumerate(v[j % n]):
                    acc[t + w] += sign * ut * vw
        out.append(acc)
    return out


def floor_identity_A_fraction(p, q, a, i):
    """The eight-floor identity of rational.check_floor_identity_A over Q."""
    if 2 * a == q - 1:
        raise ValueError("a = (q-1)/2 is excluded by the identity's hypothesis")
    u = Fraction(a * p**i, q - 1)
    lhs = -2 * floor(2 * u) - floor(-6 * u) + floor(u) + floor(-3 * u)
    rhs = (
        -floor(frac(Fraction(p**i, 6)) - u)
        - floor(frac(Fraction(5 * p**i, 6)) - u)
        - floor(frac(Fraction(p**i, 2)) + u)
        - floor(u)
    )
    return lhs == rhs


def floor_identity_B_fraction(p, q, a, i):
    """The five-floor identity of rational.check_floor_identity_B over Q."""
    if a == 0:
        raise ValueError("a = 0 is excluded by the identity's hypothesis")
    u = Fraction(a * p**i, q - 1)
    lhs = -floor(2 * u) - floor(-3 * u)
    rhs = (
        1
        - floor(frac(Fraction(p**i, 3)) - u)
        - floor(frac(Fraction(2 * p**i, 3)) - u)
        - floor(frac(Fraction(p**i, 2)) + u)
    )
    return lhs == rhs


def default_precision_by_search(suite, p, r):
    """max(floor, least N with p^N > need): need is 2q^2 for charsums, 2q for
    clausen (floor 5) and 8 for every other suite (floor 4)."""
    q = p**r
    if suite == "charsums":
        need, floor_n = 2 * q * q, 4
    elif suite == "clausen":
        need, floor_n = 2 * q, 5
    else:
        need, floor_n = 8, 4
    n = 1
    while p**n <= need:
        n += 1
    return max(floor_n, n)


def charsums_admits(p, r, precision):
    """The A-recovery bound of the charsums suite, p^N > 2q^2."""
    return p**precision > 2 * (p**r) ** 2


def gamma_identities_fraction(job):
    """intsuites.verify_gamma_identities with every Gamma_p argument a Fraction."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    p, r, q, m = job.p, job.r, job.q, zq.modulus
    cache = gamma_cache(zq.base)
    minus_one = -fq.one
    half = Fraction(1, 2)

    def gprod(args):
        acc = 1
        for arg in args:
            acc = acc * cache.gamma(arg).residue % m
        return acc

    for j in range(1, q - 1):
        u = Fraction(j, q - 1)
        val = gprod(
            [frac((1 - u) * p**i) for i in range(r)] + [frac(u * p**i) for i in range(r)]
        )
        lhs = zq.scalar(val * pow(-1, r))
        rhs = char_value(zq, j, minus_one)
        report.case(f"reflection j={j}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

    for j in range(q - 1):
        if 2 * j == q - 1:
            continue
        u = Fraction(j, q - 1)
        num = gprod(
            [frac((half - u) * p**i) for i in range(r)]
            + [frac((half + u) * p**i) for i in range(r)]
        )
        den = gprod([frac(half * p**i) for i in range(r)]) ** 2 % m
        lhs = zq.scalar(num * pow(den, -1, m))
        rhs = char_value(zq, j, minus_one)
        report.case(f"half-shift j={j}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

    for t in (2, 3, 6):
        if t % p == 0:
            continue
        t_elem = fq.scalar(t)
        base = gprod([frac(Fraction(h * p**i, t)) for i in range(r) for h in range(1, t)])
        for a in range(q - 1):
            u = Fraction(a, q - 1)
            w_down = char_value(zq, t * a, t_elem)
            lhs = w_down * (base * gprod([frac(-t * u * p**i) for i in range(r)]) % m)
            rhs = zq.scalar(
                gprod([frac((Fraction(1 + h, t) - u) * p**i) for i in range(r) for h in range(t)])
            )
            report.case(f"product-down t={t} a={a}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

            w_up = char_value(zq, -t * a, t_elem)
            lhs = w_up * (base * gprod([frac(t * u * p**i) for i in range(r)]) % m)
            rhs = zq.scalar(
                gprod([frac((Fraction(h, t) + u) * p**i) for i in range(r) for h in range(t)])
            )
            report.case(f"product-up t={t} a={a}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

    if p >= 5:
        num = gprod(
            [frac(Fraction(p**i, 3)) for i in range(r)]
            + [frac(Fraction(2 * p**i, 3)) for i in range(r)]
        )
        den = gprod(
            [frac(Fraction(p**i, 6)) for i in range(r)]
            + [frac(Fraction(5 * p**i, 6)) for i in range(r)]
        )
        val = num * pow(den, -1, m) % m
        expect = quadratic_char(fq.scalar(3)) % m
        report.case(
            "sixth-thirds ratio",
            val == expect,
            lambda: (_digits(val, p, job.precision), f"phi(3)={quadratic_char(fq.scalar(3))}"),
        )
    return report


def phi_scaled(value, sign):
    return value * (sign % value.context.modulus)


def sweep_elements(fq, exclude=()):
    """The x of fq.elements() outside exclude."""
    excluded = set(exclude)
    return (x for x in fq.elements() if x not in excluded)


def euler_transform_pointwise(job):
    """suites.RELATIONS["euler"], one GParams and F_q element argument per point."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    for x in sweep_elements(fq, exclude=(fq.zero, fq.one)):
        t = x.inverse()
        lhs = evaluate_g(GParams(*_EULER_LEFT, t, zq)).value
        rhs = phi_scaled(
            evaluate_g(GParams(*_EULER_RIGHT, t, zq)).value,
            quadratic_char(fq.one - x),
        )
        report.case(f"x={_label(x.coeffs)}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    lhs = evaluate_g(GParams(*_EULER_LEFT, fq.one, zq)).value
    rhs = phi_scaled(
        evaluate_g(GParams(*_EULER_RIGHT, fq.one, zq)).value,
        quadratic_char(fq.scalar(3)),
    )
    report.case("x=1 (phi(3) case)", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    return report


def zero_classification_pointwise(job):
    """suites.verify_zero_classification, one GParams and F_q element argument per point."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    bound = _recovery_bound(zq.modulus)
    for x in sweep_elements(fq, exclude=(fq.zero, fq.one)):
        t = x.inverse()
        v1 = recover_bounded_integer(evaluate_g(GParams(*_EULER_LEFT, t, zq)).value, bound)
        v2 = recover_bounded_integer(evaluate_g(GParams(*_EULER_RIGHT, t, zq)).value, bound)
        crit = discriminant_sign_check(x) == -1
        cubic = [fq.scalar(-4) * x, fq.zero, fq.scalar(27), fq.scalar(-27)]
        one_root = count_roots(cubic) == 1
        ok = ((v1 == 0) == crit) and ((v2 == 0) == crit) and (crit == one_root)
        report.case(
            f"x={_label(x.coeffs)}",
            ok,
            lambda: (
                f"G values ({v1}, {v2})",
                f"phi(3x(1-x))={'-1' if crit else '+1'}, single-root={one_root}",
            ),
        )
    return report


def clausen_pointwise(job):
    """suites.RELATIONS["clausen"], one GParams and F_q element argument per point."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    q_elem = zq.scalar(fq.q)
    for x in sweep_elements(fq, exclude=(fq.zero, fq.one)):
        lhs = evaluate_g(GParams(*_CLAUSEN_CUBE, x.inverse(), zq)).value
        g = evaluate_g(GParams(*_CLAUSEN_SQUARE, (x - fq.one) / x, zq)).value
        rhs = phi_scaled(g * g - q_elem, quadratic_char(fq.one - x))
        report.case(f"x={_label(x.coeffs)}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    return report


def proposition_oracles_pointwise(job):
    """suites.verify_proposition_oracles, one GParams and F_q element argument per point."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    bound = _recovery_bound(zq.modulus)
    inv27 = fq.scalar(27).inverse()
    for x in sweep_elements(fq, exclude=(fq.zero,)):
        t = x.inverse()
        c1 = count_roots([fq.scalar(-4) * x, fq.zero, fq.scalar(27), fq.scalar(-27)])
        c2 = count_roots(
            [fq.scalar(4) * x * inv27, fq.zero, -fq.one, fq.one]
        )
        v1 = recover_bounded_integer(evaluate_g(GParams(*_EULER_LEFT, t, zq)).value, bound)
        v2 = recover_bounded_integer(evaluate_g(GParams(*_EULER_RIGHT, t, zq)).value, bound)
        phi3x = quadratic_char(fq.scalar(3) * x)
        ok = (v1 + 1 == c1) and (1 + phi3x * v2 == c2) and (c1 == c2)
        report.case(
            f"x={_label(x.coeffs)}",
            ok,
            lambda: (
                f"G+1={v1 + 1}, 1+phi(3x)G'={1 + phi3x * v2}",
                f"root counts ({c1}, {c2})",
            ),
        )
    return report


def inversion_pointwise(job):
    """suites.RELATIONS["inversion"], one GParams and F_q element argument per point."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    for x in sweep_elements(fq, exclude=(fq.zero,)):
        lhs = evaluate_g_inverted(GParams(*_EULER_RIGHT, x, zq)).value
        rhs = evaluate_g(GParams(*_EULER_RIGHT, x.inverse(), zq)).value
        report.case(f"x={_label(x.coeffs)}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    return report


def charsum_chain_pointwise(job):
    """suites.verify_charsum_chain, one GParams and F_q element argument per point."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    q = fq.q
    phi2 = quadratic_char(fq.scalar(2))
    phim1 = quadratic_char(fq.scalar(-1))
    phim2 = quadratic_char(fq.scalar(-2))
    for lam in sweep_elements(fq, exclude=(fq.zero, -fq.one)):
        a_val = sum_a(lam)
        big_a = sum_A(lam)
        t3 = -(lam.inverse())
        v3 = recover_bounded_integer(
            evaluate_g(GParams(*_CLAUSEN_CUBE, t3, zq)).value, q * q
        )
        h_val = sum_h(lam, zq)
        b_val = sum_B(lam, zq)
        phi_shift = quadratic_char(fq.scalar(2) * lam / (lam + fq.one))
        v2 = recover_bounded_integer(
            evaluate_g(GParams(*_CLAUSEN_SQUARE, (lam + fq.one) / lam, zq)).value, q
        )
        checks = (
            v3 == big_a,
            h_val == zq.scalar(big_a),
            b_val == zq.scalar(-phi_shift + phim1 * a_val),
            -phi2 * v2 == a_val,
            verify_aop_identity(lam),
            b_val == zq.scalar(-phi_shift - phim2 * v2),
        )
        report.case(
            f"lam={_label(lam.coeffs)}",
            all(checks),
            lambda: (
                f"G3={v3}, h={_fmt(h_val)}, B={_fmt(b_val)}, -phi(2)G2={-phi2 * v2}",
                f"A={big_a}, a={a_val}, checks={checks}",
            ),
        )
    return report
