"""The two integer suites, gamma and floors: integer facts, not field facts.

gamma checks the Gamma_p product formulas mod p^N, floors the floor lemmas
of rational.  gamma builds two kinds of table once per job, the
orbit-product table f over Z/d and one shifted-product table S_t per t, and
answers each case from a constant number of reads.  Like the field suites,
each opens with report = Report(job), which refuses a p below its least p,
counts its cases and returns it; jobs.run_job times it.  Both need only
pgamma, rational and zmod, so a run whose jobs are all gamma or floors
loads no F_q, Z_q or nGn code.  jobs.run_job imports this module at the
first integer job; it alone imports rational, so a run of field suites
alone loads neither.
"""

from math import gcd, lcm, prod

from . import rational
from .jobs import JobSpec, Report, _digits, _fmt_scalar
from .pgamma import gamma_cache
from .zmod import PadicContext


def verify_gamma_identities(job: JobSpec) -> Report:
    """Gamma_p product identities: the reflection product over i, the
    half-shift ratio, the multiplication products for t in {2, 3, 6} in both
    directions, and the one-off sixth/thirds ratio equal to phi(3).

    Arguments are residues num/d, d = lcm(q-1, t in {2, 3, 6} with p ∤ t):
    with j/(q-1) = u/d, <(c/t ± j/(q-1)) p^i> = ((c d/t ± u) p^i mod d)/d.
    Every Gamma_p product over i < r is one read of the orbit-product table
    f[x] = prod_{i<r} Gamma_p(<x p^i / d>), and the right side of the
    t-products is one read of S_t[v] = prod_{h<t} f[v + h d/t], v < d/t
    (adding d/t to u permutes the t arguments), so each case is a constant
    number of reads.  S_t holds only the v that are multiples of
    g = gcd(d/(q-1), d/t), the residues u mod d/t take, at index v // g.  Both sides are integers mod p^N: omega(-1) = -1, for
    t in F_p, omega(t) = t^(p^(N-1)) mod p^N, and phi(3) = 3^((q-1)/2) mod p
    (Euler's criterion), so no field context is built.
    """
    report = Report(job)
    p, r, q, n = job.p, job.r, job.q, job.precision
    m = p**n
    d = lcm(q - 1, *(t for t in (2, 3, 6) if t % p))
    step = d // (q - 1)  # j/(q-1) = j * step / d
    gammas = f = gamma_cache(PadicContext(p, n)).residues(d)
    for i in range(1, r):  # at r = 1, f is the residue table itself
        pi = p**i % d
        f = [f[x] * gammas[x * pi % d] % m for x in range(d)]

    def show():  # the current case's residues; Report.case calls it at once
        return _fmt_scalar(lhs, p, r, n), _fmt_scalar(rhs, p, r, n)

    for j in range(1, q - 1):
        u = j * step
        lhs = f[d - u] * f[u] * (-1) ** r % m  # <(1-u) p^i>, <u p^i>
        rhs = (-1) ** j % m  # omega-bar^j(-1)
        report.case(f"reflection j={j}", lhs == rhs, show)

    half = d // 2
    inv_den = pow(f[half] ** 2, -1, m)
    for j in range(q - 1):
        if 2 * j == q - 1:
            continue
        u = j * step
        lhs = f[(half - u) % d] * f[(half + u) % d] * inv_den % m
        rhs = (-1) ** j % m
        report.case(f"half-shift j={j}", lhs == rhs, show)

    for t in (2, 3, 6):
        if t % p == 0:
            continue  # lemma hypothesis p does not divide t
        c = d // t
        g = gcd(step, c)  # every u mod c is a multiple of g
        shifted = [prod(f[v + h * c] for h in range(t)) % m for v in range(0, c, g)]  # S_t
        base = prod(f[h * c] for h in range(1, t)) % m  # not S_t[0] / f[0]: f[0] may be wrong
        w_step = pow(t, t * p ** (n - 1), m)  # omega(t)^t
        w_step_inv = pow(w_step, -1, m)
        w_up = w_down = 1  # omega(t)^(t a), omega(t)^(-t a)
        for a in range(q - 1):
            u = a * step
            lhs = w_down * base * f[-t * u % d] % m
            rhs = shifted[-u % c // g]
            report.case(f"product-down t={t} a={a}", lhs == rhs, show)

            lhs = w_up * base * f[t * u % d] % m
            rhs = shifted[u % c // g]
            report.case(f"product-up t={t} a={a}", lhs == rhs, show)
            w_up, w_down = w_up * w_step % m, w_down * w_step_inv % m

    if p >= 5:
        val = f[d // 3] * f[2 * (d // 3)] * pow(f[d // 6] * f[5 * (d // 6)], -1, m) % m
        phi3 = 1 if pow(3, (q - 1) // 2, p) == 1 else -1
        report.case(
            "sixth-thirds ratio",
            val == phi3 % m,
            lambda: (_digits(val, p, n), f"phi(3)={phi3}"),
        )
    return report


def verify_floor_lemmas(job: JobSpec) -> Report:
    """Exhaustive integer floor identities: family A over a != (q-1)/2, then
    family B over a > 0, each for all i < r, in ascending (a, i) order."""
    report = Report(job)
    p, q, r = job.p, job.q, job.r
    # read off the module at each call, where bench/tracing.py wraps them
    for a in range(q - 1):
        if 2 * a == q - 1:
            continue
        for i in range(r):
            ok = rational.check_floor_identity_A(p, q, a, i)
            report.case(f"A a={a} i={i}", ok, lambda: ("sides differ", ""))
    for a in range(1, q - 1):
        for i in range(r):
            ok = rational.check_floor_identity_B(p, q, a, i)
            report.case(f"B a={a} i={i}", ok, lambda: ("sides differ", ""))
    return report


SUITES = {"gamma": verify_gamma_identities, "floors": verify_floor_lemmas}
