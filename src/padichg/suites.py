"""Theorem-level verifiers sweeping all admissible inputs per field.

Each suite compares hypergeometric values, character-sum oracles, or gamma
products over every admissible x (or lambda, or character index) of one
field, and returns a Report listing every failing case.  Sweeps follow the
coefficient-lexicographic element order, so the first recorded failure is
the smallest failing input.  Suites raise ValueError when called directly on
a field violating their hypothesis; the battery runner (run_job) records
such fields as skipped instead.

The nGn suites read gfunction.value_table by k = dlog x.  With n = q-1 and
h = n/2, indices mod n: 1/x is -k, 1 - x is zech[k+h], x + 1 is zech[k],
(x-1)/x is zech[k+h] + h - k, -1/x is h - k, and phi is index parity.  The
oracles (root counts, character sums) still take F_q elements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from .charsums import sum_A, sum_a, sum_B, sum_h, verify_aop_identity
from .finitefield import (
    FqContext,
    FqElement,
    is_prime,
    count_roots,
    discriminant_sign_check,
    quadratic_char,
)
from .gfunction import GParams, evaluate_g, value_table
from .gfunction import evaluate_g_inverted  # noqa: F401  (bench/tracing.py wraps it here)
from .padic import UnramifiedContext, ZqElement, balanced_lift, recover_bounded_integer
from .pgamma import check_feasible, gamma_cache
from .rational import check_floor_identity_A, check_floor_identity_B
from .rational import frac  # noqa: F401  (bench/tracing.py wraps it here)

DEFAULT_BATTERY = ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2))

SUITE_NAMES = (
    "euler",
    "zeros",
    "clausen",
    "oracles",
    "inversion",
    "charsums",
    "gamma",
    "floors",
)

# smallest p admitted by each suite's hypothesis (denominators 3 and 6 need p >= 5)
SUITE_MIN_P = {
    "euler": 5,
    "zeros": 5,
    "clausen": 3,
    "oracles": 5,
    "inversion": 5,
    "charsums": 3,
    "gamma": 3,
    "floors": 5,
}

_HALF = Fraction(1, 2)
_EULER_LEFT = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(0), _HALF))
_EULER_RIGHT = ((Fraction(1, 6), Fraction(5, 6)), (Fraction(0), _HALF))
_CLAUSEN_CUBE = ((_HALF, _HALF, _HALF), (Fraction(0),) * 3)
_CLAUSEN_SQUARE = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(0), Fraction(0)))


@dataclass(frozen=True)
class JobSpec:
    """One verification job: a field, a precision, a suite, optional restriction."""

    p: int
    r: int
    suite: str
    precision: int | None = None
    restrict: tuple | None = None
    record_cases: bool = False

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.precision is not None and self.precision < 1:
            raise ValueError("precision must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.r


@dataclass
class CaseFailure:
    case: str
    left: str
    right: str

    def to_dict(self):
        return {"case": self.case, "left": self.left, "right": self.right}


@dataclass
class Report:
    """Outcome of one job; cases_total = cases_passed + len(failures)."""

    suite: str
    p: int
    r: int
    precision: int
    q: int
    cases_total: int = 0
    cases_passed: int = 0
    failures: list = field(default_factory=list)
    elapsed_ms: float = 0.0
    skipped: bool = False
    case_rows: list = field(default_factory=list)

    def passed(self) -> bool:
        return self.skipped or not self.failures

    def to_dict(self):
        return {
            "suite": self.suite,
            "p": self.p,
            "r": self.r,
            "N": self.precision,
            "q": self.q,
            "cases_total": self.cases_total,
            "cases_passed": self.cases_passed,
            "skipped": self.skipped,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
        }


def default_precision(suite: str, p: int, r: int) -> int:
    """max(floor, smallest N with p^N > 2*bound).

    bound is 4 for the congruence and root-count suites, q for the single-sum
    recovery inside clausen's chain, q^2 for the double-sum recovery of the
    charsums suite; clausen's floor of 5 matches its stated tolerance.
    """
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


_fq_cache: dict[tuple[int, int], FqContext] = {}
_zq_cache: dict[tuple[int, int, int], UnramifiedContext] = {}


def field_context(p: int, r: int) -> FqContext:
    key = (p, r)
    ctx = _fq_cache.get(key)
    if ctx is None:
        ctx = FqContext(p, r)
        _fq_cache[key] = ctx
    return ctx


def contexts(p: int, r: int, precision: int) -> tuple[FqContext, UnramifiedContext]:
    """Shared (F_q, Z_q) pair built from one defining polynomial."""
    fq = field_context(p, r)
    key = (p, r, precision)
    zq = _zq_cache.get(key)
    if zq is None:
        zq = UnramifiedContext(fq, precision)
        _zq_cache[key] = zq
    return fq, zq


def _digits(v: int, p: int, n: int) -> str:
    out = []
    for _ in range(n):
        v, d = divmod(v, p)
        out.append(str(d))
    return ".".join(out)


def _fmt(value: ZqElement) -> str:
    """Base-p digit string (least significant first), plus a balanced lift."""
    ctx = value.context
    s = "|".join(_digits(c, ctx.base.p, ctx.precision) for c in value.coeffs)
    if all(c == 0 for c in value.coeffs[1:]):
        s += f" (={balanced_lift(value)})"
    return s


def _label(x: FqElement) -> str:
    return str(x.coeffs[0]) if x.context.r == 1 else str(x.coeffs)


class _Sweep:
    """Failure/counter accumulator shared by all suites."""

    def __init__(self, job: JobSpec):
        self.job = job
        self.report = Report(
            suite=job.suite, p=job.p, r=job.r, precision=job.precision, q=job.q
        )
        self._t0 = time.perf_counter()

    def case(self, label: str, ok: bool, describe):
        """Count one case; describe() -> (left, right) is called only on failure."""
        rep = self.report
        rep.cases_total += 1
        if ok:
            rep.cases_passed += 1
            left = right = ""
        else:
            left, right = describe()
            rep.failures.append(CaseFailure(label, left, right))
        if self.job.record_cases:
            rep.case_rows.append({"case": label, "ok": ok, "left": left, "right": right})

    def done(self) -> Report:
        self.report.elapsed_ms = (time.perf_counter() - self._t0) * 1000.0
        return self.report


def _require(job: JobSpec):
    min_p = SUITE_MIN_P[job.suite]
    if job.p < min_p:
        raise ValueError(f"suite {job.suite!r} requires p >= {min_p}, got p={job.p}")
    if job.precision is None:
        raise ValueError("precision must be resolved before running a suite")
    if job.suite in ("zeros", "oracles") and job.p**job.precision < 7:
        raise ValueError("insufficient precision: integer recovery needs p^N >= 7")
    if job.suite == "charsums" and job.p**job.precision <= 2 * job.q**2:
        raise ValueError("insufficient precision: A-recovery needs p^N > 2q^2")


def _sweep_points(fq: FqContext, job: JobSpec, skip=()):
    """(x, dlog x) for each x != 0 with dlog x not in skip, inside job.restrict."""
    allowed = None
    if job.restrict is not None:
        allowed = {fq.coerce(v).coeffs for v in job.restrict}
    dlog = fq.dlog
    for x in fq.elements()[1:]:  # elements()[0] is zero
        k = dlog[x.coeffs]
        if k in skip or (allowed is not None and x.coeffs not in allowed):
            continue
        yield x, k


def _phi_scaled(value: ZqElement, k: int) -> ZqElement:
    """phi(g^k) value; q - 1 is even, so any representative k gives (-1)^k."""
    return -value if k & 1 else value


def _recovery_bound(modulus: int) -> int:
    # widest certifiable bound for the small-value suites, capped at 4
    return min(4, (modulus - 1) // 2)


def verify_euler_transform(job: JobSpec) -> Report:
    """G[1/3,2/3;0,1/2 | 1/x] = phi(1-x) G[1/6,5/6;0,1/2 | 1/x] for x outside
    {0,1}, plus the x = 1 case with phi(3) in place of phi(1-x)."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, zech = fq.q - 1, fq.zech_table()
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, job, skip=(0,)):
        lhs = left[-k % n]
        rhs = _phi_scaled(right[-k % n], zech[(k + n // 2) % n])
        sweep.case(f"x={_label(x)}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    lhs = evaluate_g(GParams(*_EULER_LEFT, fq.one, zq)).value
    rhs = _phi_scaled(evaluate_g(GParams(*_EULER_RIGHT, fq.one, zq)).value, fq.scalar(3).dlog())
    sweep.case("x=1 (phi(3) case)", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    return sweep.done()


def verify_zero_classification(job: JobSpec) -> Report:
    """Both G-values vanish exactly iff phi(3x(1-x)) = -1 iff the cubic
    27y^2(1-y) - 4x has exactly one root."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, bound = fq.q - 1, _recovery_bound(zq.modulus)
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, job, skip=(0,)):
        v1 = recover_bounded_integer(left[-k % n], bound)
        v2 = recover_bounded_integer(right[-k % n], bound)
        crit = discriminant_sign_check(x) == -1
        cubic = [fq.scalar(-4) * x, fq.zero, fq.scalar(27), fq.scalar(-27)]
        one_root = count_roots(cubic) == 1
        ok = ((v1 == 0) == crit) and ((v2 == 0) == crit) and (crit == one_root)
        sweep.case(
            f"x={_label(x)}",
            ok,
            lambda: (
                f"G values ({v1}, {v2})",
                f"phi(3x(1-x))={'-1' if crit else '+1'}, single-root={one_root}",
            ),
        )
    return sweep.done()


def verify_clausen(job: JobSpec) -> Report:
    """G3[1/2,1/2,1/2;0,0,0 | 1/x] = phi(1-x) G2[1/4,3/4;0,0 | (x-1)/x]^2
    - q phi(1-x) for x outside {0,1}; admits p = 3."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, zech = fq.q - 1, fq.zech_table()
    h = n // 2
    cube, square = value_table(*_CLAUSEN_CUBE, zq), value_table(*_CLAUSEN_SQUARE, zq)
    q_elem = zq.scalar(fq.q)
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, job, skip=(0,)):
        z = zech[(k + h) % n]
        lhs = cube[-k % n]
        g = square[(z + h - k) % n]
        rhs = _phi_scaled(g * g - q_elem, z)
        sweep.case(f"x={_label(x)}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    return sweep.done()


def verify_proposition_oracles(job: JobSpec) -> Report:
    """G[1/3,2/3;0,1/2 | 1/x] + 1 and 1 + phi(3x) G[1/6,5/6;0,1/2 | 1/x] both
    equal the root count of the scaled cubic, for every x != 0."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, bound = fq.q - 1, _recovery_bound(zq.modulus)
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    inv27 = fq.scalar(27).inverse()
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, job):
        c1 = count_roots([fq.scalar(-4) * x, fq.zero, fq.scalar(27), fq.scalar(-27)])
        c2 = count_roots(
            [fq.scalar(4) * x * inv27, fq.zero, -fq.one, fq.one]
        )
        v1 = recover_bounded_integer(left[-k % n], bound)
        v2 = recover_bounded_integer(right[-k % n], bound)
        phi3x = quadratic_char(fq.scalar(3) * x)
        ok = (v1 + 1 == c1) and (1 + phi3x * v2 == c2) and (c1 == c2)
        sweep.case(
            f"x={_label(x)}",
            ok,
            lambda: (
                f"G+1={v1 + 1}, 1+phi(3x)G'={1 + phi3x * v2}",
                f"root counts ({c1}, {c2})",
            ),
        )
    return sweep.done()


def verify_inversion(job: JobSpec) -> Report:
    """G[0,1/2;1/6,5/6 | x] = G[1/6,5/6;0,1/2 | 1/x] for all x != 0."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n = fq.q - 1
    swapped, right = value_table(*_EULER_RIGHT[::-1], zq), value_table(*_EULER_RIGHT, zq)
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, job):
        lhs, rhs = swapped[k], right[-k % n]
        sweep.case(f"x={_label(x)}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))
    return sweep.done()


def verify_charsum_chain(job: JobSpec) -> Report:
    """Six checks per lambda outside {0,-1}:

    (i)   G3[1/2,1/2,1/2;0,0,0 | -1/lam] recovers to A(lam,q);
    (ii)  h(lam) = A(lam,q) in Z_q;
    (iii) B(lam) = -phi(2 lam/(lam+1)) + phi(-1) a(lam,q);
    (iv)  -phi(2) G2[1/4,3/4;0,0 | (lam+1)/lam] recovers to a(lam,q);
    (v)   A(lam,q) = phi(lam+1) (a(lam,q)^2 - q) as exact integers;
    (vi)  B(lam) = -phi(2 lam/(lam+1)) - phi(-2) G2[1/4,3/4;0,0 | (lam+1)/lam],
          tying the Jacobi-sum path to the gamma-product path directly.

    The a-coupling signs in (iii) and (iv) are the ones the defining sums
    actually satisfy; they are forced by (vi) together with (v), and were
    fixed in advance by independent hand computation at q = 5.
    """
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    q, n, zech = fq.q, fq.q - 1, fq.zech_table()
    h = n // 2
    cube, square = value_table(*_CLAUSEN_CUBE, zq), value_table(*_CLAUSEN_SQUARE, zq)
    phi2 = quadratic_char(fq.scalar(2))
    phim1 = quadratic_char(fq.scalar(-1))
    phim2 = quadratic_char(fq.scalar(-2))
    sweep = _Sweep(job)
    for lam, k in _sweep_points(fq, job, skip=(h,)):
        a_val = sum_a(lam)
        big_a = sum_A(lam)
        v3 = recover_bounded_integer(cube[(h - k) % n], q * q)
        h_val = sum_h(lam, zq)
        b_val = sum_B(lam, zq)
        phi_shift = -phi2 if (k - zech[k]) & 1 else phi2  # phi(2 lam/(lam+1)) by parity
        v2 = recover_bounded_integer(square[(zech[k] - k) % n], q)
        checks = (
            v3 == big_a,
            h_val == zq.scalar(big_a),
            b_val == zq.scalar(-phi_shift + phim1 * a_val),
            -phi2 * v2 == a_val,
            verify_aop_identity(lam),
            b_val == zq.scalar(-phi_shift - phim2 * v2),
        )
        sweep.case(
            f"lam={_label(lam)}",
            all(checks),
            lambda: (
                f"G3={v3}, h={_fmt(h_val)}, B={_fmt(b_val)}, -phi(2)G2={-phi2 * v2}",
                f"A={big_a}, a={a_val}, checks={checks}",
            ),
        )
    return sweep.done()


def verify_gamma_identities(job: JobSpec) -> Report:
    """Gamma_p product identities: the reflection product over i, the
    half-shift ratio, the multiplication products for t in {2, 3, 6} in both
    directions, and the one-off sixth/thirds ratio equal to phi(3).

    Arguments are residues num/d, d = lcm(q-1, t in {2, 3, 6} with p ∤ t):
    with j/(q-1) = u/d, <(c/t ± j/(q-1)) p^i> = ((c d/t ± u) p^i mod d)/d.
    """
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    p, r, q, m = job.p, job.r, job.q, zq.modulus
    cache = gamma_cache(zq.base)
    d = lcm(q - 1, *(t for t in (2, 3, 6) if t % p))
    step = d // (q - 1)  # j/(q-1) = j * step / d
    pis = [p**i % d for i in range(r)]
    gammas = [cache.residue(num, d) for num in range(d)]
    omega = zq.omega_generator_powers()
    log_minus_one = zq.dlog(-fq.one)
    sweep = _Sweep(job)

    def gprod(nums) -> int:
        acc = 1
        for num in nums:
            acc = acc * gammas[num % d] % m
        return acc

    for j in range(1, q - 1):
        u = j * step
        val = gprod([-u * pi for pi in pis] + [u * pi for pi in pis])  # <(1-u) p^i>, <u p^i>
        lhs = zq.scalar(val * (-1) ** r)
        rhs = omega[-j * log_minus_one % (q - 1)]  # omega-bar^j(-1)
        sweep.case(f"reflection j={j}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

    half = d // 2
    inv_den = pow(gprod(half * pi for pi in pis) ** 2, -1, m)
    for j in range(q - 1):
        if 2 * j == q - 1:
            continue
        u = j * step
        num = gprod([(half - u) * pi for pi in pis] + [(half + u) * pi for pi in pis])
        lhs = zq.scalar(num * inv_den)
        rhs = omega[-j * log_minus_one % (q - 1)]
        sweep.case(f"half-shift j={j}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

    for t in (2, 3, 6):
        if t % p == 0:
            continue  # lemma hypothesis p does not divide t
        c = d // t
        log_t = zq.dlog(fq.scalar(t))
        base = gprod(h * c * pi for pi in pis for h in range(1, t))
        for a in range(q - 1):
            u = a * step
            w_down = omega[-t * a * log_t % (q - 1)]  # omega(t)^(-t a)
            lhs = w_down.scale(base * gprod(-t * u * pi for pi in pis) % m)
            rhs = zq.scalar(gprod(((1 + h) * c - u) * pi for pi in pis for h in range(t)))
            sweep.case(f"product-down t={t} a={a}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

            w_up = omega[t * a * log_t % (q - 1)]  # omega(t)^(t a)
            lhs = w_up.scale(base * gprod(t * u * pi for pi in pis) % m)
            rhs = zq.scalar(gprod((h * c + u) * pi for pi in pis for h in range(t)))
            sweep.case(f"product-up t={t} a={a}", lhs == rhs, lambda: (_fmt(lhs), _fmt(rhs)))

    if p >= 5:
        num = gprod(k * (d // 3) * pi for pi in pis for k in (1, 2))
        den = gprod(k * (d // 6) * pi for pi in pis for k in (1, 5))
        val = num * pow(den, -1, m) % m
        expect = quadratic_char(fq.scalar(3)) % m
        sweep.case(
            "sixth-thirds ratio",
            val == expect,
            lambda: (_digits(val, p, job.precision), f"phi(3)={quadratic_char(fq.scalar(3))}"),
        )
    return sweep.done()


def verify_floor_lemmas(job: JobSpec) -> Report:
    """Exhaustive integer floor identities: family A over a != (q-1)/2, then
    family B over a > 0, each for all i < r, in ascending (a, i) order."""
    _require(job)
    p, q, r = job.p, job.q, job.r
    sweep = _Sweep(job)
    for a in range(q - 1):
        if 2 * a == q - 1:
            continue
        for i in range(r):
            ok = check_floor_identity_A(p, q, a, i)
            sweep.case(f"A a={a} i={i}", ok, lambda: ("sides differ", ""))
    for a in range(1, q - 1):
        for i in range(r):
            ok = check_floor_identity_B(p, q, a, i)
            sweep.case(f"B a={a} i={i}", ok, lambda: ("sides differ", ""))
    return sweep.done()


SUITES = {
    "euler": verify_euler_transform,
    "zeros": verify_zero_classification,
    "clausen": verify_clausen,
    "oracles": verify_proposition_oracles,
    "inversion": verify_inversion,
    "charsums": verify_charsum_chain,
    "gamma": verify_gamma_identities,
    "floors": verify_floor_lemmas,
}


def check_admissible(job: JobSpec) -> None:
    """Refuse a job whose Gamma_p digit table would exceed pgamma.MAX_TABLE_WORK
    (pgamma.InfeasibleError), or whose p^N its suite refuses (ValueError).

    Raises before any context is built, from the job and the resolved
    precision alone.  Skipped jobs and the floors suite evaluate no Gamma_p.
    """
    if job.suite == "floors" or job.p < SUITE_MIN_P[job.suite]:
        return
    precision = job.precision
    if precision is None:
        precision = default_precision(job.suite, job.p, job.r)
    check_feasible(job.p, precision)
    _require(replace(job, precision=precision))


def run_job(job: JobSpec) -> Report:
    """Run one job, skipping (not failing) fields outside the suite hypothesis."""
    precision = job.precision
    if precision is None:
        precision = default_precision(job.suite, job.p, job.r)
        job = replace(job, precision=precision)
    if job.p < SUITE_MIN_P[job.suite]:
        return Report(
            suite=job.suite,
            p=job.p,
            r=job.r,
            precision=precision,
            q=job.q,
            skipped=True,
        )
    return SUITES[job.suite](job)
