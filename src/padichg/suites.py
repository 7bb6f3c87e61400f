"""The six field suites: theorem-level verifiers over every point of one F_q.

Each suite compares hypergeometric values or character-sum oracles over
every admissible x (or lambda) of one field, and returns a Report listing
every failing case.  Sweeps follow the coefficient-lexicographic element
order, so the first recorded failure is the smallest failing input.  Suites
raise ValueError when called directly on a field violating their
hypothesis; run_job records such fields as skipped instead.

The job model (JobSpec, Report, run_job, admission) and the two integer
suites, gamma and floors, live in jobs and are re-exported here, with SUITES
naming all eight.  jobs.run_job imports this module, and with it the F_q,
Z_q, nGn and character-sum layers, at the first field job.  The shared F_q
contexts are kept here, one per (p, r); each holds its Z_q contexts and
every other table derived from it (zmod.memo).

The nGn suites read gfunction.value_table by k = dlog x.  With n = q-1 and
h = n/2, indices mod n: 1/x is -k, 1 - x is zech[k+h], x + 1 is zech[k],
(x-1)/x is zech[k+h] + h - k, -1/x is h - k, and phi is index parity.  The
oracle tables (finitefield.root_table, charsums) are read the same way.
Every table a sweep reads holds integers: the nGn, h and B values are
certified Z_p scalars, so the suites compare residues mod p^N as integers,
recover small values by an integer balanced lift, and print a failing value
with jobs._fmt_scalar, in the Z_q coordinates of a scalar.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .charsums import A_values, B_values, a_values, aop_identity_at, h_values
from .charsums import sum_A, sum_a, sum_B, sum_h  # noqa: F401  (bench/tracing.py wraps them here)
from .charsums import verify_aop_identity  # noqa: F401  (bench/tracing.py wraps it here)
from .finitefield import FqContext, memo, quadratic_char, root_table
from .finitefield import count_roots  # noqa: F401  (bench/tracing.py wraps it here)
from .gfunction import GParams, evaluate_g, value_table
from .gfunction import evaluate_g_inverted  # noqa: F401  (bench/tracing.py wraps it here)
from .jobs import (  # noqa: F401  (the job model, re-exported)
    DEFAULT_BATTERY,
    SUITE_MIN_P,
    SUITE_NAMES,
    CaseFailure,
    JobSpec,
    Report,
    _digits,
    _fmt_scalar,
    _require,
    _Sweep,
    check_admissible,
    default_precision,
    run_job,
    verify_floor_lemmas,
    verify_gamma_identities,
)
from .padic import UnramifiedContext
from .rational import (  # noqa: F401  (bench/tracing.py wraps them here)
    check_floor_identity_A,
    check_floor_identity_B,
    frac,
)
from .zmod import recover_residue

_HALF = Fraction(1, 2)
_EULER_LEFT = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(0), _HALF))
_EULER_RIGHT = ((Fraction(1, 6), Fraction(5, 6)), (Fraction(0), _HALF))
_CLAUSEN_CUBE = ((_HALF, _HALF, _HALF), (Fraction(0),) * 3)
_CLAUSEN_SQUARE = ((Fraction(1, 4), Fraction(3, 4)), (Fraction(0), Fraction(0)))
_CUBIC_27 = (0, 27, -27)  # P1 of the cubic 27y^2(1-y) - 4x
_CUBIC_SCALED = (0, -1, 1)  # P1 of the cubic y^3 - y^2 + 4x/27


_fq_cache: dict[tuple[int, int], FqContext] = {}


def field_context(p: int, r: int) -> FqContext:
    ctx = _fq_cache.get((p, r))
    if ctx is None:
        ctx = _fq_cache[p, r] = FqContext(p, r)
    return ctx


def contexts(p: int, r: int, precision: int) -> tuple[FqContext, UnramifiedContext]:
    """The shared F_q context and the Z_q context at this precision that it holds."""
    fq = field_context(p, r)
    return fq, memo(fq, UnramifiedContext, precision)


def _label(x: tuple) -> str:
    return str(x[0]) if len(x) == 1 else str(x)


def _sweep_points(fq: FqContext, skip=()):
    """(x coefficients, dlog x) for each x != 0 of F_q, dlog x not in skip, in coefficient order."""
    dlog = fq.dlog
    for x in itertools.islice(itertools.product(range(fq.p), repeat=fq.r), 1, None):  # x != 0
        k = dlog[x]
        if k not in skip:
            yield x, k


def _phi(e: int) -> int:
    return -1 if e & 1 else 1  # phi(g^e)


def _phi_scaled(value: int, k: int, m: int) -> int:
    """phi(g^k) value mod m; q - 1 is even, so any representative k gives (-1)^k."""
    return -value % m if k & 1 else value


def _fmt_pair(zq: UnramifiedContext, lhs: int, rhs: int) -> tuple[str, str]:
    """Two scalar residues as jobs._fmt_scalar prints them."""
    p, r, n = zq.base.p, zq.r, zq.precision
    return _fmt_scalar(lhs, p, r, n), _fmt_scalar(rhs, p, r, n)


def _recovery_bound(modulus: int) -> int:
    # widest certifiable bound for the small-value suites, capped at 4
    return min(4, (modulus - 1) // 2)


def verify_euler_transform(job: JobSpec) -> Report:
    """G[1/3,2/3;0,1/2 | 1/x] = phi(1-x) G[1/6,5/6;0,1/2 | 1/x] for x outside
    {0,1}, plus the x = 1 case with phi(3) in place of phi(1-x)."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, m, zech = fq.q - 1, zq.modulus, fq.zech_table()
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, skip=(0,)):
        lhs = left[-k % n]
        rhs = _phi_scaled(right[-k % n], zech[(k + n // 2) % n], m)
        sweep.case(f"x={_label(x)}", lhs == rhs, lambda: _fmt_pair(zq, lhs, rhs))
    # x = 1 through the GParams facade, whose values here are Z_p scalars
    lhs = evaluate_g(GParams(*_EULER_LEFT, fq.one, zq)).value.coeffs[0]
    rhs = evaluate_g(GParams(*_EULER_RIGHT, fq.one, zq)).value.coeffs[0]
    rhs = _phi_scaled(rhs, fq.scalar(3).dlog(), m)
    sweep.case("x=1 (phi(3) case)", lhs == rhs, lambda: _fmt_pair(zq, lhs, rhs))
    return sweep.done()


def verify_zero_classification(job: JobSpec) -> Report:
    """Both G-values vanish exactly iff phi(3x(1-x)) = -1 iff the cubic
    27y^2(1-y) - 4x has exactly one root."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, m, zech = fq.q - 1, zq.modulus, fq.zech_table()
    bound = _recovery_bound(m)
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    roots, d3, d4 = root_table(fq, _CUBIC_27), fq.scalar(3).dlog(), fq.scalar(4).dlog()
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, skip=(0,)):
        v1 = recover_residue(left[-k % n], m, bound)
        v2 = recover_residue(right[-k % n], m, bound)
        crit = _phi(d3 + k + zech[(k + n // 2) % n]) == -1  # 1 - x != 0 off x = 1
        one_root = roots[(d4 + k) % n] == 1  # the root count at -c_0 = 4x
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
    q, n, m, zech = fq.q, fq.q - 1, zq.modulus, fq.zech_table()
    h = n // 2
    cube, square = value_table(*_CLAUSEN_CUBE, zq), value_table(*_CLAUSEN_SQUARE, zq)
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq, skip=(0,)):
        z = zech[(k + h) % n]
        lhs = cube[-k % n]
        g = square[(z + h - k) % n]
        rhs = _phi_scaled((g * g - q) % m, z, m)
        sweep.case(f"x={_label(x)}", lhs == rhs, lambda: _fmt_pair(zq, lhs, rhs))
    return sweep.done()


def verify_proposition_oracles(job: JobSpec) -> Report:
    """G[1/3,2/3;0,1/2 | 1/x] + 1 and 1 + phi(3x) G[1/6,5/6;0,1/2 | 1/x] both
    equal the root count of the scaled cubic, for every x != 0."""
    _require(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, m = fq.q - 1, zq.modulus
    bound = _recovery_bound(m)
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    roots1, roots2 = root_table(fq, _CUBIC_27), root_table(fq, _CUBIC_SCALED)
    d3, d4 = fq.scalar(3).dlog(), fq.scalar(4).dlog()
    d4_27 = fq.scalar(-4).dlog() - fq.scalar(27).dlog()  # -c_0 = 4x, then -4x/27
    sweep = _Sweep(job)
    for x, k in _sweep_points(fq):
        c1, c2 = roots1[(d4 + k) % n], roots2[(d4_27 + k) % n]
        v1 = recover_residue(left[-k % n], m, bound)
        v2 = recover_residue(right[-k % n], m, bound)
        phi3x = _phi(d3 + k)
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
    for x, k in _sweep_points(fq):
        lhs, rhs = swapped[k], right[-k % n]
        sweep.case(f"x={_label(x)}", lhs == rhs, lambda: _fmt_pair(zq, lhs, rhs))
    return sweep.done()


def verify_charsum_chain(job: JobSpec) -> Report:
    """Six checks per lambda outside {0,-1}:

    (i)   G3[1/2,1/2,1/2;0,0,0 | -1/lam] recovers to A(lam,q);
    (ii)  h(lam) = A(lam,q) mod p^N;
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
    q, n, m, zech = fq.q, fq.q - 1, zq.modulus, fq.zech_table()
    h, d4 = n // 2, fq.scalar(4).dlog()
    cube, square = value_table(*_CLAUSEN_CUBE, zq), value_table(*_CLAUSEN_SQUARE, zq)
    small_a, big_as, hs, bs = a_values(fq), A_values(fq), h_values(zq), B_values(zq)
    phi2 = quadratic_char(fq.scalar(2))
    phim1 = quadratic_char(fq.scalar(-1))
    phim2 = quadratic_char(fq.scalar(-2))
    sweep = _Sweep(job)
    for lam, k in _sweep_points(fq, skip=(h,)):
        z = zech[k]  # dlog(lam + 1)
        a_val = small_a[-z % n]
        big_a = big_as[k]
        v3 = recover_residue(cube[(h - k) % n], m, q * q)
        h_val = hs[k]
        b_val = bs[(k - d4 - z) % n]  # lam / (4 (lam + 1))
        phi_shift = phi2 * _phi(k - z)  # phi(2 lam/(lam+1))
        v2 = recover_residue(square[(z - k) % n], m, q)
        checks = (
            v3 == big_a,
            h_val == big_a % m,
            b_val == (-phi_shift + phim1 * a_val) % m,
            -phi2 * v2 == a_val,
            aop_identity_at(fq, k),
            b_val == (-phi_shift - phim2 * v2) % m,
        )
        sweep.case(
            f"lam={_label(lam)}",
            all(checks),
            lambda: (
                f"G3={v3}, h={_fmt_scalar(h_val, job.p, job.r, job.precision)}, "
                f"B={_fmt_scalar(b_val, job.p, job.r, job.precision)}, -phi(2)G2={-phi2 * v2}",
                f"A={big_a}, a={a_val}, checks={checks}",
            ),
        )
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
