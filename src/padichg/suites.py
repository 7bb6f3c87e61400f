"""The six field suites: theorem-level verifiers over every point of one F_q.

Three are relations between two nGn families, each a record of RELATIONS
swept by verify_relation: euler, clausen and inversion.  Three compare nGn
values with oracles: zeros and oracles with root counts of cubics, charsums
with character sums.  A new relation of the same shape is a new record.

Each suite compares hypergeometric values or character-sum oracles over
every admissible x (or lambda) of one field: it opens with
report = Report(job), counts each case on it, and returns it, so it lists
every failing case.  Sweeps follow the coefficient-lexicographic element
order, so the first recorded failure is the smallest failing input.
Report(job) raises ValueError on a field violating the suite's hypothesis,
so a direct call does; run_job records such fields as skipped instead, and
times each job itself.

The job model (JobSpec, which admits a job when it is made, Report,
run_job) lives in jobs and is re-exported here; a job reaches a suite only
once admitted.  SUITES maps the six field suite names to their verifiers;
the integer suites gamma and floors are intsuites.SUITES.  jobs.run_job
imports this module, and with it the F_q, Z_q and nGn layers, at the first
field job.  charsums loads at the first charsums job, which alone reads its
tables.  The shared F_q contexts are kept here, one per (p, r); each holds
its Z_q contexts and every other table derived from it (zmod.memo).

The nGn suites read gfunction.value_table by k = dlog x.  With n = q-1 and
h = n/2, indices mod n: 1/x is -k, 1 - x is zech[k+h], x + 1 is zech[k],
(x-1)/x is zech[k+h] + h - k, -1/x is h - k, and phi is index parity.  The
oracle tables (finitefield.root_table, charsums) are read the same way, and
the dlog and phi of a small integer come from FqContext.scalar_dlog and
scalar_char.  Every table a sweep reads holds integers: the nGn values are
certified Z_p scalars and the h and B values exact integers mod p^N, so the
suites compare residues mod p^N as integers, recover small values by an
integer balanced lift, and print a failing value with jobs._fmt_scalar, in
the Z_q coordinates of a scalar.
The families are written as reduced (num, den) pairs, the key of
value_table, so no suite builds a Fraction or an element, and a field run
loads neither fractions nor padichg.elements.
"""

import functools
import itertools
from importlib import import_module

from .finitefield import FqContext, memo, root_table
from .gfunction import value_table
from .jobs import (  # noqa: F401  (the job model, re-exported)
    DEFAULT_BATTERY,
    SUITE_MIN_P,
    SUITE_NAMES,
    CaseFailure,
    JobSpec,
    Report,
    _digits,
    _fmt_scalar,
    default_precision,
    run_job,
)
from .padic import UnramifiedContext
from .zmod import recover_residue

# name -> its module, for the names that bench/tracing.py rebinds here.  No
# suite calls them, so __getattr__ serves each one from its module, imported
# when it is first asked for: an euler run never loads charsums, rational
# or elements.
_TRACED = {
    "sum_A": "charsums",
    "sum_a": "charsums",
    "sum_B": "charsums",
    "sum_h": "charsums",
    "verify_aop_identity": "charsums",
    "count_roots": "finitefield",
    "evaluate_g": "elements",
    "evaluate_g_inverted": "elements",
    "check_floor_identity_A": "rational",
    "check_floor_identity_B": "rational",
    "frac": "rational",
}


def __getattr__(name: str):
    module = _TRACED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)


# the nGn families as (upper, lower), each parameter the reduced (num, den)
# pair that keys gfunction.value_table
_HALF, _ZERO = (1, 2), (0, 1)
_EULER_LEFT = (((1, 3), (2, 3)), (_ZERO, _HALF))
_EULER_RIGHT = (((1, 6), (5, 6)), (_ZERO, _HALF))
_CLAUSEN_CUBE = ((_HALF,) * 3, (_ZERO,) * 3)
_CLAUSEN_SQUARE = (((1, 4), (3, 4)), (_ZERO, _ZERO))
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


def _recovery_bound(modulus: int) -> int:
    # widest certifiable bound for the small-value suites, capped at 4
    return min(4, (modulus - 1) // 2)


def verify_relation(left, right, at, square, skip, at_one, job: JobSpec) -> Report:
    """G[left | g^i] = phi(g^e) G[right | g^j], or phi(g^e) (G[right | g^j]^2 - q)
    when square, at each x != 0 with dlog x outside skip, where
    (i, j, e) = at(dlog x, dlog(1-x), (q-1)/2); then, if at_one is an
    integer, the x = 1 case with dlog at_one in place of dlog(1-x).

    This is the shape of Greene's transformation laws (Trans. AMS 301,
    1987) in McCarthy's nGn form (IJNT 8, 2012): one family read at one
    argument map of x, the other at a second, a phi sign on the right.
    """
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    q, n, m, zech = fq.q, fq.q - 1, zq.modulus, fq.zech_table()
    h, fmt = n // 2, (job.p, job.r, job.precision)
    lt, rt = value_table(*left, zq), value_table(*right, zq)
    cases = ((f"x={_label(x)}", k, zech[(k + h) % n]) for x, k in _sweep_points(fq, skip))
    if at_one is not None:
        cases = itertools.chain(cases, [(f"x=1 (phi({at_one}) case)", 0, fq.scalar_dlog(at_one))])
    for label, k, z in cases:
        i, j, e = at(k, z, h)
        lhs, g = lt[i % n], rt[j % n]
        rhs = (g * g - q) % m if square else g
        rhs = -rhs % m if e & 1 else rhs  # phi(g^e) = (-1)^e, q - 1 being even
        report.case(label, lhs == rhs, lambda: (_fmt_scalar(lhs, *fmt), _fmt_scalar(rhs, *fmt)))
    return report


def verify_zero_classification(job: JobSpec) -> Report:
    """Both G-values vanish exactly iff phi(3x(1-x)) = -1 iff the cubic
    27y^2(1-y) - 4x has exactly one root."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, m, zech = fq.q - 1, zq.modulus, fq.zech_table()
    bound = _recovery_bound(m)
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    roots, d3, d4 = root_table(fq, _CUBIC_27), fq.scalar_dlog(3), fq.scalar_dlog(4)
    for x, k in _sweep_points(fq, skip=(0,)):
        v1 = recover_residue(left[-k % n], m, bound)
        v2 = recover_residue(right[-k % n], m, bound)
        crit = _phi(d3 + k + zech[(k + n // 2) % n]) == -1  # 1 - x != 0 off x = 1
        one_root = roots[(d4 + k) % n] == 1  # the root count at -c_0 = 4x
        ok = ((v1 == 0) == crit) and ((v2 == 0) == crit) and (crit == one_root)
        report.case(
            f"x={_label(x)}",
            ok,
            lambda: (
                f"G values ({v1}, {v2})",
                f"phi(3x(1-x))={'-1' if crit else '+1'}, single-root={one_root}",
            ),
        )
    return report


def verify_proposition_oracles(job: JobSpec) -> Report:
    """G[1/3,2/3;0,1/2 | 1/x] + 1 and 1 + phi(3x) G[1/6,5/6;0,1/2 | 1/x] both
    equal the root count of the scaled cubic, for every x != 0."""
    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    n, m = fq.q - 1, zq.modulus
    bound = _recovery_bound(m)
    left, right = value_table(*_EULER_LEFT, zq), value_table(*_EULER_RIGHT, zq)
    roots1, roots2 = root_table(fq, _CUBIC_27), root_table(fq, _CUBIC_SCALED)
    d3, d4 = fq.scalar_dlog(3), fq.scalar_dlog(4)
    d4_27 = fq.scalar_dlog(-4) - fq.scalar_dlog(27)  # -c_0 = 4x, then -4x/27
    for x, k in _sweep_points(fq):
        c1, c2 = roots1[(d4 + k) % n], roots2[(d4_27 + k) % n]
        v1 = recover_residue(left[-k % n], m, bound)
        v2 = recover_residue(right[-k % n], m, bound)
        phi3x = _phi(d3 + k)
        ok = (v1 + 1 == c1) and (1 + phi3x * v2 == c2) and (c1 == c2)
        report.case(
            f"x={_label(x)}",
            ok,
            lambda: (
                f"G+1={v1 + 1}, 1+phi(3x)G'={1 + phi3x * v2}",
                f"root counts ({c1}, {c2})",
            ),
        )
    return report


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
    from .charsums import A_values, B_values, a_values, h_values

    report = Report(job)
    fq, zq = contexts(job.p, job.r, job.precision)
    q, n, m, zech = fq.q, fq.q - 1, zq.modulus, fq.zech_table()
    h, d4 = n // 2, fq.scalar_dlog(4)
    cube, square = value_table(*_CLAUSEN_CUBE, zq), value_table(*_CLAUSEN_SQUARE, zq)
    small_a, big_as, hs, bs = a_values(fq), A_values(fq), h_values(zq), B_values(zq)
    phi2, phim1, phim2 = fq.scalar_char(2), fq.scalar_char(-1), fq.scalar_char(-2)
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
            big_a == _phi(z) * (a_val * a_val - q),
            b_val == (-phi_shift - phim2 * v2) % m,
        )
        report.case(
            f"lam={_label(lam)}",
            all(checks),
            lambda: (
                f"G3={v3}, h={_fmt_scalar(h_val, job.p, job.r, job.precision)}, "
                f"B={_fmt_scalar(b_val, job.p, job.r, job.precision)}, -phi(2)G2={-phi2 * v2}",
                f"A={big_a}, a={a_val}, checks={checks}",
            ),
        )
    return report


# the relation suites as verify_relation records (left, right, at, square,
# skip, at_one); at maps (k, z, h) to the indices (i, j, e) of its docstring
RELATIONS = {
    # G[1/3,2/3;0,1/2 | 1/x] = phi(1-x) G[1/6,5/6;0,1/2 | 1/x], and phi(3) at x = 1
    "euler": (_EULER_LEFT, _EULER_RIGHT, lambda k, z, h: (-k, -k, z), False, (0,), 3),
    # G3[1/2,1/2,1/2;0,0,0 | 1/x] = phi(1-x) (G2[1/4,3/4;0,0 | (x-1)/x]^2 - q); admits p = 3
    "clausen": (
        _CLAUSEN_CUBE, _CLAUSEN_SQUARE, lambda k, z, h: (-k, z + h - k, z), True, (0,), None
    ),
    # G[0,1/2;1/6,5/6 | x] = G[1/6,5/6;0,1/2 | 1/x] for all x != 0
    "inversion": (_EULER_RIGHT[::-1], _EULER_RIGHT, lambda k, z, h: (k, -k, 0), False, (), None),
}

SUITES = {
    "euler": functools.partial(verify_relation, *RELATIONS["euler"]),
    "zeros": verify_zero_classification,
    "clausen": functools.partial(verify_relation, *RELATIONS["clausen"]),
    "oracles": verify_proposition_oracles,
    "inversion": functools.partial(verify_relation, *RELATIONS["inversion"]),
    "charsums": verify_charsum_chain,
}
