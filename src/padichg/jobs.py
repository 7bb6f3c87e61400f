"""The job model, admission, and the two integer suites (gamma, floors).

SUITE_POLICY states, once per suite, the least p of its hypothesis and its
default precision; SUITE_NAMES, SUITE_MIN_P and default_precision read it.
A job is one suite at one field and precision (JobSpec); run_job runs it
and returns its Report, which counts every case as the suite checks it and
lists every failing one.  Sweeps follow ascending case order, so the first
recorded failure is the smallest failing input.

Admission is JobSpec's own: a job too costly to finish (Gamma_p table work,
packed-correlation size) or below its suite's recovery precision is refused
when it is made, from its integers alone, so every JobSpec that exists can
run.  A field below its suite's least p is admitted; run_job records it as
skipped, and the suites, called directly on it, raise ValueError.

The gamma and floors suites are integer facts: the Gamma_p product
formulas mod p^N and the floor lemmas.  They live here and need only
pgamma, rational and zmod, so a run whose jobs are all gamma or floors
loads no F_q, Z_q or nGn code.  The six field suites are in suites, which
run_job imports at the first field job.
"""

from __future__ import annotations

import time
from collections import namedtuple
from math import lcm

from . import rational
from .pgamma import InfeasibleError, check_feasible, gamma_cache
from .zmod import PadicContext, balanced_residue, check_field

DEFAULT_BATTERY = ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2))

# suite -> (least p, floor N, k).  The least p is the one its hypothesis
# admits (the denominators 3 and 6 need p >= 5).  The default precision is
# the least N >= floor with p^N > 2 q^k, which is max(floor, k r + 1) for
# odd p, as q^k < 2 q^k < p q^k.  k = 2 lets charsums recover its double
# sum, k = 1 keeps clausen's q phi(1-x) term nonzero mod p^N, and the other
# suites have k = 0: their floor 4 gives p^N > 8, twice the bound 4 of the
# small values that zeros and oracles recover.
SUITE_POLICY = {
    "euler": (5, 4, 0),
    "zeros": (5, 4, 0),
    "clausen": (3, 5, 1),
    "oracles": (5, 4, 0),
    "inversion": (5, 4, 0),
    "charsums": (3, 4, 2),
    "gamma": (3, 4, 0),
    "floors": (5, 4, 0),
}
SUITE_NAMES = tuple(SUITE_POLICY)
SUITE_MIN_P = {suite: least_p for suite, (least_p, _, _) in SUITE_POLICY.items()}


class JobSpec(namedtuple("JobSpec", "p r suite precision record_cases")):
    """One verification job: a field, a precision, a suite, and whether its
    report keeps one row per case (csv --verbose).

    A precision of None is resolved here, to default_precision(suite, p, r).
    A job its suite would run is admitted here too (_admit): a refusal is a
    ValueError, or an InfeasibleError for one too costly, that names the job.
    """

    __slots__ = ()

    def __new__(
        cls,
        p: int,
        r: int,
        suite: str,
        precision: int | None = None,
        record_cases: bool = False,
    ):
        if suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {suite!r}")
        check_field(p, r)
        if precision is None:
            precision = default_precision(suite, p, r)
        elif precision < 1:
            raise ValueError("precision must be >= 1")
        if suite != "floors" and p >= SUITE_MIN_P[suite]:  # floors evaluates no Gamma_p
            try:
                _admit(p, r, suite, precision)
            except ValueError as exc:
                raise type(exc)(f"job {suite} p={p} r={r} refused: {exc}") from None
        return super().__new__(cls, p, r, suite, precision, record_cases)

    @classmethod
    def _make(cls, iterable):
        # route _replace through __new__, so a replaced field is checked too
        return cls(*iterable)

    @property
    def q(self) -> int:
        return self.p**self.r


CaseFailure = namedtuple("CaseFailure", "case left right")


class Report:
    """Outcome of one job, counted case by case from its creation;
    cases_total = cases_passed + len(failures).  A skipped job counts none."""

    def __init__(self, job: JobSpec, skipped: bool = False):
        self.suite, self.p, self.r = job.suite, job.p, job.r
        self.precision, self.q = job.precision, job.q
        self.record_cases = job.record_cases
        self.skipped = skipped
        self.cases_total = self.cases_passed = 0
        self.failures: list[CaseFailure] = []
        self.case_rows: list[dict] = []
        self.elapsed_ms = 0.0
        self._t0 = time.perf_counter()

    def case(self, label: str, ok: bool, describe):
        """Count one case; describe() -> (left, right) is called only on failure."""
        self.cases_total += 1
        if ok:
            self.cases_passed += 1
            left = right = ""
        else:
            left, right = describe()
            self.failures.append(CaseFailure(label, left, right))
        if self.record_cases:
            self.case_rows.append({"case": label, "ok": ok, "left": left, "right": right})

    def done(self) -> Report:
        """Stop the clock and return the report."""
        self.elapsed_ms = (time.perf_counter() - self._t0) * 1000.0
        return self

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
            "failures": [f._asdict() for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
        }


def default_precision(suite: str, p: int, r: int) -> int:
    """max(floor, k r + 1) from SUITE_POLICY, the least N >= floor with
    p^N > 2 q^k for every odd p; clausen's floor of 5 matches its stated
    tolerance."""
    _, floor_n, k = SUITE_POLICY[suite]
    return max(floor_n, k * r + 1)


def _digits(v: int, p: int, n: int) -> str:
    out = []
    for _ in range(n):
        v, d = divmod(v, p)
        out.append(str(d))
    return ".".join(out)


def _fmt_scalar(v: int, p: int, r: int, n: int) -> str:
    """The integer v mod p^n as a Z_q scalar: its base-p digits (least
    significant first), r-1 zero coordinates, and its balanced lift."""
    m = p**n
    v %= m
    coords = [_digits(v, p, n)] + [_digits(0, p, n)] * (r - 1)
    return "|".join(coords) + f" (={balanced_residue(v, m)})"


def _require(job: JobSpec):
    """Refuse a direct suite call on a field below the suite's least p."""
    min_p = SUITE_MIN_P[job.suite]
    if job.p < min_p:
        raise ValueError(f"suite {job.suite!r} requires p >= {min_p}, got p={job.p}")


def verify_gamma_identities(job: JobSpec) -> Report:
    """Gamma_p product identities: the reflection product over i, the
    half-shift ratio, the multiplication products for t in {2, 3, 6} in both
    directions, and the one-off sixth/thirds ratio equal to phi(3).

    Arguments are residues num/d, d = lcm(q-1, t in {2, 3, 6} with p ∤ t):
    with j/(q-1) = u/d, <(c/t ± j/(q-1)) p^i> = ((c d/t ± u) p^i mod d)/d.
    Both sides are integers mod p^N: omega(-1) = -1, for t in F_p,
    omega(t) = t^(p^(N-1)) mod p^N, and phi(3) = 3^((q-1)/2) mod p
    (Euler's criterion), so no field context is built.
    """
    _require(job)
    p, r, q, n = job.p, job.r, job.q, job.precision
    m = p**n
    d = lcm(q - 1, *(t for t in (2, 3, 6) if t % p))
    step = d // (q - 1)  # j/(q-1) = j * step / d
    pis = [p**i % d for i in range(r)]
    gammas = gamma_cache(PadicContext(p, n)).residues(d)
    report = Report(job)

    def gprod(nums) -> int:
        acc = 1
        for num in nums:
            acc = acc * gammas[num % d] % m
        return acc

    def show():  # the current case's residues; Report.case calls it at once
        return _fmt_scalar(lhs, p, r, n), _fmt_scalar(rhs, p, r, n)

    for j in range(1, q - 1):
        u = j * step
        val = gprod([-u * pi for pi in pis] + [u * pi for pi in pis])  # <(1-u) p^i>, <u p^i>
        lhs = val * (-1) ** r % m
        rhs = (-1) ** j % m  # omega-bar^j(-1)
        report.case(f"reflection j={j}", lhs == rhs, show)

    half = d // 2
    inv_den = pow(gprod(half * pi for pi in pis) ** 2, -1, m)
    for j in range(q - 1):
        if 2 * j == q - 1:
            continue
        u = j * step
        num = gprod([(half - u) * pi for pi in pis] + [(half + u) * pi for pi in pis])
        lhs = num * inv_den % m
        rhs = (-1) ** j % m
        report.case(f"half-shift j={j}", lhs == rhs, show)

    for t in (2, 3, 6):
        if t % p == 0:
            continue  # lemma hypothesis p does not divide t
        c = d // t
        base = gprod(h * c * pi for pi in pis for h in range(1, t))
        w_step = pow(t, t * p ** (n - 1), m)  # omega(t)^t
        w_step_inv = pow(w_step, -1, m)
        w_up = w_down = 1  # omega(t)^(t a), omega(t)^(-t a)
        for a in range(q - 1):
            u = a * step
            lhs = w_down * base % m * gprod(-t * u * pi for pi in pis) % m
            rhs = gprod(((1 + h) * c - u) * pi for pi in pis for h in range(t))
            report.case(f"product-down t={t} a={a}", lhs == rhs, show)

            lhs = w_up * base % m * gprod(t * u * pi for pi in pis) % m
            rhs = gprod((h * c + u) * pi for pi in pis for h in range(t))
            report.case(f"product-up t={t} a={a}", lhs == rhs, show)
            w_up, w_down = w_up * w_step % m, w_down * w_step_inv % m

    if p >= 5:
        num = gprod(k * (d // 3) * pi for pi in pis for k in (1, 2))
        den = gprod(k * (d // 6) * pi for pi in pis for k in (1, 5))
        val = num * pow(den, -1, m) % m
        phi3 = 1 if pow(3, (q - 1) // 2, p) == 1 else -1
        report.case(
            "sixth-thirds ratio",
            val == phi3 % m,
            lambda: (_digits(val, p, n), f"phi(3)={phi3}"),
        )
    return report.done()


def verify_floor_lemmas(job: JobSpec) -> Report:
    """Exhaustive integer floor identities: family A over a != (q-1)/2, then
    family B over a > 0, each for all i < r, in ascending (a, i) order."""
    _require(job)
    p, q, r = job.p, job.q, job.r
    report = Report(job)
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
    return report.done()


INTEGER_SUITES = {"gamma": verify_gamma_identities, "floors": verify_floor_lemmas}


# Bound on the decimal digits of the packed correlation product of a field
# suite (packed_digits).  Of the runs measured on a 2-vCPU shared machine,
# the largest it admits, 7^5 euler at N = 200 (1.56e8 digits), took 29-65 s
# and peaked at 501 MB of RSS; 3^10 clausen at N = 300 (9.9e8 digits) ran
# out of a 1.5 GB address space after 55 s.  Every default precision at
# q <= 2^16 is below 10^8 digits.
MAX_PACKED_DIGITS = 3 * 10**8


def packed_digits(p: int, r: int, precision: int) -> int:
    """Decimal digits of the product that correlates a coefficient table
    with the packed chirp: 3(q-1)-2 blocks of 2r-1 slots, each slot as wide
    as finitefield.pack makes it for the chirp bound (q-1) r (p^N-1)^2."""
    n = p**r - 1
    width = len(str(2 * n * r * (p**precision - 1) ** 2))
    return (3 * n - 2) * (2 * r - 1) * width


def _admit(p: int, r: int, suite: str, precision: int) -> None:
    """Refuse a job whose Gamma_p digit table would exceed pgamma.MAX_TABLE_WORK
    or whose packed correlation would exceed MAX_PACKED_DIGITS
    (pgamma.InfeasibleError), or whose p^N its suite cannot recover from
    (ValueError).  Only the field suites correlate."""
    check_feasible(p, precision)
    if suite in ("zeros", "oracles") and p**precision < 7:
        raise ValueError("insufficient precision: integer recovery needs p^N >= 7")
    if suite == "charsums" and precision <= 2 * r:  # p^N <= 2q^2 for odd p
        raise ValueError("insufficient precision: A-recovery needs p^N > 2q^2")
    if suite not in INTEGER_SUITES:
        digits = packed_digits(p, r, precision)
        if digits > MAX_PACKED_DIGITS:
            raise InfeasibleError(
                f"the packed correlation at q = {p**r}, N = {precision} has about"
                f" {digits:.2e} digits (more than {MAX_PACKED_DIGITS:.0e})"
            )


def run_job(job: JobSpec) -> Report:
    """Run one job, skipping (not failing) fields outside the suite hypothesis.

    A suite that raises ArithmeticError (a value past its recovery bound, a
    broken certificate) fails its job: the Report holds one failure naming
    the exception, so the run still writes every record.
    """
    if job.p < SUITE_MIN_P[job.suite]:
        return Report(job, skipped=True)
    verify = INTEGER_SUITES.get(job.suite)
    if verify is None:
        from .suites import SUITES  # the field layers load at the first field job

        verify = SUITES[job.suite]
    aborted = Report(job)  # started now, so it times the job up to the exception
    try:
        return verify(job)
    except ArithmeticError as exc:
        aborted.case("aborted", False, lambda: (type(exc).__name__, str(exc)))
        return aborted.done()
