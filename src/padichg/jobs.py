"""The job model and admission: what a run's jobs are, and which may run.

SUITE_POLICY states, once per suite, the least p of its hypothesis and its
default precision; SUITE_NAMES, SUITE_MIN_P and default_precision read it.
A job is one suite at one field and precision (JobSpec); run_job runs it
and returns its Report, which counts every case as the suite checks it and
lists every failing one.  Sweeps follow ascending case order, so the first
recorded failure is the smallest failing input.  This module owns a job's
lifecycle: run_job times the suite call and turns an ArithmeticError into
an aborted report, so a suite only opens its Report and counts its cases.

Admission is JobSpec's own: a job too costly to finish (Gamma_p table work,
packed-correlation size) or below its suite's recovery precision is refused
when it is made, from its integers alone, so every JobSpec that exists can
run.  A field below its suite's least p is admitted; run_job records it as
skipped, and Report(job) refuses it with ValueError, so a suite called
directly on it raises.

run_job loads the code of a job's suite at the first job that needs it:
intsuites at the first gamma or floors job (INTEGER_SUITES), suites, with
the F_q, Z_q and nGn layers, at the first of the six field suites.  This
module needs only pgamma and zmod, so parsing a run and admitting its jobs
load neither.
"""

import time
from collections import namedtuple

from .pgamma import InfeasibleError, check_feasible
from .zmod import balanced_residue, check_field

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
# the suites of integer facts, run by intsuites; suites runs the other six
INTEGER_SUITES = ("gamma", "floors")
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
    cases_total = cases_passed + len(failures).  A skipped job counts none.

    Only a skipped report may hold a field below its suite's least p: a
    suite opens its report first, so a direct call on such a field raises
    ValueError here.  run_job sets elapsed_ms."""

    def __init__(self, job: JobSpec, skipped: bool = False):
        min_p = SUITE_MIN_P[job.suite]
        if job.p < min_p and not skipped:
            raise ValueError(f"suite {job.suite!r} requires p >= {min_p}, got p={job.p}")
        self.suite, self.p, self.r = job.suite, job.p, job.r
        self.precision, self.q = job.precision, job.q
        self.record_cases = job.record_cases
        self.skipped = skipped
        self.cases_total = self.cases_passed = 0
        self.failures: list[CaseFailure] = []
        self.case_rows: list[tuple] = []
        self.elapsed_ms = 0.0

    def case(self, label: str, ok: bool, describe):
        """Count one case; describe() -> (left, right) is called only on failure.
        A report that records cases keeps (label, ok, left, right), the tail of
        the case's verbose csv row."""
        self.cases_total += 1
        if ok:
            self.cases_passed += 1
            left = right = ""
        else:
            left, right = describe()
            self.failures.append(CaseFailure(label, left, right))
        if self.record_cases:
            self.case_rows.append((label, ok, left, right))

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


# Bound on the decimal digits of the packed correlation product of a field
# suite (packed_digits).  It was fitted as 3*10^8 to the linear product of
# 3(q-1)-2 blocks: of the runs measured on a 2-vCPU shared machine, the
# largest it admitted, 7^5 euler at N = 200, took 29-65 s and peaked at
# 501 MB of RSS; 3^10 clausen at N = 300 ran out of a 1.5 GB address space
# after 55 s.  The wrapped product has 2(q-1)-1 blocks, and 2*10^8 of its
# digits admits exactly the cells 3*10^8 did (checked at every p^r <= 2^16
# and every N with p N^2 <= pgamma.MAX_TABLE_WORK).  Every default
# precision at q <= 2^16 is below 7*10^7 digits.
MAX_PACKED_DIGITS = 2 * 10**8


def packed_digits(p: int, r: int, precision: int) -> int:
    """Decimal digits of the product that correlates a coefficient table
    with the packed chirp: 2(q-1)-1 blocks of 2r-1 slots, each slot as wide
    as finitefield.pack makes it for the chirp bound (q-1) r (p^N-1)^2."""
    n = p**r - 1
    width = len(str(2 * n * r * (p**precision - 1) ** 2))
    return (2 * n - 1) * (2 * r - 1) * width


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
    the exception, so the run still writes every record.  elapsed_ms is the
    wall time of the suite call in every outcome, the table builds it
    triggers included; loading the suite's module is not timed, and a
    skipped job reads 0.
    """
    if job.p < SUITE_MIN_P[job.suite]:
        return Report(job, skipped=True)
    if job.suite in INTEGER_SUITES:
        from .intsuites import SUITES  # Gamma_p and rational only, at the first integer job
    else:
        from .suites import SUITES  # the field layers load at the first field job
    start = time.perf_counter()
    try:
        report = SUITES[job.suite](job)
    except ArithmeticError as exc:
        report = Report(job)
        report.case("aborted", False, lambda: (type(exc).__name__, str(exc)))
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
