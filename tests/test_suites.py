import hashlib
import io
import pickle

import pytest
from conftest import clear_shared_caches
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import charsums_admits, default_precision_by_search

from padichg import charsums, intsuites, jobs, pgamma, suites
from padichg.charsums import B_values, h_values
from padichg.cli import _render_csv, _render_json
from padichg.elements import FqElement, ZqElement
from padichg.jobs import MAX_PACKED_DIGITS, packed_digits
from padichg.padic import UnramifiedContext
from padichg.pgamma import InfeasibleError, check_feasible
from padichg.suites import (
    DEFAULT_BATTERY,
    SUITE_MIN_P,
    SUITE_NAMES,
    SUITES,
    JobSpec,
    Report,
    contexts,
    default_precision,
    run_job,
)
from padichg.zmod import check_field


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(4, 1, "euler")
    with pytest.raises(ValueError):
        JobSpec(5, 0, "euler")
    with pytest.raises(ValueError):
        JobSpec(5, 1, "nonsense")
    with pytest.raises(ValueError):
        JobSpec(5, 1, "euler", precision=0)
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        JobSpec(3, 20, "floors")  # q = 3^20
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        JobSpec(2**61 - 1, 1, "gamma")  # refused before a primality scan
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        JobSpec(3, 10**9, "gamma")  # refused before p^r


def test_jobspec_refuses_a_job_that_cannot_run():
    # admission is JobSpec's own, with the text the CLI prints, and it
    # builds no context: this job's product would have about 9.9e8 digits
    caches_before = (len(pgamma._caches), len(suites._fq_cache))
    with pytest.raises(
        InfeasibleError,
        match=r"^job clausen p=3 r=10 refused: the packed correlation .* 6\.57e\+08 digits",
    ):
        JobSpec(3, 10, "clausen", precision=300)
    assert (3, 10) not in suites._fq_cache
    assert (len(pgamma._caches), len(suites._fq_cache)) == caches_before
    with pytest.raises(ValueError, match=r"^job charsums p=5 r=1 refused: insufficient precision"):
        JobSpec(5, 1, "charsums", precision=2)  # 5^2 <= 2*5^2
    with pytest.raises(InfeasibleError, match=r"^job gamma p=65521 r=1 refused: Gamma_p mod"):
        JobSpec(65521, 1, "gamma", precision=6)
    with pytest.raises(ValueError, match="refused"):
        JobSpec(5, 1, "euler", 4)._replace(precision=10**6)  # a replaced field is admitted too
    # a field below the suite's least p is made, and run_job skips it
    assert run_job(JobSpec(3, 1, "euler")).skipped
    # an admitted job survives pickling, as a --jobs K pool sends it
    for job in (JobSpec(65521, 1, "clausen"), JobSpec(5, 2, "charsums", 6, record_cases=True)):
        assert pickle.loads(pickle.dumps(job)) == job


def _meets_every_bound(p, r, suite, n):
    """Whether JobSpec(p, r, suite, n) can run, from the field check and the
    three bounds a job its suite runs must meet."""
    try:
        check_field(p, r)
    except ValueError:
        return False
    if suite == "floors" or p < SUITE_MIN_P[suite]:
        return True  # floors evaluates no Gamma_p; run_job skips the other
    try:
        check_feasible(p, n)
    except InfeasibleError:
        return False
    if suite in ("zeros", "oracles") and p**n < 7:
        return False
    if suite == "charsums" and not charsums_admits(p, r, n):
        return False
    return suite == "gamma" or packed_digits(p, r, n) <= MAX_PACKED_DIGITS


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 9, 11, 13, 251, 4093, 65521]),
    st.integers(1, 12),
    st.sampled_from(SUITE_NAMES),
    st.integers(1, 900),
)
def test_a_jobspec_that_exists_can_run(p, r, suite, n):
    try:
        JobSpec(p, r, suite, n)
        made = True
    except ValueError:
        made = False
    assert made == _meets_every_bound(p, r, suite, n)


def test_records_keep_their_value_semantics():
    job = JobSpec(5, 1, "euler")
    assert job == JobSpec(p=5, r=1, suite="euler", precision=None) and job.q == 5
    assert hash(job) == hash(JobSpec(5, 1, "euler"))
    with pytest.raises(AttributeError):
        job.precision = 4
    with pytest.raises(ValueError, match="precision must be >= 1"):
        job._replace(precision=0)  # a replaced field is checked too
    assert job._replace(precision=4).precision == 4
    first, second = Report(job), Report(job)
    first.failures.append(None)
    first.case_rows.append(None)
    assert second.failures == [] and second.case_rows == []


def test_job_resolves_its_default_precision():
    for suite in SUITE_NAMES:
        for p, r in ((5, 1), (7, 2), (3, 4)):
            job = JobSpec(p, r, suite)
            assert job.precision == default_precision(suite, p, r)
            assert job._replace(precision=None) == job
            # an explicit precision is kept (charsums admits none below its default)
            n = job.precision + 1
            assert JobSpec(p, r, suite, precision=n).precision == n


def test_default_precision_policy():
    assert default_precision("euler", 5, 1) == 4
    assert default_precision("zeros", 13, 1) == 4
    assert default_precision("clausen", 5, 1) == 5
    assert default_precision("charsums", 5, 1) == 4  # 5^4 > 2*25
    assert default_precision("charsums", 5, 2) == 5  # 5^5 > 2*625
    assert default_precision("charsums", 7, 2) == 5  # 7^5 > 2*2401


def _odd_prime_powers(bound):
    sieve = bytearray([1]) * (bound + 1)
    for p in range(3, bound + 1, 2):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
            r, q = 1, p
            while q <= bound:
                yield p, r
                r, q = r + 1, q * p


def test_closed_forms_match_their_searches():
    # default_precision is max(floor, k r + 1) and JobSpec's charsums
    # admission test is N > 2r; both equal the definitions at every odd q <= 2^16
    fields = list(_odd_prime_powers(2**16))
    assert len(fields) * len(SUITE_NAMES) == 52952
    for p, r in fields:
        for suite in SUITE_NAMES:
            assert default_precision(suite, p, r) == default_precision_by_search(suite, p, r)
        for n in (2 * r - 1, 2 * r, 2 * r + 1, 2 * r + 2):
            try:
                JobSpec(p, r, "charsums", n)
                admitted = True
            except ValueError:
                admitted = False
            assert admitted == charsums_admits(p, r, n), (p, r, n)


def test_direct_call_outside_hypothesis_raises():
    verifiers = {**SUITES, **intsuites.SUITES}
    for suite in ("euler", "zeros", "oracles", "inversion", "floors"):
        with pytest.raises(ValueError):
            verifiers[suite](JobSpec(3, 1, suite, precision=4))


def test_run_job_skips_instead():
    rep = run_job(JobSpec(3, 1, "euler"))
    assert rep.skipped and rep.passed()
    assert rep.cases_total == 0 and not rep.failures


def test_report_refuses_a_field_below_the_least_p():
    job = JobSpec(3, 1, "floors")
    with pytest.raises(ValueError, match="suite 'floors' requires p >= 5, got p=3"):
        Report(job)
    assert Report(job, skipped=True).skipped


class _FakeClock:
    """A perf_counter that moves only when a test advances it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_run_job_times_the_whole_job(monkeypatch, request):
    # building the contexts takes 10 s on this clock: run_job's elapsed_ms
    # holds it, whether the job passes or aborts; a skipped job reads 0
    clock, build = _FakeClock(), suites.contexts

    def slow_contexts(*args):
        clock.now += 10.0
        return build(*args)

    monkeypatch.setattr(jobs, "time", clock)
    monkeypatch.setattr(suites, "contexts", slow_contexts)
    assert run_job(JobSpec(5, 1, "euler")).elapsed_ms >= 10_000
    assert run_job(JobSpec(3, 1, "euler")).elapsed_ms == 0.0
    request.getfixturevalue("corrupted_gamma")
    rep = run_job(JobSpec(5, 1, "zeros"))
    assert [f.case for f in rep.failures] == ["aborted"]
    assert rep.elapsed_ms >= 10_000


def test_euler_case_counts_and_pass():
    rep = run_job(JobSpec(5, 1, "euler"))
    assert not rep.skipped and rep.passed()
    assert rep.cases_total == 4  # 3 transforms plus the x = 1 case
    assert rep.cases_passed == 4
    rep = run_job(JobSpec(7, 2, "euler"))
    assert rep.cases_total == 48 and rep.passed()


def test_zeros_and_oracles_counts():
    rep = run_job(JobSpec(13, 1, "zeros"))
    assert rep.passed() and rep.cases_total == 11
    rep = run_job(JobSpec(5, 1, "oracles"))
    assert rep.passed() and rep.cases_total == 4  # all x != 0, including x = 1


def test_clausen_smallest_field():
    rep = run_job(JobSpec(3, 1, "clausen"))
    assert rep.passed() and rep.cases_total == 1
    assert rep.precision >= 5


def test_charsums_insufficient_precision_raises():
    with pytest.raises(ValueError):
        SUITES["charsums"](JobSpec(5, 1, "charsums", precision=2))  # 25 <= 50


def test_charsums_at_q_in_the_thousands():
    # q = 7^4: wide packed slots and the whole-field A and a tables, end to end
    rep = run_job(JobSpec(7, 4, "charsums"))
    assert (rep.cases_total, rep.cases_passed, rep.failures) == (2399, 2399, [])


def test_report_invariant_and_schema():
    rep = run_job(JobSpec(5, 1, "gamma"))
    assert rep.cases_total == rep.cases_passed + len(rep.failures)
    d = rep.to_dict()
    assert set(d) == {
        "suite", "p", "r", "N", "q", "cases_total", "cases_passed",
        "skipped", "failures", "elapsed_ms",
    }


def test_determinism():
    a = run_job(JobSpec(5, 2, "zeros")).to_dict()
    b = run_job(JobSpec(5, 2, "zeros")).to_dict()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_full_battery_all_suites_pass():
    for p, r in DEFAULT_BATTERY:
        for suite in SUITE_NAMES:
            rep = run_job(JobSpec(p, r, suite))
            if p < SUITE_MIN_P[suite]:
                assert rep.skipped, (suite, p, r)
            else:
                assert rep.passed(), (suite, p, r, rep.failures[:1])


def test_corrupted_gamma_is_detected(corrupted_gamma):
    # fault injection: a wrong Gamma_p table must surface as identity failures,
    # pinpointing the smallest failing input first
    rep = run_job(JobSpec(5, 1, "euler"))
    assert not rep.passed()
    assert rep.failures
    order = [f"x={v}" for v in (2, 3, 4)] + ["x=1 (phi(3) case)"]
    positions = [order.index(f.case) for f in rep.failures]
    assert positions == sorted(positions)
    assert rep.failures[0].case == order[positions[0]]
    assert rep.cases_total == rep.cases_passed + len(rep.failures)


def test_corrupted_gamma_hits_gamma_suite(corrupted_gamma):
    rep = run_job(JobSpec(5, 1, "gamma"))
    assert not rep.passed()


def test_corrupted_teichmuller_is_detected(corrupted_teichmuller):
    # one wrong digit in omega(g) fails every suite that reads a character;
    # gamma and floors read none
    failing = {
        suite
        for p, r in DEFAULT_BATTERY
        for suite in SUITE_NAMES
        if not run_job(JobSpec(p, r, suite)).passed()
    }
    assert failing == {"euler", "zeros", "clausen", "oracles", "inversion", "charsums"}


def _battery_verdicts():
    """(failing, aborted): the suites that fail on some field of the default
    battery, and those among them with some job aborted."""
    reports = [
        run_job(JobSpec(p, r, suite)) for p, r in DEFAULT_BATTERY for suite in SUITE_NAMES
    ]
    failed = [rep for rep in reports if not rep.passed()]
    aborted = {rep.suite for rep in failed if [f.case for f in rep.failures] == ["aborted"]}
    return {rep.suite for rep in failed}, aborted


def test_corrupted_gamma_five_sixths_is_detected(corrupted_gamma_five_sixths):
    # one wrong digit in Gamma_p(5/6) fails euler, the two suites that
    # recover its values (aborted past the recovery bound) and gamma; clausen
    # and charsums read no sixth, and the two sides of inversion are equal
    # term by term, so a wrong Gamma_p value enters both alike
    assert _battery_verdicts() == ({"euler", "zeros", "oracles", "gamma"}, {"zeros", "oracles"})


def test_corrupted_gamma_quarter_is_detected(corrupted_gamma_quarter):
    # one wrong digit in Gamma_p(1/4) fails every suite whose families or
    # products read a quarter: euler, clausen and gamma by comparison, and
    # zeros, oracles and charsums aborted past their recovery bound.
    # inversion's two sides are equal term by term, and floors reads no Gamma_p
    assert _battery_verdicts() == (
        {"euler", "zeros", "clausen", "oracles", "charsums", "gamma"},
        {"zeros", "oracles", "charsums"},
    )


def test_corrupted_gamma_last_digit_is_detected(corrupted_gamma_last_digit):
    # the last digit of every Gamma_p value wrong: the same suites as a wrong
    # Gamma_p(1/4) alone, and the same aborts
    assert _battery_verdicts() == (
        {"euler", "zeros", "clausen", "oracles", "charsums", "gamma"},
        {"zeros", "oracles", "charsums"},
    )
    # at p = 3 clausen and charsums still pass; only gamma catches it there
    for r in (1, 2):
        assert run_job(JobSpec(3, r, "clausen")).passed()
        assert run_job(JobSpec(3, r, "charsums")).passed()
        assert not run_job(JobSpec(3, r, "gamma")).passed()


def test_conjugate_teichmuller_is_detected(conjugate_teichmuller):
    # omega-bar for omega fails every suite that reads a character except
    # inversion, whose identity (a -> -a in the defining sum) holds for
    # either; no job aborts, as every wrong value stays within its recovery
    # bound.  At q = 3 omega-bar = omega, so nothing fails there
    assert _battery_verdicts() == ({"euler", "zeros", "clausen", "oracles", "charsums"}, set())
    assert all(run_job(JobSpec(3, 1, suite)).passed() for suite in SUITE_NAMES)


def test_dropped_floor_is_detected(dropped_floor):
    # without its floor of -1 the (-p) exponent falls by one: every nGn
    # suite fails.  euler, zeros, oracles and inversion abort on a family
    # whose total exponent goes negative, and charsums on a value past its
    # recovery bound; clausen's exponents stay non-negative, so it fails by
    # comparison.  gamma and floors read no coefficient table
    ngn_suites = {"euler", "zeros", "clausen", "oracles", "inversion", "charsums"}
    assert _battery_verdicts() == (ngn_suites, ngn_suites - {"clausen"})
    assert run_job(JobSpec(3, 1, "clausen")).failures[0].case != "aborted"


def test_precision_robustness_sample():
    # same pass/fail sets at N and N + 2
    for suite, p, r in (("euler", 5, 1), ("charsums", 7, 1), ("gamma", 5, 2)):
        n = default_precision(suite, p, r)
        lo = run_job(JobSpec(p, r, suite, precision=n, record_cases=True))
        hi = run_job(JobSpec(p, r, suite, precision=n + 2, record_cases=True))
        assert [c[:2] for c in lo.case_rows] == [c[:2] for c in hi.case_rows]


def test_contexts_share_defining_polynomial():
    fq, zq = contexts(5, 2, 4)
    assert tuple(int(c) for c in fq.poly) == zq.poly
    assert zq.fq is fq


def test_failure_reports_are_unchanged(monkeypatch):
    # left/right are formatted only for failing cases; forced failures in
    # every suite that formats values must render exactly as when both strings
    # were built for every case (digests taken from eager formatting)
    clear_shared_caches()
    nat_mod = pgamma.GammaCache._nat_mod
    monkeypatch.setattr(
        pgamma.GammaCache, "_nat_mod", lambda self, n: (nat_mod(self, n) + self.p) % self.modulus
    )
    reports = [
        run_job(JobSpec(5, 1, suite, record_cases=True))
        for suite in ("euler", "clausen", "inversion", "gamma")
    ]
    monkeypatch.setattr(pgamma.GammaCache, "_nat_mod", nat_mod)
    clear_shared_caches()
    # the parity sign is phi(3x(1-x)) in zeros and phi(3x) in oracles
    phi = suites._phi
    monkeypatch.setattr(suites, "_phi", lambda e: -phi(e))
    reports.append(run_job(JobSpec(7, 1, "zeros", record_cases=True)))
    reports.append(run_job(JobSpec(5, 1, "oracles", record_cases=True)))
    monkeypatch.setattr(suites, "_phi", phi)
    # the a table the sweep reads, which it imports from charsums when it
    # runs; checks (iii), (iv) and (v) read it
    small_a = charsums.a_values
    monkeypatch.setattr(charsums, "a_values", lambda fq: [v + 1 for v in small_a(fq)])
    reports.append(run_job(JobSpec(5, 1, "charsums", record_cases=True)))
    monkeypatch.undo()
    clear_shared_caches()

    by_case = {(rep.suite, f.case): f for rep in reports for f in rep.failures}
    euler = by_case[("euler", "x=2")]
    assert (euler.left, euler.right) == ("4.2.1.2 (=289)", "4.0.0.2 (=254)")
    down = by_case[("gamma", "product-down t=3 a=1")]
    assert (down.left, down.right) == ("3.4.0.4 (=-102)", "3.2.1.2 (=288)")
    chain = by_case[("charsums", "lam=1")]
    assert chain.left == "G3=5, h=0.1.0.0 (=5), B=4.4.4.4 (=-1), -phi(2)G2=0"
    assert chain.right == "A=5, a=1, checks=(True, True, False, False, False, True)"
    rows = [row for rep in reports for row in rep.case_rows]
    assert all(left == right == "" for _, ok, left, right in rows if ok)
    assert [len(rep.failures) for rep in reports] == [4, 3, 0, 20, 5, 3, 3]
    for rep in reports:
        rep.elapsed_ms = 0.0
    rendered = []
    for render in (_render_json, _render_csv):
        out = io.StringIO()
        render(reports, out)
        rendered.append(out.getvalue())
    assert [hashlib.sha256(text.encode()).hexdigest() for text in rendered] == [
        "d8e19466c38c53436717df8547afd76785d821077235ac61079f1428dee671f6",
        "13f3f15d94006bc76d69bd2ac634282195c85e0a7e953b68cf5a7168d8b2a3be",
    ]


@pytest.mark.parametrize("p, r", [(5, 2), (7, 1)])
def test_gamma_suite_builds_no_power_table(monkeypatch, p, r):
    # omega(-1) and omega(t) for t in {2, 3, 6} are integers mod p^N, so the
    # suite never builds the q-1 powers of omega(g) in Z_q
    def refuse(self):
        raise AssertionError("gamma suite built the omega(g) power table")

    monkeypatch.setattr(UnramifiedContext, "omega_generator_powers", refuse)
    rep = run_job(JobSpec(p, r, "gamma"))
    q = p**r
    assert rep.cases_total == 2 * (q - 2) + 6 * (q - 1) + 1
    assert rep.cases_passed == rep.cases_total and not rep.failures


def test_oracle_sweeps_build_no_field_elements(monkeypatch):
    # zeros, oracles and charsums read every oracle table by dlog index: once
    # the tables are cached, a run builds a few constants, not one F_q element
    # per point
    init = FqElement.__init__
    counts = {}
    for p, r in ((7, 2), (5, 3)):
        for suite in ("zeros", "oracles", "charsums"):
            run_job(JobSpec(p, r, suite))  # builds and caches the tables
            built = []

            def counting(self, context, coeffs):
                built.append(coeffs)
                init(self, context, coeffs)

            monkeypatch.setattr(FqElement, "__init__", counting)
            rep = run_job(JobSpec(p, r, suite))
            monkeypatch.setattr(FqElement, "__init__", init)
            assert rep.cases_total >= p**r - 2 and rep.passed()
            counts[p, r, suite] = len(built)
    for suite in ("zeros", "oracles", "charsums"):
        assert counts[7, 2, suite] == counts[5, 3, suite] <= 10, counts


def test_charsums_builds_integer_tables_and_no_zq_values(monkeypatch):
    # the two nGn tables, cube and square, are the only scalar transforms
    # of charsums; h and B are integer correlations, reduced per Z_q
    # context; once they are cached, a run builds no Z_q element at all
    clear_shared_caches()
    transforms = []
    scalar = UnramifiedContext.scalar_transform

    def counting(zq, coeffs):
        transforms.append((zq.q, len(coeffs)))
        return scalar(zq, coeffs)

    monkeypatch.setattr(UnramifiedContext, "scalar_transform", counting)
    for p, r in ((7, 2), (5, 3)):
        q = p**r
        assert run_job(JobSpec(p, r, "charsums")).passed()
        assert transforms == [(q, q - 1)] * 2
        transforms.clear()
        _, zq = contexts(p, r, default_precision("charsums", p, r))
        assert all(isinstance(v, int) for values in (h_values(zq), B_values(zq)) for v in values)

        init = ZqElement.__init__
        built = []

        def counting_init(self, context, coeffs):
            built.append(coeffs)
            init(self, context, coeffs)

        monkeypatch.setattr(ZqElement, "__init__", counting_init)
        rep = run_job(JobSpec(p, r, "charsums"))
        monkeypatch.setattr(ZqElement, "__init__", init)
        assert rep.passed() and rep.cases_total == q - 2
        assert built == [] and transforms == []
    clear_shared_caches()


def test_gamma_suite_at_q_in_the_thousands():
    q = 7**4
    rep = run_job(JobSpec(7, 4, "gamma"))
    # reflection q-2, half-shift q-2, products 2(q-1) per t in {2, 3, 6}, one ratio
    assert rep.cases_total == 2 * (q - 2) + 6 * (q - 1) + 1
    assert rep.cases_passed == rep.cases_total and not rep.failures


def test_floors_suite_at_q_63001():
    q = 251**2
    rep = run_job(JobSpec(251, 2, "floors"))
    # family A skips a = (q-1)/2, family B skips a = 0; each for i < r = 2
    assert rep.cases_total == 2 * 2 * (q - 2)
    assert rep.cases_passed == rep.cases_total and not rep.failures
