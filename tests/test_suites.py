import hashlib

import pytest
from conftest import clear_shared_caches

from padichg import pgamma, suites
from padichg.charsums import B_values, h_values
from padichg.cli import _render_csv, _render_json
from padichg.finitefield import FqElement
from padichg.padic import UnramifiedContext, ZqElement
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


def test_records_keep_their_value_semantics():
    job = JobSpec(5, 1, "euler")
    assert job == JobSpec(p=5, r=1, suite="euler", precision=None) and job.q == 5
    assert hash(job) == hash(JobSpec(5, 1, "euler"))
    with pytest.raises(AttributeError):
        job.precision = 4
    with pytest.raises(ValueError, match="precision must be >= 1"):
        job._replace(precision=0)  # a replaced field is checked too
    assert job._replace(precision=4).precision == 4
    first, second = Report("euler", 5, 1, 4, 5), Report("euler", 5, 1, 4, 5)
    first.failures.append(None)
    first.case_rows.append(None)
    assert second.failures == [] and second.case_rows == []


def test_job_resolves_its_default_precision():
    for suite in SUITE_NAMES:
        for p, r in ((5, 1), (7, 2), (3, 4)):
            job = JobSpec(p, r, suite)
            assert job.precision == default_precision(suite, p, r)
            assert job._replace(precision=None) == job
            assert JobSpec(p, r, suite, precision=2).precision == 2


def test_default_precision_policy():
    assert default_precision("euler", 5, 1) == 4
    assert default_precision("zeros", 13, 1) == 4
    assert default_precision("clausen", 5, 1) == 5
    assert default_precision("charsums", 5, 1) == 4  # 5^4 > 2*25
    assert default_precision("charsums", 5, 2) == 5  # 5^5 > 2*625
    assert default_precision("charsums", 7, 2) == 5  # 7^5 > 2*2401


def test_direct_call_outside_hypothesis_raises():
    for suite in ("euler", "zeros", "oracles", "inversion", "floors"):
        with pytest.raises(ValueError):
            SUITES[suite](JobSpec(3, 1, suite, precision=4))


def test_run_job_skips_instead():
    rep = run_job(JobSpec(3, 1, "euler"))
    assert rep.skipped and rep.passed()
    assert rep.cases_total == 0 and not rep.failures


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


def test_precision_robustness_sample():
    # same pass/fail sets at N and N + 2
    for suite, p, r in (("euler", 5, 1), ("charsums", 7, 1), ("gamma", 5, 2)):
        n = default_precision(suite, p, r)
        lo = run_job(JobSpec(p, r, suite, precision=n, record_cases=True))
        hi = run_job(JobSpec(p, r, suite, precision=n + 2, record_cases=True))
        assert [(c["case"], c["ok"]) for c in lo.case_rows] == [
            (c["case"], c["ok"]) for c in hi.case_rows
        ]


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
    # the a table the sweep reads; check (v) reads charsums' own tables
    small_a = suites.a_values
    monkeypatch.setattr(suites, "a_values", lambda fq: [v + 1 for v in small_a(fq)])
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
    assert chain.right == "A=5, a=1, checks=(True, True, False, False, True, True)"
    rows = [row for rep in reports for row in rep.case_rows]
    assert all(row["left"] == row["right"] == "" for row in rows if row["ok"])
    assert [len(rep.failures) for rep in reports] == [4, 3, 0, 20, 5, 3, 3]
    for rep in reports:
        rep.elapsed_ms = 0.0
    rendered = (_render_json(reports), _render_csv(reports, verbose=True))
    assert [hashlib.sha256(text.encode()).hexdigest() for text in rendered] == [
        "ba8b74b52eebedbba3717b4b174691681abb6022353d48ebb9b6974fea6489d5",
        "75b9d931845df4dfaa6e6ef0e002f042aa80bde21997297b9965eb4bd69033e4",
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
    # every whole-field table of charsums is a scalar transform: two nGn
    # tables, three Jacobi families, h and B per Z_q context, and no Z_q
    # transform; once they are cached, a run builds no Z_q element at all
    clear_shared_caches()
    transforms = []
    scalar = UnramifiedContext.scalar_transform

    def counting(zq, coeffs):
        transforms.append((zq.q, len(coeffs)))
        return scalar(zq, coeffs)

    def refuse(zq, coeffs):
        raise AssertionError("charsums ran the Z_q character transform")

    monkeypatch.setattr(UnramifiedContext, "scalar_transform", counting)
    monkeypatch.setattr(UnramifiedContext, "character_transform", refuse)
    for p, r in ((7, 2), (5, 3)):
        q = p**r
        assert run_job(JobSpec(p, r, "charsums")).passed()
        assert transforms == [(q, q - 1)] * 7
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
