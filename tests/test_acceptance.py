"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Fields swept are the default battery (3,1) (5,1) (7,1) (11,1) (13,1) (3,2)
(5,2) (7,2), with per-criterion restrictions where a hypothesis demands one.
Stated runtime budgets are asserted, not just observed.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from padichg.charsums import sum_A, sum_a, verify_aop_identity
from padichg.finitefield import FqContext, count_roots
from padichg.padic import UnramifiedContext
from padichg.pgamma import gamma_cache
from padichg.suites import (
    DEFAULT_BATTERY,
    SUITE_MIN_P,
    SUITE_NAMES,
    JobSpec,
    contexts,
    default_precision,
    field_context,
    run_job,
)

P5_FIELDS = [(p, r) for p, r in DEFAULT_BATTERY if p >= 5]
SRC = Path(__file__).resolve().parent.parent / "src"


def _announce(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def _sweep(suite, fields, precision=None):
    reports = []
    for p, r in fields:
        reports.append(run_job(JobSpec(p, r, suite, precision=precision)))
    bad = [rep for rep in reports if not rep.passed()]
    cases = sum(rep.cases_total for rep in reports)
    return reports, bad, cases


def test_criterion_01_floor_lemmas():
    t0 = time.perf_counter()
    fields = [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)]
    reports, bad, cases = _sweep("floors", fields)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0 and all(not rep.skipped for rep in reports)
    _announce(1, "floor lemmas", ok, f"{cases} cases over {len(fields)} fields in {elapsed:.2f}s")


def test_criterion_02_aop_identity_integers():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for p, r in DEFAULT_BATTERY:
        fq = field_context(p, r)
        for lam in fq.elements():
            if lam.is_zero() or (lam + fq.one).is_zero():
                continue
            cases += 1
            if not verify_aop_identity(lam):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _announce(2, "AOP identity, exact integers", ok, f"{cases} lambdas in {elapsed:.2f}s")


def test_criterion_03_euler_transform():
    t0 = time.perf_counter()
    reports, bad, cases = _sweep("euler", P5_FIELDS)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0 and all(rep.precision >= 4 for rep in reports)
    _announce(3, "Euler-type transform incl. x=1", ok, f"{cases} cases in {elapsed:.2f}s")


def test_criterion_04_zero_classification():
    reports, bad, cases = _sweep("zeros", P5_FIELDS)
    ok = not bad and all(rep.p**rep.precision >= 7 for rep in reports)
    _announce(4, "zero classification", ok, f"{cases} cases, 100% agreement" if ok else str(bad[0].failures[:1]))


def test_criterion_05_clausen_transform():
    reports, bad, cases = _sweep("clausen", DEFAULT_BATTERY)
    ok = (
        not bad
        and all(rep.precision >= 5 for rep in reports)
        and all(not rep.skipped for rep in reports)  # p = 3 fields included
    )
    _announce(5, "Clausen-type transform", ok, f"{cases} cases incl. p=3 fields")


def test_criterion_06_oracle_equalities():
    reports, bad, cases = _sweep("oracles", P5_FIELDS)
    ok = not bad

    # spot values fixed in advance by hand-checkable scans
    fq = FqContext(5, 1)
    ok = ok and sum_A(fq.one) == 5 and sum_a(fq.one) == 0
    for x, count in ((1, 2), (2, 0), (3, 1)):
        cubic = [fq.scalar(-4) * fq.scalar(x), fq.zero, fq.scalar(27), fq.scalar(-27)]
        ok = ok and count_roots(cubic) == count

    # G3 = A(lam, q) after balanced lift with p^N > 2 q^2 runs inside charsums
    reports_c, bad_c, _ = _sweep("charsums", DEFAULT_BATTERY)
    ok = ok and not bad_c and all(
        rep.p ** rep.precision > 2 * rep.q**2 for rep in reports_c if not rep.skipped
    )
    _announce(6, "oracle equalities + spot values", ok, f"{cases} oracle cases")


def test_criterion_07_gamma_identity_suite():
    reports, bad, cases = _sweep("gamma", DEFAULT_BATTERY)
    ok = not bad
    # anchored value: Gamma_5(1/2)^2 = -1 mod 5^N
    cache = gamma_cache(contexts(5, 1, 4)[1].base)
    g = cache.gamma(F(1, 2))
    ok = ok and (g * g == -1)
    _announce(7, "gamma product identities", ok, f"{cases} cases incl. anchored half value")


def test_criterion_08_charsum_chain_and_inversion():
    reports, bad, cases = _sweep("charsums", DEFAULT_BATTERY)
    reports_i, bad_i, cases_i = _sweep("inversion", P5_FIELDS)
    ok = not bad and not bad_i
    _announce(8, "character-sum chain + inversion", ok, f"{cases}+{cases_i} cases")


def test_criterion_09_precision_robustness():
    t0 = time.perf_counter()
    ok = True
    compared = 0
    for p, r in DEFAULT_BATTERY:
        for suite in SUITE_NAMES:
            if p < SUITE_MIN_P[suite]:
                continue
            if suite == "clausen" and p > 7:
                continue  # N+2 there needs a Theta(p^7) gamma pass; see ledger
            n = default_precision(suite, p, r)
            lo = run_job(JobSpec(p, r, suite, precision=n, record_cases=True))
            hi = run_job(JobSpec(p, r, suite, precision=n + 2, record_cases=True))
            same = [c[:2] for c in lo.case_rows] == [c[:2] for c in hi.case_rows]
            ok = ok and same and lo.passed() and hi.passed()
            compared += 1

    fq = FqContext(5, 2)
    z_lo, z_hi = UnramifiedContext(fq, 3), UnramifiedContext(fq, 5)
    for t in fq.nonzero_elements():
        a, b = z_lo.teichmuller(t), z_hi.teichmuller(t)
        ok = ok and tuple(c % z_lo.modulus for c in b.coeffs) == a.coeffs
    elapsed = time.perf_counter() - t0
    _announce(9, "precision robustness (N vs N+2)", ok, f"{compared} suite/field pairs in {elapsed:.1f}s")


def test_criterion_10_cli_battery_under_budget(tmp_path):
    out = tmp_path / "battery.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "padichg.cli", "--suite", "all", "--format", "json",
         "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),  # the checkout, installed or not
        capture_output=True,
        text=True,
        timeout=900,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 900.0
    if ok:
        records = json.loads(out.read_text())
        ok = len(records) == 64 and all(
            rec["skipped"] or rec["cases_passed"] == rec["cases_total"] for rec in records
        )
    _announce(10, "full battery via CLI", ok, f"exit {proc.returncode} in {elapsed:.1f}s")
