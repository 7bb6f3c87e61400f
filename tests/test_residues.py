"""Integer-residue fast paths against their Fraction references.

GammaCache.gamma(Fraction(num, den)) against the prefix product of the
unreduced num * den^-1; the residue table GammaCache.residues(d) against
both; the integer floor identities against their Fraction forms; and the
gamma suite, case by case, against its Fraction form, both clean and under
each Gamma_p fault of conftest; and the count of residues the suite reads.
"""

from fractions import Fraction as F
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    floor_identity_A_fraction,
    floor_identity_B_fraction,
    gamma_identities_fraction,
    prefix_gamma_nat,
)

from padichg import pgamma
from padichg.jobs import DEFAULT_BATTERY
from padichg.padic import PadicContext
from padichg.pgamma import GammaCache
from padichg.rational import check_floor_identity_A, check_floor_identity_B
from padichg.suites import JobSpec, run_job


@lru_cache(maxsize=None)
def _cache(p, n):
    return GammaCache(PadicContext(p, n))


_PN = st.sampled_from([(3, 4), (5, 3), (7, 2), (11, 3), (211, 2)])


@settings(max_examples=300, deadline=None)
@given(_PN, st.integers(-10**6, 10**6), st.integers(1, 10**4), st.booleans())
def test_residue_matches_gamma_and_prefix(pn, num, den, whole):
    p, n = pn
    if den % p == 0:
        den += 1
    if whole:
        num = num * den  # num ≡ 0 mod den: an integer argument
    cache, m = _cache(p, n), p**n
    value = cache.gamma(F(num, den)).residue
    big = p ** (n + 1)  # the guard-digit representative of the former path
    assert value == prefix_gamma_nat(p, m, num * pow(den, -1, big) % big)


@settings(max_examples=100, deadline=None)
@given(_PN, st.integers(-10**6, 10**6), st.integers(1, 10**3))
def test_residue_rejects_p_in_denominator(pn, num, k):
    p, n = pn
    # p * num + 1 is prime to p, so p stays in the reduced denominator
    with pytest.raises(ValueError, match="not a p-adic integer"):
        _cache(p, n).gamma(F(p * num + 1, p * k))


# d <= 300, so no example builds a large table
@settings(max_examples=300, deadline=None)
@given(_PN, st.integers(-10**6, 10**6), st.integers(1, 300))
def test_residue_table_matches_residue_and_prefix(pn, num, d):
    p, n = pn
    if d % p == 0:
        d += 1
    cache, m = _cache(p, n), p**n
    num %= d
    value = cache.residues(d)[num]
    assert value == cache.gamma(F(num, d)).residue
    big = p ** (n + 1)
    assert value == prefix_gamma_nat(p, m, num * pow(d, -1, big) % big)
    assert cache.residues(d) is cache.residues(d) and all(0 <= k < d for k in cache.residues(d))


@settings(max_examples=100, deadline=None)
@given(_PN, st.integers(1, 10**3))
def test_residue_table_rejects_p_in_denominator(pn, k):
    p, n = pn
    with pytest.raises(ValueError, match="not a p-adic integer"):
        _cache(p, n).residues(p * k)


def _floor_case():
    return st.sampled_from([5, 7, 11, 13, 211]).flatmap(
        lambda p: st.integers(1, 3).flatmap(
            lambda r: st.tuples(
                st.just(p), st.just(p**r), st.integers(0, p**r - 2), st.integers(0, r - 1)
            )
        )
    )


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(_floor_case())
def test_floor_identities_match_fraction_forms(case):
    assert _outcome(check_floor_identity_A, *case) == _outcome(floor_identity_A_fraction, *case)
    assert _outcome(check_floor_identity_B, *case) == _outcome(floor_identity_B_fraction, *case)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 2), (11, 1), (13, 2), (5, 3), (211, 1)])
def test_floor_identities_match_fraction_forms_exhaustive(p, r):
    q = p**r
    for a in range(q - 1):
        for i in range(r):
            case = (p, q, a, i)
            assert _outcome(check_floor_identity_A, *case) == _outcome(
                floor_identity_A_fraction, *case
            )
            assert _outcome(check_floor_identity_B, *case) == _outcome(
                floor_identity_B_fraction, *case
            )


# (5, 2) and (5, 3) compare the integer phi(3) with the F_q one at +1 and -1;
# at (5, 1), (11, 1) and (5, 3), d = lcm(q-1, 6) exceeds q-1 (step = 3), so
# the period d/t of the suite's S_t tables does not divide q-1
_GAMMA_JOBS = [
    (3, 1, None),
    (5, 1, None),
    (7, 1, None),
    (11, 1, None),
    (13, 1, None),
    (17, 1, None),  # q = 2 mod 3: S_3 and S_6 hold every third v
    (3, 2, None),
    (5, 2, None),
    (7, 2, None),
    (3, 3, None),
    (5, 3, None),
    (211, 1, 3),
]

# every Gamma_p fixture of conftest: one planted value reaches every case that
# shares its S_t entry, while the Fraction form recomputes each case alone
_GAMMA_FAULTS = {
    "clean": None,
    "corrupted": "corrupted_gamma",
    "last_digit": "corrupted_gamma_last_digit",
    "five_sixths": "corrupted_gamma_five_sixths",
    "quarter": "corrupted_gamma_quarter",
}


@pytest.mark.parametrize("fault", _GAMMA_FAULTS.values(), ids=_GAMMA_FAULTS)
@pytest.mark.parametrize("p,r,precision", _GAMMA_JOBS)
def test_gamma_suite_matches_fraction_form(request, fault, p, r, precision):
    if fault:
        request.getfixturevalue(fault)
    job = JobSpec(p, r, "gamma", precision=precision, record_cases=True)
    got = run_job(job)
    want = gamma_identities_fraction(
        JobSpec(p, r, "gamma", precision=got.precision, record_cases=True)
    )
    assert got.case_rows == want.case_rows
    assert [f._asdict() for f in got.failures] == [f._asdict() for f in want.failures]
    assert (got.cases_total, got.cases_passed) == (want.cases_total, want.cases_passed)
    if fault in (None, "corrupted_gamma"):
        assert bool(got.failures) == bool(fault)


@pytest.mark.parametrize("p,r", DEFAULT_BATTERY + ((3, 3), (5, 3), (17, 2), (211, 1)))
def test_gamma_suite_reads_exactly_its_d_residues(p, r):
    # the suite's tables read each of the d residues of its one residue table,
    # and the Gamma_p cache holds no table but that one and the digit table
    pgamma._caches.clear()
    job = JobSpec(p, r, "gamma")
    assert run_job(job).passed()
    d = lcm(p**r - 1, *(t for t in (2, 3, 6) if t % p))
    cache = pgamma.gamma_cache(PadicContext(p, job.precision))
    assert set(cache.tables) == {(pgamma._digit_table,), (pgamma._ResidueTable, d)}
    assert len(cache.residues(d)) == d
