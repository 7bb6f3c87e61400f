"""The relation suites are data: records swept by one verify_relation.

A record (left, right, at, square, skip, at_one) names two nGn families,
the index map at(k, z, h) -> (i, j, e) and the quadratic stage, so a new
relation is a new record with no sweep code, and a wrong index, sign or
stage in a record shows as failing cases.
"""

import functools

import pytest

from padichg.suites import (
    _CLAUSEN_CUBE,
    _CLAUSEN_SQUARE,
    _EULER_LEFT,
    RELATIONS,
    SUITES,
    JobSpec,
    verify_relation,
)


def _run(record, p, r, suite):
    return verify_relation(*record, JobSpec(p, r, suite))


def test_relation_suites_are_their_records():
    for name, record in RELATIONS.items():
        assert isinstance(SUITES[name], functools.partial)
        assert SUITES[name].func is verify_relation and SUITES[name].args == record
    assert list(SUITES) == ["euler", "zeros", "clausen", "oracles", "inversion", "charsums"]


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (13, 1), (5, 2), (7, 2)])
@pytest.mark.parametrize(
    "family", [_EULER_LEFT, _CLAUSEN_SQUARE, _CLAUSEN_CUBE], ids=["euler", "square", "cube"]
)
def test_swap_law_records_pass(family, p, r):
    # G[B;A | x] = G[A;B | 1/x], the law the inversion record states for
    # one family, stated as a new record for three more
    record = (family[::-1], family, lambda k, z, h: (k, -k, 0), False, (), None)
    report = _run(record, p, r, "inversion")
    assert report.passed() and report.cases_total == report.cases_passed == p**r - 1


def _e_to_k(at):
    return lambda k, z, h: (*at(k, z, h)[:2], k)


def _j_to_k(at):
    return lambda k, z, h: (at(k, z, h)[0], k, at(k, z, h)[2])


_MUTANTS = {
    "e->k": lambda rec: (rec[0], rec[1], _e_to_k(rec[2]), *rec[3:]),
    "square": lambda rec: (*rec[:3], not rec[3], *rec[4:]),
    "j->k": lambda rec: (rec[0], rec[1], _j_to_k(rec[2]), *rec[3:]),
}


# small fields only: at p = 13 or q = 25 the euler record with e -> k
# still passes, since phi(x) and phi(1-x) differ there only where the
# right-hand value is 0
@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("mutant", list(_MUTANTS))
@pytest.mark.parametrize("name", list(RELATIONS))
def test_mutated_records_fail(name, mutant, p):
    assert _run(RELATIONS[name], p, 1, name).passed()
    report = _run(_MUTANTS[mutant](RELATIONS[name]), p, 1, name)
    assert report.failures and not report.passed()
