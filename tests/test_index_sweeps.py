"""The index sweeps of the nGn suites against their object-sweep references.

Each suite reads its nGn values and its oracle tables (root counts, A, a, h
and B) by discrete-log index; tests/oracles.py keeps the earlier form, one
GParams and F_q element argument per point, with the oracles called through
their facades.  Both must give the same case rows, failures and counts, on
clean Gamma_p values, on corrupted ones, on value tables or oracle tables
rotated by one index, and with a restriction list.
"""

import pytest
from conftest import clear_shared_caches
from oracles import (
    charsum_chain_pointwise,
    clausen_pointwise,
    euler_transform_pointwise,
    inversion_pointwise,
    proposition_oracles_pointwise,
    zero_classification_pointwise,
)

from padichg import gfunction
from padichg.charsums import A_values, B_values, a_values, h_values
from padichg.finitefield import root_table
from padichg.gfunction import value_table
from padichg.suites import (
    _CLAUSEN_CUBE,
    _CLAUSEN_SQUARE,
    _CUBIC_27,
    _CUBIC_SCALED,
    _EULER_LEFT,
    _EULER_RIGHT,
    SUITE_MIN_P,
    SUITES,
    JobSpec,
    contexts,
    default_precision,
)

REFERENCES = {
    "euler": euler_transform_pointwise,
    "zeros": zero_classification_pointwise,
    "clausen": clausen_pointwise,
    "oracles": proposition_oracles_pointwise,
    "inversion": inversion_pointwise,
    "charsums": charsum_chain_pointwise,
}

FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3), (7, 3)]


def _outcome(verify, job):
    try:
        rep = verify(job)
    except ArithmeticError as exc:  # a value past its recovery bound
        return type(exc).__name__, str(exc)
    return rep.case_rows, rep.failures, rep.cases_total, rep.cases_passed


def _job(p, r, suite, restrict=None):
    precision = default_precision(suite, p, r)
    return JobSpec(p, r, suite, precision=precision, restrict=restrict, record_cases=True)


def _rotate_value_tables(zq):
    """Replace each nGn table of zq by its rotation by one index.

    The values stay small integers, so every recovery bound holds while the
    identities fail at points that depend on each index a suite computes.
    """
    families = [_CLAUSEN_CUBE, _CLAUSEN_SQUARE]
    if zq.base.p > 3:
        families += [_EULER_LEFT, _EULER_RIGHT, _EULER_RIGHT[::-1]]
    for upper, lower in families:
        values = value_table(upper, lower, zq)
        zq.tables[gfunction._values, upper, lower] = values[1:] + values[:1]


def _compare(p, r, restrict=None, rotate=False):
    outcomes, rotated = [], set()
    for suite, reference in REFERENCES.items():
        if p < SUITE_MIN_P[suite]:
            continue
        job = _job(p, r, suite, restrict)
        _, zq = contexts(p, r, job.precision)
        if rotate and zq not in rotated:  # suites at one precision share a context
            _rotate_value_tables(zq)
            rotated.add(zq)
        got = _outcome(SUITES[suite], job)
        assert got == _outcome(reference, job), (suite, p, r, restrict)
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("corrupted", [False, True], ids=["clean", "corrupted"])
@pytest.mark.parametrize("p,r", FIELDS)
def test_index_sweeps_match_object_sweeps(p, r, corrupted, request):
    if corrupted:
        request.getfixturevalue("corrupted_gamma")
    outcomes = _compare(p, r)
    if not corrupted:
        # every case ran and passed
        assert all(len(o) == 4 and not o[1] and o[2] == o[3] > 0 for o in outcomes)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_index_sweeps_match_object_sweeps_rotated_tables(p, r):
    clear_shared_caches()
    try:
        outcomes = _compare(p, r, rotate=True)
    finally:
        clear_shared_caches()
    # the rotated values fail cases of every suite without leaving a bound
    assert all(len(o) == 4 and o[1] for o in outcomes)


@pytest.mark.parametrize(
    "p,r,restrict",
    [
        (7, 1, (1, 2, 6, 2)),
        (5, 2, ((0, 1), (1, 0), (4, 0), (3, 2), (0, 1))),
        (3, 3, (2, (1, 1, 0), (0, 0, 1), (2, 0, 0))),
    ],
)
def test_index_sweeps_match_object_sweeps_restricted(p, r, restrict):
    # each restriction holds x = 1 or -1, which some suites exclude, and a duplicate
    for o in _compare(p, r, restrict):
        assert 0 < o[2] <= len(set(restrict)) + 1 and not o[1]


def _rotate_oracle_tables(p, r):
    """Rotate, in place, the A, a, h and B tables and both cubic root tables
    of the field by one index.

    The facades read the same tables, so the references see the rotation too;
    the suites and their references then agree only if both compute the same
    index for every oracle.
    """
    fq, zq = contexts(p, r, default_precision("charsums", p, r))
    tables = [A_values(fq), a_values(fq), h_values(zq), B_values(zq)]
    if p > 3:
        tables += [root_table(fq, _CUBIC_27), root_table(fq, _CUBIC_SCALED)]
    for table in tables:
        table[:] = table[1:] + table[:1]


@pytest.mark.parametrize("p,r", FIELDS)
def test_index_sweeps_match_object_sweeps_rotated_oracle_tables(p, r):
    clear_shared_caches()
    try:
        _rotate_oracle_tables(p, r)
        outcomes = _compare(p, r)
    finally:
        clear_shared_caches()
    suites = [s for s in REFERENCES if p >= SUITE_MIN_P[s]]
    failing = {s for s, o in zip(suites, outcomes) if o[1]}
    # only the oracle suites read the rotated tables, and each of them fails
    assert failing == {"zeros", "oracles", "charsums"} & set(suites)
