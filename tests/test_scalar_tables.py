"""Certified Z_p value tables against the naive Z_q character transform.

gfunction.value_table checks that a coefficient table is Frobenius
invariant, c[p a] = c[a], and then builds its values with
UnramifiedContext.scalar_transform: integers mod p^N, one correlation block
read per Frobenius orbit of k -> p k and a dot product with per-context
weights in place of a reduced Z_q product per k.  The reference here is
oracles.character_transform, the direct sum over a in Z_q for each k, whose
values must be the same integers in the constant coefficient and 0 in every
other.  A family without the certificate is served by evaluate_g point by
point, in Z_q.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    character_transform,
    coefficient_table_by_rows,
    evaluate_g_pointwise,
    wrapped_block_correlation,
)

from padichg import gfunction, padic, rational
from padichg.finitefield import FqContext, correlate, memo, pack, poly_mulmod, poly_reduce
from padichg.elements import GParams, evaluate_g
from padichg.gfunction import EvaluationIntegrityError, value_table
from padichg.padic import UnramifiedContext
from padichg.suites import _CLAUSEN_CUBE, _CLAUSEN_SQUARE, _EULER_LEFT, _EULER_RIGHT

EULER_FAMILIES = [_EULER_LEFT, _EULER_RIGHT, _EULER_RIGHT[::-1]]
CLAUSEN_FAMILIES = [_CLAUSEN_CUBE, _CLAUSEN_SQUARE]
NOT_P_STABLE = ((F(1, 3),), (F(0),))  # {1/3} is not closed under x -> p x mod 1 at p = 5


def _zq(p, r, n):
    return UnramifiedContext(FqContext(p, r), n)


def _assert_scalars(values, full):
    assert [t.coeffs[0] for t in full] == values
    assert all(not any(t.coeffs[1:]) for t in full)


FIELDS = [(5, 2, 4), (7, 2, 3), (3, 2, 5), (5, 3, 3), (3, 3, 4), (3, 4, 4), (5, 4, 2), (3, 5, 3)]


@pytest.mark.parametrize("p,r,n", FIELDS)
def test_value_tables_are_the_constant_coefficients_of_the_zq_transform(p, r, n):
    zq = _zq(p, r, n)
    families = CLAUSEN_FAMILIES + (EULER_FAMILIES if p > 3 else [])
    for upper, lower in families:
        values = value_table(upper, lower, zq)
        assert all(isinstance(v, int) and 0 <= v < zq.modulus for v in values)
        table = gfunction._scaled_table(upper, lower, zq)
        _assert_scalars(values, character_transform(zq, table))


@pytest.mark.parametrize("p,r,n", FIELDS)
def test_rotation_table_matches_the_per_row_table(p, r, n):
    # one row set per Frobenius rotation gives the per-(k, i) table entry
    # for entry, for the five suite families, a family not closed under
    # x -> p x (p = 2 mod 3) and one with a negative total exponent
    zq = _zq(p, r, n)
    families = CLAUSEN_FAMILIES + (EULER_FAMILIES if p > 3 else [])
    if p % 3 == 2:
        families += [(((1, 3),), ((0, 1),))]
    for upper, lower in families:
        got = gfunction._coefficient_table(upper, lower, zq)
        assert got == coefficient_table_by_rows(upper, lower, zq), (upper, lower)
    if p != 5:  # 1/5 is not in Z_5
        negative = (((1, 4), (1, 2)), ((0, 1), (1, 5)))
        for build in (gfunction._coefficient_table, coefficient_table_by_rows):
            with pytest.raises(EvaluationIntegrityError, match="negative total"):
                build(*negative, zq)


@pytest.mark.parametrize("p,r,n", [(5, 2, 3), (5, 4, 2), (11, 2, 2)])
def test_a_family_not_closed_under_frobenius_stays_uncertified(p, r, n):
    # {1/3} times p = 2 mod 3 is {2/3}: two rotations, and a table that
    # fails the certificate, refused by value_table as before
    zq = _zq(p, r, n)
    upper, lower = ((1, 3),), ((0, 1),)
    table = gfunction._coefficient_table(upper, lower, zq)
    assert table == coefficient_table_by_rows(upper, lower, zq)
    assert any(table[p * a % (zq.q - 1)] != c for a, c in enumerate(table))
    with pytest.raises(EvaluationIntegrityError, match="Frobenius certificate"):
        value_table(upper, lower, zq)


def test_one_rotation_per_paper_family(monkeypatch):
    # every suite family is closed under x -> p x, so at r = 3 its table
    # builds one row set, where the per-(k, i) table built 3 per parameter
    builds = []
    rows = gfunction._rotation_rows

    def counting(alphas, betas, *args):
        builds.append((alphas, betas))
        return rows(alphas, betas, *args)

    monkeypatch.setattr(gfunction, "_rotation_rows", counting)
    zq = _zq(7, 3, 3)
    for upper, lower in EULER_FAMILIES + CLAUSEN_FAMILIES:
        builds.clear()
        value_table(upper, lower, zq)
        assert len(builds) == 1, (upper, lower)
    builds.clear()
    with pytest.raises(EvaluationIntegrityError):
        value_table(((1, 3),), ((0, 1),), _zq(5, 3, 3))
    assert len(builds) == 2  # 1/3, 2/3 (= 5/3 mod 1), 1/3 (= 25/3 mod 1)


def _invariant_table(draw, p, r, m):
    """q-1 residues mod m, one drawn value per Frobenius orbit of a -> p a."""
    n = p**r - 1
    table = [None] * n
    for a in range(n):
        if table[a] is None:
            v, j = draw(st.integers(min_value=0, max_value=m - 1)), a
            while table[j] is None:
                table[j] = v
                j = j * p % n
    return table


@st.composite
def _invariant_cases(draw):
    p, r, n = draw(st.sampled_from([(3, 2, 3), (5, 2, 2), (3, 3, 2), (7, 2, 2), (3, 4, 2)]))
    return p, r, n, _invariant_table(draw, p, r, p**n)


@settings(max_examples=25, deadline=None)
@given(_invariant_cases())
def test_scalar_transform_matches_zq_transform_on_invariant_tables(case):
    p, r, n, table = case
    zq = _zq(p, r, n)
    _assert_scalars(zq.scalar_transform(table), character_transform(zq, table))


@pytest.mark.parametrize("p,r,n", [(13, 1, 4), (7, 2, 3), (3, 3, 4), (5, 3, 2), (3, 4, 3)])
def test_orbit_reads_equal_a_read_of_every_block(p, r, n):
    # every block of the correlation, reduced and post-twiddled in Z_q on its
    # own, gives the value that scalar_transform copied from its orbit's block
    zq = _zq(p, r, n)
    upper, lower = _CLAUSEN_SQUARE
    table = gfunction._scaled_table(upper, lower, zq)
    values = zq.scalar_transform(table)
    q1, m, neg = zq.q - 1, zq.modulus, zq._neg_poly
    pows = zq.omega_generator_powers()
    blocks = zq._chirp_correlation(table)
    assert len(blocks) == q1
    for k, block in enumerate(blocks):
        post = pows[k * (k - 1) // 2 % q1]
        value = poly_mulmod(poly_reduce(list(block), neg, m), post, neg, m)
        assert value == (values[k],) + (0,) * (r - 1), k
    reps, orbit, _ = memo(zq, padic._frobenius_weights)
    assert sorted(set(orbit)) == list(range(len(reps)))
    assert all(orbit[k * p % q1] == orbit[k] for k in range(q1))


@pytest.mark.parametrize("rows", [[0], [4, 1, 7], [], list(range(9))[::-1]])
def test_correlate_reads_the_requested_rows(rows):
    u = [[5 * j % 11 - 5, j % 3 - 1] for j in range(11)]  # signed, |entry| <= 5
    v = [[3 * j % 11 - 5, 7 * j % 13 - 6] for j in range(11)]  # signed, |entry| <= 6
    bound = len(u) * 2 * 5 * 6
    for wrap in (1, -1):
        full = wrapped_block_correlation(u, v, wrap)
        assert correlate(u, pack(v, bound), wrap) == full
        assert correlate(u, pack(v, bound), wrap, rows) == [full[k] for k in rows]


def test_broken_certificate_raises(monkeypatch):
    fq = FqContext(7, 2)
    build = gfunction._coefficient_table

    def broken(upper, lower, zq):
        table = build(upper, lower, zq)
        table[1] += 1  # a = 1 and a = p lie in one Frobenius orbit at r = 2
        return table

    monkeypatch.setattr(gfunction, "_coefficient_table", broken)
    with pytest.raises(EvaluationIntegrityError):
        value_table(*_EULER_LEFT, UnramifiedContext(fq, 3))
    monkeypatch.undo()
    assert isinstance(value_table(*_EULER_LEFT, UnramifiedContext(fq, 3))[0], int)


# families whose coefficient tables fail the certificate, each with a
# denominator that does not divide q - 1: (p, r, N, (upper, lower))
OUTSIDE_ZP = [
    (5, 3, 3, NOT_P_STABLE),
    (7, 2, 3, ((F(1, 5),), (F(1, 2),))),
    (5, 2, 3, ((F(1, 7), F(1, 2)), (F(0), F(0)))),
]


def test_family_outside_zp_keeps_the_zq_path():
    # the values lie in Z_q and not in Z_p: evaluate_g serves them point by
    # point, value_table refuses them, and the context keeps the scaled table
    for p, r, n, family in OUTSIDE_ZP:
        fq = FqContext(p, r)
        zq = UnramifiedContext(fq, n)
        values = [evaluate_g(GParams(*family, t, zq)).value for t in fq.elements()]
        for t, value in zip(fq.elements(), values):
            assert value == evaluate_g_pointwise(GParams(*family, t, zq)), (p, r, t)
        assert any(any(v.coeffs[1:]) for v in values), (p, r)
        with pytest.raises(EvaluationIntegrityError):
            value_table(*family, zq)
        value_table(*_CLAUSEN_SQUARE, zq)  # a certified neighbour in the same context
        held = {key[1:]: table for key, table in zq.tables.items() if key[0] is gfunction._values}
        assert len(held) == 2 and all(isinstance(v, int) for v in held[_CLAUSEN_SQUARE]), (p, r)
        key = tuple(tuple(c.as_integer_ratio() for c in params) for params in family)
        assert len(held[key].table) == fq.q - 1, (p, r)


def test_family_outside_zp_builds_its_table_once_per_context(monkeypatch):
    # the table that fails the certificate is built once and summed point by
    # point at every t, and a negative (-p) exponent is raised once, unchained
    builds = []
    build = gfunction._coefficient_table

    def counting(upper, lower, zq):
        builds.append(upper)
        return build(upper, lower, zq)

    monkeypatch.setattr(gfunction, "_coefficient_table", counting)
    zq = _zq(3, 3, 4)
    family = ((F(1, 4),), (F(0),))
    for t in zq.fq.nonzero_elements():
        params = GParams(*family, t, zq)
        assert evaluate_g(params).value == evaluate_g_pointwise(params), t
    assert len(builds) == 1
    with pytest.raises(EvaluationIntegrityError):
        value_table(*family, zq)
    assert len(builds) == 1
    negative = ((F(1, 4), F(1, 2)), (F(0), F(1, 5)))
    t1 = zq.fq.nonzero_elements()[1]
    with pytest.raises(EvaluationIntegrityError, match="negative total") as raised:
        evaluate_g(GParams(*negative, t1, zq))
    assert raised.value.__context__ is None and len(builds) == 2


def test_corrupted_teichmuller_breaks_the_pointwise_path(corrupted_teichmuller):
    # the point-wise sum reads the power table, the reference iterates x -> x^q
    p, r, n, family = OUTSIDE_ZP[1]
    fq = FqContext(p, r)
    zq = UnramifiedContext(fq, n)
    assert any(
        evaluate_g(GParams(*family, t, zq)).value != evaluate_g_pointwise(GParams(*family, t, zq))
        for t in fq.nonzero_elements()
    )


def test_euler_tables_take_the_integer_path(monkeypatch):
    # building the euler tables at 7^3 runs no rational.g_exponent and reads
    # one correlation block per Frobenius orbit
    calls = []

    def refuse(name):
        def fail(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return fail

    read = padic.correlate

    def counting(u, v, wrap, rows=None):
        blocks = read(u, v, wrap, rows)
        calls.append(("blocks", len(blocks)))
        return blocks

    monkeypatch.setattr(rational, "g_exponent", refuse("g_exponent"))
    monkeypatch.setattr(gfunction, "g_exponent", refuse("g_exponent"))
    monkeypatch.setattr(padic, "correlate", counting)
    zq = _zq(7, 3, 4)
    for upper, lower in (_EULER_LEFT, _EULER_RIGHT):
        value_table(upper, lower, zq)
    assert calls == [("blocks", 118), ("blocks", 118)]



@pytest.mark.parametrize("p,r", [(5, 2), (3, 3)])
def test_scalar_transform_refuses_a_table_without_the_certificate(monkeypatch, p, r):
    # gcd(a, q-1) is constant on each Frobenius orbit; broken at a = 1 alone
    # (1 and p share an orbit for r >= 2), the table is refused before any
    # correlation runs
    calls = []
    read = padic.correlate

    def counting(*args):
        calls.append(len(args[0]))
        return read(*args)

    monkeypatch.setattr(padic, "correlate", counting)
    zq = _zq(p, r, 2)
    table = [gcd(a, zq.q - 1) for a in range(zq.q - 1)]
    table[1] += 1
    with pytest.raises(EvaluationIntegrityError):
        zq.scalar_transform(table)
    assert calls == []
    table[1] -= 1
    assert len(zq.scalar_transform(table)) == zq.q - 1
    assert calls == [zq.q - 1]
