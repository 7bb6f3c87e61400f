"""Certified Z_p value tables against the full Z_q character transform.

gfunction.value_table checks that a coefficient table is Frobenius
invariant, c[p a] = c[a], and then builds its values with
UnramifiedContext.scalar_transform: integers mod p^N, one correlation block
read per Frobenius orbit of k -> p k and a dot product with per-context
weights in place of a reduced Z_q product per k.  The reference here is the
full Z_q transform, whose values must be the same integers in the constant
coefficient and 0 in every other.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_correlation, evaluate_g_pointwise

from padichg import gfunction, padic, rational
from padichg.finitefield import FqContext, correlate, pack, poly_mulmod, poly_reduce
from padichg.gfunction import EvaluationIntegrityError, GParams, evaluate_g, value_table
from padichg.padic import UnramifiedContext
from padichg.suites import _CLAUSEN_CUBE, _CLAUSEN_SQUARE, _EULER_LEFT, _EULER_RIGHT

EULER_FAMILIES = [_EULER_LEFT, _EULER_RIGHT, _EULER_RIGHT[::-1]]
CLAUSEN_FAMILIES = [_CLAUSEN_CUBE, _CLAUSEN_SQUARE]
NOT_P_STABLE = ((F(1, 3),), (F(0),))  # {1/3} is not closed under x -> p x mod 1 at p = 5


def _zq(p, r, n):
    return UnramifiedContext(FqContext(p, r), n)


def _scaled_table(upper, lower, zq):
    """-1/(q-1) times the coefficient table, the input of both transforms."""
    m = zq.modulus
    lead = -pow(zq.q - 1, -1, m) % m
    return [c * lead % m for c in gfunction._coefficient_table(upper, lower, zq)]


def _assert_scalars(values, full):
    assert [t.coeffs[0] for t in full] == values
    assert all(not any(t.coeffs[1:]) for t in full)


@pytest.mark.parametrize(
    "p,r,n",
    [(5, 2, 4), (7, 2, 3), (3, 2, 5), (5, 3, 3), (3, 3, 4), (3, 4, 4), (5, 4, 2), (3, 5, 3)],
)
def test_value_tables_are_the_constant_coefficients_of_the_zq_transform(p, r, n):
    zq = _zq(p, r, n)
    families = CLAUSEN_FAMILIES + (EULER_FAMILIES if p > 3 else [])
    for upper, lower in families:
        values = value_table(upper, lower, zq)
        assert all(isinstance(v, int) and 0 <= v < zq.modulus for v in values)
        _assert_scalars(values, zq.character_transform(_scaled_table(upper, lower, zq)))


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
    _assert_scalars(zq.scalar_transform(table), zq.character_transform(table))


@pytest.mark.parametrize("p,r,n", [(13, 1, 4), (7, 2, 3), (3, 3, 4), (5, 3, 2), (3, 4, 3)])
def test_orbit_reads_equal_a_read_of_every_block(p, r, n):
    # every block of the correlation, reduced and post-twiddled in Z_q on its
    # own, gives the value that scalar_transform copied from its orbit's block
    zq = _zq(p, r, n)
    upper, lower = _CLAUSEN_SQUARE
    table = _scaled_table(upper, lower, zq)
    values = zq.scalar_transform(table)
    q1, m, neg = zq.q - 1, zq.modulus, zq._neg_poly
    pows = zq.omega_generator_powers()
    blocks = zq._chirp_correlation(table)
    assert len(blocks) == q1
    for k, block in enumerate(blocks):
        post = pows[k * (k - 1) // 2 % q1]
        value = poly_mulmod(poly_reduce(list(block), neg, m), post, neg, m)
        assert value == (values[k],) + (0,) * (r - 1), k
    reps, orbit, _ = zq._scalar_weights()
    assert sorted(set(orbit)) == list(range(len(reps)))
    assert all(orbit[k * p % q1] == orbit[k] for k in range(q1))


@pytest.mark.parametrize("rows", [[0], [4, 1, 7], [], list(range(9))[::-1]])
def test_correlate_reads_the_requested_rows(rows):
    u = [[3, -1], [0, 2], [-5, 4]]
    v = [[3 * j % 11 - 5, 7 * j % 13 - 6] for j in range(11)]  # signed, |entry| <= 6
    bound = len(u) * 2 * 5 * 6
    full = block_correlation(u, v)
    assert correlate(u, pack(v, bound)) == full
    assert correlate(u, pack(v, bound), rows) == [full[k] for k in rows]


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


def test_family_outside_zp_keeps_the_zq_path():
    # {1/3} is not p-stable at 5^3 (3 does not divide q - 1), so the values lie
    # in Z_q and not in Z_p: evaluate_g serves them, value_table refuses them
    fq = FqContext(5, 3)
    zq = UnramifiedContext(fq, 3)
    values = [evaluate_g(GParams(*NOT_P_STABLE, t, zq)).value for t in fq.elements()]
    for t, value in zip(fq.elements(), values):
        assert value == evaluate_g_pointwise(GParams(*NOT_P_STABLE, t, zq))
    assert any(any(v.coeffs[1:]) for v in values)
    with pytest.raises(EvaluationIntegrityError):
        value_table(*NOT_P_STABLE, zq)


def test_euler_tables_take_the_integer_path(monkeypatch):
    # building the euler tables at 7^3 runs no Z_q transform and no
    # rational.g_exponent, and reads one correlation block per Frobenius orbit
    calls = []

    def refuse(name):
        def fail(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return fail

    read = padic.correlate

    def counting(u, v, rows=None):
        blocks = read(u, v, rows)
        calls.append(("blocks", len(blocks)))
        return blocks

    monkeypatch.setattr(UnramifiedContext, "character_transform", refuse("character_transform"))
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
