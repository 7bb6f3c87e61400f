from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    char_value,
    jacobi_sum,
    jacobi_sum_elementwise,
    sum_A_bruteforce,
    sum_a_bruteforce,
    sum_B_pointwise,
    sum_h_pointwise,
)

from padichg import charsums
from padichg.charsums import A_values, a_values, sum_A, sum_B, sum_a, sum_h
from padichg.charsums import verify_aop_identity
from padichg.finitefield import FqContext, quadratic_char
from padichg.elements import balanced_lift
from padichg.padic import UnramifiedContext


def _pair(p, r, n):
    fq = FqContext(p, r)
    return fq, UnramifiedContext(fq, n)


def euler_phi_int(x):
    """Independent quadratic character: Euler criterion, no dlog table."""
    ctx = x.context
    if x.is_zero():
        return 0
    return 1 if x ** ((ctx.q - 1) // 2) == ctx.one else -1


def test_sum_A_frozen_and_brute():
    fq = FqContext(5, 1)
    one = fq.one
    for lam in fq.elements():  # lam = 0 degenerates to phi(x^2 y (x+1)(y+1))
        brute = 0
        for x in fq.elements():
            for y in fq.elements():
                brute += euler_phi_int(x * y * (x + one) * (y + one) * (x + lam * y))
        assert sum_A(lam) == brute
    assert sum_A(one) == 5


def test_sum_a_frozen_values():
    fq = FqContext(5, 1)
    assert sum_a(fq.one) == 0  # terms phi(3), 0, phi(1), phi(2), phi(4)
    assert sum_a(fq.scalar(2)) == -2
    with pytest.raises(ValueError):
        sum_a(-fq.one)


def test_sum_bounds():
    fq = FqContext(3, 2)
    for lam in fq.elements():
        assert abs(sum_A(lam)) <= (fq.q - 1) ** 2
        if not (lam + fq.one).is_zero():
            assert abs(sum_a(lam)) <= fq.q


def test_jacobi_trivial_character_value():
    for p in (5, 7):
        fq, zq = _pair(p, 1, 4)
        assert jacobi_sum(0, 0, zq) == zq.scalar(fq.q - 2)


def test_jacobi_quadratic_frozen():
    fq, zq = _pair(5, 1, 4)
    assert jacobi_sum(2, 2, zq) == -zq.one  # terms -1 + 1 - 1


def test_jacobi_symmetry():
    fq, zq = _pair(7, 1, 3)
    for i in range(6):
        for j in range(6):
            assert jacobi_sum(i, j, zq) == jacobi_sum(j, i, zq)


def test_jacobi_conjugation_identity():
    # J(A, B) = A(-1) J(A, (AB)-bar) for all index pairs over F_7
    fq, zq = _pair(7, 1, 3)
    n = fq.q - 1
    minus_one = -fq.one
    for i in range(n):
        for j in range(n):
            lhs = jacobi_sum(i, j, zq)
            rhs = char_value(zq, i, minus_one) * jacobi_sum(i, (n - (i + j)) % n, zq)
            assert lhs == rhs, (i, j)


def test_h_equals_double_sum():
    for p, r in ((7, 1), (3, 2)):
        fq, zq = _pair(p, r, 5)
        for lam in fq.nonzero_elements():
            assert sum_h(lam, zq) == zq.scalar(sum_A(lam)), lam
    fq, zq = _pair(5, 1, 3)
    assert sum_h(fq.one, zq) == zq.scalar(5)
    with pytest.raises(ValueError):
        sum_h(fq.zero, zq)


def test_sum_B_frozen_and_relation():
    # B(2) over F_5 was fixed by hand: the four Jacobi products sum to 4 mod 25
    # and phi(-2)/(q-1) scales it to -1
    fq, zq = _pair(5, 1, 4)
    assert sum_B(fq.scalar(2), zq) == -zq.one
    with pytest.raises(ValueError):
        sum_B(fq.zero, zq)
    with pytest.raises(ValueError):
        sum_B(-fq.one, zq)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2)])
def test_sum_B_coupling_exhaustive(p, r):
    # B = -phi(2 lam/(lam+1)) + phi(-1) a(lam, q); the a-sign is the one the
    # defining sums actually satisfy (fixed in advance by hand computation)
    fq, zq = _pair(p, r, 5)
    phim1 = quadratic_char(fq.scalar(-1))
    for lam in fq.elements():
        if lam.is_zero() or (lam + fq.one).is_zero():
            continue
        expect = (
            -quadratic_char(fq.scalar(2) * lam / (lam + fq.one))
            + phim1 * sum_a(lam)
        )
        assert sum_B(lam, zq) == zq.scalar(expect), lam


def test_aop_identity_exhaustive():
    for p, r in ((3, 2), (7, 1)):
        fq = FqContext(p, r)
        for lam in fq.elements():
            if lam.is_zero() or (lam + fq.one).is_zero():
                continue
            assert verify_aop_identity(lam), lam
    fq5 = FqContext(5, 1)
    assert verify_aop_identity(fq5.one)  # 5 = phi(2)(0 - 5)
    with pytest.raises(ValueError):
        verify_aop_identity(fq5.zero)
    with pytest.raises(ValueError):
        verify_aop_identity(-fq5.one)


def test_phi_sums_redundant_zq_path():
    # recompute a(lam, q) through Z_q character values; the balanced lift of
    # the redundant path must equal the integer dlog-parity value
    fq, zq = _pair(3, 2, 4)
    half = (fq.q - 1) // 2
    one = fq.one
    for lam in fq.elements():
        if (lam + one).is_zero():
            continue
        c = (lam + one).inverse()
        acc = zq.zero
        for x in fq.elements():
            acc = acc + char_value(zq, half, (x - one) * (x * x - c))
        assert balanced_lift(acc) == sum_a(lam)


@pytest.mark.parametrize("p,r,n", [(5, 1, 4), (7, 1, 3), (3, 2, 5), (5, 2, 3), (3, 3, 4)])
def test_sum_h_and_B_match_pointwise_oracle(p, r, n):
    # every lam of the field, against the Frobenius lift + Hensel inverse +
    # running power product
    fq, zq = _pair(p, r, n)
    for lam in fq.nonzero_elements():
        assert sum_h(lam, zq) == sum_h_pointwise(lam, zq), lam
        if not (lam + fq.one).is_zero():
            assert sum_B(lam, zq) == sum_B_pointwise(lam, zq), lam


@pytest.mark.parametrize(
    "p,r,n", [(3, 1, 3), (5, 1, 3), (7, 1, 2), (3, 2, 3), (5, 2, 2), (5, 3, 2), (3, 4, 2)]
)
def test_jacobi_families_match_jacobi_sum(p, r, n):
    # the three transformed families behind h and B, every character index,
    # against the dlog-histogram sum and the element-by-element Z_q sum
    fq, zq = _pair(p, r, n)
    size = fq.q - 1
    half = size // 2
    for u, v in ((-1, 1), (2, -1), (1, -1)):
        family = charsums._jacobi_family(zq, u, v)
        for m in range(size):
            i, j = (half + u * m) % size, v * m % size
            assert family[m] == jacobi_sum(i, j, zq) == jacobi_sum_elementwise(i, j, zq), (u, v, m)


@lru_cache(maxsize=None)
def _dlog_pairs(p, r):
    return FqContext(p, r).jacobi_dlog_pairs()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4), (3, 5)]),
    st.integers(),
    st.integers(),
)
def test_jacobi_histograms_are_frobenius_invariant(field, u, v):
    # x -> x^p permutes the x outside {0, 1}, multiplies dlog x and dlog(1-x)
    # by p and keeps the parity of dlog x, so every histogram the Jacobi
    # families transform carries the certificate of scalar_transform
    p, r = field
    n = p**r - 1
    c = [0] * n
    for d1, d2 in _dlog_pairs(p, r):
        c[(u * d1 + v * d2) % n] += 1 - 2 * (d1 & 1)
    assert all(c[p * e % n] == c[e] for e in range(n))


def test_h_and_B_built_once_per_context(monkeypatch):
    transforms = []
    original = UnramifiedContext.scalar_transform

    def counting(zq, coeffs):
        transforms.append(len(coeffs))
        return original(zq, coeffs)

    monkeypatch.setattr(UnramifiedContext, "scalar_transform", counting)
    fq, zq = _pair(7, 1, 3)
    lams = [lam for lam in fq.nonzero_elements() if not (lam + fq.one).is_zero()]
    first = [(sum_h(lam, zq), sum_B(lam, zq)) for lam in lams]
    assert transforms == [fq.q - 1] * 5  # h: one family + one sum; B: two + one
    assert [(sum_h(lam, zq), sum_B(lam, zq)) for lam in lams] == first
    assert len(transforms) == 5


def test_sums_reject_foreign_field():
    _, zq = _pair(5, 1, 3)
    foreign = FqContext(7, 1).scalar(2)
    with pytest.raises(ValueError):
        sum_h(foreign, zq)
    with pytest.raises(ValueError):
        sum_B(foreign, zq)


ORACLE_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (5, 3)]


@pytest.mark.parametrize("p,r", ORACLE_FIELDS)
def test_whole_field_tables_match_bruteforce(p, r):
    # every lam (lam = 0 included for A) against the per-lambda double sum
    fq = FqContext(p, r)
    for lam in fq.elements():
        assert sum_A(lam) == sum_A_bruteforce(lam), lam
        if not (lam + fq.one).is_zero():
            assert sum_a(lam) == sum_a_bruteforce(lam), lam


def test_oracle_tables_built_once_per_context(monkeypatch):
    correlations = []
    original = charsums.correlate

    def counting(u, v, wrap):
        correlations.append((len(u), wrap))
        return original(u, v, wrap)

    monkeypatch.setattr(charsums, "correlate", counting)
    fq = FqContext(7, 2)
    zech = fq.zech_table()
    lams = [lam for lam in fq.elements() if not (lam + fq.one).is_zero()]
    first = [(sum_A(lam), sum_a(lam)) for lam in lams]
    tables = {"A": A_values(fq), "a": a_values(fq)}
    assert len(fq.tables) == 3  # the Zech table, A and a
    assert correlations == [(fq.q - 1, 1)] * 3  # two cyclic for A, one for a
    assert [(sum_A(lam), sum_a(lam)) for lam in lams] == first
    assert all(verify_aop_identity(lam) for lam in lams if not lam.is_zero())
    assert correlations == [(fq.q - 1, 1)] * 3
    assert A_values(fq) is tables["A"] and a_values(fq) is tables["a"]
    assert fq.zech_table() is zech
    # a second context of the same field owns its own tables
    other = FqContext(7, 2)
    sum_A(other.one)
    assert len(correlations) == 5 and A_values(other) is not tables["A"]
