import random
import time
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import prefix_gamma_nat

from padichg.padic import PadicContext
from padichg.pgamma import (
    GammaCache,
    InfeasibleError,
    check_feasible,
    gamma_cache,
)


def brute_gamma_nat(n, p, modulus):
    """Independent oracle: the defining product, no folding, no checkpoints."""
    acc = 1
    for j in range(1, n):
        if j % p:
            acc = acc * j % modulus
    return -acc % modulus if n % 2 else acc % modulus


@pytest.mark.parametrize("p,n", [(5, 3), (5, 4), (7, 3), (3, 5)])
def test_gamma_nat_matches_brute_force(p, n):
    ctx = PadicContext(p, n)
    cache = GammaCache(ctx)
    for k in range(0, 300):
        assert cache.gamma(k).residue == brute_gamma_nat(k, p, p**n), k


def test_gamma_nat_examples():
    ctx = PadicContext(5, 3)
    cache = GammaCache(ctx)
    assert cache.gamma(0).residue == 1
    assert cache.gamma(1) == -1
    assert cache.gamma(3) == -2  # (-1)^3 * (1*2)
    assert cache.gamma(-1) == 1  # Gamma_p(0) = -(-1) * Gamma_p(-1)


def test_gamma_rational_frozen_values():
    # representative of 1/4 mod 5^5 is 2344; defining-product oracle gives 21
    cache4 = GammaCache(PadicContext(5, 4))
    assert cache4.gamma(F(1, 4)).residue == 21
    assert brute_gamma_nat(2344, 5, 5**5) % 5**4 == 21
    cache3 = GammaCache(PadicContext(5, 3))
    g = cache3.gamma(F(1, 2))
    assert g.residue == 68
    assert g * g == -1  # forced by the half-shift product identity
    assert cache3.gamma(F(0)).residue == 1


def test_gamma_rejects_non_padic_argument():
    cache = GammaCache(PadicContext(5, 3))
    with pytest.raises(ValueError):
        cache.gamma(F(1, 5))
    with pytest.raises(ValueError):
        cache.gamma(F(3, 10))


def test_period_fold_is_exact():
    # Gamma_p(n) mod p^N depends only on n mod p^N; cross-check via brute force
    p, n = 7, 3
    ctx = PadicContext(p, n)
    cache = GammaCache(ctx)
    m = p**n
    for t in (0, 1, 2, 50, 341):
        base = brute_gamma_nat(t, p, m)
        for k in (1, 2, 5):
            assert brute_gamma_nat(t + k * m, p, m) == base
            assert cache.gamma(t + k * m).residue == base


def test_functional_equation_random_rationals():
    # Gamma(x+1)/Gamma(x) = -x when x is a unit, -1 when x = 0 mod p
    rng = random.Random(99)
    for p, n in ((5, 4), (7, 3)):
        ctx = PadicContext(p, n)
        cache = GammaCache(ctx)
        m = p**n
        for _ in range(60):
            den = rng.choice([1, 2, 3, 4, 6, 11])
            if den % p == 0:
                continue
            x = F(rng.randint(0, 40), den)
            ratio = cache.gamma(x + 1).residue * pow(cache.gamma(x).residue, -1, m) % m
            residue = x.numerator * pow(x.denominator, -1, m) % m
            if residue % p:
                assert ratio == -residue % m
            else:
                assert ratio == m - 1


def test_precision_truncation_agrees():
    for p in (5, 7):
        lo = GammaCache(PadicContext(p, 3))
        hi = GammaCache(PadicContext(p, 5))
        cut = p**3
        for x in (F(1, 2), F(1, 4), F(2, 3), F(11, 12)):
            if x.denominator % p:
                assert hi.gamma(x).residue % cut == lo.gamma(x).residue


def test_module_level_helpers_share_cache():
    ctx = PadicContext(5, 3)
    assert gamma_cache(ctx) is gamma_cache(PadicContext(5, 3))
    assert gamma_cache(ctx).gamma(10) == GammaCache(ctx).gamma(10)
    assert gamma_cache(ctx).gamma(F(1, 2)).residue == 68


def _edge_and_random_args(p, n, count, seed):
    m = p**n
    rng = random.Random(seed)
    edges = {0, 1, 2, p - 1, p, p + 1, 2 * p, 3 * p - 1, (p - 1) * p, m - p, m - 1}
    return sorted(edges | {rng.randrange(m) for _ in range(count)})


# N = p-2 at (3, 1), (5, 3), (7, 5) and N = p-1 at (3, 2), (5, 4), (7, 6): the
# two sides of the fork between the block-log method and the prefix pass that
# the digit table replaced
@pytest.mark.parametrize(
    "p,n",
    [(3, 1), (5, 1), (5, 3), (7, 2), (7, 5), (11, 4), (13, 4), (29, 3), (3, 2), (5, 4), (7, 6)],
)
def test_block_log_matches_brute_force_and_prefix(p, n):
    m = p**n
    cache = GammaCache(PadicContext(p, n))
    for t in _edge_and_random_args(p, n, 25, seed=p * 100 + n):
        value = cache.gamma(t).residue
        assert value == brute_gamma_nat(t, p, m), t
        assert value == prefix_gamma_nat(p, m, t), t


@pytest.mark.parametrize("p,n", [(31, 4), (211, 3), (17, 15)])
def test_block_log_matches_prefix_large_modulus(p, n):
    # p^N up to 2.9e18 at (17, 15): the prefix oracle is only usable where
    # p^N is small, so compare against brute force on a bounded range there
    cache = GammaCache(PadicContext(p, n))
    m = p**n
    limit = min(m, 3 * p * p)
    rng = random.Random(p + n)
    for t in sorted({0, 1, p - 1, p, p * p, limit - 1} | {rng.randrange(limit) for _ in range(20)}):
        assert cache.gamma(t).residue == brute_gamma_nat(t, p, m), t
    if m <= 10**7:
        for t in _edge_and_random_args(p, n, 200, seed=7):
            assert cache.gamma(t).residue == prefix_gamma_nat(p, m, t), t


# p^N above 10^7, where the prefix pass was refused: brute force on a bounded
# range, and every digit level mod p^low against the prefix oracle there
@pytest.mark.parametrize("p,n,low", [(3, 15, 10), (5, 11, 7), (7, 9, 5)])
def test_digit_table_beyond_old_refusal(p, n, low):
    cache = GammaCache(PadicContext(p, n))
    m, cut = p**n, p**low
    limit = 3 * p**3
    rng = random.Random(p * n)
    for t in sorted({0, 1, p - 1, p, limit - 1} | {rng.randrange(limit) for _ in range(20)}):
        assert cache.gamma(t).residue == brute_gamma_nat(t, p, m), t
    for t in _edge_and_random_args(p, n, 200, seed=p + n):
        assert cache.gamma(t).residue % cut == prefix_gamma_nat(p, cut, t), t


def test_admission_refuses_long_prefix_pass():
    # the name predates the digit table: the bound is now on its work, p*N^2
    check_feasible(3, 15)  # refused while a prefix pass served N > p-2
    check_feasible(3, 816)
    check_feasible(65521, 5)  # clausen's default precision at q = 65521
    for p, n in ((3, 817), (3, 10**6), (65521, 6), (65521, 60000), (257, 255)):
        with pytest.raises(InfeasibleError):
            check_feasible(p, n)
    start = time.perf_counter()
    with pytest.raises(InfeasibleError):
        check_feasible(7, 10**9)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(InfeasibleError):
        GammaCache(PadicContext(3, 1000))


# N = p-2 at (5, 3) and (7, 5); N > p-2 at (3, 4), (5, 5), (7, 6), and beyond
# the former prefix-pass refusal at (3, 16) and (5, 12)
_FIELDS = [
    (3, 4), (5, 3), (5, 5), (7, 5), (7, 6), (11, 4), (13, 3), (101, 5), (211, 3), (3, 16), (5, 12),
]


@lru_cache(maxsize=None)
def _shared_cache(p, n):
    return GammaCache(PadicContext(p, n))


def _p_adic_rationals():
    return st.tuples(
        st.sampled_from(_FIELDS),
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
    ).filter(lambda f: f[2] % f[0][0] != 0)


@settings(max_examples=300, deadline=None)
@given(_p_adic_rationals())
def test_functional_equation_property(case):
    (p, n), num, den = case
    cache, m = _shared_cache(p, n), p**n
    x = F(num, den)
    residue = num * pow(den, -1, m) % m
    factor = -residue if residue % p else -1
    assert cache.gamma(x + 1).residue == factor * cache.gamma(x).residue % m


@settings(max_examples=300, deadline=None)
@given(_p_adic_rationals())
def test_reflection_property(case):
    (p, n), num, den = case
    cache, m = _shared_cache(p, n), p**n
    x = F(num, den)
    r_x = num * pow(den, -1, p) % p or p  # R(x) in {1..p}, R(x) = x mod p
    product = cache.gamma(x).residue * cache.gamma(1 - x).residue % m
    assert product == (-1) ** r_x % m
