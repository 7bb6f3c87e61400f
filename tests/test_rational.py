import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import floor_int, g_exponent_fraction

from padichg.rational import (
    check_floor_identity_A,
    check_floor_identity_B,
    frac,
    g_exponent,
)


def test_frac_examples():
    assert frac(F(7, 3)) == F(1, 3)
    assert frac(F(-3, 4)) == F(1, 4)
    assert frac(0) == 0


def test_floor_examples():
    assert floor_int(F(7, 3)) == 2
    assert floor_int(F(-3, 4)) == -1
    assert floor_int(5) == 5


def test_floor_frac_decomposition_random():
    rng = random.Random(20220420)
    for _ in range(500):
        x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        f = frac(x)
        assert 0 <= f < 1
        assert floor_int(x) + f == x
        assert (x - f).denominator == 1


def test_g_exponent_frozen_values():
    # direct rational-arithmetic oracle values, recorded before the build
    assert g_exponent(F(1, 3), F(0), 1, 0, 5, 5) == 0
    assert g_exponent(F(0), F(0), 0, 0, 5, 5) == 0
    assert g_exponent(F(0), F(0), 0, 0, 7, 49) == 0
    # -floor(1/4) - floor(3/4) = 0 (the <-1/2> term is 1/2, not -1/2)
    assert g_exponent(F(1, 2), F(1, 2), 1, 0, 5, 5) == 0


def test_g_exponent_rejects_p_in_denominator():
    with pytest.raises(ValueError):
        g_exponent(F(1, 5), F(0), 1, 0, 5, 5)
    with pytest.raises(ValueError):
        g_exponent(F(0), F(3, 10), 1, 0, 5, 5)


def test_identity_A_examples():
    assert check_floor_identity_A(5, 5, 1, 0)
    assert check_floor_identity_A(5, 5, 0, 0)
    with pytest.raises(ValueError):
        check_floor_identity_A(5, 5, 2, 0)


def test_identity_A_sides_value():
    # both sides evaluate to 1 at (p=5, q=5, a=1, i=0)
    u = F(1, 4)
    lhs = -2 * floor_int(2 * u) - floor_int(-6 * u) + floor_int(u) + floor_int(-3 * u)
    assert lhs == 1
    assert check_floor_identity_A(5, 5, 1, 0)


def test_identity_B_examples():
    assert check_floor_identity_B(5, 5, 2, 0)  # both sides 1; a=(q-1)/2 admitted
    assert check_floor_identity_B(5, 5, 1, 0)
    with pytest.raises(ValueError):
        check_floor_identity_B(5, 5, 0, 0)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (11, 1), (5, 2), (7, 2)])
def test_floor_identities_exhaustive(p, r):
    q = p**r
    for i in range(r):
        for a in range(q - 1):
            if 2 * a != q - 1:
                assert check_floor_identity_A(p, q, a, i), (p, q, a, i)
            if a > 0:
                assert check_floor_identity_B(p, q, a, i), (p, q, a, i)


_RATIONALS = st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 60))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([(3, 1), (5, 2), (7, 3), (11, 1), (13, 2)]),
    _RATIONALS,
    _RATIONALS,
    st.integers(0, 10**6),
    st.integers(0, 2),
)
def test_g_exponent_matches_rational_floors(field, a_k, b_k, a, i):
    # the integer floor divisions against the floors of the Fraction formula
    p, r = field
    q = p**r
    assume(a_k.denominator % p and b_k.denominator % p)
    a, i = a % (q - 1), i % r
    assert g_exponent(a_k, b_k, a, i, p, q) == g_exponent_fraction(a_k, b_k, a, i, p, q)
