"""One reader of exact rationals: zmod.ratio, and the five entries that read
their rational inputs through it.

ratio returns Fraction(c).as_integer_ratio() for every exact rational it
takes, and refuses a float, a pair that is not of integers, a zero
denominator and, given p, a denominator divisible by p.  value_table,
GParams, GammaCache.gamma, frac and g_exponent refuse alike, each naming its
role first.
"""

from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import padichg
from padichg.elements import GParams
from padichg.finitefield import FqContext
from padichg.gfunction import value_table
from padichg.padic import UnramifiedContext
from padichg.pgamma import GammaCache
from padichg.rational import frac, g_exponent
from padichg.zmod import PadicContext, ratio

nonzero = st.integers().filter(bool)
exact = st.one_of(
    st.integers(),
    st.fractions(),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(), st.integers(min_value=1)),
    st.decimals(-(10**9), 10**9, allow_nan=False, places=6),
)


@given(exact)
def test_ratio_is_the_reduced_fraction(c):
    assert ratio(c, "x") == F(c).as_integer_ratio()


@given(st.integers(), nonzero)
@example(3, -6)  # the sign moves to num: (-1, 2)
def test_ratio_reduces_a_pair_of_either_sign(num, den):
    assert ratio((num, den), "x") == F(num, den).as_integer_ratio()


@given(st.integers(), nonzero, st.sampled_from((3, 5, 7)))
def test_ratio_refuses_den_divisible_by_p(num, den, p):
    expected = F(num, den).as_integer_ratio()
    if expected[1] % p:
        assert ratio((num, den), "x", p) == expected
    else:
        with pytest.raises(ValueError, match=rf"^x {expected[0]}/{expected[1]} is not a p-adic"):
            ratio((num, den), "x", p)


@given(st.floats())
def test_ratio_refuses_every_float(c):
    with pytest.raises(TypeError, match="^x .* is a float"):
        ratio(c, "x")


def test_ratio_refuses_what_is_no_exact_rational():
    with pytest.raises(ZeroDivisionError, match=r"^x \(1, 0\) has denominator 0$"):
        ratio((1, 0), "x")
    with pytest.raises(TypeError, match=r"^x \('1', 2\) is not a pair of integers$"):
        ratio(("1", 2), "x")


P = 7
FQ = FqContext(P, 1)
ZQ = UnramifiedContext(FQ, 3)
CACHE = GammaCache(PadicContext(P, 3))

# name -> (role, the entry at one rational x)
ENTRIES = {
    "value_table": ("upper parameter", lambda x: value_table((x,), (0,), ZQ)),
    "GParams": ("lower parameter", lambda x: GParams((0,), (x,), FQ.scalar(3), ZQ)),
    "gamma": ("Gamma_p argument", CACHE.gamma),
    "frac": ("argument", frac),
    "g_exponent": ("a_k", lambda x: g_exponent(x, 0, 2, 0, P, P)),
}
# a refused input -> the exception every entry raises for it
REFUSED = {
    1 / 3: TypeError,
    ("1", 2): TypeError,
    (1, 0): ZeroDivisionError,
    (1, P): ValueError,
    F(2, 3 * P): ValueError,
}


@pytest.mark.parametrize(
    "name, bad",
    # frac takes no p, so it has no ValueError case
    [
        (name, bad)
        for name in ENTRIES
        for bad in REFUSED
        if name != "frac" or REFUSED[bad] is not ValueError
    ],
    ids=repr,
)
def test_every_entry_refuses_alike_and_names_its_role(name, bad):
    role, entry = ENTRIES[name]
    with pytest.raises(REFUSED[bad]) as raised:
        entry(bad)
    assert str(raised.value).startswith(f"{role} ")


def test_every_entry_takes_a_pair():
    assert CACHE.gamma((1, 2)) == CACHE.gamma(F(1, 2)) == CACHE.gamma("1/2")
    assert frac((7, 3)) == frac((-14, -6)) == F(1, 3)
    assert g_exponent((1, 3), 0, 2, 0, 7, 7) == g_exponent(F(1, 3), 0, 2, 0, 7, 7) == 0
    assert g_exponent(F(1, 3), Decimal("0.5"), 1, 0, 5, 5) == g_exponent(
        (1, 3), (1, 2), 1, 0, 5, 5
    )


def test_floats_are_refused_where_they_once_passed():
    # Fraction(1/3) is 6004799503160661/2^54: frac returned it, and
    # g_exponent read it as another parameter and returned 1 for 0
    with pytest.raises(TypeError, match="^argument 0.333"):
        frac(1 / 3)
    with pytest.raises(TypeError, match="^a_k 0.333"):
        padichg.g_exponent(1 / 3, 0, 2, 0, 7, 7)
    with pytest.raises(TypeError, match="^b_k 0.5 is a float"):
        padichg.g_exponent(0, 0.5, 2, 0, 7, 7)
