"""The ring base of the element API: Z_p, scalar Z_q and F_q elements.

ZpElement, ZqElement and FqElement share one copy of the ring rules,
elements._PolyResidue.  A property checks each against int arithmetic mod
its modulus, with an int on either side of every operator, /, == and **
included, and the hash rule of the base: equal Z_p, Z_q and canonical int
scalars hash alike.  F_q powers are checked against the discrete-log table,
and equality and construction against operands of other rings and non-int
coefficients.  The rest pins ZpElement's public contract.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padichg import contexts
from padichg.elements import (
    FqElement,
    ZpElement,
    ZqElement,
    _PolyResidue,
    balanced_lift,
    recover_bounded_integer,
)
from padichg.finitefield import FqContext
from padichg.pgamma import gamma_cache
from padichg.zmod import PadicContext

FQ, ZQ = contexts(5, 2, 4)
# ring -> (the element of an int, the modulus of its scalars)
RINGS = {
    "Z_p": (ZQ.base.element, ZQ.modulus),
    "Z_q scalar": (ZQ.scalar, ZQ.modulus),
    "F_q": (FQ.scalar, FQ.p),
}
INTS = st.integers(min_value=-(10**6), max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(
    ring=st.sampled_from(sorted(RINGS)), a=INTS, b=INTS, e=st.integers(min_value=-5, max_value=40)
)
def test_ring_operations_agree_with_int_arithmetic(ring, a, b, e):
    make, m = RINGS[ring]
    x = make(a)
    assert x == a and a == x and x == a + m and x != a + 1
    if e >= 0 or a % FQ.p:
        assert x**e == make(pow(a, e, m))
    else:
        with pytest.raises(ZeroDivisionError):
            x**e
    for y in (b, make(b)):
        assert x + y == make(a + b) and y + x == make(a + b)
        assert x - y == make(a - b) and y - x == make(b - a)
        assert x * y == make(a * b) and y * x == make(a * b)
        assert -x == make(-a)
        if b % FQ.p:
            assert x / y == make(a * pow(b, -1, m))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        if a % FQ.p:
            assert y / x == make(b * pow(a, -1, m))
        else:
            with pytest.raises(ZeroDivisionError):
                y / x


@settings(max_examples=200, deadline=None)
@given(
    v=st.integers(min_value=0, max_value=ZQ.modulus - 1),
    w=st.integers(min_value=0, max_value=ZQ.modulus - 1),
)
def test_equal_scalars_hash_equal(v, w):
    values = [
        v,
        w,
        ZQ.base.element(v),
        ZpElement(PadicContext(5, 4), w),  # a separate context of the same p^N
        ZQ.scalar(v),
        ZQ.scalar(w),
        ZQ.element((v, w)),
        ZQ.element((w, v)),
    ]
    for s in values:
        for t in values:
            if s == t:
                assert hash(s) == hash(t), (s, t)
    assert len({v, ZQ.base.element(v), ZQ.scalar(v)}) == 1


def test_int_and_zp_scalar_operations_at_5_2_4():
    _, zq = contexts(5, 2, 4)
    assert 3 - zq.base.element(3) == 0
    assert zq.base.element(3) / 2 == 3 * pow(2, -1, 625)
    assert len({zq.scalar(3), zq.base.element(3), 3}) == 1


def test_int_over_an_element_at_5_2_4():
    fq, zq = contexts(5, 2, 4)
    assert 2 / zq.scalar(3) == zq.scalar(2 * pow(3, -1, 625))
    assert 2 / zq.base.element(3) == 2 * pow(3, -1, 625)
    assert 2 / fq.scalar(3) == fq.scalar(4)
    with pytest.raises(TypeError):
        "2" / fq.scalar(3)  # F_q takes no str, and says so itself


def test_fq_scalars_equal_ints_mod_p():
    fq, _ = contexts(5, 2, 4)
    x = fq.scalar(3)
    assert x == 3 and 3 == x and x == 8 and x != 4 and x - 3 == 0
    assert hash(x) == hash(3) and len({x, 3}) == 1
    assert fq.coerce((3, 1)) != 3  # not a scalar


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2), (7, 2), (3, 3)])
def test_fq_power_matches_the_dlog_table_power(p, r):
    ctx = FqContext(p, r)
    n = ctx.q - 1
    for x in ctx.nonzero_elements():
        for e in range(-5, 2 * n + 2):
            # the power F_q elements used to take: a lookup of dlog(x) * e
            assert (x**e).coeffs == ctx.powers[x.dlog() * e % n], (x, e)


def test_powers_of_zero_in_f_q():
    fq, _ = contexts(5, 2, 4)
    assert fq.zero**0 == fq.one and fq.zero**3 == fq.zero
    with pytest.raises(ZeroDivisionError, match="inverse of zero in F_q"):
        fq.zero**-1


def test_equality_across_rings_never_raises():
    zp7_one = PadicContext(5, 7).element(1)  # Z_q is at 5^4
    assert ZQ.scalar(1) != zp7_one and zp7_one != ZQ.scalar(1)
    assert len({ZQ.scalar(1), zp7_one}) == 2
    assert FQ.one != ZQ.one and ZQ.one != FQ.one


def test_the_ring_base_alone_defines_the_rules():
    own = ("__eq__", "__hash__", "__pow__")
    for cls in (FqElement, ZqElement, ZpElement):
        assert [name for name in own if name in vars(cls)] == [], cls


# each builds an element from a non-int coefficient
_NON_INT = {
    "ZpElement(ctx, 0.5)": lambda: ZpElement(ZQ.base, 0.5),
    "ZpElement(ctx, Fraction(1, 2))": lambda: ZpElement(ZQ.base, Fraction(1, 2)),
    "zq.base.element(2.7)": lambda: ZQ.base.element(2.7),
    "zq.scalar(0.5)": lambda: ZQ.scalar(0.5),
    "zq.element((2.9, 1))": lambda: ZQ.element((2.9, 1)),
    "zq.element(('7', 1))": lambda: ZQ.element(("7", 1)),
    "fq.scalar(2.5)": lambda: FQ.scalar(2.5),
    "fq.coerce((0.5, 1))": lambda: FQ.coerce((0.5, 1)),
}


@pytest.mark.parametrize("case", list(_NON_INT))
def test_non_int_coefficients_are_refused(case):
    with pytest.raises(TypeError, match="coefficients must be ints"):
        _NON_INT[case]()


def test_zp_element_shares_the_ring_base():
    assert issubclass(ZpElement, _PolyResidue)
    own = ("__add__", "__radd__", "__neg__", "__sub__", "__mul__", "__rmul__")
    assert [name for name in own if name in vars(ZpElement)] == []


def test_zp_constructor_reduces_and_residue_is_read_only():
    ctx = PadicContext(5, 4)
    assert ZpElement(ctx, 628).residue == 3
    assert ZpElement(ctx, -1).residue == 624
    x = ZpElement(ctx, 3)
    with pytest.raises(AttributeError):
        x.residue = 4
    assert x.residue == 3


def test_zp_int_and_repr():
    x = ZpElement(PadicContext(5, 4), -2)
    assert int(x) == 623
    assert repr(x) == "Zp(623 mod 5^4)"


def test_separate_contexts_of_one_modulus_give_equal_elements():
    x, y = ZpElement(PadicContext(5, 4), 7), ZpElement(PadicContext(5, 4), 7)
    assert x == y and hash(x) == hash(y)
    assert x + y == 14 and x - y == 0
    assert ZpElement(PadicContext(5, 3), 7) != x  # equality compares p^N


def test_mixed_moduli_and_non_units_raise():
    x, y = ZpElement(PadicContext(5, 4), 7), ZpElement(PadicContext(5, 3), 7)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(ValueError, match="mixed Z_p contexts"):
            op()
    with pytest.raises(ZeroDivisionError, match="non-unit in Z_p"):
        ZpElement(PadicContext(5, 4), 10).inverse()
    with pytest.raises(ZeroDivisionError, match="non-unit in Z_p"):
        x / 5


def test_contexts_build_zp_elements():
    ctx = PadicContext(5, 3)
    assert type(ctx.element(7)) is ZpElement
    assert type(gamma_cache(ctx).gamma(3)) is ZpElement


def test_lifts_accept_both_scalar_types():
    for x in (ZQ.base.element(-7), ZQ.scalar(-7)):
        assert balanced_lift(x) == -7
        assert recover_bounded_integer(x, 7) == -7
        with pytest.raises(ArithmeticError):
            recover_bounded_integer(x, 6)
    with pytest.raises(ArithmeticError, match="not a Z_p scalar"):
        balanced_lift(ZQ.element((1, 1)))
    with pytest.raises(TypeError):
        balanced_lift(FQ.one)

