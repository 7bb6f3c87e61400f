from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import char_value, character_transform, teichmuller_by_iteration

from padichg.elements import ZpElement, balanced_lift, recover_bounded_integer
from padichg.finitefield import FqContext, memo, quadratic_char
from padichg.jobs import packed_digits
from padichg.padic import PadicContext, UnramifiedContext, _packed_chirp
from padichg.pgamma import gamma_cache


def _zq(p, r, n):
    return UnramifiedContext(FqContext(p, r), n)


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(2, 3)
    with pytest.raises(ValueError):
        PadicContext(6, 3)
    with pytest.raises(ValueError):
        PadicContext(5, 0)
    # bounded before the primality scan, with check_field's messages
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        PadicContext(2**61 - 1, 1)
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        PadicContext(65537, 1)
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        PadicContext(9, 2)
    # the precision is bounded before p^N is computed
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        PadicContext(3, 10**8)


def test_zp_arithmetic_and_inverse():
    ctx = PadicContext(5, 3)
    four = ctx.element(4)
    assert four.inverse().residue == 94  # 4 * 94 = 376 = 3*125 + 1
    assert (four * four.inverse()).residue == 1
    assert (ctx.element(120) + ctx.element(10)).residue == 5
    with pytest.raises(ZeroDivisionError):
        ctx.element(10).inverse()  # divisible by 5


def test_zq_ring_identities():
    zq = _zq(5, 2, 4)
    sample = [zq.element((i, j)) for i in (0, 1, 7, 624) for j in (0, 3, 124)]
    for x in sample:
        assert x + zq.zero == x
        assert x * zq.one == x
        assert (x + (-x)).is_zero()
        for y in sample:
            assert x + y == y + x
            assert x * y == y * x


def test_zq_context_mismatch_rejected():
    a = _zq(5, 1, 3)
    b = _zq(7, 1, 3)
    with pytest.raises(ValueError):
        a.one + b.one


def test_zq_scalar_embedding_mixes():
    zq = _zq(5, 2, 3)
    x = zq.element((3, 4))
    assert x * 1 == x
    assert x + 0 == x
    zp = ZpElement(zq.base, 7)
    assert x * zp == x * 7


def test_zp_and_zq_scalars_compare_alike_both_ways():
    # ZpElement.__eq__ leaves a Z_q operand to ZqElement.__eq__, which reads
    # the Z_p element as a scalar, so equality is symmetric
    zq = _zq(5, 2, 4)
    zp = zq.base.element(3)
    assert zq.scalar(3) == zp and zp == zq.scalar(3)
    assert zq.scalar(4) != zp and zp != zq.scalar(4)
    assert zp != zq.element((3, 1)) and zp != "3"


def test_zq_inverse_hensel():
    zq = _zq(5, 2, 4)
    units = [zq.element((1, 1)), zq.element((3, 0)), zq.element((2, 621))]
    for x in units:
        assert x * x.inverse() == zq.one
    with pytest.raises(ZeroDivisionError):
        zq.scalar(5).inverse()
    # the q-1 prefactor is always a unit
    assert zq.scalar(24) * zq.scalar(24).inverse() == zq.one


def test_teichmuller_fixed_values():
    fq = FqContext(5, 1)
    zq = UnramifiedContext(fq, 3)
    assert zq.teichmuller(fq.one) == zq.one
    assert zq.teichmuller(-fq.one) == -zq.one
    assert zq.teichmuller(fq.scalar(2)) == zq.scalar(57)  # iterate x -> x^5 from 2


def test_teichmuller_rejects_zero():
    fq = FqContext(5, 1)
    zq = UnramifiedContext(fq, 3)
    with pytest.raises(ValueError):
        zq.teichmuller(fq.zero)


@pytest.mark.parametrize("p,r,n", [(5, 1, 4), (7, 1, 3), (5, 2, 4), (3, 2, 5)])
def test_teichmuller_postconditions_exhaustive(p, r, n):
    fq = FqContext(p, r)
    zq = UnramifiedContext(fq, n)
    for t in fq.nonzero_elements():
        w = zq.teichmuller(t)
        assert w ** (fq.q - 1) == zq.one
        assert zq.reduce_mod_p(w) == t


def test_teichmuller_multiplicative():
    fq = FqContext(5, 2)
    zq = UnramifiedContext(fq, 3)
    elems = fq.nonzero_elements()
    for s in elems:
        for t in elems:
            assert zq.teichmuller(s * t) == zq.teichmuller(s) * zq.teichmuller(t)


def test_zp_contexts_compare_by_p_and_precision():
    # gamma_cache shares one cache per (p, N), so its values live in whichever
    # PadicContext(p, N) came first; an equal context must take them
    a, b = PadicContext(5, 3), PadicContext(5, 3)
    x, y = a.element(91), b.element(91)
    assert x == y and hash(x) == hash(y)
    assert x + y == b.element(182) and x * 2 - y == y
    g = gamma_cache(a).gamma(F(1, 3))
    assert gamma_cache(b).gamma(F(1, 3)) == g == b.element(g.residue)
    assert g + b.element(1) == a.element(g.residue + 1)
    for other in (PadicContext(5, 4), PadicContext(7, 3)):
        assert x != other.element(91)
        with pytest.raises(ValueError, match="mixed Z_p contexts"):
            x + other.element(1)
        with pytest.raises(ValueError, match="mixed Z_p contexts"):
            other.element(1) * x


def test_precision_monotonicity():
    fq = FqContext(5, 2)
    lo = UnramifiedContext(fq, 3)
    hi = UnramifiedContext(fq, 5)
    cut = lo.modulus
    for t in fq.nonzero_elements():
        a = lo.teichmuller(t)
        b = hi.teichmuller(t)
        assert tuple(c % cut for c in b.coeffs) == a.coeffs


def test_char_value_conventions():
    fq = FqContext(5, 2)
    zq = UnramifiedContext(fq, 3)
    for j in (0, 1, 12, 23):
        assert char_value(zq, j, fq.zero).is_zero()
    for t in fq.nonzero_elements():
        assert char_value(zq, 0, t) == zq.one
    # index (q-1)/2 realizes the quadratic character
    half = (fq.q - 1) // 2
    for t in fq.nonzero_elements():
        assert char_value(zq, half, t) == zq.scalar(quadratic_char(t))


def test_omega_generator_powers_match_teichmuller():
    # the table against the per-element Frobenius iteration it replaced
    for p, r, n in ((7, 1, 4), (5, 1, 1), (3, 2, 5), (5, 2, 3), (3, 3, 4)):
        fq = FqContext(p, r)
        zq = UnramifiedContext(fq, n)
        pows = zq.omega_generator_powers()
        assert len(pows) == fq.q - 1
        for t in fq.nonzero_elements():
            ref = teichmuller_by_iteration(zq, t)
            assert pows[t.dlog()] == ref.coeffs, (p, r, n, t)
            assert zq.teichmuller(t) == ref, (p, r, n, t)


@pytest.mark.parametrize("p,r,n", [(7, 1, 3), (3, 2, 4), (3, 3, 3)])
def test_char_value_matches_iteration_oracle(p, r, n):
    # omega-bar^j(t) = (Hensel inverse of the iterated lift)^j for every j, t
    fq = FqContext(p, r)
    zq = UnramifiedContext(fq, n)
    for t in fq.nonzero_elements():
        u = teichmuller_by_iteration(zq, t).inverse()
        pw = zq.one
        for j in range(fq.q - 1):
            assert char_value(zq, j, t) == pw, (t, j)
            pw = pw * u


def test_lifts_reject_foreign_field():
    zq = _zq(5, 1, 3)
    foreign = FqContext(7, 1).one
    with pytest.raises(ValueError):
        zq.teichmuller(foreign)
    with pytest.raises(ValueError):
        char_value(zq, 1, foreign)


def test_zq_product_reduces_to_fq_product():
    # F_q and Z_q share one polynomial product; reduction mod p intertwines them
    fq = FqContext(3, 3)
    zq = UnramifiedContext(fq, 3)
    sample = [zq.element((a, b, c)) for a in (0, 1, 26) for b in (2, 13) for c in (0, 25)]
    assert all(y.is_unit() for y in sample)  # b is nonzero mod 3
    for x in sample:
        rx = zq.reduce_mod_p(x)
        assert zq.reduce_mod_p(-x) == -rx
        for y in sample:
            ry = zq.reduce_mod_p(y)
            assert zq.reduce_mod_p(x * y) == rx * ry
            assert zq.reduce_mod_p(x + y) == rx + ry
            assert zq.reduce_mod_p(x - y) == rx - ry
            assert zq.reduce_mod_p(x / y) == rx / ry


# What each ring facade takes as its other operand and how it compares: one
# row per case, with the F_q (5^2) and the Z_q (5^2 at N = 3) outcome.  An
# outcome is the result's coefficients, a bool, or the exception raised.
_COERCIONS = {
    "one == 1": (True, True),  # an int compares mod p in F_q, mod p^N in Z_q
    "one == Z_p one": (False, True),
    "one == mismatched Z_p one": (False, False),  # another p^N: unequal, not an error
    "x + (1, 0)": ((3, 3), TypeError),
    "x + 'a'": (TypeError, TypeError),
    "'a' * x": (TypeError, TypeError),
    "x == 'a'": (False, False),
    "x + foreign": (ValueError, ValueError),
    "foreign - x": (ValueError, ValueError),
    "x + other facade": (TypeError, TypeError),
    "other facade * x": (TypeError, TypeError),
    "Z_p one + x": (TypeError, (3, 3)),
    "3 - x": ((1, 2), (1, 122)),
    "2 * x": ((4, 1), (4, 6)),
    "x / 2": ((1, 4), (1, 64)),
    "-x": ((3, 2), (123, 122)),
}


def _coercion_case(ring, case):
    fq = FqContext(5, 2)
    zq = UnramifiedContext(fq, 3)
    ctx, other = (fq, zq) if ring == "F_q" else (zq, fq)
    make = fq.coerce if ring == "F_q" else zq.element
    x = make((2, 3))
    foreign = FqContext(5, 2).one if ring == "F_q" else UnramifiedContext(fq, 3).one
    zp_one = ZpElement(zq.base, 1)
    return ctx, {
        "one == 1": lambda: ctx.one == 1,
        "one == Z_p one": lambda: ctx.one == zp_one,
        "one == mismatched Z_p one": lambda: ctx.one == ZpElement(PadicContext(5, 4), 1),
        "x + (1, 0)": lambda: x + (1, 0),
        "x + 'a'": lambda: x + "a",
        "'a' * x": lambda: "a" * x,
        "x == 'a'": lambda: x == "a",
        "x + foreign": lambda: x + foreign,
        "foreign - x": lambda: foreign - x,
        "x + other facade": lambda: x + other.one,
        "other facade * x": lambda: other.one * x,
        "Z_p one + x": lambda: zp_one + x,
        "3 - x": lambda: 3 - x,
        "2 * x": lambda: 2 * x,
        "x / 2": lambda: x / 2,
        "-x": lambda: -x,
    }[case]


@pytest.mark.parametrize("case", list(_COERCIONS))
@pytest.mark.parametrize("ring", ["F_q", "Z_q"])
def test_facade_coercion_table(ring, case):
    ctx, run = _coercion_case(ring, case)
    expected = _COERCIONS[case][ring == "Z_q"]
    if isinstance(expected, type):
        with pytest.raises(expected):
            run()
    elif isinstance(expected, bool):
        assert run() is expected
    else:
        result = run()
        assert type(result) is type(ctx.one) and result.context is ctx
        assert result.coeffs == expected


@pytest.mark.parametrize("ring", ["F_q", "Z_q"])
def test_facade_equal_elements_hash_equal(ring):
    fq = FqContext(5, 2)
    make = fq.coerce if ring == "F_q" else UnramifiedContext(fq, 3).element
    x, y = make((2, 3)), make((4, 1))
    assert make((2, 3)) == x and hash(make((2, 3))) == hash(x)
    assert x + y - y == x and hash(x + y - y) == hash(x)
    assert len({x, make((2, 3)), y, make((4, 1))}) == 2


def test_balanced_lift_and_recovery():
    zq = _zq(5, 1, 3)
    assert balanced_lift(zq.scalar(3)) == 3
    assert balanced_lift(zq.scalar(-3)) == -3
    assert balanced_lift(zq.scalar(124)) == -1
    assert recover_bounded_integer(zq.scalar(-5), 10) == -5
    with pytest.raises(ValueError):
        recover_bounded_integer(zq.scalar(1), 100)  # 125 <= 200
    with pytest.raises(ArithmeticError):
        recover_bounded_integer(zq.scalar(40), 10)  # lift 40 exceeds bound
    zq2 = _zq(5, 2, 3)
    with pytest.raises(ArithmeticError):
        balanced_lift(zq2.element((1, 1)))  # not a Z_p scalar


# q = 3 (n = 2) is the shortest transform; the rest cover r = 1..3
_TRANSFORM_FIELDS = [(3, 1, 3), (3, 1, 1), (5, 1, 2), (7, 1, 4), (3, 2, 3), (5, 2, 2), (3, 3, 2)]


@lru_cache(maxsize=None)
def _transform_context(p, r, n):
    return _zq(p, r, n)


@st.composite
def _transform_inputs(draw):
    # one value per Frobenius orbit of a -> p a, so the table has the
    # certificate; at r = 1 every orbit is one a and any table has it
    zq = _transform_context(*draw(st.sampled_from(_TRANSFORM_FIELDS)))
    n, p = zq.q - 1, zq.base.p
    ints = st.integers(min_value=-(zq.modulus**2), max_value=zq.modulus**2)
    coeffs = [None] * n
    for a in range(n):
        if coeffs[a] is None:
            v, j = draw(ints), a
            while coeffs[j] is None:
                coeffs[j] = v
                j = j * p % n
    return zq, coeffs


@settings(max_examples=150, deadline=None)
@given(_transform_inputs())
def test_character_transform_property(case):
    # unreduced, signed integer tables against the naive sum over a
    zq, coeffs = case
    got = zq.scalar_transform(coeffs)
    assert len(got) == zq.q - 1
    assert [zq.scalar(v) for v in got] == character_transform(zq, coeffs)


def test_character_transform_rejects_bad_input():
    zq = _zq(5, 1, 3)
    with pytest.raises(ValueError):
        zq.scalar_transform([1, 2, 3])
    with pytest.raises(TypeError):  # the coefficients are integers, not Z_q elements
        zq.scalar_transform([1, 2, zq.one, 4])


def test_character_transform_beyond_int_digit_limit():
    # slot sums of p^N-residues here have over 4300 decimal digits, past
    # CPython's default limit for int <-> str conversion; at r = 1 every
    # table is Frobenius invariant
    zq = _zq(3, 1, 5000)
    w = zq.omega_generator_powers()[1][0]  # omega(g) = -1
    coeffs = [zq.modulus - 1, zq.modulus // 2]
    assert w == zq.modulus - 1
    assert zq.scalar_transform(coeffs) == [
        (coeffs[0] + coeffs[1]) % zq.modulus,
        (coeffs[0] + w * coeffs[1]) % zq.modulus,
    ]


@pytest.mark.parametrize("p,r,n", [(3, 2, 5), (7, 2, 4), (5, 3, 4), (7, 3, 4)])
def test_packed_chirp_width_is_the_admitted_width(p, r, n):
    # a middle slot of the chirp correlation sums (q-1) r products of
    # residues below p^N; at these fields a bound without the factor r packs
    # slots one digit too narrow, below what admission prices
    zq = _zq(p, r, n)
    size, m = zq.q - 1, zq.modulus
    width = memo(zq, _packed_chirp)[1]
    assert (2 * size - 1) * (2 * r - 1) * width == packed_digits(p, r, n)
    assert 10**width > 2 * size * r * (m - 1) ** 2
