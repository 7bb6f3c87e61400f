import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import char_value, count_roots_scan, is_irreducible, primitive_polynomials

from padichg import finitefield
from padichg.elements import FqElement
from padichg.finitefield import (
    FqContext,
    count_roots,
    discriminant_sign_check,
    primitive_polynomial,
    quadratic_char,
)
from padichg.gfunction import value_table
from padichg.suites import DEFAULT_BATTERY, contexts


def test_make_fq_examples():
    f5 = FqContext(5, 1)
    assert f5.generator == f5.scalar(2)
    f3 = FqContext(3, 1)
    assert f3.generator == f3.scalar(2)
    with pytest.raises(ValueError):
        FqContext(4, 1)
    with pytest.raises(ValueError):
        FqContext(2, 1)
    with pytest.raises(ValueError):
        FqContext(257, 3)  # q above the documented bound
    with pytest.raises(ValueError):
        FqContext(2**61 - 1, 1)  # refused before a primality scan
    with pytest.raises(ValueError):
        FqContext(3, 10**9)  # refused before p^r


def test_defining_polynomial_is_least_primitive():
    # independent scan: x generates and is a root of poly, and no candidate
    # before the chosen one in the search order makes x of order q - 1
    for p, r in ((3, 2), (5, 2), (7, 2)):
        ctx = FqContext(p, r)
        alpha = FqElement(ctx, (0, 1))
        assert alpha == ctx.generator
        acc = alpha * alpha
        for e, c in enumerate(ctx.poly):
            acc = acc + ctx.scalar(c) * alpha**e
        assert acc.is_zero()
        assert ctx.one not in [alpha**k for k in range(1, ctx.q - 1)]
        assert alpha ** (ctx.q - 1) == ctx.one
        assert primitive_polynomials(p, r)[0] == ctx._neg_poly


def _moebius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("p,max_d", [(3, 6), (5, 4), (7, 3)])
def test_irreducible_counts_match_gauss_formula(p, max_d):
    # monic irreducibles of degree d over F_p: (1/d) sum_(e | d) mu(d/e) p^e,
    # and the primitive ones among them: phi(p^d - 1) / d
    for d in range(1, max_d + 1):
        gauss = sum(_moebius(d // e) * p**e for e in range(1, d + 1) if d % e == 0) // d
        monic = (list(tail) + [1] for tail in itertools.product(range(p), repeat=d))
        assert sum(is_irreducible(f, p) for f in monic) == gauss, d
        assert len(primitive_polynomials(p, d)) == _totient(p**d - 1) // d, d


# pinned, so that no change to the search moves the defining polynomial
# (c_0, ..., c_{r-1}) of the default battery's fields or of four large ones
PRIMITIVE_POLYNOMIAL = {
    (3, 1): (1,),
    (5, 1): (3,),
    (7, 1): (4,),
    (11, 1): (9,),
    (13, 1): (11,),
    (3, 2): (2, 2),
    (5, 2): (2, 4),
    (7, 2): (3, 6),
    (3, 10): (2, 2, 0, 2, 0, 0, 0, 0, 0, 0),
    (5, 6): (2, 4, 0, 0, 0, 0),
    (7, 5): (4, 6, 0, 0, 0),
    (251, 2): (244, 250),
}


def test_primitive_polynomial_unchanged():
    assert set(DEFAULT_BATTERY) <= set(PRIMITIVE_POLYNOMIAL)
    chosen = {
        (p, r): tuple((-c) % p for c in primitive_polynomial(p, r)) for p, r in PRIMITIVE_POLYNOMIAL
    }
    assert chosen == PRIMITIVE_POLYNOMIAL
    # a primitive polynomial is irreducible: trial division agrees
    assert all(is_irreducible(list(c) + [1], p) for (p, _), c in PRIMITIVE_POLYNOMIAL.items())


def test_field_axioms_exhaustive_f9():
    ctx = FqContext(3, 2)
    elems = ctx.elements()
    for a in elems:
        assert a + ctx.zero == a
        assert a * ctx.one == a
        assert (a + (-a)).is_zero()
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a
    for a, b, c in itertools.product(elems[:5], elems[:5], elems[:5]):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_generator_order_and_dlog():
    for p, r in ((5, 1), (7, 1), (5, 2)):
        ctx = FqContext(p, r)
        seen = set()
        for x in ctx.nonzero_elements():
            k = x.dlog()
            assert ctx.powers[k] == x.coeffs
            seen.add(k)
        assert seen == set(range(ctx.q - 1))


def test_quadratic_char_examples():
    f5 = FqContext(5, 1)
    assert quadratic_char(f5.zero) == 0
    assert quadratic_char(f5.scalar(4)) == 1  # 4 = 2^2
    assert quadratic_char(f5.scalar(2)) == -1  # Euler: 2^2 = 4 = -1 mod 5


def test_quadratic_char_euler_criterion_exhaustive():
    for p, r in ((5, 1), (13, 1), (5, 2)):
        ctx = FqContext(p, r)
        for x in ctx.nonzero_elements():
            euler = x ** ((ctx.q - 1) // 2)
            assert euler == ctx.one or euler == -ctx.one
            assert quadratic_char(x) == (1 if euler == ctx.one else -1)


def test_quadratic_char_multiplicative():
    ctx = FqContext(3, 2)
    for x in ctx.nonzero_elements():
        for y in ctx.nonzero_elements():
            assert quadratic_char(x * y) == quadratic_char(x) * quadratic_char(y)


def _cubic_27(ctx, x):
    # 27 y^2 (1 - y) - 4x, ascending coefficients
    return [ctx.scalar(-4) * x, ctx.zero, ctx.scalar(27), ctx.scalar(-27)]


def test_count_roots_frozen_values():
    f5 = FqContext(5, 1)
    assert count_roots(_cubic_27(f5, f5.scalar(1))) == 2  # roots y = 3, 4
    assert count_roots(_cubic_27(f5, f5.scalar(2))) == 0
    assert count_roots(_cubic_27(f5, f5.scalar(3))) == 1  # root y = 2
    # int coefficients beside an F_q element, which names the field
    assert count_roots([-1, 0, f5.one]) == 2  # y^2 - 1: y = 1, 4
    assert count_roots([f5.scalar(-4), 0, 27, -27]) == 2


def test_count_roots_errors():
    f5 = FqContext(5, 1)
    with pytest.raises(ValueError):
        count_roots([f5.zero, f5.zero])
    with pytest.raises(ValueError):
        count_roots([f5.one, f5.zero, f5.zero, f5.zero, f5.one])  # degree 4
    with pytest.raises(TypeError):  # no F_q element names the field
        count_roots([-1, 0, 1])


# refusals of the context readers at q = 25, each with its message
_REFUSALS = {
    "value_table_str_pair": (
        lambda fq, zq: value_table((("1", 2),), ((0, 1),), zq),
        TypeError,
        r"upper parameter \('1', 2\) is not a pair of integers",
    ),
    "value_table_zero_den": (
        lambda fq, zq: value_table(((1, 0),), ((0, 1),), zq),
        ZeroDivisionError,
        r"upper parameter \(1, 0\) has denominator 0",
    ),
    "scalar_dlog_of_p": (lambda fq, zq: fq.scalar_dlog(5), ZeroDivisionError, "dlog of zero"),
    "dlog_of_zero": (lambda fq, zq: fq.zero.dlog(), ZeroDivisionError, "dlog of zero"),
    "fq_short_tuple": (lambda fq, zq: fq.coerce((1,)), ValueError, "expected 2 coefficients"),
    "zq_short_tuple": (lambda fq, zq: zq.element((1,)), ValueError, "expected 2 coefficients"),
    "count_roots_zero": (
        lambda fq, zq: count_roots([fq.zero, 0]),
        ValueError,
        "zero polynomial has no well-defined root count",
    ),
}


@pytest.mark.parametrize("call,error,message", _REFUSALS.values(), ids=_REFUSALS)
def test_context_readers_refuse(call, error, message):
    fq, zq = contexts(5, 2, 4)
    with pytest.raises(error, match=message):
        call(fq, zq)


def test_count_roots_against_direct_scan():
    ctx = FqContext(7, 1)
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [ctx.scalar(rng.randint(0, 6)) for _ in range(4)]
        if all(c.is_zero() for c in coeffs):
            coeffs[0] = ctx.one
        expected = 0
        for y in ctx.elements():
            val = ctx.zero
            for e, c in enumerate(coeffs):
                val = val + c * y**e
            if val.is_zero():
                expected += 1
        assert count_roots(coeffs) == expected


def test_count_roots_generator_independent(monkeypatch):
    # F_7 built from its second primitive polynomial has another generator
    std = FqContext(7, 1)
    second = primitive_polynomials(7, 1)[1]
    monkeypatch.setattr(finitefield, "primitive_polynomial", lambda p, r: second)
    alt = FqContext(7, 1)
    assert std._generator != alt._generator
    for xv in range(7):
        a = count_roots(_cubic_27(std, std.scalar(xv)))
        b = count_roots(_cubic_27(alt, alt.scalar(xv)))
        assert a == b


ROOT_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (5, 3)]


def _cubic_scaled(ctx, x):
    # y^3 - y^2 + 4x/27, the second cubic family of the oracles suite
    return [ctx.scalar(4) * x / ctx.scalar(27), ctx.zero, -ctx.one, ctx.one]


@pytest.mark.parametrize("p,r", ROOT_FIELDS)
def test_count_roots_matches_scan_every_x(p, r):
    ctx = FqContext(p, r)
    families = [_cubic_27] if p == 3 else [_cubic_27, _cubic_scaled]
    for x in ctx.elements():
        for family in families:
            poly = family(ctx, x)
            if any(not c.is_zero() for c in poly):
                assert count_roots(poly) == count_roots_scan(poly), (family, x)


@functools.lru_cache(maxsize=None)
def _small_field(p, r):
    return FqContext(p, r)


@st.composite
def _polys(draw):
    ctx = _small_field(*draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])))
    n = draw(st.integers(1, 4))  # constants and linear polynomials included
    return [
        ctx.coerce(tuple(draw(st.lists(st.integers(0, ctx.p - 1), min_size=ctx.r, max_size=ctx.r))))
        for _ in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(_polys())
def test_count_roots_property(coeffs):
    if all(c.is_zero() for c in coeffs):
        with pytest.raises(ValueError):
            count_roots(coeffs)
    else:
        assert count_roots(coeffs) == count_roots_scan(coeffs)


def test_root_histograms_built_once_per_context(monkeypatch):
    builds = []
    original = finitefield._preimage_histogram

    def counting(ctx, upper):
        builds.append(len(upper))
        return original(ctx, upper)

    monkeypatch.setattr(finitefield, "_preimage_histogram", counting)
    ctx = FqContext(5, 2)  # 27 = 2 mod 5: the two families have distinct P1
    for x in ctx.elements():
        count_roots(_cubic_27(ctx, x))
        count_roots(_cubic_scaled(ctx, x))
    assert builds == [3, 3] and sum(key[0] is counting for key in ctx.tables) == 2
    # trailing zero coefficients share the histogram of the trimmed polynomial
    padded = _cubic_27(ctx, ctx.one) + [ctx.zero]
    assert count_roots(padded) == count_roots_scan(padded)
    assert builds == [3, 3]
    assert FqContext(5, 2).tables == {}


def test_jacobi_dlog_pairs_match_elementwise():
    for p, r in ((5, 1), (3, 2), (7, 2)):
        ctx = FqContext(p, r)
        expected = {
            (x.dlog(), (ctx.one - x).dlog())
            for x in ctx.elements()
            if not x.is_zero() and x != ctx.one
        }
        pairs = ctx.jacobi_dlog_pairs()
        assert len(pairs) == ctx.q - 2 and set(pairs) == expected


def test_zech_table_definition():
    for p, r in ((5, 1), (3, 2), (5, 2)):
        ctx = FqContext(p, r)
        n = ctx.q - 1
        zech = ctx.zech_table()
        for d in range(n):
            s = ctx.one + ctx.coerce(ctx.powers[d])
            if d == n // 2:
                assert s.is_zero() and zech[d] == finitefield.ZECH_UNDEFINED
            else:
                assert ctx.powers[zech[d]] == s.coeffs


def test_discriminant_sign_check():
    f5 = FqContext(5, 1)
    assert discriminant_sign_check(f5.scalar(3)) == -1
    assert discriminant_sign_check(f5.one) == 0
    assert discriminant_sign_check(f5.scalar(2)) == 1


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (13, 1), (5, 2)])
def test_single_root_iff_nonsquare_discriminant(p, r):
    ctx = FqContext(p, r)
    for x in ctx.elements():
        if x.is_zero() or x == ctx.one:
            continue
        single = count_roots(_cubic_27(ctx, x)) == 1
        assert single == (discriminant_sign_check(x) == -1)


def test_orthogonality_of_characters():
    # sum over all character indices of omega-bar^j(x): q-1 at x=1, else 0
    from padichg.suites import contexts

    for p, r in ((5, 1), (3, 2)):
        fq, zq = contexts(p, r, 3)
        for x in fq.nonzero_elements():
            total = zq.zero
            for j in range(fq.q - 1):
                total = total + char_value(zq, j, x)
            expected = zq.scalar(fq.q - 1) if x == fq.one else zq.zero
            assert total == expected
