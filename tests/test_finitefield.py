import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_roots_scan

from padichg import finitefield
from padichg.finitefield import (
    FqContext,
    FqElement,
    count_roots,
    discriminant_sign_check,
    quadratic_char,
    smallest_irreducible,
)
from padichg.suites import DEFAULT_BATTERY


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


def test_defining_polynomial_is_lex_smallest_irreducible():
    # independent scan: no lex-smaller monic polynomial may be irreducible
    for p, r in ((3, 2), (5, 2), (7, 2)):
        chosen = smallest_irreducible(p, r)
        ctx = FqContext(p, r)
        assert ctx.poly == chosen
        alpha = FqElement(ctx, (0, 1))
        # the power-basis root satisfies the polynomial
        acc = alpha * alpha
        for e, c in enumerate(chosen):
            acc = acc + ctx.scalar(c) * alpha**e
        assert acc.is_zero()


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


@pytest.mark.parametrize("p,max_d", [(3, 6), (5, 4), (7, 3)])
def test_irreducible_counts_match_gauss_formula(p, max_d):
    # monic irreducibles of degree d over F_p: (1/d) sum_(e | d) mu(d/e) p^e
    for d in range(1, max_d + 1):
        gauss = sum(_moebius(d // e) * p**e for e in range(1, d + 1) if d % e == 0) // d
        monic = (list(tail) + [1] for tail in itertools.product(range(p), repeat=d))
        assert sum(finitefield._is_irreducible(f, p) for f in monic) == gauss, d


# pinned, so that no change to the trial division moves the defining
# polynomial of the default battery's fields or of four large ones
SMALLEST_IRREDUCIBLE = {
    (3, 1): (0,),
    (5, 1): (0,),
    (7, 1): (0,),
    (11, 1): (0,),
    (13, 1): (0,),
    (3, 2): (1, 0),
    (5, 2): (1, 1),
    (7, 2): (1, 0),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0),
    (5, 6): (1, 0, 0, 0, 1, 1),
    (7, 5): (1, 0, 0, 0, 3),
    (251, 2): (1, 0),
}


def test_smallest_irreducible_unchanged():
    assert set(DEFAULT_BATTERY) <= set(SMALLEST_IRREDUCIBLE)
    assert {pr: smallest_irreducible(*pr) for pr in SMALLEST_IRREDUCIBLE} == SMALLEST_IRREDUCIBLE


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


def test_count_roots_generator_independent():
    class AltGenContext(FqContext):
        def _find_generator(self):
            hits = 0
            for t in itertools.product(range(self.p), repeat=self.r):
                cand = FqElement(self, t)
                if self._order(cand):
                    hits += 1
                    if hits == 2:
                        return cand
            raise AssertionError

    std = FqContext(7, 1)
    alt = AltGenContext(7, 1)
    assert std.generator != alt.generator
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
                total = total + zq.char_value(j, x)
            expected = zq.scalar(fq.q - 1) if x == fq.one else zq.zero
            assert total == expected
