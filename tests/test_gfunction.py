from fractions import Fraction as F

import pytest
from oracles import evaluate_g_pointwise

from padichg.finitefield import make_fq
from padichg.gfunction import (
    EvaluationIntegrityError,
    GParams,
    GValue,
    evaluate_g,
    evaluate_g_inverted,
    _coefficient_table,
)
from padichg.padic import UnramifiedContext, balanced_lift
from padichg.pgamma import gamma_cache
from padichg.rational import frac, g_exponent

G_CUBIC = ((F(1, 3), F(2, 3)), (F(0), F(1, 2)))
G_SEXTIC = ((F(1, 6), F(5, 6)), (F(0), F(1, 2)))
G_TRIPLE_HALF = ((F(1, 2),) * 3, (F(0),) * 3)
G_QUARTER = ((F(1, 4), F(3, 4)), (F(0), F(0)))


def _pair(p, r, n):
    fq = make_fq(p, r)
    return fq, UnramifiedContext(fq, n)


def test_frozen_values_over_f5():
    # oracle: root counts of 27y^2(1-y) - 4x are (2, 0, 1) at x = (1, 2, 3),
    # and the value equals count - 1
    fq, zq = _pair(5, 1, 4)
    for x, expect in ((1, 1), (2, -1), (3, 0)):
        t = fq.scalar(x).inverse()
        got = evaluate_g(GParams(*G_CUBIC, t, zq)).value
        assert balanced_lift(got) == expect, x


def test_frozen_triple_half_value():
    # oracle: A(1, F_5) = phi(2)(a^2 - 5) = 5 by 25-term brute force
    fq, zq = _pair(5, 1, 3)
    got = evaluate_g(GParams(*G_TRIPLE_HALF, -fq.one, zq)).value
    assert balanced_lift(got) == 5


def test_value_at_zero_is_zero():
    fq, zq = _pair(5, 1, 4)
    v = evaluate_g(GParams(*G_CUBIC, fq.zero, zq))
    assert isinstance(v, GValue)
    assert v.value.is_zero()
    assert v.precision == 4


def test_leading_coefficient_is_one():
    # the a = 0 summand is exactly 1: every gamma ratio cancels, exponent 0
    fq, zq = _pair(7, 1, 4)
    for params in (G_CUBIC, G_SEXTIC, G_TRIPLE_HALF):
        table = _coefficient_table(params[0], params[1], zq)
        assert table[0] == 1
        assert len(table) == fq.q - 1


def test_factored_evaluation_matches_direct_sum():
    # re-evaluate one value straight from the definition, term by term,
    # without the shared coefficient table
    fq, zq = _pair(7, 1, 4)
    p, q, m = 7, 7, zq.modulus
    upper, lower = G_CUBIC
    n = len(upper)
    cache = gamma_cache(zq.base)
    t = fq.scalar(3)
    total = zq.zero
    for a in range(q - 1):
        u = F(a, q - 1)
        term = zq.char_value(a, t).scale((-1) ** (a * n) % m)
        exponent = 0
        for k in range(n):
            exponent += g_exponent(upper[k], lower[k], a, 0, p, q)
            num = (
                cache.gamma(frac(upper[k] - u)).residue
                * cache.gamma(frac(-lower[k] + u)).residue
            ) % m
            den = (
                cache.gamma(frac(upper[k])).residue
                * cache.gamma(frac(-lower[k])).residue
            ) % m
            term = term.scale(num * pow(den, -1, m) % m)
        total = total + term.scale(pow(-p, exponent, m))
    direct = total.scale(-pow(q - 1, -1, m) % m)
    assert direct == evaluate_g(GParams(upper, lower, t, zq)).value


def test_inverted_evaluator_agreement():
    fq, zq = _pair(7, 1, 4)
    for xv in (1, 2):  # x = 1 has 1/x = x, so the two sides share an argument
        x = fq.scalar(xv)
        lhs = evaluate_g_inverted(GParams(*G_SEXTIC, x, zq)).value
        rhs = evaluate_g(GParams(*G_SEXTIC, x.inverse(), zq)).value
        assert lhs == rhs, xv


def test_inverted_evaluator_rejects_zero():
    fq, zq = _pair(7, 1, 4)
    with pytest.raises(ValueError):
        evaluate_g_inverted(GParams(*G_SEXTIC, fq.zero, zq))


def test_parameter_validation():
    fq, zq = _pair(5, 1, 4)
    other_fq = make_fq(7, 1)
    with pytest.raises(ValueError):
        GParams((F(1, 5),), (F(0),), fq.one, zq)  # denominator divisible by p
    with pytest.raises(ValueError):
        GParams((F(1, 2),), (F(0), F(1, 2)), fq.one, zq)  # length mismatch
    with pytest.raises(ValueError):
        GParams((F(1, 2),), (F(0),), other_fq.one, zq)  # foreign element


def test_negative_total_exponent_aborts():
    fq, zq = _pair(5, 1, 4)
    with pytest.raises(EvaluationIntegrityError):
        evaluate_g(GParams((F(5, 6),), (F(1, 6),), fq.scalar(2), zq))


def test_sweep_reuses_one_coefficient_table():
    fq, zq = _pair(5, 1, 4)
    evaluate_g(GParams(*G_CUBIC, fq.one, zq))
    table = zq.g_tables[G_CUBIC]
    evaluate_g(GParams(*G_CUBIC, fq.scalar(3), zq))
    assert zq.g_tables[G_CUBIC] is table


@pytest.mark.parametrize(
    "p,r,n", [(5, 1, 4), (7, 1, 3), (11, 1, 2), (3, 2, 4), (5, 2, 3), (3, 3, 4), (5, 3, 2)]
)
def test_evaluate_g_matches_pointwise_oracle(p, r, n):
    # every t of the field, against the Frobenius lift + Hensel inverse +
    # running power product
    fq, zq = _pair(p, r, n)
    families = [G_TRIPLE_HALF, G_QUARTER]
    if p > 3:
        families += [G_CUBIC, G_SEXTIC]
    for upper, lower in families:
        for t in fq.elements():
            params = GParams(upper, lower, t, zq)
            assert evaluate_g(params).value == evaluate_g_pointwise(params), (upper, t)
