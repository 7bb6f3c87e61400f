from fractions import Fraction as F

import pytest
from oracles import char_value, coefficient_table_fraction, evaluate_g_pointwise

from padichg import gfunction
from padichg.elements import GParams, GValue, balanced_lift, evaluate_g, evaluate_g_inverted
from padichg.finitefield import FqContext
from padichg.gfunction import EvaluationIntegrityError, _coefficient_table, value_table
from padichg.padic import UnramifiedContext
from padichg.pgamma import gamma_cache
from padichg.rational import frac, g_exponent

G_CUBIC = ((F(1, 3), F(2, 3)), (F(0), F(1, 2)))
G_SEXTIC = ((F(1, 6), F(5, 6)), (F(0), F(1, 2)))
G_TRIPLE_HALF = ((F(1, 2),) * 3, (F(0),) * 3)
G_QUARTER = ((F(1, 4), F(3, 4)), (F(0), F(0)))


def _pair(p, r, n):
    fq = FqContext(p, r)
    return fq, UnramifiedContext(fq, n)


def _key(params):
    """Fraction parameters as the reduced (num, den) pairs that key value_table."""
    return tuple(c.as_integer_ratio() for c in params)


def _integer_table(upper, lower, zq):
    return _coefficient_table(_key(upper), _key(lower), zq)


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
        table = _integer_table(params[0], params[1], zq)
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
        term = char_value(zq, a, t) * ((-1) ** (a * n) % m)
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
            term = term * (num * pow(den, -1, m) % m)
        total = total + term * pow(-p, exponent, m)
    direct = total * (-pow(q - 1, -1, m) % m)
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
    other_fq = FqContext(7, 1)
    with pytest.raises(ValueError):
        GParams((F(1, 5),), (F(0),), fq.one, zq)  # denominator divisible by p
    with pytest.raises(ValueError):
        GParams((F(1, 2),), (F(0), F(1, 2)), fq.one, zq)  # length mismatch
    with pytest.raises(ValueError):
        GParams((F(1, 2),), (F(0),), other_fq.one, zq)  # foreign element


def test_params_are_normalised_immutable_values():
    fq, zq = _pair(5, 1, 4)
    params = GParams(("1/2",), (0,), fq.one, zq)
    same = GParams((F(1, 2),), (F(0),), fq.one, zq)
    assert params.upper == (F(1, 2),) and params.n == 1
    assert params == same and hash(params) == hash(same)
    with pytest.raises(AttributeError):
        params.t = fq.zero
    with pytest.raises(ValueError):
        params._replace(upper=(F(1, 5),))  # a replaced field is checked too
    assert params._replace(t=fq.scalar(2)).t == fq.scalar(2)


def test_value_table_checks_parameters_when_it_builds():
    fq, zq = _pair(5, 1, 4)
    for upper, lower in (((F(1, 5),), (F(0),)), ((F(1, 2),), (F(0), F(1, 2))), ((), ())):
        with pytest.raises(ValueError):
            value_table(upper, lower, zq)
    assert zq.tables == {}
    # a table is indexed by dlog t and matches the GParams facade
    values = value_table(*G_CUBIC, zq)
    assert value_table(*G_CUBIC, zq) is values
    for t in fq.elements()[1:]:
        assert values[t.dlog()] == evaluate_g(GParams(*G_CUBIC, t, zq)).value


def test_negative_total_exponent_aborts():
    fq, zq = _pair(5, 1, 4)
    with pytest.raises(EvaluationIntegrityError):
        evaluate_g(GParams((F(5, 6),), (F(1, 6),), fq.scalar(2), zq))


def test_sweep_reuses_one_coefficient_table(monkeypatch):
    # the first evaluation at t != 0 builds one coefficient table and one
    # scalar transform per (upper, lower, context); the rest are lookups
    builds = []
    table_fn = gfunction._coefficient_table
    transform = UnramifiedContext.scalar_transform

    def counting_table(upper, lower, zq):
        builds.append(("table", upper))
        return table_fn(upper, lower, zq)

    def counting_transform(zq, coeffs):
        builds.append(("transform", len(coeffs)))
        return transform(zq, coeffs)

    monkeypatch.setattr(gfunction, "_coefficient_table", counting_table)
    monkeypatch.setattr(UnramifiedContext, "scalar_transform", counting_transform)
    fq, zq = _pair(5, 1, 4)
    evaluate_g(GParams(*G_CUBIC, fq.zero, zq))
    assert builds == []
    for t in fq.elements():
        evaluate_g(GParams(*G_CUBIC, t, zq))
    once = [("table", _key(G_CUBIC[0])), ("transform", fq.q - 1)]
    assert builds == once
    values = value_table(*G_CUBIC, zq)
    for t in fq.elements():
        evaluate_g(GParams(*G_SEXTIC, t, zq))
        evaluate_g(GParams(*G_CUBIC, t, zq))
    assert builds == once + [("table", _key(G_SEXTIC[0])), ("transform", fq.q - 1)]
    assert value_table(*G_CUBIC, zq) is values
    # another Z_q context of the same field owns its own values
    evaluate_g(GParams(*G_CUBIC, fq.one, UnramifiedContext(fq, 4)))
    assert len(builds) == 6


def test_large_denominator_reads_few_residues():
    # D = lcm(q-1, 1000003) = 6000018, but a coefficient table reads at most
    # 2 n r (q-1) residue classes mod D, and only those are computed
    fq, zq = _pair(7, 1, 3)
    upper, lower = (F(1, 1000003),), (F(0),)
    assert _integer_table(upper, lower, zq) == coefficient_table_fraction(upper, lower, zq)
    for t in fq.elements():
        params = GParams(upper, lower, t, zq)
        assert evaluate_g(params).value == evaluate_g_pointwise(params), t
    assert 0 < len(gamma_cache(zq.base).residues(6 * 1000003)) <= 2 * 1 * 1 * 6


@pytest.mark.parametrize(
    "p,r,n",
    [
        (5, 1, 4), (7, 1, 3), (11, 1, 2), (3, 2, 4), (5, 2, 3), (3, 3, 4), (5, 3, 2),
        (3, 1, 4), (13, 1, 3), (7, 2, 3), (7, 3, 2),
    ],
)
def test_evaluate_g_matches_pointwise_oracle(p, r, n):
    # the integer coefficient table against the Fraction table, and the
    # transformed values at every t (t = 0 included) against the Frobenius
    # lift + Hensel inverse + running power product
    fq, zq = _pair(p, r, n)
    families = [G_TRIPLE_HALF, G_QUARTER]
    if p > 3:
        families += [G_CUBIC, G_SEXTIC]
    for upper, lower in families:
        assert _integer_table(upper, lower, zq) == coefficient_table_fraction(upper, lower, zq)
        for t in fq.elements():
            params = GParams(upper, lower, t, zq)
            assert evaluate_g(params).value == evaluate_g_pointwise(params), (upper, t)



def _table_or_error(build, upper, lower, zq):
    try:
        return build(upper, lower, zq)
    except EvaluationIntegrityError:
        return "negative total exponent"


@pytest.mark.parametrize("p,r,n", [(7, 1, 3), (7, 2, 2), (11, 1, 2), (5, 3, 2)])
def test_integer_table_matches_fraction_table_generic_parameters(p, r, n):
    # parameters without the symmetries of the suite families (<-b p^i> != <b p^i>,
    # negative and improper fractions), where a negative exponent must be refused alike
    _, zq = _pair(p, r, n)
    cases = [
        ((F(0),), (F(1, 3),)),
        ((F(0), F(1, 2)), (F(1, 3), F(2, 3))),
        ((F(1, 3),), (F(1, 4),)),
        ((F(-7, 12), F(1, 2)), (F(5, 2), F(-1, 3))),
    ]
    outcomes = set()
    for upper, lower in cases:
        got = _table_or_error(_integer_table, upper, lower, zq)
        assert got == _table_or_error(coefficient_table_fraction, upper, lower, zq), (upper, lower)
        outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}  # both a table and a refusal are exercised


def test_float_parameters_are_refused():
    # 0.5 is exact as a float, 1/3 is not: Fraction(1/3) is 6004799503160661/2^54,
    # a different p-adic parameter, so a float anywhere is refused
    fq, zq = _pair(7, 1, 4)
    t = fq.scalar(3)
    upper, lower = G_CUBIC
    assert evaluate_g(GParams(upper, lower, t, zq)).value == 0
    for bad_upper, bad_lower, role in (
        ((1 / 3, 2 / 3), lower, "upper parameter 0.333"),
        (upper, (0, 0.5), "lower parameter 0.5"),
    ):
        with pytest.raises(TypeError, match=role):
            GParams(bad_upper, bad_lower, t, zq)
        with pytest.raises(TypeError, match=role):
            value_table(bad_upper, bad_lower, _pair(7, 1, 3)[1])
    # exact rationals of every accepted kind still pass
    assert GParams((F(1, 3), F(2, 3)), (0, "1/2"), t, zq).lower == (F(0), F(1, 2))
