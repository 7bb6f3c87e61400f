import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cyclic_correlation, wrapped_block_correlation

from padichg.charsums import _cyclic
from padichg.finitefield import correlate, pack

_ENTRIES = {
    "signed": st.integers(min_value=-(10**6), max_value=10**6),
    "small": st.integers(min_value=-3, max_value=3),
    "negative": st.integers(min_value=-(10**6), max_value=-1),
    "zero": st.just(0),
}


def _bound(u, v):
    """len(u) * r * max|u| * max|v|, at least 1 per factor so it covers every |slot| too."""
    mu = max(1, *(abs(x) for b in u for x in b))
    mv = max(1, *(abs(x) for b in v for x in b))
    return len(u) * len(u[0]) * mu * mv


def _operand(size, r):
    """size blocks of r entries, all of one kind: signed, small, negative or zero."""

    def blocks(entries):
        return st.lists(st.lists(entries, min_size=r, max_size=r), min_size=size, max_size=size)

    return st.sampled_from(list(_ENTRIES.values())).flatmap(blocks)


@st.composite
def _operands(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=64))
    return draw(_operand(n, r)), draw(_operand(n, r)), draw(st.sampled_from([1, -1]))


# slots of over 4300 decimal digits, past CPython's default limit for int <-> str
_BIG = 10**2200 - 7
_BIG_U, _BIG_V = [[_BIG, -1], [-_BIG, 3], [2, _BIG]], [[-_BIG, _BIG], [2, -_BIG], [_BIG, 0]]


@settings(max_examples=200, deadline=None)
@given(_operands())
@example((_BIG_U, _BIG_V, 1))
@example((_BIG_U, _BIG_V, -1))
def test_correlate_matches_naive_blocks(case):
    u, v, wrap = case
    assert correlate(u, pack(v, _bound(u, v)), wrap) == wrapped_block_correlation(u, v, wrap)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=64).flatmap(lambda n: st.tuples(*[_operand(n, 1)] * 2)))
def test_cyclic_matches_naive(case):
    u, v = ([x for (x,) in w] for w in case)
    assert _cyclic(u, v) == cyclic_correlation(u, v)


@pytest.mark.parametrize("m", [1, 2, 3, 7])
@pytest.mark.parametrize("n,r", [(1, 1), (3, 2), (5, 3)])
def test_correlate_at_the_stated_bound(n, r, m):
    # the middle slot of out[0] is -n r m^2 = -bound, the extreme the width
    # admits; cyclic, so is that of every out[k]
    u, v = [[m] * r] * n, [[-m] * r] * n
    for wrap in (1, -1):
        out = correlate(u, pack(v, _bound(u, v)), wrap)
        assert out == wrapped_block_correlation(u, v, wrap)
        assert out[0][r - 1] == -_bound(u, v)
    assert {k[r - 1] for k in correlate(u, pack(v, _bound(u, v)), 1)} == {-_bound(u, v)}


def test_pack_rejects_slots_past_the_bound():
    with pytest.raises(ValueError):
        pack([[10], [0]], 4)
    with pytest.raises(ValueError):
        correlate([[0], [10]], pack([[1], [0]], 4), 1)


@pytest.mark.parametrize("r,n,wrap", [(1, 5, 1), (2, 7, -1), (3, 4, -1)])
def test_correlate_without_the_digit_limit_getter(monkeypatch, r, n, wrap):
    # interpreters before 3.10.7 have no sys.get_int_max_str_digits and no
    # limit; slots stay under the 4300 digits this interpreter still enforces
    rng = random.Random(r * 100 + n)
    big = 10**1000

    def operand():
        return [[rng.randint(-big, big) for _ in range(r)] for _ in range(n)]

    u, v = operand(), operand()
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert correlate(u, pack(v, _bound(u, v)), wrap) == wrapped_block_correlation(u, v, wrap)
