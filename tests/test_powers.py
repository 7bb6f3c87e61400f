"""The shared power routines of F_q and Z_q against products one at a time.

finitefield.poly_powmod (square-and-multiply) and poly_powers (every power of
one element by a fixed r x r matrix) build the F_q table powers, the
Teichmuller powers and the x^t constants of the scalar weights.  Here they
are checked against repeated poly_mulmod over (Z/m)[x] / (f) for any monic f,
and the tables they build against the running products of element objects
in tests/oracles.py.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import field_powers_by_objects, teichmuller_powers_by_objects

from padichg import finitefield
from padichg.elements import FqElement, ZqElement
from padichg.finitefield import FqContext, poly_mulmod, poly_powers, poly_powmod
from padichg.padic import UnramifiedContext


@st.composite
def _rings(draw):
    """(a, neg_poly, m): a residue a and a monic f of degree r = 1..5, mod m = p or p^N."""
    p = draw(st.sampled_from([3, 5, 7, 13]))
    m = p ** draw(st.sampled_from([1, 4, 7]))
    r = draw(st.integers(min_value=1, max_value=5))
    residues = st.tuples(*[st.integers(min_value=0, max_value=m - 1)] * r)
    return draw(residues), draw(residues), m


def _one(r):
    return (1,) + (0,) * (r - 1)


@settings(max_examples=200, deadline=None)
@given(_rings(), st.integers(min_value=0, max_value=150))
def test_powmod_equals_repeated_products(ring, e):
    a, neg, m = ring
    assert poly_powmod(a, 0, neg, m) == _one(len(a))
    expected = _one(len(a))
    for _ in range(e):
        expected = poly_mulmod(expected, a, neg, m)
    assert poly_powmod(a, e, neg, m) == expected


@settings(max_examples=200, deadline=None)
@given(_rings(), st.integers(min_value=0, max_value=60))
def test_powers_equal_the_iterated_product(ring, count):
    a, neg, m = ring
    expected, x = [], _one(len(a))
    for _ in range(count):
        expected.append(x)
        x = poly_mulmod(x, a, neg, m)
    assert poly_powers(a, count, neg, m) == expected


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("p,r", [(13, 1), (7, 2), (5, 3), (3, 4)])
def test_power_tables_equal_the_object_built_ones(p, r, n):
    fq = FqContext(p, r)
    assert fq.powers == [x.coeffs for x in field_powers_by_objects(fq)]
    assert len(fq.dlog) == fq.q - 1 and all(fq.dlog[c] == k for k, c in enumerate(fq.powers))
    zq = UnramifiedContext(fq, n)
    expected = [w.coeffs for w in teichmuller_powers_by_objects(zq)]
    assert zq.omega_generator_powers() == expected


def test_power_tables_build_no_element_per_power(monkeypatch):
    # a field and its Teichmuller powers build no element: the polynomial
    # search tests coefficient tuples, and the contexts hold no zero or one
    counts = {}
    for p, r in ((7, 2), (5, 3)):
        built = Counter()
        for cls in (FqElement, ZqElement):

            def counting(self, context, coeffs, _init=cls.__init__, _name=cls.__name__):
                built[_name] += 1
                _init(self, context, coeffs)

            monkeypatch.setattr(cls, "__init__", counting)

        def counting_powmod(a, e, neg_poly, m, _powmod=finitefield.poly_powmod):
            built["order tests"] += 1
            return _powmod(a, e, neg_poly, m)

        monkeypatch.setattr(finitefield, "poly_powmod", counting_powmod)
        fq = FqContext(p, r)
        assert len(UnramifiedContext(fq, 5).omega_generator_powers()) == fq.q - 1
        monkeypatch.undo()
        counts[p, r] = built["FqElement"], built["ZqElement"]
        assert built["order tests"] > 0
    assert counts[7, 2] == counts[5, 3] == (0, 0), counts
