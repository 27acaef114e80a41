"""Packed polynomial terms and bidegree values against tuple references.

`Polynomial` stores {packed key: coefficient}.  Over random rings (one to
three variables, degrevlex or lex, weights modulo a group order), sums,
differences, products, scalar quotients and powers must agree with the
tuple-keyed `ReferencePolynomial` of `tests/oracles.py` in their terms,
bidegree, printed form and leading term, under the ring's order and under
another one.  Equal polynomials must compare and hash alike however they
were built.  `reinterpret` must keep the keys between equal orders and
re-encode into another, such as the block order of the mixed ring of a
ring map.  `Bidegree` must behave as an immutable value.
"""

import copy
import pickle
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import ReferencePolynomial, leading_term
from stackdual.poly import Bidegree, GradedRing, MonomialOrder, Polynomial

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)

COEFFICIENTS = st.sampled_from([1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3),
                                Fraction(5, 4)])


@st.composite
def rings(draw):
    n = draw(st.integers(1, 3))
    a = draw(st.integers(1, 4))
    return GradedRing(["x", "y", "z"][:n],
                      zdegs=draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                      weights=draw(st.lists(st.integers(0, a - 1), min_size=n,
                                            max_size=n)),
                      group_order=a,
                      order=MonomialOrder(draw(st.sampled_from(["degrevlex", "lex"]))))


def term_dicts(n):
    return st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), COEFFICIENTS,
                           max_size=4)


@st.composite
def ring_with_terms(draw, count):
    ring = draw(rings())
    return (ring, *[draw(term_dicts(ring.nvars)) for _ in range(count)])


def other_order(ring: GradedRing) -> MonomialOrder:
    """An order other than the ring's: the other kind, or a block order."""
    if ring.order.kind == "lex":
        return MonomialOrder(head_degrees=ring.zdegs[:1])
    return MonomialOrder("lex")


def agrees(p: Polynomial, ref: ReferencePolynomial) -> None:
    assert dict(p.terms) == ref.terms
    assert str(p) == str(ref)
    d = p.bidegree()
    assert (None if d is None else (d.zdeg, d.weight, d.modulus)) == ref.bidegree()
    if ref.terms:
        assert leading_term(p) == ref.leading_term()
        order = other_order(p.ring)
        assert leading_term(p, order) == ref.leading_term(order)


@SETTINGS
@given(ring_with_terms(2), COEFFICIENTS, st.integers(0, 3))
def test_arithmetic_matches_the_tuple_reference(case, scalar, n):
    ring, f, g = case
    p, q = Polynomial(ring, f), Polynomial(ring, g)
    rp, rq = ReferencePolynomial(ring, f), ReferencePolynomial(ring, g)
    agrees(p, rp)
    agrees(p + q, rp + rq)
    agrees(p - q, rp - rq)
    agrees(p * q, rp * rq)
    agrees(-p, -rp)
    agrees(p / scalar, rp / scalar)
    agrees(p ** n, rp ** n)
    assert (p == q) == (rp.terms == rq.terms)


@SETTINGS
@given(ring_with_terms(2))
def test_equal_polynomials_compare_and_hash_alike(case):
    ring, f, g = case
    p = Polynomial(ring, f)
    reordered = Polynomial(ring, dict(reversed(list(f.items()))))
    rebuilt = (p + Polynomial(ring, g)) - Polynomial(ring, g)
    for other in (reordered, rebuilt, ring.reduce(p), ring.ambient().reinterpret(p)):
        assert other == p and hash(other) == hash(p)
    with pytest.raises(TypeError):
        p.terms[(0,) * ring.nvars] = 1           # the tuple view is read-only


@SETTINGS
@given(ring_with_terms(1), st.integers(1, 4))
def test_reinterpret_between_equal_orders_keeps_the_keys(case, a):
    ring, f = case
    regraded = GradedRing(ring.variables, zdegs=[1] * ring.nvars,
                          weights=list(range(ring.nvars)), group_order=a,
                          order=MonomialOrder(ring.order.kind))
    p = Polynomial(ring, f)
    moved = regraded.reinterpret(p)
    assert moved.packed == p.packed and dict(moved.terms) == f and moved.ring is regraded
    agrees(moved, ReferencePolynomial(regraded, f))


@SETTINGS
@given(ring_with_terms(1), st.lists(st.integers(1, 3), min_size=1, max_size=2))
def test_reinterpret_into_a_block_order_re_encodes(case, heads):
    ring, f = case
    # the mixed ring of a ring map: head degrees on the first variables
    mixed = GradedRing(ring.variables, ring.zdegs, ring.weights, ring.group_order,
                       order=MonomialOrder(head_degrees=tuple(heads[:ring.nvars])),
                       name="mixed")
    p = Polynomial(ring, f)
    moved = mixed.reinterpret(p)
    assert dict(moved.terms) == f
    agrees(moved, ReferencePolynomial(mixed, f))
    assert ring.reinterpret(moved) == p          # and back again


@SETTINGS
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 7),
       st.integers(-3, 3), st.integers(-50, 50), st.integers(-50, 50))
def test_bidegree_is_an_immutable_value(z, w, a, k, z2, w2):
    d = Bidegree(z, w, a)
    assert (d.zdeg, d.weight, d.modulus) == (z, w % a, a)
    same = Bidegree(z, w + k * a, a)
    assert same == d and hash(same) == hash(d)
    for made in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert made == d and hash(made) == hash(d) and type(made) is Bidegree
    e = Bidegree(z2, w2, a)
    assert d + e == Bidegree(z + z2, w + w2, a) and d - e == Bidegree(z - z2, w - w2, a)
    assert -d == Bidegree(-z, -w, a) and d + e - e == d
    assert len({d, same, e}) == (1 if e == d else 2)
    assert str(d) == (f"({z})" if a == 1 else f"({z}, {w % a} mod {a})")
    with pytest.raises(ValueError, match="modulus mismatch"):
        d + Bidegree(z2, w2, a + 1)
    with pytest.raises(ValueError, match="modulus mismatch"):
        d - Bidegree(z2, w2, a + 1)
    with pytest.raises(ValueError):
        Bidegree(z, w, 1 - a)
    with pytest.raises(AttributeError):
        d.zdeg = z + 1
    with pytest.raises(AttributeError):
        d.extra = 1
    with pytest.raises(TypeError):
        d * 2
