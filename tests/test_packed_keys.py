"""The packed integer monomial keys against the tuple keys they replaced.

`MonomialOrder.key` packs a monomial into one integer of 64-bit weight
rows (`poly.PackedKeys`).  Over degrevlex, lex and block orders (head
degrees of either sign), the integers must sort exactly as
`reference_order_key` does, the guard-bit test must agree with
`monomial_divides`, decoding must invert encoding, and keys must add as
monomials multiply, with a guard bit set exactly when a product leaves
the packed range.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import monomial_mul, reference_order_key
from stackdual.caps import ResourceCapError
from stackdual.poly import FIELD_MAX, MonomialOrder, monomial_divides

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None,
                    database=None)


@st.composite
def orders(draw):
    """(order, number of variables)."""
    n = draw(st.integers(0, 4))
    kinds = ["degrevlex", "lex"] + (["block"] if n else [])
    kind = draw(st.sampled_from(kinds))
    if kind != "block":
        return MonomialOrder(kind), n
    heads = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=n))
    return MonomialOrder(head_degrees=tuple(heads)), n


def monomials(n, exponents=st.integers(0, 6) | st.integers(0, 2 ** 60)):
    return st.tuples(*[exponents] * n)


@st.composite
def order_with(draw, count, exponents=None):
    order, n = draw(orders())
    mons = monomials(n) if exponents is None else monomials(n, exponents)
    return (order, n, *[draw(mons) for _ in range(count)])


@SETTINGS
@given(order_with(2))
def test_integer_keys_sort_as_the_tuple_keys(case):
    order, _, a, b = case
    ka, kb = order.key(a), order.key(b)
    ra, rb = reference_order_key(order, a), reference_order_key(order, b)
    assert (ka < kb) == (ra < rb) and (ka == kb) == (a == b)


@SETTINGS
@given(order_with(2))
def test_the_guard_bit_test_is_divisibility(case):
    order, n, a, b = case
    packing = order.packing(n)
    for t, m in ((a, b), (b, a), (monomial_mul(a, b), a), (monomial_mul(a, b), b)):
        packed = not (packing.one + order.key(t) - order.key(m)) & packing.guards
        assert packed == monomial_divides(m, t)


@SETTINGS
@given(order_with(2))
def test_decoding_inverts_encoding(case):
    order, n, a, b = case
    k = order.key(a) + order.key(b) - order.packing(n).one
    # a fresh, equal order has seen neither key, so it computes both
    fresh = MonomialOrder(order.kind, order.head_degrees).packing(n)
    assert fresh.monomial(order.key(a)) == a
    assert fresh.monomial(k) == monomial_mul(a, b)


_NEAR_THE_TOP = st.integers(0, 3) | st.integers(2 ** 62 - 2, 2 ** 62 + 2)


@SETTINGS
@given(order_with(2, exponents=_NEAR_THE_TOP))
def test_keys_add_as_monomials_multiply(case):
    order, n, a, b = case
    packing = order.packing(n)
    try:
        ka, kb = order.key(a), order.key(b)
    except ResourceCapError:
        return
    product = ka + kb - packing.one
    try:
        expected = order.key(monomial_mul(a, b))
    except ResourceCapError:
        assert product & packing.guards
    else:
        assert product == expected and not product & packing.guards


def test_an_exponent_past_the_field_is_refused():
    for order in (MonomialOrder(), MonomialOrder("lex"),
                  MonomialOrder(head_degrees=(1,))):
        assert order.packing(2).monomial(order.key((FIELD_MAX, 0))) == (FIELD_MAX, 0)
        with pytest.raises(ResourceCapError):
            order.key((FIELD_MAX + 1, 0))
        with pytest.raises(ResourceCapError):
            order.key((0, 2 ** 200))
