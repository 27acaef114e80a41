"""Polynomial arithmetic, monomial orders, and bidegree bookkeeping."""

from fractions import Fraction

import pytest
from oracles import leading_term, monic, parse_polynomial, scale_monomial

from stackdual.poly import (Bidegree, GradedRing, MonomialOrder, Polynomial,
                            RingMismatchError)


def test_difference_of_squares(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_multiply_by_one_is_identity(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    p = 3 * x * y - y ** 2 + qxy.constant(Fraction(1, 2))
    assert p * qxy.one() == p


def test_multiply_uvt_expansion():
    R = GradedRing(["u", "v", "t"])
    u, v, t = R.var("u"), R.var("v"), R.var("t")
    # (uv - t^2) * t expands directly
    assert (u * v - t * t) * t == u * v * t - t ** 3


def test_ring_mismatch_raises(qxy):
    other = GradedRing(["a", "b"])
    with pytest.raises(RingMismatchError):
        qxy.var("x") * other.var("a")


def test_reduce_rejects_a_foreign_polynomial():
    R = GradedRing(["x", "y"])
    foreign = GradedRing(["a", "b", "c"]).var("c")
    for ring in (R, R.quotient([R.var("x") * R.var("y")])):
        with pytest.raises(RingMismatchError):
            ring.reduce(foreign)


def test_elimination_order_ring_differs_from_plain_ring():
    # y^2 + x*s leads with x*s when x is eliminated and with y^2 otherwise,
    # so the two rings must not accept each other's polynomials
    plain = GradedRing(["x", "y", "s"])
    elim = GradedRing(["x", "y", "s"], order=MonomialOrder(head_degrees=(1,)))
    assert elim != plain and not elim.same_ambient(plain)
    x, y, s = (elim.var(v) for v in "xys")
    assert leading_term(y * y + x * s) == ((1, 0, 1), 1)
    yp, xp, sp = (plain.var(v) for v in "yxs")
    assert leading_term(yp ** 2 + xp * sp) == ((0, 2, 0), 1)
    with pytest.raises(RingMismatchError):
        elim.reduce(plain.var("y"))
    with pytest.raises(RingMismatchError):
        plain.reduce(y)
    assert GradedRing(["x", "y", "s"], order=MonomialOrder(head_degrees=(1,))) == elim
    assert GradedRing(["x", "y", "s"], order=MonomialOrder(head_degrees=(1, 1))) != elim


def test_leading_term_degrevlex_tie():
    R = GradedRing(["u", "v", "t"])
    u, v, t = R.var("u"), R.var("v"), R.var("t")
    mono, coeff = leading_term(u * v - t * t)
    assert mono == (1, 1, 0) and coeff == 1


def test_leading_term_degree_wins(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    mono, coeff = leading_term(x ** 3 - y ** 2)
    assert mono == (3, 0) and coeff == 1


def test_leading_term_of_zero_raises(qxy):
    with pytest.raises(ValueError):
        leading_term(qxy.zero())


def test_bidegree_weighted_projective_equation():
    # zx^2 - y^2 with degrees (1,4,6) is homogeneous of Z-degree 8
    C = GradedRing(["x", "y", "z"], zdegs=[1, 4, 6])
    x, y, z = C.var("x"), C.var("y"), C.var("z")
    d = (z * x ** 2 - y ** 2).bidegree()
    assert d is not None and d.zdeg == 8 and d.weight == 0


def test_bidegree_weights_mod_three():
    # t^5 - u^2 + t^2 has weight 2 mod 3 when t, u both carry weight 1
    C = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3)
    t, u = C.var("t"), C.var("u")
    d = (t ** 5 - u ** 2 + t ** 2).bidegree()
    assert d is not None and d.weight == 2 and d.modulus == 3


def test_bidegree_inhomogeneous_is_none(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    assert (x + y ** 2).bidegree() is None
    assert qxy.zero().bidegree() is None and qxy.zero().is_zero()


def test_bidegree_arithmetic():
    d1 = Bidegree(2, 1, 3)
    d2 = Bidegree(5, 2, 3)
    assert d1 + d2 == Bidegree(7, 0, 3)
    assert d1 - d2 == Bidegree(-3, 2, 3)
    assert (-d1) == Bidegree(-2, 2, 3)
    with pytest.raises(ValueError):
        d1 + Bidegree(0, 0, 2)


def test_exact_rational_coefficients(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    p = x / 3 + x / 6
    assert p == x / 2
    assert all(type(c) is Fraction for c in p.terms.values())
    # an integral result is stored as an int, whatever made it
    integral = [x / 3 + x / 3 + x / 3, (x / 2) * 4, (2 * x + y) / 2 * 2,
                qxy.constant(Fraction(6, 3)), qxy.monomial((1, 0), Fraction(-4, 2)),
                qxy.poly({(0, 1): Fraction(3, 1), (1, 0): True}),
                scale_monomial(x / 3, (0, 1), 3), monic(3 * x)]
    for q in integral:
        assert all(type(c) is int for c in q.terms.values()), q.terms
    assert (x / 3 + x / 3 + x / 3).terms == {(1, 0): 1}
    assert type(qxy.constant(Fraction(1, 2)).constant_value()) is Fraction
    assert type(qxy.zero().constant_value()) is int


def test_floats_are_refused(qxy):
    x = qxy.var("x")
    for make in (lambda: GradedRing(["x", "y"]).constant(0.1),
                 lambda: qxy.poly({(1, 0): 0.5}),
                 lambda: qxy.monomial((1, 1), 1e-3),
                 lambda: x / 0.5,
                 lambda: x + 0.25,
                 lambda: 1.5 * x,
                 lambda: scale_monomial(x, (0, 1), 2.0)):
        with pytest.raises(TypeError, match="not an exact rational"):
            make()


def test_scalar_multiples_keep_the_facts_of_a_normal_form(monkeypatch):
    R = GradedRing(["x", "y"], weights=[1, 2], group_order=3)
    B = R.quotient([R.var("x") * R.var("y")])
    x, y = B.var("x"), B.var("y")
    p = B.reduce(x ** 3 + 2 * x * y ** 2 - y ** 3)
    assert p == x ** 3 - y ** 3 and p.bidegree() == Bidegree(3, 0, 3)

    def no_scan():
        raise AssertionError("a scalar multiple of a normal form was scanned")
    monkeypatch.setattr(B, "ideal_groebner", no_scan)
    for q in (-p, p / 3):
        assert B.reduce(q) is q
        assert q._bidegree == q.bidegree() == p.bidegree()


def test_canonical_string_roundtrip(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    p = Fraction(-1, 2) * x ** 2 * y + y ** 3 - 7
    assert parse_polynomial(str(p), qxy) == p


def test_substitute_power_cache(qxy):
    from stackdual.poly import substitute
    R = GradedRing(["u"], zdegs=[2])
    u = R.var("u")
    x = qxy.var("x")
    assert substitute(u ** 3 + u, qxy, [x ** 2]) == x ** 6 + x ** 2


def test_powers_square_repeatedly(qxy, monkeypatch):
    p = qxy.var("x") + 2 * qxy.var("y") - 1
    expected = [qxy.one()]
    for _ in range(17):
        expected.append(expected[-1] * p)
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    for n, want in enumerate(expected):
        calls.clear()
        assert p ** n == want
        assert len(calls) <= 2 * n.bit_length()


def test_direct_construction_is_canonical(qxy):
    # the constructor applies the coefficient rule, so a sum with zero keeps it
    p = Polynomial(qxy, {(1, 0): Fraction(2), (0, 1): Fraction(1, 2), (1, 1): 0})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    for q in (p, p + qxy.zero(), qxy.zero() + p, p - qxy.zero()):
        assert type(q.terms[(1, 0)]) is int and type(q.terms[(0, 1)]) is Fraction
    with pytest.raises(TypeError, match="not an exact rational"):
        Polynomial(qxy, {(1, 0): 0.5})
