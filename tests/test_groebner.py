"""Groebner bases, normal forms, and syzygies.

The triple-point reduced basis below was computed by hand before the build
(all S-pairs of {u^2-vt, uv-t^2, v^2-ut} reduce to zero, leads u^2 > uv >
v^2 under degrevlex u>v>t) and cross-checked against an independent
computer algebra system.
"""

import pytest

from stackdual.groebner import (GroebnerBasis, SubmoduleOracle, buchberger,
                                normal_form, syzygies)
from stackdual.poly import GradedRing, MonomialOrder


@pytest.fixture
def uvt():
    return GradedRing(["u", "v", "t"])


def triple_gens(uvt):
    u, v, t = uvt.var("u"), uvt.var("v"), uvt.var("t")
    return [u * v - t * t, u * t - v * v, v * t - u * u]


def test_single_monomial_is_its_own_basis(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    gb = buchberger([x * y])
    assert [str(g) for g in gb.generators] == ["x*y"]


def test_principal_ideal(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    gb = buchberger([y ** 2 - x ** 3])
    assert len(gb) == 1 and str(gb.generators[0]) == "x^3 - y^2"


def test_triple_point_reduced_basis_degrevlex(uvt):
    # frozen oracle: the reduced degrevlex basis is the three quadrics
    gb = buchberger(triple_gens(uvt))
    assert sorted(str(g) for g in gb.generators) == [
        "u*v - t^2", "u^2 - v*t", "v^2 - u*t"]


def test_triple_point_lex_basis_contains_hand_spair(uvt):
    # S(uv - t^2, ut - v^2) = v^3 - t^3 under lex u>v>t; it survives into
    # the reduced lex basis and lies in the ideal for any order
    u, v, t = uvt.var("u"), uvt.var("v"), uvt.var("t")
    lex = MonomialOrder("lex")
    gb = buchberger(triple_gens(uvt), order=lex)
    assert "v^3 - t^3" in {str(g) for g in gb.generators}
    grevlex_gb = buchberger(triple_gens(uvt))
    assert normal_form(v ** 3 - t ** 3, grevlex_gb).is_zero()


def test_normal_form_generator_reduces_to_zero(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    gb = buchberger([x * y])
    assert normal_form(x * y, gb).is_zero()
    assert normal_form(x ** 3, gb) == x ** 3


def test_normal_form_uvt(uvt):
    u, v, t = uvt.var("u"), uvt.var("v"), uvt.var("t")
    gb = buchberger(triple_gens(uvt))
    assert str(normal_form(u * v * t, gb)) == "t^3"


def test_normal_form_idempotent_and_linear(uvt):
    u, v, t = uvt.var("u"), uvt.var("v"), uvt.var("t")
    gb = buchberger(triple_gens(uvt))
    p = u ** 3 * v - t * v ** 2 + u
    q = v * t ** 2 - u ** 2
    nf = lambda r: normal_form(r, gb)
    assert nf(nf(p)) == nf(p)
    assert nf(p + q) == nf(nf(p) + nf(q))


def test_reduced_basis_invariant_under_permutation(uvt):
    gens = triple_gens(uvt)
    base = [str(g) for g in buchberger(gens).generators]
    for perm in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
        permuted = buchberger([gens[i] for i in perm])
        assert [str(g) for g in permuted.generators] == base


def test_koszul_syzygy_of_regular_pair(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    syz = syzygies([x, y], qxy)
    assert len(syz.vectors) == 1
    assert sorted(str(p) for p in syz.vectors[0]) in (["-x", "y"], ["-y", "x"])
    assert syz.annihilates([(x,), (y,)])


def test_unit_has_no_relations(qxy):
    syz = syzygies([qxy.one()], qxy)
    assert syz.vectors == ()


def test_syzygies_require_homogeneous_rows(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    with pytest.raises(ValueError):
        syzygies([x + y ** 2], qxy)


def test_syzygies_over_quotient_reproduce_node_relations():
    # x over B = Q[x,y]/(xy): the annihilator relation y*e comes from lifting
    B = GradedRing(["x", "y"]).quotient(
        [GradedRing(["x", "y"]).var("x") * GradedRing(["x", "y"]).var("y")])
    x, y = B.var("x"), B.var("y")
    syz = syzygies([x], B)
    assert [[str(p) for p in v] for v in syz.vectors] == [["-y"]] or \
           [[str(p) for p in v] for v in syz.vectors] == [["y"]]


def test_syzygy_annihilation_over_quotient(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    rows = [(x, y), (y, x.ring.zero())]
    syz = syzygies(rows, node_ring,
                   gen_bidegrees=(node_ring.degree_zero(),) * 2)
    assert syz.annihilates(rows)


def test_submodule_oracle_membership_and_lift(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    z = node_ring.zero()
    oracle = SubmoduleOracle(node_ring, [(x, z), (z, y)], 2)
    assert oracle.contains((x * x, z))
    assert not oracle.contains((y, z))
    coords = oracle.lift((x * x, z))
    assert coords is not None
    assert node_ring.reduce(coords[0] * x).terms == (x * x).terms


def test_submodule_oracle_extend_grows_the_span(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    z = node_ring.zero()
    oracle = SubmoduleOracle(node_ring, [], 2)
    assert not oracle.contains((y, z)) and oracle.lift((y, z)) is None
    oracle.extend((x, z))
    oracle.extend((x * x, z))          # already in the span
    oracle.extend((y, y))
    assert oracle.ngens == 3
    assert oracle.contains((y * y, y * y))
    coords = oracle.lift((x + y, y))
    assert coords is not None
    back = [sum((c * g[t] for c, g in zip(coords, [(x, z), (x * x, z), (y, y)])),
                node_ring.zero()) for t in range(2)]
    assert [node_ring.reduce(p) for p in back] == [x + y, y]


def test_empty_input_is_zero_ideal(qxy):
    gb = buchberger([], ring=qxy)
    assert isinstance(gb, GroebnerBasis) and len(gb) == 0
    assert normal_form(qxy.var("x"), gb) == qxy.var("x")
