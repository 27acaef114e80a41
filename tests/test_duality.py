"""Duality recipes against independently enumerated oracles.

The dual-basis oracles below enumerate Hom_A(B, A) from the explicit
A-module decompositions (worked out by hand before the build) and never
touch the Groebner engine, so they check the whole pipeline end to end.
"""

import dataclasses
from math import gcd

import pytest

from stackdual import duality
from stackdual.caps import EXIT_INTERNAL_ERROR
from stackdual.cli import main
from stackdual.complexes import hom_complex, homology
from stackdual.dsl import parse_session
from stackdual.duality import (canonical_module, cm_gorenstein_check,
                               compare_modules, ext_dualizing, finite_shriek,
                               lci_dualizing, pushforward_check)
from stackdual.gmodule import (ModulePresentation, RingMorphism,
                               hilbert_function, minimalize, restrict_along)
from stackdual.poly import Bidegree, GradedRing, RingMismatchError


def node_setup(a, i, j):
    alpha, beta = a // gcd(i, a), a // gcd(j, a)
    ast = parse_session(f"""
ring A = Q[u,v]/(u*v) degrees {{u:{alpha}, v:{beta}}}
ring B = Q[x,y]/(x*y) group {a} weights {{x:{i}, y:{j}}}
map p : A -> B {{ u = x^{alpha}, v = y^{beta} }}
""")
    return ast.maps["p"], alpha, beta


from oracles import (col, cusp_hom_oracle, node_hom_oracle, reference_resolve,
                     root_hom_oracle, twist)


# -- finite duality -------------------------------------------------------------


@pytest.mark.parametrize("a,i,j", [(2, 1, 1), (3, 1, 2), (5, 2, 3)])
def test_node_dualizing_module_is_trivial(a, i, j):
    f, alpha, beta = node_setup(a, i, j)
    rep = finite_shriek(f, depth=4)
    assert rep.is_free_rank_one
    assert rep.generator_bidegrees[0] == Bidegree(0, 0, a)
    assert not any(rep.ext_profile.values())
    assert rep.is_sheaf


def test_node_hom_matches_enumeration_oracle():
    a, i, j = 3, 1, 2
    f, alpha, beta = node_setup(a, i, j)
    rep = finite_shriek(f, depth=2)
    table = hilbert_function(rep.module, 7)
    oracle = node_hom_oracle(a, i, j, alpha, beta, 7)
    oracle = {k: v for k, v in oracle.items() if k[0] >= 0}
    assert table == oracle


def test_ext_past_the_repeat_equals_every_degree_computed():
    # B = A/(u) over the node: Ext^i_A(B, A/(u)) vanishes exactly in odd i
    ast = parse_session("""
ring A = Q[u,v]/(u*v)
ring B = Q[y]
map f : A -> B { u = 0, v = y }
module W over A gens w:(0,0) rels u*w
""")
    f, W = ast.maps["f"], ast.modules["W"]
    rep = finite_shriek(f, W, depth=9)
    hc = hom_complex(reference_resolve(restrict_along(f), 10), f.transport_module(W))
    full = {i: homology(hc, i).rank for i in range(1, 10)}
    assert rep.ext_profile == full
    assert list(full.values()) == [0, 1] * 4 + [0]


def test_cusp_over_line():
    ast = parse_session("""
ring A = Q[u] degrees {u:2}
ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1} degrees {x:2, y:3}
map f : A -> B { u = x }
""")
    rep = finite_shriek(ast.maps["f"], depth=4)
    assert rep.is_free_rank_one
    assert rep.generator_bidegrees[0] == Bidegree(-3, -1, 2)
    table = hilbert_function(rep.module, 7)
    assert table == cusp_hom_oracle(7)


def test_tacnode_over_node():
    ast = parse_session("""
ring A = Q[u,w]/(w^2 - u^2) degrees {u:2, w:2}
ring B = Q[x,y]/(y^2 - x^4) group 2 weights {x:1, y:0} degrees {x:1, y:2}
map f : A -> B { u = x^2, w = y }
""")
    rep = finite_shriek(ast.maps["f"], depth=4)
    assert rep.is_free_rank_one
    assert rep.generator_bidegrees[0].weight == 1  # -1 mod 2
    assert rep.is_sheaf


def test_tacnode_over_cusp_trivial_coaction():
    ast = parse_session("""
ring A = Q[u,t]/(t^2 - u^3) degrees {u:2, t:3}
ring B = Q[x,y]/(y^2 - x^4) group 2 weights {x:1, y:1} degrees {x:1, y:2}
map f : A -> B { u = x^2, t = x*y }
""")
    rep = finite_shriek(ast.maps["f"], depth=4)
    assert rep.is_free_rank_one
    assert rep.generator_bidegrees[0].weight == 0
    assert rep.is_sheaf


@pytest.mark.parametrize("a", [2, 3, 5])
def test_root_cover_matches_dual_basis_oracle(a):
    ast = parse_session(f"""
ring A = Q[u] degrees {{u:{a}}}
ring B = Q[t] group {a} weights {{t:1}}
map tau : A -> B {{ u = t^{a} }}
""")
    rep = finite_shriek(ast.maps["tau"], depth=3)
    assert rep.is_free_rank_one
    d = rep.generator_bidegrees[0]
    assert d == Bidegree(-(a - 1), -(a - 1), a)
    assert hilbert_function(rep.module, 6) == root_hom_oracle(a, 6)


def test_finite_shriek_scalar_rescaling_invariance():
    f, _, _ = node_setup(2, 1, 1)
    base = finite_shriek(f, depth=2)
    ring_a = f.source
    m_scaled = ModulePresentation(ring_a, (ring_a.degree_zero(),))
    rep = finite_shriek(f, m_scaled, depth=2)
    assert rep.generator_bidegrees == base.generator_bidegrees
    assert rep.is_free_rank_one == base.is_free_rank_one


def test_finite_shriek_composition():
    # A --u=t^2--> B --t=s^3--> C with compatible weights: the composite
    # twisted inverse image matches the two-step one
    A = GradedRing(["u"], zdegs=[6], name="A")
    B = GradedRing(["t"], zdegs=[3], weights=[1], group_order=2, name="B")
    C = GradedRing(["s"], zdegs=[1], weights=[1], group_order=6, name="C")
    t = B.var("t")
    s = C.var("s")
    f = RingMorphism(A, B, [t ** 2], name="f")
    g = RingMorphism(B, C, [s ** 3], name="g")
    h = RingMorphism(A, C, [s ** 6], name="h")
    straight = finite_shriek(h, depth=2)
    step1 = finite_shriek(f, depth=2)
    step2 = finite_shriek(g, step1.module, depth=2)
    assert straight.generator_bidegrees[0] == Bidegree(-5, 1, 6)
    assert compare_modules(straight.module, step2.module, 8) == \
        "isomorphic-up-to-bound"


# -- Ext dualizing modules ------------------------------------------------------


def test_ext_dualizing_triple_point(triple_ring):
    u, v, t = triple_ring.var("u"), triple_ring.var("v"), triple_ring.var("t")
    I = [u * v - t * t, u * t - v * v, v * t - u * u]
    exts = ext_dualizing(triple_ring, I, ModulePresentation.structure(triple_ring), 3)
    by_i = dict(exts)
    assert by_i[0].rank == 0 and by_i[1].rank == 0 and by_i[3].rank == 0
    ext2 = by_i[2]
    assert ext2.rank == 2 and len(ext2.relations) == 3
    # weight 3 mod 3 with the engine's dual convention (-3 = 3 = 0 mod 3)
    assert all(d.weight == (-3) % 3 for d in ext2.bidegrees)
    # equivalent to the displayed matrix (t e1 + u e2, v e1 + t e2, u e1 + v e2)
    d = ext2.bidegrees[0]
    B = ext2.ring
    u, v, t = B.var("u"), B.var("v"), B.var("t")
    displayed = ModulePresentation(
        B, (d, d), [col(t, u), col(v, t), col(u, v)])
    assert compare_modules(ext2, displayed, 8) == "isomorphic-up-to-bound"
    permuted = ModulePresentation(
        B, (d, d), [col(u, t), col(t, v), col(v, u)])
    assert compare_modules(ext2, permuted, 8) == "isomorphic-up-to-bound"


def test_ext_dualizing_zero_ideal(qxy):
    omega = canonical_module(qxy)
    exts = ext_dualizing(qxy, [], omega, 2)
    assert exts[0][1].rank == 1
    assert exts[0][1].bidegrees == omega.bidegrees
    assert exts[1][1].rank == 0 and exts[2][1].rank == 0


def test_ext_dualizing_plane_node_cancels_twist():
    # Ext^1 of the node against the canonical module is free of weight 0
    B0 = GradedRing(["x", "y"], weights=[1, 2], group_order=5, name="C")
    x, y = B0.var("x"), B0.var("y")
    exts = ext_dualizing(B0, [x * y], canonical_module(B0), 2)
    ext1 = dict(exts)[1]
    assert ext1.rank == 1 and not ext1.relations
    assert ext1.bidegrees[0] == Bidegree(0, 0, 5)
    assert dict(exts)[0].rank == 0 and dict(exts)[2].rank == 0


def test_moving_to_the_quotient_can_leave_a_redundant_relation():
    # why ext_dualizing minimalizes after moving Ext to B = C/I: relations
    # independent over C can become dependent modulo I
    C = GradedRing(["x", "y"], name="C")
    x, y = C.var("x"), C.var("y")
    degs = (C.degree_zero(), C.degree_zero())
    M = ModulePresentation(C, degs,
                           [col(x, -y), col(C.zero(), x * y), col(C.zero(), x * x)])
    assert minimalize(M).relations == M.relations
    B = C.quotient([x * x])
    # (0, x^2) vanishes over B and (0, xy) = -x * (x, -y) there
    over_b = ModulePresentation(B, degs, M.relations)
    assert len(over_b.relations) == 2
    assert len(minimalize(over_b).relations) == 1


def test_ext_agrees_with_finite_shriek_on_node():
    # the Koszul route and the finite-map route produce the same verdict
    f, _, _ = node_setup(3, 1, 2)
    rep = finite_shriek(f, depth=3)
    B0 = GradedRing(["x", "y"], weights=[1, 2], group_order=3, name="C")
    x, y = B0.var("x"), B0.var("y")
    exts = ext_dualizing(B0, [x * y], canonical_module(B0), 2)
    ext1 = dict(exts)[1]
    assert ext1.bidegrees[0].weight == rep.generator_bidegrees[0].weight == 0


# -- the complete intersection formula ---------------------------------------------


def test_lci_p146_curve():
    C = GradedRing(["x", "y", "z"], zdegs=[1, 4, 6], name="C")
    x, y, z = C.var("x"), C.var("y"), C.var("z")
    rep = lci_dualizing(C, [z * x ** 2 - y ** 2], canonical_module(C))
    assert rep.twist_label() == "O(-3)"
    assert "CROSS-CHECK FAILED" not in rep.notes


@pytest.mark.parametrize("i,j,a", [(1, 1, 2), (1, 2, 3), (2, 3, 5)])
def test_lci_pija_node(i, j, a):
    C = GradedRing(["x", "y", "z"], zdegs=[i, j, a], name="C")
    x, y = C.var("x"), C.var("y")
    rep = lci_dualizing(C, [x * y], canonical_module(C))
    assert rep.twist_label() == f"O(-{a})"
    assert "CROSS-CHECK FAILED" not in rep.notes


def test_lci_balanced_node_chart():
    C = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3,
                   name="C")
    t, u = C.var("t"), C.var("u")
    rep = lci_dualizing(C, [t ** 5 - u ** 2 + t ** 2], canonical_module(C))
    assert rep.is_free_rank_one
    assert rep.generator_bidegrees[0].weight == 0
    assert "CROSS-CHECK FAILED" not in rep.notes


def test_lci_rejects_nonregular_sequence(node_ring):
    amb = node_ring.ambient()
    x, y = amb.var("x"), amb.var("y")
    with pytest.raises(ValueError):
        lci_dualizing(amb, [x * y, x ** 2], canonical_module(amb))


def test_lci_change_of_basis_covariance(qxy):
    # acting on the sequence by an invertible homogeneous matrix leaves
    # every verdict unchanged
    x, y = qxy.var("x"), qxy.var("y")
    omega = canonical_module(qxy)
    rep1 = lci_dualizing(qxy, [x ** 2, y ** 2], omega)
    rep2 = lci_dualizing(qxy, [x ** 2 + y ** 2, y ** 2], omega)
    assert rep1.generator_bidegrees == rep2.generator_bidegrees
    assert rep1.is_free_rank_one == rep2.is_free_rank_one
    assert compare_modules(rep1.module, rep2.module, 8) == "isomorphic-up-to-bound"


# -- canonical modules ----------------------------------------------------------------


def test_canonical_module_weighted_projective():
    C = GradedRing(["x", "y", "z", "w"], zdegs=[1, 1, 1, 5], name="C")
    omega = canonical_module(C)
    assert omega.bidegrees[0].zdeg == 8  # O(-3-a) with a = 5


def test_canonical_module_single_variable():
    C = GradedRing(["x"], name="C")
    omega = canonical_module(C)
    assert omega.bidegrees[0] == Bidegree(1, 0, 1)


def test_canonical_module_weights_add():
    C = GradedRing(["x", "y"], weights=[1, 2], group_order=5, name="C")
    omega = canonical_module(C)
    assert omega.bidegrees[0].weight == 3


def test_canonical_module_rejects_quotient(node_ring):
    with pytest.raises(ValueError):
        canonical_module(node_ring)


# -- CM / Gorenstein ---------------------------------------------------------------------


def test_cm_check_triple_point(triple_ring):
    u, v, t = triple_ring.var("u"), triple_ring.var("v"), triple_ring.var("t")
    I = [u * v - t * t, u * t - v * v, v * t - u * u]
    rep = cm_gorenstein_check(triple_ring, I, 3)
    assert rep.codimension == 2
    assert rep.cohen_macaulay and not rep.gorenstein
    assert not rep.inconclusive
    assert rep.ext_profile[2] == 2


def test_cm_check_plane_node():
    C = GradedRing(["x", "y"], weights=[1, 1], group_order=2, name="C")
    x, y = C.var("x"), C.var("y")
    rep = cm_gorenstein_check(C, [x * y], 2)
    assert rep.codimension == 1
    assert rep.cohen_macaulay and rep.gorenstein


def test_cm_check_regular_ring(qxy):
    rep = cm_gorenstein_check(qxy, [], 2)
    assert rep.codimension == 0
    assert rep.gorenstein


def test_a_repeat_over_a_regular_ambient_is_an_internal_error(monkeypatch, qxy,
                                                             tmp_path):
    # Ext over a polynomial ring is read off the stored complex only, so a
    # resolution that stopped at a repeat must not reach a profile
    original = duality.resolve
    monkeypatch.setattr(duality, "resolve", lambda M, depth: dataclasses.replace(
        original(M, depth), repeat=(1, 1)))
    x, y = qxy.var("x"), qxy.var("y")
    with pytest.raises(RuntimeError, match="repeated"):
        ext_dualizing(qxy, [x * y], canonical_module(qxy), 2)
    with pytest.raises(RuntimeError, match="repeated"):
        cm_gorenstein_check(qxy, [x * y], 2)
    for command in ("ext C ideal (x*y) omega canonical max 2",
                    "check gorenstein C ideal (x*y) max 2"):
        session = tmp_path / "ext.sdl"
        session.write_text(f"ring C = Q[x,y]\n{command}\n")
        assert main(["run", str(session)]) == EXIT_INTERNAL_ERROR


# -- pushforward and comparison ------------------------------------------------------------


def test_pushforward_node():
    f, _, _ = node_setup(3, 1, 2)
    rep = finite_shriek(f, depth=2)
    verdict, disc = pushforward_check(
        f, rep.module, ModulePresentation.structure(f.source), 8)
    assert verdict == "equal" and disc is None


def test_pushforward_trivial_group():
    A = GradedRing(["u"], name="A")
    B = GradedRing(["x"], name="B")
    x = B.var("x")
    f = RingMorphism(A, B, [x], name="id")
    verdict, _ = pushforward_check(
        f, ModulePresentation.structure(B),
        ModulePresentation.structure(A), 6)
    assert verdict == "equal"


def test_pushforward_cusp_line():
    ast = parse_session("""
ring A = Q[u] degrees {u:2}
ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1} degrees {x:2, y:3}
map f : A -> B { u = x }
""")
    f = ast.maps["f"]
    rep = finite_shriek(f, depth=2)
    verdict, _ = pushforward_check(
        f, rep.module, ModulePresentation.structure(f.source), 8)
    assert verdict == "equal"


def test_pushforward_detects_mismatch():
    f, _, _ = node_setup(2, 1, 1)
    wrong = twist(ModulePresentation.structure(f.target), Bidegree(-2, 0, 2))
    verdict, disc = pushforward_check(
        f, wrong, ModulePresentation.structure(f.source), 8)
    assert verdict == "unequal" and disc is not None


def test_pushforward_rejects_modules_over_other_rings():
    f, _, _ = node_setup(3, 1, 2)
    B2 = f.target.ambient().quotient([f.target.var("x") ** 2])
    w = ModulePresentation.structure(B2)
    omega_a = ModulePresentation.structure(f.source)
    with pytest.raises(RingMismatchError, match="omega_B"):
        pushforward_check(f, w, omega_a, 8)
    with pytest.raises(RingMismatchError, match="omega_A"):
        pushforward_check(f, ModulePresentation.structure(f.target),
                          ModulePresentation.structure(f.target), 8)


def test_compare_modules_basics(node_ring):
    M = ModulePresentation.structure(node_ring)
    assert compare_modules(M, M, 8) == "isomorphic-up-to-bound"
    shifted = twist(M, Bidegree(0, 1, 2))
    assert compare_modules(M, shifted, 8) == "distinct"


def test_compare_does_not_turn_a_table_fault_into_a_verdict(qxy, monkeypatch):
    import stackdual.duality

    def broken(M, zmax):
        raise ValueError("table fault")

    x, y = qxy.var("x"), qxy.var("y")
    d = qxy.degree_zero()
    M = ModulePresentation(qxy, (d,), [col(x)])
    N = ModulePresentation(qxy, (d,), [col(y)])
    monkeypatch.setattr(stackdual.duality, "hilbert_function", broken)
    with pytest.raises(ValueError, match="table fault"):
        compare_modules(M, N, 8)


def test_free_rank_one_reports_have_zero_annihilator():
    # a free-rank-one verdict means the module is B itself up to a twist:
    # the Hilbert tables must agree with the twisted ring up to the bound
    f, _, _ = node_setup(3, 1, 2)
    rep = finite_shriek(f, depth=2)
    assert rep.is_free_rank_one
    shifted = twist(ModulePresentation.structure(f.target),
                    -rep.generator_bidegrees[0])
    assert hilbert_function(rep.module, 8) == hilbert_function(shifted, 8)


def test_finite_shriek_with_declared_omega_module():
    ast = parse_session("""
ring A = Q[u] degrees {u:2}
ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1} degrees {x:2, y:3}
map f : A -> B { u = x }
module MA over A gens m:(2,0)
dualize-finite f omega MA depth 2
""")
    from stackdual.session import run_session
    report = run_session(ast)
    assert report.exit_code() == 0
    # omega shifted by (2, 0): the dual generator moves accordingly
    gens = report.outcomes[0].result["generator_bidegrees"]
    assert gens[0]["zdeg"] == -1


def test_compare_distinct_by_hilbert(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    d = qxy.degree_zero()
    M = ModulePresentation(qxy, (d,), [col(x)])
    N = ModulePresentation(qxy, (d,), [col(x ** 2 - y ** 2)])
    # same generator degrees, different Hilbert tables
    assert compare_modules(M, N, 8) == "distinct"
