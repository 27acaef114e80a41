"""Module presentations and their algebra: kernels, Hom, twists, minimal
presentations, Hilbert tables, invariant parts, and restriction of
scalars."""

import itertools
import time

import pytest
from oracles import _monomials_by_zdeg, col, twist

from stackdual import caps, gmodule
from stackdual.caps import ResourceCapError
from stackdual.dsl import parse_session
from stackdual.gmodule import (ModuleMap, ModulePresentation,
                               NotModuleFiniteError, RingMorphism,
                               _numerator, _staircase,
                               hilbert_function, hom_module, invariant_part,
                               kernel, minimalize, restrict_along)
from stackdual.groebner import SubmoduleOracle, printed_column, syzygies_over
from stackdual.poly import (Bidegree, GradedRing, RingMismatchError,
                            monomial_divides)


def structure(ring):
    return ModulePresentation.structure(ring)


def node_map(a, i, j):
    from math import gcd
    alpha, beta = a // gcd(i, a), a // gcd(j, a)
    ast = parse_session(f"""
ring A = Q[u,v]/(u*v) degrees {{u:{alpha}, v:{beta}}}
ring B = Q[x,y]/(x*y) group {a} weights {{x:{i}, y:{j}}}
map p : A -> B {{ u = x^{alpha}, v = y^{beta} }}
""")
    return ast.maps["p"]


# -- kernels ---------------------------------------------------------------


def test_kernel_of_multiplication_by_x_on_node(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    deg_x, deg_y = node_ring.variable_bidegree(0), node_ring.variable_bidegree(1)
    f = ModuleMap(ModulePresentation(node_ring, (deg_x,)), structure(node_ring),
                  [col(x)])
    ker = kernel(f)
    # the annihilator of x is (y), i.e. R/(x) on a generator of degree x*y
    assert ker.rank == 1
    assert ker.bidegrees[0] == deg_x + deg_y
    assert [list(printed_column(c, ker.rank)) for c in ker.relations] == [["x"]]


def test_kernel_of_identity_is_zero(node_ring):
    R = structure(node_ring)
    f = ModuleMap(R, R, [col(node_ring.one())])
    assert kernel(f).rank == 0


def test_kernel_koszul_map(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    d = qxy.degree_zero()
    src = ModulePresentation(qxy, (Bidegree(1, 0, 1), Bidegree(1, 0, 1)))
    tgt = structure(qxy)
    f = ModuleMap(src, tgt, [col(x), col(y)])
    ker = kernel(f)
    assert ker.rank == 1 and not ker.relations
    # generated by the Koszul relation (-y, x) up to sign


def test_kernel_inclusion_composes_to_zero(node_ring):
    from stackdual.gmodule import kernel_with_inclusion
    from stackdual.groebner import SubmoduleOracle
    x, y = node_ring.var("x"), node_ring.var("y")
    f = ModuleMap(ModulePresentation(node_ring, (node_ring.variable_bidegree(0),)),
                  structure(node_ring), [col(x)])
    _, incl = kernel_with_inclusion(f)
    oracle = SubmoduleOracle(node_ring, list(f.target.relations), f.target.rank)
    for vec in incl:
        assert oracle.contains(f.apply_to_vector(vec))


def test_ill_defined_map_rejected(node_ring, qxy):
    x, y = qxy.var("x"), qxy.var("y")
    M = ModulePresentation(qxy, (qxy.degree_zero(),), [col(x)])
    N = structure(qxy)
    with pytest.raises(ValueError):
        ModuleMap(M, N, [col(qxy.one())])  # does not kill x


def test_foreign_ring_entries_rejected(node_ring):
    foreign = col(GradedRing(["a", "b"]).var("a"))
    M = structure(node_ring)
    with pytest.raises(RingMismatchError):
        ModulePresentation(node_ring, M.bidegrees, [foreign])
    with pytest.raises(RingMismatchError):
        ModuleMap(M, M, [foreign])
    with pytest.raises(RingMismatchError):
        SubmoduleOracle(node_ring, [foreign], 1)
    with pytest.raises(RingMismatchError):
        SubmoduleOracle(node_ring, [col(node_ring.var("x"))], 1).contains(foreign)
    with pytest.raises(RingMismatchError):
        syzygies_over(node_ring, [col(node_ring.var("x"))], 1, context=[foreign])


def test_generator_bidegree_modulus_must_match_the_ring(qxy):
    assert qxy.group_order == 1
    with pytest.raises(ValueError, match="modulus differs from the ring"):
        ModulePresentation(qxy, (Bidegree(0, 0, 3),))
    assert ModulePresentation(qxy, (Bidegree(0, 0, 1),)).rank == 1


# -- hom ----------------------------------------------------------------------


def test_hom_torsion_into_domain_vanishes():
    R = GradedRing(["x"])
    x = R.var("x")
    M = ModulePresentation(R, (R.degree_zero(),), [col(x)])
    assert minimalize(hom_module(M, structure(R))).rank == 0


def test_hom_from_ring_is_identity(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    N = ModulePresentation(
        node_ring, (node_ring.degree_zero(),
                               node_ring.variable_bidegree(0)),
        [col(y, node_ring.zero())])
    h = hom_module(structure(node_ring), N)
    assert hilbert_function(h, 8) == hilbert_function(N, 8)


def test_hom_node_module_matches_restriction():
    f = node_map(2, 1, 1)
    ba = restrict_along(f)
    # Hom_A(B, A): same bigraded dimensions as B itself (it is B e0 dual)
    h = hom_module(ba, structure(f.weighted_source))
    table = hilbert_function(minimalize(h), 6)
    b_table = hilbert_function(ba, 6)
    assert sum(table.values()) > 0
    # free rank one over B: dimensions agree with B in every bidegree >= 0
    assert {k: v for k, v in table.items() if k[0] >= 0} == b_table


# -- twist ------------------------------------------------------------------------


def test_twist_conventions(node_ring):
    R = structure(node_ring)
    d = Bidegree(2, 1, 2)
    assert twist(R, node_ring.degree_zero()).bidegrees == R.bidegrees
    assert twist(twist(R, d), -d).bidegrees == R.bidegrees
    # O(-n) means the generator sits at Z-degree n
    minus_n = twist(R, Bidegree(-3, 0, 2))
    assert minus_n.bidegrees[0].zdeg == 3


# -- minimalize ------------------------------------------------------------------


def test_minimalize_unit_entry(qxy):
    d = qxy.degree_zero()
    M = ModulePresentation(qxy, (d, d),
                           [col(qxy.one(), qxy.constant(-1))])
    m = minimalize(M)
    assert m.rank == 1 and not m.relations


def test_minimalize_keeps_triple_point_ext(triple_ring):
    u, v, t = triple_ring.var("u"), triple_ring.var("v"), triple_ring.var("t")
    B = triple_ring.quotient([u * v - t * t, u * t - v * v, v * t - u * u])
    u, v, t = B.var("u"), B.var("v"), B.var("t")
    d = Bidegree(-3, -3, 3)
    M = ModulePresentation(
        B, (d, d),
        [col(t, u), col(v, t), col(u, v)])
    m = minimalize(M)
    assert m.rank == 2 and len(m.relations) == 3


def test_minimalize_kills_spurious_generator(qxy):
    M = ModulePresentation(qxy, (qxy.degree_zero(),),
                           [col(qxy.one())])
    m = minimalize(M)
    assert m.rank == 0


def test_minimalize_preserves_hilbert_table(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    d0 = node_ring.degree_zero()
    dx = node_ring.variable_bidegree(0)
    M = ModulePresentation(node_ring, (d0, dx),
                           [col(x, node_ring.constant(-1)), col(y * y, node_ring.zero())])
    assert hilbert_function(M, 8) == hilbert_function(minimalize(M), 8)


# -- hilbert tables -----------------------------------------------------------------


def test_hilbert_node_counts():
    B = parse_session("ring B = Q[x,y]/(x*y)").rings["B"]
    table = hilbert_function(structure(B), 5)
    dims = [table.get((z, 0), 0) for z in range(6)]
    assert dims == [1, 2, 2, 2, 2, 2]


def test_hilbert_shifted_free(qxy):
    M = ModulePresentation(qxy, (Bidegree(3, 0, 1),))
    table = hilbert_function(M, 5)
    assert table.get((2, 0), 0) == 0
    assert table[(3, 0)] == 1 and table[(4, 0)] == 2


def test_hilbert_cusp_weight_one_part():
    # the weight-1 part of the cusp has basis y*x^k, one element per step;
    # with the homogeneous grading deg(x,y) = (2,3) these sit in 3, 5, 7, ...
    B = parse_session(
        "ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1}"
        " degrees {x:2, y:3}").rings["B"]
    table = hilbert_function(structure(B), 9)
    assert [table.get((z, 1), 0) for z in range(10)] == \
        [0, 0, 0, 1, 0, 1, 0, 1, 0, 1]


def test_hilbert_rejects_degree_zero_variables():
    C = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3)
    with pytest.raises(ValueError):
        hilbert_function(structure(C), 4)


def test_hilbert_of_a_power_of_the_maximal_ideal():
    # Q[x,y,z]/(x,y,z)^4 has every monomial below degree 4 and none above
    R = GradedRing(["x", "y", "z"])
    ideal = [R.monomial(m) for m in itertools.product(range(5), repeat=3)
             if sum(m) == 4]
    table = hilbert_function(ModulePresentation(
        R, (R.degree_zero(),), [col(p) for p in ideal]), 8)
    assert table == {(0, 0): 1, (1, 0): 3, (2, 0): 6, (3, 0): 10}


def test_expired_deadline_stops_the_staircase(monkeypatch):
    R = GradedRing(["x", "y", "z"])
    leads = [m for m in itertools.product(range(13), repeat=3) if sum(m) == 12]
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "0")
    with caps.command_caps():
        time.sleep(0.001)
        with pytest.raises(ResourceCapError):
            list(_staircase(R, [], 60, 60))
        with pytest.raises(ResourceCapError):
            _numerator(R, leads, 60)


def test_staircase_is_the_filtered_monomials():
    """The walk yields every monomial of Z-degree low..top that no lead
    divides, in ascending exponent order: with no leads, with a unit lead
    (B = 0, nothing) and with seeded lead sets, on one level or several."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def walks(draw):
        n = draw(st.integers(1, 4))
        zdegs = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        mono = st.tuples(*[st.integers(0, 3)] * n)
        leads = draw(st.one_of(st.just([]), st.just([(0,) * n]),
                               st.lists(mono, min_size=1, max_size=4)))
        top = draw(st.integers(0, 8))
        low = draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))
        return GradedRing("xyzt"[:n], zdegs), leads, low, top

    @hyp.settings(derandomize=True, max_examples=300, deadline=None,
                  database=None)
    @hyp.given(walks())
    def check(walk):
        ring, leads, low, top = walk
        expected = sorted(m for z, level in _monomials_by_zdeg(ring, top).items()
                          if z >= low for m in level
                          if not any(monomial_divides(lm, m) for lm in leads))
        assert list(_staircase(ring, leads, low, top)) == expected

    check()


def test_the_restriction_staircase_costs_its_size(monkeypatch):
    """The walk raises an exponent only from a standard monomial and polls
    the deadline once per monomial it builds: at most 4 times per generator
    of B over A on the node at a = 101 (rank 201), where a walk over every
    monomial of each Z-degree polls about a hundred times per generator."""
    f = node_map(101, 5, 7)
    polls = []
    monkeypatch.setattr(gmodule, "check_deadline", lambda: polls.append(1))
    monos, _ = f.module_generators
    assert len(monos) == 201
    assert len(polls) <= 4 * len(monos)


def test_a_high_sparse_invariant_level_is_walked_alone(monkeypatch):
    """On Q[x,y,z] with every weight 1 mod 61, a generator of weight 1 has
    its only weight-zero piece below the bound at Z-degree 60.  The 24
    representatives come from that level alone, a few polls each, where a
    walk that builds every level up to 60 polls about 40,000 times."""
    M = parse_session("ring R = Q[x,y,z] group 61 weights {x:1, y:1, z:1}\n"
                      "module M over R gens e1:(0,1)\n").modules["M"]
    polls = []
    monkeypatch.setattr(gmodule, "check_deadline", lambda: polls.append(1))
    dims, elements = invariant_part(M, 60)
    assert dims == {60: 1891}
    assert elements[0] == "z^60*e1 (zdeg 60)" and len(elements) == 24
    assert len(polls) <= 4 * 24


# -- invariant parts -------------------------------------------------------------------


def test_invariant_part_of_node_matches_moduli():
    f = node_map(2, 1, 1)
    dims, elements = invariant_part(structure(f.target), 8)
    # weight-0 monomials are 1, x^2, y^2, x^4, ... matching A = Q[u,v]/(uv)
    assert dims == {0: 1, 2: 2, 4: 2, 6: 2, 8: 2}
    assert any("1*e1" in e or e.startswith("1") for e in elements)


def test_invariant_part_trivial_group(qxy):
    dims, _ = invariant_part(structure(qxy), 4)
    assert dims == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}


def test_invariant_part_cusp_dual():
    B = parse_session(
        "ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1}"
        " degrees {x:2, y:3}").rings["B"]
    M = ModulePresentation(B, (Bidegree(-3, 1, 2),))
    dims, _ = invariant_part(M, 8)
    assert dims == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}


# -- restriction of scalars ------------------------------------------------------------


def test_restrict_node_rank_and_relations():
    f = node_map(2, 1, 1)
    ba = restrict_along(f)
    assert ba.rank == 3  # alpha + beta - 1
    # generators are ordered 1, y, x; the relations are u*y = 0 and v*x = 0
    rels = sorted(printed_column(c, ba.rank) for c in ba.relations)
    assert rels == [("0", "0", "v"), ("0", "u", "0")]


def test_restrict_node_rank_general():
    f = node_map(3, 1, 2)
    ba = restrict_along(f)
    assert ba.rank == 5  # alpha + beta - 1 = 3 + 3 - 1
    assert len(ba.relations) == 4  # alpha + beta - 2


def test_restrict_along_identity():
    B = parse_session("ring B = Q[x,y]/(x*y) group 2 weights {x:1, y:1}").rings["B"]
    x, y = B.var("x"), B.var("y")
    restricted = restrict_along(RingMorphism(B, B, [x, y], name="id"))
    assert restricted.rank == 1 and not restricted.relations
    assert hilbert_function(restricted, 8) == hilbert_function(structure(B), 8)


def test_restrict_double_cover_of_line():
    A = GradedRing(["u"], zdegs=[2], name="A")
    B = GradedRing(["x"], name="B")
    x = B.var("x")
    f = RingMorphism(A, B, [x ** 2], name="f")
    ba = restrict_along(f)
    assert ba.rank == 2 and not ba.relations
    assert [d.zdeg for d in ba.bidegrees] == [0, 1]


def test_restrict_preserves_bigraded_dimensions():
    f = node_map(3, 1, 2)
    ba = restrict_along(f)
    assert hilbert_function(ba, 7) == hilbert_function(
        ModulePresentation.structure(f.target), 7)


def test_not_module_finite_detected():
    A = GradedRing(["u"], zdegs=[2], name="A")
    B = GradedRing(["x", "y"], name="B")
    x = B.var("x")
    with pytest.raises(NotModuleFiniteError):
        RingMorphism(A, B, [x ** 2], name="bad")


def test_morphism_bidegree_validation():
    A = GradedRing(["u"], zdegs=[3], name="A")
    B = GradedRing(["x"], name="B")
    x = B.var("x")
    with pytest.raises(ValueError):
        RingMorphism(A, B, [x ** 2], name="wrongdeg")
