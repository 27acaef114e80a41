"""Groebner bases, normal forms, and syzygies.

The triple-point reduced basis below was computed by hand before the build
(all S-pairs of {u^2-vt, uv-t^2, v^2-ut} reduce to zero, leads u^2 > uv >
v^2 under degrevlex u>v>t) and cross-checked against an independent
computer algebra system.
"""

import inspect
import sys
from collections import Counter

import pytest

from oracles import annihilates, col, engine_terms
from stackdual import caps, groebner
from stackdual.caps import ResourceCapError
from stackdual.dsl import parse_session
from stackdual.groebner import (GroebnerBasis, SubmoduleOracle, buchberger,
                                minimal_generating_vectors, normal_form,
                                printed_column, syzygies_over, vector_bidegree)
from stackdual.poly import GradedRing, MonomialOrder
from stackdual.presets import preset_session
from stackdual.session import run_session


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
    lex_ring = GradedRing(["u", "v", "t"], order=MonomialOrder("lex"))
    gb = buchberger(triple_gens(lex_ring))
    assert "v^3 - t^3" in {str(g) for g in gb.generators}
    grevlex_gb = buchberger(triple_gens(uvt))
    assert normal_form(v ** 3 - t ** 3, grevlex_gb).is_zero()


def test_normal_form_generator_reduces_to_zero(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    gb = buchberger([x * y])
    assert normal_form(x * y, gb).is_zero()
    assert normal_form(x ** 3, gb) == x ** 3
    # a basis of a generator that is not monic
    assert normal_form(x ** 2 * y + x ** 3, buchberger([2 * x * y])) == x ** 3


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


def minimal_syzygies(ring, rows, rank):
    """A minimal generating set of the relations among `rows`, nonzero
    homogeneous columns of R^rank generated in degree zero."""
    row_degs = [vector_bidegree(r, [ring.degree_zero()] * rank) for r in rows]
    syz = syzygies_over(ring, rows, rank)
    return [syz[i] for i in sorted(minimal_generating_vectors(ring, syz, row_degs))]


def test_koszul_syzygy_of_regular_pair(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    syz = minimal_syzygies(qxy, [col(x), col(y)], 1)
    assert len(syz) == 1
    assert sorted(printed_column(syz[0], 2)) in (["-x", "y"], ["-y", "x"])
    assert annihilates(qxy, syz, [col(x), col(y)])


def test_unit_has_no_relations(qxy):
    assert minimal_syzygies(qxy, [col(qxy.one())], 1) == []


def test_syzygies_over_quotient_reproduce_node_relations():
    # x over B = Q[x,y]/(xy): the annihilator relation y*e comes from lifting
    B = GradedRing(["x", "y"]).quotient(
        [GradedRing(["x", "y"]).var("x") * GradedRing(["x", "y"]).var("y")])
    x = B.var("x")
    syz = minimal_syzygies(B, [col(x)], 1)
    assert [list(printed_column(v, 1)) for v in syz] in ([["-y"]], [["y"]])


def test_syzygy_annihilation_over_quotient(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    rows = [col(x, y), col(y, x.ring.zero())]
    syz = minimal_syzygies(node_ring, rows, 2)
    assert syz and annihilates(node_ring, syz, rows)


def test_zero_inputs_contribute_their_unit_relations(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    one = qxy.one()
    assert syzygies_over(qxy, [{}, {}], 1) == [{1: one}, {0: one}]
    assert syzygies_over(qxy, [{}, col(x)], 1) == [{0: one}]
    rows = [col(x), {}, col(y)]
    syz = syzygies_over(qxy, rows, 1)
    assert len(syz) == 2 and {1: one} in syz
    assert annihilates(qxy, syz, rows)


def test_liftable_oracle_is_fixed_and_span_only_has_no_syzygies(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    with pytest.raises(RuntimeError):
        SubmoduleOracle(node_ring, [col(x)], 1).syzygies(1)
    oracle = SubmoduleOracle(node_ring, [col(x)], 1, liftable=True)
    syz = oracle.syzygies(1)
    assert syz == syzygies_over(node_ring, [col(x)], 1) and col(y) in syz
    with pytest.raises(RuntimeError):
        oracle.add(col(x * x))          # even a vector already in the span
    assert oracle.ngens == 1 and oracle.syzygies(1) == syz


def test_submodule_oracle_membership_and_lift(node_ring):
    x, y = node_ring.var("x"), node_ring.var("y")
    z = node_ring.zero()
    oracle = SubmoduleOracle(node_ring, [col(x, z), col(z, y)], 2, liftable=True)
    assert oracle.contains(col(x * x, z))
    assert not oracle.contains(col(y, z)) and oracle.lift(col(y, z)) is None
    coords = oracle.lift(col(x * x, z))
    assert coords is not None
    assert node_ring.reduce(coords[0] * x).terms == (x * x).terms


def test_submodule_oracle_add_grows_the_span(node_ring):
    """`add` grows a span-only oracle by each column outside its span and
    says whether it did; a liftable oracle refuses it."""
    x, y = node_ring.var("x"), node_ring.var("y")
    z = node_ring.zero()
    oracle = SubmoduleOracle(node_ring, [], 2)
    assert not oracle.contains(col(y, z))
    gens = [col(x, z), col(x * x, z), col(y, y)]
    assert [oracle.add(g) for g in gens] == [True, False, True]
    assert oracle.ngens == 0           # the construction count, which `lift` reads
    assert all(oracle.contains(g) for g in gens)
    assert oracle.contains(col(y * y, y * y)) and oracle.contains(col(x + y, y))
    assert not oracle.contains(col(y, z))
    with pytest.raises(RuntimeError):
        SubmoduleOracle(node_ring, [col(x, z)], 2, liftable=True).add(col(y, y))


def test_a_kept_candidate_is_reduced_once(uvt, monkeypatch):
    """`minimal_generating_vectors` reduces each candidate once, in
    `contains`; `add` inserts the remainder `contains` kept, so every
    other reduction is an S-vector of a basis completion."""
    by_caller = Counter()
    vec_reduce = groebner._vec_reduce

    def counting(*args, **kwargs):
        # frame 1 is _TrackedGB.reduce, frame 2 the one that asked it
        by_caller[sys._getframe(2).f_code.co_name] += 1
        return vec_reduce(*args, **kwargs)

    monkeypatch.setattr(groebner, "_vec_reduce", counting)
    g0, g1, g2 = triple_gens(uvt)
    u = uvt.var("u")
    cands = [col(g) for g in (g0, g1, u * g0, g0 + g1, g2, g1 * g2)]
    kept = minimal_generating_vectors(uvt, cands, [uvt.degree_zero()])
    assert len(kept) == 3
    assert set(by_caller) == {"contains", "_complete"}
    assert by_caller["contains"] == len(cands) and by_caller["_complete"] > 0


def test_each_bidegree_is_derived_once(uvt, monkeypatch):
    """One `minimal_generating_vectors` call derives the bidegree of each
    nonzero candidate once, for both the greedy order and the truncation
    guard, and of each nonzero context column once."""
    seen = Counter()
    original = groebner.vector_bidegree

    def counting(vec, gen_bidegrees):
        seen[id(vec)] += 1
        return original(vec, gen_bidegrees)

    monkeypatch.setattr(groebner, "vector_bidegree", counting)
    g0, g1, g2 = triple_gens(uvt)
    u = uvt.var("u")
    cands = [col(g) for g in (g0, u * g0, g0 + g1, g1 * g2)] + [{}]
    context = [col(g2), {}]
    kept = minimal_generating_vectors(uvt, cands, [uvt.degree_zero()],
                                      context=context)
    assert len(kept) == 2
    assert dict(seen) == {id(v): 1 for v in cands + context if v}


def test_empty_input_is_zero_ideal(qxy):
    gb = buchberger([], ring=qxy)
    assert isinstance(gb, GroebnerBasis) and len(gb) == 0
    assert normal_form(qxy.var("x"), gb) == qxy.var("x")


# -- the command's table of liftable oracles ------------------------------------


def bound_arguments(function, *args, **kwargs) -> dict:
    """Every parameter of `function` by name for this call, defaults
    included, so a wrapper reads what it needs and passes the rest on."""
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


@pytest.fixture
def gb_builds(monkeypatch):
    """One entry per tracked `_TrackedGB` built while the test runs: the
    bases of liftable oracles, not those of ideals or spans."""
    built = []
    init = groebner._TrackedGB.__init__

    def recording(self, *args, **kwargs):
        given = bound_arguments(init, self, *args, **kwargs)
        if given["track"]:
            built.append(given["ring"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner._TrackedGB, "__init__", recording)
    return built


def test_a_command_builds_each_liftable_oracle_once(qxy, gb_builds):
    x, y = qxy.var("x"), qxy.var("y")
    with caps.command_caps():
        first = syzygies_over(qxy, [col(x), col(y)], 1)
        again = syzygies_over(qxy, [col(x), col(y)], 1)
        assert len(gb_builds) == 1 and again == first and again is not first
        first.clear()                  # the caller's copy, not the oracle's
        assert syzygies_over(qxy, [col(x), col(y)], 1) == again
        assert len(gb_builds) == 1
        # equal columns over another ring are another problem
        quotient = qxy.quotient([x * x])
        over_q = syzygies_over(quotient, [col(quotient.var("x")),
                                          col(quotient.var("y"))], 1)
        assert len(gb_builds) == 2 and over_q != again


def test_the_table_lives_for_one_command(qxy, gb_builds):
    x, y = qxy.var("x"), qxy.var("y")
    syzygies_over(qxy, [col(x), col(y)], 1)
    syzygies_over(qxy, [col(x), col(y)], 1)
    assert len(gb_builds) == 2             # outside a command: nothing shared
    for expected in (3, 4):
        with caps.command_caps():
            syzygies_over(qxy, [col(x), col(y)], 1)
            syzygies_over(qxy, [col(x), col(y)], 1)
        assert len(gb_builds) == expected


def test_a_capped_build_leaves_no_entry(qxy, monkeypatch):
    x, y = qxy.var("x"), qxy.var("y")
    rows = [col(x + y + x * x + y * y), col(x * y)]
    monkeypatch.setenv("STACKDUAL_MAX_TERMS", "3")
    with caps.command_caps():
        with pytest.raises(ResourceCapError):
            syzygies_over(qxy, rows, 1)
        assert caps.command_table() == {}
    monkeypatch.delenv("STACKDUAL_MAX_TERMS")
    with caps.command_caps():
        syz = syzygies_over(qxy, rows, 1)
    assert syz and annihilates(qxy, syz, rows)


def test_dualize_finite_repeats_no_liftable_build(monkeypatch):
    # the node's matrix factorization is self-dual and the B-action lifts
    # through H^0's inputs, so equal problems recur: the table answers them
    ast = parse_session(preset_session("node", a=7, i=2, j=3))
    inputs = []
    init = SubmoduleOracle.__init__

    def recording(self, *args, **kwargs):
        given = bound_arguments(init, self, *args, **kwargs)
        if given["liftable"]:
            inputs.append((id(given["ring"]), given["rank"], tuple(
                frozenset((pos, m, c) for pos, p in v.items()
                          for m, c in p.terms.items())
                for v in given["generators"])))
        init(self, *args, **kwargs)

    monkeypatch.setattr(SubmoduleOracle, "__init__", recording)
    report = run_session(ast)
    assert report.error is None and len(report.outcomes) == 1
    assert inputs and len(set(inputs)) == len(inputs)


def test_syzygies_express_only_the_inputs_with_a_relation(monkeypatch):
    # an input that is its own basis element and reduces by itself alone
    # expresses as e_i, so its relation is zero and it is not expressed
    calls = []      # per extraction: (inputs expressed, with a relation, inputs)
    express = groebner._TrackedGB.express
    syzygies = SubmoduleOracle.syzygies
    expressed = 0

    def counting(self, vec):
        nonlocal expressed
        expressed += 1
        return express(self, vec)

    def extracting(self, heads):
        nonlocal expressed
        if heads in self._syzygies:
            return syzygies(self, heads)
        unit = (0,) * self.gb.ring.nvars
        with_relation = sum(
            engine_terms(express(self.gb, v), self.gb.ring) != {(i, unit): 1}
            for i, v in enumerate(self._inputs))
        expressed = 0
        found = syzygies(self, heads)
        calls.append((expressed, with_relation, len(self._inputs)))
        return found

    monkeypatch.setattr(groebner._TrackedGB, "express", counting)
    monkeypatch.setattr(SubmoduleOracle, "syzygies", extracting)
    report = run_session(parse_session(preset_session("node", a=7, i=2, j=3)))
    assert report.error is None and calls
    assert all(n == with_relation for n, with_relation, _ in calls)
    assert sum(n for n, _, _ in calls) < sum(total for _, _, total in calls)


def test_normal_form_converts_its_basis_once(uvt, monkeypatch):
    gb = buchberger(triple_gens(uvt))
    converted = []
    rank1 = groebner._rank1

    def counting(p):
        converted.append(p)
        return rank1(p)

    monkeypatch.setattr(groebner, "_rank1", counting)
    u, v, t = uvt.var("u"), uvt.var("v"), uvt.var("t")
    for p in (u * v * t, u ** 3, v * t ** 2 - u ** 2):
        normal_form(p, gb)
    # the three inputs, and each generator once
    assert len(converted) == 3 + len(gb)
