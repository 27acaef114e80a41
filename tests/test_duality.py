"""Duality recipes against independently enumerated oracles.

The dual-basis oracles below enumerate Hom_A(B, A) from the explicit
A-module decompositions (worked out by hand before the build) and never
touch the Groebner engine, so they check the whole pipeline end to end.
"""

import dataclasses
import itertools
import json
import random
import sys
from math import gcd
from pathlib import Path

import pytest

from stackdual import duality
from stackdual.caps import EXIT_INTERNAL_ERROR, ResourceCapError, command_caps
from stackdual.cli import main
from stackdual.complexes import hom_complex, homology
from stackdual.dsl import parse_session
from stackdual.duality import (CMReport, canonical_module, cm_gorenstein_check,
                               compare_modules, ext_dualizing, finite_shriek,
                               lci_dualizing, pushforward_check)
from stackdual.gmodule import (ModulePresentation, RingMorphism,
                               hilbert_function, minimalize, restrict_along)
from stackdual.poly import Bidegree, GradedRing, RingMismatchError
from stackdual.session import cm_report_json, duality_report_json

# json_digest's Ext grid draws its ideals from perfbench/workloads.py
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))


def node_setup(a, i, j):
    alpha, beta = a // gcd(i, a), a // gcd(j, a)
    ast = parse_session(f"""
ring A = Q[u,v]/(u*v) degrees {{u:{alpha}, v:{beta}}}
ring B = Q[x,y]/(x*y) group {a} weights {{x:{i}, y:{j}}}
map p : A -> B {{ u = x^{alpha}, v = y^{beta} }}
""")
    return ast.maps["p"], alpha, beta


from oracles import (col, cusp_hom_oracle, node_hom_oracle,
                     reference_cm_gorenstein_check, reference_lci_dualizing,
                     reference_resolve, root_hom_oracle, twist)


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


# -- verdicts from grade and Betti numbers -------------------------------------------


def outcome(fn, *args):
    """A report as its JSON bytes and human lines, or an error as its type
    and text."""
    try:
        rep = fn(*args)
    except Exception as exc:  # both paths must fail alike
        return type(exc).__name__, str(exc)
    to_json = cm_report_json if isinstance(rep, CMReport) else duality_report_json
    return json.dumps(to_json(rep)), rep.summary_lines()


# not Cohen-Macaulay: a plane and a line through one point, with and
# without a variable of Z-degree 0, and the depth-0 ring of the
# dsl-expressions golden
NOT_CM = ("ring C = Q[x,y,z]\ncheck gorenstein C ideal (x*y, x*z) max 3\n",
          "ring C = Q[x,y,z] degrees {x:1, y:1, z:0}\n"
          "check gorenstein C ideal (x*y, x*z) max 3\n",
          "ring C = Q[x,y]\ncheck gorenstein C ideal (x^2*y, x*y^2) max 2\n")


def digest_gorenstein_ideals():
    """(name, ring, ideal) of every `check gorenstein` session of
    tests/json_digest.py, then the rings of NOT_CM."""
    import json_digest
    texts = [(name, text) for name, text, _ in (*json_digest.ext_grid(),
                                                 *json_digest.cliff_grid())
             if name.startswith("gorenstein/")]
    for name, text in texts + [(f"not-cm-{k}", t) for k, t in enumerate(NOT_CM)]:
        cmd = parse_session(text).commands()[0]
        yield name, cmd.args["ring"], cmd.args["ideal"]


def test_cm_verdicts_match_the_hom_path_on_the_digest_ideals():
    """The verdicts read off grade and projective dimension equal those of
    the Hom path at every bound from 0 to n + 1, on every `check gorenstein`
    ideal of the digest and on three rings that are not CM."""
    names = set()
    for name, C, ideal in digest_gorenstein_ideals():
        names.add(name)
        for imax in range(C.nvars + 2):
            assert (outcome(cm_gorenstein_check, C, ideal, imax)
                    == outcome(reference_cm_gorenstein_check, C, ideal, imax)), (name, imax)
    assert len(names) == 31 + len(NOT_CM)


def random_graded_ring(rng):
    """Q[x,y], Q[x,y,z] or Q[x,y,z,w] with Z-degrees 1 and 2, a quarter of
    the time with one variable of Z-degree 0, under a random group."""
    nvars = rng.choice([2, 3, 3, 4])
    zdegs = [rng.choice([1, 1, 2]) for _ in range(nvars)]
    if rng.random() < 0.25:
        zdegs[rng.randrange(nvars)] = 0
    a = rng.choice([1, 2, 3, 5])
    return GradedRing(list("xyzw"[:nvars]), zdegs=zdegs,
                      weights=[rng.randrange(a) for _ in range(nvars)],
                      group_order=a, name="C")


def random_bihomogeneous(rng, C):
    """Half of the time a squarefree monomial, else a sum of up to three
    terms of one bidegree at Z-degree 1..3, each exponent of a variable of
    Z-degree 0 at most 2."""
    monos = [m for m in itertools.product(
                 *(range(3 // z + 1 if z else 3) for z in C.zdegs))
             if 1 <= sum(e * z for e, z in zip(m, C.zdegs)) <= 3]
    if rng.random() < 0.5:
        support = rng.sample(range(C.nvars), rng.randint(1, C.nvars))
        return C.monomial(tuple(int(i in support) for i in range(C.nvars)))
    d = C.monomial_bidegree(rng.choice(monos))
    same = [m for m in monos if C.monomial_bidegree(m) == d]
    out = C.zero()
    for m in rng.sample(same, min(len(same), rng.randint(1, 3))):
        out = out + C.monomial(m, rng.choice([-2, -1, 1, 3]))
    return out


def test_cm_verdicts_match_the_hom_path_on_drawn_ideals():
    """The same on drawn homogeneous ideals, monomial ideals that are not
    CM and rings with a variable of Z-degree 0 among them."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()

    @hyp.settings(derandomize=True, max_examples=60, deadline=None,
                  database=None)
    @hyp.given(st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        C = random_graded_ring(rng)
        ideal = [random_bihomogeneous(rng, C) for _ in range(rng.randint(1, 3))]
        for imax in range(C.nvars + 2):
            got = outcome(cm_gorenstein_check, C, ideal, imax)
            assert got == outcome(reference_cm_gorenstein_check, C, ideal, imax)
            if imax == C.nvars:
                seen.add((C.positive, '"cohen_macaulay": true' in got[0]))

    check()
    assert seen == {(p, cm) for p in (False, True) for cm in (False, True)}


def random_entry(rng, C):
    """A sequence entry: zero, a unit or a drawn bihomogeneous element."""
    k = rng.random()
    if k < 0.15:
        return C.zero()
    if k < 0.25:
        return C.constant(rng.choice([-1, 2]))
    return random_bihomogeneous(rng, C)


def test_lci_height_test_matches_the_koszul_loop():
    """`lci_dualizing` decides regularity by height where the reference reads
    the Koszul homology below r: equal reports and equal error texts on
    drawn sequences that are regular, not regular, hold a zero or generate
    the unit ideal."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    seen = set()

    @hyp.settings(derandomize=True, max_examples=80, deadline=None,
                  database=None)
    @hyp.given(st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        C = random_graded_ring(rng)
        seq = [random_entry(rng, C) for _ in range(rng.randint(1, 3))]
        imax = rng.choice([None, 0, len(seq), len(seq) + 1])
        args = (C, seq, canonical_module(C), imax)
        got = outcome(lci_dualizing, *args)
        assert got == outcome(reference_lci_dualizing, *args)
        seen.add(got[1].split(":")[0] if got[0] == "InputError" else "regular")

    check()
    assert seen == {"regular", "sequence is not regular",
                    "sequence generates the unit ideal"}


def counting(monkeypatch, name):
    """Record the arguments of every call of duality.<name>."""
    calls = []
    original = getattr(duality, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(duality, name, counted)
    return calls


def test_verdicts_read_only_the_ext_the_resolution_leaves_open(monkeypatch):
    """A CM ring builds no Hom complex and reads no homology; a ring that is
    not CM reads only Ext^c..Ext^pd; a regular sequence reads no Koszul
    homology below r."""
    from workloads import rational_normal_curve
    homs = counting(monkeypatch, "hom_complex")
    ranks = counting(monkeypatch, "homology_rank")
    ring, ideal = rational_normal_curve(4, 5, 1, 2)
    cmd = parse_session(ring + f"check gorenstein C ideal {ideal} max 4\n").commands()[0]
    rep = cm_gorenstein_check(cmd.args["ring"], cmd.args["ideal"], 4)
    assert rep.cohen_macaulay and rep.ext_profile == {0: 0, 1: 0, 2: 0, 3: 3, 4: 0}
    assert homs == ranks == []

    cmd = parse_session(NOT_CM[0]).commands()[0]
    rep = cm_gorenstein_check(cmd.args["ring"], cmd.args["ideal"], 3)
    assert not rep.cohen_macaulay and rep.ext_profile == {0: 0, 1: 1, 2: 1, 3: 0}
    assert len(homs) == 1 and [i for _, i in ranks] == [1, 2]

    C = GradedRing(["x", "y", "z"], name="C")
    x, y, z = C.var("x"), C.var("y"), C.var("z")
    ranks.clear()
    lci_dualizing(C, [x * y, z ** 2], canonical_module(C))
    assert ranks == []
    with pytest.raises(ValueError, match="Koszul H_1 is nonzero"):
        lci_dualizing(C, [x * y, x * z], canonical_module(C))
    assert [i for _, i in ranks] == [0, 1]


def test_the_dimension_search_polls_the_deadline(monkeypatch):
    """Under an expired command deadline the dimension of Q[x1..x20] modulo
    every x_i*x_j, whose search meets about 2^20 variable sets, raises a
    resource cap error (exit 3) within its first deadline polls."""
    C = GradedRing([f"x{i}" for i in range(20)], name="C")
    B = C.quotient([C.var(i) * C.var(j) for i, j in itertools.combinations(range(20), 2)])
    B.ideal_groebner()
    polls = counting(monkeypatch, "check_deadline")
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "0")
    with command_caps(), pytest.raises(ResourceCapError):
        duality._combinatorial_dimension(B)
    assert 0 < len(polls) <= 64


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
