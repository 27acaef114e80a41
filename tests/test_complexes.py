"""Koszul complexes, free resolutions, Hom complexes, and homology."""

import dataclasses
import json
import random

import pytest
from oracles import col, reference_resolve

from stackdual.complexes import (ChainComplex, _detect_period, hom_complex,
                                 homology, koszul, resolve)
from stackdual import complexes, duality, groebner
from stackdual.dsl import parse_session
from stackdual.duality import finite_shriek
from stackdual.gmodule import (ModuleMap, ModulePresentation,
                               hilbert_function, hom_free_into, minimalize,
                               precompose_columns, restrict_along)
from stackdual.poly import Bidegree, GradedRing
from stackdual.presets import preset_session
from stackdual.session import run_session


def test_koszul_single_element(qxy):
    x = qxy.var("x")
    kc = koszul(qxy, [x])
    assert kc.ranks() == [1, 1]
    assert kc.terms[1].bidegrees[0] == qxy.variable_bidegree(0)


def test_koszul_pair_binomial_ranks(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    kc = koszul(qxy, [x, y])
    assert kc.ranks() == [1, 2, 1]
    kc.check_composition()


def test_koszul_weighted_hypersurface():
    C = GradedRing(["x", "y", "z"], zdegs=[1, 4, 6])
    x, y, z = C.var("x"), C.var("y"), C.var("z")
    kc = koszul(C, [z * x ** 2 - y ** 2])
    assert kc.ranks() == [1, 1]
    assert kc.terms[1].bidegrees[0].zdeg == 8


def test_koszul_rejects_inhomogeneous(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    with pytest.raises(ValueError):
        koszul(qxy, [x + y ** 2])


def test_koszul_homology_regular_pair(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    kc = koszul(qxy, [x, y])
    h0 = homology(kc, 0)
    # H_0 = Q = R/(x, y): one generator, killed in degree 1
    assert h0.rank == 1
    assert hilbert_function(h0, 3) == {(0, 0): 1}
    # the only syzygy of a regular pair is the Koszul one, so H_1 = 0
    assert homology(kc, 1).rank == 0
    assert homology(kc, 2).rank == 0


def test_koszul_detects_nonregular(node_ring):
    # (x, y) in the node ring is not regular: H_1 is nonzero
    x, y = node_ring.var("x"), node_ring.var("y")
    kc = koszul(node_ring, [x, y])
    assert homology(kc, 1).rank != 0


def test_resolve_principal_ideal(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    M = ModulePresentation(qxy, (qxy.degree_zero(),),
                           [col(y ** 2 - x ** 2)])
    res = resolve(M, 2)
    assert res.ranks() == [1, 1] and res.finite


def test_resolve_node_module_is_periodic():
    ast = parse_session("""
ring A = Q[u,v]/(u*v) degrees {u:2, v:2}
ring B = Q[x,y]/(x*y) group 2 weights {x:1, y:1}
map p : A -> B { u = x^2, v = y^2 }
""")
    f = ast.maps["p"]
    ba = restrict_along(f)
    res = resolve(ba, 5)
    assert res.ranks() == [3, 2, 2, 2, 2]
    assert not res.finite and res.length == 4
    assert res.repeat == (2, 2)


def diagonal_complex(y_zdeg):
    """x, y on the diagonal of rank-2 terms F_0..F_3 over Q[x,y]/(x^2, y^2):
    generator 0 of F_k sits in Z-degree k and generator 1 in k * y_zdeg, so
    every differential has the same columns, and consecutive terms differ by
    one uniform shift only when y has Z-degree 1."""
    R = GradedRing(["x", "y"], zdegs=[1, y_zdeg])
    x, y = R.var("x"), R.var("y")
    R = R.quotient([x * x, y * y])
    x, y = R.var("x"), R.var("y")
    terms = [ModulePresentation(R, (Bidegree(k, 0), Bidegree(k * y_zdeg, 0)))
             for k in range(4)]
    maps = {k: ModuleMap(terms[k], terms[k - 1], [col(x), col(R.zero(), y)])
            for k in range(1, 4)}
    return ChainComplex(R, terms, maps)


def test_repeated_columns_without_a_uniform_shift_are_not_a_period():
    assert _detect_period(diagonal_complex(1).maps, 3) == 1
    assert _detect_period(diagonal_complex(2).maps, 3) is None


def preset_map(name, **params):
    ast = parse_session(preset_session(name, **params))
    return next(iter(ast.maps.values()))


_rng = random.Random(20261019)
REPEATS = [(("node", dict(a=a, i=i, j=j)), (2, 2))
           for a in (5, 7, 11, 13) for i, j in [_rng.sample(range(1, a), 2)]]
REPEATS += [(("tacnode-cusp", {}), (3, 1)), (("cusp-line", {}), None)]


@pytest.mark.parametrize("preset,repeat", REPEATS,
                         ids=[f"{n}-{'-'.join(map(str, p.values()))}".strip("-")
                              for (n, p), _ in REPEATS])
def test_resolution_stopped_at_its_repeat_equals_the_full_one(preset, repeat):
    ba = restrict_along(preset_map(preset[0], **preset[1]))
    res, ref = resolve(ba, 12), reference_resolve(ba, 12)
    assert res.repeat == repeat
    assert res.finite == ref.finite
    stored = range(res.length + 1)
    assert [t.bidegrees for t in res.terms] == [ref.terms[j].bidegrees for j in stored]
    assert [res.maps[j].columns for j in stored[1:]] == \
        [ref.maps[j].columns for j in stored[1:]]
    if not repeat:
        assert res.length == ref.length
        return
    k, p = repeat
    assert res.length == k + p and ref.length == 12
    # the repeat claim itself: every later map of the full resolution has
    # the columns of the map p steps earlier, under one uniform shift
    shifts = set()
    for j in range(k + p, 13):
        assert ref.maps[j].columns == ref.maps[j - p].columns
        for i in (j, j - 1):
            new, old = ref.terms[i].bidegrees, ref.terms[i - p].bidegrees
            assert len(new) == len(old)
            shifts.update(d - e for d, e in zip(new, old))
    assert len(shifts) == 1


def test_syzygy_steps_stop_at_the_repeat(monkeypatch):
    # node at a = 5 repeats at (2, 2): past H^3 every Ext rank is a copy,
    # so neither the resolution nor the homology grows with the depth
    calls, ranked = [], []
    original = complexes.syzygies_over
    original_rank = duality.homology_rank

    def counting(*args):
        calls.append(args)
        return original(*args)

    def counting_rank(hc, i):
        ranked.append(i)
        return original_rank(hc, i)

    monkeypatch.setattr(complexes, "syzygies_over", counting)
    monkeypatch.setattr(duality, "homology_rank", counting_rank)
    f = preset_map("node", a=5)
    counts = []
    for depth in (4, 40):
        calls.clear()
        ranked.clear()
        rep = finite_shriek(f, depth=depth)
        assert set(rep.ext_profile) == set(range(1, depth + 1))
        assert ranked == [1, 2, 3]
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3


# Q[u]/(u^2) / (u) resolves by u, -u, -u, ...: it repeats at (2, 1)
NILPOTENT_POINT = """
ring A = Q[u]/(u^2)
ring B = Q[x]/(x)
map f : A -> B { u = 0 }
"""


def test_a_repeat_is_labelled_from_length_three(monkeypatch):
    cc = diagonal_complex(1)
    assert _detect_period(cc.maps, 2) == 1
    f = parse_session(NILPOTENT_POINT).maps["f"]

    def note(depth):
        return finite_shriek(f, depth=depth).notes[-1]

    assert note(1) == "A-resolution truncated at depth 2"
    for depth in (2, 6):
        assert note(depth) == (f"A-resolution truncated at depth {depth + 1}, "
                               "periodic with period 1")
    # a repeat at step 2 leaves a truncation of length 2, which is not labelled
    original = duality.resolve
    monkeypatch.setattr(duality, "resolve", lambda M, depth: dataclasses.replace(
        original(M, depth), repeat=(1, 1)))
    assert note(1) == "A-resolution truncated at depth 2"
    # the last step is tested too, and the stored terms end at the repeat
    R = GradedRing(["t"])
    R = R.quotient([R.var("t") ** 2])
    M = ModulePresentation(R, (R.degree_zero(),), [col(R.var("t"))])
    assert resolve(M, 2).repeat is None and resolve(M, 3).repeat == (2, 1)
    res = resolve(M, 5)
    assert res.repeat == (2, 1)
    assert [d.zdeg for t in res.terms for d in t.bidegrees] == [0, 1, 2, 3]


def test_composition_checks_stop_growing_past_the_repeat(monkeypatch):
    # the resolution and its Hom complex end at the repeat, so the checks
    # do not grow with the depth
    calls = []
    original = ModuleMap.sends_into_relations

    def counting(self, vectors):
        calls.append(len(vectors))
        return original(self, vectors)

    monkeypatch.setattr(ModuleMap, "sends_into_relations", counting)
    f = preset_map("node", a=5)
    counts = []
    for depth in (10, 200):
        calls.clear()
        rep = finite_shriek(f, depth=depth)
        assert set(rep.ext_profile) == set(range(1, depth + 1))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_a_complex_that_does_not_compose_still_raises():
    # over Q[x]/(x^2), x followed by x is zero
    R = GradedRing(["x"])
    x = R.var("x")
    R = R.quotient([x ** 2])
    x = R.var("x")
    terms = [ModulePresentation(R, (Bidegree(z, 0),)) for z in range(4)]
    maps = {k: ModuleMap(terms[k], terms[k - 1], [col(x)]) for k in range(1, 4)}
    assert ChainComplex(R, terms, maps).length == 3
    # a last map of other columns that does not compose: d2 o d3 = x != 0
    terms[3] = ModulePresentation(R, (Bidegree(2, 0),))
    maps[3] = ModuleMap(terms[3], terms[2], [col(R.one())])
    with pytest.raises(ValueError, match="do not compose to zero"):
        ChainComplex(R, terms, maps)
    # and so is a first pair that does not compose
    terms = [ModulePresentation(R, (Bidegree(z, 0),)) for z in (0, 1, 1)]
    maps = {1: ModuleMap(terms[1], terms[0], [col(x)]),
            2: ModuleMap(terms[2], terms[1], [col(R.one())])}
    with pytest.raises(ValueError, match="do not compose to zero"):
        ChainComplex(R, terms, maps)


def test_resolve_triple_point(triple_ring):
    u, v, t = triple_ring.var("u"), triple_ring.var("v"), triple_ring.var("t")
    M = ModulePresentation(
        triple_ring, (triple_ring.degree_zero(),),
        [col(u * v - t * t), col(u * t - v * v), col(v * t - u * u)])
    res = resolve(M, 3)
    assert res.ranks() == [1, 3, 2]
    assert res.finite
    assert [[d.zdeg for d in T.bidegrees] for T in res.terms] == \
        [[0], [2, 2, 2], [3, 3]]


def test_hom_complex_of_trivial_complex(qxy):
    M = ModulePresentation(qxy, (qxy.degree_zero(),),
                           [col(qxy.var("x"))])
    res = resolve(ModulePresentation.structure(qxy), 1)
    hc = hom_complex(res, M)
    assert hc.ranks() == [1]
    assert hilbert_function(homology(hc, 0), 4) == hilbert_function(M, 4)


def test_hom_complex_koszul_self_dual_ranks(qxy):
    x, y = qxy.var("x"), qxy.var("y")
    kc = koszul(qxy, [x, y])
    hc = hom_complex(kc, ModulePresentation.structure(qxy))
    assert hc.ranks() == [1, 2, 1]
    hc.check_composition()
    # top cohomology is R/(x, y) sitting at the dual of the sum of degrees
    top = homology(hc, 2)
    assert top.rank == 1
    assert top.bidegrees[0].zdeg == -2


def test_hom_complex_requires_free_terms(qxy):
    x = qxy.var("x")
    M = ModulePresentation(qxy, (qxy.degree_zero(),), [col(x)])
    kc = koszul(qxy, [x])
    kc.terms[0] = M
    with pytest.raises(ValueError):
        hom_complex(kc, ModulePresentation.structure(qxy))


def test_node_hom_complex_acyclic_in_positive_degrees():
    ast = parse_session("""
ring A = Q[u,v]/(u*v) degrees {u:2, v:2}
ring B = Q[x,y]/(x*y) group 2 weights {x:1, y:1}
map p : A -> B { u = x^2, v = y^2 }
""")
    f = ast.maps["p"]
    ba = restrict_along(f)
    res = resolve(ba, 4)
    hc = hom_complex(res, ModulePresentation.structure(f.weighted_source))
    for i in (1, 2, 3):
        assert homology(hc, i).rank == 0


def test_hom_complex_builds_one_span_per_target(monkeypatch):
    # Hom(F_i, W) carries W's relations, so well-definedness and d o d = 0
    # both ask for the span of each term's relations: one basis serves both
    ast = parse_session(preset_session("node", a=3)
                        + "module W over A gens w:(0,0) rels u^2*w\n")
    p = ast.maps["p"]
    W = p.transport_module(ast.modules["W"])
    res = resolve(restrict_along(p), 4)
    built = []
    init = groebner.SubmoduleOracle.__init__

    def recording(self, ring, generators, *args, **kwargs):
        built.append(id(generators))
        init(self, ring, generators, *args, **kwargs)

    monkeypatch.setattr(groebner.SubmoduleOracle, "__init__", recording)
    hc = hom_complex(res, W)
    counts = [built.count(id(t.relations)) for t in hc.terms]
    assert all(t.relations for t in hc.terms) and max(counts) == 1


def test_homology_index_out_of_range(qxy):
    kc = koszul(qxy, [qxy.var("x")])
    with pytest.raises(IndexError):
        homology(kc, 5)


def test_resolve_homology_vanishes_against_module(triple_ring):
    # resolve output is exact in degrees 1..depth-1 and H_0 recovers M
    u, v, t = triple_ring.var("u"), triple_ring.var("v"), triple_ring.var("t")
    M = ModulePresentation(
        triple_ring, (triple_ring.degree_zero(),),
        [col(u * v - t * t), col(u * t - v * v), col(v * t - u * u)])
    res = resolve(M, 3)
    for i in range(1, res.length + 1):
        assert minimalize(homology(res, i)).rank == 0
    h0 = homology(res, 0)
    assert hilbert_function(h0, 6) == hilbert_function(M, 6)


# ---------------------------------------------------------------------------
# d o d = 0 is checked on construction


def pair_differentials(ring, sign):
    """Columns of F2 -> F1 -> F0 on (x, y): the Koszul complex for sign -1,
    and a map whose composite is 2xy for sign +1."""
    x, y = ring.var("x"), ring.var("y")
    return [col(x), col(y)], [col(y, sign * x)]


def pair_bidegrees(ring):
    deg = ring.variable_bidegree(0)
    return [(ring.degree_zero(),), (deg, deg), (deg + deg,)]


def free_pair_complex(ring, sign):
    d1, d2 = pair_differentials(ring, sign)
    terms = [ModulePresentation(ring, degs) for degs in pair_bidegrees(ring)]
    maps = {1: ModuleMap(terms[1], terms[0], d1),
            2: ModuleMap(terms[2], terms[1], d2)}
    return ChainComplex(ring, terms, maps)


def hom_pair_complex(ring, sign, N):
    """Hom(F_i, N) for the maps of `pair_differentials`, built by hand as
    `hom_complex` builds it: `hom_complex` only takes a complex."""
    d1, d2 = pair_differentials(ring, sign)
    terms = [hom_free_into(degs, N) for degs in pair_bidegrees(ring)]
    maps = {0: ModuleMap(terms[0], terms[1], precompose_columns(d1, 1, N)),
            1: ModuleMap(terms[1], terms[2], precompose_columns(d2, 2, N))}
    return ChainComplex(ring, terms, maps, direction="cochain")


def test_chain_complex_of_free_terms_must_compose_to_zero(qxy):
    assert free_pair_complex(qxy, -1).ranks() == [1, 2, 1]
    with pytest.raises(ValueError, match="do not compose to zero"):
        free_pair_complex(qxy, 1)


def test_cochain_composite_is_read_modulo_target_relations(qxy):
    x = qxy.var("x")
    modulo_x = ModulePresentation(qxy, (qxy.degree_zero(),), [col(x)])
    modulo_x2 = ModulePresentation(qxy, (qxy.degree_zero(),), [col(x * x)])
    # the composite 2xy is nonzero in the free module but lies in x * Hom(F2, N)
    assert hom_pair_complex(qxy, 1, modulo_x).ranks() == [1, 2, 1]
    assert hom_pair_complex(qxy, -1, modulo_x2).ranks() == [1, 2, 1]
    with pytest.raises(ValueError, match="do not compose to zero"):
        hom_pair_complex(qxy, 1, modulo_x2)


def rational_normal_curve_check(d):
    """`check gorenstein` up to Ext^d on the degree-d rational normal curve:
    the 2x2 minors of [[x0..x(d-1)], [x1..xd]] under group 7 with weights
    w(xk) = 1 + 2k mod 7."""
    xs = [f"x{k}" for k in range(d + 1)]
    weights = ", ".join(f"{x}:{(1 + 2 * k) % 7}" for k, x in enumerate(xs))
    minors = ", ".join(f"{xs[i]}*{xs[j + 1]} - {xs[i + 1]}*{xs[j]}"
                       for i in range(d) for j in range(i + 1, d))
    return (f"ring C = Q[{', '.join(xs)}] group 7 weights {{{weights}}}\n"
            f"check gorenstein C ideal ({minors}) max {d}\n")


def assert_rational_normal_curve_verdict(report, d):
    """The closed form: the curve is arithmetically Cohen-Macaulay of
    codimension d - 1 and type d - 1, so Ext^(d-1) alone is nonzero and
    needs d - 1 generators, and it is Gorenstein only for d = 2."""
    assert report.exit_code() == 0
    (command,) = json.loads(report.to_json())["commands"]
    result = command["result"]
    assert result["codimension"] == d - 1
    assert result["cohen_macaulay"] and not result["gorenstein"]
    assert not result["inconclusive"]
    assert {int(i): e["min_generators"] for i, e in result["ext_profile"].items()
            } == {i: d - 1 if i == d - 1 else 0 for i in range(d + 1)}


def test_minimal_generators_complete_only_to_the_next_candidate(monkeypatch):
    """The greedy minimality loop processes an S-pair only when a candidate
    of at least its Z-degree asks: on the degree-6 curve `check gorenstein`
    polls the deadline about 17,000 times, where completing every span
    basis after each kept candidate polls about 54,000 times."""
    polls = []
    monkeypatch.setattr(groebner, "check_deadline", lambda: polls.append(1))
    report = run_session(parse_session(rational_normal_curve_check(6)))
    assert_rational_normal_curve_verdict(report, 6)
    assert len(polls) <= 25_000


def test_check_gorenstein_on_the_degree_7_curve_finishes(monkeypatch):
    """Degree-truncated span bases take the degree-7 curve from past any
    time limit to about a second."""
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "10")
    report = run_session(parse_session(rational_normal_curve_check(7)))
    assert_rational_normal_curve_verdict(report, 7)
