"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines inline.  Every tolerance in here is exact: the engine computes over Q
and the expected values are equalities.
"""

import json
import random
from math import gcd
from pathlib import Path

from oracles import cusp_hom_oracle, root_hom_oracle
from stackdual.complexes import homology, koszul, resolve
from stackdual.dsl import parse_session
from stackdual.duality import (canonical_module, cm_gorenstein_check,
                               compare_modules, ext_dualizing, finite_shriek,
                               lci_dualizing)
from stackdual.gmodule import (FreeModule, ModulePresentation,
                               hilbert_function, minimalize, restrict_along,
                               vector_bidegree)
from stackdual.groebner import buchberger, normal_form
from stackdual.poly import GradedRing
from stackdual.presets import PRESETS, preset_session
from stackdual.session import run_session

GOLDEN = Path(__file__).parent / "golden"


def report(number: int, ok: bool, label: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {state} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def node_morphism(a, i, j):
    alpha, beta = a // gcd(i, a), a // gcd(j, a)
    ast = parse_session(f"""
ring A = Q[u,v]/(u*v) degrees {{u:{alpha}, v:{beta}}}
ring B = Q[x,y]/(x*y) group {a} weights {{x:{i}, y:{j}}}
map p : A -> B {{ u = x^{alpha}, v = y^{beta} }}
""")
    return ast.maps["p"]


def test_criterion_1_node_dualizing_sheaf_trivial():
    ok = True
    for a, i, j in [(2, 1, 1), (3, 1, 2), (5, 2, 3)]:
        rep = finite_shriek(node_morphism(a, i, j), depth=4)
        ok &= rep.is_free_rank_one
        ok &= rep.generator_bidegrees[0].weight == 0
        ok &= all(rep.ext_profile[k][0] for k in (1, 2, 3, 4))
    report(1, ok, "node: free rank 1, weight exactly 0, Ext^1..4 = 0 "
                  "for (a,i,j) in {(2,1,1),(3,1,2),(5,2,3)}")


def test_criterion_2_cusp_over_line():
    ast = parse_session("""
ring A = Q[u] degrees {u:2}
ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1} degrees {x:2, y:3}
map f : A -> B { u = x }
""")
    rep = finite_shriek(ast.maps["f"], depth=4)
    ok = rep.is_free_rank_one
    ok &= rep.generator_bidegrees[0].weight == (-1) % 2
    ok &= hilbert_function(rep.module, 7) == cusp_hom_oracle(7)
    report(2, ok, "cusp over line: generator weight = -1 mod 2")


def test_criterion_3_tacnodes():
    over_node = parse_session("""
ring A = Q[u,w]/(w^2 - u^2) degrees {u:2, w:2}
ring B = Q[x,y]/(y^2 - x^4) group 2 weights {x:1, y:0} degrees {x:1, y:2}
map f : A -> B { u = x^2, w = y }
""").maps["f"]
    over_cusp = parse_session("""
ring A = Q[u,t]/(t^2 - u^3) degrees {u:2, t:3}
ring B = Q[x,y]/(y^2 - x^4) group 2 weights {x:1, y:1} degrees {x:1, y:2}
map f : A -> B { u = x^2, t = x*y }
""").maps["f"]
    rep_node = finite_shriek(over_node, depth=4)
    rep_cusp = finite_shriek(over_cusp, depth=4)
    ok = rep_node.is_free_rank_one and rep_cusp.is_free_rank_one
    ok &= rep_node.generator_bidegrees[0].weight == (-1) % 2
    ok &= rep_cusp.generator_bidegrees[0].weight == 0
    report(3, ok, "tac-node over node: weight -1 mod 2; over cusp: weight 0")


def test_criterion_4_triple_point():
    ok = True
    for a in (3, 6):
        C = GradedRing(["u", "v", "t"], weights=[1, 1, 1], group_order=a,
                       name="C")
        u, v, t = C.var("u"), C.var("v"), C.var("t")
        I = [u * v - t * t, u * t - v * v, v * t - u * u]

        pres = ModulePresentation(FreeModule(C, (C.degree_zero(),)),
                                  [(g,) for g in I])
        res = resolve(pres, 3)
        ok &= res.ranks() == [1, 3, 2]
        ok &= [[d.zdeg for d in T.free.bidegrees] for T in res.terms] == \
            [[0], [2, 2, 2], [3, 3]]

        exts = dict(ext_dualizing(C, I, ModulePresentation.structure(C), 3))
        ok &= exts[0].rank == 0 and exts[1].rank == 0 and exts[3].rank == 0
        ext2 = exts[2]
        ok &= ext2.rank == 2 and len(ext2.relations) == 3
        ok &= all(d.weight == 3 % a for d in ext2.free.bidegrees)

        d = ext2.free.bidegrees[0]
        B = ext2.ring
        u, v, t = B.var("u"), B.var("v"), B.var("t")
        displayed = ModulePresentation(FreeModule(B, (d, d)),
                                       [(t, u), (v, t), (u, v)])
        ok &= compare_modules(ext2, displayed, 8) == "isomorphic-up-to-bound"

        cm = cm_gorenstein_check(C, I, 3)
        ok &= cm.cohen_macaulay and not cm.gorenstein and not cm.inconclusive
    report(4, ok, "triple point: Betti (1,3,2) at zdegs (0),(2,2,2),(3,3); "
                  "Ext^2 = 2 generators of weight 3 mod a with the displayed "
                  "3-relation matrix; CM, not Gorenstein")


def _regular_sequence_library():
    lib = []
    qxy = GradedRing(["x", "y"], weights=[1, 2], group_order=3, name="NXY")
    x, y = qxy.var("x"), qxy.var("y")
    lib.append((qxy, [x * y]))
    lib.append((qxy, [x, y]))
    p146 = GradedRing(["x", "y", "z"], zdegs=[1, 4, 6], name="P146")
    x, y, z = p146.var("x"), p146.var("y"), p146.var("z")
    lib.append((p146, [z * x ** 2 - y ** 2]))
    bal = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3,
                     name="BAL")
    t, u = bal.var("t"), bal.var("u")
    lib.append((bal, [t ** 5 - u ** 2 + t ** 2]))
    c3 = GradedRing(["x", "y", "z"], name="C3")
    rng = random.Random(561)
    found = 0
    while found < 2:
        coeffs = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(12)]
        x, y, z = c3.var("x"), c3.var("y"), c3.var("z")
        quadrics = [x * x, x * y, y * y, x * z, y * z, z * z]
        f = sum((c * q for c, q in zip(coeffs[:6], quadrics)), c3.zero())
        g = sum((c * q for c, q in zip(coeffs[6:], quadrics)), c3.zero())
        if f.is_zero() or g.is_zero():
            continue
        kc = koszul(c3, [f, g])
        if all(minimalize(homology(kc, i)).rank == 0 for i in (1, 2)):
            lib.append((c3, [f, g]))
            found += 1
    return lib


def test_criterion_5_lci_formula_equals_ext():
    lib = _regular_sequence_library()
    ok = len(lib) >= 6
    for ring, seq in lib:
        r = len(seq)
        omega = canonical_module(ring)
        rep = lci_dualizing(ring, seq, omega, imax=r + 1, compare_bound=8)
        ok &= "CROSS-CHECK FAILED" not in rep.notes
        exts = dict(ext_dualizing(ring, seq, omega, r + 1))
        ok &= all(e.rank == 0 for i, e in exts.items() if i != r)
        ok &= compare_modules(rep.module, exts[r], 8) == "isomorphic-up-to-bound"
    report(5, ok, f"l.c.i. formula matches Ext^r (bound 8) and Ext vanishes "
                  f"away from r over {len(lib)} regular sequences")


def test_criterion_6_root_covers():
    ok = True
    for a in (2, 3, 5, 7):
        ast = parse_session(f"""
ring A = Q[u] degrees {{u:{a}}}
ring B = Q[t] group {a} weights {{t:1}}
map tau : A -> B {{ u = t^{a} }}
""")
        rep = finite_shriek(ast.maps["tau"], depth=4)
        ok &= rep.is_free_rank_one
        ok &= rep.generator_bidegrees[0].weight == (-(a - 1)) % a
        ok &= hilbert_function(rep.module, 8) == root_hom_oracle(a, 8)
    report(6, ok, "root cover: generator weight = -(a-1) mod a for "
                  "a in {2,3,5,7}, matching the dual-basis oracle")


def test_criterion_7_weighted_projective_adjunction():
    ok = True
    C = GradedRing(["x", "y", "z"], zdegs=[1, 4, 6], name="C")
    x, y, z = C.var("x"), C.var("y"), C.var("z")
    rep = lci_dualizing(C, [z * x ** 2 - y ** 2], canonical_module(C))
    ok &= rep.twist_label() == "O(-3)"
    for i, j, a in [(1, 1, 2), (1, 2, 3), (2, 3, 5)]:
        C = GradedRing(["x", "y", "z"], zdegs=[i, j, a], name="C")
        x, y = C.var("x"), C.var("y")
        rep = lci_dualizing(C, [x * y], canonical_module(C))
        ok &= rep.twist_label() == f"O(-{a})"
    bal = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3,
                     name="BAL")
    t, u = bal.var("t"), bal.var("u")
    rep = lci_dualizing(bal, [t ** 5 - u ** 2 + t ** 2], canonical_module(bal))
    ok &= rep.is_free_rank_one and rep.generator_bidegrees[0].weight == 0
    report(7, ok, "P(1,4,6) curve gives O(-3); P(i,j,a) node gives O(-a); "
                  "balanced node chart has weight 0")


def test_criterion_8_pushforward():
    ok = True
    for name in ("pushforward-node", "cusp-line"):
        ast = parse_session(preset_session(name))
        rep = run_session(ast)
        ok &= rep.exit_code() == 0
        push = [o for o in rep.outcomes if o.name == "check"]
        ok &= len(push) == 1 and push[0].verdicts["verdict"] == "equal"
    report(8, ok, "pushforward check passes with bound 8 for the node and "
                  "cusp-line presets")


def test_criterion_9_kernel_property_suites():
    rng = random.Random(20260810)
    ok = True

    # reduced-basis uniqueness and normal-form idempotence, seeded instances
    count = 0
    while count < 50:
        nvars = rng.choice([2, 3])
        ring = GradedRing(["x", "y", "z"][:nvars])
        polys = []
        for _ in range(2):
            p = ring.zero()
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(nvars))
                p = p + ring.monomial(mono, rng.choice([-2, -1, 1, 2]))
            polys.append(p)
        gens = [p for p in polys if not p.is_zero()]
        if not gens:
            continue
        count += 1
        gb = buchberger(gens, ring=ring)
        probe = polys[0] * polys[-1] + ring.one()
        nf = normal_form(probe, gb)
        ok &= normal_form(nf, gb) == nf
        shuffled = gens[:]
        rng.shuffle(shuffled)
        ok &= [str(g) for g in buchberger(shuffled, ring=ring).generators] == \
            [str(g) for g in gb.generators]

    # Koszul exactness and d o d = 0 with homogeneous matrices, preset library
    for ring, seq in _regular_sequence_library():
        kc = koszul(ring, seq)
        kc.check_composition()
        ok &= all(minimalize(homology(kc, i)).rank == 0
                  for i in range(1, len(seq) + 1))
        for f in kc.maps.values():
            for col in f.columns:
                if any(not p.is_zero() for p in col):
                    ok &= vector_bidegree(col, f.target.free.bidegrees,
                                          ring) is not None

    f = node_morphism(3, 1, 2)
    ba = restrict_along(f, ModulePresentation.structure(f.target))
    res = resolve(ba, 4)
    res.check_composition()
    for col in ba.relations:
        ok &= vector_bidegree(col, ba.free.bidegrees, ba.ring) is not None

    report(9, ok, "kernel properties: Koszul exactness, d o d = 0, "
                  "bihomogeneous matrices, NF idempotence, reduced-GB "
                  "permutation invariance (50 seeded instances + library)")


def test_criterion_10_deterministic_reports():
    ok = True
    for name in sorted(PRESETS):
        text = preset_session(name)
        first = run_session(parse_session(text)).to_json()
        second = run_session(parse_session(text)).to_json()
        golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        ok &= first == second == golden
        json.loads(first)  # valid JSON document
    report(10, ok, "every preset produces byte-identical JSON across "
                   "two consecutive runs, equal to its golden report")
