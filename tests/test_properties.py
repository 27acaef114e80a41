"""Property suites over the preset library plus seeded random instances.

Fifty seeded random small cases exercise the kernel invariants: ring
axioms, leading-term multiplicativity, bidegree additivity, normal-form
idempotence and linearity, reduced-basis uniqueness under permutation,
the module-engine ideal basis against a ring-level reference Buchberger
and its stored leads against its generators,
Koszul exactness for regular sequences, d o d = 0 with bihomogeneous
matrices on every constructed complex, the incremental span oracle
against a fresh oracle per candidate, relations modulo a context against
the hand projection of the full syzygies, span-only module Groebner bases
against tracked ones, homology in one subquotient against the two-step
reference, kernels read from a map's stored columns against the images
of the unit vectors, results that `minimalize` leaves unchanged, the
quotient-ring reduction fast path against the full normal form, and
restriction of scalars by normal forms against the elimination reference,
its staircase against the contraction staircase and its coordinates
against `RingMorphism.apply`, also into targets of unequal degrees, the
finiteness verdict of a map declaration against the contraction basis,
Hilbert tables and invariant parts read off the Hilbert series of the lead
ideals against counting standard monomials, Z-dimensions that moving a
module along a map to the weighted source keeps, degree-0 quotients that
`minimalize` leaves with no generator exactly when their relations span
every unit vector, the column invariant: every
stored module column holds nonzero reduced entries in position order,
the codimension of `check gorenstein` against the reference dimension, and
the session tokenizer against the character loop it replaced.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from oracles import (annihilates, col, engine_terms, leading_term, reference_buchberger,
                     reference_hilbert_function, reference_homology,
                     reference_invariant_part, reference_is_module_finite,
                     reference_kernel, reference_krull_dimension,
                     reference_module_generators, reference_precomposition,
                     reference_pruned_restriction, reference_relations_modulo,
                     reference_restrict_along, reference_tokenize)
from stackdual.complexes import (hom_complex, homology, homology_with_inclusion,
                                 koszul, resolve)
from stackdual.dsl import parse_session, tokenize
from stackdual.duality import cm_gorenstein_check, compare_modules, finite_shriek
from stackdual.gmodule import (ModuleMap, ModulePresentation,
                               NotModuleFiniteError, RingMorphism,
                               apply_columns, hilbert_function, hom_module,
                               invariant_part, kernel, kernel_with_inclusion,
                               minimalize, precompose_columns, restrict_along,
                               subquotient, vector_bidegree)
from stackdual import groebner, session
from stackdual.groebner import (SubmoduleOracle, buchberger,
                                minimal_generating_vectors, normal_form,
                                printed_column, syzygies_over)
from stackdual.poly import (Bidegree, GradedRing, MonomialOrder, Polynomial,
                            monomial_divides)
from stackdual.presets import list_presets, preset_session

SEED = 20260810
N_INSTANCES = 50


def random_poly(rng, ring, max_terms=3, max_deg=2, homogeneous=False):
    n = ring.nvars
    if homogeneous:
        target = rng.randint(1, max_deg)
    out = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        while True:
            mono = tuple(rng.randint(0, max_deg) for _ in range(n))
            if not homogeneous or sum(m * d for m, d in zip(mono, ring.zdegs)) == target:
                break
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                         rng.choice([1, 1, 2]))
        out = out + ring.monomial(mono, coeff)
    return out


def random_ring(rng):
    nvars = rng.choice([2, 3])
    names = ["x", "y", "z"][:nvars]
    a = rng.choice([1, 2, 3])
    weights = [rng.randrange(a) for _ in range(nvars)]
    return GradedRing(names, weights=weights, group_order=a)


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(SEED)
    out = []
    for _ in range(N_INSTANCES):
        ring = random_ring(rng)
        polys = [random_poly(rng, ring) for _ in range(3)]
        out.append((ring, polys))
    return out


def test_ring_axioms_on_random_instances(instances):
    for ring, (p, q, r) in instances:
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_leading_term_multiplicative(instances):
    for ring, (p, q, _) in instances:
        if p.is_zero() or q.is_zero():
            continue
        mp, cp = leading_term(p)
        mq, cq = leading_term(q)
        mpq, cpq = leading_term(p * q)
        assert mpq == tuple(a + b for a, b in zip(mp, mq))
        assert cpq == cp * cq


def test_bidegree_additive_on_products(instances):
    rng = random.Random(SEED + 1)
    for ring, _ in instances[:25]:
        p = random_poly(rng, ring, homogeneous=True)
        q = random_poly(rng, ring, homogeneous=True)
        dp, dq = p.bidegree(), q.bidegree()
        if dp is None or dq is None or p.is_zero() or q.is_zero():
            continue
        assert (p * q).bidegree() == dp + dq


def test_normal_form_idempotent_and_linear(instances):
    for ring, polys in instances[:25]:
        gens = [g for g in polys[:2] if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        p, q = polys[1], polys[2]
        nf = lambda r: normal_form(r, gb)
        assert nf(nf(p)) == nf(p)
        assert nf(p + q) == nf(nf(p) + nf(q))


def test_reduced_basis_permutation_invariance(instances):
    rng = random.Random(SEED + 2)
    for ring, polys in instances[:25]:
        gens = [g for g in polys if not g.is_zero()]
        if len(gens) < 2:
            continue
        base = [str(g) for g in buchberger(gens, ring=ring).generators]
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert [str(g) for g in buchberger(shuffled, ring=ring).generators] == base


def test_buchberger_matches_reference(instances):
    """The module engine returns the reference's reduced basis, generator
    for generator, under degrevlex and lex, on homogeneous and
    non-homogeneous input."""
    rng = random.Random(SEED + 5)
    for ring, polys in instances:
        lex = GradedRing(ring.variables, weights=ring.weights,
                         group_order=ring.group_order, order=MonomialOrder("lex"))
        homogeneous = [random_poly(rng, ring, homogeneous=True) for _ in range(3)]
        for target in (ring, lex):
            for gens in (polys, homogeneous):
                gens = [target.reinterpret(g) for g in gens]
                assert (buchberger(gens, ring=target).generators
                        == reference_buchberger(gens, ring=target))


def test_basis_leads_are_the_generator_leads(instances):
    """`GroebnerBasis.leads` holds the lead monomial of each generator under
    degrevlex, lex and a block order with head degrees."""
    for ring, polys in instances:
        for order in (MonomialOrder(), MonomialOrder("lex"),
                      MonomialOrder(head_degrees=(2,) + (1,) * (ring.nvars - 2))):
            target = GradedRing(ring.variables, weights=ring.weights,
                                group_order=ring.group_order, order=order)
            gb = buchberger([target.reinterpret(g) for g in polys], ring=target)
            assert gb.leads == tuple(leading_term(g)[0] for g in gb.generators)


def test_syzygies_annihilate_rows(instances):
    for ring, polys in instances[:20]:
        rows = [p for p in polys[:2] if not p.is_zero() and p.bidegree()]
        if not rows:
            continue
        degs = [r.bidegree() for r in rows]
        rows = [col(r) for r in rows]
        syz = syzygies_over(ring, rows, 1)
        keep = minimal_generating_vectors(ring, syz, degs,
                                          [vector_bidegree(v, degs) for v in syz])
        assert annihilates(ring, [syz[i] for i in keep], rows)


def preset_modules(monkeypatch):
    """Every module that a preset's report prints, over all presets."""
    modules = []
    module_json = session.module_json
    monkeypatch.setattr(session, "module_json",
                        lambda M: modules.append(M) or module_json(M))
    for name, _, _ in list_presets():
        session.run_session(parse_session(preset_session(name)))
    assert modules
    return modules


def test_coefficients_are_canonical(instances, monkeypatch):
    """Every coefficient is an int (not a bool) when it is integral and a
    Fraction only when it is not, never a float: in the seeded buchberger,
    normal_form and syzygies_over results, in every engine vector those
    build, and in the module columns of every preset's report.  Each of
    those columns is also reduced, checked on a fresh copy of every entry
    so that no kept normal-form mark answers, and homogeneous."""
    built = []
    init = groebner._TrackedGB.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(groebner._TrackedGB, "__init__", record)
    polys = []
    engine_built = []       # (ring, columns, generator bidegrees)
    for ring, (p, q, r) in instances:
        gens = [g for g in (p, q) if not g.is_zero()]
        if gens:
            gb = buchberger(gens, ring=ring)
            polys += [*gb.generators, normal_form(r, gb)]
        rows = [col(g) for g in (p, q, r) if not g.is_zero() and g.bidegree()]
        if rows:
            syz = syzygies_over(ring, rows, 1)
            engine_built.append((ring, syz, [v[0].bidegree() for v in rows]))
            polys += [e for c in syz for e in c.values()]
    modules = preset_modules(monkeypatch)
    assert polys and built
    engine_built += [(M.ring, M.relations, M.bidegrees) for M in modules]
    polys += [e for M in modules for c in M.relations for e in c.values()]
    coeffs = [c for p in polys for c in p.terms.values()]
    coeffs += [c for gb in built for vecs in (gb.basis, gb.reps, gb.syzygies)
               for v in vecs for c in v.values()]
    assert any(type(c) is Fraction for c in coeffs)
    bad = [c for c in coeffs
           if not (type(c) is int or type(c) is Fraction and c.denominator != 1)]
    assert not bad, bad[:5]
    assert any(cols for _, cols, _ in engine_built)
    for ring, cols, degs in engine_built:
        for c in cols:
            assert all(ring.reduce(Polynomial(ring, e.terms)) == e
                       for e in c.values())
            assert vector_bidegree(c, degs) is not None


def assert_memo_sound(p):
    """The facts kept on p, asked twice, agree with those of a fresh copy
    that has none kept: its bidegree, printed form and normal form over its
    own ring."""
    def facts(q):
        return q.bidegree(), str(q), q.ring.reduce(q).terms

    first = facts(p)
    assert first == facts(p) == facts(Polynomial(p.ring, dict(p.terms)))


def test_kept_polynomial_facts_match_a_fresh_computation(monkeypatch):
    rng = random.Random(SEED + 21)
    rings = set()
    for n in range(60):
        ring = random_ring(rng)
        if n % 2:
            ring = random_quotient(rng, ring)
        rings.add(bool(ring.ideal))
        p, q = (random_poly(rng, ring, max_terms=4) for _ in range(2))
        reduced = ring.reduce(p)
        for r in (p, q, reduced, -reduced, reduced / 2, reduced * q,
                  reduced + q, ring.reduce(reduced * q), ring.zero()):
            assert_memo_sound(r)
    assert rings == {True, False}
    for M in preset_modules(monkeypatch):
        for c in M.relations:
            for e in c.values():
                assert_memo_sound(e)


# -- Koszul exactness over a library of regular sequences -----------------------


def regular_sequence_library():
    lib = []
    qxy = GradedRing(["x", "y"], weights=[1, 1], group_order=2, name="Q2")
    x, y = qxy.var("x"), qxy.var("y")
    lib.append((qxy, [x * y]))
    lib.append((qxy, [x, y]))
    lib.append((qxy, [x ** 2, y ** 2]))
    p146 = GradedRing(["x", "y", "z"], zdegs=[1, 4, 6], name="P146")
    x, y, z = p146.var("x"), p146.var("y"), p146.var("z")
    lib.append((p146, [z * x ** 2 - y ** 2]))
    bal = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3,
                     name="BAL")
    t, u = bal.var("t"), bal.var("u")
    lib.append((bal, [t ** 5 - u ** 2 + t ** 2]))
    c3 = GradedRing(["x", "y", "z"], name="C3")
    x, y, z = c3.var("x"), c3.var("y"), c3.var("z")
    rng = random.Random(SEED + 3)
    found = 0
    while found < 2:
        f = random_poly(rng, c3, max_terms=3, max_deg=2, homogeneous=True)
        g = random_poly(rng, c3, max_terms=3, max_deg=2, homogeneous=True)
        if f.is_zero() or g.is_zero():
            continue
        kc = koszul(c3, [f, g])
        if all(minimalize(homology(kc, i)).rank == 0 for i in (1, 2)):
            lib.append((c3, [f, g]))
            found += 1
    return lib


@pytest.fixture(scope="module")
def sequence_library():
    return regular_sequence_library()


def test_koszul_exactness_for_regular_sequences(sequence_library):
    for ring, seq in sequence_library:
        kc = koszul(ring, seq)
        kc.check_composition()
        for i in range(1, len(seq) + 1):
            assert minimalize(homology(kc, i)).rank == 0
        quotient = ModulePresentation(
            ring, (ring.degree_zero(),), [col(f) for f in seq])
        h0 = homology(kc, 0)
        if all(d > 0 for d in ring.zdegs):
            assert hilbert_function(h0, 6) == hilbert_function(quotient, 6)


def test_composition_and_homogeneity_of_constructed_complexes(sequence_library):
    for ring, seq in sequence_library[:4]:
        kc = koszul(ring, seq)
        kc.check_composition()
        quotient = ModulePresentation(
            ring, (ring.degree_zero(),), [col(f) for f in seq])
        res = resolve(quotient, 3)
        res.check_composition()
        hc = hom_complex(res, ModulePresentation.structure(ring))
        hc.check_composition()
        for cc in (kc, res, hc):
            for f in cc.maps.values():
                for c in f.columns:
                    if c:
                        assert vector_bidegree(
                            c, f.target.bidegrees) is not None


def test_preset_complex_invariants():
    # the node resolution and its Hom complex stay homogeneous and compose
    ast = parse_session("""
ring A = Q[u,v]/(u*v) degrees {u:3, v:3}
ring B = Q[x,y]/(x*y) group 3 weights {x:1, y:2}
map p : A -> B { u = x^3, v = y^3 }
""")
    f = ast.maps["p"]
    ba = restrict_along(f)
    res = resolve(ba, 4)
    res.check_composition()
    hc = hom_complex(res, ModulePresentation.structure(f.weighted_source))
    hc.check_composition()
    for c in ba.relations:
        assert vector_bidegree(c, ba.bidegrees) is not None


def test_hom_from_ring_has_module_table(instances):
    for ring, polys in instances[:6]:
        p = polys[0]
        if p.is_zero() or p.bidegree() is None or any(d <= 0 for d in ring.zdegs):
            continue
        N = ModulePresentation(ring, (ring.degree_zero(),), [col(p)])
        h = hom_module(ModulePresentation.structure(ring), N)
        assert hilbert_function(h, 6) == hilbert_function(N, 6)


def test_minimalize_preserves_tables(instances):
    rng = random.Random(SEED + 4)
    for ring, polys in instances[:6]:
        p = polys[0]
        if p.is_zero() or p.is_constant() or p.bidegree() is None:
            continue
        d0 = ring.degree_zero()
        M = ModulePresentation(
            ring, (d0, d0),
            [col(ring.one(), ring.constant(-1)), col(p, ring.zero())])
        m = minimalize(M)
        assert m.rank == 1
        assert hilbert_function(M, 6) == hilbert_function(m, 6)


# ---------------------------------------------------------------------------
# the incremental span oracle


def random_quotient(rng, ring):
    """The ring modulo a random monomial of degree two (always bihomogeneous)."""
    i, j = rng.randrange(ring.nvars), rng.randrange(ring.nvars)
    mono = tuple((k == i) + (k == j) for k in range(ring.nvars))
    return ring.quotient([ring.monomial(mono)])


def random_form(rng, ring, d):
    """Zero or a sum of one or two terms of Z-degree d (all degrees one)."""
    out = ring.zero()
    for _ in range(rng.choice([0, 1, 1, 2])):
        mono = [0] * ring.nvars
        for _ in range(d):
            mono[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(tuple(mono), rng.choice([-2, -1, 1, 3]))
    return out


def span_instances(count, seed, make_ring=random_ring):
    """(ring, candidates, context, rank) with Z-homogeneous columns;
    candidates include multiples and sums of earlier ones, and the zero
    column, so the greedy loop has something to drop.  Entries are not
    reduced modulo the ring ideal."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        ring = make_ring(rng)
        if n % 2:
            ring = random_quotient(rng, ring)
        rank = rng.choice([1, 2])

        def vec():
            d = rng.choice([1, 2])
            return tuple(random_form(rng, ring, d) for _ in range(rank))

        cands = [vec() for _ in range(4)]
        for _ in range(3):
            u, v = rng.sample(cands, 2)
            g = ring.var(rng.randrange(ring.nvars))
            cands.append(tuple(a * g + b for a, b in zip(u, v)))
        cands.append(tuple(ring.zero() for _ in range(rank)))
        cands.append(cands[0])
        rng.shuffle(cands)
        context = [vec() for _ in range(rng.choice([0, 1, 2]))]
        out.append((ring, [col(*v) for v in cands], [col(*v) for v in context],
                    rank))
    return out


def lowest_zdeg(ring, v):
    """The least Z-degree of a term of v, which need not be homogeneous."""
    return min((min(ring.monomial_bidegree(m).zdeg for m in p.terms)
                for p in v.values()), default=0)


def fresh_oracle_greedy(ring, vectors, rank, context, zdegs=None):
    """Reference: one new oracle over kept + context per candidate, in
    ascending `zdegs[i]` (by default the lowest Z-degree of a term of
    vectors[i]), then printed form."""
    if zdegs is None:
        zdegs = [lowest_zdeg(ring, v) for v in vectors]
    order = sorted(range(len(vectors)),
                   key=lambda i: (zdegs[i], printed_column(vectors[i], rank)))
    kept = []
    for i in order:
        if not vectors[i]:
            continue
        oracle = SubmoduleOracle(ring, [vectors[k] for k in kept] + list(context), rank)
        if not oracle.contains(vectors[i]):
            kept.append(i)
    return kept


def test_minimal_generating_vectors_matches_fresh_oracle_greedy():
    instances = span_instances(40, SEED + 7)
    assert any(ring.ideal for ring, *_ in instances)
    dropped = 0
    for ring, cands, context, rank in instances:
        # the candidates need not be homogeneous: order them by their
        # lowest Z-degree, as the reference does
        degs = [Bidegree(lowest_zdeg(ring, v), 0) for v in cands]
        kept = minimal_generating_vectors(ring, cands,
                                          [ring.degree_zero()] * rank, degs,
                                          context)
        assert kept == fresh_oracle_greedy(ring, cands, rank, context)
        dropped += len(cands) - len(kept)
    assert dropped > 0


def graded_ring(rng, degree_zero_variable=False):
    """Q[x,y] or Q[x,y,z] with Z-degrees 1 and 2, one of them 0 if asked,
    half of the time modulo a monomial of degree two."""
    nvars = rng.choice([2, 3])
    zdegs = [rng.choice([1, 1, 2]) for _ in range(nvars)]
    if degree_zero_variable:
        zdegs[rng.randrange(nvars)] = 0
    ring = GradedRing(["x", "y", "z"][:nvars], zdegs=zdegs)
    return random_quotient(rng, ring) if rng.random() < 0.5 else ring


def graded_form(rng, ring, d):
    """Zero or a sum of one or two terms of Z-degree d, each exponent at
    most 2 on a variable of Z-degree 0; a nonzero constant when d = 0."""
    if d == 0:
        return ring.constant(rng.choice([-2, 1, 3]))
    monos = [m for m in itertools.product(
                 *(range(max(d, 0) // z + 1 if z else 3) for z in ring.zdegs))
             if sum(map(operator.mul, m, ring.zdegs)) == d]
    out = ring.zero()
    for _ in range(rng.choice([0, 1, 1, 2]) if monos else 0):
        out = out + ring.monomial(rng.choice(monos), rng.choice([-2, -1, 1, 3]))
    return out


def graded_span_instance(rng, degree_zero_variable=False):
    """(ring, positions, candidates, their Z-degrees, context): columns
    homogeneous over generators of mixed Z-degree -1 to 2, candidates
    that include combinations of earlier ones, a zero column and a repeat,
    and one or two context columns."""
    ring = graded_ring(rng, degree_zero_variable)
    positions = [Bidegree(rng.choice([-1, 0, 1, 2]), 0)
                 for _ in range(rng.choice([1, 2, 3]))]

    def vec(d):
        return [graded_form(rng, ring, d - p.zdeg) for p in positions]

    zdegs = [rng.choice([2, 3, 4]) for _ in range(4)]
    cands = [vec(d) for d in zdegs]
    for _ in range(3):
        i, j = rng.sample(range(len(cands)), 2)
        d = max(zdegs[i], zdegs[j]) + rng.choice([0, 1])
        f = graded_form(rng, ring, d - zdegs[i])
        g = graded_form(rng, ring, d - zdegs[j])
        cands.append([f * a + g * b for a, b in zip(cands[i], cands[j])])
        zdegs.append(d)
    cands += [[ring.zero()] * len(positions), cands[0]]
    zdegs += [0, zdegs[0]]
    context = [col(*vec(rng.choice([2, 3]))) for _ in range(rng.choice([1, 2]))]
    return ring, positions, [col(*v) for v in cands], zdegs, context


def test_truncated_span_bases_keep_what_fresh_oracles_keep(monkeypatch):
    """On homogeneous input over a positively graded ring the greedy loop's
    basis is degree-truncated, and it keeps exactly the candidates that a
    fresh fully completed oracle per candidate keeps; with a variable of
    Z-degree 0 the basis is completed in full and still agrees."""
    built = []
    init = groebner._TrackedGB.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(groebner._TrackedGB, "__init__", recording)
    rng = random.Random(SEED + 17)
    cases = [graded_span_instance(rng) for _ in range(30)]
    cases.append(graded_span_instance(rng, degree_zero_variable=True))
    assert any(ring.ideal for ring, *_ in cases)
    left_pending = dropped = 0
    for ring, positions, cands, zdegs, context in cases:
        built.clear()
        kept = minimal_generating_vectors(
            ring, cands, positions, [Bidegree(d, 0) for d in zdegs], context)
        gb = built[-1]      # after the ideal's own basis, on first use
        if ring.positive:
            assert gb.position_zdegs == [p.zdeg for p in positions]
            left_pending += bool(gb._heap)
        else:
            assert gb.position_zdegs is None and not gb._heap
        assert kept == fresh_oracle_greedy(ring, cands, len(positions),
                                           context, zdegs)
        dropped += len(cands) - len(kept)
    assert left_pending and dropped
    assert not cases[-1][0].positive


def test_syzygies_over_context_matches_hand_projection():
    instances = span_instances(40, SEED + 13)
    assert any(ring.ideal for ring, *_ in instances)
    assert any(context for _, _, context, _ in instances)
    for ring, cands, context, rank in instances:
        got = syzygies_over(ring, cands, rank, context=context)
        keys = {tuple(v.items()) for v in got}
        assert len(keys) == len(got)
        assert got == sorted(got, key=lambda v: printed_column(v, len(cands)))
        assert keys == reference_relations_modulo(ring, cands, rank, context)


def test_oracle_lift_reconstructs_combinations():
    rng = random.Random(SEED + 8)
    for ring, cands, context, rank in span_instances(20, SEED + 9):
        gens = list(context) + cands    # some of these are already in the span
        oracle = SubmoduleOracle(ring, gens, rank, liftable=True)
        assert oracle.ngens == len(gens)
        for _ in range(3):
            coeffs = [random_poly(rng, ring, max_terms=1, max_deg=1)
                      if rng.random() < 0.5 else ring.zero() for _ in gens]
            zero = ring.zero()
            target = col(*(sum((c * g.get(t, zero) for c, g in zip(coeffs, gens)), zero)
                           for t in range(rank)))
            coords = oracle.lift(target)
            assert coords is not None and all(0 <= i < len(gens) for i in coords)
            for t in range(rank):
                back = sum((c * gens[i].get(t, zero) for i, c in coords.items()), zero)
                assert ring.reduce(back - target.get(t, zero)).is_zero()


def test_oracle_lift_needs_liftable():
    ring, cands, context, rank = span_instances(1, SEED + 10)[0]
    oracle = SubmoduleOracle(ring, cands, rank)
    assert oracle.contains(cands[0])
    with pytest.raises(RuntimeError):
        oracle.lift(cands[0])


# ---------------------------------------------------------------------------
# span-only module Groebner bases (chain criterion, no representations)


def minimal_leads(gb):
    leads = engine_terms(dict.fromkeys(gb.leads, 1), gb.ring)
    return {(p, m) for p, m in leads
            if not any(q == p and n != m and monomial_divides(n, m)
                       for q, n in leads)}


def assert_same_span(untracked, tracked):
    assert not untracked.track and tracked.track
    assert minimal_leads(untracked) == minimal_leads(tracked)
    assert not any(tracked.reduce(b)[0] for b in untracked.basis)
    assert not any(untracked.reduce(b)[0] for b in tracked.basis)


def test_span_only_basis_matches_tracked_on_span_instances():
    for ring, cands, context, rank in span_instances(40, SEED + 11):
        gens = list(context) + cands
        tracked = SubmoduleOracle(ring, gens, rank, liftable=True).gb
        assert_same_span(SubmoduleOracle(ring, gens, rank).gb, tracked)
        grown = SubmoduleOracle(ring, context, rank)
        for v in cands:
            grown.extend(v)
        assert_same_span(grown.gb, tracked)


def test_span_only_basis_matches_tracked_on_restriction_input(monkeypatch):
    ast = parse_session(preset_session("node", a=5, i=2, j=3))
    (f,) = ast.maps.values()
    mixed = f.graph.ring
    captured = []

    class Recording(groebner._TrackedGB):
        def __init__(self, vectors, ring, *args, **kwargs):
            copies = [dict(v) for v in vectors]
            super().__init__(vectors, ring, *args, **kwargs)
            if ring is mixed and not self.track:
                captured.append(copies)

    monkeypatch.setattr(groebner, "_TrackedGB", Recording)
    reference_restrict_along(f)
    monkeypatch.undo()
    (vecs,) = captured      # the one elimination basis of the reference
    assert_same_span(groebner._TrackedGB(vecs, mixed),
                     groebner._TrackedGB(vecs, mixed, track=True))


# ---------------------------------------------------------------------------
# restriction of scalars by normal forms


WEIGHTED_TARGET_SESSIONS = (
    # B = Q[x,y] is free over A on 1 and x
    "ring A = Q[u,v] degrees {u:2, v:3}\nring B = Q[x,y] degrees {x:1, y:3}\n"
    "map f : A -> B { u = x^2, v = y - x^3 }\n",
    # the answer is O(3)
    "ring A = Q[u0,u1] degrees {u0:3, u1:4}\n"
    "ring B = Q[x0,x1] degrees {x0:1, x1:3}\n"
    "map f : A -> B { u0 = -x0^3 + 3*x1, u1 = 2*x0^4 + 2*x0*x1 }\n",
)


def random_weighted_form(rng, ring, zdeg):
    """A nonzero form of Z-degree `zdeg` with one to three terms, or None
    if the ring has no monomial of that degree."""
    monos = [m for m in itertools.product(range(zdeg + 1), repeat=ring.nvars)
             if sum(e * d for e, d in zip(m, ring.zdegs)) == zdeg]
    if not monos:
        return None
    out = ring.zero()
    for mono in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
        out = out + ring.monomial(mono, Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
    return out


def weighted_target_maps(seed, count=12):
    """The maps of WEIGHTED_TARGET_SESSIONS and `count` seeded finite maps
    Q[u0,u1] -> Q[x0,x1] or Q[x0,x1]/(r), with target degrees drawn from
    {1, 2, 3}; draws that are not finite are skipped."""
    maps = [f for text in WEIGHTED_TARGET_SESSIONS
            for f in parse_session(text).maps.values()]
    rng = random.Random(seed)
    while len(maps) < len(WEIGHTED_TARGET_SESSIONS) + count:
        target = GradedRing(["x0", "x1"], zdegs=[rng.choice([1, 2, 3]) for _ in "xx"])
        if rng.random() < 0.5:
            relation = random_weighted_form(rng, target, rng.randint(2, 6))
            if relation is not None:
                target = target.quotient([relation])
        forms = [random_weighted_form(rng, target, rng.randint(2, 6)) for _ in "uu"]
        if None in forms:
            continue
        source = GradedRing(["u0", "u1"], zdegs=[p.bidegree().zdeg for p in forms])
        try:
            maps.append(RingMorphism(source, target, forms))
        except NotModuleFiniteError:
            continue
    return maps


def restriction_maps(seed):
    """Every preset map, the node map at a = 2..13 with seeded weights, and
    maps into targets whose variables have different degrees."""
    maps = []
    for name in ("cusp-line", "root-cover", "tacnode-cusp", "tacnode-node"):
        maps += parse_session(preset_session(name)).maps.values()
    rng = random.Random(seed)
    for a in range(2, 14):
        i, j = rng.randint(1, a - 1), rng.randint(1, a - 1)
        maps += parse_session(preset_session("node", a=a, i=i, j=j)).maps.values()
    return maps + weighted_target_maps(seed)


def test_declaring_a_map_decides_finiteness_like_the_contraction_basis():
    """A map is declared exactly when the contraction basis finds a pure
    power of every target variable: on every restriction map, and on
    seeded maps from one or two source variables of positive degree, half
    of whose images share the factor x0."""
    for f in restriction_maps(SEED + 15):
        assert reference_is_module_finite(f.target, f.images)
    rng = random.Random(SEED + 16)
    verdicts = []
    while len(verdicts) < 24:
        target = GradedRing(["x0", "x1"], zdegs=[rng.choice([1, 2, 3]) for _ in "xx"])
        if rng.random() < 0.5:
            relation = random_weighted_form(rng, target, rng.randint(2, 6))
            if relation is not None:
                target = target.quotient([relation])
        shared = rng.random() < 0.5
        factor = target.var("x0") if shared else target.one()
        forms = [random_weighted_form(
                     rng, target, rng.randint(2, 6) - shared * target.zdegs[0])
                 for _ in range(rng.choice([1, 2]))]
        if None in forms:
            continue
        forms = [p * factor for p in forms]
        source = GradedRing(["u0", "u1"][:len(forms)],
                            zdegs=[p.bidegree().zdeg for p in forms])
        try:
            RingMorphism(source, target, forms)
            declared = True
        except NotModuleFiniteError:
            declared = False
        assert declared == reference_is_module_finite(target, forms)
        verdicts.append(declared)
    assert set(verdicts) == {True, False}


def same_span(ring, rank, us, vs):
    """Whether the relation columns us and vs span the same submodule."""
    return (all(SubmoduleOracle(ring, vs, rank).contains(u) for u in us)
            and all(SubmoduleOracle(ring, us, rank).contains(v) for v in vs))


def test_restriction_matches_elimination_reference():
    for f in restriction_maps(SEED + 15):
        ba = restrict_along(f)
        ref = reference_restrict_along(f)
        assert (ba.ring, ba.bidegrees) == (ref.ring, ref.bidegrees)
        assert same_span(ba.ring, ba.rank, ba.relations, ref.relations)
        assert hilbert_function(ba, 12) == hilbert_function(
            ModulePresentation.structure(f.target), 12)


def test_resolve_alone_prunes_the_restriction():
    # the staircase stays the minimal generating set, and resolve's
    # minimalize spans what pruning inside restrict_along kept
    for f in restriction_maps(SEED + 15):
        monos, _ = f.module_generators
        ba = restrict_along(f)
        assert resolve(ba, 2).terms[0].rank == len(monos)
        pruned = reference_pruned_restriction(f)
        assert same_span(ba.ring, ba.rank, minimalize(ba).relations,
                         pruned.relations)


def test_precompose_columns_act_as_the_hand_written_position_loop():
    rng = random.Random(SEED + 22)

    def seeded_column(ring, rank):
        entries = {pos: ring.reduce(random_poly(rng, ring)) for pos in range(rank)
                   if rng.random() < 0.6}
        return {pos: p for pos, p in entries.items() if not p.is_zero()}

    nonzero = 0
    for n in range(12):
        ring = random_ring(rng)
        if n % 2:
            ring = random_quotient(rng, ring)
        nm, r0, r1 = rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 3)
        N = ModulePresentation(ring, [ring.degree_zero()] * nm)
        d = [seeded_column(ring, r0) for _ in range(r1)]
        cols = precompose_columns(d, r0, N)
        for _ in range(3):
            vec = seeded_column(ring, r0 * nm)
            got = apply_columns(ring, cols, vec, r1 * nm)
            assert got == reference_precomposition(ring, d, nm, vec)
            nonzero += bool(got)
    assert nonzero


def test_staircase_matches_the_contraction_staircase():
    # the minimal number of generators of B over A does not depend on the
    # order; the sets agree when the graph order's target block is the
    # target's own order
    for f in restriction_maps(SEED + 15):
        monos, _ = f.module_generators
        ref = reference_module_generators(f)
        assert len(monos) == len(ref)
        if len(set(f.target.zdegs)) == 1 and f.target.order == MonomialOrder():
            assert set(monos) == set(ref)


def test_weighted_target_maps_dualize():
    reports = [finite_shriek(f, depth=2)
               for f in weighted_target_maps(SEED + 15, count=24)]
    # the two fixed maps give O(1) and O(3)
    assert [(r.is_free_rank_one, r.generator_bidegrees[0].zdeg)
            for r in reports[:2]] == [(True, -1), (True, -3)]


def test_coordinates_satisfy_their_definition():
    # sum_k f(a_k) * b_k = f(y^e) * x^b in B, checked by RingMorphism.apply
    rng = random.Random(SEED + 16)
    for f in restriction_maps(SEED + 15):
        monos, _ = f.module_generators
        if not monos:
            continue
        target = f.target
        for _ in range(4):
            b = rng.choice(monos)
            e = tuple(rng.randint(0, 2) for _ in range(f.source.nvars))
            coords = f.coordinates(b, e)
            total = target.zero()
            for k, a_k in coords.items():
                a_k = f.source.ambient().poly(a_k.terms)
                total = total + f.apply(a_k) * target.monomial(monos[k])
            image = f.apply(f.source.monomial(e)) * target.monomial(b)
            assert target.reduce(total - image).is_zero()


# ---------------------------------------------------------------------------
# homology presents each module once, and results come out minimal


def same_presentation(a, b):
    return a.bidegrees == b.bidegrees and a.relations == b.relations


def bihomogeneous_forms(rng, ring, count):
    """`count` nonzero bihomogeneous forms, reduced into the ring."""
    out = []
    while len(out) < count:
        p = ring.reduce(random_poly(rng, ring, homogeneous=True))
        if not p.is_zero() and p.bidegree() is not None:
            out.append(p)
    return out


def quotient_module(ring, gens):
    return ModulePresentation(ring, (ring.degree_zero(),),
                              [col(g) for g in gens])


@pytest.fixture(scope="module")
def homology_library(sequence_library):
    """Complexes with nonzero homology and with terms between an in- and an
    out-map: the Koszul library, Koszul complexes of non-regular sequences,
    and Hom complexes of resolutions, over polynomial, quotient and
    degree-0 rings (the last like balanced-node's)."""
    out = [koszul(ring, seq) for ring, seq in sequence_library]
    c3 = GradedRing(["x", "y", "z"], name="C3")
    x, y, z = c3.var("x"), c3.var("y"), c3.var("z")
    out += [koszul(c3, [x * y, x * z]), koszul(c3, [x, x * y, z])]
    bal = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3)
    t, u = bal.var("t"), bal.var("u")
    out.append(koszul(bal, [t * u, t ** 2, u ** 3]))
    deg0 = GradedRing(["t", "u", "v"], zdegs=[0, 1, 1], name="D0")
    t, u, v = deg0.var("t"), deg0.var("u"), deg0.var("v")
    res = resolve(quotient_module(deg0, [u * v - t * u ** 2, v ** 2]), 3)
    out += [hom_complex(res, ModulePresentation.structure(deg0)),
            hom_complex(res, quotient_module(deg0, [v]))]
    triple = GradedRing(["u", "v", "t"], weights=[1, 1, 1], group_order=3)
    u, v, t = triple.var("u"), triple.var("v"), triple.var("t")
    res = resolve(quotient_module(triple, [u * v - t * t, u * t - v * v, v * t - u * u]), 4)
    out.append(hom_complex(res, ModulePresentation.structure(triple)))
    f = parse_session(preset_session("node", a=3, i=1, j=2)).maps["p"]
    res = resolve(restrict_along(f), 4)
    out.append(hom_complex(res, ModulePresentation.structure(f.weighted_source)))
    rng = random.Random(SEED + 14)
    for n in range(6):
        ring = random_ring(rng)
        if n % 2:
            ring = random_quotient(rng, ring)
        f, g, h = bihomogeneous_forms(rng, ring, 3)
        out.append(koszul(ring, [f, g]))
        res = resolve(quotient_module(ring, [f, g]), 3)
        out.append(hom_complex(res, quotient_module(ring, [h])))
    return out


def test_homology_matches_two_step_reference(homology_library):
    """One subquotient of the raw cycles modulo the boundaries gives the
    presentation and inclusion vectors of the deleted two-step path."""
    between = nonzero = 0
    for C in homology_library:
        for i in range(C.length + 1):
            pres, incl = homology_with_inclusion(C, i)
            ref, ref_incl = reference_homology(C, i)
            assert same_presentation(pres, ref)
            assert incl == ref_incl
            if C.map_out_of(i) is not None and C.map_into(i) is not None:
                between += 1
                nonzero += pres.rank > 0
    assert between and nonzero


def test_kernel_from_columns_matches_unit_vector_images(homology_library):
    """Reading a map's stored columns gives the presentation and inclusion
    vectors of applying the map to every unit vector: on the maps out of
    the homology library's terms, modulo their boundaries, and on seeded
    maps into free and presented targets and into the zero module."""
    cases = []
    for C in homology_library:
        for i in range(C.length + 1):
            out_map, in_map = C.map_out_of(i), C.map_into(i)
            if out_map is not None:
                cases.append((out_map, list(in_map.columns) if in_map else []))
    for ring, cands, context, rank in homogeneous_span_instances(120, SEED + 17):
        d0 = ring.degree_zero()
        within = ModulePresentation(ring, (d0,) * rank, context)
        degs = [vector_bidegree(v, within.bidegrees) or d0 for v in cands]
        source = ModulePresentation(ring, degs)
        f = ModuleMap(source, within, cands)
        ker = reference_kernel(f)[1]
        g = ring.var(0)
        cases += [(f, []), (f, [{i: g * p for i, p in v.items()} for v in ker[:2]]),
                  (ModuleMap(source, ModulePresentation(ring, ()),
                             [{}] * source.rank), [])]
    kinds = set()
    for f, modulo in cases:
        pres, incl = kernel_with_inclusion(f, modulo)
        ref, ref_incl = reference_kernel(f, modulo)
        assert same_presentation(pres, ref)
        assert incl == ref_incl
        kinds.add((bool(f.ring.ideal), bool(f.target.relations),
                   f.target.rank > 0, bool(modulo)))
    assert {(q, r, True, m) for q in (False, True) for r in (False, True)
            for m in (False, True)} <= kinds
    assert (False, False, False, False) in kinds


def ungraded_ring(rng):
    """A ring with no group, so Z-homogeneous vectors are bihomogeneous."""
    return GradedRing(["x", "y", "z"][:rng.choice([2, 3])])


def homogeneous_span_instances(count, seed):
    """span_instances over ungraded rings, kept when every vector is
    homogeneous."""
    out = []
    for ring, cands, context, rank in span_instances(count, seed, ungraded_ring):
        degs = (ring.degree_zero(),) * rank
        if all(vector_bidegree(v, degs) is not None or not v
               for v in cands + context):
            out.append((ring, cands, context, rank))
    return out


def test_results_are_minimal_by_contract(homology_library):
    """subquotient, kernel, homology and hom_module return presentations
    that minimalize leaves unchanged."""
    results = [homology(C, i) for C in homology_library for i in range(C.length + 1)]
    instances = homogeneous_span_instances(120, SEED + 15)
    assert len(instances) >= 20
    rng = random.Random(SEED + 16)
    for ring, cands, context, rank in instances:
        d0 = ring.degree_zero()
        within = ModulePresentation(ring, (d0,) * rank, context)
        results.append(subquotient(cands[:5], cands[5:], within)[0])
        degs = [vector_bidegree(v, within.bidegrees) or d0 for v in cands]
        results.append(kernel(ModuleMap(ModulePresentation(ring, degs),
                                        within, cands)))
        N = quotient_module(ring, bihomogeneous_forms(rng, ring, 1))
        results += [hom_module(within, N), hom_module(N, within)]
    assert any(X.relations for X in results)
    for X in results:
        assert same_presentation(minimalize(X), X)


def assert_columns(cols, rank, ring):
    """The column invariant: nonzero entries, each reduced modulo the ring
    ideal, at ascending positions below the rank."""
    for c in cols:
        assert list(c) == sorted(c) and all(0 <= k < rank for k in c)
        for p in c.values():
            # a fresh copy keeps no normal-form mark, so reduce checks it
            assert not p.is_zero()
            assert ring.reduce(Polynomial(ring, p.terms)) == p


def test_every_column_is_sparse_reduced_and_sorted(homology_library):
    """Relations, map columns, syzygies, inclusions and lifted coordinates
    store only nonzero reduced entries, in position order."""
    for C in homology_library:
        for i, T in enumerate(C.terms):
            assert_columns(T.relations, T.rank, C.ring)
            pres, incl = homology_with_inclusion(C, i)
            assert_columns(pres.relations, pres.rank, C.ring)
            assert_columns(incl, T.rank, C.ring)
        for f in C.maps.values():
            assert_columns(f.columns, f.target.rank, C.ring)
    instances = homogeneous_span_instances(120, SEED + 17)
    assert any(ring.ideal for ring, *_ in instances)
    for ring, cands, context, rank in instances:
        assert_columns(syzygies_over(ring, cands, rank, context), len(cands), ring)
        oracle = SubmoduleOracle(ring, context + cands, rank, liftable=True)
        assert_columns([oracle.lift(v) for v in cands], oracle.ngens, ring)
        d0 = ring.degree_zero()
        within = ModulePresentation(ring, (d0,) * rank, context)
        degs = [vector_bidegree(v, within.bidegrees) or d0 for v in cands]
        f = ModuleMap(ModulePresentation(ring, degs), within, cands)
        assert_columns(f.columns, rank, ring)
        for (pres, incl), ambient_rank in ((subquotient(cands[:5], cands[5:], within), rank),
                                           (kernel_with_inclusion(f), len(cands))):
            assert_columns(pres.relations, pres.rank, ring)
            assert_columns(incl, ambient_rank, ring)
    for M in staircase_modules(SEED + 20, 60):
        assert_columns(M.relations, M.rank, M.ring)
    f = parse_session(preset_session("node", a=3, i=1, j=2)).maps["p"]
    ba = restrict_along(f)
    assert_columns(ba.relations, ba.rank, ba.ring)
    omega = finite_shriek(f, depth=2).module
    assert_columns(omega.relations, omega.rank, omega.ring)


# ---------------------------------------------------------------------------
# GradedRing.reduce: irreducible inputs come back unchanged


def test_ring_reduce_matches_normal_form():
    rng = random.Random(SEED + 12)
    kinds = set()
    for _ in range(40):
        ring = random_quotient(rng, random_ring(rng))
        gb = ring.ideal_groebner()
        for _ in range(3):
            p = ring.ambient().poly(random_poly(rng, ring, max_terms=4).terms)
            for q in (p, normal_form(p, gb)):
                expected = normal_form(q, gb)
                kinds.add(expected == q)
                got = ring.reduce(q)
                assert got.ring is ring and got.terms == expected.terms
    assert kinds == {True, False}   # both reducible and reduced inputs


HILBERT_BOUND = 12


def staircase_modules(seed, count):
    """`count` seeded modules over Q[x,y,z] or its quotient by one
    bihomogeneous form, with Z-degrees drawn from {1, 2, 3} and group
    orders 1, 5, 7 and 11 in turn.  Ranks run over 0-3; generator Z-degrees
    reach below zero and above HILBERT_BOUND.  Relations are monomials
    times a generator in half of the modules and sums of terms over up to
    three positions in the other half."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        a = (1, 5, 7, 11)[n % 4]
        ring = GradedRing(["x", "y", "z"],
                          zdegs=[rng.choice([1, 2, 3]) for _ in "xyz"],
                          weights=[rng.randrange(a) for _ in "xyz"], group_order=a)
        by_bidegree = monomials_by_bidegree(ring)
        if n % 3 == 1:
            monos = by_bidegree[rng.choice(sorted(k for k in by_bidegree if k[0] >= 2))]
            ring = ring.quotient([sum((ring.monomial(m, rng.choice([-2, 1, 3]))
                                       for m in rng.sample(monos, min(2, len(monos)))),
                                      ring.zero())])
        out.append(seeded_module(rng, ring, n // 4 % 4, n % 2 == 0))
    return out


def monomials_by_bidegree(ring):
    """{(zdeg, weight): monomials} for the monomials of Z-degree <= 6."""
    out = {}
    for m in itertools.product(range(7), repeat=ring.nvars):
        d = ring.monomial_bidegree(m)
        if d.zdeg <= 6:
            out.setdefault((d.zdeg, d.weight), []).append(m)
    return out


def seeded_module(rng, ring, rank, monomial):
    """A module over `ring` on `rank` generators of Z-degrees -3 to
    HILBERT_BOUND + 2, with up to five relations: a monomial times a
    generator when `monomial`, else sums of terms over several positions."""
    a = ring.group_order
    by_bidegree = monomials_by_bidegree(ring)
    gens = [Bidegree(rng.randint(-3, HILBERT_BOUND + 2), rng.randrange(a), a)
            for _ in range(rank)]
    rels = []
    for _ in range(rng.randint(0, 5) if gens else 0):
        # a pivot term fixes the column's bidegree; other terms match it
        pivot = rng.randrange(len(gens))
        lead = rng.choice([m for ms in by_bidegree.values() for m in ms
                           if sum(m) <= 4])
        d = ring.monomial_bidegree(lead) + gens[pivot]
        entries = [ring.zero() for _ in gens]
        entries[pivot] = ring.monomial(lead)
        for k, g in enumerate(gens):
            if monomial:
                break
            e = d - g
            monos = [m for m in by_bidegree.get((e.zdeg, e.weight), [])
                     if (k, m) != (pivot, lead)]
            if monos and rng.random() < 0.7:
                entries[k] = entries[k] + ring.monomial(rng.choice(monos),
                                                        rng.choice([-1, 2]))
        rels.append(col(*entries))
    return ModulePresentation(ring, tuple(gens), rels)


def test_hilbert_series_matches_enumeration():
    modules = staircase_modules(SEED + 20, 60)
    assert {M.ring.group_order for M in modules} == {1, 5, 7, 11}
    assert any(M.rank == 0 for M in modules)
    assert any(M.ring.ideal for M in modules)
    assert any(sum(len(p.terms) for p in c.values()) > 1
               for M in modules for c in M.relations)
    gen_zdegs = [g.zdeg for M in modules for g in M.bidegrees]
    assert min(gen_zdegs) < 0 < HILBERT_BOUND < max(gen_zdegs)
    for M in modules:
        assert hilbert_function(M, HILBERT_BOUND) == \
            reference_hilbert_function(M, HILBERT_BOUND)
        assert invariant_part(M, HILBERT_BOUND) == \
            reference_invariant_part(M, HILBERT_BOUND)
        with pytest.raises(ValueError, match="zmax must be >= 0"):
            invariant_part(M, -1)


def test_transport_keeps_every_z_dimension():
    """`pushforward_check` reads omega_A's Hilbert table over A itself: a
    module over the source of a restriction map and its transport over
    the weighted source have, in each Z-degree summed over weights, the
    same dimension."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    maps = [f for f in restriction_maps(SEED + 15) if f.source.positive]

    def z_dims(M):
        out = {}
        for (z, _w), d in hilbert_function(M, HILBERT_BOUND).items():
            out[z] = out.get(z, 0) + d
        return out

    @hyp.settings(derandomize=True, max_examples=80, deadline=None,
                  database=None)
    @hyp.given(st.sampled_from(maps), st.integers(1, 3), st.booleans(),
               st.integers(0, 2 ** 32))
    def check(f, rank, monomial, seed):
        M = seeded_module(random.Random(seed), f.source, rank, monomial)
        assert z_dims(f.transport_module(M)) == z_dims(M)

    check()


def test_degree_zero_variables_still_raise_and_compare_stays_inconclusive():
    rng = random.Random(SEED + 21)
    for zdegs in ([0, 1], [0, 0], [1, 0]):
        ring = GradedRing(["t", "x"], zdegs=zdegs)
        t, x = ring.var("t"), ring.var("x")
        m = quotient_module(ring, [t * x])
        n = quotient_module(ring, [t ** rng.randint(2, 3) * x])
        for table in (hilbert_function, reference_hilbert_function):
            with pytest.raises(ValueError):
                table(m, 4)
        with pytest.raises(ValueError):
            invariant_part(m, 4)
        assert compare_modules(m, n, 4) == "inconclusive"
        # every generator above the bound: the tables are empty there, which
        # proves nothing when the pieces are infinite
        high = (Bidegree(5, 0),)
        m = ModulePresentation(ring, high, [col(x)])
        n = ModulePresentation(ring, high, [col(t)])
        for bound in (3, 6):
            assert compare_modules(m, n, bound) == "inconclusive"


def test_degree_zero_quotients_lose_every_generator_exactly_when_zero():
    # over degree-0 variables Nakayama's lemma fails: the relations
    # (f*t)*e and (f*t + 1)*e kill e with no unit entry among them
    rng = random.Random(SEED + 23)
    ring = GradedRing(["t", "u"], zdegs=[0, 0])
    t = ring.var("t")
    kinds = set()
    for _ in range(N_INSTANCES):
        rank = rng.choice([1, 2])
        rels = [{pos: random_poly(rng, ring) for pos in range(rank)
                 if rng.random() < 0.7} for _ in range(rng.randint(0, 2))]
        for pos in range(rank):
            if rng.random() < 0.6:
                f = random_poly(rng, ring) * t
                rels += [{pos: f}, {pos: f + ring.one()}]
        M = ModulePresentation(ring, (ring.degree_zero(),) * rank,
                               rels)
        zero = all(M.span.contains({pos: ring.one()}) for pos in range(rank))
        assert (minimalize(M).rank == 0) == zero
        kinds.add(zero)
    assert kinds == {False, True}


# ---------------------------------------------------------------------------
# the combinatorial codimension of `check gorenstein`


def test_cm_codimension_matches_the_reference_dimension():
    """The codimension of `cm_gorenstein_check`, whose cross-check reads the
    lead ideal off the quotient ring's basis, is the number of variables
    minus the dimension read off the reference basis: on the triple point
    and on seeded ideals of Q[x,y,z]."""
    C = GradedRing(["u", "v", "t"], weights=[1, 1, 1], group_order=3)
    u, v, t = C.var("u"), C.var("v"), C.var("t")
    ideals = [(C, [u * v - t * t, u * t - v * v, v * t - u * u])]
    c3 = GradedRing(["x", "y", "z"], name="C3")
    rng = random.Random(SEED + 17)
    for _ in range(8):
        ideals.append((c3, [random_poly(rng, c3, homogeneous=True)
                            for _ in range(rng.randint(1, 3))]))
    codims = set()
    for ring, gens in ideals:
        rep = cm_gorenstein_check(ring, gens, ring.nvars)
        assert not rep.inconclusive
        assert rep.codimension == ring.nvars - reference_krull_dimension(ring, gens)
        codims.add(rep.codimension)
    assert len(codims) > 1


# ---------------------------------------------------------------------------
# the session tokenizer


def test_tokenize_matches_the_character_loop():
    """One regular expression reads the tokens of the character loop in
    `reference_tokenize`, whose ARROW is a SYMBOL `->`.  Texts mix the
    language's own characters with any others, line breaks of every kind
    included, but hold no numeric character that is not a decimal digit:
    the loop reads `²` as an INT that `int` refuses."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    alphabet = st.one_of(st.sampled_from("xy_Q09 \t#->(){}[]:;,=^*+/\n\r$"),
                         st.characters())
    texts = st.text(alphabet, max_size=40).filter(
        lambda text: not any(c.isnumeric() and not c.isdecimal() for c in text))

    @hyp.settings(derandomize=True, max_examples=1000, deadline=None,
                  database=None)
    @hyp.given(texts)
    def check(text):
        expected = [t._replace(kind="SYMBOL") if t.kind == "ARROW" else t
                    for t in reference_tokenize(text)]
        assert tokenize(text) == expected

    check()
